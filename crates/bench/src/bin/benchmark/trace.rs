//! Bench-side spans for the traced run: one tree per request, kept in
//! memory and written as JSON when the run ends.
//!
//! Each request (keyed by its wire nonce) gets a `bench:query:<family>`
//! root with two children: the public call (`bench:Client::
//! execute_plan_traced` or `bench:Router::explain_plan`) and the answer
//! check (`bench:check`). The program's own span tree hangs under the
//! call span. The server (and each shard) times its tree on its own
//! clock, so such a tree is placed centred inside the span that waited
//! for it; the router's tree shares the call's clock and starts with it.

use crate::json;
use crate::target::Tree;
use crate::workload::FAMILIES;
use psketch_obs::SpanNode;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    request: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// When one traced query's stages started and ended.
pub struct QueryTimes {
    pub start: Instant,
    pub call_start: Instant,
    pub call_end: Instant,
    pub end: Instant,
}

pub struct Recorder {
    origin: Instant,
    keep_per_family: usize,
    kept: [usize; 4],
    spans: Vec<Span>,
}

impl Recorder {
    /// Span times are nanoseconds since `origin`; only the first
    /// `keep_per_family` requests of each family are kept.
    pub fn new(origin: Instant, keep_per_family: usize) -> Self {
        Self {
            origin,
            keep_per_family,
            kept: [0; 4],
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &mut self,
        parent: Option<usize>,
        request: u64,
        name: String,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            parent,
            request,
            name,
            start_ns: start,
            end_ns: end,
        });
        self.spans.len() - 1
    }

    pub fn record(&mut self, fam: usize, request: u64, times: &QueryTimes, tree: &Tree) {
        if self.kept[fam] >= self.keep_per_family {
            return;
        }
        self.kept[fam] += 1;
        let (start, call_start, call_end, end) = (
            self.ns(times.start),
            self.ns(times.call_start),
            self.ns(times.call_end),
            self.ns(times.end),
        );
        let root = self.push(
            None,
            request,
            format!("bench:query:{}", FAMILIES[fam]),
            start,
            end,
        );
        let call_name = match tree {
            Tree::Server(_) => "bench:Client::execute_plan_traced",
            Tree::Router(_) => "bench:Router::explain_plan",
        };
        let call = self.push(Some(root), request, call_name.into(), call_start, call_end);
        match tree {
            Tree::Server(Some(node)) => {
                let base = centred(call_start, call_end - call_start, node);
                self.push_tree(node, call, request, base);
            }
            Tree::Server(None) => {}
            Tree::Router(node) => self.push_tree(node, call, request, call_start),
        }
        self.push(Some(root), request, "bench:check".into(), call_end, end);
    }

    /// Adds `node` and its subtree; `base` is the absolute time of the
    /// tree's own zero.
    fn push_tree(&mut self, node: &SpanNode, parent: usize, request: u64, base: u64) {
        let start = base + node.start_ns;
        let id = self.push(
            Some(parent),
            request,
            node.name.clone(),
            start,
            start + node.duration_ns,
        );
        // A router's `shard:<id>` wrapper holds that shard's tree, timed
        // on the shard's clock.
        let foreign = node
            .name
            .strip_prefix("shard:")
            .is_some_and(|id| id.parse::<u32>().is_ok());
        for child in &node.children {
            let child_base = if foreign {
                centred(start, node.duration_ns, child)
            } else {
                base
            };
            self.push_tree(child, id, request, child_base);
        }
    }

    /// The kept spans as a JSON array; `request` is the nonce in hex.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n    ");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                json::string(&psketch_obs::trace_hex(span.request)),
                json::string(&span.name),
                span.start_ns,
                span.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// The zero of `tree`'s clock that centres it inside a span starting at
/// `start` and lasting `duration` ns.
fn centred(start: u64, duration: u64, tree: &SpanNode) -> u64 {
    (start + duration.saturating_sub(tree.duration_ns) / 2).saturating_sub(tree.start_ns)
}

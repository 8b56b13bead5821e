//! In-band span traces: per-query profiling keyed by the wire nonce.
//!
//! A **trace** is the tree of timed stages one logical query passes
//! through — plan compile, per-term sketch scans, merge, WAL commit —
//! collected on the thread serving it and keyed by the request nonce
//! the wire protocol already propagates end to end. A **span** is one
//! timed stage: a name, a monotonic start offset and duration, and a
//! handful of small numeric attributes (`shard`, `term_count`,
//! `lanes`, `attempt`).
//!
//! Cost model, matching the rest of this crate:
//!
//! * **Near-zero when off.** [`enter`] first checks one process-global
//!   relaxed atomic ([`profiling_active`]); with no trace open anywhere
//!   it returns an inert guard without touching thread-local state or
//!   allocating.
//! * **Cheap when on.** Collection is thread-local (no locks on the
//!   recording path); the only lock is taken once per *completed*
//!   trace, to publish it into the bounded [`TraceRing`].
//! * **Never on the float path.** Spans time stages; they do not touch
//!   estimate arithmetic, so answers stay float-bit-identical with
//!   profiling on or off.
//!
//! Completed traces become [`SpanNode`] trees — the owned form that
//! crosses the wire (protocol v6 span attachments), lands in the
//! recent-trace ring, and renders as the `--explain` waterfall.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans recorded per trace beyond this are dropped (the root is marked
/// with a `dropped_spans` attribute) — a runaway instrumentation site
/// must not balloon a profiled response.
pub const MAX_TRACE_SPANS: usize = 1024;

/// Attributes kept per span; later ones are dropped.
pub const MAX_SPAN_ATTRS: usize = 16;

/// How many completed traces the process-global ring retains.
pub const RING_CAPACITY: usize = 64;

/// Open traces across all threads. The fast-path gate: zero means every
/// [`enter`] call is one relaxed load and an early return.
static ACTIVE_TRACES: AtomicU32 = AtomicU32::new(0);

/// Whether any thread currently has a trace open (the cheap gate
/// instrumentation sites consult before touching thread-local state).
#[must_use]
pub fn profiling_active() -> bool {
    // ord: gate: span data lives in thread-locals, never published
    // through this counter — a stale zero just skips one observation
    ACTIVE_TRACES.load(Ordering::Relaxed) != 0
}

/// One span under collection: times are offsets from the trace start.
struct OpenSpan {
    name: &'static str,
    parent: usize,
    start_ns: u64,
    duration_ns: u64,
    attrs: Vec<(&'static str, u64)>,
    closed: bool,
}

/// The per-thread collector behind an open [`Trace`].
struct Collector {
    nonce: u64,
    started: Instant,
    spans: Vec<OpenSpan>,
    /// Indices of currently open spans, innermost last.
    stack: Vec<usize>,
    dropped: u64,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// An owned span tree — the form that crosses the wire, lives in the
/// [`TraceRing`], and renders as a waterfall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage name (`router:scatter`, `shard:plan`, `estimator:scan`…).
    pub name: String,
    /// Monotonic start offset from the owning trace's root, in ns.
    pub start_ns: u64,
    /// Total time spent in this stage (children included), in ns.
    pub duration_ns: u64,
    /// Small numeric attributes (`shard`, `term_count`, `lanes`…).
    pub attrs: Vec<(String, u64)>,
    /// Sub-stages, in recording order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A leaf span with no attributes (builder convenience).
    #[must_use]
    pub fn new(name: impl Into<String>, start_ns: u64, duration_ns: u64) -> Self {
        Self {
            name: name.into(),
            start_ns,
            duration_ns,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Time spent in this stage alone: total minus children
    /// (saturating — concurrent children may overlap the parent).
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self
            .children
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.duration_ns));
        self.duration_ns.saturating_sub(children)
    }

    /// Nodes in this subtree, itself included.
    #[must_use]
    pub fn span_count(&self) -> usize {
        // Iterative: decoded trees can be deep and hostile.
        let mut count = 0usize;
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            count += 1;
            stack.extend(node.children.iter());
        }
        count
    }

    /// The first node (preorder) whose name equals `name`.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            if node.name == name {
                return Some(node);
            }
            // Preorder: push children reversed so the first child is
            // visited first.
            stack.extend(node.children.iter().rev());
        }
        None
    }

    /// A numeric attribute by key, if present.
    #[must_use]
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// An open trace on the current thread. Obtain with [`Trace::begin`];
/// close with [`Trace::finish`] to get the span tree. Dropping the
/// guard without finishing discards the collection (a refused or failed
/// request leaves nothing behind).
#[derive(Debug)]
pub struct Trace {
    /// Guards against double-finish after mem::forget-free misuse.
    live: bool,
}

impl Trace {
    /// Opens a trace for `nonce` on this thread, rooted at a span named
    /// `root`. A trace already open on this thread is discarded first
    /// (one thread serves one request at a time everywhere this is
    /// used).
    #[must_use]
    pub fn begin(nonce: u64, root: &'static str) -> Self {
        COLLECTOR.with(|slot| {
            let mut slot = slot.borrow_mut();
            if slot.is_none() {
                // ord: gate: see `profiling_active` — counter only gates
                // the fast path, span data stays thread-local
                ACTIVE_TRACES.fetch_add(1, Ordering::Relaxed);
            }
            *slot = Some(Collector {
                nonce,
                started: Instant::now(),
                spans: vec![OpenSpan {
                    name: root,
                    parent: 0,
                    start_ns: 0,
                    duration_ns: 0,
                    attrs: Vec::new(),
                    closed: false,
                }],
                stack: vec![0],
                dropped: 0,
            });
        });
        Self { live: true }
    }

    /// The nonce of the trace open on this thread, if any.
    #[must_use]
    pub fn current_nonce() -> Option<u64> {
        if !profiling_active() {
            return None;
        }
        COLLECTOR.with(|slot| slot.borrow().as_ref().map(|c| c.nonce))
    }

    /// Attaches an attribute to the root span of this trace.
    pub fn root_attr(&self, key: &'static str, value: u64) {
        COLLECTOR.with(|slot| {
            if let Some(root) = slot.borrow_mut().as_mut().and_then(|c| c.spans.first_mut()) {
                if root.attrs.len() < MAX_SPAN_ATTRS {
                    root.attrs.push((key, value));
                }
            }
        });
    }

    /// Closes the trace and assembles the span tree. Spans still open
    /// (a panic unwound past their guards) are closed at the trace's
    /// end time.
    #[must_use]
    pub fn finish(mut self) -> SpanNode {
        self.live = false;
        take_collector().map_or_else(
            || SpanNode::new("trace:lost", 0, 0),
            |mut collector| {
                let total = elapsed_ns(collector.started);
                for span in &mut collector.spans {
                    if !span.closed {
                        span.duration_ns = total.saturating_sub(span.start_ns);
                        span.closed = true;
                    }
                }
                if collector.dropped > 0 {
                    if let Some(root) = collector.spans.first_mut() {
                        if root.attrs.len() < MAX_SPAN_ATTRS {
                            root.attrs.push(("dropped_spans", collector.dropped));
                        }
                    }
                }
                assemble(collector.spans)
            },
        )
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if self.live {
            drop(take_collector());
        }
    }
}

/// Removes this thread's collector, decrementing the global gate.
fn take_collector() -> Option<Collector> {
    COLLECTOR.with(|slot| {
        let taken = slot.borrow_mut().take();
        if taken.is_some() {
            // ord: gate: see `profiling_active` — decrement only reopens
            // the fast path, no data is released through it
            ACTIVE_TRACES.fetch_sub(1, Ordering::Relaxed);
        }
        taken
    })
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Builds the nested tree from the flat parent-indexed span list.
/// Parents always precede children, so assembling back to front visits
/// every node after all of its children.
fn assemble(spans: Vec<OpenSpan>) -> SpanNode {
    let parents: Vec<usize> = spans.iter().map(|s| s.parent).collect();
    let mut slots: Vec<Option<SpanNode>> = spans
        .into_iter()
        .map(|s| {
            Some(SpanNode {
                name: s.name.to_string(),
                start_ns: s.start_ns,
                duration_ns: s.duration_ns,
                attrs: s.attrs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                children: Vec::new(),
            })
        })
        .collect();
    for i in (1..slots.len()).rev() {
        let Some(mut node) = slots.get_mut(i).and_then(Option::take) else {
            continue;
        };
        // Children were pushed in descending index order; restore
        // recording order.
        node.children.reverse();
        let parent = parents.get(i).copied().unwrap_or(0);
        if let Some(Some(parent_node)) = slots.get_mut(parent) {
            parent_node.children.push(node);
        }
    }
    let mut root = slots
        .first_mut()
        .and_then(Option::take)
        .unwrap_or_else(|| SpanNode::new("trace:lost", 0, 0));
    root.children.reverse();
    root
}

/// A span guard: opens a timed stage under the current thread's trace
/// (inert — no allocation, no thread-local access beyond one atomic
/// load — when no trace is open). Closes the stage when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    /// Index of the span in the collector, `None` when inert.
    index: Option<usize>,
}

impl SpanGuard {
    /// Attaches a numeric attribute (no-op on an inert guard, or past
    /// [`MAX_SPAN_ATTRS`]).
    pub fn attr(&self, key: &'static str, value: u64) {
        let Some(index) = self.index else { return };
        COLLECTOR.with(|slot| {
            if let Some(span) = slot
                .borrow_mut()
                .as_mut()
                .and_then(|c| c.spans.get_mut(index))
            {
                if span.attrs.len() < MAX_SPAN_ATTRS {
                    span.attrs.push((key, value));
                }
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        COLLECTOR.with(|slot| {
            if let Some(collector) = slot.borrow_mut().as_mut() {
                let now = elapsed_ns(collector.started);
                if let Some(span) = collector.spans.get_mut(index) {
                    if !span.closed {
                        span.duration_ns = now.saturating_sub(span.start_ns);
                        span.closed = true;
                    }
                }
                // Pop this span (and anything a panic left open above
                // it) off the open stack.
                while let Some(&top) = collector.stack.last() {
                    if top < index {
                        break;
                    }
                    collector.stack.pop();
                }
            }
        });
    }
}

/// Opens a span named `name` under the current thread's trace. Returns
/// an inert guard when profiling is off — the off-path is one relaxed
/// atomic load.
#[must_use]
pub fn enter(name: &'static str) -> SpanGuard {
    if !profiling_active() {
        return SpanGuard { index: None };
    }
    let index = COLLECTOR.with(|slot| {
        let mut slot = slot.borrow_mut();
        let collector = slot.as_mut()?;
        if collector.spans.len() >= MAX_TRACE_SPANS {
            collector.dropped += 1;
            return None;
        }
        let parent = collector.stack.last().copied().unwrap_or(0);
        let index = collector.spans.len();
        collector.spans.push(OpenSpan {
            name,
            parent,
            start_ns: elapsed_ns(collector.started),
            duration_ns: 0,
            attrs: Vec::new(),
            closed: false,
        });
        collector.stack.push(index);
        Some(index)
    });
    SpanGuard { index }
}

/// A completed trace in the ring.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// The wire nonce the trace is keyed by.
    pub nonce: u64,
    /// The span tree.
    pub root: SpanNode,
}

/// A bounded FIFO of recently completed traces, keyed by nonce. One
/// short mutex per store/fetch — traces complete at query rate, not at
/// span rate, so this is never on the hot path.
#[derive(Debug, Default)]
pub struct TraceRing {
    inner: Mutex<VecDeque<CompletedTrace>>,
}

impl TraceRing {
    /// An empty ring.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a completed trace, evicting the oldest past
    /// [`RING_CAPACITY`]. A poisoned mutex is recovered — the ring
    /// holds plain data, never a half-applied invariant.
    pub fn store(&self, nonce: u64, root: SpanNode) {
        let mut ring = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() >= RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(CompletedTrace { nonce, root });
    }

    /// The most recently completed trace for `nonce`, if still retained.
    #[must_use]
    pub fn fetch(&self, nonce: u64) -> Option<SpanNode> {
        let ring = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.iter()
            .rev()
            .find(|t| t.nonce == nonce)
            .map(|t| t.root.clone())
    }

    /// Summaries of every retained trace, oldest first.
    #[must_use]
    pub fn list(&self) -> Vec<TraceSummary> {
        let ring = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.iter()
            .map(|t| TraceSummary {
                nonce: t.nonce,
                root: t.root.name.clone(),
                duration_ns: t.root.duration_ns,
                spans: t.root.span_count(),
            })
            .collect()
    }
}

/// One row of [`TraceRing::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// The trace's wire nonce.
    pub nonce: u64,
    /// Root span name.
    pub root: String,
    /// Root span duration in ns.
    pub duration_ns: u64,
    /// Spans in the tree.
    pub spans: usize,
}

/// The process-global recent-trace ring (what the wire `Trace` frame
/// and the `/traces` endpoint serve).
#[must_use]
pub fn ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(TraceRing::new)
}

/// Renders the ring as the `/traces` JSON document.
#[must_use]
pub fn ring_json() -> String {
    let rows: Vec<String> = ring()
        .list()
        .into_iter()
        .map(|t| {
            format!(
                "{{\"nonce\":\"{}\",\"root\":\"{}\",\"duration_ns\":{},\"spans\":{}}}",
                crate::trace_hex(t.nonce),
                t.root.replace('\\', "\\\\").replace('"', "\\\""),
                t.duration_ns,
                t.spans
            )
        })
        .collect();
    format!("{{\"traces\":[{}]}}\n", rows.join(","))
}

/// Formats a nanosecond duration for the waterfall: fixed rules, so the
/// same span renders byte-identically wherever it is printed (the CI
/// smoke test diffs `--explain` output against `cluster trace` output).
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Whether a span is a router-side per-shard wrapper (`shard:<id>`),
/// eligible for the slowest-shard marker.
fn is_shard_wrapper(name: &str) -> bool {
    name.strip_prefix("shard:")
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// Renders an indented waterfall tree: one line per span with total and
/// self time plus attributes, the slowest `shard:<id>` sibling marked.
/// Shard-local subtree lines are rendered from the same durations the
/// shard stored in its ring, so `--explain` output and a later
/// `cluster trace` fetch print them identically.
#[must_use]
pub fn render_waterfall(root: &SpanNode) -> String {
    let mut out = String::new();
    render_node(&mut out, root, 0, false);
    out
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize, slowest: bool) {
    let indent = "  ".repeat(depth);
    let _ = write!(
        out,
        "{indent}{}  total {}  self {}",
        node.name,
        fmt_ns(node.duration_ns),
        fmt_ns(node.self_ns())
    );
    for (key, value) in &node.attrs {
        let _ = write!(out, "  {key}={value}");
    }
    if slowest {
        let _ = write!(out, "  <== slowest shard");
    }
    let _ = writeln!(out);
    // Mark the slowest shard wrapper among these children (only
    // meaningful with at least two shards to compare).
    let shard_children = node
        .children
        .iter()
        .filter(|c| is_shard_wrapper(&c.name))
        .count();
    let slowest_shard = (shard_children >= 2)
        .then(|| {
            node.children
                .iter()
                .enumerate()
                .filter(|(_, c)| is_shard_wrapper(&c.name))
                .max_by_key(|(_, c)| c.duration_ns)
                .map(|(i, _)| i)
        })
        .flatten();
    for (i, child) in node.children.iter().enumerate() {
        render_node(out, child, depth + 1, slowest_shard == Some(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_guard_when_no_trace_open() {
        assert!(!profiling_active());
        let guard = enter("should:be:inert");
        assert!(guard.index.is_none());
        guard.attr("ignored", 1);
        assert!(Trace::current_nonce().is_none());
    }

    #[test]
    fn trace_collects_nested_spans() {
        let trace = Trace::begin(0xBEEF, "root");
        assert!(profiling_active());
        assert_eq!(Trace::current_nonce(), Some(0xBEEF));
        trace.root_attr("terms", 3);
        {
            let outer = enter("outer");
            outer.attr("shard", 1);
            {
                let _inner = enter("inner");
            }
        }
        {
            let _second = enter("second");
        }
        let tree = trace.finish();
        assert!(!profiling_active());
        assert_eq!(tree.name, "root");
        assert_eq!(tree.attr("terms"), Some(3));
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].name, "outer");
        assert_eq!(tree.children[0].attr("shard"), Some(1));
        assert_eq!(tree.children[0].children.len(), 1);
        assert_eq!(tree.children[0].children[0].name, "inner");
        assert_eq!(tree.children[1].name, "second");
        assert!(tree.children[1].children.is_empty());
        assert_eq!(tree.span_count(), 4);
        assert!(tree.find("inner").is_some());
        assert!(tree.find("absent").is_none());
        // Durations nest: the root covers its children.
        assert!(tree.duration_ns >= tree.children[0].duration_ns);
        assert!(tree.children[0].duration_ns >= tree.children[0].children[0].duration_ns);
    }

    #[test]
    fn dropping_an_unfinished_trace_discards_it() {
        {
            let _trace = Trace::begin(7, "root");
            let _span = enter("work");
        }
        assert!(!profiling_active());
        assert!(Trace::current_nonce().is_none());
    }

    #[test]
    fn span_cap_drops_and_marks() {
        let trace = Trace::begin(1, "root");
        for _ in 0..(MAX_TRACE_SPANS + 10) {
            let _span = enter("leaf");
        }
        let tree = trace.finish();
        // Root plus capped leaves; the overflow is accounted for.
        assert_eq!(tree.span_count(), MAX_TRACE_SPANS);
        assert_eq!(tree.attr("dropped_spans"), Some(11));
    }

    #[test]
    fn ring_stores_fetches_and_evicts() {
        let ring = TraceRing::new();
        for nonce in 1..=(RING_CAPACITY as u64 + 5) {
            ring.store(nonce, SpanNode::new("root", 0, nonce));
        }
        // The oldest five aged out.
        assert!(ring.fetch(1).is_none());
        assert!(ring.fetch(5).is_none());
        let kept = ring.fetch(6).expect("still retained");
        assert_eq!(kept.duration_ns, 6);
        let list = ring.list();
        assert_eq!(list.len(), RING_CAPACITY);
        assert_eq!(list[0].nonce, 6);
        assert_eq!(list.last().unwrap().nonce, RING_CAPACITY as u64 + 5);
        // Same nonce stored twice: the most recent wins.
        ring.store(100, SpanNode::new("first", 0, 1));
        ring.store(100, SpanNode::new("second", 0, 2));
        assert_eq!(ring.fetch(100).unwrap().name, "second");
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut root = SpanNode::new("root", 0, 100);
        root.children.push(SpanNode::new("a", 10, 30));
        root.children.push(SpanNode::new("b", 50, 40));
        assert_eq!(root.self_ns(), 30);
        // Children exceeding the parent saturate to zero.
        let mut tight = SpanNode::new("tight", 0, 10);
        tight.children.push(SpanNode::new("c", 0, 40));
        assert_eq!(tight.self_ns(), 0);
    }

    #[test]
    fn waterfall_marks_slowest_shard_wrapper() {
        let mut scatter = SpanNode::new("router:scatter", 0, 100);
        let mut s0 = SpanNode::new("shard:0", 0, 30);
        s0.attrs.push(("attempt".into(), 1));
        let s1 = SpanNode::new("shard:1", 0, 60);
        let inner = SpanNode::new("shard:partial_counts", 0, 25);
        scatter.children.push(s0);
        scatter.children.push(s1);
        scatter.children[0].children.push(inner);
        let text = render_waterfall(&scatter);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("router:scatter  total "));
        assert!(lines[1].contains("shard:0") && lines[1].contains("attempt=1"));
        assert!(lines[2].contains("shard:partial_counts"));
        assert!(
            lines[3].contains("shard:1") && lines[3].contains("<== slowest shard"),
            "{text}"
        );
        assert!(!lines[1].contains("slowest"), "{text}");
        // The shard-local subtree line never carries the marker.
        assert!(!lines[2].contains("slowest"), "{text}");
    }

    #[test]
    fn fmt_ns_is_stable() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_345_678), "2.346ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.500s");
    }

    #[test]
    fn ring_json_lists_nonces() {
        ring().store(0xABCD, SpanNode::new("root", 0, 5));
        let json = ring_json();
        assert!(json.contains(&crate::trace_hex(0xABCD)), "{json}");
        assert!(json.contains("\"spans\":1"), "{json}");
    }
}

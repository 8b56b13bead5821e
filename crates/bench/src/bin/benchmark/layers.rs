//! Per-layer attribution of the traced window. Every traced answer's
//! latency is split along the program's own span tree, per family, so
//! that for the reported means
//!
//! * `client.rtt` = `server.handle` + `server.outside`, and
//! * `engine.exec` = `scan.us` + `engine.self`
//!
//! hold exactly. Means (not medians) are reported for these so the
//! identities survive aggregation.

use crate::probes::{Ack, ScanRates, WalProbe, WireCost, WriteProbe};
use crate::run::Metric;
use crate::stats::{median, percentile};
use crate::target::Tree;
use crate::workload::FAMILIES;
use psketch_obs::SpanNode;

/// Sums over one family's traced answers.
#[derive(Debug, Default, Clone)]
struct FamilyAgg {
    n: f64,
    rtt_ns: f64,
    handle_ns: f64,
    exec_ns: f64,
    scan_ns: f64,
    passes: f64,
}

/// Sums over `router:plan` trees.
#[derive(Debug, Default, Clone)]
pub struct RouterAgg {
    n: f64,
    plan_ns: f64,
    scatter_ns: f64,
    merge_ns: f64,
    shard_max_ns: f64,
    shard_net_ns: f64,
    attempts: f64,
    wrappers: f64,
}

impl RouterAgg {
    /// Adds one stitched tree; returns the subtree of the slowest shard
    /// (the one that set the scatter's latency).
    pub fn add<'a>(&mut self, root: &'a SpanNode) -> Result<&'a SpanNode, String> {
        let scatter = child(root, "router:scatter")?;
        let merge = child(root, "router:merge")?;
        // A wrapper's dispatch→result time can read shorter than the
        // shard's own handling (the router stamps the dispatch after
        // handing the job to the shard's worker), so the slowest shard is
        // the one with the longest of the two.
        let slowest = scatter
            .children
            .iter()
            .max_by_key(|w| {
                let handled = w.children.first().map_or(0, |c| c.duration_ns);
                w.duration_ns.max(handled)
            })
            .ok_or("router:scatter has no shard spans")?;
        self.n += 1.0;
        self.plan_ns += root.duration_ns as f64;
        self.scatter_ns += scatter.duration_ns as f64;
        self.merge_ns += merge.duration_ns as f64;
        self.shard_max_ns += slowest.duration_ns as f64;
        self.shard_net_ns += slowest.self_ns() as f64;
        for wrapper in &scatter.children {
            self.attempts += wrapper.attr("attempt").unwrap_or(0) as f64;
            self.wrappers += 1.0;
        }
        slowest
            .children
            .first()
            .ok_or_else(|| format!("{} carries no shard trace", slowest.name))
    }
}

/// Per-family and whole-window sums over a traced window.
#[derive(Debug, Default, Clone)]
pub struct TraceAgg {
    families: [FamilyAgg; 4],
    /// Every scan span's time and records, on every shard.
    scan_ns_all: f64,
    records_all: f64,
    pub router: RouterAgg,
    pub completed: usize,
}

impl TraceAgg {
    /// Attributes one traced answer of family `fam` whose client call
    /// took `rtt_ns`.
    pub fn add(&mut self, fam: usize, rtt_ns: u64, tree: &Tree) -> Result<(), String> {
        let (server_root, engine_span) = match tree {
            Tree::Server(None) => return Err("the server attached no span tree".into()),
            Tree::Server(Some(root)) => {
                let (durations, records) = scans(root);
                self.scan_ns_all += durations.iter().sum::<f64>();
                self.records_all += records;
                (root, "engine:plan_exec")
            }
            Tree::Router(root) => {
                let slowest = self.router.add(root)?;
                let (durations, records) = scans(root);
                self.scan_ns_all += durations.iter().sum::<f64>();
                self.records_all += records;
                (slowest, "engine:count_terms")
            }
        };
        let engine = walk(server_root)
            .find(|n| n.name == engine_span)
            .ok_or_else(|| format!("no {engine_span} span under {}", server_root.name))?;
        let (scan_ns, _) = scans(engine);
        let f = &mut self.families[fam];
        f.n += 1.0;
        f.rtt_ns += rtt_ns as f64;
        f.handle_ns += server_root.duration_ns as f64;
        f.exec_ns += engine.duration_ns as f64;
        f.scan_ns += scan_ns.iter().sum::<f64>();
        f.passes += scan_ns.len() as f64;
        Ok(())
    }
}

fn child<'a>(node: &'a SpanNode, name: &str) -> Result<&'a SpanNode, String> {
    node.children
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("{} has no {name} child", node.name))
}

/// Preorder walk of a span tree.
fn walk(root: &SpanNode) -> impl Iterator<Item = &SpanNode> {
    let mut stack = vec![root];
    std::iter::from_fn(move || {
        let node = stack.pop()?;
        stack.extend(node.children.iter().rev());
        Some(node)
    })
}

/// Durations of every `estimator:scan` span under `node`, and the
/// records they scanned.
fn scans(node: &SpanNode) -> (Vec<f64>, f64) {
    let mut durations = Vec::new();
    let mut records = 0.0;
    for n in walk(node).filter(|n| n.name == "estimator:scan") {
        durations.push(n.duration_ns as f64);
        records += n.attr("records").unwrap_or(0) as f64;
    }
    (durations, records)
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub traced: &'a TraceAgg,
    /// The traced window's router trees on a cluster, the single-node
    /// router probe otherwise.
    pub router: &'a RouterAgg,
    pub wire: &'a WireCost,
    pub scan: &'a ScanRates,
    pub memo_hit_ratio: f64,
    pub write: &'a WriteProbe,
    pub wal: &'a WalProbe,
    /// Acks for the `ingest.*` metrics: the window trickle on
    /// `mixed_wal`, the write probe elsewhere.
    pub acks: &'a [Ack],
    pub recovery_s: f64,
    pub accept_us_per_sub: f64,
    pub traced_qps: f64,
    /// From the untraced window and the set-ups: end-to-end measurements
    /// too noisy between runs for a bound.
    pub untraced_qps: f64,
    pub dist_p50_ms: f64,
    pub query_p99_ms: f64,
    pub ingest_subs_per_s: f64,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub fn per_layer(x: &LayerInputs) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str| {
        out.push(Metric { name, value, unit });
    };
    let us = |ns: f64, n: f64| ratio(ns, n) / 1e3;
    push("query_qps".into(), x.untraced_qps, "q/s");
    push("dist_p50_ms".into(), x.dist_p50_ms, "ms");
    push("query_p99_ms".into(), x.query_p99_ms, "ms");
    push("ingest_subs_per_s".into(), x.ingest_subs_per_s, "subs/s");
    for (fam, bytes) in FAMILIES.iter().zip(&x.wire.req_bytes) {
        push(format!("wire.req_bytes.{fam}"), *bytes, "bytes");
    }
    for (fam, bytes) in FAMILIES.iter().zip(&x.wire.resp_bytes) {
        push(format!("wire.resp_bytes.{fam}"), *bytes, "bytes");
    }
    push("wire.encode_us".into(), x.wire.encode_us, "us");
    push("wire.decode_us".into(), x.wire.decode_us, "us");
    // Per-family means of the traced window, one group per layer.
    let fams = &x.traced.families;
    let mut per_family = |layer: &str, unit: &'static str, value: &dyn Fn(&FamilyAgg) -> f64| {
        for (f, fam) in fams.iter().zip(FAMILIES) {
            push(format!("{layer}.{fam}"), value(f), unit);
        }
    };
    per_family("client.rtt_us", "us", &|f| us(f.rtt_ns, f.n));
    per_family("server.handle_us", "us", &|f| us(f.handle_ns, f.n));
    per_family("server.outside_us", "us", &|f| {
        us(f.rtt_ns - f.handle_ns, f.n)
    });
    per_family("engine.exec_us", "us", &|f| us(f.exec_ns, f.n));
    per_family("engine.self_us", "us", &|f| us(f.exec_ns - f.scan_ns, f.n));
    per_family("scan.us", "us", &|f| us(f.scan_ns, f.n));
    per_family("scan.passes", "count", &|f| ratio(f.passes, f.n));
    push("engine.memo_hit_ratio".into(), x.memo_hit_ratio, "ratio");
    let traced_rate = ratio(x.traced.records_all, x.traced.scan_ns_all) * 1e9;
    push("scan.records_per_s".into(), traced_rate, "records/s");
    push(
        "scan.sparse_records_per_s".into(),
        x.scan.sparse,
        "records/s",
    );
    push("scan.dense_records_per_s".into(), x.scan.dense, "records/s");
    for (width, rate) in [1, 4, 8].iter().zip(x.scan.lanes) {
        push(format!("prf.lanes{width}.records_per_s"), rate, "records/s");
    }
    push(
        "pool.snapshot_us.append".into(),
        median(&x.write.snapshot_append_us),
        "us",
    );
    push(
        "pool.snapshot_us.quiet".into(),
        median(&x.write.snapshot_quiet_us),
        "us",
    );
    push("coord.accept_us_per_sub".into(), x.accept_us_per_sub, "us");
    push(
        "wal.record_batch_us".into(),
        median(&x.wal.record_batch_us),
        "us",
    );
    push("wal.bytes_per_sub".into(), x.wal.bytes_per_sub, "bytes");
    push("wal.recovery_s".into(), x.recovery_s, "s");
    let ack_ms: Vec<f64> = x.acks.iter().map(|a| a.ack_ms).collect();
    let lag_ms: Vec<f64> = x.acks.iter().map(|a| a.lag_ms).collect();
    push("ingest.ack_p50_ms".into(), median(&ack_ms), "ms");
    push("ingest.ack_p99_ms".into(), percentile(&ack_ms, 0.99), "ms");
    push(
        "ingest.generator_lag_ms".into(),
        lag_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    let r = x.router;
    push("router.plan_us".into(), us(r.plan_ns, r.n), "us");
    push("router.scatter_us".into(), us(r.scatter_ns, r.n), "us");
    push("router.merge_us".into(), us(r.merge_ns, r.n), "us");
    push("router.shard_max_us".into(), us(r.shard_max_ns, r.n), "us");
    push("router.shard_net_us".into(), us(r.shard_net_ns, r.n), "us");
    push(
        "router.attempts".into(),
        ratio(r.attempts, r.wrappers),
        "count",
    );
    let overhead = 1.0 - ratio(x.traced_qps, x.untraced_qps);
    push("obs.trace_overhead_frac".into(), overhead, "ratio");
    out
}

/// `num / den`, or `0` for an empty denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

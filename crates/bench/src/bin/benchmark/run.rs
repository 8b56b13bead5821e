//! One benchmark run: generate the inputs, build the oracle, set up
//! (several times), warm up, measure the window, verify, and — in a
//! traced run — attribute the latency to the layers below.

use crate::host::{self, Host};
use crate::layers::{self, LayerInputs, TraceAgg};
use crate::probes::{self, Ack};
use crate::stats::{median, percentile};
use crate::target::Target;
use crate::trace::{QueryTimes, Recorder};
use crate::workload::{bits, Family, Inputs, Oracle, Scale, Workload, FAMILIES};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a run keeps its scratch files (the WAL directories), under the
/// working directory: one subdirectory per run, removed when it ends.
pub const SCRATCH_ROOT: &str = ".bench_run";

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    /// Per-layer mode: an untraced window, a traced window, probes.
    pub traced: bool,
    /// Where a traced run writes its spans (JSON), if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Scratch directory for WAL files, removed when the run ends.
    pub scratch: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Sample counts and component times, as JSON members.
    pub details: Vec<(String, String)>,
    pub host: Host,
}

/// Operations attempted and failed. An error, a timeout and an answer
/// that is not bit-identical to the oracle's all count as failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("benchmark: failed: {what}");
        }
    }

    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }
}

/// Compares an answer to the expected bit patterns; without an
/// expectation (the pool is growing) it only requires finite values.
pub fn check_answer(got: &[f64], want: Option<&[u64]>) -> Result<(), String> {
    match want {
        Some(want) => {
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            if got_bits == want {
                Ok(())
            } else {
                Err(format!(
                    "answer {got:?} is not bit-identical to the oracle's {:?}",
                    want.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>()
                ))
            }
        }
        None if got.is_empty() || got.iter().any(|v| !v.is_finite()) => {
            Err(format!("malformed answer {got:?}"))
        }
        None => Ok(()),
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchGuard<'a>(&'a Path);

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once the last concurrent run has cleaned up.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One set-up: servers started, bulk-loaded, every family answered once.
struct Setup {
    total_s: f64,
    load_s: f64,
}

fn set_up(
    w: Workload,
    inputs: &Inputs,
    expected: &[Vec<u64>],
    wal: Option<&Path>,
    tally: &mut Tally,
) -> Result<(Target, Setup), String> {
    let started = Instant::now();
    let mut target = Target::start(&inputs.announcement, w.shards(), wal)?;
    let loading = Instant::now();
    if let Err(e) = target.load(&inputs.bulk) {
        target.shutdown();
        return Err(format!("bulk load: {e}"));
    }
    let load_s = loading.elapsed().as_secs_f64();
    for (family, want) in inputs.families.iter().zip(expected) {
        let got = target.answer(&family.plan);
        tally.check(family.name, got.and_then(|g| check_answer(&g, Some(want))));
    }
    let setup = Setup {
        total_s: started.elapsed().as_secs_f64(),
        load_s,
    };
    Ok((target, setup))
}

/// Latencies of one closed-loop window, per family, in ms.
#[derive(Default)]
struct Window {
    latencies_ms: [Vec<f64>; 4],
    completed: usize,
}

/// The analyst's closed loop: the next family in round-robin order is
/// sent as soon as the previous answer arrives, until `until`. Only
/// queries completed by `until` count.
fn closed_loop(
    target: &mut Target,
    families: &[Family],
    expected: Option<&[Vec<u64>]>,
    until: Instant,
    next: &mut usize,
    tally: &mut Tally,
) -> Window {
    let mut window = Window::default();
    loop {
        let fam = *next % families.len();
        let started = Instant::now();
        if started >= until {
            return window;
        }
        *next += 1;
        let got = target.answer(&families[fam].plan);
        let elapsed = started.elapsed();
        let want = expected.map(|e| e[fam].as_slice());
        tally.check(families[fam].name, got.and_then(|g| check_answer(&g, want)));
        if started + elapsed <= until {
            window.latencies_ms[fam].push(elapsed.as_secs_f64() * 1e3);
            window.completed += 1;
        }
    }
}

/// The traced window: the same closed loop through the profiled entry
/// points, every answer attributed along its span tree.
fn traced_loop(
    target: &mut Target,
    families: &[Family],
    expected: Option<&[Vec<u64>]>,
    until: Instant,
    next: &mut usize,
    tally: &mut Tally,
    recorder: &mut Recorder,
) -> TraceAgg {
    let mut agg = TraceAgg::default();
    loop {
        let fam = *next % families.len();
        let start = Instant::now();
        if start >= until {
            return agg;
        }
        *next += 1;
        let call_start = Instant::now();
        let got = target.answer_traced(&families[fam].plan);
        let call_end = Instant::now();
        let (values, nonce, tree) = match got {
            Ok(answer) => answer,
            Err(e) => {
                tally.fail(format!("{} (traced): {e}", families[fam].name));
                continue;
            }
        };
        let want = expected.map(|e| e[fam].as_slice());
        tally.check(families[fam].name, check_answer(&values, want));
        let end = Instant::now();
        if end <= until {
            agg.completed += 1;
        }
        let rtt_ns = u64::try_from((call_end - call_start).as_nanos()).unwrap_or(u64::MAX);
        if let Err(e) = agg.add(fam, rtt_ns, &tree) {
            tally.fail(format!("{} trace: {e}", families[fam].name));
        }
        let times = QueryTimes {
            start,
            call_start,
            call_end,
            end,
        };
        recorder.record(fam, nonce, &times, &tree);
    }
}

fn acks_into_tally(acks: &[Ack], tally: &mut Tally) {
    for ack in acks {
        match &ack.error {
            None => tally.ok(),
            Some(e) => tally.fail(format!("submit batch {}: {e}", ack.batch)),
        }
    }
}

fn answers_now(target: &mut Target, families: &[Family], tally: &mut Tally) -> Vec<Vec<u64>> {
    families
        .iter()
        .map(|family| match target.answer(&family.plan) {
            Ok(values) => {
                tally.ok();
                values.iter().map(|v| v.to_bits()).collect()
            }
            Err(e) => {
                tally.fail(format!("{}: {e}", family.name));
                Vec::new()
            }
        })
        .collect()
}

pub fn execute(cfg: &RunConfig) -> Result<Outcome, String> {
    let w = cfg.workload;
    let scale = &cfg.scale;
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("scratch dir {}: {e}", cfg.scratch.display()))?;
    let _cleanup = ScratchGuard(&cfg.scratch);
    let host = host::fingerprint(&cfg.scratch);

    // Inputs and the oracle, before any clock starts.
    let inputs = Inputs::generate(w, cfg.seed, scale, cfg.traced);
    let oracle = Oracle::build(&inputs.announcement, &inputs.bulk);
    let oracle_answers = oracle.answers(&inputs.families);
    let expected: Vec<Vec<u64>> = oracle_answers.iter().map(|a| bits(a)).collect();
    let families = &inputs.families;
    let mut tally = Tally::default();

    // Set-up, several times; the last one is kept for the window.
    let reps = scale.setup_reps.max(1);
    let mut setups = Vec::with_capacity(reps);
    let mut kept: Option<(Target, Option<PathBuf>)> = None;
    for rep in 0..reps {
        // One deployment at a time: the previous one is gone before the
        // next set-up starts.
        if let Some((previous, previous_dir)) = kept.take() {
            previous.shutdown();
            if let Some(dir) = previous_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let wal_dir = w.wal().then(|| cfg.scratch.join(format!("wal-{rep}")));
        let (target, setup) = set_up(w, &inputs, &expected, wal_dir.as_deref(), &mut tally)?;
        setups.push(setup);
        kept = Some((target, wal_dir));
    }
    let (mut target, wal_dir) = kept.expect("at least one set-up ran");

    // Warm-up, the measured window, and (traced) the traced window; on
    // mixed_wal the submitter trickles fresh users throughout.
    let t0 = Instant::now();
    let warm_end = t0 + scale.warmup;
    let window_end = warm_end + scale.window;
    let traced_end = window_end + scale.window;
    let schedule_end = if cfg.traced { traced_end } else { window_end };
    let static_expected = (!w.wal()).then_some(expected.as_slice());
    let mut recorder = Recorder::new(window_end, scale.spans_kept_per_family);
    let mut stats_delta = None;
    let (window, traced, trickle) = std::thread::scope(|scope| {
        let submitter = target.node_addr().filter(|_| w.wal()).map(|addr| {
            let batches = &inputs.trickle;
            let period = scale.trickle_period;
            scope.spawn(move || probes::trickle(addr, batches, t0, period, schedule_end))
        });
        let mut next = 0;
        closed_loop(
            &mut target,
            families,
            static_expected,
            warm_end,
            &mut next,
            &mut tally,
        );
        let window = closed_loop(
            &mut target,
            families,
            static_expected,
            window_end,
            &mut next,
            &mut tally,
        );
        let traced = cfg.traced.then(|| {
            let before = target.plan_stats();
            let agg = traced_loop(
                &mut target,
                families,
                static_expected,
                traced_end,
                &mut next,
                &mut tally,
                &mut recorder,
            );
            stats_delta = Some((before, target.plan_stats()));
            agg
        });
        let trickle = submitter.map(|h| h.join().expect("submitter thread panicked"));
        (window, traced, trickle)
    });
    let window_s = scale.window.as_secs_f64();
    let untraced_qps = window.completed as f64 / window_s;

    // mixed_wal: the oracle once ingest has stopped, then a graceful
    // restart from the same WAL whose first answers must not change.
    let mut recovery_s = None;
    let mut window_acks = Vec::new();
    if let Some(acks) = trickle {
        acks_into_tally(&acks, &mut tally);
        for ack in acks.iter().filter(|a| a.error.is_none()) {
            oracle.absorb(&inputs.trickle[ack.batch]);
        }
        let expected_now: Vec<Vec<u64>> =
            oracle.answers(families).iter().map(|a| bits(a)).collect();
        let before = answers_now(&mut target, families, &mut tally);
        for ((family, got), want) in families.iter().zip(&before).zip(&expected_now) {
            let got: Vec<f64> = got.iter().map(|&b| f64::from_bits(b)).collect();
            tally.check(family.name, check_answer(&got, Some(want)));
        }
        target.shutdown();
        let restarted = Instant::now();
        target = Target::start(&inputs.announcement, 1, wal_dir.as_deref())?;
        let after = answers_now(&mut target, families, &mut tally);
        recovery_s = Some(restarted.elapsed().as_secs_f64());
        for ((family, got), want) in families.iter().zip(&after).zip(&before) {
            let got: Vec<f64> = got.iter().map(|&b| f64::from_bits(b)).collect();
            tally.check(
                &format!("{} after restart", family.name),
                check_answer(&got, Some(want)),
            );
        }
        window_acks = acks
            .into_iter()
            .filter(|a| a.due >= scale.warmup && a.due < scale.warmup + scale.window)
            .collect();
    }
    let expected_final: Vec<Vec<u64>> = oracle.answers(families).iter().map(|a| bits(a)).collect();

    // End-to-end measurements whose run-to-run spread is too wide for a
    // bound: per-layer metrics of the traced run, and details of every
    // record.
    let dist_p50_ms = median(&window.latencies_ms[2]);
    let pooled: Vec<f64> = window.latencies_ms.iter().flatten().copied().collect();
    let query_p99_ms = percentile(&pooled, 0.99);
    let ingest_subs_per_s = median(&ingest_rates(&setups, scale.users));
    let load: Vec<f64> = setups.iter().map(|s| s.load_s).collect();
    let total: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let mut details = vec![
        ("window_s".to_string(), format!("{window_s}")),
        ("samples".to_string(), samples_json(&window.latencies_ms)),
        ("pooled_tail_ms".into(), tail_json(&window.latencies_ms)),
        ("setup_s_each".into(), list_json(&total)),
        ("setup_load_s_each".into(), list_json(&load)),
        ("query_qps".into(), format!("{untraced_qps}")),
        ("dist_p50_ms".into(), format!("{dist_p50_ms}")),
        ("query_p99_ms".into(), format!("{query_p99_ms}")),
        ("ingest_subs_per_s".into(), format!("{ingest_subs_per_s}")),
    ];
    if let Some(r) = recovery_s {
        let ack_ms: Vec<f64> = window_acks.iter().map(|a| a.ack_ms).collect();
        details.push(("restart_to_first_answers_s".into(), format!("{r}")));
        details.push(("window_batches_acked".into(), ack_ms.len().to_string()));
        details.push(("window_ack_p50_ms".into(), format!("{}", median(&ack_ms))));
        details.push((
            "window_ack_p99_ms".into(),
            format!("{}", percentile(&ack_ms, 0.99)),
        ));
    }
    let metrics = if let Some(traced) = traced {
        let traced_qps = traced.completed as f64 / window_s;
        let memo_hit_ratio = match stats_delta {
            Some((Ok(before), Ok(after))) => {
                let scanned = after.terms_scanned - before.terms_scanned;
                let reused = after.terms_reused - before.terms_reused;
                if scanned + reused > 0 {
                    reused as f64 / (scanned + reused) as f64
                } else {
                    0.0
                }
            }
            _ => {
                tally.fail("server stats around the traced window");
                0.0
            }
        };
        let router = match target.node_addr() {
            Some(addr) => probes::router_probe(
                addr,
                families,
                &expected_final,
                scale.router_probe_queries,
                &mut tally,
            )?,
            None => traced.router.clone(),
        };
        let scan = probes::scan_rates(&oracle, families, scale.micro_time);
        let wire = probes::wire_cost(
            families,
            &oracle_answers,
            &oracle,
            w.shards(),
            scale.micro_time,
        );
        let wal = probes::wal_probe(
            &cfg.scratch.join("wal-probe"),
            &inputs.announcement,
            families,
            &inputs.probe,
            recovery_s.is_none(),
            &mut tally,
        )?;
        let write = probes::write_probe(
            &mut target,
            &inputs.announcement.subsets,
            &inputs.probe,
            scale.trickle_period,
        );
        acks_into_tally(&write.acks, &mut tally);
        let acks = if w.wal() { &window_acks } else { &write.acks };
        let metrics = layers::per_layer(&LayerInputs {
            traced: &traced,
            router: &router,
            wire: &wire,
            scan: &scan,
            memo_hit_ratio,
            write: &write,
            wal: &wal,
            acks,
            recovery_s: recovery_s.or(wal.recovery_s).unwrap_or(0.0),
            accept_us_per_sub: oracle.accept_us_per_sub,
            untraced_qps,
            traced_qps,
            dist_p50_ms,
            query_p99_ms,
            ingest_subs_per_s,
        });
        if let Some(path) = &cfg.trace_out {
            write_trace(path, cfg, &host, &metrics, &recorder)?;
        }
        details.push(("traced_qps".into(), format!("{traced_qps}")));
        metrics
    } else {
        end_to_end(&setups, &window)
    };
    target.shutdown();
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        details,
        host,
    })
}

/// Bulk-load rate of each set-up, submissions per second.
fn ingest_rates(setups: &[Setup], users: usize) -> Vec<f64> {
    setups.iter().map(|s| users as f64 / s.load_s).collect()
}

/// The end-to-end metrics. `query_qps`, `dist_p50_ms`, `query_p99_ms`
/// and `ingest_subs_per_s` are reported by the traced run instead: their
/// run-to-run spread exceeded the largest bound a metric may have (see
/// README.md).
fn end_to_end(setups: &[Setup], window: &Window) -> Vec<Metric> {
    let metric = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.into(),
        value,
        unit,
    };
    let total: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let mut out = vec![metric("setup_s", median(&total), "s")];
    for (fam, latencies) in FAMILIES.iter().zip(&window.latencies_ms) {
        if *fam != "dist" {
            out.push(metric(&format!("{fam}_p50_ms"), median(latencies), "ms"));
        }
    }
    out
}

fn samples_json(latencies: &[Vec<f64>; 4]) -> String {
    let per_family: Vec<String> = FAMILIES
        .iter()
        .zip(latencies)
        .map(|(fam, l)| format!("\"{fam}\": {}", l.len()))
        .collect();
    let pooled: usize = latencies.iter().map(Vec::len).sum();
    format!("{{{}, \"pooled\": {pooled}}}", per_family.join(", "))
}

/// The pooled latency tail: p90, p95, p98 and p99.
fn tail_json(latencies: &[Vec<f64>; 4]) -> String {
    let pooled: Vec<f64> = latencies.iter().flatten().copied().collect();
    let items: Vec<String> = [90, 95, 98, 99]
        .iter()
        .map(|&p| format!("\"p{p}\": {}", percentile(&pooled, f64::from(p) / 100.0)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn list_json(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| crate::json::number(v)).collect();
    format!("[{}]", items.join(", "))
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                crate::json::string(&m.name),
                crate::json::number(m.value),
                crate::json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn write_trace(
    path: &Path,
    cfg: &RunConfig,
    host: &Host,
    metrics: &[Metric],
    recorder: &Recorder,
) -> Result<(), String> {
    let doc = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"window_s\": {},\n  \"host\": {},\n  \
         \"note\": {},\n  \"per_layer\": {},\n  \"spans\": {}\n}}\n",
        crate::json::string(cfg.workload.name()),
        cfg.seed,
        cfg.scale.window.as_secs_f64(),
        host.to_json(cfg.seed),
        crate::json::string(&format!(
            "first {} traced requests per family; times in ns since the traced window began",
            cfg.scale.spans_kept_per_family
        )),
        metrics_json(metrics),
        recorder.spans_json(),
    );
    std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()))
}

//! Measurements beside the analyst loop: the open-loop submitters, and
//! the traced run's per-layer probes (router, scan kernels, wire codec,
//! write path, WAL). Each probe times calls into public functions.

use crate::layers::RouterAgg;
use crate::run::Tally;
use crate::target::{Target, TIMEOUT};
use crate::workload::{bits, Family, Oracle};
use psketch_cluster::{Router, RouterConfig, ShardMap};
use psketch_core::BitSubset;
use psketch_protocol::{Announcement, QueryCounts, Submission};
use psketch_queries::LinearAnswer;
use psketch_server::wire::PlanAnswerWire;
use psketch_server::{Client, Request, Response, Wal, WalConfig};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// One open-loop batch: when it was due, how late it went out, and how
/// long after its due time the ack arrived.
#[derive(Debug, Clone)]
pub struct Ack {
    pub batch: usize,
    /// Due time, from the schedule's start.
    pub due: Duration,
    pub lag_ms: f64,
    pub ack_ms: f64,
    pub error: Option<String>,
}

/// Sleeps until `t` (returns at once if it has passed).
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Sends `batches[k]` at `t0 + k·period` (never earlier; later if the
/// previous ack is late), stopping at the first batch due at or after
/// `end`. Each ack is timed from its batch's due time, so a stall counts
/// against every batch queued behind it. `after_ack` runs after each
/// timed exchange, outside the timing.
fn open_loop<C>(
    ctx: &mut C,
    batches: &[Vec<Submission>],
    t0: Instant,
    period: Duration,
    end: Option<Instant>,
    send: impl Fn(&mut C, &[Submission]) -> Result<(), String>,
    after_ack: impl Fn(&mut C),
) -> Vec<Ack> {
    let mut acks = Vec::with_capacity(batches.len());
    for (k, batch) in batches.iter().enumerate() {
        let offset = period * u32::try_from(k).unwrap_or(u32::MAX);
        let due = t0 + offset;
        if end.is_some_and(|end| due >= end) {
            break;
        }
        sleep_until(due);
        let lag = due.elapsed();
        let result = send(ctx, batch);
        let acked = due.elapsed();
        after_ack(ctx);
        acks.push(Ack {
            batch: k,
            due: offset,
            lag_ms: lag.as_secs_f64() * 1e3,
            ack_ms: acked.as_secs_f64() * 1e3,
            error: result.err(),
        });
    }
    acks
}

/// The `mixed_wal` submitter: its own connection, one batch per period
/// until `end`. Running out of generated batches before `end` is
/// reported as a failed batch.
pub fn trickle(
    addr: SocketAddr,
    batches: &[Vec<Submission>],
    t0: Instant,
    period: Duration,
    end: Instant,
) -> Vec<Ack> {
    let mut client = Client::connect(addr, TIMEOUT).ok();
    let send = |client: &mut Option<Client>, batch: &[Submission]| {
        let c = match client {
            Some(c) => c,
            None => client
                .insert(Client::connect(addr, TIMEOUT).map_err(|e| format!("submitter: {e}"))?),
        };
        let outcome = c.submit_batch(batch);
        if outcome.is_err() {
            // A failed exchange poisons the connection.
            *client = None;
        }
        let ack = outcome.map_err(|e| e.to_string())?;
        if ack.accepted == batch.len() as u64 {
            Ok(())
        } else {
            Err(format!("trickle batch acked {ack:?}"))
        }
    };
    let mut acks = open_loop(&mut client, batches, t0, period, Some(end), send, |_| {});
    let exhausted = period * u32::try_from(batches.len()).unwrap_or(u32::MAX);
    if acks.len() == batches.len() && t0 + exhausted < end {
        acks.push(Ack {
            batch: batches.len(),
            due: exhausted,
            lag_ms: 0.0,
            ack_ms: 0.0,
            error: Some("trickle ran out of generated batches".into()),
        });
    }
    acks
}

/// The write probe: fresh batches into the live target on the trickle's
/// schedule, with no concurrent queries. After each ack the pool's
/// snapshot is taken twice per subset: the first republishes the
/// appended columns, the second finds the pool quiet.
pub struct WriteProbe {
    pub acks: Vec<Ack>,
    pub snapshot_append_us: Vec<f64>,
    pub snapshot_quiet_us: Vec<f64>,
}

pub fn write_probe(
    target: &mut Target,
    subsets: &[BitSubset],
    batches: &[Vec<Submission>],
    period: Duration,
) -> WriteProbe {
    let mut state = (target, Vec::new(), Vec::new());
    let snapshots = |state: &mut (&mut Target, Vec<f64>, Vec<f64>)| {
        let (target, append, quiet) = state;
        let pool = target.pool();
        for subset in subsets {
            for timings in [&mut *append, &mut *quiet] {
                let t = Instant::now();
                let _ = black_box(pool.snapshot(subset));
                timings.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    };
    let acks = open_loop(
        &mut state,
        batches,
        Instant::now(),
        period,
        None,
        |state, batch| state.0.submit(batch),
        snapshots,
    );
    let (_, snapshot_append_us, snapshot_quiet_us) = state;
    WriteProbe {
        acks,
        snapshot_append_us,
        snapshot_quiet_us,
    }
}

/// Single-node router probe: `Router::explain_plan` through a one-shard
/// router over the standalone server, `per_family` times per family,
/// every answer checked.
pub fn router_probe(
    addr: SocketAddr,
    families: &[Family],
    expected: &[Vec<u64>],
    per_family: usize,
    tally: &mut Tally,
) -> Result<RouterAgg, String> {
    let map = ShardMap::new(1, [addr.to_string()]).map_err(|e| e.to_string())?;
    let config = RouterConfig {
        timeout: TIMEOUT,
        ..RouterConfig::default()
    };
    let mut router = Router::new(map, config).map_err(|e| e.to_string())?;
    let mut agg = RouterAgg::default();
    for _ in 0..per_family {
        for (family, want) in families.iter().zip(expected) {
            match router.explain_plan(&family.plan) {
                Ok(explain) => {
                    let got: Vec<f64> = explain.answer.outputs.iter().map(|a| a.value).collect();
                    tally.check(family.name, crate::run::check_answer(&got, Some(want)));
                    if let Err(e) = agg.add(&explain.trace) {
                        tally.fail(format!("router probe trace: {e}"));
                    }
                }
                Err(e) => tally.fail(format!("router probe {}: {e}", family.name)),
            }
        }
    }
    Ok(agg)
}

/// Records per second of `work`, repeated for at least `min_time` (and
/// at least three times).
fn rate(min_time: Duration, records: usize, mut work: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut reps = 0u32;
    while reps < 3 || started.elapsed() < min_time {
        work();
        reps += 1;
    }
    records as f64 * f64::from(reps) / started.elapsed().as_secs_f64()
}

/// Mean seconds per call of `work`, repeated for at least `min_time`.
fn per_call(min_time: Duration, mut work: impl FnMut()) -> f64 {
    1.0 / rate(min_time, 1, &mut work)
}

/// In-process scan throughput on the oracle's pool.
pub struct ScanRates {
    /// `ConjunctiveEstimator::count` (one sparse term).
    pub sparse: f64,
    /// `ConjunctiveEstimator::count_distribution` (the one-pass tally).
    pub dense: f64,
    /// The sparse count at lane widths 1, 4 and 8.
    pub lanes: [f64; 3],
}

pub fn scan_rates(oracle: &Oracle, families: &[Family], min_time: Duration) -> ScanRates {
    let estimator = oracle.engine().estimator();
    let pool = oracle.pool();
    let term = families[0].plan.terms()[0].clone();
    let pair = families[2].plan.terms()[0].subset().clone();
    let records = pool.count(term.subset());
    let sparse = rate(min_time, records, || {
        let _ = black_box(estimator.count(pool, &term));
    });
    let dense = rate(min_time, pool.count(&pair), || {
        let _ = black_box(estimator.count_distribution(pool, &pair));
    });
    let mut lanes = [0.0; 3];
    for (slot, width) in lanes.iter_mut().zip([1, 4, 8]) {
        psketch_core::set_lane_width(width).expect("1, 4 and 8 are supported widths");
        *slot = rate(min_time, records, || {
            let _ = black_box(estimator.count(pool, &term));
        });
    }
    // Back to the probed width the program picks by itself.
    psketch_core::set_lane_width(0).expect("0 selects the probed width");
    ScanRates {
        sparse,
        dense,
        lanes,
    }
}

/// Frame sizes and codec cost of the exact messages the workload sends:
/// a `Plan` request and `PlanAnswers` response per query on a node, one
/// `PartialTermCounts` exchange per shard on a cluster.
pub struct WireCost {
    pub req_bytes: Vec<f64>,
    pub resp_bytes: Vec<f64>,
    pub encode_us: f64,
    pub decode_us: f64,
}

pub fn wire_cost(
    families: &[Family],
    answers: &[Vec<LinearAnswer>],
    oracle: &Oracle,
    shards: u32,
    min_time: Duration,
) -> WireCost {
    let messages: Vec<(Request, Vec<u8>)> = families
        .iter()
        .zip(answers)
        .map(|(family, answers)| {
            let (request, response) = if shards == 1 {
                (
                    Request::Plan {
                        plan: family.plan.clone(),
                        nonce: 1,
                        profile: false,
                    },
                    Response::PlanAnswers(
                        answers.iter().cloned().map(PlanAnswerWire::from).collect(),
                        None,
                    ),
                )
            } else {
                let terms = family.plan.terms().to_vec();
                let counts = oracle
                    .engine()
                    .count_terms_partial(oracle.pool(), &terms)
                    .into_iter()
                    .map(|(ones, population)| QueryCounts { ones, population })
                    .collect();
                (
                    Request::PartialTermCounts {
                        terms,
                        nonce: 1,
                        profile: false,
                    },
                    Response::PartialTermCounts(counts, None),
                )
            };
            (request, response.encode())
        })
        .collect();
    // Frames carry a 4-byte length prefix; a cluster query sends one
    // frame to, and receives one from, every shard.
    let frames = |payload: usize| f64::from(shards) * (payload + 4) as f64;
    let req_bytes = messages
        .iter()
        .map(|(r, _)| frames(r.encode().len()))
        .collect();
    let resp_bytes = messages.iter().map(|(_, b)| frames(b.len())).collect();
    let encode_us = messages
        .iter()
        .map(|(request, _)| {
            per_call(min_time, || {
                black_box(black_box(request).encode());
            })
        })
        .sum::<f64>()
        * 1e6
        / messages.len() as f64;
    let decode_us = messages
        .iter()
        .map(|(_, bytes)| {
            per_call(min_time, || {
                let _ = black_box(Response::decode(black_box(bytes)));
            })
        })
        .sum::<f64>()
        * 1e6
        / messages.len() as f64;
    WireCost {
        req_bytes,
        resp_bytes,
        encode_us,
        decode_us,
    }
}

/// The WAL probe: `Wal::open` on a sibling directory, the probe batches
/// appended with `record_batch` (fsync each), and — unless the workload
/// restarts its own WAL-backed server — a restart from that directory
/// until every family is answered correctly.
pub struct WalProbe {
    pub record_batch_us: Vec<f64>,
    pub bytes_per_sub: f64,
    pub recovery_s: Option<f64>,
}

pub fn wal_probe(
    dir: &Path,
    ann: &Announcement,
    families: &[Family],
    batches: &[Vec<Submission>],
    measure_recovery: bool,
    tally: &mut Tally,
) -> Result<WalProbe, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut wal, recovered) =
        Wal::open(&WalConfig::new(dir)).map_err(|e| format!("wal probe open: {e}"))?;
    if recovered.is_some() {
        return Err("wal probe directory was not fresh".into());
    }
    wal.record_announcement(ann).map_err(|e| e.to_string())?;
    let before = wal.log_bytes();
    let mut record_batch_us = Vec::with_capacity(batches.len());
    for batch in batches {
        let t = Instant::now();
        wal.record_batch(batch).map_err(|e| e.to_string())?;
        record_batch_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let subs: usize = batches.iter().map(Vec::len).sum();
    let bytes_per_sub = (wal.log_bytes() - before) as f64 / subs.max(1) as f64;
    drop(wal);
    let recovery_s = if measure_recovery {
        let all: Vec<Submission> = batches.concat();
        let oracle = Oracle::build(ann, &all);
        let expected: Vec<Vec<u64>> = oracle.answers(families).iter().map(|a| bits(a)).collect();
        let started = Instant::now();
        let mut target = Target::start(ann, 1, Some(dir))?;
        for (family, want) in families.iter().zip(&expected) {
            let got = target.answer(&family.plan);
            tally.check(
                family.name,
                got.and_then(|got| crate::run::check_answer(&got, Some(want))),
            );
        }
        let elapsed = started.elapsed().as_secs_f64();
        target.shutdown();
        Some(elapsed)
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(dir);
    Ok(WalProbe {
        record_batch_us,
        bytes_per_sub,
        recovery_s,
    })
}

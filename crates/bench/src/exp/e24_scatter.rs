//! E24 — parallel scatter-gather: sequential vs concurrent fan-out.
//!
//! A router that visits shards one at a time pays
//! `N × (RTT + per-shard scan)` per query. The router instead writes
//! every shard's request before it reads the first reply (then reads
//! the replies in shard order and merges in that order), so the shards'
//! round trips overlap and a query pays `max` instead of `sum`. This
//! experiment measures both fan-outs (`fanout = 1` is the sequential
//! visit order, kept as an oracle) at 1, 2 and 4 shards, per query
//! family:
//!
//! * **conjunctive** — one term, the paper's atomic query (Cor. 3.4
//!   charges ε per scan, so this is the family the target tracks);
//! * **distribution** — a `2^k`-term plan over one subset;
//! * **mean** — a linear post-combination (the §4.1 workhorse);
//! * **dnf** — a compound plan with inclusion–exclusion terms.
//!
//! Two configurations:
//!
//! * **loopback** — servers on raw loopback sockets. Here the per-query
//!   cost is dominated by the PRF counting scan, which is CPU-bound:
//!   shard-count scaling therefore needs one core per shard, and on a
//!   single-core host (CI containers included — the harness prints the
//!   core count it saw) the per-shard scans serialize and throughput
//!   stays flat whatever the fan-out. The loopback numbers are still
//!   the honest baseline and the bit-identity check.
//! * **modeled network** — every shard sits behind a loopback proxy
//!   that delays each request frame by a fixed one-way latency (5 ms, a
//!   cross-datacenter RTT), modeling the network a real sharded
//!   deployment scatters across.
//!   Waiting, unlike scanning, overlaps even on one core — so this
//!   isolates exactly what the rewrite buys: the sequential router
//!   pays the latency once **per shard**, the parallel router once
//!   **per query**. The headline target — conjunctive q/s at 4 shards
//!   ≥ 2.5× the 1-connection-at-a-time figure — is measured here, where
//!   the fan-out (not the host's core count) is what's under test, and
//!   asserted in quick and full mode alike.
//!
//! Every parallel answer is verified float-bit-identical to an
//! in-process single-node oracle holding the same records, in both
//! configurations.
//!
//! Emits `BENCH_scatter.json`.

use crate::common::Config;
use crate::report::{f, Table};
use psketch_cluster::{parallel_ingest, Router, RouterConfig, ShardMap};
use psketch_core::{BitString, BitSubset, ConjunctiveQuery, IntField, Profile, UserId};
use psketch_prf::GlobalKey;
use psketch_protocol::{
    Announcement, AnnouncementBuilder, Coordinator, ShardIdentity, Submission, UserAgent,
};
use psketch_queries as q;
use psketch_queries::{QueryEngine, TermPlan};
use psketch_server::{wire, Server, ServerConfig};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EXP: u64 = 24;
const TIMEOUT: Duration = Duration::from_secs(30);
const SHARD_COUNTS: [u32; 3] = [1, 2, 4];
/// One-way request latency injected by the modeled-network proxies (a
/// cross-datacenter RTT, the deployment shape that motivates sharding).
const LAN_LATENCY: Duration = Duration::from_millis(5);
/// The least modeled-LAN gain of the 4-shard parallel conjunctive over
/// the sequential one.
const TARGET_SPEEDUP: f64 = 2.5;

// ---------------------------------------------------------------------
// A latency-injecting loopback proxy (bench-local; models the network
// between router and shard).
// ---------------------------------------------------------------------

/// Forwards the length-prefixed wire frames to `target`, sleeping
/// `latency` before relaying each client→server **frame** (the request
/// path — one delay per frame, however TCP segments it, exactly as a
/// pipelined network path behaves); responses stream back undelayed.
/// Dropping the proxy stops its accept loop.
struct LatencyProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl LatencyProxy {
    fn start(target: SocketAddr, latency: Duration) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let addr = listener.local_addr().expect("proxy addr");
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            // ord: pairs with the release store in Drop
            if stop_accept.load(Ordering::Acquire) {
                return;
            }
            match listener.accept() {
                Ok((client, _)) => {
                    let Ok(server) = TcpStream::connect(target) else {
                        continue;
                    };
                    client.set_nodelay(true).ok();
                    server.set_nodelay(true).ok();
                    let (c2, s2) = (
                        client.try_clone().expect("clone"),
                        server.try_clone().expect("clone"),
                    );
                    // Request path: delay each frame by the one-way latency.
                    std::thread::spawn(move || Self::pump_frames(client, server, latency));
                    // Response path: stream straight back.
                    std::thread::spawn(move || Self::pump(s2, c2));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        });
        Self { addr, stop }
    }

    fn pump(mut from: TcpStream, mut to: TcpStream) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match from.read(&mut buf) {
                Ok(0) | Err(_) => {
                    let _ = to.shutdown(std::net::Shutdown::Write);
                    return;
                }
                Ok(n) => {
                    if to.write_all(&buf[..n]).is_err() {
                        return;
                    }
                }
            }
        }
    }

    fn pump_frames(from: TcpStream, mut to: TcpStream, latency: Duration) {
        let mut from = BufReader::new(from);
        while let Ok(Some(payload)) = wire::read_frame(&mut from) {
            std::thread::sleep(latency);
            if wire::write_frame(&mut to, &payload).is_err() {
                return;
            }
        }
        let _ = to.shutdown(std::net::Shutdown::Write);
    }
}

impl Drop for LatencyProxy {
    fn drop(&mut self) {
        // ord: release pairs with the proxy thread's acquire load
        self.stop.store(true, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// Workload.
// ---------------------------------------------------------------------

/// The measured families. Few terms each — the point is scatter
/// latency, not plan width.
fn families() -> Vec<(&'static str, TermPlan)> {
    let a = IntField::new(0, 2);
    let pair = BitSubset::range(0, 2);
    let clause0 =
        ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true])).unwrap();
    let clause1 = ConjunctiveQuery::new(
        BitSubset::new(vec![1, 2]).unwrap(),
        BitString::from_bits(&[true, false]),
    )
    .unwrap();
    vec![
        (
            "conjunctive",
            TermPlan::for_conjunctive(
                ConjunctiveQuery::new(pair.clone(), BitString::from_bits(&[true, true])).unwrap(),
            ),
        ),
        ("distribution", TermPlan::for_distribution(&pair)),
        ("mean", q::mean_plan(&a)),
        ("dnf", q::dnf_plan(&[clause0, clause1]).unwrap()),
    ]
}

fn announcement(cfg: &Config, m: usize, plans: &[(&str, TermPlan)]) -> Announcement {
    let mut subsets: Vec<BitSubset> = plans
        .iter()
        .flat_map(|(_, plan)| plan.required_subsets())
        .collect();
    subsets.sort();
    subsets.dedup();
    let mut builder = AnnouncementBuilder::new(EXP, 0.3, m as u64, 1e-6)
        .global_key(*GlobalKey::from_seed(cfg.seed ^ EXP).as_bytes());
    for subset in subsets {
        builder = builder.subset(subset);
    }
    builder.build().expect("static announcement is valid")
}

fn make_submissions(cfg: &Config, ann: &Announcement, m: usize) -> Vec<Submission> {
    let mut rng = cfg.rng(EXP, 0);
    (0..m as u64)
        .map(|i| {
            let profile = Profile::from_bits(&[i % 3 == 0, i % 2 == 0, i % 5 < 2]);
            let mut agent = UserAgent::new(UserId(i), profile, ann.p, f64::MAX);
            agent
                .participate(ann, &mut rng)
                .expect("participation cannot fail at these parameters")
        })
        .collect()
}

fn router_with_fanout(map: ShardMap, fanout: usize) -> Router {
    Router::new(
        map,
        RouterConfig {
            timeout: TIMEOUT,
            fanout,
            ..RouterConfig::default()
        },
    )
    .expect("valid map")
}

/// q/s of `plan` through `router` over `reps` repetitions.
fn measure(router: &mut Router, plan: &TermPlan, reps: u64) -> f64 {
    // One warm-up pass opens every shard connection.
    let _ = router.execute_plan(plan).expect("warm-up");
    let start = Instant::now();
    for _ in 0..reps {
        let _ = router.execute_plan(plan).expect("measured query");
    }
    reps as f64 / start.elapsed().as_secs_f64()
}

struct FamilyAtShards {
    family: &'static str,
    shards: u32,
    seq_qps: f64,
    par_qps: f64,
}

/// Runs one configuration (all shard counts × families), optionally
/// behind latency proxies, asserting parallel answers bit-identical to
/// the single-node oracle throughout.
fn run_configuration(
    ann: &Announcement,
    subs: &[Submission],
    engine: &QueryEngine,
    oracle: &Coordinator,
    plans: &[(&'static str, TermPlan)],
    reps: u64,
    latency: Option<Duration>,
) -> Vec<FamilyAtShards> {
    let mut runs = Vec::new();
    for shards in SHARD_COUNTS {
        let servers: Vec<Server> = (0..shards)
            .map(|shard_id| {
                Server::start(
                    "127.0.0.1:0",
                    ann.clone(),
                    ServerConfig {
                        workers: 4,
                        shard: Some(ShardIdentity {
                            shard_id,
                            shard_count: shards,
                        }),
                        ..ServerConfig::default()
                    },
                )
                .expect("bind loopback")
            })
            .collect();
        // Ingest always goes over raw loopback (latency under test is
        // the query path).
        let direct = ShardMap::new(1, servers.iter().map(|s| s.local_addr().to_string()))
            .expect("non-empty map");
        let (accepted, _) = parallel_ingest(&direct, subs, TIMEOUT, 500)
            .totals()
            .expect("cluster ingest");
        assert_eq!(accepted, subs.len() as u64, "every submission lands");

        // Queries go through the proxies when a latency is modeled.
        let proxies: Vec<LatencyProxy> = match latency {
            None => Vec::new(),
            Some(l) => servers
                .iter()
                .map(|s| LatencyProxy::start(s.local_addr(), l))
                .collect(),
        };
        let query_map = if proxies.is_empty() {
            direct
        } else {
            ShardMap::new(1, proxies.iter().map(|p| p.addr.to_string())).expect("non-empty map")
        };

        let mut sequential = router_with_fanout(query_map.clone(), 1);
        let mut parallel = router_with_fanout(query_map, 0);
        for (family, plan) in plans {
            let seq_qps = measure(&mut sequential, plan, reps);
            let par_qps = measure(&mut parallel, plan, reps);
            // Bit-identity of the parallel answer vs the single-node
            // oracle, output by output.
            let clustered = parallel.execute_plan(plan).expect("verification query");
            assert!(clustered.coverage.is_complete());
            let local = engine.execute_plan(oracle.pool(), plan).expect("oracle");
            for (c, l) in clustered.outputs.iter().zip(&local) {
                assert_eq!(
                    c.value.to_bits(),
                    l.value.to_bits(),
                    "{family}: parallel at {shards} shards diverged from the oracle"
                );
            }
            runs.push(FamilyAtShards {
                family,
                shards,
                seq_qps,
                par_qps,
            });
        }
        drop(proxies);
        for server in servers {
            server.shutdown();
        }
    }
    runs
}

fn table_for(title: String, runs: &[FamilyAtShards]) -> Table {
    let mut t = Table::new(
        title,
        &["family", "shards", "sequential q/s", "parallel q/s", "gain"],
    );
    for run in runs {
        t.row(vec![
            run.family.to_string(),
            run.shards.to_string(),
            f(run.seq_qps, 1),
            f(run.par_qps, 1),
            f(run.par_qps / run.seq_qps.max(1e-12), 2),
        ]);
    }
    t
}

fn json_entries(runs: &[FamilyAtShards]) -> String {
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "      {{\"family\": \"{}\", \"shards\": {}, \"sequential_qps\": {:.1}, \
                 \"parallel_qps\": {:.1}}}",
                r.family, r.shards, r.seq_qps, r.par_qps
            )
        })
        .collect();
    entries.join(",\n")
}

fn conj_at(runs: &[FamilyAtShards], shards: u32) -> &FamilyAtShards {
    runs.iter()
        .find(|r| r.family == "conjunctive" && r.shards == shards)
        .expect("conjunctive measured at every shard count")
}

/// Runs E24.
///
/// # Panics
///
/// Panics if the loopback cluster misbehaves, a parallel answer
/// diverges from the single-node oracle, the modeled-LAN 4-shard
/// conjunctive gain misses `TARGET_SPEEDUP` (2.5×), or the output file
/// cannot be written.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &Config) -> Vec<Table> {
    let m = cfg.m(80_000);
    let reps = cfg.reps(300);
    let lan_reps = cfg.reps(60);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let plans = families();
    let ann = announcement(cfg, m, &plans);
    let subs = make_submissions(cfg, &ann, m);

    // The single-node oracle every parallel answer must match.
    let oracle = Coordinator::new(ann.clone());
    oracle.accept_batch(&subs);
    let params = ann.validate().expect("announcement validates");
    let engine = QueryEngine::new(params);

    let loopback = run_configuration(&ann, &subs, &engine, &oracle, &plans, reps, None);
    let lan = run_configuration(
        &ann,
        &subs,
        &engine,
        &oracle,
        &plans,
        lan_reps,
        Some(LAN_LATENCY),
    );

    // Headline metrics.
    let lan_4shard_gain = conj_at(&lan, 4).par_qps / conj_at(&lan, 4).seq_qps;
    let lan_4_vs_1 = conj_at(&lan, 4).par_qps / conj_at(&lan, 1).seq_qps;
    let loopback_4_vs_1 = conj_at(&loopback, 4).par_qps / conj_at(&loopback, 1).par_qps;

    let mut t1 = table_for(
        format!("E24a — scatter fan-out over raw loopback ({m} users, {cores} core(s))"),
        &loopback,
    );
    t1.note("every parallel answer verified bit-identical to the single-node oracle");
    t1.note(format!(
        "loopback queries are dominated by the CPU-bound PRF counting scan: shard scaling \
         needs one core per shard, and this host has {cores} — per-shard scans serialize \
         (conjunctive parallel 4-shard vs 1-shard here: {loopback_4_vs_1:.2}x)"
    ));

    let mut t2 = table_for(
        format!(
            "E24b — scatter fan-out over a modeled LAN ({}ms one-way request latency)",
            LAN_LATENCY.as_millis()
        ),
        &lan,
    );
    t2.note(
        "latency proxies model the network a real deployment scatters across; waiting \
         overlaps even on one core, isolating the fan-out itself",
    );
    t2.note(format!(
        "conjunctive at 4 shards: parallel {:.1} q/s vs one-connection-at-a-time {:.1} q/s \
         = {lan_4shard_gain:.2}x (target >= {TARGET_SPEEDUP}x); vs the 1-shard figure: \
         {lan_4_vs_1:.2}x",
        conj_at(&lan, 4).par_qps,
        conj_at(&lan, 4).seq_qps,
    ));

    let json = format!(
        "{{\n  \"experiment\": \"e24_scatter\",\n  \"users\": {m},\n  \"host_cores\": {cores},\n  \
         \"modeled_lan_one_way_ms\": {},\n  \
         \"conjunctive_4_shard_parallel_vs_sequential_lan\": {lan_4shard_gain:.2},\n  \
         \"conjunctive_4_shard_parallel_vs_1_shard_lan\": {lan_4_vs_1:.2},\n  \
         \"conjunctive_4_shard_parallel_vs_1_shard_loopback\": {loopback_4_vs_1:.2},\n  \
         \"target_speedup\": {TARGET_SPEEDUP},\n  \
         \"note\": \"loopback scans are CPU-bound; on a {cores}-core host per-shard scans \
         serialize, so the fan-out win is measured under the modeled LAN latency where \
         waiting (the thing parallel fan-out overlaps) exists\",\n  \
         \"loopback\": [\n{}\n  ],\n  \"modeled_lan\": [\n{}\n  ]\n}}\n",
        LAN_LATENCY.as_millis(),
        json_entries(&loopback),
        json_entries(&lan)
    );
    assert!(
        lan_4shard_gain >= TARGET_SPEEDUP,
        "modeled-LAN conjunctive at 4 shards: parallel is {lan_4shard_gain:.2}x sequential, \
         below the {TARGET_SPEEDUP}x target"
    );
    if cfg.quick {
        t2.note("quick mode: BENCH_scatter.json not written");
    } else {
        std::fs::write("BENCH_scatter.json", json).expect("write BENCH_scatter.json");
        t2.note("wrote BENCH_scatter.json");
    }

    vec![t1, t2]
}

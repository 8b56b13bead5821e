//! E22 — sharded cluster throughput: scatter-gather over loopback TCP.
//!
//! The paper's Lemma 4.1 error improves with the population `M`; serving
//! a large `M` means sharding the pool. This experiment measures the
//! `psketch-cluster` stack — shard-map routing, streamed per-shard
//! ingest, scatter-gather partial-count queries — at 1, 2 and 4 shards
//! over loopback TCP, against the e21 single-node numbers as the
//! baseline shape:
//!
//! * ingest submissions/second through `parallel_ingest`, streaming
//!   each shard's chunks over its own connection (each shard appends
//!   to its own pool, so ingest scales with shard count until the
//!   loopback stack saturates);
//! * conjunctive and distribution queries/second through the router
//!   (each query is one partial-counts round trip per shard; per-shard
//!   scan work shrinks as `1/N`);
//! * **bit-identical** agreement between every cluster answer and the
//!   single-node oracle over the same records, at every shard count.
//!
//! One timing per cell cannot rank shard counts on a shared machine, so
//! every cell runs `REPS` (5) times, the shard counts interleaved and
//! their order rotated each repetition so no count always runs first;
//! each cell reports its median and its min–max.
//!
//! Emits `BENCH_cluster.json` so the scaling trajectory accumulates
//! across revisions.

use crate::common::Config;
use crate::report::{f, Table};
use psketch_cluster::{parallel_ingest, Router, RouterConfig, ShardMap};
use psketch_core::{BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, Profile, UserId};
use psketch_prf::GlobalKey;
use psketch_protocol::{
    Announcement, AnnouncementBuilder, Coordinator, ShardIdentity, Submission, UserAgent,
};
use psketch_queries::TermPlan;
use psketch_server::{Server, ServerConfig};
use std::time::{Duration, Instant};

const EXP: u64 = 22;
const TIMEOUT: Duration = Duration::from_secs(30);

fn announcement(cfg: &Config, m: usize) -> Announcement {
    AnnouncementBuilder::new(EXP, 0.3, m as u64, 1e-6)
        .global_key(*GlobalKey::from_seed(cfg.seed ^ EXP).as_bytes())
        .subset(BitSubset::single(0))
        .subset(BitSubset::single(1))
        .subset(BitSubset::range(0, 2))
        .build()
        .expect("static announcement is valid")
}

fn make_submissions(cfg: &Config, ann: &Announcement, m: usize) -> Vec<Submission> {
    let mut rng = cfg.rng(EXP, 0);
    (0..m as u64)
        .map(|i| {
            let profile = Profile::from_bits(&[i % 3 == 0, i % 2 == 0]);
            let mut agent = UserAgent::new(UserId(i), profile, ann.p, f64::MAX);
            agent
                .participate(ann, &mut rng)
                .expect("participation cannot fail at these parameters")
        })
        .collect()
}

/// Repetitions of every cell (odd, so each cell has a middle value).
const REPS: usize = 5;

/// The shard counts compared, in the first repetition's order.
const SHARD_COUNTS: [u32; 3] = [1, 2, 4];

/// The rates each repetition of a shard count measures, as named in
/// `BENCH_cluster.json`.
const METRICS: [&str; 3] = [
    "submissions_per_sec",
    "conjunctive_queries_per_sec",
    "distribution_queries_per_sec",
];

/// Runs one shard-count configuration on fresh servers, verifies
/// bit-identity against the oracle, shuts the servers down and returns
/// the timings.
fn run_shards(
    ann: &Announcement,
    subs: &[Submission],
    oracle: &Coordinator,
    estimator: &ConjunctiveEstimator,
    shards: u32,
    reps: u64,
) -> [f64; 3] {
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
    let map = ShardMap::new(1, servers.iter().map(|s| s.local_addr().to_string()))
        .expect("non-empty map");

    // --- Streamed ingest, one connection per shard. ---
    let start = Instant::now();
    let report = parallel_ingest(&map, subs, TIMEOUT, 500);
    let ingest_per_sec = subs.len() as f64 / start.elapsed().as_secs_f64();
    let (accepted, rejected) = report.totals().expect("cluster ingest");
    assert_eq!(accepted, subs.len() as u64, "every submission lands");
    assert_eq!(rejected, 0);

    // --- Scatter-gather query rates through a warm router. ---
    let mut router = Router::new(
        map,
        RouterConfig {
            timeout: TIMEOUT,
            ..RouterConfig::default()
        },
    )
    .expect("valid map");
    let pair = BitSubset::range(0, 2);
    let conj_plan = |value: BitString| {
        let q = ConjunctiveQuery::new(pair.clone(), value).expect("widths match");
        TermPlan::for_conjunctive(q)
    };
    let hot = conj_plan(BitString::from_bits(&[true, true]));
    let dist = TermPlan::for_distribution(&pair);
    let start = Instant::now();
    for _ in 0..reps {
        let _ = router.execute_plan(&hot).expect("conjunctive");
    }
    let conj_qps = reps as f64 / start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..reps {
        let _ = router.execute_plan(&dist).expect("distribution");
    }
    let dist_qps = reps as f64 / start.elapsed().as_secs_f64();

    // --- Bit-identity against the single-node oracle. ---
    for v in 0..4u64 {
        let value = BitString::from_u64(v, 2);
        let plan = conj_plan(value);
        let clustered = router.execute_plan(&plan).expect("conjunctive");
        assert!(clustered.coverage.is_complete());
        let local = estimator
            .estimate(oracle.pool(), &plan.terms()[0])
            .expect("oracle");
        assert_eq!(
            clustered.term_estimates[0].fraction.to_bits(),
            local.fraction.to_bits(),
            "cluster at {shards} shards diverged from the single-node oracle"
        );
    }
    let clustered = router.execute_plan(&dist).expect("distribution");
    let local = estimator
        .estimate_distribution(oracle.pool(), &pair)
        .expect("oracle distribution");
    for (c, l) in clustered.term_estimates.iter().zip(&local) {
        assert_eq!(c.fraction.to_bits(), l.fraction.to_bits());
    }

    for server in servers {
        server.shutdown();
    }
    [ingest_per_sec, conj_qps, dist_qps]
}

/// Runs E22.
///
/// # Panics
///
/// Panics if the loopback cluster misbehaves, an answer diverges from
/// the single-node oracle, or the output file cannot be written.
#[must_use]
pub fn run(cfg: &Config) -> Vec<Table> {
    let m = cfg.m(40_000);
    let records = m * 3;
    let reps = cfg.reps(200);
    let ann = announcement(cfg, m);
    let subs = make_submissions(cfg, &ann, m);

    // The single-node oracle every configuration must match.
    let oracle = Coordinator::new(ann.clone());
    oracle.accept_batch(&subs);
    let estimator = ConjunctiveEstimator::new(ann.validate().expect("announcement validates"));

    // samples[i] holds SHARD_COUNTS[i]'s repetitions.
    let mut samples: Vec<Vec<[f64; 3]>> = SHARD_COUNTS.iter().map(|_| Vec::new()).collect();
    for rep in 0..REPS {
        for i in 0..SHARD_COUNTS.len() {
            let cell = (rep + i) % SHARD_COUNTS.len();
            let shards = SHARD_COUNTS[cell];
            samples[cell].push(run_shards(&ann, &subs, &oracle, &estimator, shards, reps));
        }
    }

    let mut t = Table::new(
        format!(
            "E22 — sharded cluster throughput ({m} users x 3 subsets = {records} records, \
             scatter-gather router; median [min–max] of {REPS} interleaved repetitions)"
        ),
        &[
            "shards",
            "ingest (subs/s)",
            "conjunctive q/s",
            "distribution q/s",
        ],
    );
    let mut entries = Vec::new();
    for (&shards, cell) in SHARD_COUNTS.iter().zip(&samples) {
        let mut row = vec![shards.to_string()];
        let mut fields = vec![format!("\"shards\": {shards}")];
        for (k, name) in METRICS.iter().enumerate() {
            let mut values: Vec<f64> = cell.iter().map(|sample| sample[k]).collect();
            values.sort_by(f64::total_cmp);
            let (median, min, max) = (values[REPS / 2], values[0], values[REPS - 1]);
            row.push(format!("{} [{}–{}]", f(median, 0), f(min, 0), f(max, 0)));
            fields.push(format!(
                "\"{name}\": {{\"median\": {median:.1}, \"min\": {min:.1}, \"max\": {max:.1}}}"
            ));
        }
        t.row(row);
        entries.push(format!("    {{{}}}", fields.join(", ")));
    }
    t.note("every answer at every shard count verified bit-identical to the single-node oracle");
    t.note("ingest streams chunks over one connection per shard; one scatter round per query");

    let json = format!(
        "{{\n  \"experiment\": \"e22_cluster\",\n  \"users\": {m},\n  \"records\": {records},\n  \
         \"repetitions\": {REPS},\n  \
         \"baseline\": \"BENCH_service.json (e21 single node)\",\n  \"runs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    if cfg.quick {
        t.note("quick mode: BENCH_cluster.json not written");
    } else {
        std::fs::write("BENCH_cluster.json", json).expect("write BENCH_cluster.json");
        t.note("wrote BENCH_cluster.json");
    }

    vec![t]
}

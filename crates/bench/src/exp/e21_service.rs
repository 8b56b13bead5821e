//! E21 — networked service throughput: loopback TCP end-to-end.
//!
//! The paper's deployment story is a live service; this experiment
//! measures the `psketch-server` stack — framed wire protocol, threaded
//! worker pool, columnar `SubmitBatch` ingest, snapshot-backed query
//! serving — over loopback TCP with ≥100k sketch records:
//!
//! * submissions/second with concurrent submitting clients (WAL off and
//!   WAL on, the latter paying an fsync per batch before each ack);
//! * conjunctive and distribution queries/second from a warm analyst
//!   connection (a one-term and a `2^k`-term `Plan` frame, both read
//!   from the 2-bit subset's count table, with no scan);
//! * bit-for-bit agreement between served answers and the in-process
//!   estimator, and between pre-restart and post-WAL-replay answers.
//!
//! Emits `BENCH_service.json` next to `BENCH_throughput.json` so the
//! service numbers accumulate a trajectory across revisions.

use crate::common::Config;
use crate::report::{f, Table};
use psketch_core::{BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, Profile, UserId};
use psketch_prf::GlobalKey;
use psketch_protocol::{Announcement, AnnouncementBuilder, Coordinator, Submission, UserAgent};
use psketch_queries::TermPlan;
use psketch_server::wal::WalConfig;
use psketch_server::{Client, Server, ServerConfig};
use std::time::{Duration, Instant};

const EXP: u64 = 21;
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

/// Ingests every submission through `clients` concurrent connections
/// and returns submissions/second.
fn ingest_rate(addr: std::net::SocketAddr, subs: &[Submission], clients: usize) -> f64 {
    let chunk = subs.len().div_ceil(clients);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for slice in subs.chunks(chunk) {
            scope.spawn(move || {
                let mut client = Client::connect(addr, TIMEOUT).expect("loopback connect");
                let ack = client.submit_chunked(slice, 500).expect("submit");
                assert_eq!(ack.rejected, 0, "fresh ids cannot be rejected");
            });
        }
    });
    subs.len() as f64 / start.elapsed().as_secs_f64()
}

/// Runs E21.
///
/// # Panics
///
/// Panics if the loopback service misbehaves or the output file cannot
/// be written.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &Config) -> Vec<Table> {
    // 40k users × 3 subsets = 120k records at full scale.
    let m = cfg.m(40_000);
    let records = m * 3;
    let clients = 4;
    let ann = announcement(cfg, m);
    let subs = make_submissions(cfg, &ann, m);

    // --- Ingest, WAL off. ---
    let server = Server::start(
        "127.0.0.1:0",
        ann.clone(),
        ServerConfig {
            workers: clients + 2,
            wal: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let subs_per_sec = ingest_rate(addr, &subs, clients);

    // --- Query rates off the same populated server. ---
    let mut analyst = Client::connect(addr, TIMEOUT).expect("connect analyst");
    let pair = BitSubset::range(0, 2);
    let value = BitString::from_bits(&[true, true]);
    let q = ConjunctiveQuery::new(pair.clone(), value).expect("widths match");
    let conj = TermPlan::for_conjunctive(q.clone());
    let dist = TermPlan::for_distribution(&pair);
    let reps = cfg.reps(200);
    let start = Instant::now();
    for _ in 0..reps {
        let _ = analyst.execute_plan(&conj).expect("conjunctive query");
    }
    let conj_qps = reps as f64 / start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..reps {
        let _ = analyst.execute_plan(&dist).expect("distribution");
    }
    let dist_qps = reps as f64 / start.elapsed().as_secs_f64();

    // --- Served answers match the in-process oracle bit-for-bit. ---
    let oracle = Coordinator::new(ann.clone());
    oracle.accept_batch(&subs);
    let estimator = ConjunctiveEstimator::new(ann.validate().expect("announcement validates"));
    let served = analyst.execute_plan(&conj).expect("conjunctive query");
    let local = estimator
        .estimate(oracle.pool(), &q)
        .expect("oracle populated");
    assert_eq!(
        served[0].value.to_bits(),
        local.fraction.to_bits(),
        "served estimate diverged from the in-process estimator"
    );
    drop(analyst);
    server.shutdown();

    // --- Ingest, WAL on (fsync per batch), then replay fidelity. ---
    let wal_dir = std::env::temp_dir().join(format!("psketch-e21-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal_config = || ServerConfig {
        workers: clients + 2,
        wal: Some(WalConfig::new(&wal_dir)),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", ann.clone(), wal_config()).expect("bind loopback");
    let wal_subs_per_sec = ingest_rate(server.local_addr(), &subs, clients);
    let mut analyst = Client::connect(server.local_addr(), TIMEOUT).expect("connect analyst");
    let before = analyst.execute_plan(&conj).expect("pre-restart query");
    drop(analyst);
    server.shutdown();

    let server = Server::start("127.0.0.1:0", ann, wal_config()).expect("restart from wal");
    let mut analyst = Client::connect(server.local_addr(), TIMEOUT).expect("reconnect analyst");
    let after = analyst.execute_plan(&conj).expect("post-restart query");
    assert_eq!(
        before[0].value.to_bits(),
        after[0].value.to_bits(),
        "WAL replay changed the answer"
    );
    drop(analyst);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);

    let mut t = Table::new(
        format!(
            "E21 — loopback service throughput ({m} users x 3 subsets = {records} records, \
             {clients} clients)"
        ),
        &["metric", "rate"],
    );
    t.row(vec![
        "ingest, wal off (submissions/s)".into(),
        f(subs_per_sec, 0),
    ]);
    t.row(vec![
        "ingest, wal off (records/s)".into(),
        f(subs_per_sec * 3.0, 0),
    ]);
    t.row(vec![
        "ingest, wal fsync/batch (submissions/s)".into(),
        f(wal_subs_per_sec, 0),
    ]);
    t.row(vec![
        "conjunctive queries/s (one-term plan, count table)".into(),
        f(conj_qps, 1),
    ]);
    t.row(vec![
        "distribution queries/s (4-term plan, count table)".into(),
        f(dist_qps, 1),
    ]);
    t.note("served answers verified bit-identical to the in-process estimator");
    t.note("post-restart WAL replay verified bit-identical to pre-restart answers");

    let json = format!(
        "{{\n  \"experiment\": \"e21_service\",\n  \"users\": {m},\n  \"records\": {records},\n  \
         \"clients\": {clients},\n  \"submissions_per_sec\": {subs_per_sec:.1},\n  \
         \"records_per_sec\": {:.1},\n  \"submissions_per_sec_wal\": {wal_subs_per_sec:.1},\n  \
         \"conjunctive_queries_per_sec\": {conj_qps:.1},\n  \
         \"distribution_queries_per_sec\": {dist_qps:.1}\n}}\n",
        subs_per_sec * 3.0,
    );
    if cfg.quick {
        t.note("quick mode: BENCH_service.json not written");
    } else {
        std::fs::write("BENCH_service.json", json).expect("write BENCH_service.json");
        t.note("wrote BENCH_service.json");
    }

    vec![t]
}

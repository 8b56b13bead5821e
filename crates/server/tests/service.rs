//! End-to-end tests: loopback TCP service, WAL crash recovery, restart
//! fidelity, and protocol error handling.

use psketch_core::{
    BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, Estimate, Profile, UserId,
};
use psketch_prf::{GlobalKey, Prg};
use psketch_protocol::{Announcement, AnnouncementBuilder, Coordinator, Submission, UserAgent};
use psketch_queries::TermPlan;
use psketch_server::wal::{Wal, WalConfig};
use psketch_server::{next_nonce, Client, ClientError, Server, ServerConfig};
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "psketch-server-test-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn announcement() -> Announcement {
    AnnouncementBuilder::new(77, 0.45, 10_000, 1e-6)
        .global_key(*GlobalKey::from_seed(5).as_bytes())
        .subset(BitSubset::range(0, 2))
        .subset(BitSubset::single(0))
        .subset(BitSubset::single(1))
        .build()
        .unwrap()
}

fn submissions(ann: &Announcement, ids: std::ops::Range<u64>, seed: u64) -> Vec<Submission> {
    let mut rng = Prg::seed_from_u64(seed);
    ids.map(|i| {
        let profile = Profile::from_bits(&[i % 4 == 0, i % 2 == 0]);
        let mut agent = UserAgent::new(UserId(i), profile, 0.45, 1e6);
        agent.participate(ann, &mut rng).unwrap()
    })
    .collect()
}

/// One conjunctive estimate over the wire, as the router computes it:
/// a one-term `PartialTermCounts` exchange (`nonce` is its replay
/// identity), inverted client-side at the announcement's quantized bias.
fn conjunctive(
    client: &mut Client,
    nonce: u64,
    subset: &BitSubset,
    value: &BitString,
) -> Result<Estimate, ClientError> {
    let term = ConjunctiveQuery::new(subset.clone(), value.clone()).unwrap();
    let counts = client.partial_term_counts_nonced(nonce, &[term])?;
    let p = announcement().validate().unwrap().p();
    Ok(Estimate::from_counts(
        counts[0].ones,
        counts[0].population,
        p,
    ))
}

/// The `2^k` distribution over `subset`, the same way: one counts
/// exchange for the distribution plan's terms.
fn distribution(client: &mut Client, subset: &BitSubset) -> Vec<Estimate> {
    let plan = TermPlan::for_distribution(subset);
    let counts = client.partial_term_counts(plan.terms()).unwrap();
    let p = announcement().validate().unwrap().p();
    counts
        .iter()
        .map(|c| Estimate::from_counts(c.ones, c.population, p))
        .collect()
}

/// A one-term plan: a charged conjunction as the `Plan` frame carries it.
fn conj_plan(subset: &BitSubset, value: &BitString) -> TermPlan {
    TermPlan::for_conjunctive(ConjunctiveQuery::new(subset.clone(), value.clone()).unwrap())
}

/// The in-process oracle: the same submissions ingested directly.
fn oracle(ann: &Announcement, subs: &[Submission]) -> Coordinator {
    let c = Coordinator::new(ann.clone());
    c.accept_batch(subs.iter());
    c
}

#[test]
fn loopback_concurrent_clients_match_oracle() {
    let ann = announcement();
    let server = Server::start(
        "127.0.0.1:0",
        ann.clone(),
        ServerConfig {
            workers: 6,
            wal: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Four concurrent submitters, disjoint user-id ranges, plus an
    // analyst hammering queries mid-ingest (answers may be partial but
    // must never error out the connection or crash the server).
    let n_clients = 4u64;
    let per_client = 250u64;
    let all_subs: Vec<Vec<Submission>> = (0..n_clients)
        .map(|c| submissions(&ann, c * per_client..(c + 1) * per_client, 100 + c))
        .collect();
    std::thread::scope(|scope| {
        for subs in &all_subs {
            scope.spawn(|| {
                let mut client = Client::connect(addr, TIMEOUT).unwrap();
                let ack = client.submit_chunked(subs, 64).unwrap();
                assert_eq!(ack.accepted, per_client);
                assert_eq!(ack.rejected, 0);
            });
        }
        scope.spawn(|| {
            let mut client = Client::connect(addr, TIMEOUT).unwrap();
            let subset = BitSubset::range(0, 2);
            for _ in 0..50 {
                let plan = conj_plan(&subset, &BitString::from_bits(&[true, true]));
                match client.execute_plan(&plan) {
                    Ok(answers) => assert!(answers[0].min_sample_size > 0),
                    // Empty pool before the first batch lands.
                    Err(ClientError::Server { .. }) => {}
                    Err(other) => panic!("analyst connection died: {other}"),
                }
            }
        });
    });

    let flat: Vec<Submission> = all_subs.into_iter().flatten().collect();
    let oracle = oracle(&ann, &flat);
    let params = ann.validate().unwrap();
    let estimator = ConjunctiveEstimator::new(params);

    let mut client = Client::connect(addr, TIMEOUT).unwrap();
    // Conjunctive and linear answers match the in-process estimator
    // bit-for-bit on every announced subset.
    for subset in [BitSubset::range(0, 2), BitSubset::single(0)] {
        let width = subset.len();
        for value in 0..(1u64 << width) {
            let value = BitString::from_u64(value, width);
            let served = conjunctive(&mut client, next_nonce(), &subset, &value).unwrap();
            let q = psketch_core::ConjunctiveQuery::new(subset.clone(), value).unwrap();
            let local = estimator.estimate(oracle.pool(), &q).unwrap();
            assert_eq!(served.fraction.to_bits(), local.fraction.to_bits());
            assert_eq!(served.sample_size, local.sample_size);
        }
    }
    // Distribution over the pair subset: 4 bit-identical estimates.
    let subset = BitSubset::range(0, 2);
    let served = distribution(&mut client, &subset);
    let local = estimator
        .estimate_distribution(oracle.pool(), &subset)
        .unwrap();
    assert_eq!(served.len(), local.len());
    for (s, l) in served.iter().zip(&local) {
        assert_eq!(s.fraction.to_bits(), l.fraction.to_bits());
    }
    // A linear query (P[b0] + P[b1] − 1, say) travels as a plan and
    // matches the engine.
    let mut lq = psketch_queries::LinearQuery::new("service linear");
    lq.constant = -1.0;
    lq.push(
        1.0,
        psketch_core::ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true]))
            .unwrap(),
    );
    lq.push(
        1.0,
        psketch_core::ConjunctiveQuery::new(BitSubset::single(1), BitString::from_bits(&[true]))
            .unwrap(),
    );
    let answers = client
        .execute_plan(&psketch_queries::TermPlan::compile(&lq))
        .unwrap();
    let (value, used, min_n) = (
        answers[0].value,
        answers[0].queries_used,
        answers[0].min_sample_size,
    );
    assert_eq!(used, 2);
    assert_eq!(min_n, 1000);
    let yes = BitString::from_bits(&[true]);
    let e0 = conjunctive(&mut client, next_nonce(), &BitSubset::single(0), &yes).unwrap();
    let e1 = conjunctive(&mut client, next_nonce(), &BitSubset::single(1), &yes).unwrap();
    assert!((value - (e0.fraction + e1.fraction - 1.0)).abs() < 1e-12);

    // Stats reflect everything the four clients pushed.
    let stats = client.stats().unwrap();
    assert_eq!(stats.accepted, n_clients * per_client);
    assert_eq!(stats.rejected(), 0);
    assert_eq!(stats.records, n_clients * per_client * 3);

    server.shutdown();
}

#[test]
fn duplicate_submissions_rejected_across_clients() {
    let ann = announcement();
    let server = Server::start("127.0.0.1:0", ann.clone(), ServerConfig::default()).unwrap();
    let subs = submissions(&ann, 0..20, 7);
    let mut a = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    let mut b = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    assert_eq!(a.submit_batch(&subs).unwrap().accepted, 20);
    let ack = b.submit_batch(&subs).unwrap();
    assert_eq!(ack.accepted, 0);
    assert_eq!(ack.rejected, 20);
    let stats = b.stats().unwrap();
    assert_eq!(stats.duplicates, 20);
    server.shutdown();
}

#[test]
fn wal_replay_tolerates_torn_tail() {
    let dir = temp_dir("torn");
    let config = WalConfig::new(&dir);
    let ann = announcement();

    let batch_size = 10u64;
    {
        let (mut wal, recovered) = Wal::open(&config).unwrap();
        assert!(recovered.is_none());
        wal.record_announcement(&ann).unwrap();
        for b in 0..5u64 {
            let subs = submissions(&ann, b * batch_size..(b + 1) * batch_size, 200 + b);
            wal.record_batch(&subs).unwrap();
        }
    }

    // Tear the final record: the crash happened mid-append.
    let log_path = dir.join("wal.log");
    let bytes = std::fs::read(&log_path).unwrap();
    std::fs::write(&log_path, &bytes[..bytes.len() - 7]).unwrap();

    let (mut wal, recovered) = Wal::open(&config).unwrap();
    let coordinator = recovered.expect("announcement + batches recovered");
    // Batches 0..4 were committed whole; the torn batch 4 is dropped.
    assert_eq!(coordinator.participants(), 4 * batch_size as usize);
    // The log was truncated back to a record boundary: appending and
    // reopening recovers the new batch on top.
    let extra = submissions(&ann, 100..110, 300);
    wal.record_batch(&extra).unwrap();
    drop(wal);
    let (_, recovered) = Wal::open(&config).unwrap();
    assert_eq!(recovered.unwrap().participants(), 5 * batch_size as usize);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_rejects_corruption_before_the_tail() {
    let dir = temp_dir("corrupt");
    let config = WalConfig::new(&dir);
    let ann = announcement();
    {
        let (mut wal, _) = Wal::open(&config).unwrap();
        wal.record_announcement(&ann).unwrap();
        wal.record_batch(&submissions(&ann, 0..10, 1)).unwrap();
        wal.record_batch(&submissions(&ann, 10..20, 2)).unwrap();
    }
    // Flip a payload byte inside the FIRST record: CRC fails there, but
    // intact committed records follow, so this is mid-log corruption —
    // open() must refuse to load rather than silently truncating away
    // the committed batches behind the damage.
    let log_path = dir.join("wal.log");
    let mut bytes = std::fs::read(&log_path).unwrap();
    bytes[10] ^= 0xFF;
    std::fs::write(&log_path, &bytes).unwrap();
    match Wal::open(&config) {
        Err(psketch_server::WalError::Corrupt(reason)) => {
            assert!(reason.contains("refusing to truncate"), "{reason}");
        }
        other => panic!("expected corruption refusal, got {other:?}"),
    }
    // The damaged file was left untouched for inspection.
    assert_eq!(std::fs::read(&log_path).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_log_after_compaction_crash_is_harmless() {
    // Simulate a crash in compact() between the snapshot rename and the
    // log truncation: the new snapshot and the full pre-compaction log
    // coexist. Replay must treat the stale records (announcement
    // included) as no-ops, not corruption.
    let dir = temp_dir("stale");
    let config = WalConfig::new(&dir);
    let ann = announcement();
    {
        let (mut wal, _) = Wal::open(&config).unwrap();
        wal.record_announcement(&ann).unwrap();
        for b in 0..3u64 {
            wal.record_batch(&submissions(&ann, b * 10..(b + 1) * 10, 400 + b))
                .unwrap();
        }
    }
    let stale_log = std::fs::read(dir.join("wal.log")).unwrap();
    let (mut wal, recovered) = Wal::open(&config).unwrap();
    let coordinator = recovered.unwrap();
    wal.compact(&coordinator).unwrap();
    drop(wal);
    // The crash: the truncation never happened.
    std::fs::write(dir.join("wal.log"), &stale_log).unwrap();

    let (_, recovered) = Wal::open(&config).unwrap();
    let restored = recovered.expect("snapshot + stale log must load");
    assert_eq!(restored.participants(), 30);
    assert_eq!(restored.stats().accepted, 30);
    // The stale batches replayed as duplicates — the pool is unchanged.
    assert_eq!(restored.stats().duplicates, 30);
    for subset in coordinator.pool().subsets() {
        let mut a = coordinator.pool().records(&subset).unwrap();
        let mut b = restored.pool().records(&subset).unwrap();
        a.sort_by_key(|r| r.id);
        b.sort_by_key(|r| r.id);
        assert_eq!(a, b);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `TAG_BATCH` WAL record as the decoded-`Submission` encoder wrote
/// it: `u32 len ‖ u32 crc ‖ 2 ‖ u32 count ‖` per submission `u64 user ‖
/// u64 database ‖ u32 len ‖ bundle ‖ u32 count ‖ u32 skipped…`, all LE.
fn legacy_batch_record(subs: &[Submission]) -> Vec<u8> {
    let mut payload = vec![2u8];
    payload.extend_from_slice(&(subs.len() as u32).to_le_bytes());
    for sub in subs {
        payload.extend_from_slice(&sub.user.0.to_le_bytes());
        payload.extend_from_slice(&sub.database_id.to_le_bytes());
        payload.extend_from_slice(&(sub.bundle.len() as u32).to_le_bytes());
        payload.extend_from_slice(&sub.bundle);
        payload.extend_from_slice(&(sub.skipped.len() as u32).to_le_bytes());
        for i in &sub.skipped {
            payload.extend_from_slice(&i.to_le_bytes());
        }
    }
    let mut record = (payload.len() as u32).to_le_bytes().to_vec();
    record.extend_from_slice(&psketch_server::wal::crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// Three batches with malformed submissions, an in-batch duplicate and
/// duplicates of earlier batches among good ones.
fn mixed_batches(ann: &Announcement) -> Vec<Vec<Submission>> {
    let mut first = submissions(ann, 0..40, 61);
    first[3].database_id += 1;
    first[5].bundle[0] ^= 0xFF;
    first[7].bundle.pop();
    first[9].skipped = vec![9];
    let dup = first[1].clone();
    first.push(dup);
    let mut second = submissions(ann, 40..80, 62);
    second.extend(submissions(ann, 0..5, 61));
    let third = submissions(ann, 75..120, 63);
    vec![first, second, third]
}

/// The announcement record a fresh store begins with, as `Wal` writes it.
fn announcement_record(ann: &Announcement) -> Vec<u8> {
    let dir = temp_dir("ann-record");
    let (mut wal, _) = Wal::open(&WalConfig::new(&dir)).unwrap();
    wal.record_announcement(ann).unwrap();
    drop(wal);
    let bytes = std::fs::read(dir.join("wal.log")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Counters, accepted users, and every subset's columns and count table.
type PoolState = (
    psketch_protocol::CoordinatorStats,
    Vec<UserId>,
    Vec<(Vec<u64>, Vec<u64>, Option<(Vec<u64>, u64)>)>,
);

fn pool_state(c: &Coordinator) -> PoolState {
    let mut seen = c.seen_users();
    seen.sort_unstable();
    let params = c.announcement().validate().unwrap();
    let shards = c
        .announcement()
        .subsets
        .iter()
        .map(|s| {
            let snap = c.pool().snapshot(s).unwrap();
            let table = c.pool().count_table(s, &params);
            (snap.ids().to_vec(), snap.keys().to_vec(), table)
        })
        .collect();
    (c.stats(), seen, shards)
}

#[test]
fn wal_logs_each_batch_as_the_frame_bytes_received() {
    let ann = announcement();
    let batches = mixed_batches(&ann);
    let dir = temp_dir("received");
    let config = ServerConfig {
        workers: 2,
        wal: Some(WalConfig::new(&dir)),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", ann.clone(), config).unwrap();
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    for batch in &batches {
        client.submit_batch(batch).unwrap();
    }
    drop(client);
    server.shutdown();
    // The server logged the bodies it received; the decoded-submission
    // encoder writes the same bytes.
    let mut expected = announcement_record(&ann);
    for batch in &batches {
        expected.extend(legacy_batch_record(batch));
    }
    assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), expected);
    // `record_batch_body` over a frame body and `record_batch` over the
    // decoded batch write one identical record.
    for batch in &batches {
        let payload = psketch_server::Request::SubmitBatch(batch.clone()).encode();
        let (by_body, by_subs) = (temp_dir("by-body"), temp_dir("by-subs"));
        Wal::open(&WalConfig::new(&by_body))
            .unwrap()
            .0
            .record_batch_body(psketch_server::wire::submit_body(&payload).unwrap())
            .unwrap();
        Wal::open(&WalConfig::new(&by_subs))
            .unwrap()
            .0
            .record_batch(batch)
            .unwrap();
        let logged = std::fs::read(by_body.join("wal.log")).unwrap();
        assert_eq!(logged, legacy_batch_record(batch));
        assert_eq!(std::fs::read(by_subs.join("wal.log")).unwrap(), logged);
        let _ = std::fs::remove_dir_all(&by_body);
        let _ = std::fs::remove_dir_all(&by_subs);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_encoded_log_replays_to_the_same_pool() {
    let ann = announcement();
    let batches = mixed_batches(&ann);
    let dir = temp_dir("legacy");
    let mut log = announcement_record(&ann);
    for batch in &batches {
        log.extend(legacy_batch_record(batch));
    }
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal.log"), &log).unwrap();
    let (_, recovered) = Wal::open(&WalConfig::new(&dir)).unwrap();
    let replayed = recovered.expect("announcement and batches recovered");

    let direct = Coordinator::new(ann.clone());
    for batch in &batches {
        direct.accept_batch(batch);
    }
    assert_eq!(pool_state(&replayed), pool_state(&direct));
    let stats = replayed.stats();
    // Users 0..120, except 5, 7 and 9, malformed in the first batch;
    // user 3, malformed there too, is accepted from the second.
    assert_eq!(stats.accepted, 117);
    assert_eq!(stats.malformed, 4);
    // The in-batch repeat, 0..5 but 3 again, and 75..80 again.
    assert_eq!(stats.duplicates, 1 + 4 + 5);
    assert_eq!(stats.records, 117 * 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_restart_serves_identical_answers() {
    let dir = temp_dir("restart");
    let ann = announcement();
    let config = || ServerConfig {
        workers: 2,
        wal: Some(WalConfig::new(&dir)),
        ..ServerConfig::default()
    };
    let subset = BitSubset::range(0, 2);
    let value = BitString::from_bits(&[true, false]);

    let (before_conj, before_dist) = {
        let server = Server::start("127.0.0.1:0", ann.clone(), config()).unwrap();
        let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
        let subs = submissions(&ann, 0..300, 42);
        assert_eq!(client.submit_chunked(&subs, 50).unwrap().accepted, 300);
        let conj = conjunctive(&mut client, next_nonce(), &subset, &value).unwrap();
        let dist = distribution(&mut client, &subset);
        server.shutdown();
        (conj, dist)
    };

    // Hard restart: a brand-new process image would see exactly these
    // files; replay must reproduce the pool bit-for-bit.
    let server = Server::start("127.0.0.1:0", ann.clone(), config()).unwrap();
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    let after_conj = conjunctive(&mut client, next_nonce(), &subset, &value).unwrap();
    let after_dist = distribution(&mut client, &subset);
    assert_eq!(
        before_conj.fraction.to_bits(),
        after_conj.fraction.to_bits()
    );
    assert_eq!(before_conj.sample_size, after_conj.sample_size);
    assert_eq!(before_dist.len(), after_dist.len());
    for (b, a) in before_dist.iter().zip(&after_dist) {
        assert_eq!(b.fraction.to_bits(), a.fraction.to_bits());
    }
    // Replay restored the dedup set: resubmitting is rejected.
    let subs = submissions(&ann, 0..10, 42);
    let ack = client.submit_batch(&subs).unwrap();
    assert_eq!(ack.accepted, 0);
    assert_eq!(ack.rejected, 10);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_snapshot_restores_identically() {
    let dir = temp_dir("compact");
    let ann = announcement();
    let wal_config = WalConfig {
        dir: dir.clone(),
        compact_threshold_bytes: 512, // force compaction every few batches
    };
    let config = || ServerConfig {
        workers: 2,
        wal: Some(wal_config.clone()),
        ..ServerConfig::default()
    };
    let subset = BitSubset::range(0, 2);
    let value = BitString::from_bits(&[true, true]);

    let before = {
        let server = Server::start("127.0.0.1:0", ann.clone(), config()).unwrap();
        let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
        let subs = submissions(&ann, 0..200, 9);
        assert_eq!(client.submit_chunked(&subs, 20).unwrap().accepted, 200);
        let e = conjunctive(&mut client, next_nonce(), &subset, &value).unwrap();
        server.shutdown();
        e
    };
    assert!(
        dir.join("snapshot.bin").exists(),
        "threshold forces at least one compaction"
    );

    let server = Server::start("127.0.0.1:0", ann.clone(), config()).unwrap();
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    let after = conjunctive(&mut client, next_nonce(), &subset, &value).unwrap();
    assert_eq!(before.fraction.to_bits(), after.fraction.to_bits());
    assert_eq!(before.sample_size, after.sample_size);
    let stats = client.stats().unwrap();
    assert_eq!(stats.accepted, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_with_different_announcement_is_refused() {
    let dir = temp_dir("mismatch");
    let ann = announcement();
    let config = || ServerConfig {
        workers: 1,
        wal: Some(WalConfig::new(&dir)),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", ann, config()).unwrap();
    server.shutdown();
    let other = AnnouncementBuilder::new(78, 0.45, 10_000, 1e-6)
        .subset(BitSubset::single(0))
        .build()
        .unwrap();
    match Server::start("127.0.0.1:0", other, config()) {
        Err(psketch_server::ServeError::AnnouncementMismatch) => {}
        other => panic!("expected announcement mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_frames_get_error_responses_and_connection_survives() {
    use psketch_server::wire;
    use std::io::Write;

    let ann = announcement();
    let server = Server::start("127.0.0.1:0", ann, ServerConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Future protocol version.
    wire::write_frame(&mut stream, &[99, 0x07]).unwrap();
    let payload = wire::read_frame(&mut stream).unwrap().unwrap();
    match wire::Response::decode(&payload).unwrap() {
        wire::Response::Error { code, .. } => {
            assert_eq!(code, wire::codes::UNSUPPORTED_VERSION);
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    // Unknown kind.
    wire::write_frame(&mut stream, &[wire::PROTOCOL_VERSION, 0x6F]).unwrap();
    let payload = wire::read_frame(&mut stream).unwrap().unwrap();
    match wire::Response::decode(&payload).unwrap() {
        wire::Response::Error { code, .. } => assert_eq!(code, wire::codes::MALFORMED),
        other => panic!("expected error frame, got {other:?}"),
    }
    // Retired kinds (0x03/0x04) are malformed, even followed by a body
    // that starts like a charged request's (nonce, profile flag).
    for kind in [0x03, 0x04] {
        let mut frame = vec![wire::PROTOCOL_VERSION, kind];
        frame.extend_from_slice(&7u64.to_le_bytes());
        frame.push(0);
        wire::write_frame(&mut stream, &frame).unwrap();
        let payload = wire::read_frame(&mut stream).unwrap().unwrap();
        match wire::Response::decode(&payload).unwrap() {
            wire::Response::Error { code, .. } => assert_eq!(code, wire::codes::MALFORMED),
            other => panic!("expected error frame, got {other:?}"),
        }
    }
    // A frame of the previous protocol revision is refused as such.
    let mut v6 = wire::Request::Ping.encode();
    v6[0] = 6;
    wire::write_frame(&mut stream, &v6).unwrap();
    let payload = wire::read_frame(&mut stream).unwrap().unwrap();
    match wire::Response::decode(&payload).unwrap() {
        wire::Response::Error { code, .. } => {
            assert_eq!(code, wire::codes::UNSUPPORTED_VERSION);
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    // A term whose value width differs from its subset's is refused at
    // decode: the last term's bit length (`… ‖ u32 bitlen ‖ 1 value
    // byte`) is patched from 2 to 1.
    let term = ConjunctiveQuery::new(BitSubset::range(0, 2), BitString::from_bits(&[true, false]))
        .unwrap();
    let mut mismatched = wire::Request::PartialTermCounts {
        terms: vec![term],
        nonce: 0,
        profile: false,
    }
    .encode();
    let n = mismatched.len();
    mismatched[n - 5..n - 1].copy_from_slice(&1u32.to_le_bytes());
    wire::write_frame(&mut stream, &mismatched).unwrap();
    let payload = wire::read_frame(&mut stream).unwrap().unwrap();
    match wire::Response::decode(&payload).unwrap() {
        wire::Response::Error { code, .. } => assert_eq!(code, wire::codes::MALFORMED),
        other => panic!("expected error frame, got {other:?}"),
    }
    // Truncated body for a known kind.
    let mut garbled = wire::Request::PartialTermCounts {
        terms: TermPlan::for_distribution(&BitSubset::range(0, 4))
            .terms()
            .to_vec(),
        nonce: 0,
        profile: false,
    }
    .encode();
    garbled.truncate(garbled.len() - 2);
    wire::write_frame(&mut stream, &garbled).unwrap();
    let payload = wire::read_frame(&mut stream).unwrap().unwrap();
    match wire::Response::decode(&payload).unwrap() {
        wire::Response::Error { code, .. } => assert_eq!(code, wire::codes::MALFORMED),
        other => panic!("expected error frame, got {other:?}"),
    }
    // The same connection still answers a proper request afterwards.
    wire::write_frame(&mut stream, &wire::Request::Ping.encode()).unwrap();
    let payload = wire::read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(
        wire::Response::decode(&payload).unwrap(),
        wire::Response::Pong
    );
    // An over-limit length prefix is answered then the server hangs up.
    stream.write_all(&(u32::MAX).to_le_bytes()).unwrap();
    let payload = wire::read_frame(&mut stream).unwrap().unwrap();
    match wire::Response::decode(&payload).unwrap() {
        wire::Response::Error { code, .. } => assert_eq!(code, wire::codes::MALFORMED),
        other => panic!("expected error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn query_errors_are_frames_not_hangups() {
    let ann = announcement();
    let server = Server::start("127.0.0.1:0", ann, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    // Unknown subset: the pool has nothing for positions {5}.
    let unknown = conj_plan(&BitSubset::single(5), &BitString::from_bits(&[true]));
    match client.execute_plan(&unknown) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, psketch_server::wire::codes::QUERY);
        }
        other => panic!("expected server error, got {other:?}"),
    }
    // Empty pool: the subset is announced but holds no records yet.
    let empty = conj_plan(
        &BitSubset::range(0, 2),
        &BitString::from_bits(&[true, false]),
    );
    match client.execute_plan(&empty) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, psketch_server::wire::codes::QUERY);
        }
        other => panic!("expected server error, got {other:?}"),
    }
    // A 17-bit distribution's worth of terms: over the server cap.
    let term = ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true])).unwrap();
    match client.partial_term_counts(&vec![term; 1 << 17]) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, psketch_server::wire::codes::BAD_REQUEST);
        }
        other => panic!("expected server error, got {other:?}"),
    }
    // Connection still alive.
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_is_prompt_with_idle_connections() {
    let ann = announcement();
    let server = Server::start("127.0.0.1:0", ann, ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr, TIMEOUT).unwrap();
    client.ping().unwrap();
    let start = std::time::Instant::now();
    server.shutdown(); // must not hang on the idle connection
    assert!(start.elapsed() < Duration::from_secs(5));
    assert!(client.ping().is_err());
}

#[test]
fn shutdown_wakes_idle_sockets_and_answers_in_flight_requests() {
    // Idle connections parked in a read: shutdown wakes them at once
    // instead of at the workers' 200 ms poll tick.
    let ann = announcement();
    let server = Server::start("127.0.0.1:0", ann.clone(), ServerConfig::default()).unwrap();
    let mut idle: Vec<Client> = (0..3)
        .map(|_| Client::connect(server.local_addr(), TIMEOUT).unwrap())
        .collect();
    for client in &mut idle {
        client.ping().unwrap();
    }
    let start = std::time::Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    assert!(idle[0].ping().is_err());

    // A request the server is already handling still gets its answer.
    let server = Server::start("127.0.0.1:0", ann.clone(), ServerConfig::default()).unwrap();
    let subs = submissions(&ann, 0..3000, 8);
    let mut watcher = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    let mut submitter = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    let ack = std::thread::scope(|scope| {
        let ack = scope.spawn(move || submitter.submit_batch(&subs));
        // The batch frame is counted once decoded, before it is applied.
        while watcher.server_stats().unwrap().count_for(0x02) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown();
        ack.join().unwrap()
    });
    assert_eq!(ack.unwrap().accepted, 3000);
}

#[test]
fn hello_handshake_reports_shard_identity_and_partials_match_counts() {
    use psketch_protocol::ShardIdentity;
    let ann = announcement();
    let server = Server::start(
        "127.0.0.1:0",
        ann.clone(),
        ServerConfig {
            shard: Some(ShardIdentity {
                shard_id: 1,
                shard_count: 3,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let subs = submissions(&ann, 0..300, 42);
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    assert_eq!(
        client.hello(7).unwrap(),
        Some(ShardIdentity {
            shard_id: 1,
            shard_count: 3
        })
    );
    client.submit_batch(&subs).unwrap();

    // Partial term counts invert to exactly the served estimate.
    let subset = BitSubset::range(0, 2);
    let value = BitString::from_bits(&[true, false]);
    let term = psketch_core::ConjunctiveQuery::new(subset.clone(), value.clone()).unwrap();
    let counts = client.partial_term_counts(&[term]).unwrap();
    assert_eq!(counts.len(), 1);
    assert_eq!(counts[0].population, 300);
    let served = client.execute_plan(&conj_plan(&subset, &value)).unwrap();
    let inverted = psketch_core::Estimate::from_counts(counts[0].ones, counts[0].population, ann.p);
    assert_eq!(inverted.fraction.to_bits(), served[0].value.to_bits());

    // A distribution plan's term counts invert to the served
    // distribution (the generic frame covers what the retired
    // PartialDistribution frame did).
    let dist_plan = psketch_queries::TermPlan::for_distribution(&subset);
    let partial = client.partial_term_counts(dist_plan.terms()).unwrap();
    assert_eq!(partial.len(), 4);
    let served = client.execute_plan(&dist_plan).unwrap();
    for (c, s) in partial.iter().zip(&served) {
        assert_eq!(c.population, 300);
        let e = psketch_core::Estimate::from_counts(c.ones, c.population, ann.p);
        assert_eq!(e.fraction.to_bits(), s.value.to_bits());
    }

    // An unknown subset is an *empty share*, not an error, on the
    // partial path (a shard may simply hold none of those records).
    let unknown = BitSubset::new(vec![40, 41]).unwrap();
    let term =
        psketch_core::ConjunctiveQuery::new(unknown, BitString::from_bits(&[true, true])).unwrap();
    let counts = client.partial_term_counts(&[term]).unwrap();
    assert_eq!((counts[0].ones, counts[0].population), (0, 0));
    server.shutdown();
}

#[test]
fn standalone_server_reports_no_shard() {
    let ann = announcement();
    let server = Server::start("127.0.0.1:0", ann, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    assert_eq!(client.hello(0).unwrap(), None);
    server.shutdown();
}

#[test]
fn analyst_budget_is_enforced_with_a_dedicated_error_frame() {
    use psketch_server::wire::codes;
    let ann = announcement();
    // At p = 0.45 one estimate costs ε₁ = (11/9)⁴ − 1 ≈ 1.23 and two
    // compose to ε₂ = (11/9)⁸ − 1 ≈ 3.98, so a budget of 3.0 affords
    // exactly one conjunctive estimate per analyst.
    let server = Server::start(
        "127.0.0.1:0",
        ann.clone(),
        ServerConfig {
            analyst_budget: Some(3.0),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let subs = submissions(&ann, 0..100, 9);
    let mut ingest = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    ingest.submit_batch(&subs).unwrap();

    let subset = BitSubset::single(0);
    let value = BitString::from_bits(&[true]);

    // Analyst 1: first query fine, second refused with the BUDGET code.
    let mut analyst = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    analyst.hello(1).unwrap();
    let one_term = conj_plan(&subset, &value);
    analyst.execute_plan(&one_term).unwrap();
    match analyst.execute_plan(&one_term) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, codes::BUDGET);
            assert!(message.contains("analyst 1"), "{message}");
        }
        other => panic!("expected budget refusal, got {other:?}"),
    }
    // The refusal is not a transport failure: the connection stays warm
    // and budget-free requests still work.
    analyst.ping().unwrap();
    assert_eq!(analyst.stats().unwrap().accepted, 100);

    // The ledger follows the analyst identity, not the connection: a
    // fresh connection declaring the same analyst is still exhausted...
    let mut same = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    same.hello(1).unwrap();
    assert!(matches!(
        same.execute_plan(&one_term),
        Err(ClientError::Server { code, .. }) if code == codes::BUDGET
    ));
    // ...while a different analyst has their own fresh budget.
    let mut other = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    other.hello(2).unwrap();
    other.execute_plan(&one_term).unwrap();

    // A 2-bit distribution charges 4 estimates at once: refused for a
    // fresh analyst whose budget affords only one.
    let mut wide = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    wide.hello(3).unwrap();
    assert!(matches!(
        wide.execute_plan(&TermPlan::for_distribution(&BitSubset::range(0, 2))),
        Err(ClientError::Server { code, .. }) if code == codes::BUDGET
    ));

    // An oversized term batch is refused (BAD_REQUEST) *before* the
    // charge: the analyst's budget still affords a valid query.
    let mut careless = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    careless.hello(4).unwrap();
    let term = psketch_core::ConjunctiveQuery::new(subset.clone(), value.clone()).unwrap();
    let huge = vec![term.clone(); psketch_server::wire::MAX_PLAN_TERMS + 1];
    assert!(matches!(
        careless.partial_term_counts(&huge),
        Err(ClientError::Server { code, .. }) if code == codes::BAD_REQUEST
    ));
    careless.partial_term_counts(&[term]).unwrap();

    // A compound plan is charged its *term count*: a 2-term plan is
    // refused outright for a fresh analyst whose budget affords one.
    let mut compound = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    compound.hello(5).unwrap();
    let mut lq = psketch_queries::LinearQuery::new("two terms");
    lq.push(
        1.0,
        psketch_core::ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true]))
            .unwrap(),
    );
    lq.push(
        1.0,
        psketch_core::ConjunctiveQuery::new(BitSubset::single(1), BitString::from_bits(&[true]))
            .unwrap(),
    );
    assert!(matches!(
        compound.execute_plan(&psketch_queries::TermPlan::compile(&lq)),
        Err(ClientError::Server { code, .. }) if code == codes::BUDGET
    ));
    // The same two terms *deduplicated to one* (a repeated-term plan)
    // cost a single estimate and fit the budget.
    let mut dup = psketch_queries::LinearQuery::new("dup term");
    let q = psketch_core::ConjunctiveQuery::new(subset.clone(), value.clone()).unwrap();
    dup.push(1.0, q.clone());
    dup.push(2.0, q);
    compound
        .execute_plan(&psketch_queries::TermPlan::compile(&dup))
        .unwrap();
    server.shutdown();
}

#[test]
fn server_stats_count_frames_by_kind() {
    let ann = announcement();
    let server = Server::start("127.0.0.1:0", ann.clone(), ServerConfig::default()).unwrap();
    let subs = submissions(&ann, 0..50, 11);
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    client.hello(0).unwrap();
    client.submit_batch(&subs).unwrap();
    client.ping().unwrap();
    client.ping().unwrap();
    client
        .execute_plan(&conj_plan(
            &BitSubset::single(0),
            &BitString::from_bits(&[true]),
        ))
        .unwrap();
    let stats = client.server_stats().unwrap();
    // Kinds: hello 0x08 ×1, submit 0x02 ×1, ping 0x07 ×2, plan 0x05 ×1,
    // server-stats 0x0B ×1 (this very request).
    assert_eq!(stats.count_for(0x08), 1);
    assert_eq!(stats.count_for(0x02), 1);
    assert_eq!(stats.count_for(0x07), 2);
    assert_eq!(stats.count_for(0x05), 1);
    assert_eq!(stats.count_for(0x0B), 1);
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.total_requests(), 6);

    // A second snapshot sees a monotonically increasing counter and a
    // sane uptime.
    let again = client.server_stats().unwrap();
    assert_eq!(again.count_for(0x0B), 2);
    assert!(again.uptime_secs < 3600);
    server.shutdown();
}

#[test]
fn invalid_budget_and_shard_configs_are_rejected() {
    use psketch_protocol::ShardIdentity;
    let ann = announcement();
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(Server::start(
            "127.0.0.1:0",
            ann.clone(),
            ServerConfig {
                analyst_budget: Some(bad),
                ..ServerConfig::default()
            },
        )
        .is_err());
    }
    assert!(Server::start(
        "127.0.0.1:0",
        ann,
        ServerConfig {
            shard: Some(ShardIdentity {
                shard_id: 3,
                shard_count: 3
            }),
            ..ServerConfig::default()
        },
    )
    .is_err());
}

/// A `Client` must be sendable so connection pools, and a router
/// moved to another thread, can own clients.
#[test]
fn client_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Client>();
}

#[test]
fn send_and_receive_pair_one_request_with_one_reply() {
    use psketch_server::wire::codes;
    use psketch_server::{Request, Response};
    // A budget too small for one estimate at p = 0.45: every charged
    // query is refused with an error frame.
    let config = ServerConfig {
        analyst_budget: Some(1.0),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", announcement(), config).unwrap();
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    // Out of turn either way: nothing to receive yet, then a second send
    // before the first reply is read.
    assert!(matches!(client.receive(), Err(ClientError::Protocol(_))));
    client.send(&Request::Ping).unwrap();
    assert!(matches!(
        client.send(&Request::Ping),
        Err(ClientError::Protocol(_))
    ));
    assert!(matches!(client.receive(), Ok(Response::Pong)));
    // A server error frame completes the exchange: the connection stays
    // usable.
    let term = ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true])).unwrap();
    client
        .send(&Request::PartialTermCounts {
            terms: vec![term],
            nonce: next_nonce(),
            profile: false,
        })
        .unwrap();
    match client.receive() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::BUDGET),
        other => panic!("expected a budget refusal, got {other:?}"),
    }
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn killed_socket_mid_response_charges_the_ledger_exactly_once() {
    use psketch_server::wire;
    let ann = announcement();
    // Generous budget: the point here is counting charges, not refusals.
    let server = Server::start(
        "127.0.0.1:0",
        ann.clone(),
        ServerConfig {
            analyst_budget: Some(1e6),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let subs = submissions(&ann, 0..200, 31);
    let mut ingest = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    ingest.submit_batch(&subs).unwrap();

    let subset = BitSubset::single(0);
    let value = BitString::from_bits(&[true]);
    let nonce = next_nonce();

    // --- The injected transport kill. ---
    // Raw connection: handshake, send the nonce'd query, then kill the
    // socket *without reading the response*. The server receives the
    // frame, charges the analyst's ε-ledger, evaluates, and its answer
    // dies on the closed socket — exactly the failure mode that made
    // router retries double-charge before wire v4.
    {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        wire::write_frame(&mut raw, &wire::Request::Hello { analyst: 7 }.encode()).unwrap();
        let hello = wire::read_frame(&mut raw).unwrap().unwrap();
        assert!(matches!(
            wire::Response::decode(&hello).unwrap(),
            wire::Response::Hello { .. }
        ));
        let req = wire::Request::PartialTermCounts {
            terms: vec![ConjunctiveQuery::new(subset.clone(), value.clone()).unwrap()],
            nonce,
            profile: false,
        };
        wire::write_frame(&mut raw, &req.encode()).unwrap();
        // Drop without reading: the socket dies mid-response.
    }

    // The retry must come after the killed frame's charge: a retry
    // charged first would leave that frame `Pending`, and its
    // RETRY_PENDING reply would die on the closed socket unseen. The
    // frame counter moves before the charge, so wait for the charge.
    let charged = {
        let mut observed = ingest.server_stats().unwrap();
        for _ in 0..500 {
            if observed.budget.charged_terms >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            observed = ingest.server_stats().unwrap();
        }
        observed
    };
    assert_eq!(
        charged.budget.charged_terms, 1,
        "the killed frame was never charged: {charged:?}"
    );

    // --- The retry, same nonce, fresh connection. ---
    // A RETRY_PENDING answer means the killed socket's frame is still
    // being evaluated; the cached answer is ready shortly after.
    let mut retry = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    retry.hello(7).unwrap();
    let answer = loop {
        match conjunctive(&mut retry, nonce, &subset, &value) {
            Err(ClientError::Server { code, .. })
                if code == psketch_server::wire::codes::RETRY_PENDING =>
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => break other.unwrap(),
        }
    };

    // The retry's answer matches the in-process oracle.
    let oracle = oracle(&ann, &subs);
    let estimator = ConjunctiveEstimator::new(ann.validate().unwrap());
    let q = psketch_core::ConjunctiveQuery::new(subset.clone(), value.clone()).unwrap();
    let local = estimator.estimate(oracle.pool(), &q).unwrap();
    assert_eq!(answer.fraction.to_bits(), local.fraction.to_bits());

    // Wait until the server has processed *both* count frames (the
    // killed socket's frame was already in flight and races the retry),
    // then the ledger must have advanced exactly once.
    let stats = {
        let mut observed = retry.server_stats().unwrap();
        for _ in 0..100 {
            if observed.count_for(0x09) >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            observed = retry.server_stats().unwrap();
        }
        observed
    };
    assert!(
        stats.count_for(0x09) >= 2,
        "server never saw both count frames: {stats:?}"
    );
    assert_eq!(
        stats.budget.charged_terms, 1,
        "the retry double-charged the ledger: {stats:?}"
    );
    assert_eq!(stats.budget.replays, 1, "{stats:?}");
    assert_eq!(stats.budget.denials, 0, "{stats:?}");

    // A *different* logical query (fresh nonce) is a real charge, not a
    // replay — dedup must not overreach.
    conjunctive(&mut retry, next_nonce(), &subset, &value).unwrap();
    let stats = retry.server_stats().unwrap();
    assert_eq!(stats.budget.charged_terms, 2, "{stats:?}");
    assert_eq!(stats.budget.replays, 1, "{stats:?}");
    server.shutdown();
}

#[test]
fn plan_replays_with_the_same_nonce_charge_once() {
    let ann = announcement();
    let server = Server::start(
        "127.0.0.1:0",
        ann.clone(),
        ServerConfig {
            analyst_budget: Some(1e6),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let subs = submissions(&ann, 0..50, 17);
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    client.hello(9).unwrap();
    client.submit_batch(&subs).unwrap();

    let mut lq = psketch_queries::LinearQuery::new("two terms");
    lq.push(
        1.0,
        psketch_core::ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true]))
            .unwrap(),
    );
    lq.push(
        -1.0,
        psketch_core::ConjunctiveQuery::new(BitSubset::single(1), BitString::from_bits(&[true]))
            .unwrap(),
    );
    let plan = psketch_queries::TermPlan::compile(&lq);
    let nonce = next_nonce();

    // Three replays of one logical plan (as a router retrying two
    // flapping shards would send): one charge of the plan's term count.
    let first = client.execute_plan_nonced(nonce, &plan).unwrap();
    let second = client.execute_plan_nonced(nonce, &plan).unwrap();
    let third = client.execute_plan_nonced(nonce, &plan).unwrap();
    assert_eq!(first[0].value.to_bits(), second[0].value.to_bits());
    assert_eq!(first[0].value.to_bits(), third[0].value.to_bits());
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.budget.charged_terms, 2, "{stats:?}"); // 2-term plan
    assert_eq!(stats.budget.replays, 2, "{stats:?}");

    // The partial-counts scatter frame dedupes identically.
    let nonce = next_nonce();
    let terms = plan.terms().to_vec();
    client.partial_term_counts_nonced(nonce, &terms).unwrap();
    client.partial_term_counts_nonced(nonce, &terms).unwrap();
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.budget.charged_terms, 4, "{stats:?}");
    assert_eq!(stats.budget.replays, 3, "{stats:?}");

    // Dedup is bound to the request *body*, not the nonce alone: a
    // reused nonce carrying a different query is a fresh charge (a new
    // query must never ride an old charge — the ledger would
    // under-count), and only the latest body then replays free.
    let nonce = next_nonce();
    let q0 = (BitSubset::single(0), BitString::from_bits(&[true]));
    let q1 = (BitSubset::single(1), BitString::from_bits(&[true]));
    conjunctive(&mut client, nonce, &q0.0, &q0.1).unwrap();
    conjunctive(&mut client, nonce, &q1.0, &q1.1).unwrap();
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.budget.charged_terms, 6, "{stats:?}");
    assert_eq!(stats.budget.replays, 3, "{stats:?}");
    conjunctive(&mut client, nonce, &q1.0, &q1.1).unwrap();
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.budget.charged_terms, 6, "{stats:?}");
    assert_eq!(stats.budget.replays, 4, "{stats:?}");
    server.shutdown();
}

#[test]
fn replays_serve_the_cached_response_not_a_recomputation() {
    // One charge buys exactly one release: a replay after the pool has
    // grown must return the *original* answer verbatim, not a fresh
    // evaluation over the larger pool (that would be a second release
    // for one Corollary 3.4 charge).
    let ann = announcement();
    let server = Server::start(
        "127.0.0.1:0",
        ann.clone(),
        ServerConfig {
            analyst_budget: Some(1e6),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
    client.hello(11).unwrap();
    client.submit_batch(&submissions(&ann, 0..100, 41)).unwrap();

    let subset = BitSubset::single(0);
    let value = BitString::from_bits(&[true]);
    let nonce = next_nonce();
    let first = conjunctive(&mut client, nonce, &subset, &value).unwrap();
    assert_eq!(first.sample_size, 100);

    // Grow the pool, then replay: same answer bytes, original n.
    client
        .submit_batch(&submissions(&ann, 100..150, 43))
        .unwrap();
    let replay = conjunctive(&mut client, nonce, &subset, &value).unwrap();
    assert_eq!(replay.sample_size, 100, "replay re-evaluated the pool");
    assert_eq!(replay.fraction.to_bits(), first.fraction.to_bits());
    assert_eq!(replay.raw.to_bits(), first.raw.to_bits());

    // A fresh nonce sees the grown pool and is a fresh charge.
    let fresh = conjunctive(&mut client, next_nonce(), &subset, &value).unwrap();
    assert_eq!(fresh.sample_size, 150);
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.budget.charged_terms, 2, "{stats:?}");
    assert_eq!(stats.budget.replays, 1, "{stats:?}");
    server.shutdown();
}

/// Ten bits: wider than any subset that gets a count table, so its
/// terms are always answered by a scan.
const WIDE_BITS: u32 = 10;

/// Narrow subsets (count-table answers) beside one wide subset (scan
/// answers), with 10-bit profiles to cover it.
fn tabled_announcement() -> Announcement {
    AnnouncementBuilder::new(79, 0.45, 10_000, 1e-6)
        .global_key(*GlobalKey::from_seed(6).as_bytes())
        .subset(BitSubset::range(0, 2))
        .subset(BitSubset::single(2))
        .subset(BitSubset::range(0, WIDE_BITS))
        .build()
        .unwrap()
}

fn wide_submissions(ann: &Announcement, ids: std::ops::Range<u64>, seed: u64) -> Vec<Submission> {
    let mut rng = Prg::seed_from_u64(seed);
    ids.map(|i| {
        let bits: Vec<bool> = (0..WIDE_BITS).map(|b| (i * 7 + 3) >> b & 1 == 1).collect();
        let mut agent = UserAgent::new(UserId(i), Profile::from_bits(&bits), 0.45, 1e6);
        agent.participate(ann, &mut rng).unwrap()
    })
    .collect()
}

/// Every value of each narrow subset and three of the wide one, counted
/// over the wire and inverted, must equal the scalar oracle
/// (`estimate_scalar` over the same submissions) bit for bit.
fn assert_served_counts_match_scalar(client: &mut Client, ann: &Announcement, subs: &[Submission]) {
    let wide = BitSubset::range(0, WIDE_BITS);
    let mut terms: Vec<ConjunctiveQuery> = Vec::new();
    for subset in [BitSubset::range(0, 2), BitSubset::single(2)] {
        terms.extend(TermPlan::for_distribution(&subset).terms().iter().cloned());
    }
    for v in [0, 77, (1 << WIDE_BITS) - 1] {
        let value = BitString::from_u64(v, WIDE_BITS as usize);
        terms.push(ConjunctiveQuery::new(wide.clone(), value).unwrap());
    }
    let counts = client.partial_term_counts(&terms).unwrap();
    let oracle = oracle(ann, subs);
    let estimator = ConjunctiveEstimator::new(ann.validate().unwrap());
    for (term, counts) in terms.iter().zip(&counts) {
        assert_eq!(counts.population, subs.len() as u64, "{term:?}");
        if subs.is_empty() {
            continue;
        }
        let served = Estimate::from_counts(counts.ones, counts.population, estimator.params().p());
        let scalar = estimator.estimate_scalar(oracle.pool(), term).unwrap();
        assert_eq!(
            served.fraction.to_bits(),
            scalar.fraction.to_bits(),
            "{term:?}"
        );
        assert_eq!(served.raw.to_bits(), scalar.raw.to_bits(), "{term:?}");
        assert_eq!(served.sample_size, scalar.sample_size, "{term:?}");
    }
}

proptest::proptest! {
    /// Count tables stay exact through any interleaving of appends,
    /// queries, WAL compactions and restarts (from the log alone or
    /// from a compaction snapshot plus the log).
    #[test]
    fn count_tables_survive_appends_compaction_and_restarts(
        ops in proptest::collection::vec((0u8..4, 1u64..40), 3..9),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let dir = temp_dir("tables");
        let ann = tabled_announcement();
        // Op 2 restarts compacting after every append, op 3 restarts
        // with a threshold no test log reaches.
        let config = |compact_threshold_bytes: u64| ServerConfig {
            workers: 2,
            wal: Some(WalConfig { dir: dir.clone(), compact_threshold_bytes }),
            ..ServerConfig::default()
        };
        let mut server = Server::start("127.0.0.1:0", ann.clone(), config(64 << 20)).unwrap();
        let mut client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
        let mut subs: Vec<Submission> = Vec::new();
        for (op, n) in ops {
            match op {
                0 => {
                    let next = subs.len() as u64;
                    let batch = wide_submissions(&ann, next..next + n, seed ^ next);
                    assert_eq!(client.submit_batch(&batch).unwrap().accepted, n);
                    subs.extend(batch);
                }
                1 => assert_served_counts_match_scalar(&mut client, &ann, &subs),
                _ => {
                    server.shutdown();
                    let threshold = if op == 2 { 1 } else { 64 << 20 };
                    server = Server::start("127.0.0.1:0", ann.clone(), config(threshold)).unwrap();
                    client = Client::connect(server.local_addr(), TIMEOUT).unwrap();
                }
            }
        }
        assert_served_counts_match_scalar(&mut client, &ann, &subs);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

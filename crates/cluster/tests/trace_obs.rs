//! End-to-end trace correlation over loopback TCP: the query nonce a
//! client (or the router) puts on the wire must come out of the
//! *server-side* structured log, so one grep over every node's stderr
//! reconstructs a cluster query's full path.
//!
//! Servers here run in-process, so [`psketch_obs::log::Capture`] sees
//! their worker threads' records directly. The capture buffer is
//! process-global — everything lives in one `#[test]` so parallel test
//! threads cannot swap buffers mid-assertion.

use psketch_cluster::{Router, RouterConfig, ShardMap};
use psketch_core::{BitString, BitSubset, ConjunctiveQuery, Profile, UserId};
use psketch_obs::trace_hex;
use psketch_prf::{GlobalKey, Prg};
use psketch_protocol::{Announcement, AnnouncementBuilder, ShardIdentity, Submission, UserAgent};
use psketch_queries::TermPlan;
use psketch_server::{Client, Request, Server, ServerConfig};
use rand::SeedableRng;
use std::time::Duration;

fn announcement() -> Announcement {
    AnnouncementBuilder::new(777, 0.45, 10_000, 1e-6)
        .global_key(*GlobalKey::from_seed(5).as_bytes())
        .subset(BitSubset::range(0, 2))
        .subset(BitSubset::single(0))
        .build()
        .unwrap()
}

fn submissions(ann: &Announcement, ids: &[u64]) -> Vec<Submission> {
    let mut rng = Prg::seed_from_u64(99);
    ids.iter()
        .map(|&i| {
            let profile = Profile::from_bits(&[i % 3 == 0, i % 2 == 0]);
            let mut agent = UserAgent::new(UserId(i), profile, ann.p, 1e9);
            agent.participate(ann, &mut rng).unwrap()
        })
        .collect()
}

#[test]
fn query_nonce_surfaces_in_server_side_logs() {
    let ann = announcement();
    // --slow-query-ms 0: every request is "slow", so each query logs a
    // WARN record that passes the default (info) filter — no env vars.
    let servers: Vec<Server> = (0..2)
        .map(|shard_id| {
            Server::start(
                "127.0.0.1:0",
                ann.clone(),
                ServerConfig {
                    workers: 2,
                    shard: Some(ShardIdentity {
                        shard_id,
                        shard_count: 2,
                    }),
                    slow_query_ms: Some(0),
                    ..ServerConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let map = ShardMap::new(1, servers.iter().map(|s| s.local_addr().to_string())).unwrap();
    let mut router = Router::new(
        map,
        RouterConfig {
            timeout: Duration::from_secs(10),
            retries: 1,
            backoff: Duration::from_millis(10),
            slow_query_ms: Some(0),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    router
        .submit_batch(&submissions(&ann, &(0..40).collect::<Vec<_>>()))
        .unwrap();

    let capture = psketch_obs::log::Capture::install();

    // Part 1: a *known* nonce sent by a direct client must appear
    // verbatim in the shard's slow-query record.
    let nonce = 0x00C0_FFEE_u64;
    let terms =
        vec![ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true])).unwrap()];
    let mut client = Client::connect(servers[0].local_addr(), Duration::from_secs(10)).unwrap();
    client
        .send(&Request::PartialTermCounts {
            terms,
            nonce,
            profile: false,
        })
        .unwrap();
    client.receive().unwrap();
    let needle = format!("trace={}", trace_hex(nonce));
    let lines = capture.lines();
    let server_line = lines
        .iter()
        .find(|l| l.contains("psketch::server::slow_query") && l.contains(&needle));
    assert!(
        server_line.is_some(),
        "known nonce {needle} missing from server-side capture:\n{}",
        lines.join("\n")
    );

    // Part 2: a routed scatter-gather query is traceable end to end —
    // the router's own record and every shard's record carry the same
    // nonce, without the test ever learning it out of band.
    let plan = TermPlan::for_conjunctive(
        ConjunctiveQuery::new(BitSubset::range(0, 2), BitString::from_u64(2, 2)).unwrap(),
    );
    router.execute_plan(&plan).unwrap();
    let lines = capture.lines();
    let router_line = lines
        .iter()
        .find(|l| l.contains("psketch::router::query"))
        .expect("router emitted no query record");
    let trace_token = router_line
        .split_whitespace()
        .find(|tok| tok.starts_with("trace=0x"))
        .expect("router record carries no trace id");
    let matching_shards = lines
        .iter()
        .filter(|l| l.contains("psketch::server::slow_query") && l.contains(trace_token))
        .count();
    assert_eq!(
        matching_shards,
        2,
        "router trace {trace_token} should appear in both shards' logs:\n{}",
        lines.join("\n")
    );
}

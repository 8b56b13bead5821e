//! Cluster end-to-end tests over loopback TCP: bit-identical
//! scatter-gather answers, degraded-mode behavior when a node dies, and
//! recovery when it comes back.

use proptest::prelude::*;
use psketch_cluster::{parallel_ingest, ClusterError, Router, RouterConfig, ShardMap};
use psketch_core::{
    BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, Profile, SketchDb, UserId,
};
use psketch_prf::{GlobalKey, Prg};
use psketch_protocol::{
    Announcement, AnnouncementBuilder, Coordinator, ShardIdentity, Submission, UserAgent,
};
use psketch_queries::{LinearAnswer, QueryEngine, TermPlan};
use psketch_server::{wire, Request, Response, Server, ServerConfig};
use rand::SeedableRng;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// Ten bits: wider than any subset that gets a count table, so terms on
/// the wide subset are answered by a scan wherever they run.
const WIDE_BITS: u32 = 10;

/// The wide subset of [`announcement`].
fn wide() -> BitSubset {
    BitSubset::range(0, WIDE_BITS)
}

/// A conjunction on the wide subset, for the family sweeps.
fn wide_clause() -> ConjunctiveQuery {
    ConjunctiveQuery::new(wide(), BitString::from_u64(0x2A5, WIDE_BITS as usize)).unwrap()
}

/// The family sweeps' profiles: the two 2-bit fields at bits 0–3, then
/// bits filling out the wide subset.
fn family_profile(i: u64) -> Profile {
    let mut bits = vec![
        i.is_multiple_of(3),
        i.is_multiple_of(2),
        i % 5 < 2,
        i % 7 < 3,
    ];
    bits.extend((4..WIDE_BITS).map(|b| i.rotate_right(b) & 1 == 1));
    Profile::from_bits(&bits)
}

fn announcement(seed: u64) -> Announcement {
    AnnouncementBuilder::new(4242, 0.45, 10_000, 1e-6)
        .global_key(*GlobalKey::from_seed(seed).as_bytes())
        .subset(BitSubset::range(0, 2))
        .subset(BitSubset::single(0))
        .subset(BitSubset::single(1))
        .subset(wide())
        .build()
        .unwrap()
}

fn submissions(ann: &Announcement, ids: &[u64], seed: u64) -> Vec<Submission> {
    let mut rng = Prg::seed_from_u64(seed);
    ids.iter()
        .map(|&i| {
            // Bits 0 and 1 feed the narrow subsets; the rest fill out
            // the wide one.
            let mut bits = vec![i % 3 == 0, i % 2 == 0];
            bits.extend((2..WIDE_BITS).map(|b| i.rotate_right(b) & 1 == 1));
            let profile = Profile::from_bits(&bits);
            let mut agent = UserAgent::new(UserId(i), profile, ann.p, 1e9);
            agent.participate(ann, &mut rng).unwrap()
        })
        .collect()
}

/// Starts one server per shard and returns (servers, map).
fn start_cluster(ann: &Announcement, shards: u32) -> (Vec<Server>, ShardMap) {
    let servers: Vec<Server> = (0..shards)
        .map(|shard_id| {
            Server::start(
                "127.0.0.1:0",
                ann.clone(),
                ServerConfig {
                    workers: 2,
                    shard: Some(ShardIdentity {
                        shard_id,
                        shard_count: shards,
                    }),
                    ..ServerConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let map = ShardMap::new(1, servers.iter().map(|s| s.local_addr().to_string())).unwrap();
    (servers, map)
}

/// The single-term plan of one conjunction.
fn conj_plan(subset: BitSubset, value: BitString) -> TermPlan {
    TermPlan::for_conjunctive(ConjunctiveQuery::new(subset, value).unwrap())
}

/// The independent reference for plan answers: one
/// [`ConjunctiveEstimator::estimate`] scan per term reference, each
/// output combined in its `combination()` order. `queries_used` and
/// `min_sample_size` come from the distinct terms an output references.
fn per_term_oracle(
    estimator: &ConjunctiveEstimator,
    pool: &SketchDb,
    plan: &TermPlan,
) -> Vec<LinearAnswer> {
    plan.outputs()
        .iter()
        .map(|output| {
            let mut value = output.constant;
            let mut distinct: Vec<&ConjunctiveQuery> = Vec::new();
            let mut min_sample = usize::MAX;
            for &(coeff, slot) in output.combination() {
                let query = &plan.terms()[slot];
                let e = estimator.estimate(pool, query).unwrap();
                value += coeff * e.fraction;
                if !distinct.contains(&query) {
                    distinct.push(query);
                }
                min_sample = min_sample.min(e.sample_size);
            }
            LinearAnswer {
                value,
                queries_used: distinct.len(),
                min_sample_size: if distinct.is_empty() { 0 } else { min_sample },
            }
        })
        .collect()
}

fn fast_router(map: ShardMap) -> Router {
    Router::new(
        map,
        RouterConfig {
            timeout: TIMEOUT,
            retries: 1,
            backoff: Duration::from_millis(10),
            ..RouterConfig::default()
        },
    )
    .unwrap()
}

/// The core acceptance property: a cluster over any shard count answers
/// conjunctive, distribution and linear queries bit-identically to one
/// node (the oracle) ingesting the same records.
fn assert_cluster_matches_oracle(user_ids: &[u64], shards: u32, seed: u64) {
    let ann = announcement(seed);
    let subs = submissions(&ann, user_ids, seed ^ 0x5EED);

    // Single-node oracle.
    let oracle = Coordinator::new(ann.clone());
    oracle.accept_batch(&subs);
    let params = ann.validate().unwrap();
    let estimator = ConjunctiveEstimator::new(params);

    // Cluster over the same records.
    let (servers, map) = start_cluster(&ann, shards);
    let mut router = fast_router(map);
    let report = router.submit_batch(&subs).unwrap();
    assert!(report.fully_ingested());
    assert_eq!(report.accepted, subs.len() as u64);
    assert_eq!(report.rejected, 0);

    // Conjunctive: every value of the pair subset.
    let pair = BitSubset::range(0, 2);
    for value in 0..4u64 {
        let value = BitString::from_u64(value, 2);
        let clustered = router
            .execute_plan(&conj_plan(pair.clone(), value.clone()))
            .unwrap();
        assert!(clustered.coverage.is_complete());
        let q = ConjunctiveQuery::new(pair.clone(), value).unwrap();
        let local = estimator.estimate(oracle.pool(), &q).unwrap();
        assert_eq!(
            clustered.term_estimates[0].fraction.to_bits(),
            local.fraction.to_bits(),
            "conjunctive diverged at {shards} shards"
        );
        assert_eq!(
            clustered.term_estimates[0].raw.to_bits(),
            local.raw.to_bits()
        );
        assert_eq!(clustered.term_estimates[0].sample_size, local.sample_size);
    }

    // Conjunctive on the wide subset: scanned on every shard and on the
    // oracle.
    for value in [0u64, 0x2A5, (1 << WIDE_BITS) - 1] {
        let value = BitString::from_u64(value, WIDE_BITS as usize);
        let clustered = router
            .execute_plan(&conj_plan(wide(), value.clone()))
            .unwrap();
        let q = ConjunctiveQuery::new(wide(), value).unwrap();
        let local = estimator.estimate(oracle.pool(), &q).unwrap();
        assert_eq!(
            clustered.term_estimates[0].fraction.to_bits(),
            local.fraction.to_bits(),
            "wide conjunctive diverged at {shards} shards"
        );
        assert_eq!(clustered.term_estimates[0].sample_size, local.sample_size);
    }

    // Distribution over the pair subset.
    let clustered = router
        .execute_plan(&TermPlan::for_distribution(&pair))
        .unwrap();
    let local = estimator
        .estimate_distribution(oracle.pool(), &pair)
        .unwrap();
    assert_eq!(clustered.term_estimates.len(), local.len());
    for (c, l) in clustered.term_estimates.iter().zip(&local) {
        assert_eq!(
            c.fraction.to_bits(),
            l.fraction.to_bits(),
            "distribution diverged at {shards} shards"
        );
    }

    // Linear with a duplicate term and a constant. Non-dyadic
    // coefficients: a reordered float sum changes the bits.
    let q0 = ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true])).unwrap();
    let q1 = ConjunctiveQuery::new(BitSubset::single(1), BitString::from_bits(&[true])).unwrap();
    let mut plan = TermPlan::new("cluster test");
    plan.begin_output("cluster test", 0.1)
        .push_term(1.7, q0.clone())
        .push_term(-0.3, q1)
        .push_term(0.7, q0);
    let clustered = router.execute_plan(&plan).unwrap();
    let local = per_term_oracle(&estimator, oracle.pool(), &plan).remove(0);
    assert_eq!(
        clustered.outputs[0].value.to_bits(),
        local.value.to_bits(),
        "linear diverged at {shards} shards"
    );
    assert_eq!(clustered.outputs[0].queries_used, local.queries_used);
    assert_eq!(clustered.outputs[0].min_sample_size, local.min_sample_size);

    // Merged status equals the oracle's counters.
    let status = router.status().unwrap();
    assert_eq!(status.merged, oracle.stats());

    for server in servers {
        server.shutdown();
    }
}

proptest! {
    /// Random user-id sets (sparse, duplicate-free, arbitrary ranges)
    /// over random shard counts: the cluster answer is always
    /// bit-identical to the single-node oracle.
    #[test]
    fn cluster_answers_bit_identical_to_oracle(
        user_ids in proptest::collection::vec(any::<u64>(), 30..80),
        shard_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut user_ids = user_ids;
        user_ids.sort_unstable();
        user_ids.dedup();
        let shards = (shard_pick % 4 + 1) as u32;
        assert_cluster_matches_oracle(&user_ids, shards, seed);
    }

    /// Every query family, plan-compiled, answers bit-identically to
    /// the pre-refactor direct path over random populations and shard
    /// counts.
    #[test]
    fn plan_families_bit_identical_to_direct_paths(
        m in 60u64..160,
        shard_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let shards = (shard_pick % 4 + 1) as u32;
        assert_families_match_direct_paths(m, shards, seed);
    }
}

/// Compiles one plan per query family over two 2-bit fields
/// (`a` at bits 0–1, `b` at bits 2–3), executes each three ways —
/// the per-term `estimate` oracle, the local plan path and the
/// clustered plan path — and asserts float-bit identity throughout.
#[allow(clippy::too_many_lines)]
fn assert_families_match_direct_paths(m: u64, shards: u32, seed: u64) {
    use psketch_core::IntField;
    use psketch_queries as q;

    let a = IntField::new(0, 2);
    let b = IntField::new(2, 2);
    let attr = q::CategoricalAttribute::new(a, 3);

    // One plan per family (descriptive label and plan).
    let clause0 =
        psketch_core::ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true]))
            .unwrap();
    let clause1 = psketch_core::ConjunctiveQuery::new(
        BitSubset::new(vec![1, 2]).unwrap(),
        BitString::from_bits(&[true, false]),
    )
    .unwrap();
    let tree = psketch_queries::DecisionTree::split(
        0,
        psketch_queries::DecisionTree::split(
            2,
            psketch_queries::DecisionTree::Leaf(true),
            psketch_queries::DecisionTree::Leaf(false),
        ),
        psketch_queries::DecisionTree::split(
            1,
            psketch_queries::DecisionTree::Leaf(false),
            psketch_queries::DecisionTree::Leaf(true),
        ),
    );
    let mut custom = q::TermPlan::new("linear family");
    custom
        .begin_output("linear family", -0.25)
        .push_term(1.5, clause0.clone())
        .push_term(0.5, clause0.clone())
        .push_term(-2.0, clause1.clone());
    let bits_columns = vec![
        (BitSubset::single(0), BitString::from_bits(&[true])),
        (BitSubset::single(3), BitString::from_bits(&[false])),
    ];

    let families: Vec<(&str, q::TermPlan)> = vec![
        ("conjunction", q::TermPlan::for_conjunctive(clause1.clone())),
        ("linear", custom),
        ("dnf", q::dnf_plan(&[clause0, clause1]).unwrap()),
        ("interval", q::range_plan(&a, 1, 2)),
        ("mean", q::mean_plan(&a)),
        ("moment", q::moment_plan(&a, 2)),
        ("product", q::inner_product_plan(&a, &b)),
        ("combined", q::eq_and_less_than_plan(&a, 2, &b, 3)),
        ("tree", tree.to_plan()),
        ("sumlt", q::sum_lt_plan(&a, &b, 2)),
        // Wider than any count table: scanned on every path.
        (
            "wide conjunction",
            q::TermPlan::for_conjunctive(wide_clause()),
        ),
        ("categorical", q::histogram_plan(&attr)),
        (
            "bits",
            q::perturbed_conjunction_plan(&bits_columns).unwrap(),
        ),
        // Multi-output families: variance and the conditional mean
        // share terms across outputs.
        ("variance", q::variance_plan(&a)),
        ("conditional-mean", q::conditional_mean_plan(&a, 2, &b)),
    ];

    // The announcement sketches exactly what the plans need.
    let mut subsets: Vec<BitSubset> = families
        .iter()
        .flat_map(|(_, plan)| plan.required_subsets())
        .collect();
    subsets.sort();
    subsets.dedup();
    let mut builder = psketch_protocol::AnnouncementBuilder::new(777, 0.45, 10_000, 1e-6)
        .global_key(*GlobalKey::from_seed(seed).as_bytes());
    for subset in subsets {
        builder = builder.subset(subset);
    }
    let ann = builder.build().unwrap();

    let ids: Vec<u64> = (0..m).map(|i| i.wrapping_mul(0x9E37) ^ seed).collect();
    let mut ids = ids;
    ids.sort_unstable();
    ids.dedup();
    // Profiles covering both fields (the shared helper's profiles set
    // only bits 0 and 1 of the narrow subsets).
    let mut rng = Prg::seed_from_u64(seed ^ 0xFA91);
    let subs: Vec<Submission> = ids
        .iter()
        .map(|&i| {
            let profile = family_profile(i);
            let mut agent = UserAgent::new(UserId(i), profile, ann.p, 1e12);
            agent.participate(&ann, &mut rng).unwrap()
        })
        .collect();

    // Single-node oracle.
    let oracle = Coordinator::new(ann.clone());
    oracle.accept_batch(&subs);
    let params = ann.validate().unwrap();
    let estimator = ConjunctiveEstimator::new(params);
    let engine = QueryEngine::new(params);

    // Cluster over the same records.
    let (servers, map) = start_cluster(&ann, shards);
    let mut router = fast_router(map);
    let report = router.submit_batch(&subs).unwrap();
    assert!(report.fully_ingested());

    for (family, plan) in &families {
        // Local plan path vs the per-term oracle, output by output.
        let local = engine.execute_plan(oracle.pool(), plan).unwrap();
        let legacy = per_term_oracle(&estimator, oracle.pool(), plan);
        assert_eq!(local.len(), legacy.len(), "{family}");
        for (l, o) in local.iter().zip(&legacy) {
            assert_eq!(
                l.value.to_bits(),
                o.value.to_bits(),
                "{family}: plan diverged from the per-term oracle"
            );
            assert_eq!(l.queries_used, o.queries_used, "{family}");
            assert_eq!(l.min_sample_size, o.min_sample_size, "{family}");
        }
        // Clustered plan path vs local plan path, output by output.
        let clustered = router.execute_plan(plan).unwrap();
        assert!(clustered.coverage.is_complete());
        assert_eq!(clustered.outputs.len(), local.len(), "{family}");
        for (c, l) in clustered.outputs.iter().zip(&local) {
            assert_eq!(
                c.value.to_bits(),
                l.value.to_bits(),
                "{family}: cluster diverged from local at {shards} shards"
            );
            assert_eq!(c.queries_used, l.queries_used, "{family}");
            assert_eq!(c.min_sample_size, l.min_sample_size, "{family}");
        }
    }

    // The histogram has one output per level: check each against a
    // per-level estimate.
    let plan = q::histogram_plan(&attr);
    let clustered = router.execute_plan(&plan).unwrap();
    let hist = q::Histogram::from_answers(&clustered.outputs);
    for (level, clustered) in (0..attr.levels()).zip(&hist.frequencies) {
        let query = ConjunctiveQuery::new(a.subset(), a.full_value(level)).unwrap();
        let direct = estimator.estimate(oracle.pool(), &query).unwrap();
        assert_eq!(
            clustered.to_bits(),
            direct.fraction.to_bits(),
            "histogram level {level} diverged"
        );
    }

    // The conditional-mean plan matches the per-term ratio, and so does
    // the engine's ratio.
    let cm_plan = q::conditional_mean_plan(&a, 2, &b);
    let [num_o, den_o] = &per_term_oracle(&estimator, oracle.pool(), &cm_plan)[..] else {
        panic!("the conditional mean plan has two outputs");
    };
    let direct_ratio = (den_o.value > 0.0).then_some(num_o.value / den_o.value);
    let engine_ratio = engine.ratio(oracle.pool(), &cm_plan).unwrap();
    assert_eq!(
        engine_ratio.map(f64::to_bits),
        direct_ratio.map(f64::to_bits),
        "engine ratio diverged"
    );
    let cm = router.execute_plan(&cm_plan).unwrap();
    let plan_ratio = if cm.outputs[1].value <= 0.0 {
        None
    } else {
        Some(cm.outputs[0].value / cm.outputs[1].value)
    };
    match (direct_ratio, plan_ratio) {
        (None, None) => {}
        (Some(d), Some(p)) => assert_eq!(d.to_bits(), p.to_bits(), "conditional mean diverged"),
        other => panic!("ratio availability diverged: {other:?}"),
    }

    for server in servers {
        server.shutdown();
    }
}

#[test]
fn plan_families_three_shard_anchor() {
    // The deterministic anchor for the family proptest.
    assert_families_match_direct_paths(120, 3, 2026);
}

#[test]
fn three_shard_split_matches_oracle() {
    // The deterministic anchor for the proptest (fast to re-run alone).
    let ids: Vec<u64> = (0..600).collect();
    assert_cluster_matches_oracle(&ids, 3, 7);
}

#[test]
fn killing_a_node_degrades_answers_and_recovery_restores_them() {
    let ann = announcement(11);
    let ids: Vec<u64> = (0..900).collect();
    let subs = submissions(&ann, &ids, 23);
    let (mut servers, map) = start_cluster(&ann, 3);
    let mut router = fast_router(map.clone());
    router.submit_batch(&subs).unwrap();
    // Size every shard while all are up (degraded answers report the
    // missing fraction from this sweep).
    let status = router.status().unwrap();
    assert_eq!(status.merged.accepted, 900);
    let per_shard_accepted: Vec<u64> = status
        .per_shard
        .iter()
        .map(|s| s.status.as_ref().unwrap().0.accepted)
        .collect();

    let pair = BitSubset::range(0, 2);
    let value = BitString::from_bits(&[true, true]);
    let full = router
        .execute_plan(&conj_plan(pair.clone(), value.clone()))
        .unwrap();
    assert!(full.coverage.is_complete());
    assert_eq!(full.term_estimates[0].sample_size as u64, 900);

    // Kill shard 1. Its records drop out of answers; the router reports
    // exactly which shard (and how many known users) went missing.
    servers.remove(1).shutdown();
    let degraded = router
        .execute_plan(&conj_plan(pair.clone(), value.clone()))
        .unwrap();
    assert!(!degraded.coverage.is_complete());
    assert_eq!(
        degraded
            .coverage
            .missing
            .iter()
            .map(|o| o.shard)
            .collect::<Vec<_>>(),
        vec![1]
    );
    assert_eq!(degraded.coverage.responding, vec![0, 2]);
    assert_eq!(degraded.coverage.missing_users, Some(per_shard_accepted[1]));
    let fraction = degraded.coverage.missing_fraction().unwrap();
    assert!(
        (fraction - per_shard_accepted[1] as f64 / 900.0).abs() < 1e-12,
        "missing fraction {fraction}"
    );
    // The degraded estimate covers exactly the surviving population.
    assert_eq!(
        degraded.term_estimates[0].sample_size as u64,
        900 - per_shard_accepted[1]
    );

    // A status sweep keeps working, reporting the outage in its row.
    let status = router.status().unwrap();
    let row = &status.per_shard[1];
    assert!(row.status.is_err());
    assert_eq!(status.merged.accepted, 900 - per_shard_accepted[1]);

    // Restart shard 1 empty at the same address: the map still routes
    // to it, and re-submitting restores the full bit-identical answer.
    let addr = map.addr_of(1).to_string();
    let restarted = Server::start(
        addr.as_str(),
        ann.clone(),
        ServerConfig {
            workers: 2,
            shard: Some(ShardIdentity {
                shard_id: 1,
                shard_count: 3,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Re-submit everything; surviving shards reject duplicates, shard 1
    // re-ingests its users.
    let report = router.submit_batch(&subs).unwrap();
    assert!(report.fully_ingested());
    assert_eq!(report.accepted, per_shard_accepted[1]);
    let restored = router.execute_plan(&conj_plan(pair, value)).unwrap();
    assert!(restored.coverage.is_complete());
    assert_eq!(
        restored.term_estimates[0].fraction.to_bits(),
        full.term_estimates[0].fraction.to_bits(),
        "recovered cluster must answer bit-identically to the pre-kill cluster"
    );
    restarted.shutdown();
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn all_nodes_down_is_an_error_not_a_zero() {
    let ann = announcement(5);
    let (servers, map) = start_cluster(&ann, 2);
    for server in servers {
        server.shutdown();
    }
    let mut router = Router::new(
        map,
        RouterConfig {
            timeout: Duration::from_millis(300),
            retries: 0,
            backoff: Duration::from_millis(1),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    match router.execute_plan(&conj_plan(
        BitSubset::single(0),
        BitString::from_bits(&[true]),
    )) {
        Err(ClusterError::AllShardsDown(outages)) => assert_eq!(outages.len(), 2),
        other => panic!("expected AllShardsDown, got {other:?}"),
    }
}

#[test]
fn misrouted_nodes_are_rejected_not_merged() {
    let ann = announcement(9);
    // A node claiming shard 1/3 behind an address mapped as shard 0/2.
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
    let other = Server::start(
        "127.0.0.1:0",
        ann.clone(),
        ServerConfig {
            shard: Some(ShardIdentity {
                shard_id: 1,
                shard_count: 2,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let map = ShardMap::new(
        1,
        [
            server.local_addr().to_string(),
            other.local_addr().to_string(),
        ],
    )
    .unwrap();
    let mut router = fast_router(map);
    match router.ping() {
        Err(ClusterError::Misrouted { shard: 0, found }) => {
            assert_eq!(
                found,
                Some(ShardIdentity {
                    shard_id: 1,
                    shard_count: 3
                })
            );
        }
        other => panic!("expected Misrouted, got {other:?}"),
    }
    server.shutdown();
    other.shutdown();

    // An unsharded node is fine behind a single-entry map...
    let standalone = Server::start("127.0.0.1:0", ann.clone(), ServerConfig::default()).unwrap();
    let map = ShardMap::new(1, [standalone.local_addr().to_string()]).unwrap();
    let mut router = fast_router(map);
    router.ping().unwrap();
    // ...but not behind a multi-shard map (it would be double-counted).
    let map = ShardMap::new(
        1,
        [
            standalone.local_addr().to_string(),
            standalone.local_addr().to_string(),
        ],
    )
    .unwrap();
    let mut router = fast_router(map);
    assert!(matches!(
        router.ping(),
        Err(ClusterError::Misrouted { found: None, .. })
    ));
    standalone.shutdown();
}

#[test]
fn parallel_ingest_refuses_a_misordered_map() {
    // Two shard nodes behind a map listing them in reverse order: every
    // user would land on the wrong shard, and every row would still
    // report success. Each ingest connection checks the node's identity
    // first, so neither node is sent a single submission.
    let ann = announcement(41);
    let (servers, map) = start_cluster(&ann, 2);
    let reversed = ShardMap::new(1, [map.addr_of(1), map.addr_of(0)]).unwrap();
    let ids: Vec<u64> = (0..60).collect();
    let subs = submissions(&ann, &ids, 41);
    let report = parallel_ingest(&reversed, &subs, TIMEOUT, 25);
    assert_eq!(report.shards.len(), 2);
    for row in &report.shards {
        assert!(row.submitted > 0, "{row:?}");
        let error = row.error.as_deref().unwrap_or_else(|| {
            panic!("shard {} ingested into the wrong node", row.shard);
        });
        assert!(error.contains("is actually serving shard"), "{error}");
        assert_eq!(row.accepted, 0, "{row:?}");
    }
    assert_eq!(report.accepted, 0);
    assert_eq!(report.lost(), subs.len() as u64);
    for server in &servers {
        assert_eq!(server.coordinator().stats().accepted, 0);
    }
    for server in servers {
        server.shutdown();
    }
}

/// A scripted shard node: answers `Hello` with `identity`,
/// `FetchAnnouncement` with `ann`, and acks every `SubmitBatch` in full
/// — except that the first connection to send `cut_after` acks closes
/// there. It logs every batch it acks as `(connection index, user
/// ids)`. A refusing node answers every `PartialTermCounts` with a
/// deterministic [`wire::codes::QUERY`] error frame and counts them.
struct ScriptedNode {
    addr: String,
    acked: Arc<BatchLog>,
    refused: Arc<AtomicUsize>,
}

/// Acked batches as `(connection index, user ids)`, in ack order.
type BatchLog = Mutex<Vec<(usize, Vec<u64>)>>;

/// What a [`ScriptedNode`] answers.
#[derive(Clone)]
struct Script {
    ann: Announcement,
    identity: ShardIdentity,
    cut_after: usize,
    refuse_counts: bool,
}

impl ScriptedNode {
    fn start(ann: Announcement, identity: ShardIdentity, cut_after: usize) -> Self {
        Self::launch(Script {
            ann,
            identity,
            cut_after,
            refuse_counts: false,
        })
    }

    /// A node that never cuts a connection and refuses every count.
    fn refusing(ann: Announcement, identity: ShardIdentity) -> Self {
        Self::launch(Script {
            ann,
            identity,
            cut_after: usize::MAX,
            refuse_counts: true,
        })
    }

    fn launch(script: Script) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acked = Arc::new(Mutex::new(Vec::new()));
        let refused = Arc::new(AtomicUsize::new(0));
        let cut = Arc::new(AtomicBool::new(false));
        let (log, tally) = (Arc::clone(&acked), Arc::clone(&refused));
        std::thread::spawn(move || {
            for (conn, stream) in listener.incoming().map_while(Result::ok).enumerate() {
                let script = script.clone();
                let (log, tally, cut) = (Arc::clone(&log), Arc::clone(&tally), Arc::clone(&cut));
                std::thread::spawn(move || {
                    Self::serve(stream, conn, &script, &log, &tally, &cut);
                });
            }
        });
        Self {
            addr,
            acked,
            refused,
        }
    }

    fn serve(
        mut stream: TcpStream,
        conn: usize,
        script: &Script,
        log: &BatchLog,
        refused: &AtomicUsize,
        cut: &AtomicBool,
    ) {
        let mut acks = 0;
        while let Ok(Some(frame)) = wire::read_frame(&mut stream) {
            let response = match Request::decode(&frame).unwrap() {
                Request::Hello => Response::Hello {
                    shard: Some(script.identity),
                },
                Request::FetchAnnouncement => Response::Announcement(script.ann.clone()),
                Request::PartialTermCounts { .. } if script.refuse_counts => {
                    refused.fetch_add(1, AtomicOrdering::SeqCst);
                    Response::Error {
                        code: wire::codes::QUERY,
                        message: "scripted refusal".into(),
                    }
                }
                Request::SubmitBatch(batch) => {
                    acks += 1;
                    let users = batch.iter().map(|s| s.user.0).collect();
                    log.lock().unwrap().push((conn, users));
                    Response::SubmitAck {
                        accepted: batch.len() as u64,
                        rejected: 0,
                    }
                }
                other => panic!("scripted node got {other:?}"),
            };
            if wire::write_frame(&mut stream, &response.encode()).is_err() {
                return;
            }
            if acks == script.cut_after && !cut.swap(true, AtomicOrdering::SeqCst) {
                // Send nothing more, but read until the peer hangs up:
                // closing with unread bytes would reset the connection
                // and could destroy acks the peer has not read yet.
                let _ = stream.shutdown(Shutdown::Write);
                while let Ok(Some(_)) = wire::read_frame(&mut stream) {}
                return;
            }
        }
    }

    fn acked(&self) -> Vec<(usize, Vec<u64>)> {
        self.acked.lock().unwrap().clone()
    }

    fn refused(&self) -> usize {
        self.refused.load(AtomicOrdering::SeqCst)
    }
}

/// `shards` nodes behind a router at `fanout` with the default retries:
/// shard 0 a [`ScriptedNode::refusing`], the rest real servers
/// (`servers[i]` holds shard `i + 1`), all holding `users` users.
fn cluster_refusing_on_shard_0(
    ann: &Announcement,
    shards: u32,
    fanout: usize,
    users: u64,
) -> (ScriptedNode, Vec<Server>, Router) {
    let (mut servers, map) = start_cluster(ann, shards);
    servers.remove(0).shutdown();
    let identity = ShardIdentity {
        shard_id: 0,
        shard_count: shards,
    };
    let node = ScriptedNode::refusing(ann.clone(), identity);
    let addrs: Vec<String> = std::iter::once(node.addr.clone())
        .chain((1..shards).map(|shard| map.addr_of(shard).to_string()))
        .collect();
    let mut router = Router::new(
        ShardMap::new(1, addrs).unwrap(),
        RouterConfig {
            timeout: TIMEOUT,
            fanout,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let ids: Vec<u64> = (0..users).collect();
    let report = router.submit_batch(&submissions(ann, &ids, 3)).unwrap();
    assert!(report.fully_ingested(), "{report:?}");
    (node, servers, router)
}

/// The plan-count frames (kind `0x09`) a real server has been sent.
fn count_frames(server: &Server) -> u64 {
    let mut probe = psketch_server::Client::connect(server.local_addr(), TIMEOUT).unwrap();
    probe.server_stats().unwrap().count_for(0x09)
}

#[test]
fn a_shard_that_dies_mid_stream_keeps_its_acked_prefix() {
    // Shard 1 acks K chunks on its first connection, then closes. With
    // no retries its row keeps that prefix and counts the rest lost;
    // with one retry the stream resumes on a fresh connection at chunk
    // K, so no acked chunk is sent twice. Shard 0 never notices.
    const CHUNK: usize = 7;
    const K: usize = 3;
    let ann = announcement(43);
    let ids: Vec<u64> = (0..300).collect();
    let subs = submissions(&ann, &ids, 43);
    for retries in [0, 1] {
        let (mut servers, map) = start_cluster(&ann, 2);
        servers.pop().unwrap().shutdown();
        let identity = ShardIdentity {
            shard_id: 1,
            shard_count: 2,
        };
        let node = ScriptedNode::start(ann.clone(), identity, K);
        let map = ShardMap::new(1, [map.addr_of(0), node.addr.as_str()]).unwrap();
        let share: Vec<u64> = subs
            .iter()
            .filter(|s| map.shard_of(s.user) == 1)
            .map(|s| s.user.0)
            .collect();
        assert!(share.len() > K * CHUNK && !share.len().is_multiple_of(CHUNK));
        let mut router = Router::new(
            map,
            RouterConfig {
                timeout: TIMEOUT,
                retries,
                backoff: Duration::from_millis(10),
                submit_chunk: CHUNK,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let report = router.submit_batch(&subs).unwrap();

        let row = &report.shards[0];
        assert_eq!(row.error, None, "{report:?}");
        assert_eq!(row.accepted, row.submitted as u64);
        assert_eq!(servers[0].coordinator().stats().accepted, row.accepted);

        let row = &report.shards[1];
        assert_eq!(row.submitted, share.len());
        let acked = node.acked();
        if retries == 0 {
            assert_eq!(row.accepted, (K * CHUNK) as u64, "{row:?}");
            assert_eq!(row.lost(), (share.len() - K * CHUNK) as u64);
            assert!(row.error.is_some(), "{row:?}");
            assert!(!report.fully_ingested());
            assert_eq!(report.failures().map(|r| r.shard).collect::<Vec<_>>(), [1]);
            assert_eq!(report.lost(), row.lost());
        } else {
            assert!(report.fully_ingested(), "{report:?}");
            assert_eq!(report.accepted, subs.len() as u64);
            let resumed = acked.iter().find(|(conn, _)| *conn > 0).unwrap();
            assert_eq!(resumed.1[0], share[K * CHUNK], "resumed off chunk {K}");
        }
        // Every acked user, in order, is a prefix of the share (all of
        // it after a recovery): nothing acked was sent again.
        let users: Vec<u64> = acked.into_iter().flat_map(|(_, batch)| batch).collect();
        assert_eq!(users[..], share[..row.accepted as usize]);
        for server in servers {
            server.shutdown();
        }
    }
}

#[test]
fn parallel_ingest_matches_router_submit_batch() {
    // The same submissions through the two entry points, at several
    // chunk sizes and fanouts, land identically and answer
    // bit-identically.
    let ann = announcement(47);
    let ids: Vec<u64> = (0..300).collect();
    let subs = submissions(&ann, &ids, 47);
    let pair = BitSubset::range(0, 2);
    let plans = [
        conj_plan(pair.clone(), BitString::from_bits(&[true, false])),
        TermPlan::for_distribution(&pair),
    ];
    for chunk in [1, 7, 1_000] {
        let (reference, map) = start_cluster(&ann, 3);
        let expected = parallel_ingest(&map, &subs, TIMEOUT, chunk);
        assert!(expected.fully_ingested(), "{expected:?}");
        assert!(expected.shards.iter().all(|row| row.submitted < 1_000));
        let mut oracle = fast_router(map);
        for fanout in [1, 0] {
            let (servers, map) = start_cluster(&ann, 3);
            let mut router = Router::new(
                map,
                RouterConfig {
                    timeout: TIMEOUT,
                    submit_chunk: chunk,
                    fanout,
                    ..RouterConfig::default()
                },
            )
            .unwrap();
            assert_eq!(router.submit_batch(&subs).unwrap(), expected);
            for (a, b) in reference.iter().zip(&servers) {
                let (a, b) = (a.coordinator().stats(), b.coordinator().stats());
                assert_eq!(a.accepted, b.accepted, "chunk {chunk}, fanout {fanout}");
            }
            for plan in &plans {
                let a = oracle.execute_plan(plan).unwrap();
                let b = router.execute_plan(plan).unwrap();
                for (x, y) in a.term_estimates.iter().zip(&b.term_estimates) {
                    assert_eq!(x.fraction.to_bits(), y.fraction.to_bits());
                    assert_eq!(x.raw.to_bits(), y.raw.to_bits());
                }
            }
            for server in servers {
                server.shutdown();
            }
        }
        for server in reference {
            server.shutdown();
        }
    }
}

#[test]
fn parallel_ingest_reports_a_refused_map_in_every_row() {
    // A map the router refuses (shard ids out of order) is no panic:
    // every row carries the error and counts its share lost.
    let ann = announcement(53);
    let ids: Vec<u64> = (0..40).collect();
    let subs = submissions(&ann, &ids, 53);
    let mut map = ShardMap::new(1, ["127.0.0.1:1", "127.0.0.1:2"]).unwrap();
    map.shards.swap(0, 1);
    let report = parallel_ingest(&map, &subs, TIMEOUT, 10);
    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.lost(), subs.len() as u64);
    for row in &report.shards {
        let error = row.error.as_deref().unwrap();
        assert!(error.contains("0..N"), "{error}");
    }
    assert!(report.totals().is_err());
}

#[test]
fn refusals_propagate_and_are_not_retried() {
    // Shard 0 refuses every count with a deterministic error frame. The
    // refusal fails the whole query with its code, and although the
    // router allows two retries, neither shard is asked twice.
    let ann = announcement(13);
    let (node, servers, mut router) = cluster_refusing_on_shard_0(&ann, 2, 0, 100);
    let plan = conj_plan(BitSubset::single(0), BitString::from_bits(&[true]));
    for asked in 1..=2 {
        match router.execute_plan(&plan) {
            Err(ClusterError::Refused { shard: 0, code, .. }) => {
                assert_eq!(code, wire::codes::QUERY);
            }
            other => panic!("expected a shard 0 refusal, got {other:?}"),
        }
        assert_eq!(node.refused(), asked);
        // All shards were in flight at once (fanout 0), so shard 1
        // answered too — once per query.
        assert_eq!(count_frames(&servers[0]), asked as u64);
    }
    for server in servers {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------
// Parallel fan-out vs the sequential oracle.
// ---------------------------------------------------------------------

/// Every family's compiled plan over two 2-bit fields (`a` at bits 0–1,
/// `b` at bits 2–3). No engine oracles here: the *sequential* router
/// (`fanout = 1`, the old visit order) is the oracle the parallel
/// fan-out must match bit-for-bit.
fn family_plans() -> Vec<(&'static str, psketch_queries::TermPlan)> {
    use psketch_core::IntField;
    use psketch_queries as q;
    let a = IntField::new(0, 2);
    let b = IntField::new(2, 2);
    let attr = q::CategoricalAttribute::new(a, 3);
    let clause0 =
        psketch_core::ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true]))
            .unwrap();
    let clause1 = psketch_core::ConjunctiveQuery::new(
        BitSubset::new(vec![1, 2]).unwrap(),
        BitString::from_bits(&[true, false]),
    )
    .unwrap();
    let tree = q::DecisionTree::split(
        0,
        q::DecisionTree::split(2, q::DecisionTree::Leaf(true), q::DecisionTree::Leaf(false)),
        q::DecisionTree::split(1, q::DecisionTree::Leaf(false), q::DecisionTree::Leaf(true)),
    );
    let mut linear = q::TermPlan::new("linear family");
    linear
        .begin_output("linear family", -0.25)
        .push_term(1.5, clause0.clone())
        .push_term(0.5, clause0.clone())
        .push_term(-2.0, clause1.clone());
    vec![
        ("conjunction", q::TermPlan::for_conjunctive(clause1.clone())),
        (
            "distribution",
            q::TermPlan::for_distribution(&BitSubset::range(0, 2)),
        ),
        ("linear", linear),
        ("dnf", q::dnf_plan(&[clause0, clause1]).unwrap()),
        ("interval", q::range_plan(&a, 1, 2)),
        ("mean", q::mean_plan(&a)),
        ("moment", q::moment_plan(&a, 2)),
        ("product", q::inner_product_plan(&a, &b)),
        ("combined", q::eq_and_less_than_plan(&a, 2, &b, 3)),
        ("tree", tree.to_plan()),
        ("sumlt", q::sum_lt_plan(&a, &b, 2)),
        // Wider than any count table: scanned on every shard.
        (
            "wide conjunction",
            q::TermPlan::for_conjunctive(wide_clause()),
        ),
        ("categorical", q::histogram_plan(&attr)),
        ("variance", q::variance_plan(&a)),
        ("conditional-mean", q::conditional_mean_plan(&a, 2, &b)),
    ]
}

/// Asserts two cluster plan answers are float-bit-identical, including
/// the degraded-coverage fields (outage *error strings* may differ —
/// they quote nondeterministic OS messages — but the structured fields
/// may not).
fn assert_answers_identical(
    family: &str,
    parallel: &psketch_cluster::ClusterPlanAnswer,
    sequential: &psketch_cluster::ClusterPlanAnswer,
) {
    assert_eq!(
        parallel.outputs.len(),
        sequential.outputs.len(),
        "{family}: output arity diverged"
    );
    for (p, s) in parallel.outputs.iter().zip(&sequential.outputs) {
        assert_eq!(
            p.value.to_bits(),
            s.value.to_bits(),
            "{family}: parallel fan-out diverged from the sequential oracle"
        );
        assert_eq!(p.queries_used, s.queries_used, "{family}");
        assert_eq!(p.min_sample_size, s.min_sample_size, "{family}");
    }
    assert_eq!(
        parallel.term_estimates.len(),
        sequential.term_estimates.len(),
        "{family}"
    );
    for (p, s) in parallel
        .term_estimates
        .iter()
        .zip(&sequential.term_estimates)
    {
        assert_eq!(p.fraction.to_bits(), s.fraction.to_bits(), "{family}");
        assert_eq!(p.raw.to_bits(), s.raw.to_bits(), "{family}");
        assert_eq!(p.sample_size, s.sample_size, "{family}");
        assert_eq!(p.p.to_bits(), s.p.to_bits(), "{family}");
    }
    let (pc, sc) = (&parallel.coverage, &sequential.coverage);
    assert_eq!(pc.total_shards, sc.total_shards, "{family}");
    assert_eq!(pc.responding, sc.responding, "{family}");
    assert_eq!(pc.population, sc.population, "{family}");
    assert_eq!(pc.missing_users, sc.missing_users, "{family}");
    let p_missing: Vec<u32> = pc.missing.iter().map(|o| o.shard).collect();
    let s_missing: Vec<u32> = sc.missing.iter().map(|o| o.shard).collect();
    assert_eq!(p_missing, s_missing, "{family}: degraded coverage diverged");
}

fn router_with_fanout(map: ShardMap, fanout: usize) -> Router {
    Router::new(
        map,
        RouterConfig {
            timeout: TIMEOUT,
            retries: 1,
            backoff: Duration::from_millis(10),
            fanout,
            ..RouterConfig::default()
        },
    )
    .unwrap()
}

/// The parallel-correctness property: for every query family the
/// parallel scatter-gather (`fanout = 0`, all shards at once) answers
/// float-bit-identically to the sequential oracle (`fanout = 1`, the
/// pre-parallel visit order) — with all shards up *and* with one shard
/// killed (degraded coverage fields unchanged).
fn assert_parallel_matches_sequential(m: u64, shards: u32, seed: u64) {
    let plans = family_plans();
    let mut subsets: Vec<BitSubset> = plans
        .iter()
        .flat_map(|(_, plan)| plan.required_subsets())
        .collect();
    subsets.sort();
    subsets.dedup();
    let mut builder = AnnouncementBuilder::new(4243, 0.45, 10_000, 1e-6)
        .global_key(*GlobalKey::from_seed(seed).as_bytes());
    for subset in subsets {
        builder = builder.subset(subset);
    }
    let ann = builder.build().unwrap();

    let mut ids: Vec<u64> = (0..m).map(|i| i.wrapping_mul(0x9E37) ^ seed).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut rng = Prg::seed_from_u64(seed ^ 0x00B5);
    let subs: Vec<Submission> = ids
        .iter()
        .map(|&i| {
            let profile = family_profile(i);
            let mut agent = UserAgent::new(UserId(i), profile, ann.p, 1e12);
            agent.participate(&ann, &mut rng).unwrap()
        })
        .collect();

    let (mut servers, map) = start_cluster(&ann, shards);
    let mut parallel = router_with_fanout(map.clone(), 0);
    let mut sequential = router_with_fanout(map, 1);
    let report = parallel.submit_batch(&subs).unwrap();
    assert!(report.fully_ingested());
    // Size every shard on both routers so degraded answers report the
    // same missing-user counts after the kill.
    parallel.status().unwrap();
    sequential.status().unwrap();

    for (family, plan) in &plans {
        let p = parallel.execute_plan(plan).unwrap();
        let s = sequential.execute_plan(plan).unwrap();
        assert!(p.coverage.is_complete(), "{family}");
        assert_answers_identical(family, &p, &s);
    }

    if shards > 1 {
        // Kill shard 1: both routers must degrade identically.
        servers.remove(1).shutdown();
        for (family, plan) in plans.iter().take(5) {
            match (parallel.execute_plan(plan), sequential.execute_plan(plan)) {
                (Ok(p), Ok(s)) => {
                    assert!(!p.coverage.is_complete(), "{family}: kill went unnoticed");
                    assert_answers_identical(family, &p, &s);
                }
                // A term held only by the dead shard fails estimation on
                // the surviving population — for both routers alike.
                (Err(ClusterError::Estimation(_)), Err(ClusterError::Estimation(_))) => {}
                (p, s) => panic!("{family}: outcomes diverged: {p:?} vs {s:?}"),
            }
        }
    }
    for server in servers {
        server.shutdown();
    }
}

proptest! {
    /// Parallel scatter-gather answers are float-bit-identical to the
    /// sequential oracle for every query family × 1–4 shards, including
    /// with one shard killed (degraded coverage fields unchanged).
    #[test]
    fn parallel_fanout_bit_identical_to_sequential_oracle(
        m in 50u64..120,
        shard_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let shards = (shard_pick % 4 + 1) as u32;
        assert_parallel_matches_sequential(m, shards, seed);
    }
}

#[test]
fn parallel_fanout_four_shard_anchor() {
    // The deterministic anchor for the parallel-vs-sequential proptest.
    assert_parallel_matches_sequential(100, 4, 2026);
}

#[test]
fn intermediate_fanouts_answer_identically() {
    // fanout = 2 on a 4-shard cluster: a bounded fan-out window must
    // not change a single bit either.
    let ann = announcement(21);
    let ids: Vec<u64> = (0..400).collect();
    let subs = submissions(&ann, &ids, 21);
    let (servers, map) = start_cluster(&ann, 4);
    let mut bounded = router_with_fanout(map.clone(), 2);
    let mut sequential = router_with_fanout(map, 1);
    bounded.submit_batch(&subs).unwrap();
    let pair = BitSubset::range(0, 2);
    let plan = psketch_queries::TermPlan::for_distribution(&pair);
    let b = bounded.execute_plan(&plan).unwrap();
    let s = sequential.execute_plan(&plan).unwrap();
    assert_answers_identical("distribution@fanout2", &b, &s);
    for server in servers {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------
// PRF lane widths through the wire paths.
// ---------------------------------------------------------------------

/// One sweep's worth of wire answers, bit-exact, for direct comparison
/// across lane widths.
#[derive(Debug, PartialEq)]
struct WireAnswers {
    server_conj: (u64, u64, usize),
    server_wide: (u64, u64, usize),
    server_dist: Vec<(u64, u64)>,
    server_plan: Vec<(u64, usize, usize)>,
    cluster_conj: (u64, u64, usize),
    cluster_wide: (u64, u64, usize),
    cluster_dist: Vec<u64>,
    cluster_plan: Vec<(u64, usize, usize)>,
}

/// Queries one standalone server (server path) and one router (cluster
/// path) with a conjunctive, a conjunction on the wide (scanned) subset,
/// a distribution and a compiled mean plan, capturing every answer's bit
/// pattern. The server path fetches the
/// conjunction's and the distribution's term counts and inverts them at
/// the announcement's quantized bias `p`.
fn wire_answers(
    client: &mut psketch_server::Client,
    router: &mut Router,
    plan: &psketch_queries::TermPlan,
    p: f64,
) -> WireAnswers {
    let pair = BitSubset::range(0, 2);
    let value = BitString::from_bits(&[true, false]);
    let invert = |c: &psketch_protocol::QueryCounts| {
        psketch_core::Estimate::from_counts(c.ones, c.population, p)
    };
    let conj_term = ConjunctiveQuery::new(pair.clone(), value.clone()).unwrap();
    let s_conj = invert(&client.partial_term_counts(&[conj_term]).unwrap()[0]);
    let wide_value = BitString::from_u64(0x2A5, WIDE_BITS as usize);
    let wide_term = ConjunctiveQuery::new(wide(), wide_value.clone()).unwrap();
    let s_wide = invert(&client.partial_term_counts(&[wide_term]).unwrap()[0]);
    let dist_plan = psketch_queries::TermPlan::for_distribution(&pair);
    let s_dist: Vec<_> = client
        .partial_term_counts(dist_plan.terms())
        .unwrap()
        .iter()
        .map(invert)
        .collect();
    let s_plan = client.execute_plan(plan).unwrap();
    let c_conj = router
        .execute_plan(&conj_plan(pair.clone(), value))
        .unwrap();
    let c_wide = router.execute_plan(&conj_plan(wide(), wide_value)).unwrap();
    let c_dist = router
        .execute_plan(&TermPlan::for_distribution(&pair))
        .unwrap();
    let c_plan = router.execute_plan(plan).unwrap();
    assert!(c_conj.coverage.is_complete());
    assert!(c_plan.coverage.is_complete());
    let bits = |e: &psketch_core::Estimate| (e.fraction.to_bits(), e.raw.to_bits(), e.sample_size);
    WireAnswers {
        server_conj: (
            s_conj.fraction.to_bits(),
            s_conj.raw.to_bits(),
            s_conj.sample_size,
        ),
        server_wide: bits(&s_wide),
        server_dist: s_dist
            .iter()
            .map(|e| (e.fraction.to_bits(), e.raw.to_bits()))
            .collect(),
        server_plan: s_plan
            .iter()
            .map(|a| (a.value.to_bits(), a.queries_used, a.min_sample_size))
            .collect(),
        cluster_conj: (
            c_conj.term_estimates[0].fraction.to_bits(),
            c_conj.term_estimates[0].raw.to_bits(),
            c_conj.term_estimates[0].sample_size,
        ),
        cluster_wide: bits(&c_wide.term_estimates[0]),
        cluster_dist: c_dist
            .term_estimates
            .iter()
            .map(|e| e.fraction.to_bits())
            .collect(),
        cluster_plan: c_plan
            .outputs
            .iter()
            .map(|a| (a.value.to_bits(), a.queries_used, a.min_sample_size))
            .collect(),
    }
}

/// The wire-path acceptance property for the multi-lane PRF: a
/// standalone `Server` behind `Client` and a sharded cluster behind
/// `Router` answer float-bit-identically at every supported lane width
/// (and at auto-probe) to the width-1 scalar oracle. The lane knob is
/// process-global, so the in-process server threads see each width as
/// the sweep sets it: the submissions are ingested in chunks at
/// rotating widths (count-table upkeep runs the kernel at each), and
/// every query set runs at each width (the wide subset's scans do).
fn assert_lane_widths_identical_over_the_wire(m: u64, shards: u32, seed: u64) {
    let ann = announcement(seed);
    let mut ids: Vec<u64> = (0..m).map(|i| i.wrapping_mul(0x9E37) ^ seed).collect();
    ids.sort_unstable();
    ids.dedup();
    let subs = submissions(&ann, &ids, seed ^ 0x1A9E);
    let plan = psketch_queries::mean_plan(&psketch_core::IntField::new(0, 2));

    let standalone = Server::start("127.0.0.1:0", ann.clone(), ServerConfig::default()).unwrap();
    let mut client = psketch_server::Client::connect(standalone.local_addr(), TIMEOUT).unwrap();
    let (servers, map) = start_cluster(&ann, shards);
    let mut router = fast_router(map);
    let widths = psketch_core::SUPPORTED_LANE_WIDTHS;
    for (chunk, width) in subs.chunks(17).zip(widths.iter().cycle()) {
        psketch_core::set_lane_width(*width).unwrap();
        client.submit_batch(chunk).unwrap();
        let report = router.submit_batch(chunk).unwrap();
        assert!(report.fully_ingested());
    }

    let p = ann.validate().unwrap().p();
    psketch_core::set_lane_width(1).unwrap();
    let oracle = wire_answers(&mut client, &mut router, &plan, p);

    // The width-1 answers are themselves checked against the scalar
    // path (`estimate_scalar`) over an in-process pool of the same
    // submissions, so table answers are never only compared with table
    // answers.
    let local = Coordinator::new(ann.clone());
    local.accept_batch(&subs);
    let estimator = ConjunctiveEstimator::new(ann.validate().unwrap());
    let scalar = |subset: BitSubset, value: u64| {
        let k = subset.len();
        let q = ConjunctiveQuery::new(subset, BitString::from_u64(value, k)).unwrap();
        let e = estimator.estimate_scalar(local.pool(), &q).unwrap();
        (e.fraction.to_bits(), e.raw.to_bits(), e.sample_size)
    };
    // `[true, false]` is value 1, LSB first.
    assert_eq!(oracle.server_conj, scalar(BitSubset::range(0, 2), 1));
    assert_eq!(oracle.server_wide, scalar(wide(), 0x2A5));
    let dist: Vec<(u64, u64)> = (0..4)
        .map(|v| {
            let (fraction, raw, _) = scalar(BitSubset::range(0, 2), v);
            (fraction, raw)
        })
        .collect();
    assert_eq!(oracle.server_dist, dist);

    let sweep = psketch_core::SUPPORTED_LANE_WIDTHS
        .iter()
        .copied()
        .filter(|&w| w != 1)
        .chain([0]);
    for width in sweep {
        psketch_core::set_lane_width(width).unwrap();
        let swept = wire_answers(&mut client, &mut router, &plan, p);
        assert_eq!(
            swept, oracle,
            "wire answers diverged from the scalar oracle at lane width {width}"
        );
    }
    psketch_core::set_lane_width(0).unwrap();

    standalone.shutdown();
    for server in servers {
        server.shutdown();
    }
}

proptest! {
    /// Server and cluster wire paths answer bit-identically at every
    /// PRF lane width over random populations and shard counts.
    #[test]
    fn lane_widths_bit_identical_over_the_wire(
        m in 30u64..80,
        shard_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let shards = (shard_pick % 4 + 1) as u32;
        assert_lane_widths_identical_over_the_wire(m, shards, seed);
    }
}

#[test]
fn lane_widths_three_shard_anchor() {
    // The deterministic anchor for the lane-width wire sweep.
    assert_lane_widths_identical_over_the_wire(200, 3, 2026);
}

#[test]
fn fatal_outcomes_stop_dispatching_further_shards() {
    // At fanout = 1 a refusal on shard 0 must end the scatter before
    // shard 1 is contacted at all — the old sequential contract.
    let ann = announcement(29);
    let (node, servers, mut router) = cluster_refusing_on_shard_0(&ann, 2, 1, 80);
    match router.execute_plan(&conj_plan(
        BitSubset::single(0),
        BitString::from_bits(&[true]),
    )) {
        Err(ClusterError::Refused { shard: 0, .. }) => {}
        other => panic!("expected shard 0 refusal, got {other:?}"),
    }
    assert_eq!(node.refused(), 1);
    // Shard 1 was never asked.
    assert_eq!(count_frames(&servers[0]), 0);
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn fatal_outcomes_stop_dispatching_at_a_partial_fanout() {
    // At fanout = 2 shards 0 and 1 get their requests first. Replies
    // are read in shard order, so shard 0's refusal is seen before any
    // slot frees up for shard 2, which must never be asked — whatever
    // order the replies arrive in.
    let ann = announcement(31);
    let (node, servers, mut router) = cluster_refusing_on_shard_0(&ann, 3, 2, 90);
    let before = count_frames(&servers[1]);
    match router.execute_plan(&conj_plan(
        BitSubset::single(0),
        BitString::from_bits(&[true]),
    )) {
        Err(ClusterError::Refused { shard: 0, .. }) => {}
        other => panic!("expected shard 0 refusal, got {other:?}"),
    }
    assert_eq!(node.refused(), 1);
    assert_eq!(count_frames(&servers[1]), before);
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn silent_shards_share_one_deadline() {
    // Shards 1 and 2 accept connections and never answer. Each attempt's
    // reads share one deadline (request written + timeout), so the two
    // silent shards cost one timeout between them, not one each.
    let ann = announcement(37);
    let server = Server::start(
        "127.0.0.1:0",
        ann.clone(),
        ServerConfig {
            workers: 2,
            shard: Some(ShardIdentity {
                shard_id: 0,
                shard_count: 3,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let silent: Vec<std::net::TcpListener> = (0..2)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = std::iter::once(server.local_addr().to_string())
        .chain(silent.iter().map(|l| l.local_addr().unwrap().to_string()))
        .collect();
    for listener in silent {
        std::thread::spawn(move || {
            let held: Vec<_> = listener.incoming().map_while(Result::ok).collect();
            drop(held);
        });
    }
    let timeout = Duration::from_millis(300);
    let mut router = Router::new(
        ShardMap::new(1, addrs).unwrap(),
        RouterConfig {
            timeout,
            retries: 0,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let ids: Vec<u64> = (0..60).collect();
    let subs: Vec<Submission> = submissions(&ann, &ids, 37)
        .into_iter()
        .filter(|s| router.map().shard_of(s.user) == 0)
        .collect();
    router.submit_batch(&subs).unwrap();
    // The announcement is cached by this first call.
    router.announcement().unwrap();
    let started = std::time::Instant::now();
    let answer = router
        .execute_plan(&conj_plan(
            BitSubset::single(0),
            BitString::from_bits(&[true]),
        ))
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(answer.coverage.responding, vec![0]);
    let missing: Vec<u32> = answer.coverage.missing.iter().map(|o| o.shard).collect();
    assert_eq!(missing, vec![1, 2]);
    assert!(
        elapsed < 2 * timeout,
        "two silent shards took {elapsed:?} at a {timeout:?} timeout"
    );
    server.shutdown();
}

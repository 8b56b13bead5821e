//! E23 — the query-plan IR: plan-path vs legacy-path cost per family.
//!
//! Every query family now compiles to a `TermPlan` (deduplicated terms
//! plus linear post-combinations) and executes anywhere. This
//! experiment measures what that buys:
//!
//! * **local**: the per-term evaluation (one
//!   `ConjunctiveEstimator::estimate` scan per term reference, each
//!   output combined in its `combination()` order, duplicates scanned
//!   again)
//!   against the plan path (`QueryEngine::execute_plan` over the
//!   batched `count_terms` entry point: a count-table read for each
//!   subset of at most 6 bits, else one snapshot and one fused scan per
//!   distinct *subset* counting every value its terms ask for);
//! * **cluster**: plan throughput through the scatter-gather router at
//!   1, 2 and 4 loopback shards — one generic `PartialTermCounts`
//!   round trip per shard per plan, whatever the family;
//! * **bit-identity**: every family's plan answer must equal the
//!   per-term answer exactly, locally and at every shard count.
//!
//! Emits `BENCH_plans.json`.

use crate::common::Config;
use crate::report::{f, Table};
use psketch_cluster::{parallel_ingest, Router, RouterConfig, ShardMap};
use psketch_core::{
    BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, IntField, Profile, SketchDb,
    UserId,
};
use psketch_prf::GlobalKey;
use psketch_protocol::{
    Announcement, AnnouncementBuilder, Coordinator, ShardIdentity, Submission, UserAgent,
};
use psketch_queries as q;
use psketch_queries::{QueryEngine, TermPlan};
use psketch_server::{Server, ServerConfig};
use std::time::{Duration, Instant};

const EXP: u64 = 23;
const TIMEOUT: Duration = Duration::from_secs(30);

/// One family: a label and its compiled plan.
fn families() -> Vec<(&'static str, TermPlan)> {
    let a = IntField::new(0, 2);
    let b = IntField::new(2, 2);
    let attr = q::CategoricalAttribute::new(a, 4);
    let pair = BitSubset::range(0, 2);
    let clause0 =
        ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true])).unwrap();
    let clause1 = ConjunctiveQuery::new(
        BitSubset::new(vec![1, 2]).unwrap(),
        BitString::from_bits(&[true, false]),
    )
    .unwrap();
    let tree = q::DecisionTree::split(
        0,
        q::DecisionTree::split(2, q::DecisionTree::Leaf(true), q::DecisionTree::Leaf(false)),
        q::DecisionTree::split(1, q::DecisionTree::Leaf(false), q::DecisionTree::Leaf(true)),
    );
    let mut linear = TermPlan::new("linear");
    linear
        .begin_output("linear", -0.25)
        .push_term(1.5, clause0.clone())
        .push_term(-2.0, clause1.clone())
        .push_term(0.5, clause0.clone());
    vec![
        (
            "conjunction",
            TermPlan::for_conjunctive(
                ConjunctiveQuery::new(pair.clone(), BitString::from_bits(&[true, true])).unwrap(),
            ),
        ),
        ("distribution", TermPlan::for_distribution(&pair)),
        ("linear", linear),
        ("dnf", q::dnf_plan(&[clause0, clause1]).unwrap()),
        ("interval", q::range_plan(&a, 1, 2)),
        ("mean", q::mean_plan(&a)),
        ("moment", q::moment_plan(&a, 2)),
        ("product", q::inner_product_plan(&a, &b)),
        ("combined", q::eq_and_less_than_plan(&a, 2, &b, 3)),
        ("tree", tree.to_plan()),
        ("sumlt", q::sum_lt_plan(&a, &b, 2)),
        ("categorical", q::histogram_plan(&attr)),
        (
            "bits",
            q::perturbed_conjunction_plan(&[
                (BitSubset::single(0), BitString::from_bits(&[true])),
                (BitSubset::single(3), BitString::from_bits(&[false])),
            ])
            .unwrap(),
        ),
        // Two-output plans: E[a²] and E[a]; numerator and denominator.
        ("variance", q::variance_plan(&a)),
        ("cond-mean", q::conditional_mean_plan(&a, 2, &b)),
    ]
}

/// The per-term reference evaluation: one
/// [`ConjunctiveEstimator::estimate`] scan per term reference, each
/// output combined in its `combination()` order.
fn per_term_values(
    estimator: &ConjunctiveEstimator,
    pool: &SketchDb,
    plan: &TermPlan,
) -> Result<Vec<f64>, psketch_core::Error> {
    plan.outputs()
        .iter()
        .map(|out| {
            let mut value = out.constant;
            for &(coeff, slot) in out.combination() {
                value += coeff * estimator.estimate(pool, &plan.terms()[slot])?.fraction;
            }
            Ok(value)
        })
        .collect()
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
            let profile = Profile::from_bits(&[i % 3 == 0, i % 2 == 0, i % 5 < 2, i % 7 < 3]);
            let mut agent = UserAgent::new(UserId(i), profile, ann.p, f64::MAX);
            agent
                .participate(ann, &mut rng)
                .expect("participation cannot fail at these parameters")
        })
        .collect()
}

struct FamilyRun {
    name: &'static str,
    terms: usize,
    /// Scan passes per plan on a pool without count tables: its
    /// distinct subsets.
    scans: usize,
    legacy_ms: f64,
    plan_ms: f64,
    cluster_qps: Vec<(u32, f64)>,
}

/// Runs E23.
///
/// # Panics
///
/// Panics if any plan answer diverges from the per-term path, a loopback
/// cluster misbehaves, or the output file cannot be written.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &Config) -> Vec<Table> {
    let m = cfg.m(30_000);
    let reps = cfg.reps(40);
    let plans = families();
    let ann = announcement(cfg, m, &plans);
    let subs = make_submissions(cfg, &ann, m);

    let oracle = Coordinator::new(ann.clone());
    oracle.accept_batch(&subs);
    let params = ann.validate().expect("announcement validates");
    let engine = QueryEngine::new(params);

    // --- Local: per-term estimates vs batched plan path. ---
    let estimator = engine.estimator();
    let mut runs: Vec<FamilyRun> = plans
        .iter()
        .map(|(name, plan)| {
            let start = Instant::now();
            let mut legacy = Vec::new();
            for _ in 0..reps {
                legacy = per_term_values(estimator, oracle.pool(), plan).expect("legacy");
            }
            let legacy_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
            let start = Instant::now();
            let mut answers = Vec::new();
            for _ in 0..reps {
                answers = engine.execute_plan(oracle.pool(), plan).expect("plan");
            }
            let plan_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
            assert_eq!(answers.len(), legacy.len(), "{name}");
            for (a, l) in answers.iter().zip(&legacy) {
                assert_eq!(
                    a.value.to_bits(),
                    l.to_bits(),
                    "{name}: plan diverged from the per-term path"
                );
            }
            FamilyRun {
                name,
                terms: plan.cost(),
                scans: plan.required_subsets().len(),
                legacy_ms,
                plan_ms,
                cluster_qps: Vec::new(),
            }
        })
        .collect();

    // --- Cluster: plan throughput at 1, 2, 4 shards. ---
    let cluster_reps = cfg.reps(25);
    for shards in [1u32, 2, 4] {
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
        let (accepted, _) = parallel_ingest(&map, &subs, TIMEOUT, 500)
            .totals()
            .expect("cluster ingest");
        assert_eq!(accepted, subs.len() as u64);
        let mut router = Router::new(
            map,
            RouterConfig {
                timeout: TIMEOUT,
                ..RouterConfig::default()
            },
        )
        .expect("valid map");
        for (run, (name, plan)) in runs.iter_mut().zip(&plans) {
            let start = Instant::now();
            let mut clustered = None;
            for _ in 0..cluster_reps {
                clustered = Some(router.execute_plan(plan).expect("cluster plan"));
            }
            let qps = cluster_reps as f64 / start.elapsed().as_secs_f64();
            run.cluster_qps.push((shards, qps));
            // Bit-identity against the local plan path.
            let clustered = clustered.expect("at least one rep");
            assert!(clustered.coverage.is_complete());
            let local = engine.execute_plan(oracle.pool(), plan).expect("local");
            for (c, l) in clustered.outputs.iter().zip(&local) {
                assert_eq!(
                    c.value.to_bits(),
                    l.value.to_bits(),
                    "{name}: cluster at {shards} shards diverged"
                );
            }
        }
        for server in servers {
            server.shutdown();
        }
    }

    let mut t = Table::new(
        format!("E23 — query-plan IR: plan vs legacy path per family ({m} users)"),
        &[
            "family",
            "terms",
            "scans",
            "legacy (ms)",
            "plan (ms)",
            "speedup",
            "1-shard q/s",
            "2-shard q/s",
            "4-shard q/s",
        ],
    );
    for run in &runs {
        let mut row = vec![
            run.name.to_string(),
            run.terms.to_string(),
            run.scans.to_string(),
            f(run.legacy_ms, 3),
            f(run.plan_ms, 3),
            f(run.legacy_ms / run.plan_ms.max(1e-12), 2),
        ];
        for &(_, qps) in &run.cluster_qps {
            row.push(f(qps, 1));
        }
        t.row(row);
    }
    t.note("legacy: one estimate scan per term reference (duplicates scanned again)");
    t.note("plan: every subset here has a count table, so no term is scanned");
    t.note("scans: distinct subsets, the passes a pool without count tables makes");
    t.note("every plan answer verified bit-identical to the legacy per-term path");
    t.note("cluster: one generic PartialTermCounts round trip per shard per plan");

    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            let cluster: Vec<String> = r
                .cluster_qps
                .iter()
                .map(|(shards, qps)| format!("{{\"shards\": {shards}, \"qps\": {qps:.1}}}"))
                .collect();
            format!(
                "    {{\"family\": \"{}\", \"terms\": {}, \"scans\": {}, \"legacy_ms\": {:.4}, \
                 \"plan_ms\": {:.4}, \"cluster\": [{}]}}",
                r.name,
                r.terms,
                r.scans,
                r.legacy_ms,
                r.plan_ms,
                cluster.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e23_plans\",\n  \"users\": {m},\n  \"families\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    if cfg.quick {
        t.note("quick mode: BENCH_plans.json not written");
    } else {
        std::fs::write("BENCH_plans.json", json).expect("write BENCH_plans.json");
        t.note("wrote BENCH_plans.json");
    }

    vec![t]
}

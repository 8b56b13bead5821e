//! Property tests: every supported PRF lane width computes estimates
//! float-bit-identical to the scalar reference, for every query family
//! the engine executes.
//!
//! The multi-lane SipHash evaluator (`psketch::prf::lanes`) is a pure
//! throughput knob — the acceptance bar here is not statistical closeness
//! but exact equality of every answer bit at widths 1 (scalar oracle), 4,
//! 8 and auto-probe, over random populations, biases and keys. The sweep
//! drives the full analyst stack: direct conjunctive estimates, the
//! one-pass distribution scan, and compiled term plans (means, intervals,
//! DNF, moments) through [`QueryEngine::execute_plan`].

use proptest::prelude::*;
use psketch::prf::Prg;
use psketch::queries::{dnf_plan, less_than_plan, mean_plan, moment_plan, QueryEngine, TermPlan};
use psketch::{
    BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, IntField, Profile, SketchDb,
    SketchParams, Sketcher, UserId,
};
use rand::SeedableRng;

/// Lane widths under test: the scalar oracle first, then each SIMD width,
/// then auto-probe (whatever this host selects).
const SWEEP: [usize; 4] = [1, 4, 8, 0];

/// Builds a random 2-attribute database sketched under the singleton and
/// pair subsets — enough coverage for every plan family below.
fn build_db(p: f64, profile_seeds: &[u64], rng_seed: u64) -> (SketchParams, SketchDb) {
    let params =
        SketchParams::with_sip(p, 10, psketch::GlobalKey::from_seed(rng_seed ^ 0xFACE)).unwrap();
    let sketcher = Sketcher::new(params);
    let subsets = [
        BitSubset::single(0),
        BitSubset::single(1),
        BitSubset::range(0, 2),
    ];
    let db = SketchDb::new();
    let mut rng = Prg::seed_from_u64(rng_seed);
    for (i, &seed) in profile_seeds.iter().enumerate() {
        let profile = Profile::from_bits(&[seed & 1 == 1, seed & 2 == 2]);
        for subset in &subsets {
            let sketch = sketcher
                .sketch(UserId(i as u64), &profile, subset, &mut rng)
                .unwrap();
            db.insert(subset.clone(), UserId(i as u64), sketch);
        }
    }
    (params, db)
}

/// The plan battery: one plan per compiled query family.
fn plan_battery(threshold: u64) -> Vec<TermPlan> {
    let field = IntField::new(0, 2);
    let pair = BitSubset::range(0, 2);
    let clauses = vec![
        ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true])).unwrap(),
        ConjunctiveQuery::new(pair, BitString::from_bits(&[true, false])).unwrap(),
    ];
    vec![
        mean_plan(&field),
        less_than_plan(&field, threshold),
        dnf_plan(&clauses).unwrap(),
        moment_plan(&field, 2),
    ]
}

proptest! {
    /// Conjunctive estimates, distributions and every compiled plan
    /// family answer bit-identically at every lane width.
    #[test]
    fn all_query_families_bit_identical_across_lane_widths(
        p_milli in 50u64..450,
        profile_seeds in proptest::collection::vec(any::<u64>(), 1..150),
        value_seed in any::<u64>(),
        threshold in 0u64..4,
        rng_seed in any::<u64>(),
    ) {
        let p = p_milli as f64 / 1000.0;
        let (params, db) = build_db(p, &profile_seeds, rng_seed);
        let estimator = ConjunctiveEstimator::new(params);
        let engine = QueryEngine::new(params);
        let pair = BitSubset::range(0, 2);
        let query = ConjunctiveQuery::new(
            pair.clone(),
            BitString::from_u64(value_seed & 0b11, 2),
        )
        .unwrap();
        let plans = plan_battery(threshold);
        let run_plans = || -> Vec<_> {
            plans.iter().map(|plan| engine.execute_plan(&db, plan).unwrap()).collect()
        };

        // Scalar oracle at width 1.
        psketch::core::set_lane_width(1).unwrap();
        let conj = estimator.estimate(&db, &query).unwrap();
        let dist = estimator.estimate_distribution(&db, &pair).unwrap();
        let answers = run_plans();

        for &width in &SWEEP[1..] {
            psketch::core::set_lane_width(width).unwrap();
            let w_conj = estimator.estimate(&db, &query).unwrap();
            prop_assert_eq!(
                w_conj.fraction.to_bits(), conj.fraction.to_bits(),
                "conjunctive diverged at width {}", width
            );
            prop_assert_eq!(w_conj.raw.to_bits(), conj.raw.to_bits());
            prop_assert_eq!(w_conj.sample_size, conj.sample_size);

            let w_dist = estimator.estimate_distribution(&db, &pair).unwrap();
            prop_assert_eq!(w_dist.len(), dist.len());
            for (w, oracle) in w_dist.iter().zip(&dist) {
                prop_assert_eq!(
                    w.fraction.to_bits(), oracle.fraction.to_bits(),
                    "distribution diverged at width {}", width
                );
                prop_assert_eq!(w.raw.to_bits(), oracle.raw.to_bits());
            }

            let w_answers = run_plans();
            prop_assert_eq!(w_answers.len(), answers.len());
            for (plan_idx, (w_plan, oracle_plan)) in
                w_answers.iter().zip(&answers).enumerate()
            {
                prop_assert_eq!(w_plan.len(), oracle_plan.len());
                for (w, oracle) in w_plan.iter().zip(oracle_plan) {
                    prop_assert_eq!(
                        w.value.to_bits(), oracle.value.to_bits(),
                        "plan {} diverged at width {}", plan_idx, width
                    );
                    prop_assert_eq!(w.queries_used, oracle.queries_used);
                    prop_assert_eq!(w.min_sample_size, oracle.min_sample_size);
                }
            }
        }
        psketch::core::set_lane_width(0).unwrap();
    }
}

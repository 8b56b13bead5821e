//! The §4.1 compilers against sketches and against ground truth, plus
//! property-based checks that the compilations are semantically exact.

use proptest::prelude::*;
use psketch::queries::{
    eq_and_less_than_plan, less_equal_plan, less_than_plan, mean_plan, range_plan, DecisionTree,
    TermPlan,
};
use psketch::{Estimate, IntField, Profile};

/// Evaluates a one-output plan against an explicit population, exactly:
/// each term's estimate is its satisfying fraction (an Algorithm 2
/// inversion at `p = 0` is the identity).
fn exact_eval(plan: &TermPlan, profiles: &[Profile]) -> f64 {
    let estimates: Vec<Estimate> = plan
        .terms()
        .iter()
        .map(|q| {
            let hits = profiles
                .iter()
                .filter(|p| p.satisfies(q.subset(), q.value()))
                .count();
            Estimate::from_counts(hits as u64, profiles.len() as u64, 0.0)
        })
        .collect();
    plan.evaluate(&estimates).unwrap()[0].value
}

fn profiles_for(values: &[u64], field: &IntField) -> Vec<Profile> {
    values
        .iter()
        .map(|&v| {
            let mut p = Profile::zeros(field.end() as usize);
            field.write(&mut p, v);
            p
        })
        .collect()
}

proptest! {
    /// mean_plan is exact on any population under an exact oracle.
    #[test]
    fn mean_compilation_is_exact(
        values in proptest::collection::vec(0u64..256, 1..40),
    ) {
        let field = IntField::new(0, 8);
        let profiles = profiles_for(&values, &field);
        let got = exact_eval(&mean_plan(&field), &profiles);
        let expected = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((got - expected).abs() < 1e-9);
    }

    /// Interval compilations are exact for arbitrary thresholds.
    #[test]
    fn interval_compilation_is_exact(
        values in proptest::collection::vec(0u64..64, 1..40),
        c in 0u64..64,
    ) {
        let field = IntField::new(0, 6);
        let profiles = profiles_for(&values, &field);
        let lt = exact_eval(&less_than_plan(&field, c), &profiles);
        let le = exact_eval(&less_equal_plan(&field, c), &profiles);
        let expected_lt = values.iter().filter(|&&v| v < c).count() as f64 / values.len() as f64;
        let expected_le = values.iter().filter(|&&v| v <= c).count() as f64 / values.len() as f64;
        prop_assert!((lt - expected_lt).abs() < 1e-9);
        prop_assert!((le - expected_le).abs() < 1e-9);
    }

    /// Range queries are exact and consistent with their endpoints.
    #[test]
    fn range_compilation_is_exact(
        values in proptest::collection::vec(0u64..32, 1..40),
        bounds in (0u64..32, 0u64..32),
    ) {
        let (x, y) = bounds;
        let (lo, hi) = (x.min(y), x.max(y));
        let field = IntField::new(0, 5);
        let profiles = profiles_for(&values, &field);
        let got = exact_eval(&range_plan(&field, lo, hi), &profiles);
        let expected = values.iter().filter(|&&v| v >= lo && v <= hi).count() as f64
            / values.len() as f64;
        prop_assert!((got - expected).abs() < 1e-9);
    }

    /// Combined equality+interval queries are exact.
    #[test]
    fn combined_compilation_is_exact(
        pairs in proptest::collection::vec((0u64..16, 0u64..16), 1..30),
        c in 0u64..16,
        d in 0u64..16,
    ) {
        let a = IntField::new(0, 4);
        let b = IntField::new(4, 4);
        let profiles: Vec<Profile> = pairs
            .iter()
            .map(|&(va, vb)| {
                let mut p = Profile::zeros(8);
                a.write(&mut p, va);
                b.write(&mut p, vb);
                p
            })
            .collect();
        let got = exact_eval(&eq_and_less_than_plan(&a, c, &b, d), &profiles);
        let expected = pairs.iter().filter(|&&(x, y)| x == c && y < d).count() as f64
            / pairs.len() as f64;
        prop_assert!((got - expected).abs() < 1e-9);
    }
}

#[test]
fn decision_tree_linear_query_equals_direct_evaluation() {
    // A fixed tree over 4 attributes, checked on the full profile cube.
    let tree = DecisionTree::split(
        0,
        DecisionTree::split(1, DecisionTree::Leaf(true), DecisionTree::Leaf(false)),
        DecisionTree::split(
            2,
            DecisionTree::Leaf(false),
            DecisionTree::split(3, DecisionTree::Leaf(true), DecisionTree::Leaf(true)),
        ),
    );
    let profiles: Vec<Profile> = (0..16u64)
        .map(|v| Profile::from_bits(&[v & 1 == 1, v & 2 == 2, v & 4 == 4, v & 8 == 8]))
        .collect();
    let got = exact_eval(&tree.to_plan(), &profiles);
    let expected = profiles.iter().filter(|p| tree.evaluate(p)).count() as f64 / 16.0;
    assert!((got - expected).abs() < 1e-12);
}

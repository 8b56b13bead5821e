//! §4.1 interval queries — "How many users have salary less than c?"
//!
//! The paper's decomposition: `x < c` iff there is a (unique) bit position
//! `i` with `x₁…x_{i−1} = c₁…c_{i−1}` and `xᵢ < cᵢ` (so `cᵢ = 1`,
//! `xᵢ = 0`). Hence
//!
//! `|{u : a_u < c}| = Σ_{i : cᵢ = 1} I(Aᵢ-prefix, c₁…c_{i−1}·0)`,
//!
//! one prefix-conjunction per set bit of `c` — "the number of queries we
//! need to ask is equal to how many '1's are in the binary representation
//! of c". (The paper writes `≤ c` but its decomposition is the strict
//! form; `≤` adds the single equality query `I(A, c)`. Both are provided.)

use crate::plan::TermPlan;
use psketch_core::{ConjunctiveQuery, IntField};

/// Compiles `freq(a < c)` into a one-output [`TermPlan`] of popcount(c)
/// prefix conjunctions.
///
/// # Panics
///
/// Panics if `c > field.max_value()`.
#[must_use]
pub fn less_than_plan(field: &IntField, c: u64) -> TermPlan {
    let mut plan = TermPlan::single_output(format!("freq(field@{} < {c})", field.offset()));
    push_less_than(&mut plan, field, c, 1.0);
    plan
}

/// Compiles `freq(a ≤ c)`: the strict decomposition plus the equality
/// query `I(A, c)`.
///
/// # Panics
///
/// Panics if `c > field.max_value()`.
#[must_use]
pub fn less_equal_plan(field: &IntField, c: u64) -> TermPlan {
    let mut plan = TermPlan::single_output(less_equal_label(field, c));
    push_less_equal(&mut plan, field, c, 1.0);
    plan
}

/// Compiles `freq(lo ≤ a ≤ hi)` as `freq(a ≤ hi) − freq(a < lo)`.
///
/// # Panics
///
/// Panics unless `lo ≤ hi ≤ field.max_value()`.
#[must_use]
pub fn range_plan(field: &IntField, lo: u64, hi: u64) -> TermPlan {
    assert!(lo <= hi, "empty range");
    let mut plan =
        TermPlan::single_output(format!("freq({lo} <= field@{} <= {hi})", field.offset()));
    push_less_equal(&mut plan, field, hi, 1.0);
    push_less_than(&mut plan, field, lo, -1.0);
    plan
}

pub(crate) fn less_equal_label(field: &IntField, c: u64) -> String {
    format!("freq(field@{} <= {c})", field.offset())
}

/// Pushes the popcount(c) prefix terms of `freq(a < c)`, each weighted
/// `coeff`, onto the plan's current output.
fn push_less_than(plan: &mut TermPlan, field: &IntField, c: u64, coeff: f64) {
    assert!(c <= field.max_value(), "threshold exceeds field range");
    let k = field.width();
    for i in 1..=k {
        let ci = (c >> (k - i)) & 1;
        if ci == 0 {
            continue;
        }
        // Value: c₁ … c_{i−1} followed by 0 at position i.
        let mut prefix = field.prefix_value(c, i);
        prefix.set((i - 1) as usize, false);
        let query = ConjunctiveQuery::new(field.prefix_subset(i), prefix)
            .expect("prefix widths match by construction");
        plan.push_term(coeff, query);
    }
}

/// Pushes the terms of `freq(a ≤ c)`, each weighted `coeff`, onto the
/// plan's current output.
pub(crate) fn push_less_equal(plan: &mut TermPlan, field: &IntField, c: u64, coeff: f64) {
    push_less_than(plan, field, c, coeff);
    let eq = ConjunctiveQuery::new(field.subset(), field.full_value(c))
        .expect("full widths match by construction");
    plan.push_term(coeff, eq);
}

/// The prefix subsets a population must sketch so that *every* interval
/// query on `field` is answerable: `A₁, A₂, …, A_k` (plus the full subset,
/// which equals `A_k`).
#[must_use]
pub fn interval_required_subsets(field: &IntField) -> Vec<psketch_core::BitSubset> {
    (1..=field.width())
        .map(|i| field.prefix_subset(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::exact_values;
    use psketch_core::Profile;

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

    #[test]
    fn strict_and_inclusive_match_brute_force() {
        let field = IntField::new(0, 6);
        let values: Vec<u64> = (0..64).collect();
        let profiles = profiles_for(&values, &field);
        for c in [0u64, 1, 17, 31, 32, 63] {
            let lt = exact_values(&less_than_plan(&field, c), &profiles)[0];
            let le = exact_values(&less_equal_plan(&field, c), &profiles)[0];
            let expected_lt = values.iter().filter(|&&v| v < c).count() as f64 / 64.0;
            let expected_le = values.iter().filter(|&&v| v <= c).count() as f64 / 64.0;
            assert!((lt - expected_lt).abs() < 1e-12, "c={c}: lt {lt}");
            assert!((le - expected_le).abs() < 1e-12, "c={c}: le {le}");
        }
    }

    #[test]
    fn skewed_population_brute_force() {
        let field = IntField::new(2, 5);
        let values = [0u64, 0, 3, 9, 9, 9, 30, 31];
        let profiles = profiles_for(&values, &field);
        for c in 0..=31u64 {
            let got = exact_values(&less_equal_plan(&field, c), &profiles)[0];
            let expected = values.iter().filter(|&&v| v <= c).count() as f64 / 8.0;
            assert!((got - expected).abs() < 1e-12, "c={c}");
        }
    }

    #[test]
    fn query_count_is_popcount() {
        let field = IntField::new(0, 8);
        assert_eq!(less_than_plan(&field, 0b1011_0100).cost(), 4);
        assert_eq!(less_than_plan(&field, 0).cost(), 0);
        assert_eq!(less_than_plan(&field, 0xFF).cost(), 8);
        // ≤ adds the equality query.
        assert_eq!(less_equal_plan(&field, 0b100).cost(), 2);
    }

    #[test]
    fn range_matches_brute_force() {
        let field = IntField::new(0, 5);
        let values: Vec<u64> = (0..32).flat_map(|v| [v, v % 7]).collect();
        let profiles = profiles_for(&values, &field);
        for &(lo, hi) in &[(0u64, 31u64), (3, 9), (5, 5), (0, 0), (30, 31)] {
            let got = exact_values(&range_plan(&field, lo, hi), &profiles)[0];
            let expected =
                values.iter().filter(|&&v| v >= lo && v <= hi).count() as f64 / values.len() as f64;
            assert!(
                (got - expected).abs() < 1e-12,
                "[{lo},{hi}]: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn required_subsets_are_prefixes() {
        let field = IntField::new(4, 3);
        let subs = interval_required_subsets(&field);
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0].positions(), &[4]);
        assert_eq!(subs[2].positions(), &[4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "exceeds field range")]
    fn threshold_out_of_range() {
        let field = IntField::new(0, 3);
        let _ = less_than_plan(&field, 8);
    }
}

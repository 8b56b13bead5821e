//! Higher moments — §1 promises "means, higher moments and interval
//! queries" are all expressible as small collections of conjunctions.
//!
//! The r-th raw moment expands multinomially:
//! `E[aʳ] = Σ_{i₁…i_r} 2^{Σ(k−i_j)} · E[a_{i₁}·…·a_{i_r}]`, and since bits
//! are idempotent (`aᵢ² = aᵢ`) every term collapses to a conjunction over
//! the *distinct* bits involved. Collecting equal bit-sets gives at most
//! `C(k, 1) + … + C(k, r)` distinct conjunctions of width ≤ r, each
//! weighted by the sum of its multinomial coefficients — quadratic in `k`
//! for the second moment (the paper's `k²` inner-product count), cubic for
//! the third.

use crate::conjunction::{merge_constraints, Constraint};
use crate::plan::TermPlan;
use psketch_core::{BitString, IntField};
use std::collections::BTreeMap;

/// Maximum supported moment order (terms grow like `k^r`).
pub const MAX_MOMENT: u32 = 4;

/// Compiles the r-th raw moment `E[aʳ]` of an integer field into a
/// one-output [`TermPlan`] of conjunctions of width ≤ r over the field's
/// bits.
///
/// `r = 1` reduces to [`crate::mean::mean_plan`]; `r = 2` to
/// [`crate::product::mean_square_plan`] (verified by tests).
///
/// # Panics
///
/// Panics unless `1 ≤ r ≤ MAX_MOMENT`.
#[must_use]
pub fn moment_plan(field: &IntField, r: u32) -> TermPlan {
    let mut plan = TermPlan::single_output(moment_label(field, r));
    push_moment(&mut plan, field, r);
    plan
}

/// Compiles the variance `Var[a] = E[a²] − E[a]²` into one two-output
/// plan: output 0 is `E[a²]`, output 1 is `E[a]`, and the `k` single-bit
/// terms the mean needs are shared with the second moment's diagonal —
/// the multi-output IR counts them once. The caller combines the two
/// values (the combination is nonlinear, so it cannot be one output).
#[must_use]
pub fn variance_plan(field: &IntField) -> TermPlan {
    let mut plan = TermPlan::new(format!("variance of field@{}", field.offset()));
    for r in [2, 1] {
        plan.begin_output(moment_label(field, r), 0.0);
        push_moment(&mut plan, field, r);
    }
    plan
}

fn moment_label(field: &IntField, r: u32) -> String {
    format!("E[a^{r}] of field@{}", field.offset())
}

/// Pushes the terms of `E[aʳ]` onto the plan's current output.
fn push_moment(plan: &mut TermPlan, field: &IntField, r: u32) {
    assert!(
        (1..=MAX_MOMENT).contains(&r),
        "moment order must be in [1, {MAX_MOMENT}]"
    );
    let k = field.width();
    let total = (u64::from(k)).pow(r);
    assert!(
        total <= 2_000_000,
        "k^r = {total} tuples is too many; use a narrower field or lower r"
    );
    // Accumulate weights per distinct bit-index set by enumerating all
    // r-tuples (i₁…i_r) ∈ [1, k]^r as base-k numerals.
    let mut weights: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
    let mut tuple = vec![1u32; r as usize];
    for mut t in 0..total {
        for slot in tuple.iter_mut() {
            *slot = (t % u64::from(k)) as u32 + 1;
            t /= u64::from(k);
        }
        // Weight 2^{Σ (k − i_j)}.
        let exponent: u32 = tuple.iter().map(|&i| k - i).sum();
        let weight = if exponent <= 127 {
            (1u128 << exponent) as f64
        } else {
            2f64.powi(exponent as i32)
        };
        let mut distinct: Vec<u32> = tuple.clone();
        distinct.sort_unstable();
        distinct.dedup();
        *weights.entry(distinct).or_insert(0.0) += weight;
    }

    for (bits, weight) in weights {
        let constraints: Vec<Constraint> = bits
            .iter()
            .map(|&i| {
                Constraint::new(field.bit_subset(i), BitString::from_bits(&[true]))
                    .expect("width 1")
            })
            .collect();
        let query = merge_constraints(&constraints)
            .expect("non-empty")
            .expect("distinct single bits cannot contradict");
        plan.push_term(weight, query);
    }
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
    fn moments_match_brute_force() {
        let field = IntField::new(0, 5);
        let values = [0u64, 3, 7, 12, 19, 31, 31, 8];
        let profiles = profiles_for(&values, &field);
        for r in 1..=4u32 {
            let got = exact_values(&moment_plan(&field, r), &profiles)[0];
            let expected = values
                .iter()
                .map(|&v| (v as f64).powi(r as i32))
                .sum::<f64>()
                / values.len() as f64;
            assert!(
                (got - expected).abs() < expected.abs() * 1e-12 + 1e-9,
                "r={r}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn first_moment_equals_mean_query() {
        let field = IntField::new(2, 6);
        let values: Vec<u64> = (0..64).map(|v| (v * 7) % 64).collect();
        let profiles = profiles_for(&values, &field);
        let via_moment = exact_values(&moment_plan(&field, 1), &profiles)[0];
        let via_mean = exact_values(&crate::mean::mean_plan(&field), &profiles)[0];
        assert!((via_moment - via_mean).abs() < 1e-9);
        assert_eq!(moment_plan(&field, 1).cost(), 6);
    }

    #[test]
    fn second_moment_equals_mean_square_query() {
        let field = IntField::new(0, 4);
        let values = [1u64, 5, 9, 15, 2];
        let profiles = profiles_for(&values, &field);
        let via_moment = exact_values(&moment_plan(&field, 2), &profiles)[0];
        let via_sq = exact_values(&crate::product::mean_square_plan(&field), &profiles)[0];
        assert!((via_moment - via_sq).abs() < 1e-9);
    }

    #[test]
    fn variance_via_query_pair() {
        let field = IntField::new(0, 4);
        let values = [2u64, 2, 8, 12];
        let plan = variance_plan(&field);
        let [e2, e1] = exact_values(&plan, &profiles_for(&values, &field))[..] else {
            panic!("the variance plan has two outputs");
        };
        let var = e2 - e1 * e1;
        let mean = values.iter().sum::<u64>() as f64 / 4.0;
        let expected = values
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / 4.0;
        assert!((var - expected).abs() < 1e-9, "{var} vs {expected}");
        // E[a]'s k single-bit terms are E[a²]'s diagonal: counted once.
        assert_eq!(plan.cost(), moment_plan(&field, 2).cost());
    }

    #[test]
    fn query_counts_are_polynomial_not_exponential() {
        let field = IntField::new(0, 8);
        // Width-≤r conjunctions over k bits: Σ_{j≤r} C(k, j).
        assert_eq!(moment_plan(&field, 1).cost(), 8);
        assert_eq!(moment_plan(&field, 2).cost(), 8 + 28);
        assert_eq!(moment_plan(&field, 3).cost(), 8 + 28 + 56);
    }

    #[test]
    #[should_panic(expected = "moment order")]
    fn order_zero_rejected() {
        let _ = moment_plan(&IntField::new(0, 2), 0);
    }
}

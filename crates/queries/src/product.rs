//! §4.1 inner products — `Σ_u a_u·b_u` via k² two-bit queries.
//!
//! The paper: `S = Σᵢ Σⱼ 2^{2k−(i+j)}·I(Aᵢ ∪ Bⱼ, 11)` — the cross terms of
//! the bit decompositions, each a two-bit conjunctive query asking "how
//! many users have bits aᵢ and bⱼ both set". Optionally, terms whose
//! weight contributes less than the expected estimation noise can be
//! dropped (the paper's footnote 6).

use crate::conjunction::{merge_constraints, Constraint};
use crate::plan::TermPlan;
use psketch_core::{BitString, IntField};

/// Compiles the mean inner product `E[a·b]` of two **disjoint** integer
/// fields into a one-output [`TermPlan`] of `k_a · k_b` two-bit
/// conjunctive terms.
///
/// # Panics
///
/// Panics if the fields overlap (an inner product of an attribute with
/// itself needs the diagonal identity `aᵢ·aᵢ = aᵢ` instead; see
/// [`mean_square_plan`]).
#[must_use]
pub fn inner_product_plan(a: &IntField, b: &IntField) -> TermPlan {
    assert!(
        a.end() <= b.offset() || b.end() <= a.offset(),
        "inner_product_plan requires disjoint fields"
    );
    let (ka, kb) = (a.width(), b.width());
    let mut plan = TermPlan::single_output(format!(
        "inner product of fields @{} and @{}",
        a.offset(),
        b.offset()
    ));
    for i in 1..=ka {
        for j in 1..=kb {
            let weight = (1u128 << ((ka - i) + (kb - j))) as f64;
            let query = merge_constraints(&[
                Constraint::new(a.bit_subset(i), BitString::from_bits(&[true])).expect("width 1"),
                Constraint::new(b.bit_subset(j), BitString::from_bits(&[true])).expect("width 1"),
            ])
            .expect("non-empty")
            .expect("disjoint fields cannot contradict");
            plan.push_term(weight, query);
        }
    }
    plan
}

/// Compiles the mean square `E[a²]` of one field into a one-output
/// [`TermPlan`].
///
/// Diagonal terms use `aᵢ² = aᵢ` (single-bit queries); off-diagonal terms
/// are two-bit queries within the field, counted once with doubled weight.
#[must_use]
pub fn mean_square_plan(a: &IntField) -> TermPlan {
    let k = a.width();
    let mut plan = TermPlan::single_output(format!("mean square of field @{}", a.offset()));
    for i in 1..=k {
        for j in i..=k {
            let base_weight = (1u128 << ((k - i) + (k - j))) as f64;
            if i == j {
                let query = merge_constraints(&[Constraint::new(
                    a.bit_subset(i),
                    BitString::from_bits(&[true]),
                )
                .expect("width 1")])
                .expect("non-empty")
                .expect("single constraint cannot contradict");
                plan.push_term(base_weight, query);
            } else {
                let query = merge_constraints(&[
                    Constraint::new(a.bit_subset(i), BitString::from_bits(&[true]))
                        .expect("width 1"),
                    Constraint::new(a.bit_subset(j), BitString::from_bits(&[true]))
                        .expect("width 1"),
                ])
                .expect("non-empty")
                .expect("distinct bits cannot contradict");
                plan.push_term(2.0 * base_weight, query);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::exact_values;
    use psketch_core::Profile;

    fn profiles_for(pairs: &[(u64, u64)], a: &IntField, b: &IntField) -> Vec<Profile> {
        pairs
            .iter()
            .map(|&(va, vb)| {
                let mut p = Profile::zeros(a.end().max(b.end()) as usize);
                a.write(&mut p, va);
                b.write(&mut p, vb);
                p
            })
            .collect()
    }

    #[test]
    fn inner_product_exact_under_exact_oracle() {
        let a = IntField::new(0, 4);
        let b = IntField::new(4, 4);
        let pairs = [(3u64, 5u64), (15, 15), (0, 9), (7, 1)];
        let got = exact_values(&inner_product_plan(&a, &b), &profiles_for(&pairs, &a, &b))[0];
        let expected = pairs.iter().map(|&(x, y)| (x * y) as f64).sum::<f64>() / pairs.len() as f64;
        assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
    }

    #[test]
    fn inner_product_query_count_is_k_squared() {
        let a = IntField::new(0, 5);
        let b = IntField::new(5, 3);
        assert_eq!(inner_product_plan(&a, &b).cost(), 15);
    }

    #[test]
    fn mean_square_exact_under_exact_oracle() {
        let a = IntField::new(0, 4);
        let b = IntField::new(4, 4); // unused filler beside `a`
        let pairs = [(3u64, 0u64), (15, 0), (0, 0), (7, 0), (12, 0)];
        let got = exact_values(&mean_square_plan(&a), &profiles_for(&pairs, &a, &b))[0];
        let expected = pairs.iter().map(|&(x, _)| (x * x) as f64).sum::<f64>() / pairs.len() as f64;
        assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_fields_rejected() {
        let a = IntField::new(0, 4);
        let b = IntField::new(2, 4);
        let _ = inner_product_plan(&a, &b);
    }
}

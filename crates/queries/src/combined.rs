//! §4.1 "Combining queries together" — mixed equality/interval constraints
//! and conditional averages.
//!
//! The paper's examples, reproduced verbatim:
//!
//! * `count(a = c ∧ b < d)`: "k queries of the form
//!   `I(A ∪ Bᵢ, c₁…c_k d₁…d_{i−1} 0)`" — one per set bit of `d`;
//! * the average of `b` over users with `a < c`:
//!   `Σ_{j: cⱼ=1} Σᵢ 2^{k−i} I(Aⱼ ∪ Bᵢ, c₁…c_{j−1}0 1)` divided by the
//!   interval count.

use crate::conjunction::{merge_constraints, Constraint};
use crate::interval::{less_equal_label, push_less_equal};
use crate::plan::TermPlan;
use psketch_core::{BitString, IntField};

/// Compiles `freq(a = c ∧ b < d)` into a one-output [`TermPlan`].
///
/// One merged conjunction per set bit of `d`, each on the union of the
/// full subset `A` and a prefix of `B`.
///
/// # Panics
///
/// Panics if values exceed field ranges or the fields overlap.
#[must_use]
pub fn eq_and_less_than_plan(a: &IntField, c: u64, b: &IntField, d: u64) -> TermPlan {
    assert!(c <= a.max_value(), "c exceeds field a");
    assert!(d <= b.max_value(), "d exceeds field b");
    assert!(
        a.end() <= b.offset() || b.end() <= a.offset(),
        "fields must be disjoint"
    );
    let kb = b.width();
    let mut plan = TermPlan::single_output(format!(
        "freq(a@{} = {c} && b@{} < {d})",
        a.offset(),
        b.offset()
    ));
    let eq_constraint = Constraint::new(a.subset(), a.full_value(c)).expect("widths match");
    for i in 1..=kb {
        let di = (d >> (kb - i)) & 1;
        if di == 0 {
            continue;
        }
        let mut prefix = b.prefix_value(d, i);
        prefix.set((i - 1) as usize, false);
        let lt_constraint = Constraint::new(b.prefix_subset(i), prefix).expect("widths match");
        if let Some(q) = merge_constraints(&[eq_constraint.clone(), lt_constraint])
            .expect("non-empty constraints")
        {
            plan.push_term(1.0, q);
        }
    }
    plan
}

/// Compiles the conditional mean `avg(b | a ≤ c)` into **one**
/// two-output plan: output 0 is the numerator `E[b·1{a ≤ c}]`, output 1
/// the denominator `freq(a ≤ c)`, counted in one execution.
/// [`QueryEngine::ratio`] divides output 0 by output 1 (guarding a
/// non-positive denominator) — the division is the one nonlinear step no
/// linear IR can absorb.
///
/// [`QueryEngine::ratio`]: crate::engine::QueryEngine::ratio
///
/// # Panics
///
/// Panics if `c` exceeds the field range or the fields overlap.
#[must_use]
pub fn conditional_mean_plan(a: &IntField, c: u64, b: &IntField) -> TermPlan {
    let mut plan = TermPlan::new(format!("avg(b@{} | a@{} <= {c})", b.offset(), a.offset()));
    plan.begin_output(
        format!("E[b@{} * 1(a@{} <= {c})]", b.offset(), a.offset()),
        0.0,
    );
    push_conditional_sum(&mut plan, a, c, b);
    // The inclusive condition adds the equality slice `a = c`.
    let eq_constraint = Constraint::new(a.subset(), a.full_value(c)).expect("widths match");
    push_sum_of_b(&mut plan, &eq_constraint, b);
    plan.begin_output(less_equal_label(a, c), 0.0);
    push_less_equal(&mut plan, a, c, 1.0);
    plan
}

/// Pushes the terms of `E[b · 1{a < c}]` onto the plan's current output:
/// for each set bit `j` of `c` (the strict interval decomposition on `a`)
/// and each bit `i` of `b`, the merged conjunction
/// `I(Aⱼ-prefix ∪ {Bᵢ}, c₁…c_{j−1}·0 ‖ 1)` with weight `2^{k_b−i}`.
fn push_conditional_sum(plan: &mut TermPlan, a: &IntField, c: u64, b: &IntField) {
    assert!(c <= a.max_value(), "c exceeds field a");
    assert!(
        a.end() <= b.offset() || b.end() <= a.offset(),
        "fields must be disjoint"
    );
    let ka = a.width();
    for j in 1..=ka {
        let cj = (c >> (ka - j)) & 1;
        if cj == 0 {
            continue;
        }
        let mut prefix = a.prefix_value(c, j);
        prefix.set((j - 1) as usize, false);
        let a_constraint = Constraint::new(a.prefix_subset(j), prefix).expect("widths match");
        push_sum_of_b(plan, &a_constraint, b);
    }
}

/// Pushes `Σᵢ 2^{k_b−i}·I(condition ∪ {Bᵢ}, … ‖ 1)` — the sum of `b`
/// over the users meeting `condition` — onto the plan's current output.
fn push_sum_of_b(plan: &mut TermPlan, condition: &Constraint, b: &IntField) {
    let kb = b.width();
    for i in 1..=kb {
        let weight = (1u64 << (kb - i)) as f64;
        let b_constraint =
            Constraint::new(b.bit_subset(i), BitString::from_bits(&[true])).expect("width 1");
        if let Some(q) =
            merge_constraints(&[condition.clone(), b_constraint]).expect("non-empty constraints")
        {
            plan.push_term(weight, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::less_than_plan;
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

    fn all_pairs(bits: u32) -> Vec<(u64, u64)> {
        let n = 1u64 << bits;
        (0..n).flat_map(|x| (0..n).map(move |y| (x, y))).collect()
    }

    /// The strict numerator `E[b·1{a < c}]` as a one-output plan.
    fn conditional_sum_plan(a: &IntField, c: u64, b: &IntField) -> TermPlan {
        let mut plan = TermPlan::single_output("strict conditional sum");
        push_conditional_sum(&mut plan, a, c, b);
        plan
    }

    #[test]
    fn eq_and_lt_matches_brute_force() {
        let a = IntField::new(0, 3);
        let b = IntField::new(3, 3);
        let pairs = all_pairs(3);
        let profiles = profiles_for(&pairs, &a, &b);
        for c in 0..8u64 {
            for d in 0..8u64 {
                let got = exact_values(&eq_and_less_than_plan(&a, c, &b, d), &profiles)[0];
                let expected = pairs.iter().filter(|&&(x, y)| x == c && y < d).count() as f64
                    / pairs.len() as f64;
                assert!(
                    (got - expected).abs() < 1e-12,
                    "c={c} d={d}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn conditional_sum_matches_brute_force() {
        let a = IntField::new(0, 3);
        let b = IntField::new(3, 3);
        let pairs: Vec<(u64, u64)> = all_pairs(3).into_iter().filter(|&(x, y)| x != y).collect();
        let profiles = profiles_for(&pairs, &a, &b);
        for c in 0..8u64 {
            let got = exact_values(&conditional_sum_plan(&a, c, &b), &profiles)[0];
            let expected = pairs
                .iter()
                .filter(|&&(x, _)| x < c)
                .map(|&(_, y)| y as f64)
                .sum::<f64>()
                / pairs.len() as f64;
            assert!((got - expected).abs() < 1e-9, "c={c}: {got} vs {expected}");
        }
    }

    #[test]
    fn conditional_mean_via_ratio() {
        // avg(b | a ≤ c) = E[b·1{a≤c}]/freq(a≤c), all over exact frequencies.
        let a = IntField::new(0, 3);
        let b = IntField::new(3, 3);
        let pairs = all_pairs(3);
        let c = 4u64;
        let plan = conditional_mean_plan(&a, c, &b);
        let [num, den] = exact_values(&plan, &profiles_for(&pairs, &a, &b))[..] else {
            panic!("the conditional mean plan has two outputs");
        };
        let got = num / den;
        let selected: Vec<f64> = pairs
            .iter()
            .filter(|&&(x, _)| x <= c)
            .map(|&(_, y)| y as f64)
            .collect();
        let expected = selected.iter().sum::<f64>() / selected.len() as f64;
        assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
    }

    #[test]
    fn strict_and_inclusive_sums_differ_by_equality_slice() {
        let a = IntField::new(0, 3);
        let b = IntField::new(3, 3);
        let pairs = all_pairs(3);
        let profiles = profiles_for(&pairs, &a, &b);
        let c = 5u64;
        let strict = exact_values(&conditional_sum_plan(&a, c, &b), &profiles)[0];
        let inclusive = exact_values(&conditional_mean_plan(&a, c, &b), &profiles)[0];
        let slice = pairs
            .iter()
            .filter(|&&(x, _)| x == c)
            .map(|&(_, y)| y as f64)
            .sum::<f64>()
            / pairs.len() as f64;
        assert!(((inclusive - strict) - slice).abs() < 1e-9);
    }

    #[test]
    fn query_count_accounting() {
        let a = IntField::new(0, 4);
        let b = IntField::new(4, 4);
        // d = 0b1010 has two set bits.
        assert_eq!(eq_and_less_than_plan(&a, 3, &b, 0b1010).cost(), 2);
        // c = 0b1100: two set bits × 4 b-bits = 8 numerator terms.
        assert_eq!(conditional_sum_plan(&a, 0b1100, &b).cost(), 8);
        // Inclusive adds k_b = 4 equality-slice terms; the denominator
        // freq(a ≤ c) adds its popcount(c) + 1 = 3 terms on `a` alone.
        let plan = conditional_mean_plan(&a, 0b1100, &b);
        assert_eq!(plan.outputs()[0].distinct_terms(), 12);
        assert_eq!(plan.cost(), 12 + 3);
    }

    #[test]
    fn strict_and_less_than_agree_with_interval_module() {
        // Summing eq_and_less_than over every value of `a` must give the
        // marginal freq(b < d): cross-check the shared decomposition
        // against interval::less_than_plan on b alone.
        let a = IntField::new(0, 2);
        let b = IntField::new(2, 3);
        let pairs = all_pairs_mixed();
        let profiles = profiles_for(&pairs, &a, &b);
        let d = 5u64;
        let combined: f64 = (0..4u64)
            .map(|c| exact_values(&eq_and_less_than_plan(&a, c, &b, d), &profiles)[0])
            .sum();
        let marginal = exact_values(&less_than_plan(&b, d), &profiles)[0];
        assert!((combined - marginal).abs() < 1e-9);
    }

    fn all_pairs_mixed() -> Vec<(u64, u64)> {
        (0..4u64)
            .flat_map(|x| (0..8u64).map(move |y| (x, y)))
            .collect()
    }

    #[test]
    #[should_panic(expected = "fields must be disjoint")]
    fn overlapping_fields_rejected() {
        let a = IntField::new(0, 4);
        let b = IntField::new(3, 4);
        let _ = eq_and_less_than_plan(&a, 0, &b, 1);
    }
}

//! §4.1 "Computing Means/averages" — sums via bit decomposition.
//!
//! The paper expands a k-bit attribute as `a_u = Σᵢ a_{u,i}·2^{k−i}` and
//! rearranges the population sum into `S = Σᵢ 2^{k−i}·I(Aᵢ, 1)`: one
//! single-bit conjunctive query per bit of the attribute. "If each bit gets
//! released, it is sufficient to release the sketch of each bit in the
//! underlying binary representation."

use crate::plan::TermPlan;
use psketch_core::{BitString, ConjunctiveQuery, IntField};

/// Compiles the *mean* of `field` (population sum divided by `M`) into a
/// one-output [`TermPlan`] with one single-bit term per attribute bit,
/// executable in-process, on a server, or across a sharded cluster.
///
/// The output is `E[a] = Σᵢ 2^{k−i}·freq(aᵢ = 1)`.
#[must_use]
pub fn mean_plan(field: &IntField) -> TermPlan {
    let k = field.width();
    let mut plan = TermPlan::single_output(format!("mean of {k}-bit field @{}", field.offset()));
    for i in 1..=k {
        let weight = (1u64 << (k - i)) as f64;
        let query = ConjunctiveQuery::new(field.bit_subset(i), BitString::from_bits(&[true]))
            .expect("single-bit widths always match");
        plan.push_term(weight, query);
    }
    plan
}

/// The subsets users must sketch for [`mean_plan`]: each single bit of
/// the field.
#[must_use]
pub fn mean_required_subsets(field: &IntField) -> Vec<psketch_core::BitSubset> {
    (1..=field.width()).map(|i| field.bit_subset(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::exact_values;
    use psketch_core::Profile;

    /// The population of `values` written into `field`.
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
    fn mean_is_exact_under_exact_oracle() {
        let field = IntField::new(0, 5);
        let values = [0u64, 7, 31, 12, 12];
        let mean = exact_values(&mean_plan(&field), &profiles_for(&values, &field))[0];
        let expected = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((mean - expected).abs() < 1e-9, "mean {mean} vs {expected}");
    }

    #[test]
    fn query_count_is_one_per_bit() {
        let field = IntField::new(3, 8);
        let plan = mean_plan(&field);
        assert_eq!(plan.cost(), 8);
        assert_eq!(plan.required_subsets().len(), 8);
        assert_eq!(mean_required_subsets(&field).len(), 8);
    }

    #[test]
    fn weights_are_powers_of_two_msb_first() {
        let field = IntField::new(0, 4);
        let plan = mean_plan(&field);
        let coeffs: Vec<f64> = plan.outputs()[0]
            .combination()
            .iter()
            .map(|&(coeff, _)| coeff)
            .collect();
        assert_eq!(coeffs, [8.0, 4.0, 2.0, 1.0]);
    }
}

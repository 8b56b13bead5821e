//! DNF queries — disjunctions of conjunctions via inclusion–exclusion.
//!
//! Appendix F notes that the combining machinery "could be used to
//! estimate how many users satisfy a disjunction of conjunctions"; this
//! module provides the direct route for small DNFs over *sketched*
//! subsets: `freq(C₁ ∨ … ∨ C_t)` expands by inclusion–exclusion into
//! `2^t − 1` signed conjunction frequencies, where each intersection
//! `Cᵢ ∧ Cⱼ ∧ …` merges through [`crate::conjunction::merge_constraints`]
//! (contradictory intersections contribute exactly zero and cost no
//! query). Practical for the handfuls of clauses real predicates have;
//! for wide unions over shared subsets use
//! [`CombinedEstimator`](psketch_core::CombinedEstimator) instead.

use crate::conjunction::{merge_constraints, Constraint};
use crate::plan::TermPlan;
use psketch_core::{ConjunctiveQuery, Error};

/// Maximum clause count (the expansion is `2^t − 1` terms).
pub const MAX_CLAUSES: usize = 12;

/// Compiles `freq(C₁ ∨ … ∨ C_t)` into a one-output [`TermPlan`] by
/// inclusion–exclusion: one signed term per non-contradictory
/// intersection, deduplicated at compile time.
///
/// # Errors
///
/// Propagates constraint-width errors.
///
/// # Panics
///
/// Panics for an empty clause list or more than [`MAX_CLAUSES`] clauses.
pub fn dnf_plan(clauses: &[ConjunctiveQuery]) -> Result<TermPlan, Error> {
    assert!(!clauses.is_empty(), "DNF needs at least one clause");
    assert!(
        clauses.len() <= MAX_CLAUSES,
        "inclusion–exclusion over {} clauses is impractical",
        clauses.len()
    );
    let t = clauses.len();
    let mut plan = TermPlan::single_output(format!("DNF of {t} clauses"));
    for mask in 1u32..(1 << t) {
        let sign = if mask.count_ones() % 2 == 1 {
            1.0
        } else {
            -1.0
        };
        let constraints: Vec<Constraint> = (0..t)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| Constraint::new(clauses[i].subset().clone(), clauses[i].value().clone()))
            .collect::<Result<_, _>>()?;
        // A contradictory intersection has frequency exactly 0: no term.
        if let Some(q) = merge_constraints(&constraints)? {
            plan.push_term(sign, q);
        }
    }
    Ok(plan)
}

/// Every subset the DNF evaluation needs sketched (the union subsets of
/// all non-contradictory intersections).
///
/// # Errors
///
/// As [`dnf_plan`].
pub fn dnf_required_subsets(
    clauses: &[ConjunctiveQuery],
) -> Result<Vec<psketch_core::BitSubset>, Error> {
    Ok(dnf_plan(clauses)?.required_subsets())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::exact_values;
    use psketch_core::{BitString, BitSubset, Profile};
    use psketch_prf::Prg;
    use rand::{RngExt, SeedableRng};

    fn clause(positions: &[u32], bits: &[bool]) -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            BitSubset::new(positions.to_vec()).unwrap(),
            BitString::from_bits(bits),
        )
        .unwrap()
    }

    fn exact_eval(plan: &TermPlan, profiles: &[Profile]) -> f64 {
        exact_values(plan, profiles)[0]
    }

    fn cube(bits: usize) -> Vec<Profile> {
        (0..1u64 << bits)
            .map(|v| Profile::from_bits(&(0..bits).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn single_clause_is_identity() {
        let c = clause(&[0, 1], &[true, false]);
        let profiles = cube(3);
        let got = exact_eval(&dnf_plan(std::slice::from_ref(&c)).unwrap(), &profiles);
        let expected = profiles
            .iter()
            .filter(|p| p.satisfies(c.subset(), c.value()))
            .count() as f64
            / profiles.len() as f64;
        assert!((got - expected).abs() < 1e-12);
    }

    #[test]
    fn disjunction_matches_brute_force_on_cube() {
        let clauses = vec![
            clause(&[0], &[true]),
            clause(&[1, 2], &[true, true]),
            clause(&[3], &[false]),
        ];
        let profiles = cube(4);
        let got = exact_eval(&dnf_plan(&clauses).unwrap(), &profiles);
        let expected = profiles
            .iter()
            .filter(|p| clauses.iter().any(|c| p.satisfies(c.subset(), c.value())))
            .count() as f64
            / profiles.len() as f64;
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn contradictory_intersections_cost_no_queries() {
        // C1: x0 = 1; C2: x0 = 0 — their intersection is empty.
        let clauses = vec![clause(&[0], &[true]), clause(&[0], &[false])];
        let plan = dnf_plan(&clauses).unwrap();
        // Terms: C1 and C2; C1∧C2 contributes nothing.
        assert_eq!(plan.cost(), 2);
        assert_eq!(plan.outputs()[0].combination().len(), 2);
        let profiles = cube(2);
        // x0=1 ∨ x0=0 is a tautology.
        assert!((exact_eval(&plan, &profiles) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_dnfs_match_brute_force() {
        let mut rng = Prg::seed_from_u64(70);
        let profiles = cube(5);
        for _ in 0..30 {
            let t = rng.random_range(1..=4usize);
            let clauses: Vec<ConjunctiveQuery> = (0..t)
                .map(|_| {
                    let width = rng.random_range(1..=3usize);
                    let mut positions: Vec<u32> = Vec::new();
                    while positions.len() < width {
                        let p = rng.random_range(0..5u32);
                        if !positions.contains(&p) {
                            positions.push(p);
                        }
                    }
                    let bits: Vec<bool> = (0..width).map(|_| rng.random()).collect();
                    clause(&positions, &bits)
                })
                .collect();
            let got = exact_eval(&dnf_plan(&clauses).unwrap(), &profiles);
            let expected = profiles
                .iter()
                .filter(|p| clauses.iter().any(|c| p.satisfies(c.subset(), c.value())))
                .count() as f64
                / profiles.len() as f64;
            assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
        }
    }

    #[test]
    fn required_subsets_cover_all_intersections() {
        let clauses = vec![clause(&[0], &[true]), clause(&[2], &[true])];
        let subs = dnf_required_subsets(&clauses).unwrap();
        // {0}, {2}, {0,2}.
        assert_eq!(subs.len(), 3);
    }

    #[test]
    #[should_panic(expected = "impractical")]
    fn too_many_clauses_rejected() {
        let clauses: Vec<ConjunctiveQuery> = (0..13u32).map(|i| clause(&[i], &[true])).collect();
        let _ = dnf_plan(&clauses);
    }
}

//! Building conjunctive queries from heterogeneous constraints.
//!
//! The §4.1 compilers repeatedly form queries like
//! `I(A ∪ Bᵢ, c₁…c_k d₁…d_{i−1} 0)` — a conjunction whose subset is the
//! union of several attribute windows and whose value interleaves pieces
//! from each constraint. [`merge_constraints`] performs that union/align
//! step once, correctly, for everyone: it resolves the sorted position
//! order and detects contradictory overlaps (which make the conjunction
//! unsatisfiable).

use psketch_core::{BitString, BitSubset, ConjunctiveQuery, Error};
use std::collections::BTreeMap;

/// One constraint: every position of `subset` must equal the aligned bit
/// of `value`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Constrained positions.
    pub subset: BitSubset,
    /// Required bits, aligned to `subset.positions()` order.
    pub value: BitString,
}

impl Constraint {
    /// Builds a constraint after width validation.
    ///
    /// # Errors
    ///
    /// [`Error::WidthMismatch`] unless widths agree.
    pub fn new(subset: BitSubset, value: BitString) -> Result<Self, Error> {
        if subset.len() != value.len() {
            return Err(Error::WidthMismatch {
                subset: subset.len(),
                value: value.len(),
            });
        }
        Ok(Self { subset, value })
    }
}

/// Merges constraints into a single conjunctive query on the union subset.
///
/// Returns `Ok(None)` when two constraints demand different values at the
/// same position — the conjunction is unsatisfiable and its frequency is
/// exactly zero, which callers encode without issuing any query.
///
/// # Errors
///
/// [`Error::WidthMismatch`] via [`Constraint::new`] misuse is prevented by
/// construction; the only error path is an empty input, reported as
/// [`Error::EmptyDatabase`]-free [`Error::Subset`] (empty subset).
pub fn merge_constraints(constraints: &[Constraint]) -> Result<Option<ConjunctiveQuery>, Error> {
    let mut required: BTreeMap<u32, bool> = BTreeMap::new();
    for c in constraints {
        for (j, &pos) in c.subset.positions().iter().enumerate() {
            let bit = c.value.get(j);
            if let Some(&existing) = required.get(&pos) {
                if existing != bit {
                    return Ok(None); // contradictory: frequency is 0
                }
            } else {
                required.insert(pos, bit);
            }
        }
    }
    let positions: Vec<u32> = required.keys().copied().collect();
    let bits: Vec<bool> = required.values().copied().collect();
    let subset = BitSubset::new(positions)?;
    let query = ConjunctiveQuery::new(subset, BitString::from_bits(&bits))?;
    Ok(Some(query))
}

/// Compiles a conjunction of heterogeneous constraints into a
/// [`TermPlan`](crate::plan::TermPlan): a single merged term, or a
/// constant-zero output when the constraints contradict (no term, so
/// answering it takes no count read).
///
/// # Errors
///
/// As [`merge_constraints`].
pub fn conjunction_plan(constraints: &[Constraint]) -> Result<crate::plan::TermPlan, Error> {
    let mut plan =
        crate::plan::TermPlan::new(format!("conjunction of {} constraints", constraints.len()));
    plan.begin_output("frequency", 0.0);
    if let Some(query) = merge_constraints(constraints)? {
        plan.push_term(1.0, query);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constraint(positions: &[u32], bits: &[bool]) -> Constraint {
        Constraint::new(
            BitSubset::new(positions.to_vec()).unwrap(),
            BitString::from_bits(bits),
        )
        .unwrap()
    }

    #[test]
    fn merges_disjoint_windows() {
        let a = constraint(&[0, 1], &[true, false]);
        let b = constraint(&[4, 5], &[false, true]);
        let q = merge_constraints(&[a, b]).unwrap().unwrap();
        assert_eq!(q.subset().positions(), &[0, 1, 4, 5]);
        assert_eq!(q.value().to_bools(), [true, false, false, true]);
    }

    #[test]
    fn interleaved_positions_align_correctly() {
        let a = constraint(&[0, 4], &[true, true]);
        let b = constraint(&[2], &[false]);
        let q = merge_constraints(&[a, b]).unwrap().unwrap();
        assert_eq!(q.subset().positions(), &[0, 2, 4]);
        assert_eq!(q.value().to_bools(), [true, false, true]);
    }

    #[test]
    fn consistent_overlap_is_deduplicated() {
        let a = constraint(&[1, 2], &[true, true]);
        let b = constraint(&[2, 3], &[true, false]);
        let q = merge_constraints(&[a, b]).unwrap().unwrap();
        assert_eq!(q.subset().positions(), &[1, 2, 3]);
        assert_eq!(q.value().to_bools(), [true, true, false]);
    }

    #[test]
    fn contradictory_overlap_yields_none() {
        let a = constraint(&[2], &[true]);
        let b = constraint(&[2], &[false]);
        assert!(merge_constraints(&[a, b]).unwrap().is_none());
    }

    #[test]
    fn constraint_width_validated() {
        assert!(Constraint::new(
            BitSubset::new(vec![0, 1]).unwrap(),
            BitString::from_bits(&[true]),
        )
        .is_err());
    }

    #[test]
    fn empty_input_errors() {
        assert!(merge_constraints(&[]).is_err());
    }
}

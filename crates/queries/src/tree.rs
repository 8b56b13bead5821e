//! §4.1 decision-tree queries.
//!
//! "One can estimate the fraction of users that satisfy a given decision
//! tree. Each path in the decision tree corresponds to a single conjunctive
//! query and any user satisfies at most one path of the decision tree. Thus
//! the total fraction of users who satisfy a decision tree is simply the
//! sum of the fraction of users that satisfy each path."

use crate::conjunction::{merge_constraints, Constraint};
use crate::plan::TermPlan;
use psketch_core::{BitString, BitSubset, ConjunctiveQuery, Profile};

/// A binary decision tree over profile attributes.
#[derive(Debug, Clone)]
pub enum DecisionTree {
    /// A leaf: accept (`true`) or reject (`false`).
    Leaf(bool),
    /// An internal split on one attribute.
    Split {
        /// The attribute position tested.
        attribute: u32,
        /// Subtree taken when the attribute is 0.
        if_zero: Box<DecisionTree>,
        /// Subtree taken when the attribute is 1.
        if_one: Box<DecisionTree>,
    },
}

impl DecisionTree {
    /// Convenience constructor for a split node.
    #[must_use]
    pub fn split(attribute: u32, if_zero: DecisionTree, if_one: DecisionTree) -> Self {
        Self::Split {
            attribute,
            if_zero: Box::new(if_zero),
            if_one: Box::new(if_one),
        }
    }

    /// Evaluates the tree on a profile (ground truth).
    ///
    /// # Panics
    ///
    /// Panics if a tested attribute exceeds the profile width.
    #[must_use]
    pub fn evaluate(&self, profile: &Profile) -> bool {
        match self {
            Self::Leaf(accept) => *accept,
            Self::Split {
                attribute,
                if_zero,
                if_one,
            } => {
                if profile.get(*attribute as usize) {
                    if_one.evaluate(profile)
                } else {
                    if_zero.evaluate(profile)
                }
            }
        }
    }

    /// Depth of the tree (leaf = 0).
    #[must_use]
    pub fn depth(&self) -> usize {
        match self {
            Self::Leaf(_) => 0,
            Self::Split {
                if_zero, if_one, ..
            } => 1 + if_zero.depth().max(if_one.depth()),
        }
    }

    /// Enumerates accepting root-to-leaf paths as conjunctive queries.
    ///
    /// Paths that test the same attribute twice *consistently* are
    /// deduplicated by [`merge_constraints`]; paths testing it
    /// *contradictorily* are unreachable and dropped (their frequency is
    /// identically zero).
    #[must_use]
    pub fn accepting_paths(&self) -> Vec<ConjunctiveQuery> {
        let mut paths = Vec::new();
        let mut prefix: Vec<(u32, bool)> = Vec::new();
        self.walk(&mut prefix, &mut paths);
        paths
    }

    fn walk(&self, prefix: &mut Vec<(u32, bool)>, out: &mut Vec<ConjunctiveQuery>) {
        match self {
            Self::Leaf(false) => {}
            Self::Leaf(true) => {
                if prefix.is_empty() {
                    // Accept-everything tree: handled by the compiler via
                    // the constant term; no conjunctive query exists for
                    // the empty subset.
                    return;
                }
                let constraints: Vec<Constraint> = prefix
                    .iter()
                    .map(|&(attr, v)| {
                        Constraint::new(BitSubset::single(attr), BitString::from_bits(&[v]))
                            .expect("width 1")
                    })
                    .collect();
                if let Ok(Some(q)) = merge_constraints(&constraints) {
                    out.push(q);
                }
            }
            Self::Split {
                attribute,
                if_zero,
                if_one,
            } => {
                prefix.push((*attribute, false));
                if_zero.walk(prefix, out);
                prefix.pop();
                prefix.push((*attribute, true));
                if_one.walk(prefix, out);
                prefix.pop();
            }
        }
    }

    /// Compiles the tree's acceptance fraction into a one-output
    /// [`TermPlan`]: one unit-weight term per accepting path (paths are
    /// disjoint, so the sum is the fraction). The accept-everything tree
    /// has no path conjunction; its fraction is the constant 1.
    #[must_use]
    pub fn to_plan(&self) -> TermPlan {
        let label = format!("decision tree (depth {})", self.depth());
        let constant = if matches!(self, Self::Leaf(true)) {
            1.0
        } else {
            0.0
        };
        let mut plan = TermPlan::new(label.clone());
        plan.begin_output(label, constant);
        for q in self.accepting_paths() {
            plan.push_term(1.0, q);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::exact_values;
    use psketch_prf::Prg;
    use rand::{RngExt, SeedableRng};

    /// x0 ? (x1 ? accept : reject) : (x2 ? reject : accept)
    fn sample_tree() -> DecisionTree {
        DecisionTree::split(
            0,
            DecisionTree::split(2, DecisionTree::Leaf(true), DecisionTree::Leaf(false)),
            DecisionTree::split(1, DecisionTree::Leaf(false), DecisionTree::Leaf(true)),
        )
    }

    #[test]
    fn evaluate_matches_structure() {
        let t = sample_tree();
        assert!(t.evaluate(&Profile::from_bits(&[true, true, false])));
        assert!(!t.evaluate(&Profile::from_bits(&[true, false, false])));
        assert!(t.evaluate(&Profile::from_bits(&[false, true, false])));
        assert!(!t.evaluate(&Profile::from_bits(&[false, true, true])));
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn paths_partition_acceptance() {
        // Sum of path frequencies over all 8 profiles = acceptance rate.
        let t = sample_tree();
        let paths = t.accepting_paths();
        assert_eq!(paths.len(), 2);
        let profiles: Vec<Profile> = (0..8u64)
            .map(|v| Profile::from_bits(&[(v & 1) == 1, (v & 2) == 2, (v & 4) == 4]))
            .collect();
        for p in &profiles {
            let direct = t.evaluate(p);
            let by_paths = paths
                .iter()
                .filter(|q| p.satisfies(q.subset(), q.value()))
                .count();
            assert!(by_paths <= 1, "paths must be disjoint");
            assert_eq!(direct, by_paths == 1);
        }
    }

    #[test]
    fn linear_query_matches_brute_force_on_random_trees() {
        let mut rng = Prg::seed_from_u64(41);
        // Random depth-3 trees over 4 attributes, possibly retesting bits.
        for _ in 0..25 {
            let tree = random_tree(&mut rng, 3, 4);
            let profiles: Vec<Profile> = (0..16u64)
                .map(|v| Profile::from_bits(&[v & 1 == 1, v & 2 == 2, v & 4 == 4, v & 8 == 8]))
                .collect();
            let expected = profiles.iter().filter(|p| tree.evaluate(p)).count() as f64 / 16.0;
            let got = exact_values(&tree.to_plan(), &profiles)[0];
            assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
        }
    }

    fn random_tree<R: rand::Rng + ?Sized>(rng: &mut R, depth: usize, attrs: u32) -> DecisionTree {
        if depth == 0 || rng.random::<f64>() < 0.3 {
            return DecisionTree::Leaf(rng.random());
        }
        DecisionTree::split(
            rng.random_range(0..attrs),
            random_tree(rng, depth - 1, attrs),
            random_tree(rng, depth - 1, attrs),
        )
    }

    #[test]
    fn contradictory_paths_are_dropped() {
        // x0 ? (x0 ? reject : accept) : reject — the accepting path needs
        // x0 = 1 and x0 = 0 simultaneously: unreachable.
        let t = DecisionTree::split(
            0,
            DecisionTree::Leaf(false),
            DecisionTree::split(0, DecisionTree::Leaf(true), DecisionTree::Leaf(false)),
        );
        assert!(t.accepting_paths().is_empty());
        assert_eq!(t.to_plan().cost(), 0);
    }

    #[test]
    fn duplicate_consistent_tests_are_merged() {
        // x0 ? (x0 ? accept : _) : reject — accepting path tests x0 twice,
        // consistently; merged to a single-literal conjunction.
        let t = DecisionTree::split(
            0,
            DecisionTree::Leaf(false),
            DecisionTree::split(0, DecisionTree::Leaf(false), DecisionTree::Leaf(true)),
        );
        let paths = t.accepting_paths();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].width(), 1);
    }

    #[test]
    fn trivial_trees() {
        assert_eq!(
            DecisionTree::Leaf(true).to_plan().outputs()[0].constant,
            1.0
        );
        assert_eq!(DecisionTree::Leaf(true).to_plan().cost(), 0);
        assert_eq!(DecisionTree::Leaf(false).to_plan().cost(), 0);
        assert_eq!(
            DecisionTree::Leaf(false).to_plan().outputs()[0].constant,
            0.0
        );
    }
}

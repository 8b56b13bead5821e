//! # psketch-queries — the derived query layer (§4.1 + Appendix E)
//!
//! The paper's §4.1 shows that the basic conjunctive query is expressive:
//! means, inner products, interval queries, combined constraints,
//! conditional averages and decision trees all compile into *small*
//! collections of conjunctive queries. This crate is that compiler plus an
//! execution engine. Every family builds one [`TermPlan`] directly:
//!
//! * [`plan`] — the one query IR: a deduplicated term list plus linear
//!   post-combinations (weighted sums of conjunctive frequencies),
//!   executable bit-identically by the in-process engine, a single
//!   server, or a sharded cluster router;
//! * [`conjunction`] — merging heterogeneous constraints into single
//!   conjunctions on union subsets (the `I(A ∪ Bᵢ, …)` constructions);
//! * [`mean`] — sums/means via bit decomposition (k single-bit queries);
//! * [`product`] — inner products (k² two-bit queries) and mean squares;
//! * [`interval`] — `a < c` / `a ≤ c` / ranges via popcount(c) prefix
//!   conjunctions;
//! * [`combined`] — `a = c ∧ b < d` and conditional sums;
//! * [`tree`] — decision trees as sums over accepting paths;
//! * [`bits`] — perturbed-bit tables and the unbiased product estimator
//!   (the machinery behind Appendix E and the randomized-response
//!   comparisons);
//! * [`categorical`] — §3's non-binary mining: histograms, modes and
//!   contingency cells over categorical attributes, one sketch per field;
//! * [`sumlt`] — Appendix E's `a + b < 2^r` via XOR virtual bits, `r+1`
//!   conjunctions instead of `2^{r+1} − 1`;
//! * [`engine`] — evaluation of all of the above against a
//!   [`SketchDb`](psketch_core::SketchDb).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod categorical;
pub mod combined;
pub mod conjunction;
pub mod dnf;
pub mod engine;
pub mod interval;
pub mod mean;
pub mod moment;
pub mod plan;
pub mod product;
pub mod sumlt;
pub mod tree;

pub use bits::{perturbed_conjunction_plan, PerturbedBitTable};
pub use categorical::{contingency_plan, histogram_plan, CategoricalAttribute, Histogram};
pub use combined::{conditional_mean_plan, eq_and_less_than_plan};
pub use conjunction::{conjunction_plan, merge_constraints, Constraint};
pub use dnf::{dnf_plan, dnf_required_subsets};
pub use engine::{EngineStatsSnapshot, LinearAnswer, QueryEngine};
pub use interval::{interval_required_subsets, less_equal_plan, less_than_plan, range_plan};
pub use mean::{mean_plan, mean_required_subsets};
pub use moment::{moment_plan, variance_plan};
pub use plan::{PlanAccumulator, PlanOutput, TermPlan};
pub use product::{inner_product_plan, mean_square_plan};
pub use sumlt::{
    naive_conjunction_count, sum_less_than_pow2, sum_lt_plan, sum_lt_truth, SumLtEstimate,
};
pub use tree::DecisionTree;

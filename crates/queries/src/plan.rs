//! The query-plan IR: every query family compiles to one [`TermPlan`].
//!
//! The paper's analyst side (Algorithm 2, Corollary 3.4) reduces *every*
//! derived query — conjunctions, DNF, intervals, means, moments,
//! decision-tree splits, histograms — to weighted combinations of
//! conjunctive term estimates. [`TermPlan`] is that reduction made
//! explicit and executable anywhere:
//!
//! * a **deduplicated term list**: the distinct conjunctive queries the
//!   plan needs counted (each term is one shard scan, and one ε charge
//!   under Corollary 3.4 accounting — [`TermPlan::cost`]);
//! * one or more **outputs**, each a linear post-combination
//!   `constant + Σ coeffⱼ · freq(termⱼ)` over the shared term list
//!   (a histogram is one output per level; a conditional mean is a
//!   numerator output and a denominator output sharing terms).
//!
//! Executors only ever need the term estimates; [`TermPlan::evaluate`]
//! runs the float combination identically everywhere, so a plan executed
//! against a local [`SketchDb`](psketch_core::SketchDb), through a
//! single server's `Plan` frame, or by a cluster router merging
//! per-shard integer counts ([`PlanAccumulator`]) produces
//! **bit-identical** answers: the counts behind each term estimate are
//! exact integers, the Algorithm 2 inversion runs once per term, and the
//! combination replays the compiler's term order exactly.

use crate::engine::LinearAnswer;
use crate::linear::LinearQuery;
use psketch_core::{BitString, BitSubset, ConjunctiveQuery, Error, Estimate};
use std::collections::HashMap;

fn plan_err(reason: impl Into<String>) -> Error {
    Error::Codec {
        reason: reason.into(),
    }
}

/// One output in raw-parts form: `(label, constant, combination)` —
/// the shape the wire decoder hands to [`TermPlan::from_parts`].
pub type RawOutput = (String, f64, Vec<(f64, usize)>);

/// One output of a plan: a linear combination over the plan's shared
/// term list, plus a constant.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutput {
    /// Human-readable label (reports, `--json` output).
    pub label: String,
    /// Constant offset added to the combination.
    pub constant: f64,
    /// `(coeff, term slot)` in original compiler order — the order
    /// matters for float bit-identity with the legacy evaluation.
    combination: Vec<(f64, usize)>,
}

impl PlanOutput {
    /// The weighted term references, in evaluation order.
    #[must_use]
    pub fn combination(&self) -> &[(f64, usize)] {
        &self.combination
    }

    /// Number of *distinct* terms this output references.
    #[must_use]
    pub fn distinct_terms(&self) -> usize {
        let mut slots: Vec<usize> = self.combination.iter().map(|&(_, s)| s).collect();
        slots.sort_unstable();
        slots.dedup();
        slots.len()
    }
}

/// A compiled query plan: deduplicated conjunctive terms plus linear
/// post-combinations. See the module docs.
#[derive(Debug, Clone)]
pub struct TermPlan {
    description: String,
    terms: Vec<ConjunctiveQuery>,
    outputs: Vec<PlanOutput>,
    /// Compile-time interning index over `terms` — constant-time
    /// deduplication during construction (a `2^16`-term distribution
    /// plan must not pay a quadratic scan). Not part of the plan's
    /// identity: equality and the wire encoding see only the fields
    /// above.
    index: HashMap<ConjunctiveQuery, usize>,
}

impl PartialEq for TermPlan {
    fn eq(&self, other: &Self) -> bool {
        self.description == other.description
            && self.terms == other.terms
            && self.outputs == other.outputs
    }
}

impl TermPlan {
    /// Creates an empty plan. Compilers then alternate
    /// [`TermPlan::begin_output`] and [`TermPlan::push_term`].
    #[must_use]
    pub fn new(description: impl Into<String>) -> Self {
        Self {
            description: description.into(),
            terms: Vec::new(),
            outputs: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Starts a new output with the given label and constant; subsequent
    /// [`TermPlan::push_term`] calls append to it.
    pub fn begin_output(&mut self, label: impl Into<String>, constant: f64) -> &mut Self {
        self.outputs.push(PlanOutput {
            label: label.into(),
            constant,
            combination: Vec::new(),
        });
        self
    }

    /// Appends a weighted conjunctive term to the current output,
    /// interning the query into the shared term list (a term already
    /// present — from this or any earlier output — is reused, so each
    /// distinct term is counted once however often it is referenced).
    ///
    /// # Panics
    ///
    /// Panics if no output has been started.
    pub fn push_term(&mut self, coeff: f64, query: ConjunctiveQuery) -> &mut Self {
        let slot = match self.index.get(&query) {
            Some(&i) => i,
            None => {
                let slot = self.terms.len();
                self.index.insert(query.clone(), slot);
                self.terms.push(query);
                slot
            }
        };
        self.outputs
            .last_mut()
            .expect("begin_output before push_term")
            .combination
            .push((coeff, slot));
        self
    }

    /// Compiles a linear query into a single-output plan. Duplicate
    /// conjunctive terms share one slot; provably-zero terms
    /// ([`LinearQuery::push_zero`]) are dropped, exactly as
    /// [`LinearQuery::evaluate_with`] skips them.
    #[must_use]
    pub fn compile(lq: &LinearQuery) -> Self {
        Self::from_queries(lq.description.clone(), [lq])
    }

    /// Compiles several linear queries into one multi-output plan with a
    /// shared term list: a conjunctive term appearing in any two of the
    /// queries is counted once.
    #[must_use]
    pub fn from_queries<'a>(
        description: impl Into<String>,
        lqs: impl IntoIterator<Item = &'a LinearQuery>,
    ) -> Self {
        let started = psketch_obs::enabled().then(std::time::Instant::now);
        let mut plan = Self::new(description);
        for lq in lqs {
            plan.begin_output(lq.description.clone(), lq.constant);
            for term in lq.terms() {
                if let Some(query) = &term.query {
                    plan.push_term(term.coeff, query.clone());
                }
            }
        }
        if let Some(started) = started {
            psketch_obs::histogram("psketch_query_plan_compile_nanos", &[])
                .record_duration(started.elapsed());
            psketch_obs::counter("psketch_query_plans_compiled_total", &[]).inc();
        }
        plan
    }

    /// The trivial plan for one conjunctive frequency.
    #[must_use]
    pub fn for_conjunctive(query: ConjunctiveQuery) -> Self {
        let mut plan = Self::new(format!("freq({}-bit conjunction)", query.width()));
        plan.begin_output("frequency", 0.0);
        plan.push_term(1.0, query);
        plan
    }

    /// The plan for a full `2^k` distribution over one subset: one term
    /// and one unit-weight output per value, in LSB-first integer order
    /// (the same indexing the direct estimator uses).
    ///
    /// # Panics
    ///
    /// Panics for subsets wider than 16 bits — `2^16` terms is exactly
    /// the serving nodes' plan cap, so a wider plan could never execute
    /// remotely anyway (and would waste the whole compile first).
    #[must_use]
    pub fn for_distribution(subset: &BitSubset) -> Self {
        let k = subset.len();
        assert!(k <= 16, "distribution plans capped at 16-bit subsets");
        let mut plan = Self::new(format!("distribution over {k}-bit subset"));
        for value in 0..(1u64 << k) {
            let query = ConjunctiveQuery::new(subset.clone(), BitString::from_u64(value, k))
                .expect("widths match by construction");
            plan.begin_output(format!("value {value}"), 0.0);
            plan.push_term(1.0, query);
        }
        plan
    }

    /// Rebuilds a plan from raw parts (wire decoding).
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] if any output references a term slot outside the
    /// term list.
    pub fn from_parts(
        description: String,
        terms: Vec<ConjunctiveQuery>,
        outputs: Vec<RawOutput>,
    ) -> Result<Self, Error> {
        let n = terms.len();
        let outputs: Vec<PlanOutput> = outputs
            .into_iter()
            .map(|(label, constant, combination)| {
                if let Some(&(_, slot)) = combination.iter().find(|&&(_, s)| s >= n) {
                    return Err(plan_err(format!(
                        "plan output references term {slot} of {n}"
                    )));
                }
                Ok(PlanOutput {
                    label,
                    constant,
                    combination,
                })
            })
            .collect::<Result<_, _>>()?;
        // Rebuild the interning index (first occurrence wins) so a
        // decoded plan can keep growing through `push_term`.
        let mut index = HashMap::with_capacity(terms.len());
        for (i, term) in terms.iter().enumerate() {
            index.entry(term.clone()).or_insert(i);
        }
        Ok(Self {
            description,
            terms,
            outputs,
            index,
        })
    }

    /// The plan's description.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The deduplicated conjunctive terms — the exact list of counts an
    /// executor must obtain, in this order.
    #[must_use]
    pub fn terms(&self) -> &[ConjunctiveQuery] {
        &self.terms
    }

    /// The outputs.
    #[must_use]
    pub fn outputs(&self) -> &[PlanOutput] {
        &self.outputs
    }

    /// The plan's cost: the number of distinct conjunctive terms — the
    /// Corollary 3.4 ε charge a serving node levies. Compound queries
    /// are charged for exactly the estimates computed, never per-output
    /// or per-wire-frame. (Scanning costs one pass per distinct subset,
    /// [`TermPlan::required_subsets`], however many terms share it.)
    #[must_use]
    pub fn cost(&self) -> usize {
        self.terms.len()
    }

    /// Every distinct subset the plan touches — the subsets users must
    /// have sketched for the plan to be answerable.
    #[must_use]
    pub fn required_subsets(&self) -> Vec<BitSubset> {
        let mut subsets: Vec<BitSubset> = self.terms.iter().map(|q| q.subset().clone()).collect();
        subsets.sort();
        subsets.dedup();
        subsets
    }

    /// Runs the post-combination over per-term estimates (aligned with
    /// [`TermPlan::terms`]). This is the **only** place plan outputs are
    /// computed — local engine, server, and cluster router all funnel
    /// through it, so the float operations and their order are identical
    /// everywhere.
    ///
    /// Per output, `queries_used` is the number of distinct terms the
    /// output references (one estimate each) and
    /// `min_sample_size` the smallest sample among them (0 for a
    /// constant-only output).
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] if the estimate count does not match the term
    /// count.
    pub fn evaluate(&self, estimates: &[Estimate]) -> Result<Vec<LinearAnswer>, Error> {
        if estimates.len() != self.terms.len() {
            return Err(plan_err(format!(
                "plan holds {} terms but {} estimates were supplied",
                self.terms.len(),
                estimates.len()
            )));
        }
        Ok(self
            .outputs
            .iter()
            .map(|out| {
                let mut value = out.constant;
                let mut min_sample = usize::MAX;
                let mut saw_term = false;
                for &(coeff, slot) in &out.combination {
                    value += coeff * estimates[slot].fraction;
                    min_sample = min_sample.min(estimates[slot].sample_size);
                    saw_term = true;
                }
                LinearAnswer {
                    value,
                    queries_used: out.distinct_terms(),
                    min_sample_size: if saw_term { min_sample } else { 0 },
                }
            })
            .collect())
    }
}

/// The merge side of distributed plan execution: per-term integer
/// `(ones, population)` counts summed over shards.
///
/// The conjunctive estimator is a pure counting scan, so counts taken
/// over disjoint partitions of a pool sum to exactly the whole-pool
/// counts, in any absorption order. One [`Estimate::from_counts`]
/// inversion per term on the merged sums then reproduces the single-node
/// term estimates **bit-for-bit**, and [`TermPlan::evaluate`] does the
/// rest. This single accumulator replaces the per-kind
/// `CountAccumulator`/`DistributionAccumulator`/`LinearAccumulator`
/// trio the cluster previously needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanAccumulator {
    ones: Vec<u64>,
    populations: Vec<u64>,
}

impl PlanAccumulator {
    /// An empty accumulator for a plan with `terms` terms.
    #[must_use]
    pub fn new(terms: usize) -> Self {
        Self {
            ones: vec![0; terms],
            populations: vec![0; terms],
        }
    }

    /// An empty accumulator sized for `plan`.
    #[must_use]
    pub fn for_plan(plan: &TermPlan) -> Self {
        Self::new(plan.cost())
    }

    /// Absorbs one shard's `(ones, population)` pairs, aligned with the
    /// plan's term list. A shard holding no sketches for a term's subset
    /// contributes `(0, 0)` — exactly its (empty) share of the pool.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] if the shard reported the wrong number of pairs
    /// (a shard disagreeing about the plan must not be merged silently).
    pub fn absorb(&mut self, per_term: &[(u64, u64)]) -> Result<(), Error> {
        if per_term.len() != self.ones.len() {
            return Err(plan_err(format!(
                "shard reported {} term counts, expected {}",
                per_term.len(),
                self.ones.len()
            )));
        }
        for (i, &(ones, population)) in per_term.iter().enumerate() {
            self.ones[i] += ones;
            self.populations[i] += population;
        }
        Ok(())
    }

    /// The merged `(ones, population)` pairs so far.
    #[must_use]
    pub fn merged(&self) -> Vec<(u64, u64)> {
        self.ones
            .iter()
            .zip(&self.populations)
            .map(|(&o, &n)| (o, n))
            .collect()
    }

    /// The largest merged population among the terms (the widest shard
    /// coverage any term achieved; 0 for a term-free plan).
    #[must_use]
    pub fn max_population(&self) -> u64 {
        self.populations.iter().copied().max().unwrap_or(0)
    }

    /// The Algorithm 2 inversions over the merged counts, one per term.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyDatabase`] if any term's merged population is zero
    /// — a single node evaluating the same plan would have failed the
    /// same way (unknown subset or empty pool).
    pub fn finish(&self, p: f64) -> Result<Vec<Estimate>, Error> {
        if self.populations.contains(&0) {
            return Err(Error::EmptyDatabase);
        }
        Ok(self
            .ones
            .iter()
            .zip(&self.populations)
            .map(|(&ones, &n)| Estimate::from_counts(ones, n, p))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{per_term_oracle, QueryEngine};
    use psketch_core::{Profile, SketchDb, SketchParams, Sketcher, UserId};
    use psketch_prf::{GlobalKey, Prg};
    use rand::SeedableRng;

    fn params(p: f64) -> SketchParams {
        SketchParams::with_sip(p, 10, GlobalKey::from_seed(33)).unwrap()
    }

    fn query(positions: &[u32], bits: &[bool]) -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            BitSubset::new(positions.to_vec()).unwrap(),
            BitString::from_bits(bits),
        )
        .unwrap()
    }

    /// One pool plus a 3-way partition of the same records.
    fn whole_and_shards(p: f64, m: u64) -> (SketchDb, Vec<SketchDb>, BitSubset) {
        let params = params(p);
        let sketcher = Sketcher::new(params);
        let subset = BitSubset::range(0, 3);
        let whole = SketchDb::new();
        let shards: Vec<SketchDb> = (0..3).map(|_| SketchDb::new()).collect();
        let mut rng = Prg::seed_from_u64(44);
        for i in 0..m {
            let profile = Profile::from_bits(&[i % 2 == 0, i % 3 == 0, i % 7 == 0]);
            let s = sketcher
                .sketch(UserId(i), &profile, &subset, &mut rng)
                .unwrap();
            whole.insert(subset.clone(), UserId(i), s);
            // Deliberately uneven split.
            shards[(i % 5).min(2) as usize].insert(subset.clone(), UserId(i), s);
        }
        (whole, shards, subset)
    }

    #[test]
    fn compile_dedupes_terms_and_preserves_order() {
        let q1 = query(&[0], &[true]);
        let q2 = query(&[1], &[false]);
        let mut lq = LinearQuery::new("dup");
        lq.constant = 0.5;
        lq.push(1.0, q1.clone());
        lq.push(2.0, q2);
        lq.push(-0.5, q1);
        lq.push_zero(9.0);
        let plan = TermPlan::compile(&lq);
        assert_eq!(plan.cost(), 2);
        assert_eq!(plan.outputs().len(), 1);
        let comb = plan.outputs()[0].combination();
        assert_eq!(comb, &[(1.0, 0), (2.0, 1), (-0.5, 0)]);
        assert_eq!(plan.outputs()[0].distinct_terms(), 2);
        assert_eq!(plan.required_subsets().len(), 2);
    }

    #[test]
    fn multi_output_plans_share_terms() {
        let q = query(&[0], &[true]);
        let mut a = LinearQuery::new("a");
        a.push(1.0, q.clone());
        let mut b = LinearQuery::new("b");
        b.push(2.0, q);
        let plan = TermPlan::from_queries("shared", &[a, b]);
        assert_eq!(plan.cost(), 1);
        assert_eq!(plan.outputs().len(), 2);
        assert_eq!(plan.outputs()[1].combination(), &[(2.0, 0)]);
    }

    #[test]
    fn distribution_plan_indexes_lsb_first() {
        let subset = BitSubset::range(0, 2);
        let plan = TermPlan::for_distribution(&subset);
        assert_eq!(plan.cost(), 4);
        assert_eq!(plan.outputs().len(), 4);
        // Value 2 (LSB-first) is bits [false, true].
        assert_eq!(plan.terms()[2].value().to_bools(), [false, true]);
    }

    #[test]
    fn maximal_distribution_plan_compiles_fast() {
        // The 16-bit plan is 65 536 terms — exactly the serving nodes'
        // cap. Hash interning keeps compilation linear; a quadratic
        // scan here took ~20 s and would time out this test.
        let start = std::time::Instant::now();
        let plan = TermPlan::for_distribution(&BitSubset::range(0, 16));
        assert_eq!(plan.cost(), 1 << 16);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "plan compilation took {:?}",
            start.elapsed()
        );
    }

    #[test]
    #[should_panic(expected = "capped at 16-bit")]
    fn overwide_distribution_plan_rejected() {
        let _ = TermPlan::for_distribution(&BitSubset::range(0, 17));
    }

    #[test]
    fn evaluate_matches_legacy_engine_bitwise() {
        let p = 0.3;
        let (db, _, subset) = whole_and_shards(p, 1_500);
        let engine = QueryEngine::new(params(p));
        let est = psketch_core::ConjunctiveEstimator::new(params(p));
        let q1 = ConjunctiveQuery::new(subset.clone(), BitString::from_u64(5, 3)).unwrap();
        let q2 = ConjunctiveQuery::new(subset, BitString::from_u64(2, 3)).unwrap();
        // Non-dyadic coefficients: a reordered float sum changes the bits.
        let mut lq = LinearQuery::new("plan vs engine");
        lq.constant = 0.1;
        lq.push(1.7, q1.clone());
        lq.push(-0.3, q2);
        lq.push(0.7, q1);
        let legacy = per_term_oracle(&est, &db, &lq).unwrap();
        let plan = TermPlan::compile(&lq);
        let answers = engine.execute_plan(&db, &plan).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].value.to_bits(), legacy.value.to_bits());
        assert_eq!(answers[0].queries_used, legacy.queries_used);
        assert_eq!(answers[0].min_sample_size, legacy.min_sample_size);
    }

    #[test]
    fn merged_plan_matches_single_pool_bitwise() {
        let p = 0.3;
        let (whole, shards, subset) = whole_and_shards(p, 1_800);
        let est = psketch_core::ConjunctiveEstimator::new(params(p));
        let q1 = ConjunctiveQuery::new(subset.clone(), BitString::from_u64(5, 3)).unwrap();
        let q2 = ConjunctiveQuery::new(subset, BitString::from_u64(2, 3)).unwrap();
        let mut lq = LinearQuery::new("merged plan");
        lq.constant = -0.25;
        lq.push(2.0, q1.clone());
        lq.push(-0.5, q2);
        lq.push(3.0, q1);
        let plan = TermPlan::compile(&lq);

        let mut acc = PlanAccumulator::for_plan(&plan);
        for shard in &shards {
            let counts = est.count_terms_partial(shard, plan.terms());
            acc.absorb(&counts).unwrap();
        }
        let estimates = acc.finish(p).unwrap();
        let merged = plan.evaluate(&estimates).unwrap();
        let single = per_term_oracle(&est, &whole, &lq).unwrap();
        assert_eq!(merged[0].value.to_bits(), single.value.to_bits());
        assert_eq!(merged[0].queries_used, single.queries_used);
        assert_eq!(merged[0].min_sample_size, single.min_sample_size);
        assert_eq!(acc.max_population(), 1_800);
    }

    #[test]
    fn zero_count_shards_merge_as_no_ops() {
        let p = 0.25;
        let (whole, shards, subset) = whole_and_shards(p, 600);
        let est = psketch_core::ConjunctiveEstimator::new(params(p));
        let q = ConjunctiveQuery::new(subset, BitString::from_u64(7, 3)).unwrap();
        let plan = TermPlan::for_conjunctive(q.clone());
        let mut acc = PlanAccumulator::for_plan(&plan);
        acc.absorb(&[(0, 0)]).unwrap();
        for shard in &shards {
            acc.absorb(&est.count_terms_partial(shard, plan.terms()))
                .unwrap();
        }
        acc.absorb(&[(0, 0)]).unwrap();
        let merged = plan.evaluate(&acc.finish(p).unwrap()).unwrap();
        let single = est.estimate(&whole, &q).unwrap();
        assert_eq!(merged[0].value.to_bits(), single.fraction.to_bits());
    }

    #[test]
    fn empty_merges_are_rejected() {
        let plan = TermPlan::for_conjunctive(query(&[0], &[true]));
        let acc = PlanAccumulator::for_plan(&plan);
        assert!(matches!(acc.finish(0.3), Err(Error::EmptyDatabase)));
        // A term-free plan (constant only) is fine.
        let mut lq = LinearQuery::new("constant");
        lq.constant = 2.5;
        let plan = TermPlan::compile(&lq);
        let acc = PlanAccumulator::for_plan(&plan);
        let answers = plan.evaluate(&acc.finish(0.3).unwrap()).unwrap();
        assert_eq!(answers[0].value, 2.5);
        assert_eq!(answers[0].min_sample_size, 0);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let plan = TermPlan::for_conjunctive(query(&[0], &[true]));
        let mut acc = PlanAccumulator::for_plan(&plan);
        assert!(acc.absorb(&[(1, 2), (3, 4)]).is_err());
        assert!(acc.absorb(&[(1, 2)]).is_ok());
        assert!(plan.evaluate(&[]).is_err());
    }

    #[test]
    fn from_parts_validates_slots() {
        let terms = vec![query(&[0], &[true])];
        assert!(TermPlan::from_parts(
            "bad".into(),
            terms.clone(),
            vec![("out".into(), 0.0, vec![(1.0, 1)])],
        )
        .is_err());
        let plan = TermPlan::from_parts(
            "good".into(),
            terms,
            vec![("out".into(), 0.5, vec![(1.0, 0)])],
        )
        .unwrap();
        assert_eq!(plan.cost(), 1);
    }
}

//! Executing compiled queries against a sketch database.
//!
//! [`QueryEngine`] is the analyst-facing façade: it owns an Algorithm 2
//! estimator and evaluates both the linear-combination normal form and
//! the [`TermPlan`] IR produced by the §4.1 compilers, including ratio
//! queries (conditional means). It also keeps running plan counters
//! ([`EngineStatsSnapshot`]) so operators can see how many terms plans
//! scan and how many term references deduplication serves without a
//! scan of their own.

use crate::linear::LinearQuery;
use crate::plan::{PlanAccumulator, TermPlan};
use psketch_core::{
    ConjunctiveEstimator, ConjunctiveQuery, Error, Estimate, SketchDb, SketchParams,
};
use psketch_obs as obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared plan counters behind a [`QueryEngine`] (clones of an engine
/// share one set, so a server's workers aggregate naturally).
#[derive(Debug, Default)]
struct EngineStats {
    terms_scanned: AtomicU64,
    terms_reused: AtomicU64,
    plans_executed: AtomicU64,
}

/// A point-in-time copy of an engine's plan counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStatsSnapshot {
    /// Distinct conjunctive terms counted: every term of every executed
    /// plan, plus each term [`QueryEngine::linear`] had to estimate.
    pub terms_scanned: u64,
    /// Term references served without a count of their own: a plan's
    /// references beyond its distinct terms (compile-time
    /// deduplication), plus [`QueryEngine::linear`] memo hits.
    pub terms_reused: u64,
    /// Plans executed through [`QueryEngine::execute_plan`] (and, on a
    /// shard, [`QueryEngine::count_terms_partial`]).
    pub plans_executed: u64,
}

/// The result of evaluating a linear query against sketches.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearAnswer {
    /// The estimated value.
    pub value: f64,
    /// Number of conjunctive estimates performed.
    pub queries_used: usize,
    /// Smallest sample size among the underlying estimates (the binding
    /// constraint for error bounds).
    pub min_sample_size: usize,
}

/// Analyst-side execution engine over a [`SketchDb`].
#[derive(Debug, Clone)]
pub struct QueryEngine {
    estimator: ConjunctiveEstimator,
    stats: Arc<EngineStats>,
}

impl QueryEngine {
    /// Builds an engine with the database-wide parameters.
    #[must_use]
    pub fn new(params: SketchParams) -> Self {
        Self {
            estimator: ConjunctiveEstimator::new(params),
            stats: Arc::new(EngineStats::default()),
        }
    }

    /// The underlying Algorithm 2 estimator.
    #[must_use]
    pub fn estimator(&self) -> &ConjunctiveEstimator {
        &self.estimator
    }

    /// A snapshot of the engine's plan counters (shared across clones of
    /// this engine).
    #[must_use]
    pub fn stats(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            // ord: fuzzy stats snapshot; fields may tear across readers
            terms_scanned: self.stats.terms_scanned.load(Ordering::Relaxed),
            // ord: fuzzy stats snapshot; fields may tear across readers
            terms_reused: self.stats.terms_reused.load(Ordering::Relaxed),
            // ord: fuzzy stats snapshot; fields may tear across readers
            plans_executed: self.stats.plans_executed.load(Ordering::Relaxed),
        }
    }

    /// Executes a compiled [`TermPlan`] against a database: the plan's
    /// distinct terms are counted in one batch
    /// ([`ConjunctiveEstimator::count_terms`]), inverted once each by
    /// [`PlanAccumulator::finish`], and the post-combination runs
    /// through [`TermPlan::evaluate`] — the same inversion and
    /// combination code a cluster router runs on merged shard counts,
    /// so the answers are bit-identical wherever the plan executes.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSubset`] for unsketched subsets,
    /// [`Error::EmptyDatabase`] if a term's subset holds no records.
    pub fn execute_plan(&self, db: &SketchDb, plan: &TermPlan) -> Result<Vec<LinearAnswer>, Error> {
        let span = obs::span::enter("engine:plan_exec");
        let started = obs::enabled().then(Instant::now);
        let mut acc = PlanAccumulator::for_plan(plan);
        acc.absorb(&self.estimator.count_terms(db, plan.terms())?)?;
        let estimates = acc.finish(self.estimator.params().p())?;
        // The plan's term list is deduplicated, so every term is scanned
        // once and every further reference to it is a reuse.
        let scanned = plan.terms().len() as u64;
        let references: u64 = plan
            .outputs()
            .iter()
            .map(|o| o.combination().len() as u64)
            .sum();
        let reused = references.saturating_sub(scanned);
        self.stats
            .terms_scanned
            // ord: monotonic stat counter, eventual totals suffice
            .fetch_add(scanned, Ordering::Relaxed);
        self.stats
            .terms_reused
            // ord: monotonic stat counter, eventual totals suffice
            .fetch_add(reused, Ordering::Relaxed);
        // ord: monotonic stat counter, eventual totals suffice
        self.stats.plans_executed.fetch_add(1, Ordering::Relaxed);
        span.attr("term_count", scanned);
        if let Some(started) = started {
            // Mirror the engine's plan counters into the process registry
            // so a /metrics scrape can report them without holding an
            // engine handle.
            obs::histogram("psketch_query_plan_exec_nanos", &[]).record_duration(started.elapsed());
            obs::counter("psketch_query_plans_total", &[]).inc();
            obs::counter("psketch_query_terms_scanned_total", &[]).add(scanned);
            obs::counter("psketch_query_terms_reused_total", &[]).add(reused);
        }
        plan.evaluate(&estimates)
    }

    /// The shard-side scatter half: raw `(ones, population)` counts for
    /// a plan's term list, with unknown subsets reported as empty
    /// `(0, 0)` shares. Wraps
    /// [`ConjunctiveEstimator::count_terms_partial`] so the scans feed
    /// the engine's counters — on a shard node these *are* the plan
    /// executions, they just finish at the router.
    #[must_use]
    pub fn count_terms_partial(
        &self,
        db: &SketchDb,
        terms: &[ConjunctiveQuery],
    ) -> Vec<(u64, u64)> {
        let span = obs::span::enter("engine:count_terms");
        span.attr("term_count", terms.len() as u64);
        let counts = self.estimator.count_terms_partial(db, terms);
        self.stats
            .terms_scanned
            // ord: monotonic stat counter, eventual totals suffice
            .fetch_add(terms.len() as u64, Ordering::Relaxed);
        // ord: monotonic stat counter, eventual totals suffice
        self.stats.plans_executed.fetch_add(1, Ordering::Relaxed);
        counts
    }

    /// Estimates a single conjunctive frequency (unclamped, unbiased).
    ///
    /// # Errors
    ///
    /// As [`ConjunctiveEstimator::estimate`].
    pub fn fraction(&self, db: &SketchDb, query: &ConjunctiveQuery) -> Result<f64, Error> {
        Ok(self.estimator.estimate(db, query)?.fraction)
    }

    /// Evaluates a linear query: the weighted sum of unbiased conjunctive
    /// estimates plus the constant.
    ///
    /// Duplicate conjunctive terms within the query are estimated once
    /// and memoized — compiled queries (intervals, DNF expansions,
    /// conditional means) routinely repeat terms, and each saved term is
    /// a full shard scan.
    ///
    /// # Errors
    ///
    /// Propagates estimation errors (unknown subsets, empty database).
    pub fn linear(&self, db: &SketchDb, lq: &LinearQuery) -> Result<LinearAnswer, Error> {
        let mut memo = HashMap::new();
        self.linear_memo(db, lq, &mut memo)
    }

    /// Evaluates several linear queries against one database, sharing the
    /// term memo across the whole batch: a conjunctive term appearing in
    /// any two of the queries is scanned once.
    ///
    /// # Errors
    ///
    /// Propagates estimation errors; answers are all-or-nothing.
    pub fn linear_batch(
        &self,
        db: &SketchDb,
        queries: &[LinearQuery],
    ) -> Result<Vec<LinearAnswer>, Error> {
        let mut memo = HashMap::new();
        queries
            .iter()
            .map(|lq| self.linear_memo(db, lq, &mut memo))
            .collect()
    }

    /// One linear evaluation against a shared memo. `queries_used` counts
    /// the estimates actually performed by *this* evaluation (memo hits,
    /// including those seeded by earlier queries in a batch, are free).
    fn linear_memo(
        &self,
        db: &SketchDb,
        lq: &LinearQuery,
        memo: &mut HashMap<ConjunctiveQuery, Estimate>,
    ) -> Result<LinearAnswer, Error> {
        let mut queries_used = 0;
        let mut min_sample = usize::MAX;
        let mut saw_term = false;
        let value = lq.evaluate_with(|q| {
            let e = match memo.get(q) {
                Some(e) => {
                    // ord: monotonic stat counter, eventual totals suffice
                    self.stats.terms_reused.fetch_add(1, Ordering::Relaxed);
                    *e
                }
                None => {
                    let e = self.estimator.estimate(db, q)?;
                    memo.insert(q.clone(), e);
                    queries_used += 1;
                    // ord: monotonic stat counter, eventual totals suffice
                    self.stats.terms_scanned.fetch_add(1, Ordering::Relaxed);
                    e
                }
            };
            saw_term = true;
            min_sample = min_sample.min(e.sample_size);
            Ok(e.fraction)
        })?;
        Ok(LinearAnswer {
            value,
            queries_used,
            min_sample_size: if saw_term { min_sample } else { 0 },
        })
    }

    /// Evaluates a ratio of two linear queries (e.g. a conditional mean:
    /// `E[b·1{a≤c}] / freq(a≤c)`), sharing the term memo between
    /// numerator and denominator.
    ///
    /// Returns `None` when the denominator estimate is not positive — the
    /// conditioning event looks empty at this noise level, so no
    /// meaningful ratio exists.
    ///
    /// # Errors
    ///
    /// Propagates estimation errors.
    pub fn ratio(
        &self,
        db: &SketchDb,
        numerator: &LinearQuery,
        denominator: &LinearQuery,
    ) -> Result<Option<f64>, Error> {
        let mut memo = HashMap::new();
        let num = self.linear_memo(db, numerator, &mut memo)?;
        let den = self.linear_memo(db, denominator, &mut memo)?;
        if den.value <= 0.0 {
            return Ok(None);
        }
        Ok(Some(num.value / den.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{interval_required_subsets, less_equal_query};
    use crate::mean::{mean_query, mean_required_subsets};
    use crate::moment::{variance_plan, variance_queries};
    use psketch_core::{BitString, BitSubset, IntField, Sketcher, UserId};
    use psketch_data::{DemographicsModel, FieldDistribution, Population};
    use psketch_prf::{GlobalKey, Prg};
    use rand::SeedableRng;

    fn setup(p: f64, m: usize) -> (SketchParams, SketchDb, Population, IntField) {
        // Publish single-bit subsets (means) and prefixes (intervals).
        setup_publishing(p, m, |field| {
            let mut subsets = mean_required_subsets(field);
            subsets.extend(interval_required_subsets(field));
            subsets
        })
    }

    /// As [`setup`], publishing the subsets `subsets_for(field)` names.
    fn setup_publishing(
        p: f64,
        m: usize,
        subsets_for: impl Fn(&IntField) -> Vec<BitSubset>,
    ) -> (SketchParams, SketchDb, Population, IntField) {
        let params = SketchParams::with_sip(p, 10, GlobalKey::from_seed(70)).unwrap();
        let mut model = DemographicsModel::new();
        let field = model.field("v", 6, FieldDistribution::Uniform { lo: 0, hi: 63 });
        let mut rng = Prg::seed_from_u64(71);
        let pop = model.generate(m, &mut rng);
        let sketcher = Sketcher::new(params);
        let db = SketchDb::new();
        let mut subsets = subsets_for(&field);
        subsets.sort();
        subsets.dedup();
        pop.publish_all(&sketcher, &subsets, &db, &mut rng).unwrap();
        (params, db, pop, field)
    }

    #[test]
    fn mean_through_sketches() {
        let (params, db, pop, field) = setup(0.25, 20_000);
        let engine = QueryEngine::new(params);
        let ans = engine.linear(&db, &mean_query(&field)).unwrap();
        let truth = pop.true_mean(&field);
        assert_eq!(ans.queries_used, 6);
        assert_eq!(ans.min_sample_size, 20_000);
        assert!(
            (ans.value - truth).abs() < 1.5,
            "mean estimate {} vs truth {truth}",
            ans.value
        );
    }

    #[test]
    fn interval_through_sketches() {
        let (params, db, pop, field) = setup(0.25, 20_000);
        let engine = QueryEngine::new(params);
        for c in [10u64, 31, 50] {
            let ans = engine.linear(&db, &less_equal_query(&field, c)).unwrap();
            let truth = pop.true_fraction_by(|p| field.read(p) <= c);
            assert!(
                (ans.value - truth).abs() < 0.06,
                "c={c}: {} vs {truth}",
                ans.value
            );
        }
    }

    #[test]
    fn fraction_passthrough() {
        let (params, db, pop, field) = setup(0.3, 10_000);
        let engine = QueryEngine::new(params);
        let q = ConjunctiveQuery::new(field.bit_subset(1), BitString::from_bits(&[true])).unwrap();
        let est = engine.fraction(&db, &q).unwrap();
        let truth = pop.true_fraction(&field.bit_subset(1), &BitString::from_bits(&[true]));
        assert!((est - truth).abs() < 0.05);
    }

    #[test]
    fn ratio_none_on_empty_event() {
        let (params, db, _pop, field) = setup(0.3, 5_000);
        let engine = QueryEngine::new(params);
        // Denominator: a constant-zero linear query.
        let num = mean_query(&field);
        let mut den = LinearQuery::new("empty event");
        den.constant = 0.0;
        assert_eq!(engine.ratio(&db, &num, &den).unwrap(), None);
    }

    #[test]
    fn duplicate_terms_are_memoized() {
        let (params, db, _pop, field) = setup(0.3, 2_000);
        let engine = QueryEngine::new(params);
        let q = ConjunctiveQuery::new(field.bit_subset(1), BitString::from_bits(&[true])).unwrap();
        let mut lq = LinearQuery::new("repeated term");
        lq.push(1.0, q.clone());
        lq.push(2.0, q.clone());
        lq.push(-0.5, q);
        let ans = engine.linear(&db, &lq).unwrap();
        // Three terms, one estimator invocation.
        assert_eq!(ans.queries_used, 1);
        assert_eq!(ans.min_sample_size, 2_000);

        // Memoization must not change the answer: 1 + 2 − 0.5 = 2.5× the
        // single-term value.
        let single = engine
            .fraction(
                &db,
                &ConjunctiveQuery::new(field.bit_subset(1), BitString::from_bits(&[true])).unwrap(),
            )
            .unwrap();
        assert!((ans.value - 2.5 * single).abs() < 1e-12);
    }

    #[test]
    fn linear_batch_shares_memo_and_matches_single_evaluations() {
        let (params, db, _pop, field) = setup(0.25, 4_000);
        let engine = QueryEngine::new(params);
        let mq = mean_query(&field);
        let iq = less_equal_query(&field, 31);
        let singles: Vec<f64> = [&mq, &iq]
            .iter()
            .map(|lq| engine.linear(&db, lq).unwrap().value)
            .collect();
        let batch = engine.linear_batch(&db, &[mq.clone(), iq, mq]).unwrap();
        assert_eq!(batch.len(), 3);
        assert!((batch[0].value - singles[0]).abs() < 1e-12);
        assert!((batch[1].value - singles[1]).abs() < 1e-12);
        // The repeated mean query is answered entirely from the memo.
        assert_eq!(batch[2].queries_used, 0);
        assert!((batch[2].value - singles[0]).abs() < 1e-12);
        assert_eq!(batch[2].min_sample_size, 4_000);
    }

    #[test]
    fn plan_execution_matches_linear_and_counts_stats() {
        let (params, db, _pop, field) = setup(0.25, 3_000);
        let engine = QueryEngine::new(params);
        let mq = mean_query(&field);
        let legacy = engine.linear(&db, &mq).unwrap();
        let before = engine.stats();
        let plan = crate::plan::TermPlan::compile(&mq);
        let answers = engine.execute_plan(&db, &plan).unwrap();
        assert_eq!(answers[0].value.to_bits(), legacy.value.to_bits());
        let after = engine.stats();
        assert_eq!(after.plans_executed, before.plans_executed + 1);
        assert_eq!(after.terms_scanned, before.terms_scanned + 6);

        // A multi-output plan sharing terms: the variance plan's E[a]
        // terms are the diagonal of its E[a²] terms, so the plan scans
        // each distinct term once and reuses it for the other output.
        let (params, db, _pop, field) =
            setup_publishing(0.25, 3_000, |field| variance_plan(field).required_subsets());
        let engine = QueryEngine::new(params);
        let plan = variance_plan(&field);
        let references: u64 = plan
            .outputs()
            .iter()
            .map(|o| o.combination().len() as u64)
            .sum();
        let distinct = plan.cost() as u64;
        assert!(references > distinct, "the outputs must share a term");
        let before = engine.stats();
        let answers = engine.execute_plan(&db, &plan).unwrap();
        let after = engine.stats();
        assert_eq!(after.terms_scanned, before.terms_scanned + distinct);
        assert_eq!(
            after.terms_reused,
            before.terms_reused + references - distinct
        );
        let (m2, m1) = variance_queries(&field);
        assert_eq!(answers.len(), 2);
        for (answer, lq) in answers.iter().zip([&m2, &m1]) {
            let legacy = engine.linear(&db, lq).unwrap();
            assert_eq!(
                answer.value.to_bits(),
                legacy.value.to_bits(),
                "{}",
                lq.description
            );
        }
    }

    #[test]
    fn plan_execution_propagates_unknown_subsets() {
        let (params, db, _pop, _field) = setup(0.3, 500);
        let engine = QueryEngine::new(params);
        let q = ConjunctiveQuery::new(
            BitSubset::new(vec![77]).unwrap(),
            BitString::from_bits(&[true]),
        )
        .unwrap();
        let plan = crate::plan::TermPlan::for_conjunctive(q);
        assert!(matches!(
            engine.execute_plan(&db, &plan),
            Err(Error::UnknownSubset { .. })
        ));
    }

    #[test]
    fn unknown_subset_propagates() {
        let (params, db, _pop, _field) = setup(0.3, 1_000);
        let engine = QueryEngine::new(params);
        let q = ConjunctiveQuery::new(
            BitSubset::new(vec![77]).unwrap(),
            BitString::from_bits(&[true]),
        )
        .unwrap();
        assert!(matches!(
            engine.fraction(&db, &q),
            Err(Error::UnknownSubset { .. })
        ));
        let _ = UserId(0); // silence unused import lint paths in some cfgs
    }
}

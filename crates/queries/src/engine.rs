//! Executing compiled queries against a sketch database.
//!
//! [`QueryEngine`] is the analyst-facing façade: it owns an Algorithm 2
//! estimator and answers every query through one path,
//! [`QueryEngine::execute_plan`] over the [`TermPlan`] IR the §4.1
//! compilers produce; a ratio (conditional mean) is a two-output plan
//! divided by [`QueryEngine::ratio`]. The engine also keeps
//! running plan counters ([`EngineStatsSnapshot`]) so operators can see
//! how many terms plans count and how many term references
//! deduplication serves without a count of their own.

use crate::plan::{PlanAccumulator, TermPlan};
use psketch_core::{ConjunctiveEstimator, ConjunctiveQuery, Error, SketchDb, SketchParams};
use psketch_obs as obs;
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
    /// plan.
    pub terms_scanned: u64,
    /// Term references served without a count of their own: a plan's
    /// references beyond its distinct terms (compile-time
    /// deduplication).
    pub terms_reused: u64,
    /// Plans executed through [`QueryEngine::execute_plan`] (and, on a
    /// shard, [`QueryEngine::count_terms_partial`]).
    pub plans_executed: u64,
}

/// The value of one plan output evaluated against sketches.
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

    /// Evaluates a ratio plan — output 0 over output 1, such as
    /// [`conditional_mean_plan`](crate::combined::conditional_mean_plan)'s
    /// `E[b·1{a≤c}] / freq(a≤c)` — in one execution, so numerator and
    /// denominator share their terms.
    ///
    /// Returns `None` when the denominator estimate is not positive — the
    /// conditioning event looks empty at this noise level, so no
    /// meaningful ratio exists.
    ///
    /// # Errors
    ///
    /// As [`QueryEngine::execute_plan`], and [`Error::Codec`] unless the
    /// plan has exactly two outputs.
    pub fn ratio(&self, db: &SketchDb, plan: &TermPlan) -> Result<Option<f64>, Error> {
        match self.execute_plan(db, plan)?.as_slice() {
            [num, den] => Ok((den.value > 0.0).then_some(num.value / den.value)),
            answers => Err(Error::Codec {
                reason: format!("a ratio plan has 2 outputs, not {}", answers.len()),
            }),
        }
    }
}

/// The independent reference the plan path is checked against: one
/// [`ConjunctiveEstimator::estimate`] scan per term reference, each output
/// combined in its [`combination`](crate::plan::PlanOutput::combination)
/// order. `queries_used` and `min_sample_size` come from the distinct
/// terms an output references.
#[cfg(test)]
pub(crate) fn per_term_oracle(
    estimator: &ConjunctiveEstimator,
    db: &SketchDb,
    plan: &TermPlan,
) -> Result<Vec<LinearAnswer>, Error> {
    plan.outputs()
        .iter()
        .map(|output| {
            let mut value = output.constant;
            let mut distinct: Vec<&ConjunctiveQuery> = Vec::new();
            let mut min_sample = usize::MAX;
            for &(coeff, slot) in output.combination() {
                let query = &plan.terms()[slot];
                let e = estimator.estimate(db, query)?;
                value += coeff * e.fraction;
                if !distinct.contains(&query) {
                    distinct.push(query);
                }
                min_sample = min_sample.min(e.sample_size);
            }
            Ok(LinearAnswer {
                value,
                queries_used: distinct.len(),
                min_sample_size: if distinct.is_empty() { 0 } else { min_sample },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{interval_required_subsets, less_equal_plan};
    use crate::mean::{mean_plan, mean_required_subsets};
    use crate::moment::variance_plan;
    use psketch_core::{BitString, BitSubset, IntField, Profile, Sketcher, UserId};
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
        let ans = &engine.execute_plan(&db, &mean_plan(&field)).unwrap()[0];
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
            let ans = &engine
                .execute_plan(&db, &less_equal_plan(&field, c))
                .unwrap()[0];
            let truth = pop.true_fraction_by(|p| field.read(p) <= c);
            assert!(
                (ans.value - truth).abs() < 0.06,
                "c={c}: {} vs {truth}",
                ans.value
            );
        }
    }

    #[test]
    fn ratio_none_on_empty_event() {
        let (params, db, _pop, field) = setup(0.3, 5_000);
        let engine = QueryEngine::new(params);
        // Denominator: a constant-zero output.
        let mut plan = mean_plan(&field);
        plan.begin_output("empty event", 0.0);
        assert_eq!(engine.ratio(&db, &plan).unwrap(), None);
        // A ratio needs exactly two outputs.
        assert!(matches!(
            engine.ratio(&db, &mean_plan(&field)),
            Err(Error::Codec { .. })
        ));
    }

    #[test]
    fn duplicate_terms_are_memoized() {
        let (params, db, _pop, field) = setup(0.3, 2_000);
        let engine = QueryEngine::new(params);
        let q = ConjunctiveQuery::new(field.bit_subset(1), BitString::from_bits(&[true])).unwrap();
        let mut plan = TermPlan::new("repeated term");
        plan.begin_output("repeated term", 0.0)
            .push_term(1.0, q.clone())
            .push_term(2.0, q.clone())
            .push_term(-0.5, q);
        let ans = &engine.execute_plan(&db, &plan).unwrap()[0];
        // Three references, one distinct term.
        assert_eq!(ans.queries_used, 1);
        assert_eq!(ans.min_sample_size, 2_000);

        // Counting the term once must not change the answer:
        // 1 + 2 − 0.5 = 2.5× the single-term value.
        let single = engine
            .estimator()
            .estimate(
                &db,
                &ConjunctiveQuery::new(field.bit_subset(1), BitString::from_bits(&[true])).unwrap(),
            )
            .unwrap()
            .fraction;
        assert!((ans.value - 2.5 * single).abs() < 1e-12);
    }

    #[test]
    fn plan_execution_matches_linear_and_counts_stats() {
        let (params, db, _pop, field) = setup(0.25, 3_000);
        let engine = QueryEngine::new(params);
        let plan = mean_plan(&field);
        let legacy = per_term_oracle(engine.estimator(), &db, &plan).unwrap();
        let before = engine.stats();
        let answers = engine.execute_plan(&db, &plan).unwrap();
        assert_eq!(answers[0].value.to_bits(), legacy[0].value.to_bits());
        assert_eq!(answers[0].queries_used, legacy[0].queries_used);
        assert_eq!(answers[0].min_sample_size, legacy[0].min_sample_size);
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
        let legacy = per_term_oracle(engine.estimator(), &db, &plan).unwrap();
        assert_eq!(answers.len(), 2);
        for ((answer, legacy), output) in answers.iter().zip(&legacy).zip(plan.outputs()) {
            assert_eq!(
                answer.value.to_bits(),
                legacy.value.to_bits(),
                "{}",
                output.label
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
        let plan = TermPlan::for_conjunctive(q);
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
        // Through the ratio path: numerator and denominator share it.
        let mut plan = TermPlan::new("unknown subset");
        plan.begin_output("numerator", 0.0)
            .push_term(1.0, q.clone());
        plan.begin_output("denominator", 1.0).push_term(1.0, q);
        assert!(matches!(
            engine.ratio(&db, &plan),
            Err(Error::UnknownSubset { .. })
        ));
    }

    #[test]
    fn linear_and_ratio_run_as_one_plan_over_tables_and_scans() {
        let params = SketchParams::with_sip(0.3, 10, GlobalKey::from_seed(72)).unwrap();
        // A tabled subset (at most 6 bits) beside a wider, scanned one.
        let narrow = BitSubset::range(0, 2);
        let wide = BitSubset::range(0, 8);
        let db = SketchDb::new().with_count_tables(params);
        let sketcher = Sketcher::new(params);
        let mut rng = Prg::seed_from_u64(73);
        for i in 0..2_000u64 {
            let mixed = i.wrapping_mul(0x9E37_79B9);
            let bits: Vec<bool> = (0..8).map(|b| (mixed >> (b + 7)) & 1 == 1).collect();
            let profile = Profile::from_bits(&bits);
            for subset in [&narrow, &wide] {
                let s = sketcher
                    .sketch(UserId(i), &profile, subset, &mut rng)
                    .unwrap();
                db.insert(subset.clone(), UserId(i), s);
            }
        }
        assert!(db.count_table(&narrow, &params).is_some());
        assert!(db.count_table(&wide, &params).is_none());
        let term = |subset: &BitSubset, value: u64| {
            ConjunctiveQuery::new(subset.clone(), BitString::from_u64(value, subset.len())).unwrap()
        };

        let engine = QueryEngine::new(params);
        let mut num = TermPlan::new("tabled + scanned");
        num.begin_output("tabled + scanned", 0.125)
            .push_term(1.5, term(&narrow, 1))
            .push_term(-0.75, term(&wide, 0xA5))
            .push_term(2.0, term(&narrow, 1))
            .push_term(0.5, term(&narrow, 3));
        let oracle = per_term_oracle(engine.estimator(), &db, &num)
            .unwrap()
            .remove(0);
        let answer = engine.execute_plan(&db, &num).unwrap().remove(0);
        assert_eq!(answer.value.to_bits(), oracle.value.to_bits());
        assert_eq!(answer.queries_used, 3);
        assert_eq!(answer.queries_used, oracle.queries_used);
        assert_eq!(answer.min_sample_size, oracle.min_sample_size);

        // The denominator shares the wide term and adds one of its own:
        // four distinct terms over six references, counted in one plan.
        let mut ratio_plan = num.clone();
        ratio_plan
            .begin_output("denominator", 0.5)
            .push_term(1.0, term(&narrow, 0))
            .push_term(1.0, term(&wide, 0xA5));
        let before = engine.stats();
        let ratio = engine.ratio(&db, &ratio_plan).unwrap();
        let after = engine.stats();
        assert_eq!(after.plans_executed, before.plans_executed + 1);
        assert_eq!(after.terms_scanned, before.terms_scanned + 4);
        assert_eq!(after.terms_reused, before.terms_reused + 2);
        let den_oracle = &per_term_oracle(engine.estimator(), &db, &ratio_plan).unwrap()[1];
        let expected = (den_oracle.value > 0.0).then_some(oracle.value / den_oracle.value);
        assert_eq!(ratio.map(f64::to_bits), expected.map(f64::to_bits));
        assert!(ratio.is_some(), "the denominator is at least 0.5 in truth");

        // An empty subset ahead of an unknown one: the per-term path
        // stops at the empty subset, the plan path groups the terms and
        // reports the unknown subset first.
        let empty = BitSubset::range(8, 2);
        db.insert_columns(empty.clone(), Vec::new(), Vec::new());
        let mut mixed = TermPlan::new("empty then unknown");
        mixed
            .begin_output("empty then unknown", 0.0)
            .push_term(1.0, term(&empty, 0))
            .push_term(1.0, term(&BitSubset::single(77), 1));
        assert!(matches!(
            per_term_oracle(engine.estimator(), &db, &mixed),
            Err(Error::EmptyDatabase)
        ));
        assert!(matches!(
            engine.execute_plan(&db, &mixed),
            Err(Error::UnknownSubset { .. })
        ));
    }
}

//! Non-binary attribute mining — §3's "mining non-binary data".
//!
//! "The sketching technique turns out to be very useful in mining
//! non-binary data where for each attribute there are only a few subsets
//! that need to be sketched." A categorical attribute with `n ≤ 2^w`
//! levels occupies one `w`-bit field; **one** sketch of that field per
//! user answers *all* `2^w` point queries (each sketch supports every
//! value query on its subset), from which histograms, modes, rare-level
//! counts and pairwise contingency tables follow.

use crate::engine::LinearAnswer;
use psketch_core::{ConjunctiveQuery, IntField};

/// A categorical attribute: a bit field plus its number of live levels.
#[derive(Debug, Clone, Copy)]
pub struct CategoricalAttribute {
    field: IntField,
    levels: u64,
}

impl CategoricalAttribute {
    /// Declares a categorical attribute with `levels` levels stored in
    /// `field` (values `0..levels`).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ levels ≤ field.max_value() + 1` and the field is
    /// at most 20 bits (full-histogram queries enumerate `2^w` values).
    #[must_use]
    pub fn new(field: IntField, levels: u64) -> Self {
        assert!(levels >= 2, "categorical attribute needs >= 2 levels");
        assert!(
            levels <= field.max_value() + 1,
            "levels {levels} exceed the {}-bit field",
            field.width()
        );
        assert!(field.width() <= 20, "field too wide for histogram queries");
        Self { field, levels }
    }

    /// The underlying bit field.
    #[must_use]
    pub fn field(&self) -> &IntField {
        &self.field
    }

    /// The number of levels.
    #[must_use]
    pub fn levels(&self) -> u64 {
        self.levels
    }

    /// The single subset users must sketch: the whole field.
    #[must_use]
    pub fn required_subset(&self) -> psketch_core::BitSubset {
        self.field.subset()
    }
}

/// An estimated histogram over a categorical attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-level estimated frequencies (unclamped, unbiased).
    pub frequencies: Vec<f64>,
    /// Number of sketches aggregated.
    pub sample_size: usize,
}

impl Histogram {
    /// Reads a histogram off the answers to a [`histogram_plan`], one per
    /// level in level order.
    #[must_use]
    pub fn from_answers(answers: &[LinearAnswer]) -> Self {
        Self {
            frequencies: answers.iter().map(|a| a.value).collect(),
            sample_size: answers.iter().map(|a| a.min_sample_size).min().unwrap_or(0),
        }
    }

    /// The most frequent level (ties broken towards the smaller level).
    #[must_use]
    pub fn mode(&self) -> u64 {
        let mut best = 0usize;
        for (i, &f) in self.frequencies.iter().enumerate() {
            if f > self.frequencies[best] {
                best = i;
            }
        }
        best as u64
    }

    /// Frequencies clamped to `[0, 1]` and renormalized to sum to 1 — the
    /// usual post-processing when the histogram is consumed as a
    /// distribution. Returns the raw clamp if everything clamps to zero.
    #[must_use]
    pub fn normalized(&self) -> Vec<f64> {
        let clamped: Vec<f64> = self.frequencies.iter().map(|f| f.clamp(0.0, 1.0)).collect();
        let total: f64 = clamped.iter().sum();
        if total <= 0.0 {
            return clamped;
        }
        clamped.into_iter().map(|f| f / total).collect()
    }

    /// Total-variation distance to a reference distribution.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn total_variation(&self, reference: &[f64]) -> f64 {
        assert_eq!(reference.len(), self.frequencies.len(), "length mismatch");
        0.5 * self
            .normalized()
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }
}

/// Compiles a full histogram over a categorical attribute into a
/// [`TermPlan`](crate::plan::TermPlan): one unit-weight output per
/// level, each a point query on the attribute's field subset. Output
/// `i` is level `i`'s estimated frequency; all levels share one subset,
/// so an executor answers them with one pass (or one count-table read)
/// and [`Histogram::from_answers`] collects them.
#[must_use]
pub fn histogram_plan(attr: &CategoricalAttribute) -> crate::plan::TermPlan {
    let mut plan = crate::plan::TermPlan::new(format!(
        "histogram over {}-level attribute @{}",
        attr.levels,
        attr.field.offset()
    ));
    for level in 0..attr.levels {
        let query = ConjunctiveQuery::new(attr.field.subset(), attr.field.full_value(level))
            .expect("field widths match by construction");
        plan.begin_output(format!("level {level}"), 0.0);
        plan.push_term(1.0, query);
    }
    plan
}

/// Compiles a two-attribute contingency cell
/// `freq(a = level_a ∧ b = level_b)` into a
/// [`TermPlan`](crate::plan::TermPlan) over the *union* subset (the §3
/// "few subsets per attribute" pattern: sketch each attribute and each
/// needed pair).
///
/// # Panics
///
/// Panics on out-of-range levels or overlapping fields.
#[must_use]
pub fn contingency_plan(
    a: &CategoricalAttribute,
    level_a: u64,
    b: &CategoricalAttribute,
    level_b: u64,
) -> crate::plan::TermPlan {
    assert!(
        level_a < a.levels && level_b < b.levels,
        "level out of range"
    );
    let merged = crate::conjunction::merge_constraints(&[
        crate::conjunction::Constraint::new(a.field.subset(), a.field.full_value(level_a))
            .expect("widths match"),
        crate::conjunction::Constraint::new(b.field.subset(), b.field.full_value(level_b))
            .expect("widths match"),
    ])
    .expect("non-empty")
    .expect("disjoint fields cannot contradict");
    crate::plan::TermPlan::for_conjunctive(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use psketch_core::{Profile, SketchDb, SketchParams, Sketcher, UserId};
    use psketch_prf::{GlobalKey, Prg};
    use rand::{RngExt, SeedableRng};

    fn setup(
        levels: u64,
        weights: &[f64],
    ) -> (SketchParams, SketchDb, CategoricalAttribute, Vec<f64>) {
        let params = SketchParams::with_sip(0.3, 10, GlobalKey::from_seed(61)).unwrap();
        let field = IntField::new(0, 3);
        let attr = CategoricalAttribute::new(field, levels);
        let sketcher = Sketcher::new(params);
        let db = SketchDb::new();
        let mut rng = Prg::seed_from_u64(62);
        let m = 30_000u64;
        let total: f64 = weights.iter().sum();
        let mut truth = vec![0u64; levels as usize];
        for i in 0..m {
            // Sample a level from the weights.
            let mut u = rng.random::<f64>() * total;
            let mut level = 0u64;
            for (j, &w) in weights.iter().enumerate() {
                if u < w {
                    level = j as u64;
                    break;
                }
                u -= w;
            }
            truth[level as usize] += 1;
            let mut profile = Profile::zeros(3);
            field.write(&mut profile, level);
            let s = sketcher
                .sketch(UserId(i), &profile, &attr.required_subset(), &mut rng)
                .unwrap();
            db.insert(attr.required_subset(), UserId(i), s);
        }
        let truth: Vec<f64> = truth.iter().map(|&c| c as f64 / m as f64).collect();
        (params, db, attr, truth)
    }

    #[test]
    fn histogram_recovers_planted_distribution() {
        let (params, db, attr, truth) = setup(5, &[0.4, 0.25, 0.2, 0.1, 0.05]);
        let engine = QueryEngine::new(params);
        let answers = engine.execute_plan(&db, &histogram_plan(&attr)).unwrap();
        let hist = Histogram::from_answers(&answers);
        assert_eq!(hist.frequencies.len(), 5);
        assert_eq!(hist.sample_size, 30_000);
        let tv = hist.total_variation(&truth);
        assert!(tv < 0.05, "total variation {tv}");
        assert_eq!(hist.mode(), 0);
    }

    #[test]
    fn level_frequency_matches_histogram_entry() {
        let (params, db, attr, _) = setup(4, &[0.1, 0.2, 0.3, 0.4]);
        let engine = QueryEngine::new(params);
        let answers = engine.execute_plan(&db, &histogram_plan(&attr)).unwrap();
        let hist = Histogram::from_answers(&answers);
        // One fused pass over the field answers every level exactly as
        // a per-level scan does.
        for level in 0..4u64 {
            let q = ConjunctiveQuery::new(attr.field().subset(), attr.field().full_value(level))
                .unwrap();
            let f = engine.estimator().estimate(&db, &q).unwrap().fraction;
            assert_eq!(f.to_bits(), hist.frequencies[level as usize].to_bits());
        }
    }

    #[test]
    fn contingency_cell_over_union_subset() {
        let params = SketchParams::with_sip(0.3, 10, GlobalKey::from_seed(63)).unwrap();
        let fa = IntField::new(0, 2);
        let fb = IntField::new(2, 2);
        let a = CategoricalAttribute::new(fa, 3);
        let b = CategoricalAttribute::new(fb, 4);
        let sketcher = Sketcher::new(params);
        let db = SketchDb::new();
        let mut rng = Prg::seed_from_u64(64);
        let union = fa.subset().union(&fb.subset());
        let m = 25_000u64;
        let mut hits = 0u64;
        for i in 0..m {
            let (va, vb) = ((i % 3), (i % 4));
            if va == 1 && vb == 2 {
                hits += 1;
            }
            let mut profile = Profile::zeros(4);
            fa.write(&mut profile, va);
            fb.write(&mut profile, vb);
            let s = sketcher
                .sketch(UserId(i), &profile, &union, &mut rng)
                .unwrap();
            db.insert(union.clone(), UserId(i), s);
        }
        let engine = QueryEngine::new(params);
        let plan = contingency_plan(&a, 1, &b, 2);
        assert_eq!(plan.required_subsets(), [union]);
        let cell = engine.execute_plan(&db, &plan).unwrap()[0].value;
        let truth = hits as f64 / m as f64;
        assert!((cell - truth).abs() < 0.02, "cell {cell} vs {truth}");
    }

    #[test]
    fn normalized_histogram_is_a_distribution() {
        let h = Histogram {
            frequencies: vec![0.5, -0.05, 0.6],
            sample_size: 100,
        };
        let n = h.normalized();
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(n.iter().all(|&x| x >= 0.0));
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn too_many_levels_rejected() {
        let _ = CategoricalAttribute::new(IntField::new(0, 2), 5);
    }
}

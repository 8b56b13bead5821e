//! Sketching arbitrary functions of a profile — the Conclusions extension.
//!
//! §5: "a natural generalization of sketching bit subsets is sketching
//! arbitrary functions of a user profile. The same privacy guarantees
//! apply, but the main question is whether we can significantly expand the
//! range of queries we can answer."
//!
//! This module implements that generalization. A sketched function is a
//! named, public function `f : Profile → {0,1}^w` with a finite output
//! width; the user runs Algorithm 1 on the *output value* `f(d)` with the
//! function's identifier in place of the subset `B` inside `H`. Privacy is
//! untouched — Lemma 3.3's analysis never looks at what the hashed value
//! *means*, only that the user's data selects one value out of a space —
//! and the analyst can then estimate `freq(f(d) = v)` for every `v` with
//! the usual Algorithm 2 inversion.
//!
//! Subset sketching is the special case `f = (·)_B`; the tests pin the two
//! code paths to each other.

use crate::hfun::HFunction;
use crate::params::{Error, SketchParams};
use crate::profile::{BitString, Profile, UserId};
use crate::sketcher::{Sketch, SketchRun, Sketcher};

/// A public, named function of a profile with a `width`-bit output.
///
/// The identifier must be globally unique per database (the coordinator
/// assigns it); it plays the role the subset `B` plays in `H`'s input and
/// therefore in the independence argument across sketched objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunctionId {
    /// Unique identifier of the function within the database.
    pub id: u64,
    /// Output width in bits (`1 ≤ width ≤ 20` supported for full
    /// distribution queries).
    pub width: u32,
}

impl FunctionId {
    /// Creates a function identifier.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ width ≤ 32`.
    #[must_use]
    pub fn new(id: u64, width: u32) -> Self {
        assert!((1..=32).contains(&width), "output width must be in [1, 32]");
        Self { id, width }
    }

    /// Encodes this function as the pseudo-subset fed to `H`.
    ///
    /// Function sketches live in a separate `H`-domain from subset
    /// sketches: the positions `[2³¹ + id-low, width]` cannot collide with
    /// real attribute positions, which are bounded by `2³¹` via
    /// [`crate::params::MAX_SKETCH_BITS`]-scale profiles. Injectivity with
    /// subset sketching is additionally guarded by the width channel.
    fn domain(&self) -> crate::profile::BitSubset {
        // A two-position subset encodes (id, width) injectively and cannot
        // equal any real subset used for data because real subsets are
        // sorted sets of attribute indices < 2^31 (enforced at a higher
        // level by profile sizes).
        let hi = 0x8000_0000u32 | (self.id as u32 & 0x3FFF_FFFF);
        let lo = 0xC000_0000u32 | self.width;
        crate::profile::BitSubset::new(vec![hi, lo]).expect("two distinct positions")
    }
}

/// User-side engine for function sketches.
#[derive(Debug, Clone)]
pub struct FunctionSketcher {
    inner: Sketcher,
}

impl FunctionSketcher {
    /// Builds a function sketcher from database parameters.
    #[must_use]
    pub fn new(params: SketchParams) -> Self {
        Self {
            inner: Sketcher::new(params),
        }
    }

    /// Sketches `f(profile)` where `f` is evaluated by the caller-supplied
    /// closure (the function itself is public; the *output on this user's
    /// data* is what stays private).
    ///
    /// # Errors
    ///
    /// As [`Sketcher::sketch`].
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a value outside the declared output width.
    pub fn sketch<R: rand::Rng + ?Sized, F>(
        &self,
        id: UserId,
        profile: &Profile,
        function: FunctionId,
        f: F,
        rng: &mut R,
    ) -> Result<Sketch, Error>
    where
        F: FnOnce(&Profile) -> u64,
    {
        self.sketch_with_stats(id, profile, function, f, rng)
            .map(|run| run.sketch)
    }

    /// As [`FunctionSketcher::sketch`], with iteration statistics.
    ///
    /// # Errors
    ///
    /// As [`Sketcher::sketch`].
    pub fn sketch_with_stats<R: rand::Rng + ?Sized, F>(
        &self,
        id: UserId,
        profile: &Profile,
        function: FunctionId,
        f: F,
        rng: &mut R,
    ) -> Result<SketchRun, Error>
    where
        F: FnOnce(&Profile) -> u64,
    {
        let output = f(profile);
        assert!(
            output < (1u64 << function.width),
            "function output {output} exceeds declared width {}",
            function.width
        );
        let value = BitString::from_u64(output, function.width as usize);
        self.inner
            .sketch_value_with_stats(id, &function.domain(), &value, rng)
    }
}

/// Analyst-side estimator over function sketches.
#[derive(Debug, Clone)]
pub struct FunctionEstimator {
    params: SketchParams,
    h: HFunction,
}

/// One `(user, sketch)` record for a function sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionRecord {
    /// The publishing user.
    pub id: UserId,
    /// The published sketch.
    pub sketch: Sketch,
}

impl FunctionEstimator {
    /// Builds the estimator (same parameters as the sketchers).
    #[must_use]
    pub fn new(params: SketchParams) -> Self {
        Self {
            params,
            h: HFunction::new(&params),
        }
    }

    /// Estimates `freq(f(d) = value)` from the published records.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyDatabase`] if no records were supplied.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds the declared output width.
    pub fn estimate(
        &self,
        function: FunctionId,
        records: &[FunctionRecord],
        value: u64,
    ) -> Result<crate::estimator::Estimate, Error> {
        if records.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        assert!(value < (1u64 << function.width), "value exceeds width");
        let target = BitString::from_u64(value, function.width as usize);
        let domain = function.domain();
        let ones = records
            .iter()
            .filter(|rec| self.h.eval(rec.id, &domain, &target, rec.sketch.key))
            .count();
        let n = records.len();
        let raw = ones as f64 / n as f64;
        let p = self.params.p();
        Ok(crate::estimator::Estimate {
            fraction: (raw - p) / (1.0 - 2.0 * p),
            raw,
            sample_size: n,
            p,
        })
    }

    /// Estimates the full output distribution of `f` (`2^width` values).
    ///
    /// # Errors
    ///
    /// As [`FunctionEstimator::estimate`]. Requires `width ≤ 20`.
    pub fn estimate_distribution(
        &self,
        function: FunctionId,
        records: &[FunctionRecord],
    ) -> Result<Vec<crate::estimator::Estimate>, Error> {
        assert!(
            function.width <= 20,
            "distribution limited to 20-bit outputs"
        );
        (0..(1u64 << function.width))
            .map(|v| self.estimate(function, records, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_prf::{GlobalKey, Prg};
    use rand::SeedableRng;

    fn params() -> SketchParams {
        SketchParams::with_sip(0.3, 10, GlobalKey::from_seed(55)).unwrap()
    }

    /// The popcount-bucket function of the tests: f(d) = min(ones(d), 3).
    fn bucket(profile: &Profile) -> u64 {
        (profile.bits().count_ones() as u64).min(3)
    }

    #[test]
    fn recovers_function_output_distribution() {
        let sketcher = FunctionSketcher::new(params());
        let estimator = FunctionEstimator::new(params());
        let function = FunctionId::new(1, 2);
        let mut rng = Prg::seed_from_u64(56);
        let m = 20_000u64;
        let mut records = Vec::new();
        let mut truth = [0u64; 4];
        for i in 0..m {
            // Profiles with 0..=4 ones in a fixed pattern.
            let ones = (i % 5) as usize;
            let mut bits = vec![false; 4];
            for b in bits.iter_mut().take(ones) {
                *b = true;
            }
            let profile = Profile::from_bits(&bits);
            truth[bucket(&profile) as usize] += 1;
            let s = sketcher
                .sketch(UserId(i), &profile, function, bucket, &mut rng)
                .unwrap();
            records.push(FunctionRecord {
                id: UserId(i),
                sketch: s,
            });
        }
        let dist = estimator.estimate_distribution(function, &records).unwrap();
        for v in 0..4usize {
            let expected = truth[v] as f64 / m as f64;
            assert!(
                (dist[v].fraction - expected).abs() < 0.03,
                "bucket {v}: {} vs {expected}",
                dist[v].fraction
            );
        }
    }

    #[test]
    fn function_sketch_reduces_to_subset_sketch_semantics() {
        // f = projection onto bits {0,2}: the estimate must match the
        // ordinary subset path statistically on the same population.
        let sketcher = FunctionSketcher::new(params());
        let subset_sketcher = Sketcher::new(params());
        let estimator = FunctionEstimator::new(params());
        let sub_estimator = crate::estimator::ConjunctiveEstimator::new(params());
        let function = FunctionId::new(9, 2);
        let subset = crate::profile::BitSubset::new(vec![0, 2]).unwrap();
        let db = crate::database::SketchDb::new();
        let mut rng = Prg::seed_from_u64(57);
        let m = 15_000u64;
        let mut records = Vec::new();
        for i in 0..m {
            let profile = Profile::from_bits(&[i % 4 == 0, true, i % 2 == 0]);
            let proj = |p: &Profile| u64::from(p.get(0)) | (u64::from(p.get(2)) << 1);
            let s = sketcher
                .sketch(UserId(i), &profile, function, proj, &mut rng)
                .unwrap();
            records.push(FunctionRecord {
                id: UserId(i),
                sketch: s,
            });
            let s2 = subset_sketcher
                .sketch(UserId(i), &profile, &subset, &mut rng)
                .unwrap();
            db.insert(subset.clone(), UserId(i), s2);
        }
        // Value (1,1) ↔ integer 3 under LSB-first packing.
        let via_function = estimator.estimate(function, &records, 3).unwrap().fraction;
        let q =
            crate::estimator::ConjunctiveQuery::new(subset, BitString::from_bits(&[true, true]))
                .unwrap();
        let via_subset = sub_estimator.estimate(&db, &q).unwrap().fraction;
        let truth = 0.25 * 0.5; // i%4==0 and i%2==0 coincide: actually i%4==0 ⊂ i%2==0
        let _ = truth;
        assert!(
            (via_function - via_subset).abs() < 0.03,
            "paths disagree: {via_function} vs {via_subset}"
        );
        // And the truth is freq(i%4==0 ∧ i%2==0) = 0.25.
        assert!((via_function - 0.25).abs() < 0.03);
    }

    #[test]
    fn distinct_functions_are_independent() {
        // Two functions with the same outputs on the same user must not
        // produce correlated H tables (different ids → different domains).
        let params = params();
        let h = HFunction::new(&params);
        let f1 = FunctionId::new(1, 2).domain();
        let f2 = FunctionId::new(2, 2).domain();
        let v = BitString::from_u64(1, 2);
        let disagreements = (0..64u64)
            .filter(|&s| h.eval(UserId(1), &f1, &v, s) != h.eval(UserId(1), &f2, &v, s))
            .count();
        assert!(disagreements > 10, "domains look correlated");
    }

    #[test]
    fn empty_records_error() {
        let estimator = FunctionEstimator::new(params());
        assert!(matches!(
            estimator.estimate(FunctionId::new(1, 1), &[], 0),
            Err(Error::EmptyDatabase)
        ));
    }

    #[test]
    #[should_panic(expected = "exceeds declared width")]
    fn oversized_output_panics() {
        let sketcher = FunctionSketcher::new(params());
        let mut rng = Prg::seed_from_u64(58);
        let profile = Profile::zeros(2);
        let _ = sketcher.sketch(UserId(0), &profile, FunctionId::new(3, 1), |_| 2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "output width must be in")]
    fn zero_width_function_rejected() {
        let _ = FunctionId::new(1, 0);
    }
}

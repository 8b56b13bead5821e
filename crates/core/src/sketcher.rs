//! Algorithm 1 — the sketching algorithm.
//!
//! ```text
//! Input: p-biased PRF H, parameter p, user data (id, d), subset B.
//! Output: a sketch s for d_B.
//! 1: Choose s uniformly at random without replacement.
//! 2: if H(id, B, d_B, s) = 1 then publish s and stop.
//! 5: else with probability p²/(1−p)² publish s and stop;
//!    otherwise continue from step 1.
//! 7: If all values of s are exhausted, report failure.
//! ```
//!
//! The published key is the *sketch*: after this rejection sampling,
//! `H(id, B, d_B, s) = 1` holds with probability `1 − p` (the user's true
//! value is biased towards 1) while `H(id, B, v, s) = 1` holds with
//! probability `p` for every other value `v` (Lemma 3.2). Privacy (Lemma
//! 3.3) holds over the user's private coins regardless of `H`.

use crate::hfun::HFunction;
use crate::params::{Error, SketchParams};
use crate::profile::{BitString, BitSubset, Profile, UserId};
use psketch_prf::Bias;
use rand::Rng;
use std::collections::HashMap;

/// A published sketch: the accepted key for one `(user, subset)` pair.
///
/// The key occupies `sketch_bits` bits — `⌈log log(M/τ)⌉`-scale per Lemma
/// 3.1, i.e. about 10 bits for every practical configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sketch {
    /// The accepted key `s < 2^sketch_bits`.
    pub key: u64,
}

/// Outcome of a sketching run together with its iteration count
/// (used by experiment E7 to validate the paper's running-time claims).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchRun {
    /// The published sketch.
    pub sketch: Sketch,
    /// Number of candidate keys considered (≥ 1).
    pub iterations: u64,
}

/// The user-side sketching engine: an instantiated `H` plus parameters.
#[derive(Debug, Clone)]
pub struct Sketcher {
    params: SketchParams,
    h: HFunction,
    accept: Bias,
}

impl Sketcher {
    /// Builds a sketcher for the given parameters.
    #[must_use]
    pub fn new(params: SketchParams) -> Self {
        let h = HFunction::new(&params);
        let accept = Bias::from_prob(params.accept_prob());
        Self { params, h, accept }
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// The instantiated public function `H`.
    #[must_use]
    pub fn h(&self) -> &HFunction {
        &self.h
    }

    /// Runs Algorithm 1 for `(id, d)` on subset `B`.
    ///
    /// `rng` supplies the user's *private* coins (key sampling and the
    /// accept/reject coin of step 5); privacy holds over these coins alone.
    ///
    /// # Errors
    ///
    /// * [`Error::KeySpaceExhausted`] if every candidate key is rejected
    ///   (probability `< τ/M` at the Lemma 3.1 length);
    /// * panics if `subset` references positions outside the profile
    ///   (caller bug, consistent with slice indexing contracts).
    pub fn sketch<R: Rng + ?Sized>(
        &self,
        id: UserId,
        profile: &Profile,
        subset: &BitSubset,
        rng: &mut R,
    ) -> Result<Sketch, Error> {
        self.sketch_with_stats(id, profile, subset, rng)
            .map(|run| run.sketch)
    }

    /// As [`Sketcher::sketch`] but also reports the iteration count.
    ///
    /// # Errors
    ///
    /// As [`Sketcher::sketch`].
    pub fn sketch_with_stats<R: Rng + ?Sized>(
        &self,
        id: UserId,
        profile: &Profile,
        subset: &BitSubset,
        rng: &mut R,
    ) -> Result<SketchRun, Error> {
        let value = profile.project(subset);
        self.sketch_value_with_stats(id, subset, &value, rng)
    }

    /// Runs Algorithm 1 directly on a projected value `d_B`.
    ///
    /// Exposed for the exact-analysis and experiment code that works with
    /// values rather than full profiles.
    ///
    /// # Errors
    ///
    /// As [`Sketcher::sketch`].
    pub fn sketch_value_with_stats<R: Rng + ?Sized>(
        &self,
        id: UserId,
        subset: &BitSubset,
        value: &BitString,
        rng: &mut R,
    ) -> Result<SketchRun, Error> {
        let key_space = self.params.key_space();
        let mut sampler = WithoutReplacement::new(key_space);
        // `(id, B, d_B)` is fixed for the whole rejection loop: encode it
        // once and splice only the candidate key per iteration.
        let mut prepared = self.h.prepare_query(subset, value);
        prepared.set_id(id);
        let mut iterations = 0;
        while let Some(candidate) = sampler.draw(rng) {
            iterations += 1;
            prepared.set_key(candidate);
            // Step 2: always accept a key that evaluates to 1.
            if prepared.eval() {
                return Ok(SketchRun {
                    sketch: Sketch { key: candidate },
                    iterations,
                });
            }
            // Step 5: accept a 0-key with probability p²/(1−p)².
            if self.accept.decide(rng.next_u64()) {
                return Ok(SketchRun {
                    sketch: Sketch { key: candidate },
                    iterations,
                });
            }
        }
        Err(Error::KeySpaceExhausted { key_space })
    }
}

/// Key spaces up to this size use the dense (`Vec`-backed) displacement
/// store; larger spaces fall back to the sparse `HashMap`. Every
/// Lemma 3.1-sized deployment (ℓ ≈ 10 bits) is comfortably dense.
const DENSE_KEY_SPACE_LIMIT: u64 = 1 << 13;

/// Displaced-entry storage for the lazy Fisher–Yates shuffle.
///
/// The dense variant is a zero-initialized `Vec` where slot `i` holds
/// `0` for "still identity" or `value + 1` for a displaced entry: one
/// cheap allocation per sketch instead of a `HashMap` with per-draw
/// hashing (the previous implementation allocated and grew a fresh map
/// on every sketch call, which dominated Algorithm 1's hot loop).
#[derive(Debug)]
enum Displaced {
    Dense(Vec<u64>),
    Sparse(HashMap<u64, u64>),
}

impl Displaced {
    #[inline]
    fn get(&self, i: u64) -> u64 {
        match self {
            Self::Dense(slots) => {
                let s = slots[i as usize];
                if s == 0 {
                    i
                } else {
                    s - 1
                }
            }
            Self::Sparse(map) => map.get(&i).copied().unwrap_or(i),
        }
    }

    #[inline]
    fn set(&mut self, i: u64, value: u64) {
        match self {
            Self::Dense(slots) => slots[i as usize] = value + 1,
            Self::Sparse(map) => {
                map.insert(i, value);
            }
        }
    }
}

/// Uniform sampling without replacement from `0..n`.
///
/// A lazy Fisher–Yates shuffle: conceptually we shuffle the array
/// `[0, 1, …, n−1]`, storing only displaced entries. Each `draw` returns
/// the next element of a uniformly random permutation, so the sequence of
/// candidates matches Algorithm 1's "choose s uniformly at random without
/// replacement" exactly. Both storage variants consume identical
/// randomness and produce identical permutations.
#[derive(Debug)]
struct WithoutReplacement {
    n: u64,
    next: u64,
    displaced: Displaced,
}

impl WithoutReplacement {
    fn new(n: u64) -> Self {
        let displaced = if n <= DENSE_KEY_SPACE_LIMIT {
            Displaced::Dense(vec![0; n as usize])
        } else {
            Displaced::Sparse(HashMap::new())
        };
        Self {
            n,
            next: 0,
            displaced,
        }
    }

    fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u64> {
        if self.next >= self.n {
            return None;
        }
        // Pick a uniform index in [next, n) and swap it to the front.
        let span = self.n - self.next;
        let j = self.next + uniform_u64(rng, span);
        let picked = self.displaced.get(j);
        if j != self.next {
            let front = self.displaced.get(self.next);
            self.displaced.set(j, front);
        }
        self.next += 1;
        Some(picked)
    }
}

/// Uniform integer in `[0, span)` by rejection sampling (unbiased).
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    // Classic Lemire-style rejection: draw until below the largest
    // multiple of `span`.
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_prf::{GlobalKey, Prg};
    use rand::SeedableRng;

    fn sketcher(p: f64, bits: u8) -> Sketcher {
        Sketcher::new(SketchParams::with_sip(p, bits, GlobalKey::from_seed(11)).unwrap())
    }

    #[test]
    fn sketch_key_is_within_key_space() {
        let sk = sketcher(0.3, 6);
        let profile = Profile::from_bits(&[true, false, true, true]);
        let subset = BitSubset::range(0, 4);
        let mut rng = Prg::seed_from_u64(1);
        for i in 0..200 {
            let s = sk.sketch(UserId(i), &profile, &subset, &mut rng).unwrap();
            assert!(s.key < 64);
        }
    }

    #[test]
    fn lemma_3_2_bias_towards_true_value() {
        // After sketching, H(id, B, d_B, s) = 1 with probability 1 − p and
        // H(id, B, v, s) = 1 with probability p for v ≠ d_B.
        let p = 0.3;
        let sk = sketcher(p, 10);
        let subset = BitSubset::range(0, 3);
        let true_profile = Profile::from_bits(&[true, false, true]);
        let other_value = BitString::from_bits(&[false, false, true]);
        let mut rng = Prg::seed_from_u64(2);
        let n = 20_000;
        let mut hits_true = 0;
        let mut hits_other = 0;
        for i in 0..n {
            let id = UserId(i);
            let s = sk.sketch(id, &true_profile, &subset, &mut rng).unwrap();
            let proj = true_profile.project(&subset);
            if sk.h().eval(id, &subset, &proj, s.key) {
                hits_true += 1;
            }
            if sk.h().eval(id, &subset, &other_value, s.key) {
                hits_other += 1;
            }
        }
        let f_true = f64::from(hits_true) / n as f64;
        let f_other = f64::from(hits_other) / n as f64;
        // 5σ ≈ 0.016 at n = 20k.
        assert!(
            (f_true - (1.0 - p)).abs() < 0.017,
            "true-value rate {f_true} should be ≈ {}",
            1.0 - p
        );
        assert!(
            (f_other - p).abs() < 0.017,
            "other-value rate {f_other} should be ≈ {p}"
        );
    }

    #[test]
    fn exhaustion_is_reported_not_panicked() {
        // Force exhaustion: 1-bit key space, and find a user whose two
        // candidate keys both evaluate to 0; with the accept coin forced
        // low probability, failures must eventually surface as errors.
        let sk = sketcher(0.05, 1); // accept prob ≈ 0.0028, L = 2
        let profile = Profile::from_bits(&[true]);
        let subset = BitSubset::single(0);
        let mut rng = Prg::seed_from_u64(3);
        let mut saw_failure = false;
        for i in 0..4_000 {
            match sk.sketch(UserId(i), &profile, &subset, &mut rng) {
                Ok(s) => assert!(s.key < 2),
                Err(Error::KeySpaceExhausted { key_space }) => {
                    assert_eq!(key_space, 2);
                    saw_failure = true;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(
            saw_failure,
            "expected at least one exhaustion at p=0.05, ℓ=1"
        );
    }

    #[test]
    fn iterations_do_not_exceed_key_space() {
        let sk = sketcher(0.1, 3);
        let profile = Profile::from_bits(&[false, true]);
        let subset = BitSubset::range(0, 2);
        let mut rng = Prg::seed_from_u64(4);
        for i in 0..2_000 {
            if let Ok(run) = sk.sketch_with_stats(UserId(i), &profile, &subset, &mut rng) {
                assert!(run.iterations >= 1 && run.iterations <= 8);
            }
        }
    }

    #[test]
    fn expected_iterations_tracks_theory() {
        // Per iteration the algorithm stops with probability
        // p + (1−p)·r = p/(1−p); mean iterations ≈ (1−p)/p (truncated by
        // the finite key space, which only lowers it).
        let p = 0.4;
        let sk = sketcher(p, 12);
        let profile = Profile::from_bits(&[true, true, false]);
        let subset = BitSubset::range(0, 3);
        let mut rng = Prg::seed_from_u64(5);
        let n = 30_000;
        let total: u64 = (0..n)
            .map(|i| {
                sk.sketch_with_stats(UserId(i), &profile, &subset, &mut rng)
                    .unwrap()
                    .iterations
            })
            .sum();
        let mean = total as f64 / n as f64;
        let theory = (1.0 - p) / p;
        assert!(
            (mean - theory).abs() < 0.05,
            "mean iterations {mean} vs theory {theory}"
        );
    }

    #[test]
    fn without_replacement_visits_every_key_once() {
        let mut rng = Prg::seed_from_u64(6);
        for n in [1u64, 2, 7, 64] {
            let mut sampler = WithoutReplacement::new(n);
            let mut seen = vec![false; n as usize];
            while let Some(v) = sampler.draw(&mut rng) {
                assert!(!seen[v as usize], "key {v} drawn twice (n={n})");
                seen[v as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "missed keys at n={n}");
        }
    }

    #[test]
    fn without_replacement_first_draw_is_uniform() {
        let mut rng = Prg::seed_from_u64(7);
        let n = 8u64;
        let trials = 64_000;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..trials {
            let mut sampler = WithoutReplacement::new(n);
            counts[sampler.draw(&mut rng).unwrap() as usize] += 1;
        }
        let expected = trials as f64 / n as f64;
        for (k, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.06, "first-draw frequency of {k} off by {dev}");
        }
    }

    #[test]
    fn uniform_u64_covers_non_power_of_two_spans() {
        let mut rng = Prg::seed_from_u64(8);
        let span = 5u64;
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[uniform_u64(&mut rng, span) as usize] += 1;
        }
        for &c in &counts {
            let freq = f64::from(c) / 50_000.0;
            assert!((freq - 0.2).abs() < 0.01, "uniform_u64 biased: {freq}");
        }
    }

    #[test]
    fn without_replacement_dense_and_sparse_agree() {
        // Both displacement stores must yield the identical permutation
        // from the same randomness (determinism across the size cutoff).
        let n = 64u64;
        let mut dense = WithoutReplacement::new(n);
        let mut sparse = WithoutReplacement {
            n,
            next: 0,
            displaced: Displaced::Sparse(HashMap::new()),
        };
        assert!(matches!(dense.displaced, Displaced::Dense(_)));
        let mut rng_a = Prg::seed_from_u64(9);
        let mut rng_b = Prg::seed_from_u64(9);
        for _ in 0..n {
            assert_eq!(dense.draw(&mut rng_a), sparse.draw(&mut rng_b));
        }
    }

    #[test]
    fn large_key_spaces_use_sparse_storage() {
        let sampler = WithoutReplacement::new(1 << 20);
        assert!(matches!(sampler.displaced, Displaced::Sparse(_)));
    }
}

//! Shared experiment plumbing: configurations, seeding, publishing.

use psketch_core::{BitSubset, SketchDb, SketchParams, Sketcher};
use psketch_data::Population;
use psketch_prf::{GlobalKey, Prg};

/// Global experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Quick mode: smaller populations and fewer repetitions, for CI and
    /// smoke runs. Full mode runs every experiment at full scale.
    pub quick: bool,
    /// Base seed; every (experiment, repetition) derives its own stream.
    pub seed: u64,
}

impl Config {
    /// The default full-fidelity configuration.
    #[must_use]
    pub fn full() -> Self {
        Self {
            quick: false,
            seed: 0xC0FFEE,
        }
    }

    /// The quick smoke configuration.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            quick: true,
            seed: 0xC0FFEE,
        }
    }

    /// Scales a population size down in quick mode.
    #[must_use]
    pub fn m(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).clamp(500, 5_000)
        } else {
            full
        }
    }

    /// Scales a repetition count down in quick mode.
    #[must_use]
    pub fn reps(&self, full: u64) -> u64 {
        if self.quick {
            (full / 3).max(2)
        } else {
            full
        }
    }

    /// A deterministic RNG for (experiment id, repetition).
    #[must_use]
    pub fn rng(&self, experiment: u64, rep: u64) -> Prg {
        Prg::from_key_and_stream(&GlobalKey::from_seed(self.seed), experiment << 32 | rep)
    }

    /// Deterministic sketch parameters for an experiment.
    ///
    /// # Panics
    ///
    /// Panics on invalid `p`/`bits` (experiment programming error).
    #[must_use]
    pub fn params(&self, p: f64, bits: u8, experiment: u64) -> SketchParams {
        SketchParams::with_sip(p, bits, GlobalKey::from_seed(self.seed ^ experiment))
            .expect("experiment parameters are valid")
    }
}

/// Publishes one sketch per user per subset and returns the database and
/// the number of sketching failures.
#[must_use]
pub fn publish(
    pop: &Population,
    sketcher: &Sketcher,
    subsets: &[BitSubset],
    rng: &mut Prg,
) -> (SketchDb, usize) {
    let db = SketchDb::new();
    let failures = pop
        .publish_all(sketcher, subsets, &db, rng)
        .expect("publishing cannot fail except by exhaustion");
    (db, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_scales_down() {
        let c = Config::quick();
        assert_eq!(c.m(100_000), 5_000);
        assert_eq!(c.m(600), 500);
        assert_eq!(c.reps(12), 4);
        assert_eq!(c.reps(3), 2);
        let fc = Config::full();
        assert_eq!(fc.m(100_000), 100_000);
        assert_eq!(fc.reps(12), 12);
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        use rand::Rng;
        let c = Config::full();
        let mut a = c.rng(1, 0);
        let mut a2 = c.rng(1, 0);
        let mut b = c.rng(1, 1);
        assert_eq!(a.next_u64(), a2.next_u64());
        assert_ne!(c.rng(1, 0).next_u64(), b.next_u64());
    }
}

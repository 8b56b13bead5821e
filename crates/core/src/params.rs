//! Sketching parameters and the central error type.

use crate::profile::SubsetError;
use psketch_prf::{Bias, GlobalKey, PrfKind};
use std::fmt;

/// Maximum supported sketch length in bits.
///
/// Lemma 3.1 gives `ℓ = ⌈log log(M/τ)/|log(1−p²)|⌉`; the paper observes a
/// 10-bit sketch covers "any foreseeable practical use" at `p > 1/4`. We
/// allow up to 30 bits (a billion-key space) which is already far beyond
/// any parameterization reachable from sane `(M, τ, p)`.
pub const MAX_SKETCH_BITS: u8 = 30;

/// All parameters of the sketching mechanism.
///
/// * `p` — the bias of the public function `H` (must satisfy `0 < p < 1/2`);
/// * `sketch_bits` — the key length `ℓ` (so the key space has `2^ℓ` keys);
/// * `key` — the global 256-bit generator key for `H`;
/// * `prf` — which PRF family instantiates `H`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchParams {
    p: Bias,
    sketch_bits: u8,
    key: GlobalKey,
    prf: PrfKind,
}

impl SketchParams {
    /// Builds parameters after validation.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidBias`] unless `0 < p < 1/2` (Algorithm 2 divides
    ///   by `1 − 2p`, and the accept probability `p²/(1−p)²` must be `< 1`);
    /// * [`Error::InvalidSketchBits`] unless `1 ≤ ℓ ≤ MAX_SKETCH_BITS`.
    pub fn new(p: f64, sketch_bits: u8, key: GlobalKey, prf: PrfKind) -> Result<Self, Error> {
        let bias = Bias::from_prob(p);
        if p <= 0.0 || !bias.is_below_half() || bias == Bias::ZERO {
            return Err(Error::InvalidBias { p });
        }
        if sketch_bits == 0 || sketch_bits > MAX_SKETCH_BITS {
            return Err(Error::InvalidSketchBits { bits: sketch_bits });
        }
        Ok(Self {
            p: bias,
            sketch_bits,
            key,
            prf,
        })
    }

    /// Convenience constructor with the SipHash PRF.
    ///
    /// # Errors
    ///
    /// As [`SketchParams::new`].
    pub fn with_sip(p: f64, sketch_bits: u8, key: GlobalKey) -> Result<Self, Error> {
        Self::new(p, sketch_bits, key, PrfKind::Sip)
    }

    /// The bias `p` of `H`.
    #[must_use]
    pub const fn bias(&self) -> Bias {
        self.p
    }

    /// The bias as an `f64` probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p.prob()
    }

    /// The sketch length `ℓ` in bits.
    #[must_use]
    pub const fn sketch_bits(&self) -> u8 {
        self.sketch_bits
    }

    /// The key-space size `L = 2^ℓ`.
    #[must_use]
    pub const fn key_space(&self) -> u64 {
        1u64 << self.sketch_bits
    }

    /// The global generator key.
    #[must_use]
    pub const fn global_key(&self) -> &GlobalKey {
        &self.key
    }

    /// The PRF family instantiating `H`.
    #[must_use]
    pub const fn prf_kind(&self) -> PrfKind {
        self.prf
    }

    /// The rejected-key accept probability `r = p²/(1−p)²` of Algorithm 1
    /// step 5.
    #[must_use]
    pub fn accept_prob(&self) -> f64 {
        let p = self.p();
        (p / (1.0 - p)).powi(2)
    }

    /// The Algorithm 2 denominator `1 − 2p` (positive by validation).
    #[must_use]
    pub fn denominator(&self) -> f64 {
        1.0 - 2.0 * self.p()
    }
}

/// Errors raised by the psketch core.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// `p` outside the open interval `(0, 1/2)`.
    InvalidBias {
        /// The rejected value.
        p: f64,
    },
    /// Sketch length outside `[1, MAX_SKETCH_BITS]`.
    InvalidSketchBits {
        /// The rejected length.
        bits: u8,
    },
    /// Algorithm 1 exhausted the key space without accepting (paper step 7:
    /// "If all values of s are exhausted then report failure and stop").
    KeySpaceExhausted {
        /// The key-space size that was exhausted.
        key_space: u64,
    },
    /// A subset was malformed.
    Subset(SubsetError),
    /// A query referenced a subset for which the database has no sketches.
    UnknownSubset {
        /// Debug rendering of the missing subset.
        subset: String,
    },
    /// A query value's width differs from the sketched subset's width.
    WidthMismatch {
        /// Width of the sketched subset.
        subset: usize,
        /// Width of the provided value.
        value: usize,
    },
    /// The database holds no sketches for the requested estimate.
    EmptyDatabase,
    /// A privacy budget would be exceeded.
    BudgetExceeded {
        /// ε already spent.
        spent: f64,
        /// ε available in total.
        budget: f64,
    },
    /// Sketch decoding failed.
    Codec {
        /// Human-readable description of the malformed input.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidBias { p } => {
                write!(f, "bias p = {p} must lie strictly inside (0, 1/2)")
            }
            Self::InvalidSketchBits { bits } => write!(
                f,
                "sketch length {bits} bits outside supported range [1, {MAX_SKETCH_BITS}]"
            ),
            Self::KeySpaceExhausted { key_space } => write!(
                f,
                "sketching failed: all {key_space} candidate keys exhausted (Algorithm 1 step 7)"
            ),
            Self::Subset(e) => write!(f, "{e}"),
            Self::UnknownSubset { subset } => {
                write!(f, "no sketches recorded for subset {subset}")
            }
            Self::WidthMismatch { subset, value } => write!(
                f,
                "query value has {value} bits but the sketched subset has {subset}"
            ),
            Self::EmptyDatabase => write!(f, "no sketches available for the estimate"),
            Self::BudgetExceeded { spent, budget } => {
                write!(
                    f,
                    "privacy budget exceeded: spent {spent:.4} of {budget:.4}"
                )
            }
            Self::Codec { reason } => write!(f, "sketch decode error: {reason}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Subset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SubsetError> for Error {
    fn from(e: SubsetError) -> Self {
        Self::Subset(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> GlobalKey {
        GlobalKey::from_seed(1)
    }

    #[test]
    fn accepts_valid_params() {
        let p = SketchParams::with_sip(0.3, 10, key()).unwrap();
        assert!((p.p() - 0.3).abs() < 1e-12);
        assert_eq!(p.sketch_bits(), 10);
        assert_eq!(p.key_space(), 1024);
    }

    #[test]
    fn rejects_bias_at_or_above_half() {
        assert!(matches!(
            SketchParams::with_sip(0.5, 10, key()),
            Err(Error::InvalidBias { .. })
        ));
        assert!(matches!(
            SketchParams::with_sip(0.75, 10, key()),
            Err(Error::InvalidBias { .. })
        ));
    }

    #[test]
    fn rejects_nonpositive_bias() {
        assert!(matches!(
            SketchParams::with_sip(0.0, 10, key()),
            Err(Error::InvalidBias { .. })
        ));
        assert!(matches!(
            SketchParams::with_sip(-0.1, 10, key()),
            Err(Error::InvalidBias { .. })
        ));
    }

    #[test]
    fn rejects_bad_sketch_bits() {
        assert!(matches!(
            SketchParams::with_sip(0.3, 0, key()),
            Err(Error::InvalidSketchBits { .. })
        ));
        assert!(matches!(
            SketchParams::with_sip(0.3, 31, key()),
            Err(Error::InvalidSketchBits { .. })
        ));
    }

    #[test]
    fn accept_prob_formula() {
        let p = SketchParams::with_sip(0.25, 8, key()).unwrap();
        // r = (0.25/0.75)^2 = 1/9.
        assert!((p.accept_prob() - 1.0 / 9.0).abs() < 1e-12);
        assert!((p.denominator() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn error_display_is_informative() {
        let e = Error::KeySpaceExhausted { key_space: 16 };
        assert!(e.to_string().contains("16"));
        let e = Error::WidthMismatch {
            subset: 3,
            value: 5,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
    }
}

//! # psketch-prf — pseudorandom-function substrate
//!
//! From-scratch cryptographic building blocks for the *Privacy via
//! Pseudorandom Sketches* reproduction (Mishra & Sandler, PODS 2006):
//!
//! * [`siphash`] — SipHash-2-4, verified against the official reference
//!   vectors; the default instantiation of the paper's public function `H`.
//! * [`chacha`] — the ChaCha20 block function (RFC 8439 vectors); powers
//!   the second PRF instantiation and the deterministic experiment PRG.
//! * [`bias`] — probabilities as 64-bit fixed point and the paper's
//!   "compare the hash output to the binary expansion of p" biased bit.
//! * [`encode`] — injective, domain-separated byte encoding of PRF inputs.
//! * [`lanes`] — multi-lane SipHash: N interleaved hash streams per
//!   instruction sequence (structure-of-arrays, autovectorized), with the
//!   process-wide lane-width knob. Bit-identical to [`siphash`].
//! * [`prf`] — the [`prf::Prf`] trait and keyed instantiations.
//! * [`prg`] — a ChaCha20 counter-mode generator implementing the `rand`
//!   traits, so every experiment in the workspace is exactly reproducible.
//!
//! The paper's privacy theorem (its Lemma 3.3) is *independent* of the
//! pseudorandomness of `H`; only utility relies on it. This crate therefore
//! provides two independent PRF families so the utility experiments can
//! cross-check one against the other.

// `deny` rather than `forbid`: the lane dispatcher in `lanes` needs one
// tightly-scoped `#[allow(unsafe_code)]` block to call its runtime-
// feature-detected `#[target_feature]` kernel. Everything else stays
// unsafe-free, and any new unsafe outside that block is still an error.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bias;
pub mod chacha;
pub mod encode;
pub mod lanes;
pub mod prf;
pub mod prg;
pub mod siphash;

pub use bias::Bias;
pub use encode::InputEncoder;
pub use lanes::{
    lane_width, probe_lane_width, set_lane_width, LaneWidthError, SipStateX4, SipStateX8,
    SipStateXN, SUPPORTED_LANE_WIDTHS,
};
pub use prf::{AnyPrf, ChaChaPrf, GlobalKey, Prf, PrfKind, PrfPrefix, SipPrf};
pub use prg::Prg;

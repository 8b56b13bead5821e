//! # psketch — Privacy via Pseudorandom Sketches
//!
//! Umbrella crate for the reproduction of *Privacy via Pseudorandom
//! Sketches* (Nina Mishra & Mark Sandler, PODS 2006). Re-exports the
//! whole workspace under one roof:
//!
//! * [`core`] ([`psketch_core`]) — the paper's mechanism: Algorithm 1
//!   (sketching), Algorithm 2 (conjunctive estimation), privacy
//!   accounting, the Appendix F combiner and the exact Lemma 3.3 analysis;
//! * [`prf`] ([`psketch_prf`]) — the from-scratch PRF substrate
//!   (SipHash-2-4, ChaCha20, biased bits, deterministic PRG);
//! * [`queries`] ([`psketch_queries`]) — the §4.1/Appendix E derived
//!   query compilers (means, inner products, intervals, decision trees,
//!   `a+b < 2^r`) and the execution engine;
//! * [`baselines`] ([`psketch_baselines`]) — randomized response,
//!   retention replacement, hashing, output perturbation, attacks;
//! * [`data`] ([`psketch_data`]) — synthetic populations with exact
//!   ground truth;
//! * [`protocol`] ([`psketch_protocol`]) — the deployment layer:
//!   coordinator announcements, budget-enforcing user agents, wire-format
//!   submissions;
//! * [`linalg`] ([`psketch_linalg`]) — the dense linear algebra behind
//!   the Appendix F recovery system;
//! * [`obs`] ([`psketch_obs`]) — the std-only observability layer:
//!   process-wide metrics registry (counters, gauges, log₂ latency
//!   histograms), leveled structured logging with trace correlation,
//!   and the Prometheus-text exposition endpoint.
//!
//! See the repository README for a guided tour, `examples/` for runnable
//! programs and `experiments -- list` (the `psketch-bench` harness) for
//! the paper-claim-by-claim validation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use psketch_baselines as baselines;
pub use psketch_core as core;
pub use psketch_data as data;
pub use psketch_linalg as linalg;
pub use psketch_obs as obs;
pub use psketch_prf as prf;
pub use psketch_protocol as protocol;
pub use psketch_queries as queries;

// The most-used types at the crate root for ergonomic imports.
pub use psketch_core::{
    BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, Error, Estimate, HFunction,
    IntField, PrivacyAccountant, Profile, Sketch, SketchDb, SketchParams, Sketcher, UserId,
};
pub use psketch_prf::{Bias, GlobalKey, PrfKind, Prg};

//! # psketch-bench — the experiment harness
//!
//! Regenerates every claim of *Privacy via Pseudorandom Sketches* as a
//! measured table. The paper is a theory paper with no experimental
//! tables of its own, so the "evaluation" to reproduce is its collection
//! of lemmas, worked examples and comparative claims. [`exp::registry`]
//! maps each to an experiment id (e1–e27); `experiments -- list` prints
//! them. The later ids measure the service: throughput, lanes, plans,
//! cluster scatter and observability, writing `BENCH_*.json`.
//!
//! List them:      `cargo run -p psketch-bench --release --bin experiments -- list`
//! Run everything: `cargo run -p psketch-bench --release --bin experiments`
//! Run one:        `cargo run -p psketch-bench --release --bin experiments -- e5`
//! Smoke mode:     append `--quick`.
//!
//! The end-to-end service benchmark is the `benchmark` binary
//! (`src/bin/benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod exp;
pub mod report;

pub use common::Config;
pub use report::Table;

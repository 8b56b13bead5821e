//! # psketch-cluster — the sharded multi-node sketch pool
//!
//! The paper's utility bound (Lemma 4.1) improves with the population
//! size `M`, and a real deployment serves millions of users — more than
//! one `psketch-server` process should hold. This crate scales the
//! service horizontally without changing a single answer:
//!
//! * [`shard`] — a versioned, serializable [`ShardMap`] partitioning
//!   users across `N` independent server nodes (each with its own WAL)
//!   by a stable public hash of the user id;
//! * [`router`] — a [`Router`] that fans ingest out by shard and serves
//!   analyst queries by **parallel scatter-gather over exact partial
//!   counts**: the router writes every shard's request over its
//!   persistent connection before reading the replies in shard order,
//!   every query family compiles to a
//!   [`TermPlan`](psketch_queries::TermPlan), every shard concurrently
//!   reports integer `(ones, population)` pairs for the plan's
//!   deduplicated terms through one generic `PartialTermCounts` frame,
//!   the router sums them in shard order (integer addition — exact in
//!   any order, merged in a fixed one), and the Algorithm 2 float
//!   inversion plus the plan's post-combination run once on the merged
//!   sums.
//!
//! Because the conjunctive estimator is a pure counting scan, cluster
//! answers are **bit-identical** to a single node holding the union of
//! the records — the property tests in `tests/cluster.rs` verify this
//! for every query family over random shard splits.
//!
//! Node failures degrade instead of skewing: an unreachable shard is
//! retried with backoff, then reported in the answer's
//! [`router::Coverage`] (which shards are missing, and what fraction of
//! the known population they held) while the estimate covers exactly
//! the responding population.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod router;
pub mod shard;

pub use router::{
    backoff_delay, parallel_ingest, ClusterError, ClusterPlanAnswer, ClusterStatus,
    ClusterSubmitReport, Coverage, Router, RouterConfig, ShardIngest, ShardOutage, ShardStatus,
    MAX_BACKOFF,
};
pub use shard::{splitmix64, ShardMap, ShardMapError, ShardNode};

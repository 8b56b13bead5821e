//! # psketch-protocol — the deployment layer
//!
//! The paper's scenario (§1) is an *untrusted-collector* protocol: users
//! keep their data and publish only sketches; a coordinator merely
//! publishes parameters and accumulates the public pool. This crate is
//! that protocol, shaped the way a downstream system would embed it:
//!
//! * [`messages`] — [`messages::Announcement`]
//!   and [`messages::Submission`] (bit-packed sketch bundles);
//! * [`agent`] — [`agent::UserAgent`]: owns the profile and an
//!   ε budget, *refuses* over-budget plans (Corollary 3.4 enforced on the
//!   user's side, where the paper puts it), sketches with private
//!   randomness;
//! * [`coordinator`] — [`coordinator::AnnouncementBuilder`]
//!   (Lemma 3.1 sketch sizing, canonical subset plans) and
//!   [`coordinator::Coordinator`] (validation, duplicate
//!   rejection, the public [`SketchDb`](psketch_core::SketchDb) pool);
//! * [`ingest`] — [`ingest::IngestBatch`]: the one submission validator,
//!   staging every accepted key straight into per-subset columns.
//!
//! Nothing in this crate is trusted with private data: the coordinator
//! sees only sketches, and every parameter it publishes is public —
//! including the PRF key, since privacy is PRF-independent (Lemma 3.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod coordinator;
pub mod ingest;
pub mod messages;

pub use agent::UserAgent;
pub use coordinator::{AnnouncementBuilder, BatchOutcome, Coordinator, CoordinatorStats};
pub use ingest::IngestBatch;
pub use messages::{Announcement, QueryCounts, ShardIdentity, Submission};

//! # psketch-server — the networked sketch-pool service
//!
//! The paper's deployment story (§1, Appendix A) is a live three-actor
//! system: a coordinator publishes an announcement, millions of user
//! agents publish sketch bundles, analysts query the public pool. This
//! crate turns the in-process [`psketch_protocol`] layer into that
//! service, std-only (threads + blocking sockets, no async runtime):
//!
//! * [`wire`] — a length-prefixed, versioned binary frame protocol
//!   carrying the existing protocol messages plus query/response and
//!   error frames;
//! * [`server`] — a threaded TCP server with a fixed worker pool and
//!   graceful shutdown; a submit frame's body is decoded straight into
//!   pool columns and landed with
//!   [`psketch_protocol::Coordinator::apply_batch`], queries run off
//!   `Arc` snapshots so analysts never block ingestion;
//! * [`client`] — a blocking client with connection reuse and chunked
//!   batch submission;
//! * [`wal`] — crash-safe durability: a CRC-framed write-ahead log,
//!   fsync'd before a batch is acknowledged, replayed on startup
//!   (tolerating a torn final record) and compacted into a bit-packed
//!   snapshot once it outgrows a threshold.
//!
//! The wire format and WAL record layout are specified in
//! `docs/wire-protocol.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wal;
pub mod wire;

pub use client::{next_nonce, Client, ClientError, SubmitAck};
pub use server::{ServeError, Server, ServerConfig};
pub use wal::{Wal, WalConfig, WalError};
pub use wire::{
    PlanAnswerWire, PlanStats, Request, Response, ServerStats, MAX_FRAME_BYTES, MAX_PLAN_TERMS,
    PROTOCOL_VERSION,
};

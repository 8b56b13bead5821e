//! The framed binary wire protocol.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! u32 LE payload length  (≤ MAX_FRAME_BYTES)
//! payload:
//!     u8 protocol version (= PROTOCOL_VERSION)
//!     u8 message kind
//!     body…                (kind-specific)
//! ```
//!
//! The payload carries the existing [`psketch_protocol::messages`] types
//! in a compact hand-rolled binary encoding (the container has no serde
//! binary backend): integers little-endian, `f64` as IEEE-754 bits,
//! byte strings and lists length-prefixed with `u32`. Requests flow
//! client → server, responses flow back; a server that cannot parse or
//! serve a request answers with an [`Response::Error`] frame instead of
//! dropping the connection, so one bad query never costs a client its
//! warm connection.
//!
//! Versioning: the version byte sits *outside* the kind so a server can
//! reject a frame from the future (or the past) with
//! [`codes::UNSUPPORTED_VERSION`] without guessing at its body layout.

use psketch_core::codec::bundle_size_bytes;
use psketch_core::{BitString, BitSubset, ConjunctiveQuery, Error, UserId};
use psketch_obs::span::MAX_SPAN_ATTRS;
use psketch_obs::{HistogramSnapshot, MetricId, RegistrySnapshot, SpanNode};
use psketch_protocol::{
    Announcement, Coordinator, CoordinatorStats, IngestBatch, QueryCounts, ShardIdentity,
    Submission,
};
use psketch_queries::{LinearAnswer, TermPlan};
use std::io::{self, Read, Write};

/// Current protocol version.
///
/// Version history:
/// * 1 — the original single-node protocol (announcement, submit,
///   conjunctive/distribution/linear estimates, stats, ping).
/// * 2 — the cluster revision: hello handshake (analyst identity +
///   shard identity), per-kind partial-count query frames for
///   scatter-gather routers, server stats (uptime + per-frame-kind
///   counters), and the budget-exhausted error code.
/// * 3 — the query-plan revision: messages carry serialized
///   [`TermPlan`]s. The `Plan` frame executes a whole compiled plan
///   server-side (replacing the v2 `Linear` frame); the generic
///   `PartialTermCounts` frame scatters a plan's deduplicated term list
///   and replaces the v2 `PartialCounts`/`PartialDistribution` pair —
///   every query family shards through this one frame. Server stats
///   gained the engine's plan counters.
/// * 4 — the retry-correctness revision: every charging request
///   (`Conjunctive`, `Distribution`, `Plan`, `PartialTermCounts`)
///   carries a **request nonce** identifying the logical query, so a
///   client that lost the connection after the server charged its
///   ε-ledger can retry with the same nonce and be served without a
///   second charge (charge-once per nonce; `0` opts out). Server stats
///   gained the ε-ledger counters ([`BudgetStats`]).
/// * 5 — the observability revision: the v4 request nonce doubles as
///   the **trace correlation id** — routers and servers log it with
///   every record a query produces, so one analyst query greps
///   identically across all node logs. A new `Metrics` frame returns
///   the node's full [`psketch_obs`] registry snapshot (counters,
///   gauges, log₂ latency histograms) so `cluster status --metrics`
///   can merge histograms cluster-wide.
/// * 6 — the profiling revision: every charging query frame carries a
///   **profile flag**; when set, the server records its execution as a
///   span trace keyed by the request nonce, stores it in a bounded
///   recent-trace ring, and attaches the serialized span tree to the
///   response (the in-band half of `EXPLAIN ANALYZE`). A new `Trace`
///   frame fetches a recently completed trace from the ring by nonce.
/// * 7 — the one-charging-path revision: the pre-plan `Conjunctive` and
///   `Distribution` requests (`0x03`/`0x04`) and their `Estimate` and
///   `Distribution` responses (`0x83`/`0x84`) are retired. A conjunction
///   is a one-term plan and a `k`-bit distribution a `2^k`-term one, so
///   every charged query travels as `Plan` or `PartialTermCounts`.
pub const PROTOCOL_VERSION: u8 = 7;

/// Hard ceiling on the terms of one plan (or term-counts batch); larger
/// plans are refused as [`codes::BAD_REQUEST`] before any scan. A
/// 16-bit distribution compiles to exactly this many terms.
pub const MAX_PLAN_TERMS: usize = 1 << 16;

/// Hard ceiling on a frame payload; larger length prefixes are treated
/// as malformed (they are far more likely garbage or abuse than a real
/// message, and pre-allocating from an attacker-supplied length is a
/// classic memory DoS).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Hard ceiling on the nodes of one serialized span tree. A shard-local
/// trace caps at [`psketch_obs::span::MAX_TRACE_SPANS`] spans; a
/// router-stitched waterfall holds one such subtree per shard plus its
/// own scatter/merge spans, so this bound leaves room for wide clusters
/// while still refusing hostile counts before allocation.
pub const MAX_SPAN_NODES: usize = 1 << 14;

/// Error codes carried by [`Response::Error`] frames.
pub mod codes {
    /// The request frame declared a protocol version this server does
    /// not speak.
    pub const UNSUPPORTED_VERSION: u16 = 1;
    /// The request frame could not be decoded.
    pub const MALFORMED: u16 = 2;
    /// The query was well-formed but could not be answered (unknown
    /// subset, empty pool, width mismatch…).
    pub const QUERY: u16 = 3;
    /// The request was well-formed but invalid (e.g. wrong database id).
    pub const BAD_REQUEST: u16 = 4;
    /// The server failed internally.
    pub const INTERNAL: u16 = 5;
    /// The analyst's ε-budget is exhausted (Corollary 3.4 accounting at
    /// the service boundary); the query was refused before evaluation.
    pub const BUDGET: u16 = 6;
    /// The connection handshake declared a shard identity the server
    /// does not hold (a misrouted connection in a sharded deployment).
    pub const WRONG_SHARD: u16 = 7;
    /// A replay of a charged request nonce arrived while the original
    /// request is still being evaluated. The charge already happened
    /// and the original answer will be cached when it completes —
    /// retry shortly; this is the only **transient** error code
    /// (clients treat every other server error as deterministic).
    pub const RETRY_PENDING: u16 = 8;
}

// Message kind bytes. Requests use the low range, responses the high
// range, so a stray response can never parse as a request.
const REQ_ANNOUNCEMENT: u8 = 0x01;
pub(crate) const REQ_SUBMIT: u8 = 0x02;
const REQ_PLAN: u8 = 0x05;
const REQ_STATS: u8 = 0x06;
const REQ_PING: u8 = 0x07;
const REQ_HELLO: u8 = 0x08;
const REQ_PLAN_COUNTS: u8 = 0x09;
const REQ_SERVER_STATS: u8 = 0x0B;
const REQ_METRICS: u8 = 0x0C;
const REQ_TRACE: u8 = 0x0D;
const RESP_ANNOUNCEMENT: u8 = 0x81;
const RESP_SUBMIT_ACK: u8 = 0x82;
const RESP_PLAN: u8 = 0x85;
const RESP_STATS: u8 = 0x86;
const RESP_PONG: u8 = 0x87;
const RESP_HELLO: u8 = 0x88;
const RESP_PLAN_COUNTS: u8 = 0x89;
const RESP_SERVER_STATS: u8 = 0x8B;
const RESP_METRICS: u8 = 0x8C;
const RESP_TRACE: u8 = 0x8D;
const RESP_ERROR: u8 = 0xFF;

/// Highest request kind byte (the server keeps one per-kind request
/// counter for each of `0x01..=MAX_REQUEST_KIND`; the retired kinds
/// `0x03`/`0x04` (v6) and `0x0A` (v2) stay unassigned).
pub const MAX_REQUEST_KIND: u8 = REQ_TRACE;

/// Human-readable name of a request kind byte (for stats display).
#[must_use]
pub fn request_kind_name(kind: u8) -> Option<&'static str> {
    Some(match kind {
        REQ_ANNOUNCEMENT => "announcement",
        REQ_SUBMIT => "submit",
        REQ_PLAN => "plan",
        REQ_STATS => "stats",
        REQ_PING => "ping",
        REQ_HELLO => "hello",
        REQ_PLAN_COUNTS => "plan-counts",
        REQ_SERVER_STATS => "server-stats",
        REQ_METRICS => "metrics",
        REQ_TRACE => "trace",
        _ => return None,
    })
}

/// The engine-side plan counters a server reports (the
/// wire shape of [`psketch_queries::EngineStatsSnapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Plans executed through the engine: `Plan` frames, and
    /// `PartialTermCounts` batches on a shard.
    pub plans_executed: u64,
    /// Distinct conjunctive terms counted by those plans.
    pub terms_scanned: u64,
    /// Plan term references beyond the distinct terms, served without
    /// a count of their own (compile-time plan deduplication).
    pub terms_reused: u64,
}

/// The ε-ledger counters a server reports (all zero when budget
/// accounting is disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetStats {
    /// Conjunctive estimates charged to analyst ledgers (ε units in
    /// release counts, summed over analysts).
    pub charged_terms: u64,
    /// Requests served *without* a charge because their nonce was
    /// already charged — each one is a retry that would have
    /// double-charged before v4.
    pub replays: u64,
    /// Requests refused with [`codes::BUDGET`].
    pub denials: u64,
}

/// Server-level observability counters: process uptime plus one request
/// counter per frame kind (malformed frames land in the dedicated
/// `malformed` bucket because they have no trustworthy kind byte), the
/// engine's plan-execution counters, and the ε-ledger counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Seconds since the server started.
    pub uptime_secs: u64,
    /// `(request kind byte, requests served)` pairs, ascending by kind,
    /// zero-count kinds omitted.
    pub frames: Vec<(u8, u64)>,
    /// Frames that could not be decoded (no kind attributable).
    pub malformed: u64,
    /// Plan-execution and term counters.
    pub plans: PlanStats,
    /// ε-ledger charge/replay/denial counters.
    pub budget: BudgetStats,
}

impl ServerStats {
    /// Total well-formed requests served across all kinds.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.frames.iter().map(|&(_, count)| count).sum()
    }

    /// The count for one request kind.
    #[must_use]
    pub fn count_for(&self, kind: u8) -> u64 {
        self.frames
            .iter()
            .find(|&&(k, _)| k == kind)
            .map_or(0, |&(_, count)| count)
    }

    /// Merges another node's stats into this one for a cluster-wide
    /// view. Counter-like fields (frames, malformed, plan and budget
    /// counters) **sum** — shards partition the traffic. Gauge-like
    /// fields do not: `uptime_secs` keeps the **maximum** (a 3-shard
    /// cluster has not been up three times as long; summing uptimes is
    /// the classic status-merge bug — per-shard values stay visible in
    /// the per-shard rows).
    pub fn merge(&mut self, other: &ServerStats) {
        self.uptime_secs = self.uptime_secs.max(other.uptime_secs);
        for &(kind, count) in &other.frames {
            match self.frames.binary_search_by_key(&kind, |&(k, _)| k) {
                Ok(at) => self.frames[at].1 += count,
                Err(at) => self.frames.insert(at, (kind, count)),
            }
        }
        self.malformed += other.malformed;
        self.plans.plans_executed += other.plans.plans_executed;
        self.plans.terms_scanned += other.plans.terms_scanned;
        self.plans.terms_reused += other.plans.terms_reused;
        self.budget.charged_terms += other.budget.charged_terms;
        self.budget.replays += other.budget.replays;
        self.budget.denials += other.budget.denials;
    }
}

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Fetch the coordinator's public announcement.
    FetchAnnouncement,
    /// Submit a batch of user submissions for ingestion.
    SubmitBatch(Vec<Submission>),
    /// Execute a compiled query plan server-side: every query family —
    /// linear combinations, DNF, intervals, means, moments, trees,
    /// histograms — travels as this one frame. The analyst is charged
    /// the plan's **term count** (its true Corollary 3.4 cost), never
    /// per-output.
    Plan {
        /// The compiled plan to execute.
        plan: TermPlan,
        /// Charge-once replay identity (`0` = no replay protection).
        nonce: u64,
        /// Record a span trace of this execution and attach it to the
        /// response.
        profile: bool,
    },
    /// Fetch the coordinator's ingestion counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Connection handshake: declares the analyst identity for budget
    /// accounting and asks the server for its shard identity.
    Hello {
        /// The analyst this connection acts for (0 = anonymous).
        analyst: u64,
    },
    /// Raw satisfying counts for a plan's deduplicated term list — the
    /// scatter half of a router's scatter-gather. One batch answers a
    /// whole plan's terms in one round trip; the router merges the
    /// integer counts and runs the inversion + post-combination once.
    PartialTermCounts {
        /// The terms to count, answered positionally.
        terms: Vec<ConjunctiveQuery>,
        /// Charge-once replay identity (`0` = no replay protection).
        nonce: u64,
        /// Record a span trace of this execution and attach it to the
        /// response.
        profile: bool,
    },
    /// Fetch server-level observability counters (uptime, per-frame-kind
    /// request counts, plan counters, ε-ledger counters).
    ServerStats,
    /// Fetch the node's full metrics-registry snapshot (counters,
    /// gauges, log₂ latency histograms) for cluster-wide merging.
    Metrics,
    /// Fetch a recently completed span trace from the server's bounded
    /// ring by its wire nonce (uncharged — profiles are metadata, not
    /// query answers).
    Trace {
        /// The nonce the trace was keyed by.
        nonce: u64,
    },
}

/// One plan output's answer (mirrors [`psketch_queries::LinearAnswer`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanAnswerWire {
    /// The estimated value of the output's combination.
    pub value: f64,
    /// Distinct conjunctive terms the output references.
    pub queries_used: u64,
    /// Smallest sample size among the underlying term estimates.
    pub min_sample_size: u64,
}

impl From<LinearAnswer> for PlanAnswerWire {
    fn from(a: LinearAnswer) -> Self {
        Self {
            value: a.value,
            queries_used: a.queries_used as u64,
            min_sample_size: a.min_sample_size as u64,
        }
    }
}

impl From<PlanAnswerWire> for LinearAnswer {
    fn from(a: PlanAnswerWire) -> Self {
        Self {
            value: a.value,
            queries_used: usize::try_from(a.queries_used).unwrap_or(usize::MAX),
            min_sample_size: usize::try_from(a.min_sample_size).unwrap_or(usize::MAX),
        }
    }
}

/// A server → client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The public announcement.
    Announcement(Announcement),
    /// Outcome of a [`Request::SubmitBatch`].
    SubmitAck {
        /// Submissions accepted into the pool.
        accepted: u64,
        /// Submissions rejected (malformed or duplicate).
        rejected: u64,
    },
    /// Answer to a [`Request::Plan`]: one answer per plan output, in
    /// plan order, plus the span-tree attachment (present iff the
    /// request asked to be profiled).
    PlanAnswers(Vec<PlanAnswerWire>, Option<SpanNode>),
    /// Answer to a [`Request::Stats`].
    Stats(CoordinatorStats),
    /// Answer to a [`Request::Ping`].
    Pong,
    /// Answer to a [`Request::Hello`]: the server's shard identity, if
    /// it is part of a sharded deployment.
    Hello {
        /// `None` for a standalone (unsharded) server.
        shard: Option<ShardIdentity>,
    },
    /// Answer to a [`Request::PartialTermCounts`], aligned positionally
    /// with the request's terms, plus the optional profile.
    PartialTermCounts(Vec<QueryCounts>, Option<SpanNode>),
    /// Answer to a [`Request::ServerStats`].
    ServerStats(ServerStats),
    /// Answer to a [`Request::Metrics`]: the node's metrics-registry
    /// snapshot, mergeable across shards
    /// ([`psketch_obs::RegistrySnapshot::merge`]).
    Metrics(RegistrySnapshot),
    /// Answer to a [`Request::Trace`]: the stored span tree, or `None`
    /// if the nonce has aged out of the ring (or was never profiled).
    Trace(Option<SpanNode>),
    /// The request failed; see [`codes`].
    Error {
        /// Machine-readable error code.
        code: u16,
        /// Human-readable description.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Primitive encoding helpers.
// ---------------------------------------------------------------------

fn codec_err(reason: impl Into<String>) -> Error {
    Error::Codec {
        reason: reason.into(),
    }
}

/// Byte-slice cursor with length-checked little-endian reads.
struct Dec<'a> {
    data: &'a [u8],
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.data.len() < n {
            return Err(codec_err(format!(
                "truncated message: wanted {n} bytes, {} left",
                self.data.len()
            )));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    /// A fixed-size read. `take` already bounds-checked, so the copy
    /// can never fail — written without `try_into().unwrap()` so the
    /// decode path stays mechanically panic-free.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let src = self.take(N)?;
        let mut out = [0u8; N];
        for (dst, byte) in out.iter_mut().zip(src) {
            *dst = *byte;
        }
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, Error> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` meant to size an upcoming allocation; bounded by what the
    /// remaining input could possibly hold (each element ≥ `elem_bytes`).
    fn count(&mut self, elem_bytes: usize) -> Result<usize, Error> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes.max(1)) > self.data.len() {
            return Err(codec_err(format!(
                "declared count {n} exceeds remaining {} bytes",
                self.data.len()
            )));
        }
        Ok(n)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, Error> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, Error> {
        String::from_utf8(self.bytes()?).map_err(|_| codec_err("invalid utf-8 string"))
    }

    fn finish(self) -> Result<(), Error> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(codec_err(format!(
                "{} trailing bytes after message",
                self.data.len()
            )))
        }
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_len(buf: &mut Vec<u8>, n: usize) {
    put_u32(buf, u32::try_from(n).expect("list longer than u32::MAX"));
}

fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    put_len(buf, data.len());
    buf.extend_from_slice(data);
}

// ---------------------------------------------------------------------
// Domain-type encoding.
// ---------------------------------------------------------------------

fn put_subset(buf: &mut Vec<u8>, subset: &BitSubset) {
    put_len(buf, subset.len());
    for &pos in subset.positions() {
        put_u32(buf, pos);
    }
}

fn get_subset(dec: &mut Dec<'_>) -> Result<BitSubset, Error> {
    let n = dec.count(4)?;
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        positions.push(dec.u32()?);
    }
    BitSubset::new(positions).map_err(Error::Subset)
}

fn put_bitstring(buf: &mut Vec<u8>, value: &BitString) {
    put_len(buf, value.len());
    let mut byte = 0u8;
    for i in 0..value.len() {
        if value.get(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.push(byte);
            byte = 0;
        }
    }
    if !value.len().is_multiple_of(8) {
        buf.push(byte);
    }
}

fn get_bitstring(dec: &mut Dec<'_>) -> Result<BitString, Error> {
    let bits = dec.u32()? as usize;
    if bits > 1 << 20 {
        return Err(codec_err("bit string implausibly long"));
    }
    let bytes = dec.take(bits.div_ceil(8))?;
    let mut out = BitString::zeros(bits);
    for (byte_idx, byte) in bytes.iter().enumerate() {
        for bit in 0..8 {
            let i = byte_idx * 8 + bit;
            if i >= bits {
                break;
            }
            out.set(i, (byte >> bit) & 1 == 1);
        }
    }
    Ok(out)
}

/// Encodes an announcement body (shared by frames and WAL records).
pub(crate) fn put_announcement(buf: &mut Vec<u8>, ann: &Announcement) {
    put_u64(buf, ann.database_id);
    put_f64(buf, ann.p);
    buf.push(ann.sketch_bits);
    buf.extend_from_slice(&ann.global_key);
    put_len(buf, ann.subsets.len());
    for subset in &ann.subsets {
        put_subset(buf, subset);
    }
}

/// Decodes an announcement body.
fn get_announcement(dec: &mut Dec<'_>) -> Result<Announcement, Error> {
    let database_id = dec.u64()?;
    let p = dec.f64()?;
    let sketch_bits = dec.u8()?;
    let global_key: [u8; 32] = dec.array()?;
    let n = dec.count(4)?;
    let mut subsets = Vec::with_capacity(n);
    for _ in 0..n {
        subsets.push(get_subset(dec)?);
    }
    Ok(Announcement {
        database_id,
        p,
        sketch_bits,
        global_key,
        subsets,
    })
}

fn put_submission(buf: &mut Vec<u8>, sub: &Submission) {
    put_u64(buf, sub.user.0);
    put_u64(buf, sub.database_id);
    put_bytes(buf, &sub.bundle);
    put_len(buf, sub.skipped.len());
    for &i in &sub.skipped {
        put_u32(buf, i);
    }
}

/// Encodes a submission list (the `SubmitBatch` body, and the body of a
/// WAL batch record) from borrowed submissions.
pub(crate) fn put_submissions<'a, I>(buf: &mut Vec<u8>, subs: I)
where
    I: IntoIterator<Item = &'a Submission>,
    I::IntoIter: ExactSizeIterator,
{
    let subs = subs.into_iter();
    put_len(buf, subs.len());
    for sub in subs {
        put_submission(buf, sub);
    }
}

/// The fixed bytes of one encoded submission: user id, database id and
/// the bundle and skipped-list length prefixes.
const SUBMISSION_FIXED_BYTES: usize = 24;

/// One encoded submission's fields, borrowed from the frame.
struct RawSubmission<'a> {
    user: UserId,
    database_id: u64,
    bundle: &'a [u8],
    /// The skipped indices, `u32` LE each.
    skipped: &'a [u8],
}

impl<'a> RawSubmission<'a> {
    fn skipped(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        self.skipped.chunks_exact(4).map(|b| {
            b.iter()
                .rev()
                .fold(0u32, |v, &byte| v << 8 | u32::from(byte))
        })
    }
}

fn get_raw_submission<'a>(dec: &mut Dec<'a>) -> Result<RawSubmission<'a>, Error> {
    let user = UserId(dec.u64()?);
    let database_id = dec.u64()?;
    let bundle_len = dec.count(1)?;
    let bundle = dec.take(bundle_len)?;
    let skipped_len = dec.count(4)?;
    let skipped = dec.take(skipped_len.saturating_mul(4))?;
    Ok(RawSubmission {
        user,
        database_id,
        bundle,
        skipped,
    })
}

fn get_submission(dec: &mut Dec<'_>) -> Result<Submission, Error> {
    let raw = get_raw_submission(dec)?;
    Ok(Submission {
        user: raw.user,
        database_id: raw.database_id,
        bundle: raw.bundle.to_vec(),
        skipped: raw.skipped().collect(),
    })
}

fn get_submissions(dec: &mut Dec<'_>) -> Result<Vec<Submission>, Error> {
    let n = dec.count(SUBMISSION_FIXED_BYTES)?;
    let mut subs = Vec::with_capacity(n);
    for _ in 0..n {
        subs.push(get_submission(dec)?);
    }
    Ok(subs)
}

/// Encodes a term list with **subset interning**: distinct subsets
/// travel once in a table and each term references its subset by
/// index. A `2^k`-value distribution plan repeats one subset across
/// every term — interning keeps that frame a few dozen bytes per term
/// instead of re-encoding a potentially wide subset `2^k` times.
fn put_terms(buf: &mut Vec<u8>, terms: &[ConjunctiveQuery]) {
    let mut subsets: Vec<&BitSubset> = Vec::new();
    let mut indices = Vec::with_capacity(terms.len());
    for term in terms {
        // Terms are usually grouped by subset; check the most recent
        // entry before scanning the whole table.
        let index = match subsets.last() {
            Some(&last) if last == term.subset() => subsets.len() - 1,
            _ => match subsets.iter().position(|&s| s == term.subset()) {
                Some(i) => i,
                None => {
                    subsets.push(term.subset());
                    subsets.len() - 1
                }
            },
        };
        indices.push(index);
    }
    put_len(buf, subsets.len());
    for subset in subsets {
        put_subset(buf, subset);
    }
    put_len(buf, terms.len());
    for (term, index) in terms.iter().zip(indices) {
        put_u32(buf, u32::try_from(index).expect("index fits u32"));
        put_bitstring(buf, term.value());
    }
}

fn get_terms(dec: &mut Dec<'_>) -> Result<Vec<ConjunctiveQuery>, Error> {
    let n_subsets = dec.count(4)?;
    let mut subsets = Vec::with_capacity(n_subsets);
    for _ in 0..n_subsets {
        subsets.push(get_subset(dec)?);
    }
    let n = dec.count(8)?;
    let mut terms = Vec::with_capacity(n);
    for _ in 0..n {
        let index = dec.u32()? as usize;
        let subset = subsets.get(index).ok_or_else(|| {
            codec_err(format!(
                "term references subset {index} of {n_subsets} in the table"
            ))
        })?;
        let value = get_bitstring(dec)?;
        terms.push(ConjunctiveQuery::new(subset.clone(), value)?);
    }
    Ok(terms)
}

/// Encodes a serialized plan: description, deduplicated term list, then
/// per output `(label, constant, combination)` with term references by
/// slot index.
fn put_plan(buf: &mut Vec<u8>, plan: &TermPlan) {
    put_bytes(buf, plan.description().as_bytes());
    put_terms(buf, plan.terms());
    put_len(buf, plan.outputs().len());
    for output in plan.outputs() {
        put_bytes(buf, output.label.as_bytes());
        put_f64(buf, output.constant);
        put_len(buf, output.combination().len());
        for &(coeff, slot) in output.combination() {
            put_f64(buf, coeff);
            put_u32(buf, u32::try_from(slot).expect("slot fits u32"));
        }
    }
}

fn get_plan(dec: &mut Dec<'_>) -> Result<TermPlan, Error> {
    let description = dec.string()?;
    let terms = get_terms(dec)?;
    let n_outputs = dec.count(12)?;
    let mut outputs = Vec::with_capacity(n_outputs);
    for _ in 0..n_outputs {
        let label = dec.string()?;
        let constant = dec.f64()?;
        let n_comb = dec.count(12)?;
        let mut combination = Vec::with_capacity(n_comb);
        for _ in 0..n_comb {
            let coeff = dec.f64()?;
            let slot = dec.u32()? as usize;
            combination.push((coeff, slot));
        }
        outputs.push((label, constant, combination));
    }
    TermPlan::from_parts(description, terms, outputs)
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn put_metric_id(buf: &mut Vec<u8>, id: &MetricId) {
    put_string(buf, &id.family);
    put_len(buf, id.labels.len());
    for (k, v) in &id.labels {
        put_string(buf, k);
        put_string(buf, v);
    }
}

fn get_metric_id(dec: &mut Dec<'_>) -> Result<MetricId, Error> {
    let family = dec.string()?;
    let n = dec.count(2)?;
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push((dec.string()?, dec.string()?));
    }
    Ok(MetricId { family, labels })
}

/// Encodes a metrics-registry snapshot. Histogram buckets travel
/// sparsely (`(bucket index, count)` pairs) — latency histograms
/// occupy a handful of their 65 log₂ buckets.
fn put_registry_snapshot(buf: &mut Vec<u8>, snap: &RegistrySnapshot) {
    put_len(buf, snap.counters.len());
    for (id, value) in &snap.counters {
        put_metric_id(buf, id);
        put_u64(buf, *value);
    }
    put_len(buf, snap.gauges.len());
    for (id, value) in &snap.gauges {
        put_metric_id(buf, id);
        put_u64(buf, *value);
    }
    put_len(buf, snap.histograms.len());
    for (id, hist) in &snap.histograms {
        put_metric_id(buf, id);
        put_u64(buf, hist.sum);
        put_u64(buf, hist.max);
        let occupied: Vec<(u8, u64)> = hist
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (u8::try_from(i).expect("bucket index fits u8"), c))
            .collect();
        put_len(buf, occupied.len());
        for (index, count) in occupied {
            buf.push(index);
            put_u64(buf, count);
        }
    }
}

fn get_registry_snapshot(dec: &mut Dec<'_>) -> Result<RegistrySnapshot, Error> {
    let mut snap = RegistrySnapshot::default();
    let n = dec.count(13)?;
    for _ in 0..n {
        snap.counters.push((get_metric_id(dec)?, dec.u64()?));
    }
    let n = dec.count(13)?;
    for _ in 0..n {
        snap.gauges.push((get_metric_id(dec)?, dec.u64()?));
    }
    let n = dec.count(25)?;
    for _ in 0..n {
        let id = get_metric_id(dec)?;
        let mut hist = HistogramSnapshot {
            sum: dec.u64()?,
            max: dec.u64()?,
            ..HistogramSnapshot::default()
        };
        let pairs = dec.count(9)?;
        for _ in 0..pairs {
            let index = dec.u8()? as usize;
            let count = dec.u64()?;
            match hist.buckets.get_mut(index) {
                Some(slot) => *slot = count,
                None => {
                    return Err(codec_err(format!(
                        "histogram bucket index {index} out of range"
                    )))
                }
            }
        }
        snap.histograms.push((id, hist));
    }
    Ok(snap)
}

/// Sentinel parent index marking the root node of a serialized span
/// tree.
const SPAN_NO_PARENT: u32 = u32::MAX;

/// Encodes a span tree **flat, in preorder**: `u32` node count, then
/// per node `u32` parent index ([`SPAN_NO_PARENT`] for the root) ‖
/// name ‖ `u64` start ‖ `u64` duration ‖ `u8` attr count ‖ attrs. The
/// flat shape keeps decoding non-recursive — a hostile deeply nested
/// tree cannot overflow the stack — and preorder guarantees every
/// parent index precedes its children, which the decoder checks.
fn put_span_tree(buf: &mut Vec<u8>, root: &SpanNode) {
    let mut flat: Vec<(&SpanNode, u32)> = Vec::new();
    let mut stack: Vec<(&SpanNode, u32)> = vec![(root, SPAN_NO_PARENT)];
    while let Some((node, parent)) = stack.pop() {
        let index = u32::try_from(flat.len()).expect("span count fits u32");
        flat.push((node, parent));
        // Reverse push keeps children in recording order in preorder.
        for child in node.children.iter().rev() {
            stack.push((child, index));
        }
    }
    put_len(buf, flat.len());
    for (node, parent) in flat {
        put_u32(buf, parent);
        put_string(buf, &node.name);
        put_u64(buf, node.start_ns);
        put_u64(buf, node.duration_ns);
        let attrs = &node.attrs[..node.attrs.len().min(MAX_SPAN_ATTRS)];
        buf.push(u8::try_from(attrs.len()).expect("attr cap fits u8"));
        for (key, value) in attrs {
            put_string(buf, key);
            put_u64(buf, *value);
        }
    }
}

fn get_span_tree(dec: &mut Dec<'_>) -> Result<SpanNode, Error> {
    // Minimal node: parent (4) + empty name (4) + start (8) +
    // duration (8) + attr count (1).
    let n = dec.count(25)?;
    if n == 0 {
        return Err(codec_err("span tree with zero nodes"));
    }
    if n > MAX_SPAN_NODES {
        return Err(codec_err(format!(
            "span tree declares {n} nodes (limit {MAX_SPAN_NODES})"
        )));
    }
    let mut parents = Vec::with_capacity(n);
    let mut slots: Vec<Option<SpanNode>> = Vec::with_capacity(n);
    for i in 0..n {
        let parent = dec.u32()?;
        if i == 0 {
            if parent != SPAN_NO_PARENT {
                return Err(codec_err("root span claims a parent"));
            }
        } else if parent as usize >= i {
            // Also rejects SPAN_NO_PARENT on non-roots: preorder means
            // a parent always precedes its children.
            return Err(codec_err(format!(
                "span {i} references parent {parent} at or after itself"
            )));
        }
        parents.push(parent as usize);
        let name = dec.string()?;
        let start_ns = dec.u64()?;
        let duration_ns = dec.u64()?;
        let n_attrs = dec.u8()? as usize;
        if n_attrs > MAX_SPAN_ATTRS {
            return Err(codec_err(format!(
                "span declares {n_attrs} attrs (limit {MAX_SPAN_ATTRS})"
            )));
        }
        let mut attrs = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            attrs.push((dec.string()?, dec.u64()?));
        }
        slots.push(Some(SpanNode {
            name,
            start_ns,
            duration_ns,
            attrs,
            children: Vec::new(),
        }));
    }
    // Assemble back to front: every node is attached after all of its
    // own children were (parents precede children in preorder). The
    // index checks above make the lookups infallible, but the decode
    // path maps every surprise to an error rather than a panic.
    for i in (1..n).rev() {
        let Some(mut node) = slots.get_mut(i).and_then(Option::take) else {
            return Err(codec_err("span tree slot vanished during assembly"));
        };
        node.children.reverse();
        let parent = parents.get(i).copied().unwrap_or(0);
        match slots.get_mut(parent).and_then(Option::as_mut) {
            Some(p) => p.children.push(node),
            None => return Err(codec_err("span tree parent slot vanished during assembly")),
        }
    }
    let Some(mut root) = slots.first_mut().and_then(Option::take) else {
        return Err(codec_err("span tree root slot vanished during assembly"));
    };
    root.children.reverse();
    Ok(root)
}

/// Encodes an optional span-tree attachment (presence byte + tree).
fn put_span_attachment(buf: &mut Vec<u8>, tree: Option<&SpanNode>) {
    match tree {
        None => buf.push(0),
        Some(root) => {
            buf.push(1);
            put_span_tree(buf, root);
        }
    }
}

fn get_span_attachment(dec: &mut Dec<'_>) -> Result<Option<SpanNode>, Error> {
    match dec.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_span_tree(dec)?)),
        other => Err(codec_err(format!("invalid span-presence byte {other}"))),
    }
}

/// Decodes a strict boolean byte (the profile flag).
fn get_bool(dec: &mut Dec<'_>) -> Result<bool, Error> {
    match dec.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(codec_err(format!("invalid boolean byte {other}"))),
    }
}

// ---------------------------------------------------------------------
// Message payloads.
// ---------------------------------------------------------------------

fn payload(kind: u8) -> Vec<u8> {
    vec![PROTOCOL_VERSION, kind]
}

/// Splits a frame payload into `(version, kind, body)`.
fn open_payload(payload: &[u8]) -> Result<(u8, u8, Dec<'_>), Error> {
    match payload {
        [version, kind, body @ ..] => Ok((*version, *kind, Dec::new(body))),
        _ => Err(codec_err("frame payload shorter than its header")),
    }
}

/// The protocol version a frame payload declares (for pre-dispatch
/// version checks without decoding the body).
pub fn frame_version(payload: &[u8]) -> Result<u8, Error> {
    payload
        .first()
        .copied()
        .ok_or_else(|| codec_err("empty frame payload"))
}

impl Request {
    /// Encodes the request as a frame payload (version + kind + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Self::FetchAnnouncement => payload(REQ_ANNOUNCEMENT),
            Self::SubmitBatch(subs) => submit_payload(subs),
            Self::Plan {
                plan,
                nonce,
                profile,
            } => {
                let mut buf = payload(REQ_PLAN);
                put_u64(&mut buf, *nonce);
                buf.push(u8::from(*profile));
                put_plan(&mut buf, plan);
                buf
            }
            Self::Stats => payload(REQ_STATS),
            Self::Ping => payload(REQ_PING),
            Self::Hello { analyst } => {
                let mut buf = payload(REQ_HELLO);
                put_u64(&mut buf, *analyst);
                buf
            }
            Self::PartialTermCounts {
                terms,
                nonce,
                profile,
            } => {
                let mut buf = payload(REQ_PLAN_COUNTS);
                put_u64(&mut buf, *nonce);
                buf.push(u8::from(*profile));
                put_terms(&mut buf, terms);
                buf
            }
            Self::ServerStats => payload(REQ_SERVER_STATS),
            Self::Metrics => payload(REQ_METRICS),
            Self::Trace { nonce } => {
                let mut buf = payload(REQ_TRACE);
                put_u64(&mut buf, *nonce);
                buf
            }
        }
    }

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] on wrong version, unknown kind, truncation or
    /// trailing bytes.
    pub fn decode(data: &[u8]) -> Result<Self, Error> {
        let (version, kind, mut dec) = open_payload(data)?;
        if version != PROTOCOL_VERSION {
            return Err(codec_err(format!(
                "unsupported protocol version {version} (this side speaks {PROTOCOL_VERSION})"
            )));
        }
        let req = match kind {
            REQ_ANNOUNCEMENT => Self::FetchAnnouncement,
            REQ_SUBMIT => Self::SubmitBatch(get_submissions(&mut dec)?),
            REQ_PLAN => Self::Plan {
                nonce: dec.u64()?,
                profile: get_bool(&mut dec)?,
                plan: get_plan(&mut dec)?,
            },
            REQ_STATS => Self::Stats,
            REQ_PING => Self::Ping,
            REQ_HELLO => Self::Hello {
                analyst: dec.u64()?,
            },
            REQ_PLAN_COUNTS => Self::PartialTermCounts {
                nonce: dec.u64()?,
                profile: get_bool(&mut dec)?,
                terms: get_terms(&mut dec)?,
            },
            REQ_SERVER_STATS => Self::ServerStats,
            REQ_METRICS => Self::Metrics,
            REQ_TRACE => Self::Trace { nonce: dec.u64()? },
            other => return Err(codec_err(format!("unknown request kind {other:#04x}"))),
        };
        dec.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as a frame payload (version + kind + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Self::Announcement(ann) => {
                let mut buf = payload(RESP_ANNOUNCEMENT);
                put_announcement(&mut buf, ann);
                buf
            }
            Self::SubmitAck { accepted, rejected } => {
                let mut buf = payload(RESP_SUBMIT_ACK);
                put_u64(&mut buf, *accepted);
                put_u64(&mut buf, *rejected);
                buf
            }
            Self::PlanAnswers(answers, trace) => {
                let mut buf = payload(RESP_PLAN);
                put_len(&mut buf, answers.len());
                for a in answers {
                    put_f64(&mut buf, a.value);
                    put_u64(&mut buf, a.queries_used);
                    put_u64(&mut buf, a.min_sample_size);
                }
                put_span_attachment(&mut buf, trace.as_ref());
                buf
            }
            Self::Stats(stats) => {
                let mut buf = payload(RESP_STATS);
                put_u64(&mut buf, stats.accepted);
                put_u64(&mut buf, stats.duplicates);
                put_u64(&mut buf, stats.malformed);
                put_u64(&mut buf, stats.records);
                buf
            }
            Self::Pong => payload(RESP_PONG),
            Self::Hello { shard } => {
                let mut buf = payload(RESP_HELLO);
                match shard {
                    None => buf.push(0),
                    Some(identity) => {
                        buf.push(1);
                        put_u32(&mut buf, identity.shard_id);
                        put_u32(&mut buf, identity.shard_count);
                    }
                }
                buf
            }
            Self::PartialTermCounts(counts, trace) => {
                let mut buf = payload(RESP_PLAN_COUNTS);
                put_len(&mut buf, counts.len());
                for c in counts {
                    put_u64(&mut buf, c.ones);
                    put_u64(&mut buf, c.population);
                }
                put_span_attachment(&mut buf, trace.as_ref());
                buf
            }
            Self::ServerStats(stats) => {
                let mut buf = payload(RESP_SERVER_STATS);
                put_u64(&mut buf, stats.uptime_secs);
                put_len(&mut buf, stats.frames.len());
                for &(kind, count) in &stats.frames {
                    buf.push(kind);
                    put_u64(&mut buf, count);
                }
                put_u64(&mut buf, stats.malformed);
                put_u64(&mut buf, stats.plans.plans_executed);
                put_u64(&mut buf, stats.plans.terms_scanned);
                put_u64(&mut buf, stats.plans.terms_reused);
                put_u64(&mut buf, stats.budget.charged_terms);
                put_u64(&mut buf, stats.budget.replays);
                put_u64(&mut buf, stats.budget.denials);
                buf
            }
            Self::Metrics(snap) => {
                let mut buf = payload(RESP_METRICS);
                put_registry_snapshot(&mut buf, snap);
                buf
            }
            Self::Trace(tree) => {
                let mut buf = payload(RESP_TRACE);
                put_span_attachment(&mut buf, tree.as_ref());
                buf
            }
            Self::Error { code, message } => {
                let mut buf = payload(RESP_ERROR);
                put_u16(&mut buf, *code);
                put_bytes(&mut buf, message.as_bytes());
                buf
            }
        }
    }

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] on wrong version, unknown kind, truncation or
    /// trailing bytes.
    pub fn decode(data: &[u8]) -> Result<Self, Error> {
        let (version, kind, mut dec) = open_payload(data)?;
        if version != PROTOCOL_VERSION {
            return Err(codec_err(format!(
                "unsupported protocol version {version} (this side speaks {PROTOCOL_VERSION})"
            )));
        }
        let resp = match kind {
            RESP_ANNOUNCEMENT => Self::Announcement(get_announcement(&mut dec)?),
            RESP_SUBMIT_ACK => Self::SubmitAck {
                accepted: dec.u64()?,
                rejected: dec.u64()?,
            },
            RESP_PLAN => {
                let n = dec.count(24)?;
                let mut answers = Vec::with_capacity(n);
                for _ in 0..n {
                    answers.push(PlanAnswerWire {
                        value: dec.f64()?,
                        queries_used: dec.u64()?,
                        min_sample_size: dec.u64()?,
                    });
                }
                Self::PlanAnswers(answers, get_span_attachment(&mut dec)?)
            }
            RESP_STATS => Self::Stats(CoordinatorStats {
                accepted: dec.u64()?,
                duplicates: dec.u64()?,
                malformed: dec.u64()?,
                records: dec.u64()?,
            }),
            RESP_PONG => Self::Pong,
            RESP_HELLO => {
                let shard = match dec.u8()? {
                    0 => None,
                    1 => Some(ShardIdentity {
                        shard_id: dec.u32()?,
                        shard_count: dec.u32()?,
                    }),
                    other => {
                        return Err(codec_err(format!("invalid shard-presence byte {other}")));
                    }
                };
                Self::Hello { shard }
            }
            RESP_PLAN_COUNTS => {
                let n = dec.count(16)?;
                let mut counts = Vec::with_capacity(n);
                for _ in 0..n {
                    counts.push(QueryCounts {
                        ones: dec.u64()?,
                        population: dec.u64()?,
                    });
                }
                Self::PartialTermCounts(counts, get_span_attachment(&mut dec)?)
            }
            RESP_SERVER_STATS => {
                let uptime_secs = dec.u64()?;
                let n = dec.count(9)?;
                let mut frames = Vec::with_capacity(n);
                for _ in 0..n {
                    let kind = dec.u8()?;
                    frames.push((kind, dec.u64()?));
                }
                Self::ServerStats(ServerStats {
                    uptime_secs,
                    frames,
                    malformed: dec.u64()?,
                    plans: PlanStats {
                        plans_executed: dec.u64()?,
                        terms_scanned: dec.u64()?,
                        terms_reused: dec.u64()?,
                    },
                    budget: BudgetStats {
                        charged_terms: dec.u64()?,
                        replays: dec.u64()?,
                        denials: dec.u64()?,
                    },
                })
            }
            RESP_METRICS => Self::Metrics(get_registry_snapshot(&mut dec)?),
            RESP_TRACE => Self::Trace(get_span_attachment(&mut dec)?),
            RESP_ERROR => Self::Error {
                code: dec.u16()?,
                message: dec.string()?,
            },
            other => return Err(codec_err(format!("unknown response kind {other:#04x}"))),
        };
        dec.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates write failures; rejects payloads over [`MAX_FRAME_BYTES`]
/// with [`io::ErrorKind::InvalidInput`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds limit", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer hung
/// up between messages). A length prefix over [`MAX_FRAME_BYTES`] or an
/// EOF mid-frame yields [`io::ErrorKind::InvalidData`].
///
/// # Errors
///
/// Propagates read failures.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while let Some(rest) = len_buf.get_mut(filled..).filter(|tail| !tail.is_empty()) {
        let n = r.read(rest)?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed mid length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::InvalidData, "connection closed mid frame")
        } else {
            e
        }
    })?;
    Ok(Some(payload))
}

/// Decodes an announcement from a standalone buffer (WAL use).
pub(crate) fn decode_announcement(data: &[u8]) -> Result<Announcement, Error> {
    let mut dec = Dec::new(data);
    let ann = get_announcement(&mut dec)?;
    dec.finish()?;
    Ok(ann)
}

/// Decodes an announcement from the *front* of a buffer, returning the
/// number of bytes consumed (snapshot use, where fields follow it).
pub(crate) fn decode_announcement_prefix(data: &[u8]) -> Result<(Announcement, usize), Error> {
    let mut dec = Dec::new(data);
    let ann = get_announcement(&mut dec)?;
    let consumed = data.len() - dec.data.len();
    Ok((ann, consumed))
}

/// Encodes one subset (snapshot use).
pub(crate) fn put_announcement_subset(buf: &mut Vec<u8>, subset: &BitSubset) {
    put_subset(buf, subset);
}

/// Decodes one subset from the front of a buffer, returning the number
/// of bytes consumed (snapshot use).
pub(crate) fn decode_subset_prefix(data: &[u8]) -> Result<(BitSubset, usize), Error> {
    let mut dec = Dec::new(data);
    let subset = get_subset(&mut dec)?;
    let consumed = data.len() - dec.data.len();
    Ok((subset, consumed))
}

/// Encodes a `SubmitBatch` frame payload from borrowed submissions —
/// what [`Request::SubmitBatch`] encodes to, without owning them.
#[must_use]
pub fn submit_payload<'a, I>(subs: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a Submission>,
    I::IntoIter: ExactSizeIterator,
{
    let mut buf = payload(REQ_SUBMIT);
    put_submissions(&mut buf, subs);
    buf
}

/// The body of a current-version `SubmitBatch` frame payload, or `None`
/// for any other frame.
#[must_use]
pub fn submit_body(payload: &[u8]) -> Option<&[u8]> {
    match payload {
        [PROTOCOL_VERSION, REQ_SUBMIT, body @ ..] => Some(body),
        _ => None,
    }
}

/// Decodes a submission list (a `SubmitBatch` body, or a WAL batch
/// record's) straight into a batch of `coordinator`'s, each submission
/// validated by [`IngestBatch::push`]: the serve path and WAL replay.
/// A malformed submission is counted in the batch; a body that does not
/// parse (truncated, trailing bytes, a count its bytes cannot hold) is
/// an error, with nothing staged.
///
/// The columns are pre-sized from the bytes present, not the declared
/// count alone: every user that fills all its columns needs a full
/// bundle on the wire, so a hostile count cannot reserve more than a
/// small multiple of the body.
pub(crate) fn decode_submit_body(
    body: &[u8],
    coordinator: &Coordinator,
) -> Result<IngestBatch, Error> {
    let mut dec = Dec::new(body);
    let n = dec.count(SUBMISSION_FIXED_BYTES)?;
    let ann = coordinator.announcement();
    let full = SUBMISSION_FIXED_BYTES + bundle_size_bytes(ann.sketch_bits, ann.subsets.len());
    let mut batch = coordinator.new_batch(n.min(body.len() / full));
    for _ in 0..n {
        let raw = get_raw_submission(&mut dec)?;
        // A rejection is counted by the batch itself.
        let _ = batch.push(raw.user, raw.database_id, raw.bundle, raw.skipped());
    }
    dec.finish()?;
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn announcement(subsets: usize) -> Announcement {
        Announcement {
            database_id: 42,
            p: 0.3,
            sketch_bits: 10,
            global_key: [7; 32],
            subsets: (0..subsets as u32).map(BitSubset::single).collect(),
        }
    }

    /// A small span tree exercising nesting, attrs and empty names.
    fn deep_tree() -> SpanNode {
        let mut root = SpanNode::new("router:plan", 0, 9_000_000);
        root.attrs.push(("terms".into(), 16));
        root.attrs.push(("shards".into(), 3));
        let mut scatter = SpanNode::new("router:scatter", 1_000, 7_000_000);
        for shard in 0..3u64 {
            let mut wrapper = SpanNode::new(format!("shard:{shard}"), 2_000, 6_000_000);
            wrapper.attrs.push(("attempt".into(), 1));
            let mut local = SpanNode::new("shard:partial_counts", 0, 5_000_000);
            local.children.push(SpanNode::new("", 10, 20));
            wrapper.children.push(local);
            scatter.children.push(wrapper);
        }
        root.children.push(scatter);
        root.children
            .push(SpanNode::new("router:merge", 7_500_000, u64::MAX));
        root
    }

    fn roundtrip_request(req: &Request) {
        let payload = req.encode();
        assert_eq!(&Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_response(resp: &Response) {
        let payload = resp.encode();
        assert_eq!(&Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn all_request_kinds_roundtrip() {
        roundtrip_request(&Request::FetchAnnouncement);
        roundtrip_request(&Request::SubmitBatch(vec![Submission {
            user: UserId(9),
            database_id: 42,
            bundle: vec![1, 2, 3],
            skipped: vec![0, 2],
        }]));
        let mut lq = psketch_queries::LinearQuery::new("wire roundtrip");
        lq.constant = -0.5;
        lq.push(
            2.0,
            ConjunctiveQuery::new(BitSubset::single(1), BitString::from_bits(&[true])).unwrap(),
        );
        roundtrip_request(&Request::Plan {
            plan: TermPlan::compile(&lq),
            nonce: u64::MAX,
            profile: true,
        });
        roundtrip_request(&Request::Plan {
            plan: TermPlan::for_distribution(&BitSubset::range(0, 3)),
            nonce: 0,
            profile: false,
        });
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Ping);
        roundtrip_request(&Request::Hello { analyst: 99 });
        roundtrip_request(&Request::PartialTermCounts {
            terms: vec![
                ConjunctiveQuery::new(
                    BitSubset::new(vec![0, 3]).unwrap(),
                    BitString::from_bits(&[true, false]),
                )
                .unwrap(),
                ConjunctiveQuery::new(BitSubset::single(1), BitString::from_bits(&[true])).unwrap(),
            ],
            nonce: 42,
            profile: true,
        });
        roundtrip_request(&Request::ServerStats);
        roundtrip_request(&Request::Metrics);
        roundtrip_request(&Request::Trace { nonce: 0xFEED });
    }

    #[test]
    fn profile_flag_byte_is_strict() {
        // The profile byte sits right after the 8-byte nonce; anything
        // but 0/1 is malformed, not silently truthy.
        let mut payload = Request::PartialTermCounts {
            terms: TermPlan::for_distribution(&BitSubset::range(0, 4))
                .terms()
                .to_vec(),
            nonce: 7,
            profile: false,
        }
        .encode();
        payload[10] = 2;
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn term_lists_intern_subsets() {
        // A distribution plan repeats one subset across every term; the
        // interned encoding must not grow with the subset width per
        // term, and a corrupted subset index must be rejected.
        let subset = BitSubset::new((0..12u32).map(|i| i * 3).collect()).unwrap();
        let plan = TermPlan::for_distribution(&BitSubset::range(0, 4));
        let narrow = Request::PartialTermCounts {
            terms: plan.terms().to_vec(),
            nonce: 1,
            profile: false,
        }
        .encode();
        let wide_terms: Vec<ConjunctiveQuery> = (0..16u64)
            .map(|v| ConjunctiveQuery::new(subset.clone(), BitString::from_u64(v, 12)).unwrap())
            .collect();
        let wide = Request::PartialTermCounts {
            terms: wide_terms.clone(),
            nonce: 1,
            profile: false,
        }
        .encode();
        // 12-position subsets cost 52 bytes each; interned, the 16-term
        // batches differ by one subset table entry, not 16 of them.
        assert!(
            wide.len() < narrow.len() + 128,
            "wide batch {} vs narrow {} — subsets not interned?",
            wide.len(),
            narrow.len()
        );
        assert_eq!(
            Request::decode(&wide).unwrap(),
            Request::PartialTermCounts {
                terms: wide_terms,
                nonce: 1,
                profile: false
            }
        );
        // Corrupt the (single) subset-table index of the first term.
        let mut payload = Request::PartialTermCounts {
            terms: plan.terms()[..1].to_vec(),
            nonce: 1,
            profile: false,
        }
        .encode();
        let n = payload.len();
        // Layout tail: … ‖ u32 index ‖ u32 bitlen ‖ 1 value byte.
        payload[n - 9..n - 5].copy_from_slice(&9u32.to_le_bytes());
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn plan_slot_corruption_rejected() {
        // A plan whose output references a term beyond the term list
        // must fail to decode, not index out of bounds at execution.
        let plan = TermPlan::for_conjunctive(
            ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true])).unwrap(),
        );
        let mut payload = Request::Plan {
            plan,
            nonce: 3,
            profile: false,
        }
        .encode();
        // The slot is the last 4 bytes of the payload (one combination
        // entry of (f64 coeff, u32 slot)).
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&7u32.to_le_bytes());
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn all_response_kinds_roundtrip() {
        roundtrip_response(&Response::Announcement(announcement(3)));
        roundtrip_response(&Response::SubmitAck {
            accepted: 10,
            rejected: 2,
        });
        roundtrip_response(&Response::PlanAnswers(
            vec![
                PlanAnswerWire {
                    value: 1.5,
                    queries_used: 3,
                    min_sample_size: 500,
                },
                PlanAnswerWire {
                    value: -0.25,
                    queries_used: 1,
                    min_sample_size: 10,
                },
            ],
            Some(deep_tree()),
        ));
        roundtrip_response(&Response::Stats(CoordinatorStats {
            accepted: 1,
            duplicates: 2,
            malformed: 3,
            records: 4,
        }));
        roundtrip_response(&Response::Pong);
        roundtrip_response(&Response::Hello { shard: None });
        roundtrip_response(&Response::Hello {
            shard: Some(ShardIdentity {
                shard_id: 2,
                shard_count: 5,
            }),
        });
        roundtrip_response(&Response::PartialTermCounts(
            vec![
                QueryCounts {
                    ones: 17,
                    population: 100,
                },
                QueryCounts {
                    ones: 0,
                    population: 0,
                },
            ],
            Some(deep_tree()),
        ));
        roundtrip_response(&Response::Trace(None));
        roundtrip_response(&Response::Trace(Some(deep_tree())));
        roundtrip_response(&Response::ServerStats(ServerStats {
            uptime_secs: 3600,
            frames: vec![(0x03, 12), (0x09, 4)],
            malformed: 2,
            plans: PlanStats {
                plans_executed: 5,
                terms_scanned: 40,
                terms_reused: 9,
            },
            budget: BudgetStats {
                charged_terms: 17,
                replays: 3,
                denials: 1,
            },
        }));
        roundtrip_response(&Response::Error {
            code: codes::QUERY,
            message: "no such subset".into(),
        });
    }

    #[test]
    fn metrics_response_roundtrips() {
        roundtrip_response(&Response::Metrics(RegistrySnapshot::default()));
        let reg = psketch_obs::MetricsRegistry::new();
        reg.counter("psketch_server_requests_total", &[("kind", "plan")])
            .add(12);
        reg.counter("psketch_server_requests_total", &[("kind", "ping")])
            .inc();
        reg.gauge("psketch_uptime_secs", &[]).set(77);
        let h = reg.histogram("psketch_server_request_nanos", &[("kind", "plan")]);
        for v in [0u64, 1, 900, 65_000, u64::MAX] {
            h.record(v);
        }
        let snap = reg.snapshot();
        roundtrip_response(&Response::Metrics(snap.clone()));

        // Sparse bucket encoding survives a merge of decoded snapshots.
        let payload = Response::Metrics(snap.clone()).encode();
        let Response::Metrics(mut decoded) = Response::decode(&payload).unwrap() else {
            panic!("wrong response kind");
        };
        decoded.merge(&snap);
        let direct = {
            let mut s = snap.clone();
            s.merge(&snap);
            s
        };
        assert_eq!(decoded, direct);
    }

    #[test]
    fn server_stats_merge_maxes_uptime_and_sums_counters() {
        let mut left = ServerStats {
            uptime_secs: 3600,
            frames: vec![(0x03, 10), (0x07, 2)],
            malformed: 1,
            plans: PlanStats {
                plans_executed: 4,
                terms_scanned: 40,
                terms_reused: 8,
            },
            budget: BudgetStats {
                charged_terms: 30,
                replays: 1,
                denials: 0,
            },
        };
        let right = ServerStats {
            uptime_secs: 120, // a freshly restarted shard
            frames: vec![(0x03, 5), (0x05, 7)],
            malformed: 2,
            plans: PlanStats {
                plans_executed: 1,
                terms_scanned: 9,
                terms_reused: 0,
            },
            budget: BudgetStats {
                charged_terms: 9,
                replays: 0,
                denials: 3,
            },
        };
        left.merge(&right);
        // Uptime is gauge-like: a 3-shard cluster has not been up the
        // sum of its shards' uptimes. The merge keeps the maximum.
        assert_eq!(left.uptime_secs, 3600);
        assert_eq!(left.frames, vec![(0x03, 15), (0x05, 7), (0x07, 2)]);
        assert_eq!(left.malformed, 3);
        assert_eq!(left.plans.plans_executed, 5);
        assert_eq!(left.plans.terms_scanned, 49);
        assert_eq!(left.plans.terms_reused, 8);
        assert_eq!(left.budget.charged_terms, 39);
        assert_eq!(left.budget.replays, 1);
        assert_eq!(left.budget.denials, 3);
        assert_eq!(left.total_requests(), 24);
    }

    #[test]
    fn server_stats_accessors() {
        let stats = ServerStats {
            uptime_secs: 1,
            frames: vec![(0x03, 12), (0x09, 4)],
            malformed: 0,
            plans: PlanStats::default(),
            budget: BudgetStats::default(),
        };
        assert_eq!(stats.total_requests(), 16);
        assert_eq!(stats.count_for(0x09), 4);
        assert_eq!(stats.count_for(0x05), 0);
        assert_eq!(request_kind_name(0x09), Some("plan-counts"));
        // Retired kinds have no name: 0x03/0x04 (v6) and 0x0A (v2).
        assert_eq!(request_kind_name(0x03), None);
        assert_eq!(request_kind_name(0x04), None);
        assert_eq!(request_kind_name(0x0A), None);
        assert_eq!(request_kind_name(0x7F), None);
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut payload = Request::Ping.encode();
        payload[0] = 99;
        assert!(Request::decode(&payload).is_err());
        assert_eq!(frame_version(&payload).unwrap(), 99);
        let mut payload = Response::Pong.encode();
        payload[0] = 0;
        assert!(Response::decode(&payload).is_err());
        // A v6 frame is refused on its version byte, whatever its kind.
        let mut payload = Request::Ping.encode();
        payload[0] = 6;
        assert!(Request::decode(&payload).is_err());
        assert_eq!(frame_version(&payload).unwrap(), 6);
    }

    #[test]
    fn unknown_kinds_and_trailing_bytes_rejected() {
        assert!(Request::decode(&[PROTOCOL_VERSION, 0x7E]).is_err());
        assert!(Response::decode(&[PROTOCOL_VERSION, 0x01]).is_err());
        // Retired kinds are unknown, whatever body follows.
        for kind in [0x03, 0x04] {
            assert!(Request::decode(&[PROTOCOL_VERSION, kind]).is_err());
        }
        for kind in [0x83, 0x84] {
            let mut payload = vec![PROTOCOL_VERSION, kind];
            payload.extend_from_slice(&[0; 33]);
            assert!(Response::decode(&payload).is_err());
        }
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(Request::decode(&payload).is_err());
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn frame_io_roundtrips() {
        let payload = Request::FetchAnnouncement.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let mut sink = Vec::new();
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(write_frame(&mut sink, &huge).is_err());

        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        let mut cursor = std::io::Cursor::new(wire);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_rejected() {
        let payload = Response::Pong.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        // Cut mid length prefix and mid payload.
        for cut in [1, 3, wire.len() - 1] {
            let mut cursor = std::io::Cursor::new(wire[..cut].to_vec());
            assert!(read_frame(&mut cursor).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_count_does_not_allocate() {
        // A submit frame declaring u32::MAX submissions but carrying no
        // bytes must fail fast instead of reserving gigabytes.
        let mut payload = vec![PROTOCOL_VERSION, 0x02];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&payload).is_err());
    }

    /// Encodes one flat span-tree node (hostile-input test helper).
    fn raw_span_node(buf: &mut Vec<u8>, parent: u32, name: &str, attrs: u8) {
        put_u32(buf, parent);
        put_bytes(buf, name.as_bytes());
        put_u64(buf, 1); // start_ns
        put_u64(buf, 2); // duration_ns
        buf.push(attrs);
    }

    #[test]
    fn hostile_span_trees_rejected() {
        let trace_payload = |body: &[u8]| {
            let mut payload = vec![PROTOCOL_VERSION, 0x8D, 1];
            payload.extend_from_slice(body);
            payload
        };

        // A declared node count exceeding the remaining bytes must fail
        // before allocation.
        let mut body = Vec::new();
        put_u32(&mut body, u32::MAX);
        assert!(Response::decode(&trace_payload(&body)).is_err());

        // Zero nodes is not a tree.
        let mut body = Vec::new();
        put_u32(&mut body, 0);
        assert!(Response::decode(&trace_payload(&body)).is_err());

        // The root must not claim a parent.
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        raw_span_node(&mut body, 0, "root", 0);
        assert!(Response::decode(&trace_payload(&body)).is_err());

        // A non-root node referencing itself (or any index at/after its
        // own) breaks preorder and must be rejected, not cycle.
        let mut body = Vec::new();
        put_u32(&mut body, 2);
        raw_span_node(&mut body, SPAN_NO_PARENT, "root", 0);
        raw_span_node(&mut body, 1, "self-parent", 0);
        assert!(Response::decode(&trace_payload(&body)).is_err());

        // Attr counts past the cap are refused.
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        raw_span_node(
            &mut body,
            SPAN_NO_PARENT,
            "root",
            u8::try_from(MAX_SPAN_ATTRS).unwrap() + 1,
        );
        assert!(Response::decode(&trace_payload(&body)).is_err());

        // The span-presence byte is strict.
        let payload = vec![PROTOCOL_VERSION, 0x8D, 7];
        assert!(Response::decode(&payload).is_err());

        // A well-formed single-node tree still decodes (the guards
        // above reject the corruption, not the shape).
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        raw_span_node(&mut body, SPAN_NO_PARENT, "root", 0);
        let decoded = Response::decode(&trace_payload(&body)).unwrap();
        assert_eq!(decoded, Response::Trace(Some(SpanNode::new("root", 1, 2))));
    }

    #[test]
    fn span_tree_node_cap_enforced() {
        // A tree one node over MAX_SPAN_NODES is refused even when every
        // byte is present and well-formed.
        let mut root = SpanNode::new("root", 0, 1);
        root.children = (0..MAX_SPAN_NODES)
            .map(|i| SpanNode::new("c", i as u64, 1))
            .collect();
        let payload = Response::Trace(Some(root)).encode();
        assert!(Response::decode(&payload).is_err());
    }

    proptest! {
        #[test]
        fn request_submit_roundtrip_property(
            users in proptest::collection::vec(any::<u64>(), 0..20),
            bundle in proptest::collection::vec(any::<u8>(), 0..64),
            db_id in any::<u64>(),
        ) {
            let subs: Vec<Submission> = users
                .iter()
                .map(|&u| Submission {
                    user: UserId(u),
                    database_id: db_id,
                    bundle: bundle.clone(),
                    skipped: vec![u as u32 % 7],
                })
                .collect();
            let req = Request::SubmitBatch(subs);
            let payload = req.encode();
            prop_assert_eq!(Request::decode(&payload).unwrap(), req);
        }

        #[test]
        fn conjunctive_roundtrip_property(
            positions in proptest::collection::vec(0u32..4096, 1..24),
            value_bits in proptest::collection::vec(any::<u64>(), 1..2),
        ) {
            let mut sorted = positions.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let width = sorted.len();
            let subset = BitSubset::new(sorted).unwrap();
            let value = BitString::from_u64(value_bits[0], width);
            // A conjunction travels as a one-term counts batch.
            let req = Request::PartialTermCounts {
                terms: vec![ConjunctiveQuery::new(subset, value).unwrap()],
                nonce: value_bits[0],
                profile: value_bits[0] & 1 == 1,
            };
            let payload = req.encode();
            prop_assert_eq!(Request::decode(&payload).unwrap(), req);
        }

        #[test]
        fn truncation_never_roundtrips_property(
            cut_frac in 0.0f64..1.0,
        ) {
            let resp = Response::Announcement(Announcement {
                database_id: 7,
                p: 0.25,
                sketch_bits: 12,
                global_key: [9; 32],
                subsets: vec![BitSubset::range(0, 8), BitSubset::single(3)],
            });
            let payload = resp.encode();
            let cut = ((payload.len() - 1) as f64 * cut_frac) as usize;
            // Any strict prefix must fail to decode (no silent truncation).
            prop_assert!(Response::decode(&payload[..cut]).is_err());
        }

        #[test]
        fn estimate_roundtrip_property(
            fraction_bits in any::<u64>(),
            sample in any::<u64>(),
        ) {
            // Estimates must survive bit-exactly, including weird floats.
            let a = PlanAnswerWire {
                value: f64::from_bits(fraction_bits),
                queries_used: 1,
                min_sample_size: sample,
            };
            let payload = Response::PlanAnswers(vec![a], None).encode();
            match Response::decode(&payload).unwrap() {
                Response::PlanAnswers(d, trace) => {
                    prop_assert_eq!(d.len(), 1);
                    prop_assert_eq!(d[0].value.to_bits(), a.value.to_bits());
                    prop_assert_eq!(d[0].min_sample_size, a.min_sample_size);
                    prop_assert!(trace.is_none());
                }
                other => prop_assert!(false, "wrong kind: {:?}", other),
            }
        }

        #[test]
        fn span_tree_roundtrip_property(
            nodes in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), 0u8..5, 0u8..4),
                1..60,
            ),
        ) {
            // Build an arbitrary tree from primitive draws: each entry
            // (start, duration, hop, attrs) attaches a node `hop`
            // levels up from the previous one, so depth, branching and
            // attr counts all vary.
            const NAMES: [&str; 4] = ["scan", "merge", "compile", "wal"];
            let mut arena: Vec<SpanNode> = Vec::new();
            let mut parents: Vec<usize> = Vec::new();
            let mut path: Vec<usize> = Vec::new();
            for (i, &(start, duration, hop, attrs)) in nodes.iter().enumerate() {
                for _ in 0..hop {
                    if path.len() > 1 {
                        path.pop();
                    }
                }
                let mut node = SpanNode::new(NAMES[i % NAMES.len()], start, duration);
                for a in 0..attrs {
                    node.attrs.push((format!("attr{a}"), u64::from(a) ^ start));
                }
                parents.push(path.last().copied().unwrap_or(0));
                arena.push(node);
                path.push(i);
            }
            // Assemble children back-to-front (parents precede children).
            for i in (1..arena.len()).rev() {
                let node = arena[i].clone();
                arena[parents[i]].children.insert(0, node);
            }
            let root = arena[0].clone();

            let payload = Response::Trace(Some(root.clone())).encode();
            match Response::decode(&payload).unwrap() {
                Response::Trace(Some(decoded)) => {
                    prop_assert_eq!(&decoded, &root);
                    prop_assert_eq!(decoded.span_count(), nodes.len());
                }
                other => prop_assert!(false, "wrong kind: {:?}", other),
            }

            // Any strict prefix must fail to decode (no silent
            // truncation, exactly like every other codec in this file).
            let cut = payload.len() - 1;
            prop_assert!(Response::decode(&payload[..cut]).is_err());
        }
    }
}

/// The columnar submit decoder against the decoded-`Submission` path
/// (`Request::decode`, then `Coordinator::accept_batch`) and against an
/// independent reference of the per-submission checks.
#[cfg(test)]
mod ingest_tests {
    use super::*;
    use psketch_core::codec::encode_bundle;
    use psketch_core::Sketch;
    use std::collections::HashSet;

    const DB: u64 = 42;
    const BITS: u8 = 10;

    /// A valid announcement (so its pool keeps count tables) over
    /// `subsets` single-bit subsets.
    fn announcement(subsets: u32) -> Announcement {
        Announcement {
            database_id: DB,
            p: 0.3,
            sketch_bits: BITS,
            global_key: [7; 32],
            subsets: (0..subsets).map(BitSubset::single).collect(),
        }
    }

    fn bundle(bits: u8, user: u64, count: usize) -> Vec<u8> {
        let sketches: Vec<Sketch> = (0..count as u64)
            .map(|i| Sketch {
                key: (user * 37 + i * 11) % (1 << bits),
            })
            .collect();
        encode_bundle(bits, &sketches).to_vec()
    }

    fn sub(user: u64, database_id: u64, bundle: Vec<u8>, skipped: Vec<u32>) -> Submission {
        Submission {
            user: UserId(user),
            database_id,
            bundle,
            skipped,
        }
    }

    fn good(user: u64) -> Submission {
        sub(user, DB, bundle(BITS, user, 4), vec![])
    }

    /// Users accepted before the frame arrives.
    fn earlier() -> Vec<Submission> {
        vec![good(100)]
    }

    /// One frame holding every per-submission failure kind among good
    /// submissions, over a 4-subset announcement.
    fn mixed() -> Vec<Submission> {
        let mut bad_magic = bundle(BITS, 11, 4);
        bad_magic[0] ^= 0xFF;
        let mut bad_version = bundle(BITS, 12, 4);
        bad_version[1] = 9;
        let mut truncated = bundle(BITS, 15, 4);
        truncated.pop();
        let mut reused = bad_magic.clone();
        reused[3] = 1;
        vec![
            good(1),
            good(2),
            sub(3, DB, bundle(BITS, 3, 3), vec![2]),
            sub(10, DB + 1, bundle(BITS, 10, 4), vec![]), // wrong database
            sub(11, DB, bad_magic, vec![]),
            sub(12, DB, bad_version, vec![]),
            sub(13, DB, bundle(BITS - 1, 13, 4), vec![]), // bad bits
            sub(14, DB, bundle(BITS, 14, 3), vec![]),     // wrong count
            sub(15, DB, truncated, vec![]),
            sub(16, DB, bundle(BITS, 16, 3), vec![7]), // out of range
            sub(17, DB, bundle(BITS, 17, 2), vec![1, 1]), // repeated
            sub(18, DB, bundle(BITS, 18, 0), vec![0, 1, 2, 3, 0]), // too many
            sub(2, DB, bundle(BITS, 99, 4), vec![]),   // in-batch duplicate
            sub(100, DB, bundle(BITS, 100, 4), vec![]), // earlier duplicate
            sub(19, DB, reused, vec![]),               // malformed, then …
            good(19),                                  // … well-formed: accepted
            sub(4, DB, bundle(BITS, 4, 2), vec![3, 0]),
        ]
    }

    /// The per-submission checks as a reference: `(subset index, key)`
    /// rows of a well-formed submission, `None` otherwise.
    fn reference_rows(sub: &Submission, ann: &Announcement) -> Option<Vec<(usize, u64)>> {
        if sub.database_id != ann.database_id {
            return None;
        }
        let (bits, sketches) = psketch_core::codec::decode_bundle(&sub.bundle).ok()?;
        let expected = ann.subsets.len().checked_sub(sub.skipped.len())?;
        if bits != ann.sketch_bits || sketches.len() != expected {
            return None;
        }
        let skipped: HashSet<u32> = sub.skipped.iter().copied().collect();
        if skipped.len() != sub.skipped.len()
            || sub.skipped.iter().any(|&i| i as usize >= ann.subsets.len())
        {
            return None;
        }
        let sketched = (0..ann.subsets.len()).filter(|&i| !skipped.contains(&(i as u32)));
        Some(sketched.zip(sketches.iter().map(|s| s.key)).collect())
    }

    /// Each subset's `(ids, keys)` after `batches` land on an empty
    /// pool, by the reference checks: malformed dropped, then the first
    /// occurrence of each user kept.
    fn reference_columns(
        ann: &Announcement,
        batches: &[&[Submission]],
    ) -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut columns = vec![(Vec::new(), Vec::new()); ann.subsets.len()];
        let mut seen = HashSet::new();
        for batch in batches {
            let rows: Vec<_> = batch
                .iter()
                .filter_map(|s| Some((s.user, reference_rows(s, ann)?)))
                .collect();
            for (user, rows) in rows {
                if seen.insert(user) {
                    for (i, key) in rows {
                        columns[i].0.push(user.0);
                        columns[i].1.push(key);
                    }
                }
            }
        }
        columns
    }

    /// A subset's count table and population, if it has one.
    type Table = Option<(Vec<u64>, u64)>;

    /// Counters, accepted users, columns and count tables.
    type IngestState = (
        CoordinatorStats,
        Vec<UserId>,
        Vec<(Vec<u64>, Vec<u64>)>,
        Vec<Table>,
    );

    /// Everything observable about a coordinator's ingest state.
    fn state(c: &Coordinator) -> IngestState {
        let mut seen = c.seen_users();
        seen.sort_unstable();
        let ann = c.announcement();
        let params = ann.validate().unwrap();
        let columns = ann
            .subsets
            .iter()
            .map(|s| match c.pool().snapshot(s) {
                Ok(snap) => (snap.ids().to_vec(), snap.keys().to_vec()),
                Err(_) => (Vec::new(), Vec::new()),
            })
            .collect();
        let tables = ann
            .subsets
            .iter()
            .map(|s| c.pool().count_table(s, &params))
            .collect();
        (c.stats(), seen, columns, tables)
    }

    /// Serves `payload` both ways on coordinators that already hold
    /// `earlier`, asserting the same verdict, ack and resulting state;
    /// returns the columnar coordinator.
    fn assert_paths_agree(
        ann: &Announcement,
        earlier: &[Submission],
        payload: &[u8],
    ) -> Coordinator {
        let oracle = Coordinator::new(ann.clone());
        let columnar = Coordinator::new(ann.clone());
        oracle.accept_batch(earlier);
        columnar.accept_batch(earlier);
        let want = match Request::decode(payload) {
            Ok(Request::SubmitBatch(subs)) => Some(oracle.accept_batch(&subs)),
            _ => None,
        };
        let got = submit_body(payload)
            .and_then(|body| decode_submit_body(body, &columnar).ok())
            .map(|batch| columnar.apply_batch(batch));
        assert_eq!(got, want, "frame verdict or ack differs");
        assert_eq!(state(&columnar), state(&oracle));
        columnar
    }

    #[test]
    fn every_failure_kind_in_one_frame_matches_both_oracles() {
        let ann = announcement(4);
        let subs = mixed();
        let payload = Request::SubmitBatch(subs.clone()).encode();
        let c = assert_paths_agree(&ann, &earlier(), &payload);
        let stats = c.stats();
        // Users 1, 2, 3, 4, 19 and the earlier 100.
        assert_eq!(stats.accepted, 6);
        assert_eq!(stats.malformed, 10);
        assert_eq!(stats.duplicates, 2);
        assert_eq!(stats.records, 4 + 4 + 4 + 3 + 4 + 2);
        let (_, seen, columns, tables) = state(&c);
        assert_eq!(seen, [1, 2, 3, 4, 19, 100].map(UserId));
        assert_eq!(columns, reference_columns(&ann, &[&earlier(), &subs]));
        assert!(tables.iter().all(Option::is_some), "count tables kept");
    }

    #[test]
    fn mutated_and_truncated_frames_agree_and_never_panic() {
        let ann = announcement(4);
        let payload = Request::SubmitBatch(mixed()).encode();
        for cut in 0..payload.len() {
            assert_paths_agree(&ann, &earlier(), &payload[..cut]);
        }
        // Trailing bytes: one appended, and a count one short of the list.
        let mut extra = payload.clone();
        extra.push(0);
        assert_paths_agree(&ann, &earlier(), &extra);
        let mut short = payload.clone();
        short[2] -= 1;
        assert_paths_agree(&ann, &earlier(), &short);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        for _ in 0..3_000 {
            let mut mutated = payload.clone();
            for _ in 0..=next() % 3 {
                let at = next() as usize % mutated.len();
                mutated[at] = next() as u8;
            }
            if next() % 4 == 0 {
                mutated.truncate(next() as usize % mutated.len());
            }
            assert_paths_agree(&ann, &earlier(), &mutated);
        }
    }

    #[test]
    fn hostile_count_reserves_by_bytes_present() {
        // 2000 subsets: a full bundle is 2.5 kB, so a frame of 24-byte
        // minimal submissions declaring the most it can hold must not
        // reserve 2000 rows for each of them.
        let subsets = 2_000;
        let ann = announcement(subsets);
        let n = 10_000u32;
        let mut body = n.to_le_bytes().to_vec();
        for user in 0..u64::from(n) {
            body.extend_from_slice(&user.to_le_bytes());
            body.extend_from_slice(&DB.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes()); // empty bundle
            body.extend_from_slice(&0u32.to_le_bytes()); // nothing skipped
        }
        let coordinator = Coordinator::new(ann);
        let batch = decode_submit_body(&body, &coordinator).unwrap();
        // Each reserved row holds an id and a key: 16 bytes.
        let reserved_bytes = batch.reserved_rows() * 16;
        assert!(
            reserved_bytes <= 16 * body.len(),
            "reserved {reserved_bytes} bytes for a {}-byte body",
            body.len()
        );
        assert!(reserved_bytes < subsets as usize * n as usize);
        let outcome = coordinator.apply_batch(batch);
        assert_eq!((outcome.accepted, outcome.rejected), (0, n as usize));
    }
}

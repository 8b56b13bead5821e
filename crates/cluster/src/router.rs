//! The cluster router: scatter-gather over shard nodes, on the
//! calling thread.
//!
//! A [`Router`] holds one persistent connection per shard (lazily
//! opened, hello handshake verified against the [`ShardMap`]). A
//! scatter writes every shard's request frame first — up to
//! [`RouterConfig::fanout`] in flight — and only then reads the replies,
//! in ascending shard order. Every shard has its request before the
//! router blocks on the first reply, so the shards' round trips and
//! scans overlap without a thread per shard: a query pays about
//! `max(per-shard latency)`, not the sum.
//!
//! The router serves the same analyst surface a single node does —
//! **any compiled [`TermPlan`]**, which covers every query family
//! (conjunctions, DNF, intervals, means, moments, trees, histograms,
//! linear combinations) — plus status, by **merging exact partial
//! counts** instead of estimates:
//!
//! 1. every shard answers one generic `PartialTermCounts` frame with
//!    integer `(ones, population)` counts for the plan's deduplicated
//!    terms (a shard holding none of a subset's records reports
//!    `(0, 0)`);
//! 2. the router sums them ([`PlanAccumulator`]) — integer addition,
//!    exact in any order, and merged **in ascending shard order**;
//! 3. the Algorithm 2 float inversion runs **once per term**, on the
//!    merged sums, via the same [`psketch_core::Estimate::from_counts`]
//!    a single node uses, and [`TermPlan::evaluate`] replays the
//!    compiler's combination order.
//!
//! Ingest ([`Router::submit_batch`]) streams each shard's chunks over
//! the same connections; one failing shard never stops the others.
//!
//! Cluster answers are therefore bit-identical to a single node holding
//! the union of the records — and bit-identical at every
//! [`RouterConfig::fanout`], because the fan-out only changes *when* a
//! shard's request is written, never the order counts are merged in
//! (the property tests in this crate pin both down, family by family).
//!
//! # Failure handling
//!
//! A scatter runs in rounds. Each round gives every shard still owed
//! an answer one attempt, with one deadline per attempt (request
//! written + [`RouterConfig::timeout`]): each read waits only for what
//! is left of it, so `k` silent shards cost one timeout, not `k`.
//! Shards that failed in transport are retried together in the next
//! round, behind one **capped** exponential backoff sleep
//! ([`backoff_delay`]). A shard that stays unreachable is reported as
//! **missing** in the answer's [`Coverage`] rather than silently
//! skewing `r'`: the estimate then covers exactly the responding
//! shards' population, and the caller can see which shards — and,
//! when a prior [`Router::status`] sweep recorded their size, what
//! fraction of the known user population — the answer excludes.
//!
//! Deterministic server refusals (budget exhausted, malformed query)
//! and misrouted nodes are never retried and fail the whole query.
//! Replies are read in shard order, so the first fatal outcome read is
//! the lowest-numbered shard's: the router then dispatches no further
//! shard, reads the replies already in flight, and reports it —
//! exactly as the sequential visit order (`fanout = 1`) would.
//!
//! # Retry correctness
//!
//! Every query scatter mints one request nonce
//! ([`psketch_server::next_nonce`]) per logical query and replays it on
//! every retry, so a server that already charged the analyst's
//! ε-ledger before the transport died serves the retry **without a
//! second charge** (wire protocol v4 charge-once semantics).

use crate::shard::{ShardMap, ShardMapError};
use psketch_core::Estimate;
use psketch_obs::{self as obs, RegistrySnapshot, SpanNode};
use psketch_protocol::{Announcement, CoordinatorStats, QueryCounts, ShardIdentity, Submission};
use psketch_queries::{LinearAnswer, PlanAccumulator, TermPlan};
use psketch_server::{next_nonce, wire, Client, ClientError, Request, Response, ServerStats};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Backoff ceiling: however many retries are configured, no single
/// sleep exceeds this.
pub const MAX_BACKOFF: Duration = Duration::from_secs(30);

/// The delay slept before retry `attempt` (1-based): `base · 2^(a−1)`,
/// saturating, capped at [`MAX_BACKOFF`]. Safe for any `attempt` — the
/// shift is clamped and the multiply saturates, so a config with
/// `retries ≥ 32` backs off at the cap instead of overflowing. A zero
/// base means "never sleep" and stays zero at every attempt (`0 · 2^k`
/// is 0, however large the factor).
#[must_use]
pub fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let factor = 1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(0);
    let delay = if factor == 0 {
        // The true factor 2^(attempt−1) no longer fits; any positive
        // base has long since saturated the cap.
        MAX_BACKOFF
    } else {
        base.saturating_mul(factor)
    };
    delay.min(MAX_BACKOFF)
}

/// A `Duration` as waterfall nanoseconds (saturating).
fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Connect and write timeout for every shard connection, and each
    /// attempt's reply deadline (counted from its request's write).
    pub timeout: Duration,
    /// Extra attempts per shard operation after the first failure.
    pub retries: u32,
    /// Base backoff slept before the first retry; doubles per attempt,
    /// capped at [`MAX_BACKOFF`].
    pub backoff: Duration,
    /// The analyst identity declared to every shard (budget accounting).
    pub analyst: u64,
    /// Chunk size for batch submissions (bounds frame sizes).
    pub submit_chunk: usize,
    /// Maximum shard requests written and not yet answered at once.
    /// `0` (the default) writes every shard's request before reading
    /// the first reply; `1` is the sequential visit order (useful as a
    /// latency/answer oracle). Answers are bit-identical at every
    /// fanout.
    pub fanout: usize,
    /// `Some(ms)` emits one structured WARN record, with a per-shard
    /// timing breakdown and slowest-shard attribution, for every plan
    /// scatter that took at least this long (`0` logs every query).
    pub slow_query_ms: Option<u64>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(10),
            retries: 2,
            backoff: Duration::from_millis(50),
            analyst: 0,
            submit_chunk: 500,
            fanout: 0,
            slow_query_ms: None,
        }
    }
}

/// Why a shard is missing from an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutage {
    /// The unreachable shard.
    pub shard: u32,
    /// The last transport error observed (after all retries).
    pub error: String,
}

// `Coverage` lives in [`crate::coverage`]: its `missing_fraction` is
// deliberate float math, and this file is a float-free zone (see the
// module docs and the `float-determinism` lint check). Re-exported here
// so `router::Coverage` stays a valid path.
pub use crate::coverage::Coverage;

/// A cluster plan answer: one output answer per plan output plus the
/// merged per-term estimates (each bit-identical to a single node over
/// the responding shards' records).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPlanAnswer {
    /// One answer per plan output, in plan order.
    pub outputs: Vec<LinearAnswer>,
    /// The merged estimate of every plan term, aligned with the plan's
    /// term list (richer than the outputs: raw fractions and sample
    /// sizes survive for single-term outputs like distributions).
    pub term_estimates: Vec<Estimate>,
    /// Which shards the answer covers.
    pub coverage: Coverage,
}

/// A profiled cluster plan answer: the ordinary answer (bit-identical
/// to an unprofiled [`Router::execute_plan`] over the same records)
/// plus the stitched span waterfall and the nonce it is filed under in
/// every responding shard's recent-trace ring.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterExplain {
    /// The answer, exactly as the unprofiled path computes it.
    pub answer: ClusterPlanAnswer,
    /// The stitched trace: a `router:plan` root over `router:scatter`
    /// (one `shard:<id>` wrapper per responding shard, each holding the
    /// shard's own span subtree; wrapper self-time is the network +
    /// queue + framing gap the shard never saw) and `router:merge`.
    pub trace: SpanNode,
    /// The query nonce — fetch the same per-shard subtrees later with
    /// [`Router::trace`] while the shards' rings retain them.
    pub nonce: u64,
}

/// One shard's row of a cluster ingest. Acks are summed per durably
/// committed chunk, so a shard that failed mid-batch still reports what
/// it ingested before the failure — only [`ShardIngest::lost`]
/// submissions need re-submitting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardIngest {
    /// The shard this row routed to.
    pub shard: u32,
    /// Submissions routed to it.
    pub submitted: usize,
    /// Submissions durably accepted (acked chunks survive a later
    /// failure).
    pub accepted: u64,
    /// Submissions rejected as malformed or duplicate.
    pub rejected: u64,
    /// The error that stopped this shard's ingest mid-way, if any (a
    /// transport failure that outlasted the retries, a refusal, or a
    /// misrouted node); the unacked remainder was **not** ingested.
    pub error: Option<String>,
}

impl ShardIngest {
    /// Submissions neither acked nor rejected — lost to the failure
    /// and in need of re-submission (zero when the shard succeeded).
    #[must_use]
    pub fn lost(&self) -> u64 {
        (self.submitted as u64).saturating_sub(self.accepted + self.rejected)
    }
}

/// The outcome of a cluster batch submission. Shards succeed and fail
/// independently — a failed shard never erases what the others
/// ingested.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterSubmitReport {
    /// Submissions durably accepted across all shards (including the
    /// committed prefix of shards that later failed).
    pub accepted: u64,
    /// Submissions rejected (malformed or duplicate) across all shards.
    pub rejected: u64,
    /// One row per shard, ascending.
    pub shards: Vec<ShardIngest>,
}

impl ClusterSubmitReport {
    /// Sums the rows into a report.
    fn from_rows(shards: Vec<ShardIngest>) -> Self {
        Self {
            accepted: shards.iter().map(|s| s.accepted).sum(),
            rejected: shards.iter().map(|s| s.rejected).sum(),
            shards,
        }
    }

    /// Whether every submission reached its shard.
    #[must_use]
    pub fn fully_ingested(&self) -> bool {
        self.shards.iter().all(|s| s.error.is_none())
    }

    /// The shards that failed, with how many submissions each lost.
    pub fn failures(&self) -> impl Iterator<Item = &ShardIngest> {
        self.shards.iter().filter(|s| s.error.is_some())
    }

    /// Submissions lost to shard failures (need re-submission).
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.shards.iter().map(ShardIngest::lost).sum()
    }

    /// Collapses the report into totals, erring if any shard failed —
    /// the strict adapter for callers that need all-or-nothing
    /// semantics.
    ///
    /// # Errors
    ///
    /// The first failed shard's error, prefixed with its id.
    pub fn totals(&self) -> Result<(u64, u64), String> {
        if let Some(failed) = self.failures().next() {
            let err = failed.error.as_deref().expect("failure filtered");
            return Err(format!("shard {}: {err}", failed.shard));
        }
        Ok((self.accepted, self.rejected))
    }
}

/// One shard's row of a cluster status sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// The shard.
    pub shard: u32,
    /// The address serving it.
    pub addr: String,
    /// Its counters, or the transport error that kept it unreachable.
    pub status: Result<(CoordinatorStats, ServerStats), String>,
}

/// A cluster status sweep: per-shard counters plus the exact merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStatus {
    /// One row per shard.
    pub per_shard: Vec<ShardStatus>,
    /// Coordinator counters summed over the responding shards (shards
    /// partition the population, so this is the single-node total).
    pub merged: CoordinatorStats,
    /// Server counters merged over the responding shards with
    /// [`ServerStats::merge`] semantics: request/plan/budget counters
    /// sum, but gauge-like fields (uptime) keep the **maximum** — a
    /// 3-shard cluster has not been up three times as long, and a
    /// summed uptime would mask one freshly crashed shard behind two
    /// long-lived ones. Per-shard values stay in `per_shard`.
    pub merged_server: ServerStats,
}

/// Errors from cluster operations.
#[derive(Debug)]
pub enum ClusterError {
    /// The shard map failed validation.
    Map(ShardMapError),
    /// Every shard stayed unreachable after retries.
    AllShardsDown(Vec<ShardOutage>),
    /// A shard answered with a deterministic refusal (budget exhausted,
    /// malformed query, …) — retrying or failing over cannot help,
    /// every shard would refuse identically. When several shards refuse
    /// in the same parallel round, the lowest-numbered one is reported.
    Refused {
        /// The refusing shard.
        shard: u32,
        /// The wire error code (see `psketch_server::wire::codes`).
        code: u16,
        /// The server's message.
        message: String,
    },
    /// The hello handshake found the wrong node behind a mapped
    /// address (stale map or misconfigured node) — merging its counts
    /// would corrupt answers, so this is fatal rather than degraded.
    Misrouted {
        /// The shard the map expects at the address.
        shard: u32,
        /// What the node actually reported.
        found: Option<ShardIdentity>,
    },
    /// Two responding shards publish different announcements.
    AnnouncementMismatch {
        /// The disagreeing shard.
        shard: u32,
    },
    /// The merged counts could not be turned into an answer (e.g. no
    /// responding shard holds any records for the subset).
    Estimation(psketch_core::Error),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Map(e) => write!(f, "{e}"),
            Self::AllShardsDown(outages) => {
                write!(f, "all {} shards unreachable: ", outages.len())?;
                for o in outages {
                    write!(f, "[shard {}: {}] ", o.shard, o.error)?;
                }
                Ok(())
            }
            Self::Refused {
                shard,
                code,
                message,
            } => write!(f, "shard {shard} refused (code {code}): {message}"),
            Self::Misrouted { shard, found } => match found {
                Some(identity) => write!(
                    f,
                    "address mapped to shard {shard} is actually serving shard {identity}"
                ),
                None => write!(
                    f,
                    "address mapped to shard {shard} is serving an unsharded node"
                ),
            },
            Self::AnnouncementMismatch { shard } => write!(
                f,
                "shard {shard} publishes a different announcement than shard 0; \
                 refusing to merge pools"
            ),
            Self::Estimation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ShardMapError> for ClusterError {
    fn from(e: ShardMapError) -> Self {
        Self::Map(e)
    }
}

impl From<psketch_core::Error> for ClusterError {
    fn from(e: psketch_core::Error) -> Self {
        Self::Estimation(e)
    }
}

/// Successful scatter results (per responding shard, ascending) plus
/// outages.
type Gathered<T> = (Vec<(u32, T)>, Vec<ShardOutage>);

/// Outcome of one shard operation after retries.
enum ShardAttempt<T> {
    Ok(T),
    /// Transport-level failure: the shard may be down; degrade.
    Down(String),
    /// Deterministic server refusal: fail the whole operation.
    Refused {
        code: u16,
        message: String,
    },
    /// Wrong node behind the address: fail the whole operation.
    Misrouted(Option<ShardIdentity>),
}

impl<T> ShardAttempt<T> {
    fn is_fatal(&self) -> bool {
        matches!(self, Self::Refused { .. } | Self::Misrouted(_))
    }

    /// The shard's value, or its outage; fatal outcomes become the
    /// whole operation's error.
    fn settle(self, shard: u32) -> Result<Result<T, ShardOutage>, ClusterError> {
        match self {
            Self::Ok(value) => Ok(Ok(value)),
            Self::Down(error) => Ok(Err(ShardOutage { shard, error })),
            Self::Refused { code, message } => Err(ClusterError::Refused {
                shard,
                code,
                message,
            }),
            Self::Misrouted(found) => Err(ClusterError::Misrouted { shard, found }),
        }
    }
}

/// How a shard's reply in a scatter was obtained.
#[derive(Clone, Copy)]
struct Stamp {
    shard: u32,
    /// Attempts made: 1 plus the retries used.
    attempts: u32,
    /// When the last attempt's request was written, and how long until
    /// its reply was read (`None` if no request frame went out).
    exchange: Option<(Instant, Duration)>,
}

/// One shard's result from a scatter.
type Reply<T> = (Stamp, ShardAttempt<T>);

/// A plan scatter's counts and (when profiled) the shard's span tree.
type PlanCounts = (Vec<QueryCounts>, Option<SpanNode>);

/// A shard whose frame is written and whose reply is unread.
struct Flight {
    /// The shard's connection, back in its slot once the reply is read
    /// and the connection is still healthy.
    client: Client,
    /// Whether the frame written was a fresh connection's hello; the
    /// request itself follows once the identity checks out.
    hello: bool,
    /// When the frame's write began.
    sent: Instant,
}

/// The shortest read timeout a scatter sets. A reply already buffered
/// is read at once whatever the timeout, and the socket option rejects
/// zero.
const MIN_READ_TIMEOUT: Duration = Duration::from_millis(1);

/// Reads `client`'s next reply, waiting no later than `deadline`.
fn read_by(client: &mut Client, deadline: Instant) -> Result<Response, ClientError> {
    client.set_read_timeout(
        deadline
            .saturating_duration_since(Instant::now())
            .max(MIN_READ_TIMEOUT),
    )?;
    client.receive()
}

/// A scatter-gather router over a shard map.
pub struct Router {
    map: ShardMap,
    config: RouterConfig,
    /// Each shard's persistent, hello-verified connection, in shard
    /// order; `None` until first needed and after a transport failure.
    conns: Vec<Option<Client>>,
    /// Last-known accepted-user count per shard (status sweeps).
    known_users: Vec<Option<u64>>,
    announcement: Option<Announcement>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.map.len())
            .field("version", &self.map.version)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Builds a router over a validated map. No connections are opened
    /// until the first operation needs them.
    ///
    /// # Errors
    ///
    /// Shard-map validation errors.
    pub fn new(map: ShardMap, config: RouterConfig) -> Result<Self, ClusterError> {
        map.validate()?;
        let n = map.len();
        Ok(Self {
            map,
            config,
            conns: (0..n).map(|_| None).collect(),
            known_users: vec![None; n],
            announcement: None,
        })
    }

    /// The shard map in force.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The concurrent fan-out in force (`0` = all shards at once).
    fn effective_fanout(&self) -> usize {
        if self.config.fanout == 0 {
            self.map.len()
        } else {
            self.config.fanout
        }
    }

    /// Sends each target shard its request and returns every dispatched
    /// shard's reply, in ascending shard order (`targets` must ascend).
    ///
    /// Each round writes the frames of the shards still owed an answer
    /// — at most [`RouterConfig::fanout`] unread at once — and reads
    /// the replies in shard order. Shards that failed in transport (or
    /// answered `RETRY_PENDING`) are retried together in the next
    /// round, behind one capped backoff sleep.
    ///
    /// Once a **fatal** outcome (refusal, misroute) is read, no further
    /// shard is dispatched and no retry round runs — the operation is
    /// doomed, and every extra dispatch would charge another shard's
    /// ε-ledger for an answer that will be discarded. Replies already
    /// in flight are still read.
    fn scatter<T>(
        &mut self,
        targets: &[(u32, &[u8])],
        decode: impl Fn(Response) -> Option<T>,
    ) -> Vec<Reply<T>> {
        let started = Instant::now();
        let mut replies: Vec<Option<Reply<T>>> = targets.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..targets.len()).collect();
        let mut attempt = 1;
        loop {
            let (retry, fatal) = self.round(targets, &pending, &decode, attempt, &mut replies);
            pending = retry;
            if fatal || pending.is_empty() || attempt > self.config.retries {
                break;
            }
            let delay = backoff_delay(self.config.backoff, attempt);
            obs::counter("psketch_router_retries_total", &[]).add(pending.len() as u64);
            obs::histogram("psketch_router_backoff_sleep_nanos", &[]).record_duration(delay);
            std::thread::sleep(delay);
            attempt += 1;
        }
        obs::histogram("psketch_router_scatter_nanos", &[]).record_duration(started.elapsed());
        let attempt_nanos = obs::histogram("psketch_router_shard_attempt_nanos", &[]);
        let replies: Vec<Reply<T>> = replies.into_iter().flatten().collect();
        for (stamp, outcome) in &replies {
            if let Some((_, elapsed)) = stamp.exchange {
                attempt_nanos.record_duration(elapsed);
            }
            if matches!(outcome, ShardAttempt::Down(_)) {
                obs::counter("psketch_router_shard_down_total", &[]).inc();
            }
        }
        replies
    }

    /// One attempt for every `pending` target; returns the targets to
    /// retry and whether a fatal outcome stopped dispatch.
    fn round<T>(
        &mut self,
        targets: &[(u32, &[u8])],
        pending: &[usize],
        decode: &impl Fn(Response) -> Option<T>,
        attempts: u32,
        replies: &mut [Option<Reply<T>>],
    ) -> (Vec<usize>, bool) {
        let fanout = self.effective_fanout().max(1);
        let mut queue = pending.iter().copied();
        let mut flights = VecDeque::with_capacity(fanout.min(pending.len()));
        let mut retry = Vec::new();
        let mut fatal = false;
        loop {
            // Fill the window in shard order, then read the oldest flight.
            let next = (flights.len() < fanout && !fatal).then(|| queue.next());
            let (target, outcome, exchange) = match next.flatten() {
                Some(target) => {
                    let (shard, payload) = targets[target];
                    match self.dispatch(shard, payload) {
                        Ok(flight) => {
                            flights.push_back((target, flight));
                            continue;
                        }
                        Err(error) => (target, ShardAttempt::Down(error), None),
                    }
                }
                None => {
                    let Some((target, flight)) = flights.pop_front() else {
                        break;
                    };
                    if fatal && flight.hello {
                        // Its request is not written yet, and now never
                        // will be; the unverified connection is dropped.
                        continue;
                    }
                    let (shard, payload) = targets[target];
                    let (outcome, exchange) = self.complete(shard, payload, flight, decode);
                    (target, outcome, exchange)
                }
            };
            if matches!(outcome, ShardAttempt::Down(_)) {
                retry.push(target);
            }
            fatal |= outcome.is_fatal();
            let shard = targets[target].0;
            let stamp = Stamp {
                shard,
                attempts,
                exchange,
            };
            replies[target] = Some((stamp, outcome));
        }
        retry.sort_unstable();
        (retry, fatal)
    }

    /// Writes `shard`'s request payload — or, on a fresh connection, the
    /// hello handshake that must precede it. A failure drops the
    /// connection.
    fn dispatch(&mut self, shard: u32, payload: &[u8]) -> Result<Flight, String> {
        let slot = &mut self.conns[shard as usize];
        let hello = slot.is_none();
        let mut client = match slot.take() {
            Some(client) => client,
            None => Client::connect(self.map.addr_of(shard), self.config.timeout)
                .map_err(|e| e.to_string())?,
        };
        // Stamp before the write: a fast shard can answer before the
        // write returns, and a later stamp would under-time it.
        let sent = Instant::now();
        let written = if hello {
            client.send(&Request::Hello {
                analyst: self.config.analyst,
            })
        } else {
            client.send_payload(payload)
        };
        written.map_err(|e| e.to_string())?;
        Ok(Flight {
            client,
            hello,
            sent,
        })
    }

    /// Reads `shard`'s reply to a dispatched flight by its deadline —
    /// first verifying the hello and writing the request, on a fresh
    /// connection. Server error frames complete the exchange; any other
    /// failure drops the connection.
    fn complete<T>(
        &mut self,
        shard: u32,
        payload: &[u8],
        flight: Flight,
        decode: &impl Fn(Response) -> Option<T>,
    ) -> (ShardAttempt<T>, Option<(Instant, Duration)>) {
        let mut client = flight.client;
        let deadline = flight.sent + self.config.timeout;
        let mut sent = flight.sent;
        if flight.hello {
            match read_by(&mut client, deadline) {
                Ok(Response::Hello { shard: found }) if self.map.admits(shard, found.as_ref()) => {}
                Ok(Response::Hello { shard: found }) => {
                    return (ShardAttempt::Misrouted(found), None);
                }
                Ok(other) => {
                    let error = format!("protocol error: unexpected hello reply {other:?}");
                    return (ShardAttempt::Down(error), None);
                }
                Err(ClientError::Server { code, message }) => {
                    return (ShardAttempt::Refused { code, message }, None);
                }
                Err(e) => return (ShardAttempt::Down(e.to_string()), None),
            }
            sent = Instant::now();
            if let Err(e) = client.send_payload(payload) {
                return (ShardAttempt::Down(e.to_string()), None);
            }
        }
        let reply = read_by(&mut client, deadline);
        let exchange = Some((sent, sent.elapsed()));
        let (outcome, healthy) = match reply {
            Ok(resp) => match decode(resp) {
                Some(value) => (ShardAttempt::Ok(value), true),
                None => {
                    let error = "protocol error: unexpected response kind".to_string();
                    (ShardAttempt::Down(error), false)
                }
            },
            // Transient by contract: our own earlier attempt's
            // evaluation is still running server-side and its answer
            // will be cached. The exchange completed, so the connection
            // stays healthy — just retry.
            Err(ClientError::Server { code, message })
                if code == psketch_server::wire::codes::RETRY_PENDING =>
            {
                (ShardAttempt::Down(message), true)
            }
            Err(ClientError::Server { code, message }) => {
                (ShardAttempt::Refused { code, message }, true)
            }
            Err(e) => (ShardAttempt::Down(e.to_string()), false),
        };
        if healthy {
            self.conns[shard as usize] = Some(client);
        }
        (outcome, exchange)
    }

    /// Sends every shard the same request, encoded once.
    fn broadcast<T>(
        &mut self,
        request: &Request,
        decode: impl Fn(Response) -> Option<T>,
    ) -> Vec<Reply<T>> {
        let payload = request.encode();
        let targets: Vec<(u32, &[u8])> = (0..self.map.len() as u32)
            .map(|shard| (shard, payload.as_slice()))
            .collect();
        self.scatter(&targets, decode)
    }

    /// Splits replies into successes and outages. Replies ascend by
    /// shard, so when several shards failed fatally the lowest-numbered
    /// one is reported — what the sequential visit order produces.
    fn gather<T>(replies: Vec<Reply<T>>) -> Result<Gathered<T>, ClusterError> {
        let mut gathered = Vec::new();
        let mut outages = Vec::new();
        for (stamp, outcome) in replies {
            match outcome.settle(stamp.shard)? {
                Ok(value) => gathered.push((stamp.shard, value)),
                Err(outage) => outages.push(outage),
            }
        }
        if gathered.is_empty() {
            return Err(ClusterError::AllShardsDown(outages));
        }
        Ok((gathered, outages))
    }

    fn coverage(
        &self,
        responding: Vec<u32>,
        missing: Vec<ShardOutage>,
        population: u64,
    ) -> Coverage {
        let missing_users = missing
            .iter()
            .map(|o| self.known_users[o.shard as usize])
            .sum::<Option<u64>>();
        Coverage {
            total_shards: self.map.len() as u32,
            responding,
            missing,
            population,
            missing_users,
        }
    }

    /// The deployment's announcement: fetched from every shard and
    /// verified identical across responding shards (the lowest
    /// responding shard is the reference), then cached.
    ///
    /// # Errors
    ///
    /// Transport errors on all shards, or an announcement mismatch.
    pub fn announcement(&mut self) -> Result<Announcement, ClusterError> {
        if let Some(ann) = &self.announcement {
            return Ok(ann.clone());
        }
        let replies = self.broadcast(&Request::FetchAnnouncement, |resp| match resp {
            Response::Announcement(ann) => Some(ann),
            _ => None,
        });
        let (gathered, _) = Self::gather(replies)?;
        let (_, reference) = &gathered[0];
        for (shard, ann) in &gathered[1..] {
            if ann != reference {
                return Err(ClusterError::AnnouncementMismatch { shard: *shard });
            }
        }
        self.announcement = Some(reference.clone());
        Ok(reference.clone())
    }

    /// The bias the merged-count inversion must use: the **quantized**
    /// `SketchParams::p()`, exactly as the shards' own estimators use it
    /// — the raw `announcement.p` can differ in the low mantissa bits
    /// after `Bias` fixed-point quantization, which would break
    /// bit-identity with single-node answers.
    fn bias(&mut self) -> Result<f64, ClusterError> {
        let params = self.announcement()?.validate()?;
        Ok(params.p())
    }

    /// Submits a batch, routed by each user's shard, over the
    /// persistent shard connections — the cluster's one ingest
    /// fan-out. Every shard with submissions keeps one
    /// [`RouterConfig::submit_chunk`]-sized chunk in flight (at most
    /// [`RouterConfig::fanout`] shards at once) and gets its next chunk
    /// as soon as its ack is read. A shard that fails in transport
    /// parks at its first unacked chunk; parked shards resume together
    /// after the stream drains, behind one backoff sleep, up to
    /// [`RouterConfig::retries`] times. A transport failure that
    /// outlasts the retries, a refusal or a misrouted node stops only
    /// its own shard, whose row keeps the acked (durable) prefix next
    /// to the error.
    ///
    /// # Errors
    ///
    /// None at present: every failure is confined to its shard's row.
    pub fn submit_batch(
        &mut self,
        subs: &[Submission],
    ) -> Result<ClusterSubmitReport, ClusterError> {
        let mut shares: Vec<Vec<&Submission>> = (0..self.map.len()).map(|_| Vec::new()).collect();
        for sub in subs {
            shares[self.map.shard_of(sub.user) as usize].push(sub);
        }
        let mut rows: Vec<ShardIngest> = shares
            .iter()
            .enumerate()
            .map(|(shard, share)| ShardIngest {
                shard: shard as u32,
                submitted: share.len(),
                ..ShardIngest::default()
            })
            .collect();
        // Each shard's acked prefix: where its next chunk starts.
        let mut acked = vec![0; shares.len()];
        let mut streaming: Vec<u32> = (0..shares.len() as u32)
            .filter(|&shard| !shares[shard as usize].is_empty())
            .collect();
        let mut attempt = 1;
        loop {
            let parked = self.stream_chunks(&shares, &streaming, &mut acked, &mut rows);
            if parked.is_empty() || attempt > self.config.retries {
                break;
            }
            let delay = backoff_delay(self.config.backoff, attempt);
            obs::counter("psketch_router_retries_total", &[]).add(parked.len() as u64);
            obs::histogram("psketch_router_backoff_sleep_nanos", &[]).record_duration(delay);
            std::thread::sleep(delay);
            for &shard in &parked {
                rows[shard as usize].error = None;
            }
            streaming = parked;
            attempt += 1;
        }
        Ok(ClusterSubmitReport::from_rows(rows))
    }

    /// One pass of [`Router::submit_batch`]'s stream over `shards`
    /// (ascending), each from its acked offset; outcomes land in
    /// `rows`. Returns the shards that failed in transport. Resuming a
    /// chunk whose ack was lost in flight sends it twice; its users
    /// are then rejected server-side as duplicates.
    fn stream_chunks(
        &mut self,
        shares: &[Vec<&Submission>],
        shards: &[u32],
        acked: &mut [usize],
        rows: &mut [ShardIngest],
    ) -> Vec<u32> {
        let chunk = self.config.submit_chunk.max(1);
        let fanout = self.effective_fanout().max(1);
        let decode = |resp| match resp {
            Response::SubmitAck { accepted, rejected } => Some((accepted, rejected)),
            _ => None,
        };
        let mut queue = shards.iter().copied();
        let mut flights: VecDeque<(u32, Vec<u8>, Flight)> = VecDeque::with_capacity(fanout);
        let mut parked = Vec::new();
        // A shard whose ack was just read and whose share has chunks left.
        let mut resume = None;
        loop {
            let next = resume
                .take()
                .or_else(|| (flights.len() < fanout).then(|| queue.next()).flatten());
            if let Some(shard) = next {
                let (share, from) = (&shares[shard as usize], acked[shard as usize]);
                let end = share.len().min(from + chunk);
                let payload = wire::submit_payload(share[from..end].iter().copied());
                match self.dispatch(shard, &payload) {
                    Ok(flight) => flights.push_back((shard, payload, flight)),
                    Err(error) => {
                        rows[shard as usize].error = Some(error);
                        parked.push(shard);
                    }
                }
                continue;
            }
            let Some((shard, payload, flight)) = flights.pop_front() else {
                break;
            };
            let (outcome, _) = self.complete(shard, &payload, flight, &decode);
            let (row, share) = (&mut rows[shard as usize], &shares[shard as usize]);
            match outcome.settle(shard) {
                Ok(Ok((accepted, rejected))) => {
                    row.accepted += accepted;
                    row.rejected += rejected;
                    let offset = &mut acked[shard as usize];
                    *offset = share.len().min(*offset + chunk);
                    if *offset < share.len() {
                        resume = Some(shard);
                    }
                }
                Ok(Err(outage)) => {
                    row.error = Some(outage.error);
                    parked.push(shard);
                }
                Err(fatal) => row.error = Some(fatal.to_string()),
            }
        }
        parked.sort_unstable();
        parked
    }

    /// Executes a compiled [`TermPlan`] across the cluster — the one
    /// distributed query path every family routes through. Each shard
    /// counts the plan's deduplicated terms in a single generic
    /// `PartialTermCounts` round trip, all shards' requests in flight at
    /// once; the router merges the integer counts in shard order,
    /// inverts once per term, and runs the plan's post-combination
    /// exactly as the single-node engine would. One nonce covers the
    /// whole logical query, so per-shard retries never double-charge
    /// the analyst.
    ///
    /// # Errors
    ///
    /// All-shards-down, refusals, or estimation failure (a term whose
    /// merged population is zero — no responding shard holds records
    /// for its subset).
    pub fn execute_plan(&mut self, plan: &TermPlan) -> Result<ClusterPlanAnswer, ClusterError> {
        let p = self.bias()?;
        let (_, _, scattered) = self.scatter_plan(plan, false);
        let (gathered, outages) = scattered?;
        let counts = gathered
            .into_iter()
            .map(|(shard, (counts, _))| (shard, counts))
            .collect();
        self.merge_plan_counts(plan, p, counts, outages)
    }

    /// The scatter half of a plan query, shared by the plain and
    /// profiled paths: one nonce, one `PartialTermCounts` frame to every
    /// shard, and the per-query trace record. Returns the nonce, the
    /// per-shard stamps and the gathered counts.
    fn scatter_plan(
        &mut self,
        plan: &TermPlan,
        profile: bool,
    ) -> (u64, Vec<Stamp>, Result<Gathered<PlanCounts>, ClusterError>) {
        let nonce = next_nonce();
        let request = Request::PartialTermCounts {
            terms: plan.terms().to_vec(),
            nonce,
            profile,
        };
        let started = Instant::now();
        let replies = self.broadcast(&request, |resp| match resp {
            Response::PartialTermCounts(counts, trace) => Some((counts, trace)),
            _ => None,
        });
        let elapsed = started.elapsed();
        let stamps: Vec<Stamp> = replies.iter().map(|&(stamp, _)| stamp).collect();
        let outcome = Self::gather(replies);
        self.observe_plan_scatter(nonce, plan.terms().len(), elapsed, &stamps, &outcome);
        (nonce, stamps, outcome)
    }

    /// The merge half of a plan scatter, shared verbatim by the plain
    /// and profiled paths so profiling cannot perturb a single float
    /// operation: absorb integer counts in ascending shard order,
    /// invert once per term, replay the plan's combination order.
    fn merge_plan_counts(
        &self,
        plan: &TermPlan,
        p: f64,
        gathered: Vec<(u32, Vec<QueryCounts>)>,
        outages: Vec<ShardOutage>,
    ) -> Result<ClusterPlanAnswer, ClusterError> {
        let expected = plan.terms().len();
        let mut acc = PlanAccumulator::for_plan(plan);
        let mut responding = Vec::with_capacity(gathered.len());
        for (shard, counts) in gathered {
            // A reply of the wrong shape is a protocol violation, not an
            // empty share — merging a default would silently drop the
            // shard's population from a "complete" answer.
            if counts.len() != expected {
                return Err(ClusterError::Estimation(psketch_core::Error::Codec {
                    reason: format!(
                        "shard {shard} answered {} counts to a {expected}-term plan",
                        counts.len()
                    ),
                }));
            }
            let pairs: Vec<(u64, u64)> = counts.iter().map(|c| (c.ones, c.population)).collect();
            acc.absorb(&pairs)?;
            responding.push(shard);
        }
        let term_estimates = acc.finish(p)?;
        let outputs = plan.evaluate(&term_estimates)?;
        let coverage = self.coverage(responding, outages, acc.max_population());
        Ok(ClusterPlanAnswer {
            outputs,
            term_estimates,
            coverage,
        })
    }

    /// As [`Router::execute_plan`] with profiling: every shard times its
    /// own pipeline (wire `profile` flag) and the router stitches the
    /// returned subtrees into one waterfall under a `router:plan` root —
    /// `router:scatter` holds one `shard:<id>` wrapper per responding
    /// shard, spanning request written → reply read, whose only child
    /// is the shard's own span tree, so the wrapper's *self* time is the
    /// network + queue + framing gap no single node can see. Replies
    /// are read in shard order, so a reply that waited behind an earlier
    /// shard's read is over-timed by at most that wait. `router:merge`
    /// times the count merge, inversion, and plan evaluation. The answer
    /// is **bit-identical** to the unprofiled path: the scatter carries
    /// the same frames plus one flag byte, and the merge runs the same
    /// code on the same integers.
    ///
    /// # Errors
    ///
    /// As [`Router::execute_plan`].
    pub fn explain_plan(&mut self, plan: &TermPlan) -> Result<ClusterExplain, ClusterError> {
        let overall = Instant::now();
        let p = self.bias()?;
        let scatter_started = Instant::now();
        let (nonce, stamps, scattered) = self.scatter_plan(plan, true);
        let scatter_elapsed = scatter_started.elapsed();
        let (gathered, outages) = scattered?;
        let mut counts = Vec::with_capacity(gathered.len());
        let mut subtrees = Vec::with_capacity(gathered.len());
        for (shard, (shard_counts, subtree)) in gathered {
            counts.push((shard, shard_counts));
            subtrees.push((shard, subtree));
        }
        let merge_started = Instant::now();
        let answer = self.merge_plan_counts(plan, p, counts, outages)?;
        let merge_elapsed = merge_started.elapsed();

        let since = |at: Instant| dur_ns(at.duration_since(overall));
        let mut scatter_span = SpanNode::new(
            "router:scatter",
            since(scatter_started),
            dur_ns(scatter_elapsed),
        );
        for (shard, subtree) in subtrees {
            let Some(stamp) = stamps.iter().find(|s| s.shard == shard) else {
                continue;
            };
            let (sent, rtt) = stamp.exchange.unwrap_or((scatter_started, Duration::ZERO));
            let mut wrapper = SpanNode::new(format!("shard:{shard}"), since(sent), dur_ns(rtt));
            // `attempt=3` had two transport failures behind its round trip.
            wrapper
                .attrs
                .push(("attempt".into(), u64::from(stamp.attempts)));
            // A shard that skipped profiling (e.g. served the retry from
            // its replay cache) contributes a childless wrapper: the
            // round trip is still attributed, just not broken down.
            if let Some(tree) = subtree {
                wrapper.children.push(tree);
            }
            scatter_span.children.push(wrapper);
        }
        let merge_span = SpanNode::new("router:merge", since(merge_started), dur_ns(merge_elapsed));
        let mut root = SpanNode::new("router:plan", 0, dur_ns(overall.elapsed()));
        root.attrs.push(("terms".into(), plan.terms().len() as u64));
        root.attrs
            .push(("shards".into(), answer.coverage.responding.len() as u64));
        root.children.push(scatter_span);
        root.children.push(merge_span);
        Ok(ClusterExplain {
            answer,
            trace: root,
            nonce,
        })
    }

    /// Fetches a recently profiled query's span subtree from every
    /// shard's recent-trace ring by nonce. Shards that never profiled
    /// the nonce (or have since evicted it) report `None`; unreachable
    /// shards appear as outages.
    ///
    /// # Errors
    ///
    /// All-shards-down, refusals, misrouted nodes.
    #[allow(clippy::type_complexity)]
    pub fn trace(
        &mut self,
        nonce: u64,
    ) -> Result<(Vec<(u32, Option<SpanNode>)>, Vec<ShardOutage>), ClusterError> {
        let replies = self.broadcast(&Request::Trace { nonce }, |resp| match resp {
            Response::Trace(tree) => Some(tree),
            _ => None,
        });
        Self::gather(replies)
    }

    /// Emits the per-query trace record for a plan scatter: a DEBUG
    /// line always (filter permitting), plus — past the configured
    /// [`RouterConfig::slow_query_ms`] threshold — one WARN with the
    /// per-shard request-written → reply-read breakdown and
    /// slowest-shard attribution, all correlated by the query nonce.
    fn observe_plan_scatter<T>(
        &self,
        nonce: u64,
        terms: usize,
        elapsed: Duration,
        stamps: &[Stamp],
        outcome: &Result<Gathered<T>, ClusterError>,
    ) {
        obs::counter("psketch_router_plans_total", &[]).inc();
        let slow = self
            .config
            .slow_query_ms
            .is_some_and(|threshold_ms| elapsed.as_millis() >= u128::from(threshold_ms));
        let level = if slow {
            obs::log::Level::Warn
        } else {
            obs::log::Level::Debug
        };
        if !obs::log::enabled(level, "psketch::router::query") {
            return;
        }
        let rtts: Vec<(u32, Duration)> = stamps
            .iter()
            .filter_map(|s| Some((s.shard, s.exchange?.1)))
            .collect();
        let breakdown = rtts
            .iter()
            .map(|(shard, rtt)| format!("{shard}:{}us", rtt.as_micros()))
            .collect::<Vec<_>>()
            .join(" ");
        let slowest = rtts.iter().max_by_key(|&&(_, rtt)| rtt);
        let mut event = obs::log::event(level, "psketch::router::query")
            .trace(nonce)
            .field("terms", terms)
            .field("elapsed_us", elapsed.as_micros())
            .field("shards", breakdown)
            .field(
                "outcome",
                match outcome {
                    Ok((_, outages)) if outages.is_empty() => "complete".to_string(),
                    Ok((_, outages)) => format!("degraded({} missing)", outages.len()),
                    Err(e) => format!("error({e})"),
                },
            );
        if let Some(&(shard, rtt)) = slowest {
            event = event
                .field("slowest_shard", shard)
                .field("slowest_us", rtt.as_micros());
        }
        event.emit(if slow { "slow query" } else { "plan scatter" });
    }

    /// Sweeps every shard for coordinator + server stats (two scatter
    /// rounds), refreshing the per-shard population cache used for
    /// degraded-answer reporting.
    ///
    /// Unreachable shards appear with their error instead of counters —
    /// a status sweep never fails outright unless *all* shards are down.
    ///
    /// # Errors
    ///
    /// All-shards-down, refusals, misrouted nodes.
    pub fn status(&mut self) -> Result<ClusterStatus, ClusterError> {
        let replies = self.broadcast(&Request::Stats, |resp| match resp {
            Response::Stats(stats) => Some(stats),
            _ => None,
        });
        let (coordinators, mut outages) = Self::gather(replies)?;
        let payload = Request::ServerStats.encode();
        let targets: Vec<(u32, &[u8])> = coordinators
            .iter()
            .map(|&(shard, _)| (shard, payload.as_slice()))
            .collect();
        let replies = self.scatter(&targets, |resp| match resp {
            Response::ServerStats(stats) => Some(stats),
            _ => None,
        });
        let mut per_shard: Vec<ShardStatus> = Vec::with_capacity(self.map.len());
        let mut merged = CoordinatorStats::default();
        let mut merged_server = ServerStats::default();
        // Replies follow `targets` in order; only a fatal outcome, which
        // returns here, cuts them short.
        for ((shard, coordinator), reply) in coordinators.into_iter().zip(replies) {
            let server = match reply.1.settle(shard)? {
                Ok(server) => server,
                Err(outage) => {
                    outages.push(outage);
                    continue;
                }
            };
            self.known_users[shard as usize] = Some(coordinator.accepted);
            merged.merge(&coordinator);
            merged_server.merge(&server);
            per_shard.push(ShardStatus {
                shard,
                addr: self.map.addr_of(shard).to_string(),
                status: Ok((coordinator, server)),
            });
        }
        if per_shard.is_empty() {
            outages.sort_by_key(|o| o.shard);
            return Err(ClusterError::AllShardsDown(outages));
        }
        for outage in outages {
            per_shard.push(ShardStatus {
                shard: outage.shard,
                addr: self.map.addr_of(outage.shard).to_string(),
                status: Err(outage.error),
            });
        }
        per_shard.sort_by_key(|s| s.shard);
        Ok(ClusterStatus {
            per_shard,
            merged,
            merged_server,
        })
    }

    /// Gathers every shard's metrics-registry snapshot and merges them
    /// in ascending shard order (the merge is order-insensitive —
    /// counters sum, gauges keep the max, histograms add bucket-wise —
    /// so any order yields bit-identical buckets). Unreachable shards
    /// are reported alongside, like a status sweep.
    ///
    /// # Errors
    ///
    /// All-shards-down, refusals, misrouted nodes.
    pub fn metrics(&mut self) -> Result<(RegistrySnapshot, Vec<ShardOutage>), ClusterError> {
        let replies = self.broadcast(&Request::Metrics, |resp| match resp {
            Response::Metrics(snap) => Some(snap),
            _ => None,
        });
        let (gathered, outages) = Self::gather(replies)?;
        let mut merged = RegistrySnapshot::default();
        for (_, snap) in gathered {
            merged.merge(&snap);
        }
        Ok((merged, outages))
    }

    /// Pings every shard; returns the set of unreachable shards.
    ///
    /// # Errors
    ///
    /// Refusals and misrouted nodes only (a fully down cluster is a
    /// full outage list, not an error).
    pub fn ping(&mut self) -> Result<Vec<ShardOutage>, ClusterError> {
        let replies = self.broadcast(&Request::Ping, |resp| match resp {
            Response::Pong => Some(()),
            _ => None,
        });
        match Self::gather(replies) {
            Ok((_, outages)) => Ok(outages),
            Err(ClusterError::AllShardsDown(outages)) => Ok(outages),
            Err(e) => Err(e),
        }
    }
}

/// Ingests a submission set into the cluster `map` describes: a fresh
/// [`Router`] over `map` with `timeout`, `chunk`-submission frames and
/// no retries, streaming through [`Router::submit_batch`]. Each shard's
/// outcome is reported independently, so a shard that fails mid-batch
/// costs only its own submissions and the caller can see exactly which
/// users need re-submission. Every connection first checks, by
/// `Hello`, that the node serves the shard the map says
/// ([`ShardMap::admits`]); a node that does not is sent nothing, and
/// its row carries the misrouted error. A map the router refuses puts
/// that error in every row.
#[must_use]
pub fn parallel_ingest(
    map: &ShardMap,
    subs: &[Submission],
    timeout: Duration,
    chunk: usize,
) -> ClusterSubmitReport {
    let config = RouterConfig {
        timeout,
        submit_chunk: chunk,
        retries: 0,
        ..RouterConfig::default()
    };
    Router::new(map.clone(), config)
        .and_then(|mut router| router.submit_batch(subs))
        .unwrap_or_else(|e| {
            let rows = (0..map.len() as u32)
                .map(|shard| ShardIngest {
                    shard,
                    submitted: subs
                        .iter()
                        .filter(|s| map.shard_of(s.user) == shard)
                        .count(),
                    error: Some(e.to_string()),
                    ..ShardIngest::default()
                })
                .collect();
            ClusterSubmitReport::from_rows(rows)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_caps_instead_of_overflowing() {
        let base = Duration::from_millis(50);
        // The old `base * (1 << (attempt - 1))` panicked at attempt 33
        // (u32 shift overflow) and could overflow the Duration multiply
        // well before that. The capped delay must stay monotone and
        // bounded for any attempt.
        assert_eq!(backoff_delay(base, 1), base);
        assert_eq!(backoff_delay(base, 2), base * 2);
        assert_eq!(backoff_delay(base, 5), base * 16);
        assert_eq!(backoff_delay(base, 10), base * 512); // 25.6s, under the cap
        assert_eq!(backoff_delay(base, 11), MAX_BACKOFF); // 51.2s, capped
        let mut last = Duration::ZERO;
        for attempt in 1..=u32::from(u16::MAX) {
            let d = backoff_delay(base, attempt);
            assert!(d <= MAX_BACKOFF, "attempt {attempt} exceeded the cap");
            assert!(d >= last, "attempt {attempt} shrank the delay");
            last = d;
        }
        assert_eq!(backoff_delay(base, 32), MAX_BACKOFF);
        assert_eq!(backoff_delay(base, u32::MAX), MAX_BACKOFF);
        // Huge bases saturate instead of panicking.
        assert_eq!(backoff_delay(Duration::MAX, 31), MAX_BACKOFF);
        // A zero base ("never sleep") stays zero at every attempt,
        // including past the point where the shift factor saturates.
        assert_eq!(backoff_delay(Duration::ZERO, 8), Duration::ZERO);
        assert_eq!(backoff_delay(Duration::ZERO, 33), Duration::ZERO);
        assert_eq!(backoff_delay(Duration::ZERO, u32::MAX), Duration::ZERO);
    }

    #[test]
    fn a_router_config_with_huge_retries_is_usable() {
        // Constructing a router with retries ≥ 32 must not be a latent
        // panic; the backoff schedule it implies is finite and capped.
        let config = RouterConfig {
            retries: 64,
            backoff: Duration::from_secs(20),
            ..RouterConfig::default()
        };
        for attempt in 1..=config.retries {
            assert!(backoff_delay(config.backoff, attempt) <= MAX_BACKOFF);
        }
    }
}

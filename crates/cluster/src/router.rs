//! The cluster router: **parallel** scatter-gather over shard nodes.
//!
//! A [`Router`] owns one long-lived worker thread per shard. Each
//! worker holds that shard's persistent connection (lazily opened,
//! hello handshake verified against the [`ShardMap`]) and executes the
//! operations the router feeds it over a channel — so a query's
//! per-shard round trips run **concurrently**, and per-shard scan work
//! (which shrinks as `1/N`) actually buys wall-clock throughput
//! instead of being serialized behind one mutable connection.
//!
//! The router serves the same analyst surface a single node does —
//! **any compiled [`TermPlan`]**, which covers every query family
//! (conjunctions, DNF, intervals, means, moments, trees, histograms,
//! linear combinations) — plus ingest and status, by **merging exact
//! partial counts** instead of estimates:
//!
//! 1. every shard answers one generic `PartialTermCounts` frame with
//!    integer `(ones, population)` counts for the plan's deduplicated
//!    terms (a shard holding none of a subset's records reports
//!    `(0, 0)`);
//! 2. the router sums them ([`PlanAccumulator`]) — integer addition,
//!    exact in any order, and merged **in ascending shard order**
//!    regardless of which worker finished first;
//! 3. the Algorithm 2 float inversion runs **once per term**, on the
//!    merged sums, via the same [`psketch_core::Estimate::from_counts`]
//!    a single node uses, and [`TermPlan::evaluate`] replays the
//!    compiler's combination order.
//!
//! Cluster answers are therefore bit-identical to a single node holding
//! the union of the records — and bit-identical at every
//! [`RouterConfig::fanout`], because parallelism only changes *when*
//! a shard's counts arrive, never the order they are merged in (the
//! property tests in this crate pin both down, family by family).
//!
//! # Failure handling
//!
//! Transport failures are retried per shard with **capped** exponential
//! backoff ([`backoff_delay`]); retries on different shards run in
//! parallel, so one slow shard no longer stalls the others' attempts.
//! A shard that stays unreachable is reported as **missing** in the
//! answer's [`Coverage`] rather than silently skewing `r'`: the
//! estimate then covers exactly the responding shards' population, and
//! the caller can see which shards — and, when a prior
//! [`Router::status`] sweep recorded their size, what fraction of the
//! known user population — the answer excludes.
//!
//! Deterministic server refusals (budget exhausted, malformed query)
//! are never retried and fail the whole query. When several shards
//! fail fatally in the same round — two refuse concurrently, or one
//! refuses while another turns out misrouted — the router stops
//! dispatching further shards, waits for the in-flight ones, and
//! reports the fatal outcome of the **lowest-numbered** shard, so
//! concurrent failures surface exactly as they would under the old
//! sequential visit order.
//!
//! # Retry correctness
//!
//! Every query scatter mints one request nonce
//! ([`psketch_server::next_nonce`]) per logical query and replays it on
//! every retry, so a server that already charged the analyst's
//! ε-ledger before the transport died serves the retry **without a
//! second charge** (wire protocol v4 charge-once semantics).

use crate::shard::{ShardMap, ShardMapError};
use psketch_core::{BitString, BitSubset, ConjunctiveQuery, Estimate};
use psketch_obs::{self as obs, RegistrySnapshot, SpanNode};
use psketch_protocol::{Announcement, CoordinatorStats, QueryCounts, ShardIdentity, Submission};
use psketch_queries::{LinearAnswer, LinearQuery, PlanAccumulator, TermPlan};
use psketch_server::{next_nonce, Client, ClientError, ServerStats, MAX_PLAN_TERMS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Backoff ceiling: however many retries are configured, no single
/// sleep exceeds this.
pub const MAX_BACKOFF: Duration = Duration::from_secs(30);

/// Widest subset [`Router::distribution`] accepts: `2^16` terms is
/// exactly the nodes' plan cap ([`MAX_PLAN_TERMS`]).
pub const MAX_DISTRIBUTION_BITS: usize = MAX_PLAN_TERMS.trailing_zeros() as usize;

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
    /// Connect/read/write timeout for every shard connection.
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
    /// Maximum shard operations in flight at once. `0` (the default)
    /// fans out to every shard concurrently; `1` degrades to the old
    /// sequential visit order (useful as a latency/answer oracle).
    /// Answers are bit-identical at every fanout.
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

/// A cluster conjunctive answer: the merged estimate plus coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEstimate {
    /// The merged estimate (bit-identical to a single node over the
    /// responding shards' records).
    pub estimate: Estimate,
    /// Which shards the answer covers.
    pub coverage: Coverage,
}

/// A cluster distribution answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterDistribution {
    /// Per-value merged estimates, indexed by the LSB-first integer
    /// encoding of the value.
    pub estimates: Vec<Estimate>,
    /// Which shards the answer covers.
    pub coverage: Coverage,
}

/// A cluster linear-query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterLinear {
    /// The merged answer.
    pub answer: LinearAnswer,
    /// Which shards the answer covers.
    pub coverage: Coverage,
}

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

/// The outcome of a cluster batch submission.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterSubmitReport {
    /// Submissions accepted across all shards.
    pub accepted: u64,
    /// Submissions rejected (malformed or duplicate) across all shards.
    pub rejected: u64,
    /// `(shard, submissions not ingested, error)` for shards that
    /// stayed unreachable; their users were **not** durably submitted.
    pub failed: Vec<(u32, usize, String)>,
}

impl ClusterSubmitReport {
    /// Whether every submission reached its shard.
    #[must_use]
    pub fn fully_ingested(&self) -> bool {
        self.failed.is_empty()
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
    /// A distribution subset wider than [`MAX_DISTRIBUTION_BITS`]: its
    /// `2^k` terms would exceed the nodes' plan cap, so the plan is
    /// never compiled.
    DistributionTooWide {
        /// The subset's width in bits.
        width: usize,
    },
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
            Self::DistributionTooWide { width } => write!(
                f,
                "distribution over a {width}-bit subset exceeds the \
                 {MAX_DISTRIBUTION_BITS}-bit cap ({MAX_PLAN_TERMS} terms per plan)"
            ),
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

/// One shard operation, boxed for the worker channel. `FnMut` because
/// the retry loop re-invokes it after reconnecting.
type ShardOp<T> = Box<dyn FnMut(&mut Client) -> Result<T, ClientError> + Send>;

/// A job posted to a shard worker.
type Job = Box<dyn FnOnce(&mut ShardConn) + Send>;

/// Reports a shard outcome even if the operation panics: while armed,
/// dropping the reporter (unwinding included) sends a `Down` outcome so
/// [`Router::run_on_shards`] can never hang on a lost result.
struct PanicReporter<T> {
    tx: mpsc::Sender<(u32, ShardAttempt<T>)>,
    shard: u32,
    /// The logical query's trace id, when the operation carries one.
    trace: Option<u64>,
    armed: bool,
}

impl<T> Drop for PanicReporter<T> {
    fn drop(&mut self) {
        if self.armed {
            // A panic silently becoming a `Down` outcome is exactly the
            // failure an operator can't diagnose from coverage alone —
            // leave a structured record before degrading.
            let mut event = obs::log::error("psketch::router").field("shard", self.shard);
            if let Some(trace) = self.trace {
                event = event.trace(trace);
            }
            event.emit("shard operation panicked; degrading shard to Down");
            obs::counter("psketch_router_panics_total", &[]).inc();
            let _ = self.tx.send((
                self.shard,
                ShardAttempt::Down("shard operation panicked".into()),
            ));
        }
    }
}

/// Connection-owning retry parameters, copied per shard worker.
#[derive(Clone)]
struct RetryConfig {
    timeout: Duration,
    retries: u32,
    backoff: Duration,
    analyst: u64,
}

/// One shard's connection state, owned by its worker thread. The
/// connection persists across operations and is reopened (with a fresh
/// hello handshake) after transport failures.
struct ShardConn {
    addr: String,
    /// The identity the map expects behind `addr`.
    expected: ShardIdentity,
    /// Whether an unsharded node is acceptable (single-entry maps).
    standalone_ok: bool,
    retry: RetryConfig,
    client: Option<Client>,
}

impl ShardConn {
    /// Ensures a verified connection, running the hello handshake on
    /// fresh connects.
    fn ensure(&mut self) -> Result<&mut Client, ShardAttempt<()>> {
        if self.client.is_none() {
            let mut client = Client::connect(self.addr.as_str(), self.retry.timeout)
                .map_err(|e| ShardAttempt::Down(e.to_string()))?;
            let identity = match client.hello(self.retry.analyst) {
                Ok(identity) => identity,
                Err(ClientError::Server { code, message }) => {
                    return Err(ShardAttempt::Refused { code, message });
                }
                Err(e) => return Err(ShardAttempt::Down(e.to_string())),
            };
            match identity {
                Some(found) if found == self.expected => {}
                // A standalone node is acceptable only as a 1-shard map.
                None if self.standalone_ok => {}
                other => return Err(ShardAttempt::Misrouted(other)),
            }
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("connection just ensured"))
    }

    /// Runs one operation with retry + capped backoff. Transport
    /// failures retry (reconnecting each time); server error frames
    /// don't.
    fn run<T>(&mut self, op: &mut ShardOp<T>) -> ShardAttempt<T> {
        let mut last_err = String::from("no connection attempt made");
        for attempt in 0..=self.retry.retries {
            if attempt > 0 {
                let delay = backoff_delay(self.retry.backoff, attempt);
                obs::counter("psketch_router_retries_total", &[]).inc();
                obs::histogram("psketch_router_backoff_sleep_nanos", &[])
                    .record(u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX));
                std::thread::sleep(delay);
            }
            let client = match self.ensure() {
                Ok(client) => client,
                Err(ShardAttempt::Down(e)) => {
                    last_err = e;
                    continue;
                }
                Err(ShardAttempt::Refused { code, message }) => {
                    return ShardAttempt::Refused { code, message };
                }
                Err(ShardAttempt::Misrouted(found)) => return ShardAttempt::Misrouted(found),
                Err(ShardAttempt::Ok(())) => unreachable!("ensure never yields Ok"),
            };
            match op(client) {
                Ok(value) => return ShardAttempt::Ok(value),
                Err(ClientError::Server { code, message })
                    if code == psketch_server::wire::codes::RETRY_PENDING =>
                {
                    // Transient by contract: our own earlier attempt's
                    // evaluation is still running server-side and its
                    // answer will be cached. The exchange completed, so
                    // the connection stays healthy — just retry.
                    last_err = message;
                }
                Err(ClientError::Server { code, message }) => {
                    return ShardAttempt::Refused { code, message };
                }
                Err(e) => {
                    // The connection is poisoned or gone; reconnect on
                    // the next attempt.
                    last_err = e.to_string();
                    self.client = None;
                }
            }
        }
        ShardAttempt::Down(last_err)
    }
}

/// A long-lived worker thread owning one shard's connection. Jobs
/// arrive over the channel; dropping the sender shuts the worker down
/// (its connection closes with it).
struct ShardWorker {
    tx: Option<mpsc::Sender<Job>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ShardWorker {
    fn spawn(shard: u32, mut conn: ShardConn) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let handle = std::thread::Builder::new()
            .name(format!("psketch-shard-{shard}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    // A panic in client code must not kill the worker:
                    // the job's own guard reports it as a Down outcome,
                    // the (possibly poisoned) connection is dropped,
                    // and the worker keeps serving later queries.
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        job(&mut conn);
                    }))
                    .is_err()
                    {
                        obs::log::error("psketch::router")
                            .field("shard", shard)
                            .field("addr", conn.addr.as_str())
                            .emit("shard worker caught a panic; dropping its connection");
                        conn.client = None;
                    }
                }
            })
            .expect("spawn shard worker thread");
        Self {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    fn send(&self, job: Job) -> Result<(), ()> {
        self.tx
            .as_ref()
            .expect("worker alive until drop")
            .send(job)
            .map_err(|_| ())
    }
}

impl Drop for ShardWorker {
    fn drop(&mut self) {
        // Close the channel first so the worker's recv loop exits, then
        // join. Workers are idle between router calls, so this does not
        // block on in-flight I/O.
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A parallel scatter-gather router over a shard map.
pub struct Router {
    map: ShardMap,
    config: RouterConfig,
    /// One connection-owning worker per shard, in shard order.
    workers: Vec<ShardWorker>,
    /// Last-known accepted-user count per shard (status sweeps).
    known_users: Vec<Option<u64>>,
    announcement: Option<Announcement>,
    /// Per-shard dispatch→result durations of the most recent scatter
    /// (ascending by shard), for slow-query attribution.
    last_timings: Mutex<Vec<(u32, Duration)>>,
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
    /// Builds a router over a validated map, spawning one (idle) worker
    /// thread per shard. No connections are opened until the first
    /// operation needs them.
    ///
    /// # Errors
    ///
    /// Shard-map validation errors.
    pub fn new(map: ShardMap, config: RouterConfig) -> Result<Self, ClusterError> {
        map.validate()?;
        let n = map.len();
        let retry = RetryConfig {
            timeout: config.timeout,
            retries: config.retries,
            backoff: config.backoff,
            analyst: config.analyst,
        };
        let workers = (0..n as u32)
            .map(|shard| {
                ShardWorker::spawn(
                    shard,
                    ShardConn {
                        addr: map.addr_of(shard).to_string(),
                        expected: ShardIdentity {
                            shard_id: shard,
                            shard_count: n as u32,
                        },
                        standalone_ok: n == 1,
                        retry: retry.clone(),
                        client: None,
                    },
                )
            })
            .collect();
        Ok(Self {
            map,
            config,
            workers,
            known_users: vec![None; n],
            announcement: None,
            last_timings: Mutex::new(Vec::new()),
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

    /// Runs one prepared operation per listed shard **in parallel**
    /// across the shard workers — at most [`RouterConfig::fanout`] in
    /// flight at once — and returns every dispatched shard's outcome in
    /// ascending shard order. Retries (with backoff) happen inside each
    /// worker, so a slow or flapping shard never delays another shard's
    /// attempt.
    ///
    /// Once a **fatal** outcome (refusal, misroute) arrives, no further
    /// shards are dispatched — the operation is doomed, and every extra
    /// dispatch would charge another shard's ε-ledger and burn its
    /// retry schedule for an answer that will be discarded. In-flight
    /// shards are still drained. At `fanout = 1` this reproduces the
    /// old sequential behavior exactly: shards after the first fatal
    /// one are never contacted.
    fn run_on_shards<T: Send + 'static>(
        &self,
        shards: &[u32],
        trace: Option<u64>,
        mut make_op: impl FnMut(u32) -> ShardOp<T>,
    ) -> Vec<(u32, ShardAttempt<T>)> {
        let fanout = self.effective_fanout().max(1);
        let scatter_started = Instant::now();
        let (result_tx, result_rx) = mpsc::channel::<(u32, ShardAttempt<T>)>();
        let mut results: Vec<(u32, ShardAttempt<T>)> = Vec::with_capacity(shards.len());
        let mut dispatched_at: Vec<Option<Instant>> = vec![None; self.map.len()];
        let mut timings: Vec<(u32, Duration)> = Vec::with_capacity(shards.len());
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let mut fatal_seen = false;
        while (next < shards.len() && !fatal_seen) || in_flight > 0 {
            while next < shards.len() && in_flight < fanout && !fatal_seen {
                let shard = shards[next];
                next += 1;
                let mut op = make_op(shard);
                let tx = result_tx.clone();
                let job: Job = Box::new(move |conn| {
                    // If the operation panics, the guard's Drop still
                    // reports an outcome — a panic in client code must
                    // never leave the router waiting forever.
                    let mut guard = PanicReporter {
                        tx,
                        shard,
                        trace,
                        armed: true,
                    };
                    let attempt = conn.run(&mut op);
                    guard.armed = false;
                    // The router may only be draining a fatal result;
                    // a closed channel is fine.
                    let _ = guard.tx.send((shard, attempt));
                });
                // Stamp before the send: a fast shard can answer before
                // `send` returns, and a later stamp would under-time it.
                let dispatched = Instant::now();
                if self.workers[shard as usize].send(job).is_err() {
                    // The worker thread died (it never panics by
                    // design, but don't hang the query if it did).
                    results.push((shard, ShardAttempt::Down("shard worker terminated".into())));
                } else {
                    dispatched_at[shard as usize] = Some(dispatched);
                    in_flight += 1;
                }
            }
            if in_flight > 0 {
                match result_rx.recv() {
                    Ok(result) => {
                        if let Some(started) = dispatched_at[result.0 as usize] {
                            timings.push((result.0, started.elapsed()));
                        }
                        if matches!(result.1, ShardAttempt::Down(_)) {
                            obs::counter("psketch_router_shard_down_total", &[]).inc();
                        }
                        fatal_seen |= matches!(
                            result.1,
                            ShardAttempt::Refused { .. } | ShardAttempt::Misrouted(_)
                        );
                        results.push(result);
                        in_flight -= 1;
                    }
                    Err(_) => break, // unreachable: we hold result_tx
                }
            }
        }
        obs::histogram("psketch_router_scatter_nanos", &[])
            .record_duration(scatter_started.elapsed());
        let attempt_nanos = obs::histogram("psketch_router_shard_attempt_nanos", &[]);
        timings.sort_by_key(|&(shard, _)| shard);
        for &(_, elapsed) in &timings {
            attempt_nanos.record_duration(elapsed);
        }
        *self.last_timings.lock().expect("timing mutex poisoned") = timings;
        // Completion order is nondeterministic; merge order is not.
        results.sort_by_key(|&(shard, _)| shard);
        results
    }

    /// Splits per-shard outcomes into successes and outages, failing
    /// deterministically on fatal outcomes: the scan runs in ascending
    /// shard order, so when several shards fail fatally in one parallel
    /// round the lowest-numbered shard's failure is reported — exactly
    /// what the old sequential visit order produced.
    fn gather<T>(results: Vec<(u32, ShardAttempt<T>)>) -> Result<Gathered<T>, ClusterError> {
        let mut gathered = Vec::new();
        let mut outages = Vec::new();
        for (shard, attempt) in results {
            match attempt {
                ShardAttempt::Ok(value) => gathered.push((shard, value)),
                ShardAttempt::Down(error) => outages.push(ShardOutage { shard, error }),
                ShardAttempt::Refused { code, message } => {
                    return Err(ClusterError::Refused {
                        shard,
                        code,
                        message,
                    });
                }
                ShardAttempt::Misrouted(found) => {
                    return Err(ClusterError::Misrouted { shard, found });
                }
            }
        }
        if gathered.is_empty() {
            return Err(ClusterError::AllShardsDown(outages));
        }
        Ok((gathered, outages))
    }

    /// Scatters one operation over every shard in parallel, gathering
    /// successes and outages. Deterministic refusals and misrouted
    /// nodes abort (lowest shard wins).
    fn scatter<T: Send + 'static>(
        &mut self,
        trace: Option<u64>,
        op: impl Fn(&mut Client) -> Result<T, ClientError> + Send + Sync + 'static,
    ) -> Result<Gathered<T>, ClusterError> {
        let shards: Vec<u32> = (0..self.map.len() as u32).collect();
        let op = Arc::new(op);
        let results = self.run_on_shards(&shards, trace, |_| {
            let op = Arc::clone(&op);
            Box::new(move |client: &mut Client| op(client))
        });
        Self::gather(results)
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

    /// The deployment's announcement: fetched from every shard in
    /// parallel and verified identical across responding shards (the
    /// lowest responding shard is the reference), then cached.
    ///
    /// # Errors
    ///
    /// Transport errors on all shards, or an announcement mismatch.
    pub fn announcement(&mut self) -> Result<Announcement, ClusterError> {
        if let Some(ann) = &self.announcement {
            return Ok(ann.clone());
        }
        let (gathered, _) = self.scatter(None, Client::announcement)?;
        let (first_shard, reference) = &gathered[0];
        debug_assert!(first_shard < &(self.map.len() as u32));
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

    /// Submits a batch, fanned out by each user's shard — all shards in
    /// parallel over the workers' persistent connections. Shards that
    /// stay unreachable are reported in the outcome (those users are
    /// *not* ingested); reachable shards are unaffected.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Refused`] if a shard rejects a batch frame
    /// outright, [`ClusterError::Misrouted`] on map/node disagreement.
    pub fn submit_batch(
        &mut self,
        subs: &[Submission],
    ) -> Result<ClusterSubmitReport, ClusterError> {
        let mut per_shard: Vec<Vec<Submission>> = (0..self.map.len()).map(|_| Vec::new()).collect();
        for sub in subs {
            per_shard[self.map.shard_of(sub.user) as usize].push(sub.clone());
        }
        let chunk = self.config.submit_chunk.max(1);
        let batches: Vec<Option<Arc<Vec<Submission>>>> = per_shard
            .into_iter()
            .map(|batch| (!batch.is_empty()).then(|| Arc::new(batch)))
            .collect();
        let sizes: Vec<usize> = batches
            .iter()
            .map(|b| b.as_ref().map_or(0, |batch| batch.len()))
            .collect();
        let shards: Vec<u32> = batches
            .iter()
            .enumerate()
            .filter_map(|(shard, batch)| batch.as_ref().map(|_| shard as u32))
            .collect();
        let results = self.run_on_shards(&shards, None, |shard| {
            let batch = Arc::clone(batches[shard as usize].as_ref().expect("non-empty batch"));
            // Retries resume after the last acked submission instead of
            // re-sending the whole batch: acked chunks are durable, and
            // re-submitting them would mis-report them as duplicate
            // rejections. Only the chunk whose ack was lost in flight
            // can be double-sent (its users dedup server-side).
            let mut processed = 0usize;
            let mut total = psketch_server::SubmitAck::default();
            Box::new(move |client: &mut Client| {
                let (ack, err) = client.submit_chunked_partial(&batch[processed..], chunk);
                total.accepted += ack.accepted;
                total.rejected += ack.rejected;
                processed += usize::try_from(ack.accepted + ack.rejected).unwrap_or(usize::MAX);
                match err {
                    None => Ok(total),
                    Some(e) => Err(e),
                }
            })
        });
        let mut report = ClusterSubmitReport::default();
        for (shard, attempt) in results {
            match attempt {
                ShardAttempt::Ok(ack) => {
                    report.accepted += ack.accepted;
                    report.rejected += ack.rejected;
                }
                ShardAttempt::Down(error) => {
                    report.failed.push((shard, sizes[shard as usize], error));
                }
                ShardAttempt::Refused { code, message } => {
                    return Err(ClusterError::Refused {
                        shard,
                        code,
                        message,
                    });
                }
                ShardAttempt::Misrouted(found) => {
                    return Err(ClusterError::Misrouted { shard, found });
                }
            }
        }
        Ok(report)
    }

    /// Executes a compiled [`TermPlan`] across the cluster — the one
    /// distributed query path every family routes through. Each shard
    /// counts the plan's deduplicated terms in a single generic
    /// `PartialTermCounts` round trip, all shards concurrently; the
    /// router merges the integer counts in shard order, inverts once
    /// per term, and runs the plan's post-combination exactly as the
    /// single-node engine would. One nonce covers the whole logical
    /// query, so per-shard retries never double-charge the analyst.
    ///
    /// # Errors
    ///
    /// All-shards-down, refusals, or estimation failure (a term whose
    /// merged population is zero — no responding shard holds records
    /// for its subset).
    pub fn execute_plan(&mut self, plan: &TermPlan) -> Result<ClusterPlanAnswer, ClusterError> {
        let p = self.bias()?;
        let terms: Arc<Vec<ConjunctiveQuery>> = Arc::new(plan.terms().to_vec());
        let expected = terms.len();
        let nonce = next_nonce();
        let scatter_started = Instant::now();
        let scattered = self.scatter(Some(nonce), move |client| {
            client.partial_term_counts_nonced(nonce, &terms)
        });
        self.observe_plan_scatter(nonce, expected, scatter_started.elapsed(), &scattered);
        let (gathered, outages) = scattered?;
        self.merge_plan_counts(plan, p, gathered, outages)
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
    /// shard whose duration is the dispatch→result round trip and whose
    /// only child is the shard's own span tree, so the wrapper's *self*
    /// time is the network + queue + framing gap no single node can see;
    /// `router:merge` times the count merge, inversion, and plan
    /// evaluation. The answer is **bit-identical** to the unprofiled
    /// path: the scatter carries the same frames plus one flag byte, and
    /// the merge runs the same code on the same integers.
    ///
    /// # Errors
    ///
    /// As [`Router::execute_plan`].
    pub fn explain_plan(&mut self, plan: &TermPlan) -> Result<ClusterExplain, ClusterError> {
        let overall = Instant::now();
        let p = self.bias()?;
        let terms: Arc<Vec<ConjunctiveQuery>> = Arc::new(plan.terms().to_vec());
        let expected = terms.len();
        let nonce = next_nonce();
        let shards: Vec<u32> = (0..self.map.len() as u32).collect();
        // Per-shard attempt counts: the op runs once per (re)try, so a
        // wrapper showing `attempt=3` had two transport failures behind
        // its round-trip time.
        let attempts: Arc<Vec<AtomicU64>> =
            Arc::new((0..self.map.len()).map(|_| AtomicU64::new(0)).collect());
        let scatter_started = Instant::now();
        let results = self.run_on_shards(&shards, Some(nonce), |shard| {
            let terms = Arc::clone(&terms);
            let attempts = Arc::clone(&attempts);
            Box::new(move |client: &mut Client| {
                // ord: per-shard retry tally read only after join()
                attempts[shard as usize].fetch_add(1, Ordering::Relaxed);
                client.partial_term_counts_traced(nonce, &terms)
            })
        });
        let scatter_elapsed = scatter_started.elapsed();
        let scattered = Self::gather(results);
        self.observe_plan_scatter(nonce, expected, scatter_elapsed, &scattered);
        let (gathered, outages) = scattered?;
        let timings: Vec<(u32, Duration)> = self
            .last_timings
            .lock()
            .expect("timing mutex poisoned")
            .clone();
        let mut counts = Vec::with_capacity(gathered.len());
        let mut subtrees = Vec::with_capacity(gathered.len());
        for (shard, (shard_counts, subtree)) in gathered {
            counts.push((shard, shard_counts));
            subtrees.push((shard, subtree));
        }
        let merge_started = Instant::now();
        let answer = self.merge_plan_counts(plan, p, counts, outages)?;
        let merge_elapsed = merge_started.elapsed();

        let scatter_start_ns = dur_ns(scatter_started.duration_since(overall));
        let mut scatter_span =
            SpanNode::new("router:scatter", scatter_start_ns, dur_ns(scatter_elapsed));
        for (shard, subtree) in subtrees {
            let rpc_ns = timings
                .iter()
                .find(|&&(s, _)| s == shard)
                .map_or(0, |&(_, d)| dur_ns(d));
            let mut wrapper = SpanNode::new(format!("shard:{shard}"), scatter_start_ns, rpc_ns);
            wrapper.attrs.push((
                "attempt".into(),
                // ord: read after the worker joined; join synchronizes
                attempts[shard as usize].load(Ordering::Relaxed),
            ));
            // A shard that skipped profiling (e.g. served the retry from
            // its replay cache) contributes a childless wrapper: the
            // round trip is still attributed, just not broken down.
            if let Some(tree) = subtree {
                wrapper.children.push(tree);
            }
            scatter_span.children.push(wrapper);
        }
        let merge_span = SpanNode::new(
            "router:merge",
            dur_ns(merge_started.duration_since(overall)),
            dur_ns(merge_elapsed),
        );
        let mut root = SpanNode::new("router:plan", 0, dur_ns(overall.elapsed()));
        root.attrs.push(("terms".into(), expected as u64));
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
    /// shard's recent-trace ring by nonce, in parallel. Shards that
    /// never profiled the nonce (or have since evicted it) report
    /// `None`; unreachable shards appear as outages.
    ///
    /// # Errors
    ///
    /// All-shards-down, refusals, misrouted nodes.
    #[allow(clippy::type_complexity)]
    pub fn trace(
        &mut self,
        nonce: u64,
    ) -> Result<(Vec<(u32, Option<SpanNode>)>, Vec<ShardOutage>), ClusterError> {
        self.scatter(Some(nonce), move |client: &mut Client| client.trace(nonce))
    }

    /// Emits the per-query trace record for a plan scatter: a DEBUG
    /// line always (filter permitting), plus — past the configured
    /// [`RouterConfig::slow_query_ms`] threshold — one WARN with the
    /// per-shard dispatch→result breakdown and slowest-shard
    /// attribution, all correlated by the query nonce.
    fn observe_plan_scatter<T>(
        &self,
        nonce: u64,
        terms: usize,
        elapsed: Duration,
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
        let timings = self.last_timings.lock().expect("timing mutex poisoned");
        let breakdown = timings
            .iter()
            .map(|&(shard, d)| format!("{shard}:{}us", d.as_micros()))
            .collect::<Vec<_>>()
            .join(" ");
        let slowest = timings.iter().max_by_key(|&&(_, d)| d).copied();
        drop(timings);
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
        if let Some((shard, d)) = slowest {
            event = event
                .field("slowest_shard", shard)
                .field("slowest_us", d.as_micros());
        }
        event.emit(if slow { "slow query" } else { "plan scatter" });
    }

    /// Estimates one conjunctive frequency (a single-term plan).
    ///
    /// # Errors
    ///
    /// As [`Router::execute_plan`].
    pub fn conjunctive(
        &mut self,
        subset: BitSubset,
        value: BitString,
    ) -> Result<ClusterEstimate, ClusterError> {
        let query = ConjunctiveQuery::new(subset, value).map_err(ClusterError::Estimation)?;
        let answer = self.execute_plan(&TermPlan::for_conjunctive(query))?;
        Ok(ClusterEstimate {
            estimate: answer.term_estimates[0],
            coverage: answer.coverage,
        })
    }

    /// Estimates a full `2^k` distribution (a `2^k`-term plan, indexed
    /// by the LSB-first integer encoding of the value).
    ///
    /// # Errors
    ///
    /// [`ClusterError::DistributionTooWide`] above
    /// [`MAX_DISTRIBUTION_BITS`], before any shard is contacted;
    /// otherwise as [`Router::execute_plan`].
    pub fn distribution(&mut self, subset: BitSubset) -> Result<ClusterDistribution, ClusterError> {
        if subset.len() > MAX_DISTRIBUTION_BITS {
            return Err(ClusterError::DistributionTooWide {
                width: subset.len(),
            });
        }
        let answer = self.execute_plan(&TermPlan::for_distribution(&subset))?;
        Ok(ClusterDistribution {
            estimates: answer.term_estimates,
            coverage: answer.coverage,
        })
    }

    /// Evaluates a linear query (a single-output plan): each shard
    /// counts the query's distinct conjunctive terms in one round trip,
    /// and the merged counts are combined exactly as the single-node
    /// engine would (memoized duplicates, original term order).
    ///
    /// # Errors
    ///
    /// As [`Router::execute_plan`].
    pub fn linear(&mut self, lq: &LinearQuery) -> Result<ClusterLinear, ClusterError> {
        let plan = TermPlan::compile(lq);
        let mut answer = self.execute_plan(&plan)?;
        let output = answer.outputs.remove(0);
        // The binding population for a linear answer is its smallest
        // term's merged sample.
        answer.coverage.population = u64::try_from(output.min_sample_size).unwrap_or(u64::MAX);
        Ok(ClusterLinear {
            answer: output,
            coverage: answer.coverage,
        })
    }

    /// Sweeps every shard (in parallel) for coordinator + server stats,
    /// refreshing the per-shard population cache used for
    /// degraded-answer reporting.
    ///
    /// Unreachable shards appear with their error instead of counters —
    /// a status sweep never fails outright unless *all* shards are down.
    ///
    /// # Errors
    ///
    /// All-shards-down, refusals, misrouted nodes.
    pub fn status(&mut self) -> Result<ClusterStatus, ClusterError> {
        let (gathered, outages) = self.scatter(None, |client: &mut Client| {
            let coordinator = client.stats()?;
            let server = client.server_stats()?;
            Ok((coordinator, server))
        })?;
        let mut per_shard: Vec<ShardStatus> = Vec::with_capacity(self.map.len());
        let mut merged = CoordinatorStats::default();
        let mut merged_server = ServerStats::default();
        for (shard, (coordinator, server)) in gathered {
            self.known_users[shard as usize] = Some(coordinator.accepted);
            merged.merge(&coordinator);
            merged_server.merge(&server);
            per_shard.push(ShardStatus {
                shard,
                addr: self.map.addr_of(shard).to_string(),
                status: Ok((coordinator, server)),
            });
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
        let (gathered, outages) = self.scatter(None, Client::metrics)?;
        let mut merged = RegistrySnapshot::default();
        for (_, snap) in gathered {
            merged.merge(&snap);
        }
        Ok((merged, outages))
    }

    /// Pings every shard in parallel; returns the set of unreachable
    /// shards.
    ///
    /// # Errors
    ///
    /// Refusals and misrouted nodes only (a fully down cluster is a
    /// full outage list, not an error).
    pub fn ping(&mut self) -> Result<Vec<ShardOutage>, ClusterError> {
        match self.scatter(None, Client::ping) {
            Ok((_, outages)) => Ok(outages),
            Err(ClusterError::AllShardsDown(outages)) => Ok(outages),
            Err(e) => Err(e),
        }
    }
}

/// One shard's slice of a [`parallel_ingest`] run. Acks are summed
/// per durably committed chunk, so a shard that died mid-batch still
/// reports what it ingested before the failure — only
/// [`ShardIngest::lost`] submissions need re-submitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardIngest {
    /// The shard this slice routed to.
    pub shard: u32,
    /// Submissions routed to it.
    pub submitted: usize,
    /// Submissions durably accepted (acked chunks survive a later
    /// failure).
    pub accepted: u64,
    /// Submissions rejected as malformed or duplicate.
    pub rejected: u64,
    /// The transport error that stopped this shard's ingest mid-way,
    /// if any; the unacked remainder was **not** durably ingested.
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

/// Per-shard outcomes of a [`parallel_ingest`] run. Shards succeed and
/// fail independently — a failed shard never erases what the others
/// ingested.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// One row per shard, ascending.
    pub shards: Vec<ShardIngest>,
}

impl IngestReport {
    /// Submissions durably accepted across all shards (including the
    /// committed prefix of shards that later failed).
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.shards.iter().map(|s| s.accepted).sum()
    }

    /// Submissions rejected (malformed or duplicate) across all shards.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected).sum()
    }

    /// Submissions lost to shard failures (need re-submission).
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.shards.iter().map(ShardIngest::lost).sum()
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
        Ok((self.accepted(), self.rejected()))
    }
}

/// Ingests a submission set through one independent connection per
/// shard, in parallel — the scale-out ingest path (a [`Router`] reuses
/// per-shard worker connections, which measures steady-state scatter;
/// this spins up fresh connections sized to the batch).
///
/// Every submission is routed by the map's placement hash; chunking
/// bounds frame sizes. Each shard's outcome is reported independently:
/// a shard that fails mid-batch costs only its own submissions, and the
/// caller can see exactly which users need re-submission instead of
/// mistaking a partial ingest for a total failure.
#[must_use]
pub fn parallel_ingest(
    map: &ShardMap,
    subs: &[Submission],
    timeout: Duration,
    chunk: usize,
) -> IngestReport {
    let mut per_shard: Vec<Vec<Submission>> = (0..map.len()).map(|_| Vec::new()).collect();
    for sub in subs {
        per_shard[map.shard_of(sub.user) as usize].push(sub.clone());
    }
    let shards: Vec<ShardIngest> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_shard
            .iter()
            .enumerate()
            .map(|(shard, batch)| {
                let addr = map.addr_of(shard as u32).to_string();
                scope.spawn(move || {
                    if batch.is_empty() {
                        return (psketch_server::SubmitAck::default(), None);
                    }
                    match Client::connect(addr.as_str(), timeout) {
                        Err(e) => (psketch_server::SubmitAck::default(), Some(e.to_string())),
                        Ok(mut client) => {
                            let (ack, err) = client.submit_chunked_partial(batch, chunk.max(1));
                            (ack, err.map(|e| e.to_string()))
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(shard, h)| {
                let (ack, error) = h.join().expect("ingest worker panicked");
                ShardIngest {
                    shard: shard as u32,
                    submitted: per_shard[shard].len(),
                    accepted: ack.accepted,
                    rejected: ack.rejected,
                    error,
                }
            })
            .collect()
    });
    IngestReport { shards }
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

    #[test]
    fn overwide_distributions_are_errors_before_any_scatter() {
        // 2^17 terms could never run on a node; the router refuses the
        // subset before compiling the plan (whose constructor panics
        // past 16 bits) and before contacting the (absent) shard.
        let map = ShardMap::new(0, ["127.0.0.1:9"]).unwrap();
        let mut router = Router::new(map, RouterConfig::default()).unwrap();
        match router.distribution(BitSubset::range(0, 17)) {
            Err(ClusterError::DistributionTooWide { width: 17 }) => {}
            other => panic!("expected DistributionTooWide, got {other:?}"),
        }
        assert_eq!(MAX_DISTRIBUTION_BITS, 16);
    }
}

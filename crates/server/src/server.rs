//! The threaded TCP sketch-pool server.
//!
//! Architecture: one accept thread hands connections to a **fixed pool
//! of worker threads** over a channel; each worker owns one connection
//! at a time and serves its frames until the peer hangs up. A
//! `SubmitBatch` frame body is decoded straight into an
//! [`psketch_protocol::IngestBatch`]'s columns, then logged as received
//! and landed with [`Coordinator::apply_batch`] behind the WAL lock
//! (append → fsync → apply → ack), while queries run off
//! [`psketch_core::SketchDb`] `Arc` snapshots — readers never block
//! writers and a long analyst scan never stalls ingestion.
//!
//! Shutdown is graceful: in-flight requests complete, the read half of
//! every served socket is shut so workers parked on an idle connection
//! wake at once, and the accept thread is woken with a loopback
//! connection so nothing blocks forever.

use crate::wal::{Wal, WalConfig, WalError};
use crate::wire::{self, codes, Request, Response, PROTOCOL_VERSION};
use parking_lot::Mutex;
use psketch_core::{Error, PrivacyAccountant};
use psketch_obs::{self as obs, expose::MetricsExposer, Counter, Histogram, SpanNode};
use psketch_protocol::{Announcement, Coordinator, IngestBatch, QueryCounts, ShardIdentity};
use psketch_queries::QueryEngine;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often an idle worker wakes up to check for shutdown (a fallback:
/// shutdown also ends the blocking reads of every served socket).
const POLL_TICK: Duration = Duration::from_millis(200);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Durability: `Some` opens (or recovers) a WAL-backed store.
    pub wal: Option<WalConfig>,
    /// This node's place in a sharded deployment, reported in the hello
    /// handshake so routers can verify their shard map. `None` for a
    /// standalone server.
    pub shard: Option<ShardIdentity>,
    /// Per-analyst ε-budget enforced at the query boundary (Corollary
    /// 3.4 accounting): each conjunctive estimate served charges one
    /// release at the announcement's bias, and an analyst whose spend
    /// would exceed the budget gets a [`codes::BUDGET`] error frame.
    /// `None` disables accounting.
    pub analyst_budget: Option<f64>,
    /// `Some(addr)` starts a Prometheus-text scrape listener serving
    /// `GET /metrics` from the process-global [`psketch_obs`] registry.
    pub metrics_addr: Option<String>,
    /// `Some(ms)` emits one structured WARN record per request whose
    /// handling took at least this many milliseconds (`0` logs every
    /// request — the CI tracing mode).
    pub slow_query_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            wal: None,
            shard: None,
            analyst_budget: None,
            metrics_addr: None,
            slow_query_ms: None,
        }
    }
}

/// Errors from starting the server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup failure.
    Io(io::Error),
    /// Durability layer failure.
    Wal(WalError),
    /// The announcement failed parameter validation.
    Params(Error),
    /// The WAL store was created under a different announcement than
    /// the one passed in (refusing to mix pools).
    AnnouncementMismatch,
    /// The configured analyst budget is not a positive finite ε.
    InvalidBudget(f64),
    /// The configured shard identity is not a valid `id < count`.
    InvalidShard(ShardIdentity),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "server i/o error: {e}"),
            Self::Wal(e) => write!(f, "{e}"),
            Self::Params(e) => write!(f, "invalid announcement: {e}"),
            Self::AnnouncementMismatch => write!(
                f,
                "store was initialized with a different announcement; \
                 refusing to mix sketch pools"
            ),
            Self::InvalidBudget(eps) => {
                write!(f, "analyst budget {eps} must be a positive finite epsilon")
            }
            Self::InvalidShard(identity) => {
                write!(f, "shard identity {identity} must satisfy id < count")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

/// How many charged nonces each analyst ledger remembers. A replay
/// older than this window is re-charged — the conservative direction:
/// the privacy accounting never under-counts, only a pathologically
/// slow retry pays twice.
const NONCE_WINDOW: usize = 4096;

/// Largest encoded response cached for replay; bigger answers are
/// marked evicted, and their replays re-charge (never under-counting).
const REPLAY_CACHE_ENTRY_BYTES: usize = 2 << 20;

/// Per-analyst ceiling on total cached replay-response bytes; the
/// oldest cached bodies are dropped first (their digests stay, so a
/// late replay re-charges rather than re-executing for free).
const REPLAY_CACHE_TOTAL_BYTES: usize = 16 << 20;

/// Server-wide ceiling on cached replay-response bytes across **all**
/// analysts. Analyst ids are self-declared (no authentication), so
/// without a global cap a client cycling fresh ids could pin a
/// per-analyst cache each and amplify memory without bound. At the
/// cap, new responses are simply not cached (their replays re-charge).
const REPLAY_CACHE_GLOBAL_BYTES: usize = 64 << 20;

/// The response side of a charged nonce.
enum ReplayState {
    /// Charged; the evaluation has not finished (or not yet attached
    /// its response). A replay arriving now is answered with the
    /// transient [`codes::RETRY_PENDING`] error — the charge happened
    /// (so charging again would double-charge) but evaluating again
    /// would release a second, possibly different answer for one
    /// charge. The client retries and finds the cached response.
    Pending,
    /// The charged exchange's encoded response, replayed verbatim
    /// (shared, so serving a replay never copies the body).
    Ready(Arc<[u8]>),
    /// The response was too large, crowded out, or dropped to make
    /// room: a replay now re-charges (never under-counts).
    Evicted,
}

/// One charged nonce: the digest of the exact request bytes it paid
/// for, plus the state of the response that charge bought.
struct NonceEntry {
    digest: u64,
    response: ReplayState,
}

/// What a nonce lookup found.
enum ReplayLookup {
    /// Unknown nonce, digest mismatch, or evicted cache: fresh charge.
    Miss,
    /// Charged, evaluation still in flight: answer `RETRY_PENDING`.
    Pending,
    /// Charged and cached: serve these bytes verbatim.
    Ready(Arc<[u8]>),
}

/// A bounded FIFO map of the nonces an analyst has already been charged
/// for. Each nonce is bound to a digest of the exact request body it
/// paid for **and** to the response that charge produced: a replay is
/// answered from the cache, never by re-executing against a pool that
/// may have grown since — one charge buys exactly one release. The
/// nonce counts as charged from the moment of the charge (not from
/// response completion), so a timeout retry racing the original
/// evaluation can never double-charge; and any digest or cache miss
/// falls back to a fresh charge, so the ledger can never under-count.
#[derive(Default)]
struct NonceWindow {
    seen: HashMap<u64, NonceEntry>,
    order: VecDeque<u64>,
    cached_bytes: usize,
}

impl NonceWindow {
    fn lookup(&self, nonce: u64, digest: u64) -> ReplayLookup {
        match self.seen.get(&nonce) {
            Some(entry) if entry.digest == digest => match &entry.response {
                ReplayState::Pending => ReplayLookup::Pending,
                ReplayState::Ready(bytes) => ReplayLookup::Ready(Arc::clone(bytes)),
                ReplayState::Evicted => ReplayLookup::Miss,
            },
            _ => ReplayLookup::Miss,
        }
    }

    fn release(entry: NonceEntry, global: &AtomicU64) -> usize {
        if let ReplayState::Ready(bytes) = entry.response {
            // ord: advisory byte budget; enforcement is under the per-
            // analyst mutex, the global word only approximates totals
            global.fetch_sub(bytes.len() as u64, Ordering::Relaxed);
            bytes.len()
        } else {
            0
        }
    }

    fn record(&mut self, nonce: u64, digest: u64, global: &AtomicU64) {
        if let Some(old) = self.seen.insert(
            nonce,
            NonceEntry {
                digest,
                response: ReplayState::Pending,
            },
        ) {
            // Nonce reused for a different (re-charged) body: rebound
            // in place, FIFO position unchanged, old cache released.
            self.cached_bytes -= Self::release(old, global);
            return;
        }
        self.order.push_back(nonce);
        if self.order.len() > NONCE_WINDOW {
            if let Some(evicted) = self.order.pop_front() {
                if let Some(old) = self.seen.remove(&evicted) {
                    self.cached_bytes -= Self::release(old, global);
                }
            }
        }
    }

    /// Attaches the encoded response a fresh charge produced, within
    /// the per-entry, per-analyst and server-wide byte budgets; when a
    /// budget refuses, the entry is marked evicted so later replays
    /// re-charge instead of riding free forever.
    fn attach_response(
        &mut self,
        nonce: u64,
        digest: u64,
        encoded: &Arc<[u8]>,
        global: &AtomicU64,
    ) {
        let fits_entry = encoded.len() <= REPLAY_CACHE_ENTRY_BYTES;
        // Make room within the per-analyst budget by dropping the
        // oldest cached bodies (their digests stay).
        while fits_entry && self.cached_bytes + encoded.len() > REPLAY_CACHE_TOTAL_BYTES {
            let Some(&victim) = self.order.iter().find(|n| {
                self.seen
                    .get(n)
                    .is_some_and(|e| matches!(e.response, ReplayState::Ready(_)))
            }) else {
                break;
            };
            if let Some(entry) = self.seen.get_mut(&victim) {
                let old = std::mem::replace(&mut entry.response, ReplayState::Evicted);
                if let ReplayState::Ready(bytes) = old {
                    // ord: advisory byte budget (see `release`)
                    global.fetch_sub(bytes.len() as u64, Ordering::Relaxed);
                    self.cached_bytes -= bytes.len();
                }
            }
        }
        let fits_analyst = self.cached_bytes + encoded.len() <= REPLAY_CACHE_TOTAL_BYTES;
        // ord: advisory byte budget (see `release`)
        let fits_global = global.load(Ordering::Relaxed) + encoded.len() as u64
            <= REPLAY_CACHE_GLOBAL_BYTES as u64;
        if let Some(entry) = self.seen.get_mut(&nonce) {
            if entry.digest == digest && matches!(entry.response, ReplayState::Pending) {
                if fits_entry && fits_analyst && fits_global {
                    // ord: advisory byte budget (see `release`)
                    global.fetch_add(encoded.len() as u64, Ordering::Relaxed);
                    self.cached_bytes += encoded.len();
                    entry.response = ReplayState::Ready(Arc::clone(encoded));
                } else {
                    entry.response = ReplayState::Evicted;
                }
            }
        }
    }
}

/// One analyst's account: the ε accountant plus the nonces it has been
/// charged for.
struct AnalystLedger {
    accountant: PrivacyAccountant,
    nonces: NonceWindow,
}

/// Per-analyst ε ledgers (Corollary 3.4 accounting at the service
/// boundary). Every conjunctive estimate the server computes on an
/// analyst's behalf is one "release" at the announcement's bias; the
/// multiplicative ratio bound is tracked by [`PrivacyAccountant`] and a
/// charge that would exceed the budget is refused *before* the scan.
///
/// Charges are **idempotent per request nonce**: a client that lost its
/// connection after the server charged (but before it read the answer)
/// retries with the same nonce — and the same bytes — and is served the
/// **cached original response** without a second charge or a second
/// evaluation. The nonce is bound to a keyed digest of the request
/// payload, so only a byte-identical replay rides free; a reused nonce
/// carrying a different query is a fresh charge. Nonce `0` is the "no
/// replay identity" sentinel and always charges.
struct BudgetBook {
    epsilon: f64,
    p: f64,
    ledgers: Mutex<HashMap<u64, AnalystLedger>>,
    /// Keys the payload digest (SipHash with per-process random keys):
    /// an analyst cannot construct offline collisions to ride a paid
    /// nonce with a different query body.
    hasher: std::collections::hash_map::RandomState,
    /// Cached replay-response bytes across all analysts (global cap).
    cached_bytes: AtomicU64,
    /// Estimates charged across all analysts (ServerStats surface).
    charged_terms: AtomicU64,
    /// Requests served without a fresh charge (replayed or in-flight
    /// nonces).
    replays: AtomicU64,
    /// Requests refused over budget.
    denials: AtomicU64,
    /// Registry mirrors of the three counters above, cached at
    /// construction so the charge path never takes a registry lock —
    /// budget exhaustion becomes visible on `/metrics` before analysts
    /// start hitting `BUDGET` errors.
    obs_charged_terms: Arc<Counter>,
    obs_replays: Arc<Counter>,
    obs_denials: Arc<Counter>,
}

/// Outcome of a budget gate check, before any evaluation.
enum Charge {
    /// A fresh charge was recorded: evaluate, then hand the encoded
    /// response to [`BudgetBook::attach_response`].
    Evaluate,
    /// Byte-identical replay of a paid request: serve these cached
    /// encoded response bytes verbatim, nothing to evaluate.
    Replay(Arc<[u8]>),
    /// Byte-identical replay of a paid request whose original
    /// evaluation is still in flight: answer the transient
    /// [`codes::RETRY_PENDING`] error (no charge, no evaluation).
    Pending,
}

impl BudgetBook {
    fn new(epsilon: f64, p: f64) -> Self {
        // The per-analyst ε ceiling is a configuration gauge, exported
        // once in micro-ε so the text format stays integral.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        obs::gauge("psketch_budget_epsilon_per_analyst_micro", &[])
            .set((epsilon * 1e6).round().max(0.0) as u64);
        Self {
            epsilon,
            p,
            ledgers: Mutex::new(HashMap::new()),
            hasher: std::collections::hash_map::RandomState::new(),
            cached_bytes: AtomicU64::new(0),
            charged_terms: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            denials: AtomicU64::new(0),
            obs_charged_terms: obs::counter("psketch_budget_charged_terms_total", &[]),
            obs_replays: obs::counter("psketch_budget_replays_total", &[]),
            obs_denials: obs::counter("psketch_budget_denials_total", &[]),
        }
    }

    /// The keyed fingerprint binding a request nonce to its exact
    /// payload bytes.
    fn digest(&self, payload: &[u8]) -> u64 {
        use std::hash::{BuildHasher, Hasher};
        let mut h = self.hasher.build_hasher();
        h.write(payload);
        h.finish()
    }

    fn charge(
        &self,
        analyst: u64,
        estimates: u32,
        nonce: u64,
        digest: u64,
    ) -> Result<Charge, Error> {
        let mut ledgers = self.ledgers.lock();
        let ledger = ledgers.entry(analyst).or_insert_with(|| AnalystLedger {
            accountant: PrivacyAccountant::new(self.p, self.epsilon),
            nonces: NonceWindow::default(),
        });
        if nonce != 0 {
            match ledger.nonces.lookup(nonce, digest) {
                // Already paid for, byte-identical, original response
                // cached: serve that exact response free.
                ReplayLookup::Ready(cached) => {
                    // ord: monotonic stat counter, eventual totals suffice
                    self.replays.fetch_add(1, Ordering::Relaxed);
                    self.obs_replays.inc();
                    return Ok(Charge::Replay(cached));
                }
                // Paid for, but the original evaluation hasn't finished
                // (a timeout retry racing it): charging again would be
                // the exact double-charge this machinery prevents, and
                // evaluating again for free would release a second
                // answer for one charge. Tell the client to retry; the
                // original's cached response will be waiting.
                ReplayLookup::Pending => return Ok(Charge::Pending),
                // Unknown nonce, digest mismatch, or evicted cache:
                // fall through to a fresh charge — dedup must never let
                // a new query, or a late re-evaluation over a grown
                // pool, ride an old charge.
                ReplayLookup::Miss => {}
            }
        }
        match ledger.accountant.charge(estimates) {
            Ok(()) => {
                if nonce != 0 {
                    ledger.nonces.record(nonce, digest, &self.cached_bytes);
                }
                self.charged_terms
                    // ord: monotonic stat counter, eventual totals suffice
                    .fetch_add(u64::from(estimates), Ordering::Relaxed);
                self.obs_charged_terms.add(u64::from(estimates));
                Ok(Charge::Evaluate)
            }
            Err(e) => {
                // ord: monotonic stat counter, eventual totals suffice
                self.denials.fetch_add(1, Ordering::Relaxed);
                self.obs_denials.inc();
                Err(e)
            }
        }
    }

    /// Caches the encoded response a fresh charge produced so replays
    /// of the same `(nonce, digest)` can be served verbatim.
    fn attach_response(&self, analyst: u64, nonce: u64, digest: u64, encoded: &Arc<[u8]>) {
        if nonce == 0 {
            return;
        }
        let mut ledgers = self.ledgers.lock();
        if let Some(ledger) = ledgers.get_mut(&analyst) {
            ledger
                .nonces
                .attach_response(nonce, digest, encoded, &self.cached_bytes);
        }
    }

    fn stats(&self) -> wire::BudgetStats {
        wire::BudgetStats {
            // ord: fuzzy stats snapshot; fields may tear across readers
            charged_terms: self.charged_terms.load(Ordering::Relaxed),
            // ord: fuzzy stats snapshot; fields may tear across readers
            replays: self.replays.load(Ordering::Relaxed),
            // ord: fuzzy stats snapshot; fields may tear across readers
            denials: self.denials.load(Ordering::Relaxed),
        }
    }
}

/// Lock-free per-request-kind counters (the `ServerStats` surface).
struct FrameCounters {
    /// Indexed by request kind byte − 1.
    kinds: [AtomicU64; wire::MAX_REQUEST_KIND as usize],
    /// Frames whose kind could not be trusted (decode failures).
    malformed: AtomicU64,
}

impl FrameCounters {
    fn new() -> Self {
        Self {
            kinds: std::array::from_fn(|_| AtomicU64::new(0)),
            malformed: AtomicU64::new(0),
        }
    }

    fn record(&self, kind: u8) {
        match self.kinds.get(kind.wrapping_sub(1) as usize) {
            // ord: monotonic stat counter; readers only need eventual totals
            Some(counter) if kind >= 1 => counter.fetch_add(1, Ordering::Relaxed),
            // ord: monotonic stat counter; readers only need eventual totals
            _ => self.malformed.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn record_malformed(&self) {
        // ord: monotonic stat counter, eventual totals suffice
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(
        &self,
        uptime: Duration,
        engine: &QueryEngine,
        budget: Option<&BudgetBook>,
    ) -> wire::ServerStats {
        let frames = self
            .kinds
            .iter()
            .enumerate()
            .filter_map(|(i, counter)| {
                // ord: fuzzy stats snapshot, exact counts not needed
                let count = counter.load(Ordering::Relaxed);
                (count > 0).then_some((i as u8 + 1, count))
            })
            .collect();
        let engine_stats = engine.stats();
        wire::ServerStats {
            uptime_secs: uptime.as_secs(),
            frames,
            // ord: fuzzy stats snapshot, exact counts not needed
            malformed: self.malformed.load(Ordering::Relaxed),
            plans: wire::PlanStats {
                plans_executed: engine_stats.plans_executed,
                terms_scanned: engine_stats.terms_scanned,
                terms_reused: engine_stats.terms_reused,
            },
            budget: budget.map(BudgetBook::stats).unwrap_or_default(),
        }
    }
}

/// Shared service state: the live pool plus the query engine and the
/// (optional) durability layer.
struct ServiceState {
    coordinator: Coordinator,
    engine: QueryEngine,
    /// Lock ordering the WAL append and the pool apply of each batch —
    /// a batch is acknowledged only after both. `None` (durability off)
    /// skips the lock entirely: `apply_batch` is internally
    /// synchronized, so concurrent batches then decode in parallel.
    wal: Option<Mutex<Wal>>,
    /// This node's shard identity (hello handshake).
    shard: Option<ShardIdentity>,
    /// Per-analyst ε accounting; `None` disables it.
    budget: Option<BudgetBook>,
    /// Server start time (uptime reporting).
    started: Instant,
    /// Per-frame-kind request counters.
    frames: FrameCounters,
    /// Cached per-kind request latency histograms (index = kind byte −
    /// 1; `None` for retired kind bytes). Registered once at startup so
    /// the hot path is a relaxed `fetch_add`, never a registry lock.
    obs_request_nanos: [Option<Arc<Histogram>>; wire::MAX_REQUEST_KIND as usize],
    /// Cached per-kind request counters, same indexing.
    obs_requests_total: [Option<Arc<Counter>>; wire::MAX_REQUEST_KIND as usize],
    /// Accept-thread-to-worker handoff wait.
    obs_queue_wait_nanos: Arc<Histogram>,
    /// Slow-request WARN threshold ([`ServerConfig::slow_query_ms`]).
    slow_query_ms: Option<u64>,
    /// The sockets workers are serving, for shutdown to wake.
    sockets: OpenSockets,
}

/// Clones of the sockets workers are serving, keyed by a per-connection
/// id, so shutdown can end a worker's blocking read instead of waiting
/// for its next [`POLL_TICK`].
#[derive(Default)]
struct OpenSockets {
    /// The next connection id, and the registered sockets.
    open: Mutex<(u64, HashMap<u64, TcpStream>)>,
}

impl OpenSockets {
    /// Registers a socket about to be served and returns its id; `None`
    /// if the socket cannot be cloned (its worker then notices shutdown
    /// on the poll tick). A socket registered after `close_reads` ran
    /// needs no waking: the shutdown flag was set before that sweep took
    /// the lock, so its worker sees the flag before its first read.
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut open = self.open.lock();
        let id = open.0;
        open.0 += 1;
        open.1.insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.open.lock().1.remove(&id);
    }

    /// Shuts the read half of every registered socket: a worker parked in
    /// a read sees end-of-stream at once, while a response being written
    /// still goes out.
    fn close_reads(&self) {
        for stream in self.open.lock().1.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// Per-connection protocol state, established by the hello handshake.
#[derive(Default)]
struct ConnState {
    /// The analyst this connection acts for; 0 (anonymous) until a
    /// [`Request::Hello`] declares otherwise.
    analyst: u64,
    /// Digest of the frame currently being served (binds its nonce to
    /// its exact body in the ε-ledger's replay window).
    request_digest: u64,
}

/// A running sketch-pool server. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting, drains in-flight requests and
/// joins every thread.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    state: Arc<ServiceState>,
    /// The Prometheus scrape listener, when configured; its own Drop
    /// stops the accept loop.
    exposer: Option<MetricsExposer>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` and starts serving `announcement`'s pool.
    ///
    /// With a WAL configured, previously persisted state is recovered
    /// first: the snapshot is loaded, the log replayed (tolerating a
    /// torn final record), and the server resumes exactly where the
    /// last process stopped. A fresh store is initialized with the
    /// announcement (which becomes the store's identity: restarting
    /// with a different one is refused).
    ///
    /// # Errors
    ///
    /// Socket, WAL recovery, or announcement validation failures.
    pub fn start(
        addr: impl ToSocketAddrs,
        announcement: Announcement,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        let params = announcement.validate().map_err(ServeError::Params)?;
        let announcement_p = announcement.p;
        if let Some(eps) = config.analyst_budget {
            if !(eps.is_finite() && eps > 0.0) {
                return Err(ServeError::InvalidBudget(eps));
            }
        }
        if let Some(identity) = config.shard {
            if identity.shard_id >= identity.shard_count {
                return Err(ServeError::InvalidShard(identity));
            }
        }
        let (wal, coordinator) = match &config.wal {
            Some(wal_config) => {
                let (mut wal, recovered) = Wal::open(wal_config)?;
                let coordinator = match recovered {
                    Some(c) => {
                        if c.announcement() != &announcement {
                            return Err(ServeError::AnnouncementMismatch);
                        }
                        c
                    }
                    None => {
                        wal.record_announcement(&announcement)?;
                        Coordinator::new(announcement)
                    }
                };
                (Some(wal), coordinator)
            }
            None => (None, Coordinator::new(announcement)),
        };
        let kind_label = |i: usize| wire::request_kind_name(u8::try_from(i).unwrap_or(0) + 1);
        let state = Arc::new(ServiceState {
            coordinator,
            engine: QueryEngine::new(params),
            wal: wal.map(Mutex::new),
            shard: config.shard,
            budget: config
                .analyst_budget
                .map(|epsilon| BudgetBook::new(epsilon, announcement_p)),
            started: Instant::now(),
            frames: FrameCounters::new(),
            obs_request_nanos: std::array::from_fn(|i| {
                kind_label(i)
                    .map(|name| obs::histogram("psketch_server_request_nanos", &[("kind", name)]))
            }),
            obs_requests_total: std::array::from_fn(|i| {
                kind_label(i)
                    .map(|name| obs::counter("psketch_server_requests_total", &[("kind", name)]))
            }),
            obs_queue_wait_nanos: obs::histogram("psketch_server_queue_wait_nanos", &[]),
            slow_query_ms: config.slow_query_ms,
            sockets: OpenSockets::default(),
        });

        let exposer = match &config.metrics_addr {
            Some(addr) => Some(MetricsExposer::start(addr)?),
            None => None,
        };

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Connections carry their enqueue instant so workers can report
        // how long accepted connections sat waiting for a free worker.
        let (tx, rx) = mpsc::channel::<(TcpStream, Instant)>();
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || worker_loop(&rx, &state, &shutdown))
            })
            .collect();

        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    // ord: pairs with the AcqRel swap in `shutdown_impl`;
                    // must observe writes that preceded the shutdown
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if tx.send((stream, Instant::now())).is_err() {
                        break;
                    }
                }
                // tx drops here: idle workers see a closed channel.
            })
        };

        if let Some(identity) = config.shard {
            obs::log::info("psketch::server")
                .field("addr", local_addr)
                .field("shard", identity)
                .emit("serving");
        } else {
            obs::log::info("psketch::server")
                .field("addr", local_addr)
                .emit("serving");
        }
        Ok(Self {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            workers,
            state,
            exposer,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live pool's coordinator (for in-process inspection).
    #[must_use]
    pub fn coordinator(&self) -> &Coordinator {
        &self.state.coordinator
    }

    /// Stops accepting, lets in-flight requests finish, joins every
    /// thread. Idempotent via [`Drop`].
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        // ord: release publishes pre-shutdown writes to worker threads;
        // acquire makes the second caller see the first's cleanup
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.state.sockets.close_reads();
        if let Some(exposer) = self.exposer.take() {
            exposer.shutdown();
        }
        // Wake the accept thread: it blocks in accept(), so poke it with
        // a throwaway connection. An unspecified bind address (0.0.0.0,
        // ::) is not connectable everywhere — aim at loopback instead.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let woke = TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok();
        if let Some(t) = self.accept_thread.take() {
            if woke {
                let _ = t.join();
            }
            // If the wake connect failed, the accept thread may stay
            // parked in accept() until the process exits; detach it
            // rather than hanging shutdown. Workers still drain: they
            // poll the shutdown flag on their receive tick.
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn worker_loop(
    rx: &Mutex<mpsc::Receiver<(TcpStream, Instant)>>,
    state: &ServiceState,
    shutdown: &AtomicBool,
) {
    loop {
        // Hold the receiver lock only for the poll itself, so workers
        // take turns pulling connections.
        let conn = rx.lock().recv_timeout(POLL_TICK);
        match conn {
            Ok((stream, enqueued)) => {
                state
                    .obs_queue_wait_nanos
                    .record_duration(enqueued.elapsed());
                let registered = state.sockets.register(&stream);
                let _ = serve_connection(stream, state, shutdown);
                if let Some(id) = registered {
                    state.sockets.deregister(id);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // ord: pairs with the AcqRel swap in `shutdown_impl`
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves one connection until EOF, a fatal I/O error, or shutdown.
fn serve_connection(
    mut stream: TcpStream,
    state: &ServiceState,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_TICK))?;
    let mut conn = ConnState::default();
    loop {
        let Some(len) = read_len_prefix(&mut stream, shutdown)? else {
            return Ok(()); // peer hung up between frames, or shutdown
        };
        if len as usize > wire::MAX_FRAME_BYTES {
            // Unrecoverable: the stream position is ahead of a payload
            // we refuse to read, so answer and hang up.
            state.frames.record_malformed();
            let resp = Response::Error {
                code: codes::MALFORMED,
                message: format!("declared frame length {len} exceeds limit"),
            };
            let _ = wire::write_frame(&mut stream, &resp.encode());
            return Ok(());
        }
        let mut payload = vec![0u8; len as usize];
        read_exact_patient(&mut stream, &mut payload, shutdown)?;
        let bytes: Arc<[u8]> = match handle_frame(state, &mut conn, &payload) {
            Served::Response(response) => response.encode().into(),
            Served::Raw(bytes) => bytes,
        };
        wire::write_frame(&mut stream, &bytes)?;
    }
}

/// Reads the 4-byte length prefix, waking every [`POLL_TICK`] to check
/// for shutdown. `Ok(None)` means clean EOF or shutdown — a peer that
/// stalled mid-prefix cannot wedge shutdown; its half-frame is dropped.
fn read_len_prefix(stream: &mut TcpStream, shutdown: &AtomicBool) -> io::Result<Option<u32>> {
    let mut buf = [0u8; 4];
    let mut filled = 0usize;
    loop {
        // ord: pairs with the AcqRel swap in `shutdown_impl`
        if shutdown.load(Ordering::Acquire) {
            return Ok(None);
        }
        let Some(rest) = buf.get_mut(filled..) else {
            return Err(io::Error::other("length-prefix cursor overran its buffer"));
        };
        match stream.read(rest) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "connection closed mid length prefix",
                    ))
                };
            }
            Ok(n) => {
                filled += n;
                if filled == 4 {
                    return Ok(Some(u32::from_le_bytes(buf)));
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// `read_exact` that tolerates the poll-tick read timeout mid-frame but
/// gives up on shutdown.
fn read_exact_patient(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let mut filled = 0usize;
    while let Some(rest) = buf.get_mut(filled..).filter(|tail| !tail.is_empty()) {
        match stream.read(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "connection closed mid frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                // ord: pairs with the AcqRel swap in `shutdown_impl`
                if shutdown.load(Ordering::Acquire) {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "server shutting down",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn query_error(e: &Error) -> Response {
    Response::Error {
        code: codes::QUERY,
        message: e.to_string(),
    }
}

/// What a frame handler hands back to the connection loop: a response
/// to encode, or pre-encoded bytes (the replay cache serves the charged
/// exchange's original encoding verbatim; shared so replays never copy
/// the body).
enum Served {
    Response(Response),
    Raw(Arc<[u8]>),
}

/// Outcome of the budget gate in front of a charging request.
enum Gate {
    /// Accounting off, or a fresh charge recorded: evaluate.
    Open,
    /// Byte-identical replay: serve the cached bytes, skip evaluation.
    Replay(Arc<[u8]>),
    /// Refuse before any scan (over budget, or a transient
    /// `RETRY_PENDING` while the nonce's original evaluation runs).
    Refuse(Response),
}

/// Runs the budget gate for a charging request. The `(nonce, payload
/// digest)` pair makes the charge idempotent across transport retries
/// of the identical request — replays are served from the response
/// cache, never re-evaluated.
fn charge_budget(state: &ServiceState, conn: &ConnState, estimates: u32, nonce: u64) -> Gate {
    let Some(book) = state.budget.as_ref() else {
        return Gate::Open;
    };
    match book.charge(conn.analyst, estimates, nonce, conn.request_digest) {
        Ok(Charge::Evaluate) => Gate::Open,
        Ok(Charge::Replay(bytes)) => Gate::Replay(bytes),
        Ok(Charge::Pending) => Gate::Refuse(Response::Error {
            code: codes::RETRY_PENDING,
            message: format!(
                "nonce {nonce}: the original request is still being evaluated; \
                 retry for its cached answer"
            ),
        }),
        Err(e) => Gate::Refuse(Response::Error {
            code: codes::BUDGET,
            message: format!("analyst {}: {e}", conn.analyst),
        }),
    }
}

/// Decodes and dispatches one frame. Never panics on client input; all
/// failures become error frames.
fn handle_frame(state: &ServiceState, conn: &mut ConnState, payload: &[u8]) -> Served {
    match wire::frame_version(payload) {
        Ok(v) if v != PROTOCOL_VERSION => {
            state.frames.record_malformed();
            return Served::Response(Response::Error {
                code: codes::UNSUPPORTED_VERSION,
                message: format!("server speaks protocol {PROTOCOL_VERSION}, frame declares {v}"),
            });
        }
        Err(e) => {
            state.frames.record_malformed();
            return Served::Response(Response::Error {
                code: codes::MALFORMED,
                message: e.to_string(),
            });
        }
        Ok(_) => {}
    }
    if let Some(body) = wire::submit_body(payload) {
        return serve_submit(state, conn, body);
    }
    let request = match Request::decode(payload) {
        Ok(r) => r,
        Err(e) => return malformed_frame(state, &e),
    };
    // The kind byte is trusted only after a full decode succeeded.
    let kind = payload.get(1).copied().unwrap_or(0);
    state.frames.record(kind);
    // The replay digest is only needed for charging kinds, and only
    // when accounting is on — ingest frames (which can be megabytes)
    // never pay for a hash pass.
    conn.request_digest = match (&request, state.budget.as_ref()) {
        (Request::Plan { .. } | Request::PartialTermCounts { .. }, Some(book)) => {
            book.digest(payload)
        }
        _ => 0,
    };
    let trace = request_trace(&request);
    let started = Instant::now();
    let served = handle_request(state, conn, request);
    observe_request(state, conn, kind, trace, started.elapsed());
    served
}

/// Counts a frame that failed to decode and answers it.
fn malformed_frame(state: &ServiceState, e: &Error) -> Served {
    state.frames.record_malformed();
    Served::Response(Response::Error {
        code: codes::MALFORMED,
        message: e.to_string(),
    })
}

/// Serves a `SubmitBatch` frame from its body bytes: decoded straight
/// into pool columns, never into `Submission`s, then ingested with the
/// body logged as received.
fn serve_submit(state: &ServiceState, conn: &ConnState, body: &[u8]) -> Served {
    let decoded = {
        let span = obs::span::enter("ingest:decode");
        span.attr("bytes", body.len() as u64);
        wire::decode_submit_body(body, &state.coordinator)
    };
    let batch = match decoded {
        Ok(batch) => batch,
        Err(e) => return malformed_frame(state, &e),
    };
    state.frames.record(wire::REQ_SUBMIT);
    let started = Instant::now();
    let response = ingest(state, body, batch);
    observe_request(state, conn, wire::REQ_SUBMIT, None, started.elapsed());
    Served::Response(response)
}

/// The trace correlation id a request carries: its query nonce (`0`
/// means "no replay identity" and therefore no trace either).
fn request_trace(request: &Request) -> Option<u64> {
    match request {
        Request::Plan { nonce, .. } | Request::PartialTermCounts { nonce, .. } => {
            (*nonce != 0).then_some(*nonce)
        }
        _ => None,
    }
}

/// Records the request's latency metrics, its per-request DEBUG trace
/// record, and — past the configured threshold — the slow-query WARN.
fn observe_request(
    state: &ServiceState,
    conn: &ConnState,
    kind: u8,
    trace: Option<u64>,
    elapsed: Duration,
) {
    let slot = (kind as usize).saturating_sub(1);
    if let Some(Some(hist)) = state.obs_request_nanos.get(slot) {
        hist.record_duration(elapsed);
    }
    if let Some(Some(counter)) = state.obs_requests_total.get(slot) {
        counter.inc();
    }
    let kind_name = wire::request_kind_name(kind).unwrap_or("unknown");
    if obs::log::enabled(obs::log::Level::Debug, "psketch::server::request") {
        let mut event = obs::log::debug("psketch::server::request")
            .field("kind", kind_name)
            .field("analyst", conn.analyst)
            .field("elapsed_us", elapsed.as_micros());
        if let Some(trace) = trace {
            event = event.trace(trace);
        }
        event.emit("served");
    }
    if let Some(threshold_ms) = state.slow_query_ms {
        if elapsed.as_millis() >= u128::from(threshold_ms) {
            let mut event = obs::log::warn("psketch::server::slow_query")
                .field("kind", kind_name)
                .field("analyst", conn.analyst)
                .field("elapsed_us", elapsed.as_micros())
                .field("threshold_ms", threshold_ms);
            if let Some(trace) = trace {
                event = event.trace(trace);
            }
            event.emit("slow query");
        }
    }
}

/// One charged query's identity on the wire.
struct Charged {
    /// The terms it scans: its Corollary 3.4 ε charge.
    terms: usize,
    /// Charge-once replay identity (`0` = no replay protection).
    nonce: u64,
    /// Whether the caller asked for a span trace.
    profile: bool,
}

/// Serves one charging request: the size cap, then the budget gate (a
/// replay is served its cached bytes, a refusal its error frame), then
/// the profiled trace and the evaluation. The response is encoded once
/// and cached against the charge's `(nonce, digest)`, so a replay is
/// served those bytes verbatim. The trace opens only after the gate:
/// refused requests and replays (nothing re-executed) are never
/// profiled, and nonce `0` opts out because the ring is keyed by nonce.
/// The ε charge is the term count — exactly the conjunctive estimates
/// computed — whatever the shape of the answer.
fn serve_charged_query<T>(
    state: &ServiceState,
    conn: &ConnState,
    query: Charged,
    root: &'static str,
    evaluate: impl FnOnce() -> Result<T, Error>,
    respond: impl FnOnce(T, Option<SpanNode>) -> Response,
) -> Served {
    if query.terms > wire::MAX_PLAN_TERMS {
        return Served::Response(Response::Error {
            code: codes::BAD_REQUEST,
            message: format!(
                "plan holds {} terms, server cap is {}",
                query.terms,
                wire::MAX_PLAN_TERMS
            ),
        });
    }
    let charge = u32::try_from(query.terms).unwrap_or(u32::MAX);
    match charge_budget(state, conn, charge, query.nonce) {
        Gate::Open => {}
        Gate::Replay(bytes) => return Served::Raw(bytes),
        Gate::Refuse(refusal) => return Served::Response(refusal),
    }
    let trace = (query.profile && query.nonce != 0).then(|| {
        let trace = obs::Trace::begin(query.nonce, root);
        if let Some(identity) = state.shard {
            trace.root_attr("shard", u64::from(identity.shard_id));
        }
        trace.root_attr("term_count", query.terms as u64);
        trace
    });
    let response = match evaluate() {
        Ok(answer) => {
            // The tree goes to the recent-trace ring (the `Trace` frame
            // and `/traces` surface) and rides the response in-band.
            let tree = trace.map(|t| {
                let tree = t.finish();
                obs::span::ring().store(query.nonce, tree.clone());
                tree
            });
            respond(answer, tree)
        }
        Err(e) => query_error(&e),
    };
    let encoded: Arc<[u8]> = response.encode().into();
    if query.nonce != 0 {
        if let Some(book) = state.budget.as_ref() {
            book.attach_response(conn.analyst, query.nonce, conn.request_digest, &encoded);
        }
    }
    Served::Raw(encoded)
}

fn handle_request(state: &ServiceState, conn: &mut ConnState, request: Request) -> Served {
    match request {
        Request::FetchAnnouncement => Served::Response(Response::Announcement(
            state.coordinator.announcement().clone(),
        )),
        // `handle_frame` serves every submit frame from its bytes.
        Request::SubmitBatch(_) => Served::Response(Response::Error {
            code: codes::INTERNAL,
            message: "submit frames are served from their bytes".into(),
        }),
        Request::Plan {
            plan,
            nonce,
            profile,
        } => serve_charged_query(
            state,
            conn,
            Charged {
                terms: plan.cost(),
                nonce,
                profile,
            },
            "shard:plan",
            || state.engine.execute_plan(state.coordinator.pool(), &plan),
            |answers, tree| {
                Response::PlanAnswers(
                    answers
                        .into_iter()
                        .map(wire::PlanAnswerWire::from)
                        .collect(),
                    tree,
                )
            },
        ),
        Request::Stats => Served::Response(Response::Stats(state.coordinator.stats())),
        Request::Ping => Served::Response(Response::Pong),
        Request::Hello { analyst } => {
            conn.analyst = analyst;
            Served::Response(Response::Hello { shard: state.shard })
        }
        // Shard semantics: a subset this node holds no records for is an
        // empty share `(0, 0)` that merges as a no-op, not an error that
        // fails the whole scatter.
        Request::PartialTermCounts {
            terms,
            nonce,
            profile,
        } => serve_charged_query(
            state,
            conn,
            Charged {
                terms: terms.len(),
                nonce,
                profile,
            },
            "shard:partial_counts",
            || {
                Ok(state
                    .engine
                    .count_terms_partial(state.coordinator.pool(), &terms))
            },
            |counts, tree| {
                Response::PartialTermCounts(
                    counts
                        .into_iter()
                        .map(|(ones, population)| QueryCounts { ones, population })
                        .collect(),
                    tree,
                )
            },
        ),
        Request::ServerStats => Served::Response(Response::ServerStats(state.frames.snapshot(
            state.started.elapsed(),
            &state.engine,
            state.budget.as_ref(),
        ))),
        Request::Metrics => Served::Response(Response::Metrics(obs::snapshot())),
        // Profiles are operational metadata, not query answers: fetching
        // one is uncharged (the release it describes was paid for when
        // the profiled query ran).
        Request::Trace { nonce } => {
            Served::Response(Response::Trace(obs::span::ring().fetch(nonce)))
        }
    }
}

/// Ingests one decoded batch: WAL append (of the frame body as
/// received) + fsync first, then the pool apply, then (still under the
/// lock, so replay order matches apply order) a compaction check. Only
/// after all of that is the client acked. With durability off there is
/// no lock at all — batches from concurrent clients decode and land in
/// parallel.
// The WAL lock is *deliberately* held across append/fsync/compact:
// replay order must match apply order, and that serialization is
// exactly what the lock provides. lint: allow(lock_across_io)
fn ingest(state: &ServiceState, body: &[u8], batch: IngestBatch) -> Response {
    let outcome = match &state.wal {
        None => {
            let _span = obs::span::enter("pool:apply");
            state.coordinator.apply_batch(batch)
        }
        Some(wal_mutex) => {
            let mut wal = wal_mutex.lock();
            {
                let span = obs::span::enter("wal:commit");
                span.attr("batch", batch.submissions() as u64);
                if let Err(e) = wal.record_batch_body(body) {
                    return Response::Error {
                        code: codes::INTERNAL,
                        message: format!("write-ahead log append failed: {e}"),
                    };
                }
            }
            let outcome = {
                let _span = obs::span::enter("pool:apply");
                state.coordinator.apply_batch(batch)
            };
            if wal.should_compact() {
                if let Err(e) = wal.compact(&state.coordinator) {
                    // The log still holds everything; compaction failure
                    // is not a durability loss, so the batch is still
                    // acked.
                    obs::log::error("psketch::server::wal")
                        .field("error", e)
                        .emit("wal compaction failed (will retry)");
                }
            }
            outcome
        }
    };
    Response::SubmitAck {
        accepted: outcome.accepted as u64,
        rejected: outcome.rejected as u64,
    }
}

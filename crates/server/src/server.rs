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
use psketch_core::Error;
use psketch_obs::{self as obs, expose::MetricsExposer, Counter, Histogram, SpanNode};
use psketch_protocol::{Announcement, Coordinator, IngestBatch, QueryCounts, ShardIdentity};
use psketch_queries::QueryEngine;
use std::collections::HashMap;
use std::io::{self, BufReader, Read};
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
    /// The most privacy the announcement may cost one user: the server
    /// refuses to start when [`Announcement::epsilon_cost`] — the
    /// Corollary 3.4 price of the sketches it asks each user to release
    /// — exceeds this ε. Estimates are post-processing of published
    /// sketches and cost nothing further, so this is the whole of the
    /// accounting. `None` accepts any announcement.
    pub user_epsilon_budget: Option<f64>,
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
            user_epsilon_budget: None,
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
    /// The configured per-user ε budget is not a positive finite ε.
    InvalidBudget(f64),
    /// The announcement costs each user more ε than the configured
    /// budget allows.
    EpsilonOverBudget {
        /// The announcement's per-user ε (Corollary 3.4).
        epsilon: f64,
        /// The configured per-user ε budget.
        budget: f64,
    },
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
                write!(f, "per-user budget {eps} must be a positive finite epsilon")
            }
            Self::EpsilonOverBudget { epsilon, budget } => write!(
                f,
                "the announcement costs each user eps = {epsilon:.6} (Corollary 3.4), \
                 over the per-user budget eps = {budget}"
            ),
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

    fn snapshot(&self, uptime: Duration, engine: &QueryEngine) -> wire::ServerStats {
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
        }
    }
}

/// Cached `psketch_server_wire_bytes_total{dir, kind}` handles, indexed
/// by request kind byte, so no frame looks a counter up in the
/// registry. A kind byte that names no request (slot 0, the retired
/// kinds, any byte past the last kind) counts as `kind="unknown"`. A
/// frame's bytes are its 4-byte length prefix plus its payload; a
/// response counts under the kind of the request it answers.
struct WireBytes {
    received: [Arc<Counter>; wire::MAX_REQUEST_KIND as usize + 1],
    sent: [Arc<Counter>; wire::MAX_REQUEST_KIND as usize + 1],
}

impl WireBytes {
    fn new() -> Self {
        let handles = |dir: &str| {
            std::array::from_fn(|kind| {
                let kind = u8::try_from(kind)
                    .ok()
                    .and_then(wire::request_kind_name)
                    .unwrap_or("unknown");
                obs::counter(
                    "psketch_server_wire_bytes_total",
                    &[("dir", dir), ("kind", kind)],
                )
            })
        };
        Self {
            received: handles("in"),
            sent: handles("out"),
        }
    }

    /// Counts a received request frame.
    fn received(&self, request: &[u8]) {
        Self::add(&self.received, request, request.len());
    }

    /// Counts the response frame sent to `request`.
    fn sent(&self, request: &[u8], response: &[u8]) {
        Self::add(&self.sent, request, response.len());
    }

    fn add(counters: &[Arc<Counter>], request: &[u8], payload_len: usize) {
        let kind = request.get(1).map_or(0, |&kind| usize::from(kind));
        if let Some(counter) = counters.get(kind).or(counters.first()) {
            counter.add(4 + payload_len as u64);
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
    /// Frame bytes received and sent, per request kind.
    wire_bytes: WireBytes,
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
    /// Socket, WAL recovery, or announcement validation failures, and
    /// an announcement that costs each user more ε than
    /// [`ServerConfig::user_epsilon_budget`] allows.
    pub fn start(
        addr: impl ToSocketAddrs,
        announcement: Announcement,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        let params = announcement.validate().map_err(ServeError::Params)?;
        let epsilon = announcement.epsilon_cost();
        if let Some(budget) = config.user_epsilon_budget {
            if !(budget.is_finite() && budget > 0.0) {
                return Err(ServeError::InvalidBudget(budget));
            }
            if epsilon > budget {
                return Err(ServeError::EpsilonOverBudget { epsilon, budget });
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
            wire_bytes: WireBytes::new(),
            slow_query_ms: config.slow_query_ms,
            sockets: OpenSockets::default(),
        });

        // Corollary 3.4's per-user price of this announcement, exported
        // in micro-ε so the text format stays integral.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        obs::gauge("psketch_user_epsilon_micro", &[]).set((epsilon * 1e6).round().max(0.0) as u64);

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
/// Frames are read through a buffer, so a request whose prefix and
/// payload arrive together costs one read; each response goes out in
/// one write.
fn serve_connection(
    stream: TcpStream,
    state: &ServiceState,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_TICK))?;
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    loop {
        let Some(len) = read_len_prefix(&mut reader, shutdown)? else {
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
            let _ = wire::write_frame(&mut writer, &resp.encode());
            return Ok(());
        }
        let mut payload = vec![0u8; len as usize];
        read_exact_patient(&mut reader, &mut payload, shutdown)?;
        state.wire_bytes.received(&payload);
        let response = handle_frame(state, &payload).encode();
        wire::write_frame(&mut writer, &response)?;
        state.wire_bytes.sent(&payload, &response);
    }
}

/// Reads the 4-byte length prefix, waking every [`POLL_TICK`] to check
/// for shutdown. `Ok(None)` means clean EOF or shutdown — a peer that
/// stalled mid-prefix cannot wedge shutdown; its half-frame is dropped.
fn read_len_prefix(reader: &mut impl Read, shutdown: &AtomicBool) -> io::Result<Option<u32>> {
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
        match reader.read(rest) {
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
    reader: &mut impl Read,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let mut filled = 0usize;
    while let Some(rest) = buf.get_mut(filled..).filter(|tail| !tail.is_empty()) {
        match reader.read(rest) {
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

/// Decodes and dispatches one frame. Never panics on client input; all
/// failures become error frames.
fn handle_frame(state: &ServiceState, payload: &[u8]) -> Response {
    match wire::frame_version(payload) {
        Ok(v) if v != PROTOCOL_VERSION => {
            state.frames.record_malformed();
            return Response::Error {
                code: codes::UNSUPPORTED_VERSION,
                message: format!("server speaks protocol {PROTOCOL_VERSION}, frame declares {v}"),
            };
        }
        Err(e) => return malformed_frame(state, &e),
        Ok(_) => {}
    }
    if let Some(body) = wire::submit_body(payload) {
        return serve_submit(state, body);
    }
    let request = match Request::decode(payload) {
        Ok(r) => r,
        Err(e) => return malformed_frame(state, &e),
    };
    // The kind byte is trusted only after a full decode succeeded.
    let kind = payload.get(1).copied().unwrap_or(0);
    state.frames.record(kind);
    let trace = request_trace(&request);
    let started = Instant::now();
    let response = handle_request(state, request);
    observe_request(state, kind, trace, started.elapsed());
    response
}

/// Counts a frame that failed to decode and answers it.
fn malformed_frame(state: &ServiceState, e: &Error) -> Response {
    state.frames.record_malformed();
    Response::Error {
        code: codes::MALFORMED,
        message: e.to_string(),
    }
}

/// Serves a `SubmitBatch` frame from its body bytes: decoded straight
/// into pool columns, never into `Submission`s, then ingested with the
/// body logged as received.
fn serve_submit(state: &ServiceState, body: &[u8]) -> Response {
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
    observe_request(state, wire::REQ_SUBMIT, None, started.elapsed());
    response
}

/// The trace correlation id a request carries: its query nonce (`0`
/// means "no trace").
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
fn observe_request(state: &ServiceState, kind: u8, trace: Option<u64>, elapsed: Duration) {
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
                .field("elapsed_us", elapsed.as_micros())
                .field("threshold_ms", threshold_ms);
            if let Some(trace) = trace {
                event = event.trace(trace);
            }
            event.emit("slow query");
        }
    }
}

/// A query frame's shape: what the size cap and the trace need.
struct QueryFrame {
    /// The terms it counts.
    terms: usize,
    /// Trace correlation id (`0` = no trace).
    nonce: u64,
    /// Whether the caller asked for a span trace.
    profile: bool,
}

/// Serves one query frame: the size cap, then the profiled trace and
/// the evaluation. Nonce `0` opts out of profiling, because the trace
/// ring is keyed by nonce.
fn serve_query<T>(
    state: &ServiceState,
    query: QueryFrame,
    root: &'static str,
    evaluate: impl FnOnce() -> Result<T, Error>,
    respond: impl FnOnce(T, Option<SpanNode>) -> Response,
) -> Response {
    if query.terms > wire::MAX_PLAN_TERMS {
        return Response::Error {
            code: codes::BAD_REQUEST,
            message: format!(
                "plan holds {} terms, server cap is {}",
                query.terms,
                wire::MAX_PLAN_TERMS
            ),
        };
    }
    let trace = (query.profile && query.nonce != 0).then(|| {
        let trace = obs::Trace::begin(query.nonce, root);
        if let Some(identity) = state.shard {
            trace.root_attr("shard", u64::from(identity.shard_id));
        }
        trace.root_attr("term_count", query.terms as u64);
        trace
    });
    match evaluate() {
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
    }
}

fn handle_request(state: &ServiceState, request: Request) -> Response {
    match request {
        Request::FetchAnnouncement => {
            Response::Announcement(state.coordinator.announcement().clone())
        }
        // `handle_frame` serves every submit frame from its bytes.
        Request::SubmitBatch(_) => Response::Error {
            code: codes::INTERNAL,
            message: "submit frames are served from their bytes".into(),
        },
        Request::Plan {
            plan,
            nonce,
            profile,
        } => serve_query(
            state,
            QueryFrame {
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
        Request::Stats => Response::Stats(state.coordinator.stats()),
        Request::Ping => Response::Pong,
        Request::Hello => Response::Hello { shard: state.shard },
        // Shard semantics: a subset this node holds no records for is an
        // empty share `(0, 0)` that merges as a no-op, not an error that
        // fails the whole scatter.
        Request::PartialTermCounts {
            terms,
            nonce,
            profile,
        } => serve_query(
            state,
            QueryFrame {
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
        Request::ServerStats => Response::ServerStats(
            state
                .frames
                .snapshot(state.started.elapsed(), &state.engine),
        ),
        Request::Metrics => Response::Metrics(obs::snapshot()),
        Request::Trace { nonce } => Response::Trace(obs::span::ring().fetch(nonce)),
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

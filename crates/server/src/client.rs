//! The blocking client library.
//!
//! A [`Client`] owns one TCP connection and reuses it across requests —
//! the frame protocol is strictly request/response, so connection reuse
//! is just "write a frame, read a frame". User agents submit in batches
//! ([`Client::submit_batch`], or [`Client::submit_chunked`] to split a
//! large set into frames on this one connection; a sharded deployment
//! ingests through the cluster router instead); analysts query with
//! [`Client::execute_plan`] (the server evaluates the plan) or
//! [`Client::partial_term_counts`] (the caller inverts and combines the
//! raw counts, as the cluster router does).
//!
//! A caller talking to several servers at once (the cluster router)
//! splits a round trip into [`Client::send`] and [`Client::receive`]:
//! it has a request written to every server before it blocks on the
//! first reply (for ingest, each server's next chunk goes out as soon
//! as its ack is read), so the servers work concurrently while one
//! thread waits.
//!
//! # Request nonces
//!
//! Every query frame carries a nonce: the trace correlation id that
//! servers log with every record the query produces and key its span
//! trace by. The plain query methods mint a fresh one per call
//! ([`next_nonce`]); [`Client::execute_plan_traced`] takes the
//! caller's, so the caller can fetch the trace again later.

use crate::wire::{self, Request, Response, ServerStats};
use psketch_core::ConjunctiveQuery;
use psketch_obs::SpanNode;
use psketch_protocol::{Announcement, CoordinatorStats, QueryCounts, ShardIdentity, Submission};
use psketch_queries::{LinearAnswer, TermPlan};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Mints a request nonce: unique within this process, seeded with
/// per-process entropy so two processes' traces are overwhelmingly
/// unlikely to collide. Never returns `0` (the wire's "no trace"
/// sentinel).
#[must_use]
pub fn next_nonce() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        use std::hash::{BuildHasher, Hasher};
        // RandomState draws fresh entropy per process.
        std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish()
    });
    // ord: uniqueness only — fetch_add is atomic at every ordering
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    // splitmix64 over the seeded counter: distinct inputs, distinct outputs.
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

/// Errors from the client side of the protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or transport failure.
    Io(io::Error),
    /// The server's bytes could not be decoded, or the response kind
    /// did not match the request.
    Protocol(String),
    /// The server answered with an error frame (see [`wire::codes`]).
    Server {
        /// Machine-readable error code.
        code: u16,
        /// Human-readable description.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "connection error: {e}"),
            Self::Protocol(reason) => write!(f, "protocol error: {reason}"),
            Self::Server { code, message } => write!(f, "server error {code}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// The outcome of a batch submission, as acknowledged by the server
/// *after* the batch is durable (when the server runs a WAL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitAck {
    /// Submissions accepted into the pool.
    pub accepted: u64,
    /// Submissions rejected (malformed or duplicate).
    pub rejected: u64,
}

/// Where a connection stands in its request/response pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exchange {
    /// No request outstanding: the next call is a [`Client::send`].
    Idle,
    /// A request is written and its reply not yet read.
    Awaiting,
    /// A transport/decode failure hit mid-exchange: the stream may hold
    /// a stale response, so request/response pairing can no longer be
    /// trusted and the connection refuses further use.
    Poisoned,
}

/// A blocking connection to a sketch-pool server. Replies are read
/// through a buffer over the socket (a small reply costs one read);
/// requests are written to the socket beneath it, one write per frame.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    state: Exchange,
}

impl Client {
    /// Connects with a timeout that also bounds each subsequent read
    /// and write.
    ///
    /// # Errors
    ///
    /// Address resolution and connection failures.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, ClientError> {
        let mut last_err: Option<io::Error> = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    return Ok(Self {
                        reader: BufReader::new(stream),
                        state: Exchange::Idle,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(ClientError::Io(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })))
    }

    /// Writes one request frame; read its reply with
    /// [`Client::receive`] before the next `send`.
    ///
    /// # Errors
    ///
    /// Transport failures, which poison the connection, and a send on a
    /// connection that is poisoned or still awaiting a reply.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.send_payload(&req.encode())
    }

    /// As [`Client::send`] for a request already encoded as a frame
    /// payload (e.g. by [`wire::submit_payload`]).
    ///
    /// # Errors
    ///
    /// As [`Client::send`].
    pub fn send_payload(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        if self.state != Exchange::Idle {
            return Err(self.out_of_turn());
        }
        self.state = Exchange::Poisoned;
        wire::write_frame(&mut self.reader.get_ref(), payload)?;
        self.state = Exchange::Awaiting;
        Ok(())
    }

    /// Reads the reply to the last [`Client::send`]. A server error
    /// frame comes back as [`ClientError::Server`]; it completes the
    /// exchange and leaves the connection usable.
    ///
    /// # Errors
    ///
    /// Transport or decode failures, which poison the connection: the
    /// reply may still be in flight, so a retry on the same stream
    /// would read the *previous* exchange's answer and the caller must
    /// reconnect. Also a receive with no request outstanding.
    pub fn receive(&mut self) -> Result<Response, ClientError> {
        if self.state != Exchange::Awaiting {
            return Err(self.out_of_turn());
        }
        self.state = Exchange::Poisoned;
        let payload = wire::read_frame(&mut self.reader)?.ok_or_else(|| {
            ClientError::Protocol("server closed the connection mid request".into())
        })?;
        let resp = Response::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.state = Exchange::Idle;
        if let Response::Error { code, message } = resp {
            return Err(ClientError::Server { code, message });
        }
        Ok(resp)
    }

    /// Bounds how long each later read waits (`connect` set it to the
    /// connect timeout).
    ///
    /// # Errors
    ///
    /// A zero `timeout`, or a socket that rejects the option.
    pub fn set_read_timeout(&self, timeout: Duration) -> Result<(), ClientError> {
        Ok(self.reader.get_ref().set_read_timeout(Some(timeout))?)
    }

    /// The error for a `send` or `receive` the connection's state does
    /// not allow.
    fn out_of_turn(&self) -> ClientError {
        ClientError::Protocol(
            match self.state {
                Exchange::Poisoned => {
                    "connection poisoned by an earlier failed exchange; reconnect"
                }
                Exchange::Awaiting => "the previous request's reply is still unread",
                Exchange::Idle => "no request awaits a reply on this connection",
            }
            .into(),
        )
    }

    /// One request/response round trip on the shared connection.
    fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.receive()
    }

    fn unexpected<T>(resp: &Response) -> Result<T, ClientError> {
        Err(ClientError::Protocol(format!(
            "unexpected response kind: {resp:?}"
        )))
    }

    /// Fetches the coordinator's public announcement.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn announcement(&mut self) -> Result<Announcement, ClientError> {
        match self.request(&Request::FetchAnnouncement)? {
            Response::Announcement(ann) => Ok(ann),
            other => Self::unexpected(&other),
        }
    }

    /// Submits one batch and waits for the (durability-backed) ack.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn submit_batch(&mut self, subs: &[Submission]) -> Result<SubmitAck, ClientError> {
        self.send_payload(&wire::submit_payload(subs))?;
        match self.receive()? {
            Response::SubmitAck { accepted, rejected } => Ok(SubmitAck { accepted, rejected }),
            other => Self::unexpected(&other),
        }
    }

    /// Submits a large set in chunks of `batch_size`, summing the acks —
    /// keeps every frame under the wire limit regardless of input size.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors; already-acked chunks stay
    /// ingested.
    pub fn submit_chunked(
        &mut self,
        subs: &[Submission],
        batch_size: usize,
    ) -> Result<SubmitAck, ClientError> {
        let mut total = SubmitAck::default();
        for chunk in subs.chunks(batch_size.max(1)) {
            let ack = self.submit_batch(chunk)?;
            total.accepted += ack.accepted;
            total.rejected += ack.rejected;
        }
        Ok(total)
    }

    /// Executes a compiled [`TermPlan`] server-side and returns one
    /// answer per plan output, in plan order. Every query family —
    /// linear combinations, DNF, intervals, means, moments, trees,
    /// histograms — travels through this one entry point (fresh
    /// nonce).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn execute_plan(&mut self, plan: &TermPlan) -> Result<Vec<LinearAnswer>, ClientError> {
        match self.request(&Request::Plan {
            plan: plan.clone(),
            nonce: next_nonce(),
            profile: false,
        })? {
            Response::PlanAnswers(answers, _) => {
                Ok(answers.into_iter().map(LinearAnswer::from).collect())
            }
            other => Self::unexpected(&other),
        }
    }

    /// As [`Client::execute_plan`] with profiling requested under the
    /// caller's `nonce`; the answers are bit-identical to the unprofiled
    /// path.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn execute_plan_traced(
        &mut self,
        nonce: u64,
        plan: &TermPlan,
    ) -> Result<(Vec<LinearAnswer>, Option<SpanNode>), ClientError> {
        match self.request(&Request::Plan {
            plan: plan.clone(),
            nonce,
            profile: true,
        })? {
            Response::PlanAnswers(answers, trace) => {
                Ok((answers.into_iter().map(LinearAnswer::from).collect(), trace))
            }
            other => Self::unexpected(&other),
        }
    }

    /// Fetches the coordinator's ingestion counters.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn stats(&mut self) -> Result<CoordinatorStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Self::unexpected(&other),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Self::unexpected(&other),
        }
    }

    /// Connection handshake: returns the server's shard identity
    /// (`None` for a standalone server).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn hello(&mut self) -> Result<Option<ShardIdentity>, ClientError> {
        match self.request(&Request::Hello)? {
            Response::Hello { shard } => Ok(shard),
            other => Self::unexpected(&other),
        }
    }

    /// Fetches raw `(ones, population)` satisfying counts for a plan's
    /// deduplicated term list — the scatter half of a router's
    /// scatter-gather. A shard holding no sketches for a queried subset
    /// reports `(0, 0)` (fresh nonce).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn partial_term_counts(
        &mut self,
        terms: &[ConjunctiveQuery],
    ) -> Result<Vec<QueryCounts>, ClientError> {
        match self.request(&Request::PartialTermCounts {
            terms: terms.to_vec(),
            nonce: next_nonce(),
            profile: false,
        })? {
            Response::PartialTermCounts(counts, _) => Ok(counts),
            other => Self::unexpected(&other),
        }
    }

    /// Fetches a recently completed span trace from the server's
    /// bounded trace ring by the nonce of the query that produced it.
    /// Returns `None` when the ring holds no trace for that nonce (it
    /// was never profiled, or has since been evicted).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn trace(&mut self, nonce: u64) -> Result<Option<SpanNode>, ClientError> {
        match self.request(&Request::Trace { nonce })? {
            Response::Trace(tree) => Ok(tree),
            other => Self::unexpected(&other),
        }
    }

    /// Fetches server-level observability counters (uptime, per-frame
    /// request counts).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn server_stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.request(&Request::ServerStats)? {
            Response::ServerStats(stats) => Ok(stats),
            other => Self::unexpected(&other),
        }
    }

    /// Fetches the server's full metrics-registry snapshot (counters,
    /// gauges, latency histograms). Snapshots from several shards merge
    /// via [`psketch_obs::RegistrySnapshot::merge`].
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn metrics(&mut self) -> Result<psketch_obs::RegistrySnapshot, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(snap) => Ok(snap),
            other => Self::unexpected(&other),
        }
    }
}

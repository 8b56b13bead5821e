//! Algorithm 2 — answering conjunctive queries from sketches.
//!
//! ```text
//! Input: PRF H, database of sketches S(id, B), query subset B, value v.
//! 1: Compute the fraction r̃ of users with H(id, B, v, S(id, B)) = 1.
//! 2: Report r' = (r̃ − p)/(1 − 2p).
//! ```
//!
//! By Lemma 3.2, `E[r̃] = (1−p)·r + p·(1−r)` where `r` is the true fraction
//! of users satisfying `d_B = v`, so step 2 is the unbiased inversion. The
//! Chernoff analysis of Lemma 4.1 gives
//! `Pr[|r' − r| > ε] ≤ exp(−ε²(1−2p)²·M/4)`, independent of `|B|` — the
//! paper's headline property.

use crate::database::{SketchDb, SubsetSnapshot};
use crate::hfun::HFunction;
use crate::params::{Error, SketchParams};
use crate::profile::{BitString, BitSubset};
use psketch_obs as obs;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Below this many record·values (records × values counted) a scan runs
/// on the calling thread; from it up, the scan is cut into chunks that
/// the caller and the [`ScanPool`] helpers claim.
///
/// The pool's helpers are parked, not spawned, so handing a scan to them
/// costs one queue send and one wake-up instead of the 9–20 µs a scoped
/// spawn + join cost when this threshold was 2^18. e20's crossover sweep
/// (pooled `count` against a one-thread `PreparedH::count_values` with
/// the threshold forced to 1; 2-vCPU AVX-512 VM, 8 lanes, one value)
/// measured 0.95–1.02× at 8k records — two equal chunks, so the caller
/// waits out the helper's wake-up — and 1.13–1.28× at 16k: 2^14 is the
/// smallest power of two at which the pooled path is no slower.
const PARALLEL_THRESHOLD: usize = 1 << 14;

/// The smallest chunk a pooled scan is cut into: ~15 µs of 8-lane work,
/// well above the cost of claiming it.
const MIN_CHUNK: usize = 4096;

/// A conjunctive query `d_B = v`: "what fraction of users has every
/// attribute in `B` equal to the corresponding bit of `v`?"
///
/// Negated attributes are simply 0-bits of `v`, so this is the paper's full
/// (non-monotone) conjunctive query class.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConjunctiveQuery {
    subset: BitSubset,
    value: BitString,
}

impl ConjunctiveQuery {
    /// Builds a query after width validation.
    ///
    /// # Errors
    ///
    /// [`Error::WidthMismatch`] unless `value.len() == subset.len()`.
    pub fn new(subset: BitSubset, value: BitString) -> Result<Self, Error> {
        if subset.len() != value.len() {
            return Err(Error::WidthMismatch {
                subset: subset.len(),
                value: value.len(),
            });
        }
        Ok(Self { subset, value })
    }

    /// The queried subset `B`.
    #[must_use]
    pub fn subset(&self) -> &BitSubset {
        &self.subset
    }

    /// The queried value `v`.
    #[must_use]
    pub fn value(&self) -> &BitString {
        &self.value
    }

    /// Width `k` of the conjunction.
    #[must_use]
    pub fn width(&self) -> usize {
        self.subset.len()
    }
}

/// The result of a conjunctive estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// The Algorithm 2 output `r' = (r̃ − p)/(1 − 2p)`; may fall outside
    /// `[0, 1]` by sampling noise.
    pub fraction: f64,
    /// The raw one-fraction `r̃` before inversion.
    pub raw: f64,
    /// Number of sketches the estimate aggregates.
    pub sample_size: usize,
    /// The bias `p` used in the inversion.
    pub p: f64,
}

impl Estimate {
    /// Runs step 2 of Algorithm 2 on raw satisfying counts: `r̃ = ones/n`,
    /// `r' = (r̃ − p)/(1 − 2p)`.
    ///
    /// This is the *only* place the count→estimate float arithmetic
    /// lives: the estimator's scan paths and the cluster router's
    /// merged-count path both call it, so an estimate computed from
    /// exactly-summed per-shard counts is bit-identical to the one a
    /// single node computes over the same records.
    #[must_use]
    pub fn from_counts(ones: u64, n: u64, p: f64) -> Self {
        let raw = ones as f64 / n as f64;
        Self {
            fraction: (raw - p) / (1.0 - 2.0 * p),
            raw,
            sample_size: usize::try_from(n).unwrap_or(usize::MAX),
            p,
        }
    }

    /// The estimate clamped to the feasible range `[0, 1]`.
    #[must_use]
    pub fn clamped(&self) -> f64 {
        self.fraction.clamp(0.0, 1.0)
    }

    /// Estimated *count* of satisfying users in a population of `m`.
    #[must_use]
    pub fn count(&self, m: usize) -> f64 {
        self.clamped() * m as f64
    }

    /// Two-sided `1 − δ` confidence half-width from Hoeffding's bound.
    ///
    /// `r̃` deviates from its mean by more than `t` with probability at most
    /// `2·exp(−2·n·t²)`; the inversion scales deviations by `1/(1 − 2p)`.
    #[must_use]
    pub fn half_width(&self, delta: f64) -> f64 {
        if self.sample_size == 0 {
            return f64::INFINITY;
        }
        let n = self.sample_size as f64;
        let t = ((2.0 / delta).ln() / (2.0 * n)).sqrt();
        t / (1.0 - 2.0 * self.p)
    }

    /// The Lemma 4.1 failure probability for error tolerance `eps`:
    /// `exp(−ε²(1−2p)²·n/4)`.
    #[must_use]
    pub fn lemma41_failure_prob(&self, eps: f64) -> f64 {
        let n = self.sample_size as f64;
        (-eps * eps * (1.0 - 2.0 * self.p).powi(2) * n / 4.0).exp()
    }
}

/// The analyst-side estimator: Algorithm 2 over a [`SketchDb`].
#[derive(Debug, Clone)]
pub struct ConjunctiveEstimator {
    params: SketchParams,
    h: HFunction,
}

impl ConjunctiveEstimator {
    /// Builds an estimator. Must use the *same* parameters (bias, key,
    /// PRF family) as the sketchers that produced the database.
    #[must_use]
    pub fn new(params: SketchParams) -> Self {
        let h = HFunction::new(&params);
        Self { params, h }
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// Runs Algorithm 2 for `query` against `db` — the batched path.
    ///
    /// Takes a columnar [`SubsetSnapshot`] (no record cloning), prepares
    /// the PRF input template for `B` once, and streams the id/key
    /// columns through the batch PRF entry point, splitting the columns
    /// across threads for large shards. The result is bit-identical to
    /// [`ConjunctiveEstimator::estimate_scalar`]: the per-record PRF
    /// inputs are byte-equal and the one-counts are summed exactly.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownSubset`] if the database has no sketches for the
    ///   query's subset;
    /// * [`Error::EmptyDatabase`] if the subset exists but holds no records.
    pub fn estimate(&self, db: &SketchDb, query: &ConjunctiveQuery) -> Result<Estimate, Error> {
        let snapshot = db.snapshot(query.subset())?;
        if snapshot.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        let ones = self.count_one(&snapshot, query);
        Ok(self.finish(ones, snapshot.len()))
    }

    /// Runs Algorithm 2 against an already-taken snapshot (lets callers
    /// evaluate many queries against one consistent view of a shard).
    ///
    /// # Errors
    ///
    /// [`Error::EmptyDatabase`] if the snapshot holds no records.
    pub fn estimate_snapshot(
        &self,
        snapshot: &SubsetSnapshot,
        query: &ConjunctiveQuery,
    ) -> Result<Estimate, Error> {
        if snapshot.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        let ones = self.count_one(snapshot, query);
        Ok(self.finish(ones, snapshot.len()))
    }

    /// The raw satisfying count behind [`ConjunctiveEstimator::estimate`]:
    /// `(ones, population)` where `ones` is the number of records with
    /// `H(id, B, v, s) = 1` and `population` the shard's record count.
    ///
    /// These are exact integers, so counts taken on disjoint partitions
    /// of a pool sum to exactly the whole-pool counts — the primitive a
    /// sharded deployment merges before one call to
    /// [`Estimate::from_counts`] reproduces the single-node answer
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// As [`ConjunctiveEstimator::estimate`].
    pub fn count(&self, db: &SketchDb, query: &ConjunctiveQuery) -> Result<(u64, u64), Error> {
        let snapshot = db.snapshot(query.subset())?;
        if snapshot.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        let ones = self.count_one(&snapshot, query);
        Ok((ones as u64, snapshot.len() as u64))
    }

    /// The raw per-value satisfying counts behind
    /// [`ConjunctiveEstimator::estimate_distribution`]: one count per
    /// LSB-first value of the subset, plus the shard population.
    ///
    /// # Errors
    ///
    /// As [`ConjunctiveEstimator::estimate_distribution`].
    pub fn count_distribution(
        &self,
        db: &SketchDb,
        subset: &BitSubset,
    ) -> Result<(Vec<u64>, u64), Error> {
        assert!(
            subset.len() <= 20,
            "count_distribution supports at most 20-bit subsets"
        );
        let snapshot = db.snapshot(subset)?;
        if snapshot.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        let ones = self.count_values(&snapshot, subset, &all_values(subset));
        Ok((
            ones.into_iter().map(|c| c as u64).collect(),
            snapshot.len() as u64,
        ))
    }

    /// Batched raw counts for a *plan's term list*: one `(ones,
    /// population)` pair per query, in input order.
    ///
    /// This is the batch entry point plan executors drive. Terms are
    /// grouped by subset, and each distinct subset costs one snapshot and
    /// one scan that counts every value its terms ask for: one
    /// `estimator:scan` per subset, however many terms sit on it.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSubset`] if any term's subset has no sketches —
    /// the local-engine semantics, matching what a per-term
    /// [`ConjunctiveEstimator::estimate`] loop would report.
    pub fn count_terms(
        &self,
        db: &SketchDb,
        queries: &[ConjunctiveQuery],
    ) -> Result<Vec<(u64, u64)>, Error> {
        self.count_terms_impl(db, queries, true)
    }

    /// As [`ConjunctiveEstimator::count_terms`], but a subset this pool
    /// holds no sketches for reports `(0, 0)` instead of failing — the
    /// *shard* semantics: a shard's share of an unknown subset is
    /// genuinely empty and merges as a no-op, which must not fail the
    /// whole scatter.
    #[must_use]
    pub fn count_terms_partial(
        &self,
        db: &SketchDb,
        queries: &[ConjunctiveQuery],
    ) -> Vec<(u64, u64)> {
        self.count_terms_impl(db, queries, false)
            .expect("infallible without strict subset checks")
    }

    fn count_terms_impl(
        &self,
        db: &SketchDb,
        queries: &[ConjunctiveQuery],
        strict: bool,
    ) -> Result<Vec<(u64, u64)>, Error> {
        let mut counts = vec![(0u64, 0u64); queries.len()];
        // Group term indices by subset (order-preserving).
        let mut groups: Vec<(&BitSubset, Vec<usize>)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            match groups.iter_mut().find(|(s, _)| *s == q.subset()) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((q.subset(), vec![i])),
            }
        }
        for (subset, idxs) in groups {
            let snapshot = match db.snapshot(subset) {
                Ok(s) => s,
                Err(e @ Error::UnknownSubset { .. }) => {
                    if strict {
                        return Err(e);
                    }
                    continue; // empty share: (0, 0) for every term
                }
                Err(e) => return Err(e),
            };
            if snapshot.is_empty() {
                continue; // (0, 0) for every term, without a scan
            }
            let values: Vec<BitString> = idxs.iter().map(|&i| queries[i].value().clone()).collect();
            let ones = self.count_values(&snapshot, subset, &values);
            let n = snapshot.len() as u64;
            for (&i, ones) in idxs.iter().zip(ones) {
                counts[i] = (ones as u64, n);
            }
        }
        Ok(counts)
    }

    /// The pre-refactor scalar reference path: a row-oriented copy of the
    /// records (the old `SketchDb::records` read) and one full input
    /// encoding — with its allocations — per record.
    ///
    /// Kept as the correctness oracle for the batched path (the
    /// equivalence property tests compare the two bit-for-bit) and as the
    /// baseline in the throughput benchmarks.
    ///
    /// # Errors
    ///
    /// As [`ConjunctiveEstimator::estimate`].
    pub fn estimate_scalar(
        &self,
        db: &SketchDb,
        query: &ConjunctiveQuery,
    ) -> Result<Estimate, Error> {
        let records = db.records(query.subset())?;
        if records.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        let ones = records
            .iter()
            .filter(|rec| {
                self.h
                    .eval(rec.id, query.subset(), query.value(), rec.sketch.key)
            })
            .count();
        Ok(self.finish(ones, records.len()))
    }

    /// Estimates all `2^k` value frequencies over one sketched subset in
    /// a single pass.
    ///
    /// Each user's sketch supports *every* value query on its subset, so
    /// one scan over the records suffices: per record, the absorbed
    /// `domain ‖ B ‖ id ‖ s` state is finished once per value instead of
    /// running `2^k` independent full scans. Values are indexed by their
    /// LSB-first integer encoding.
    ///
    /// # Errors
    ///
    /// As [`ConjunctiveEstimator::estimate`]. Additionally requires
    /// `subset.len() ≤ 20` to keep the output size sane.
    pub fn estimate_distribution(
        &self,
        db: &SketchDb,
        subset: &BitSubset,
    ) -> Result<Vec<Estimate>, Error> {
        assert!(
            subset.len() <= 20,
            "estimate_distribution supports at most 20-bit subsets"
        );
        let snapshot = db.snapshot(subset)?;
        if snapshot.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        let n = snapshot.len();
        let ones = self.count_values(&snapshot, subset, &all_values(subset));
        Ok(ones
            .into_iter()
            .map(|count| self.finish(count, n))
            .collect())
    }

    /// Counts records with `H(id, B, v, s) = 1` for one query.
    fn count_one(&self, snapshot: &SubsetSnapshot, query: &ConjunctiveQuery) -> usize {
        self.count_values(
            snapshot,
            query.subset(),
            std::slice::from_ref(query.value()),
        )[0]
    }

    /// The one scan behind every count: per-value satisfying counts of
    /// `values` (each of width `subset.len()`) over the snapshot's
    /// columns, in one pass, split into chunks across the [`ScanPool`]
    /// once the scan's records × values PRF evaluations reach
    /// [`PARALLEL_THRESHOLD`].
    fn count_values(
        &self,
        snapshot: &SubsetSnapshot,
        subset: &BitSubset,
        values: &[BitString],
    ) -> Vec<usize> {
        let n = snapshot.len();
        let workers = if n.saturating_mul(values.len()) < PARALLEL_THRESHOLD {
            1
        } else {
            available_workers()
        };
        let chunk = MIN_CHUNK.max(n / (4 * workers));
        let started = obs::enabled().then(Instant::now);
        let span = scan_span(n, values.len());
        let prepared = self.h.prepare(subset, subset.len());
        let scan = if workers <= 1 || n <= chunk {
            Forked {
                counts: prepared.count_values(snapshot.ids(), snapshot.keys(), values),
                chunks: 1,
                threads: 1,
                helped: 0,
            }
        } else {
            // The chunks' partial counts are summed — identical to the
            // sequential counts because addition of exact counts commutes.
            let snapshot = snapshot.clone();
            let values: Arc<[BitString]> = values.into();
            ScanPool::global().fork_join(n, chunk, values.len(), move |range| {
                let (ids, keys) = (snapshot.ids(), snapshot.keys());
                prepared.count_values(&ids[range.clone()], &keys[range], &values)
            })
        };
        span.attr("threads", scan.threads as u64);
        span.attr("chunks", scan.chunks as u64);
        span.attr("helped", scan.helped as u64);
        drop(span);
        if let Some(started) = started {
            record_scan(n, scan.threads, started.elapsed());
        }
        scan.counts
    }

    /// Step 2 of Algorithm 2: the unbiased inversion.
    fn finish(&self, ones: usize, n: usize) -> Estimate {
        Estimate::from_counts(ones as u64, n as u64, self.params.p())
    }
}

/// Opens the per-scan profiling span (inert — one relaxed load — unless
/// the request thread has a trace open). One span per scan, not per
/// record: a profiled plan grows one `estimator:scan` child per distinct
/// subset, and `values` says how many values that scan counted. The
/// caller adds `threads`, `chunks` and `helped` once the scan is done.
fn scan_span(records: usize, values: usize) -> obs::SpanGuard {
    let span = obs::span::enter("estimator:scan");
    span.attr("records", records as u64);
    span.attr("values", values as u64);
    span.attr("lanes", psketch_prf::lane_width() as u64);
    span
}

/// Records one sketch scan into the process metrics registry, labeled by
/// the active SIMD lane width and the number of threads the scan was
/// offered to (1 inline, else the caller plus the pool helpers it
/// posted tickets to) — the knobs that determine scan throughput. Called
/// once per scan (never per record), so the registry lookup is noise
/// next to the scan itself.
fn record_scan(records: usize, threads: usize, elapsed: std::time::Duration) {
    let lanes = psketch_prf::lane_width().to_string();
    let threads = threads.to_string();
    let labels = [("lanes", lanes.as_str()), ("threads", threads.as_str())];
    obs::histogram("psketch_scan_nanos", &labels).record_duration(elapsed);
    obs::counter("psketch_scan_records_total", &labels).add(records as u64);
    obs::counter("psketch_scans_total", &labels).inc();
}

/// Every value of `subset`, in LSB-first integer order (the index order
/// of a distribution's counts).
fn all_values(subset: &BitSubset) -> Vec<BitString> {
    let k = subset.len();
    (0..1u64 << k).map(|v| BitString::from_u64(v, k)).collect()
}

/// The host's available parallelism, probed once per process.
///
/// `std::thread::available_parallelism()` is a syscall (it walks the
/// cgroup quota and CPU affinity mask on Linux); every scan above
/// [`PARALLEL_THRESHOLD`] consults it to size its chunks, so the probe is
/// cached here to keep the dispatch decision a branch and a load.
fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// One scan's result and how it was split.
struct Forked {
    /// Per-value satisfying counts, summed over every chunk.
    counts: Vec<usize>,
    /// Chunks the records were cut into (1 for an inline scan).
    chunks: usize,
    /// Threads the scan was offered to: the caller plus one per posted
    /// ticket.
    threads: usize,
    /// Chunks a pool helper counted (the caller counted the rest).
    helped: usize,
}

/// A claim ticket: a helper that receives one counts chunks of its job
/// until the job's cursor runs out.
type Ticket = Arc<dyn Help + Send + Sync>;

/// The helper side of a [`Job`], type-erased so one queue carries every
/// job's tickets.
trait Help {
    fn help(&self);
}

/// The process-wide scan pool: `available_workers() − 1` parked helper
/// threads, started by the first scan that needs them.
///
/// A pooled scan posts one ticket per helper and then counts chunks
/// itself, claiming them from the same cursor the helpers claim from, so
/// it only ever waits for chunks a helper has already started — never on
/// a ticket no helper has picked up (another scan may be keeping them
/// busy). Jobs own everything they touch (an `Arc`-shared snapshot, a
/// prepared evaluator, the values), so helpers outlive no borrow and the
/// pool needs no `unsafe`. Helpers are detached rather than joined: a
/// chunk's panic is caught and reported through its job, and a helper
/// exits once the pool's ticket sender is dropped.
struct ScanPool {
    tickets: mpsc::Sender<Ticket>,
    helpers: usize,
}

impl ScanPool {
    /// Starts `helpers` parked threads. A helper that fails to spawn is
    /// simply absent: the caller counts the chunks it would have taken.
    fn new(helpers: usize) -> Self {
        let (tickets, queue) = mpsc::channel::<Ticket>();
        let queue = Arc::new(Mutex::new(queue));
        let helpers = (0..helpers)
            .filter(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("psketch-scan-{i}"))
                    .spawn(move || help_loop(&queue))
                    .is_ok()
            })
            .count();
        Self { tickets, helpers }
    }

    /// The process-wide pool. Its one-time start is an
    /// `estimator:pool_start` span inside the scan that triggers it.
    fn global() -> &'static Self {
        static POOL: OnceLock<ScanPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let span = obs::span::enter("estimator:pool_start");
            let pool = Self::new(available_workers().saturating_sub(1));
            span.attr("helpers", pool.helpers as u64);
            pool
        })
    }

    /// Counts records `0..n` in chunks of `chunk`, each chunk's `width`
    /// partial counts coming from `count`, and sums them.
    ///
    /// # Panics
    ///
    /// Panics with `count worker panicked` if `count` panicked on a
    /// helper; a panic on the calling thread propagates as itself.
    fn fork_join<F>(&self, n: usize, chunk: usize, width: usize, count: F) -> Forked
    where
        F: Fn(Range<usize>) -> Vec<usize> + Send + Sync + 'static,
    {
        let chunks = n.div_ceil(chunk);
        let job = Arc::new(Job {
            n,
            chunk,
            width,
            cursor: AtomicUsize::new(0),
            count,
            state: Mutex::new(JobState {
                counts: vec![0; width],
                busy: 0,
                helped: 0,
                failed: false,
            }),
            idle: Condvar::new(),
        });
        let mut posted = 0;
        for _ in 0..self.helpers.min(chunks - 1) {
            // The queue's send/recv orders everything the caller wrote
            // before posting (the lane width included) before the
            // helper's reads. A send error means no helper is left, and
            // the caller then claims every chunk itself.
            if self.tickets.send(Arc::clone(&job) as Ticket).is_ok() {
                posted += 1;
            }
        }
        let mut own = vec![0; width];
        job.claim_chunks(&mut own);
        let mut state = job.lock();
        add_counts(&mut state.counts, own);
        while state.busy > 0 {
            state = job.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        assert!(!state.failed, "count worker panicked");
        Forked {
            counts: std::mem::take(&mut state.counts),
            chunks,
            threads: 1 + posted,
            helped: state.helped,
        }
    }
}

/// A helper's life: wait for a ticket, help with its job, repeat. Ends
/// when the pool (the queue's only sender) is dropped.
fn help_loop(queue: &Mutex<mpsc::Receiver<Ticket>>) {
    // A poisoned queue lock is harmless: the receiver has no state of
    // ours to leave half-updated.
    loop {
        let ticket = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
        match ticket {
            Ok(ticket) => ticket.help(),
            Err(mpsc::RecvError) => return,
        }
    }
}

/// One pooled scan: the chunk cursor every participant claims from, the
/// chunk-counting closure, and the accumulator the helpers fold their
/// partial counts into.
struct Job<F> {
    n: usize,
    chunk: usize,
    /// Values counted per chunk.
    width: usize,
    /// Start of the next unclaimed chunk; `≥ n` once every chunk is
    /// claimed.
    cursor: AtomicUsize,
    count: F,
    state: Mutex<JobState>,
    /// Signalled whenever a helper leaves the job.
    idle: Condvar,
}

/// The mutable half of a [`Job`], behind its mutex.
struct JobState {
    /// Partial counts folded in so far.
    counts: Vec<usize>,
    /// Helpers inside the job (they may hold claimed chunks).
    busy: usize,
    /// Chunks counted by helpers.
    helped: usize,
    /// Whether a chunk panicked on a helper.
    failed: bool,
}

impl<F: Fn(Range<usize>) -> Vec<usize>> Job<F> {
    /// The state, even past a poisoned lock: chunks run outside it, and
    /// every update under it is one field write, valid at every step.
    fn lock(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims and counts chunks into `sums` until the cursor runs out;
    /// returns how many chunks this thread counted.
    fn claim_chunks(&self, sums: &mut [usize]) -> usize {
        let mut claimed = 0;
        loop {
            // Partial counts and the `busy` mark travel under the `state`
            // mutex, which orders a helper's entry before its first claim
            // against the caller's final wait.
            // ord: the RMW alone makes every claim unique
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return claimed;
            }
            let part = (self.count)(start..self.n.min(start + self.chunk));
            add_counts(sums, part);
            claimed += 1;
        }
    }
}

impl<F: Fn(Range<usize>) -> Vec<usize>> Help for Job<F> {
    fn help(&self) {
        // ord: a stale read only sends this helper through the mutex
        // below to find nothing left to claim.
        if self.cursor.load(Ordering::Relaxed) >= self.n {
            return; // the caller (or another helper) took every chunk
        }
        self.lock().busy += 1;
        let mut sums = vec![0; self.width];
        let claimed = panic::catch_unwind(AssertUnwindSafe(|| self.claim_chunks(&mut sums)));
        let mut state = self.lock();
        match claimed {
            Ok(claimed) => {
                add_counts(&mut state.counts, sums);
                state.helped += claimed;
            }
            Err(_) => {
                state.failed = true;
                // Mark the job done: the caller claims no further chunks.
                // ord: as in `claim_chunks`; the counts are discarded
                self.cursor.fetch_max(self.n, Ordering::Relaxed);
            }
        }
        state.busy -= 1;
        drop(state);
        self.idle.notify_all();
    }
}

/// `total[t] += part[t]` for every value `t`.
fn add_counts(total: &mut [usize], part: Vec<usize>) {
    for (total, part) in total.iter_mut().zip(part) {
        *total += part;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Profile, UserId};
    use crate::sketcher::Sketcher;
    use psketch_prf::{GlobalKey, PrfKind, Prg};
    use rand::SeedableRng;

    fn params(p: f64) -> SketchParams {
        SketchParams::with_sip(p, 10, GlobalKey::from_seed(21)).unwrap()
    }

    /// Builds a database where a known fraction of users satisfies the
    /// all-ones value on a k-bit subset.
    fn build_db(p: f64, k: usize, m: u64, true_fraction: f64) -> (SketchDb, BitSubset) {
        build_db_with(params(p), k, m, true_fraction)
    }

    fn build_db_with(
        params: SketchParams,
        k: usize,
        m: u64,
        true_fraction: f64,
    ) -> (SketchDb, BitSubset) {
        let sketcher = Sketcher::new(params);
        let subset = BitSubset::range(0, k as u32);
        let db = SketchDb::new();
        let mut rng = Prg::seed_from_u64(77);
        let cutoff = (true_fraction * m as f64) as u64;
        for i in 0..m {
            let profile = if i < cutoff {
                Profile::from_bits(&vec![true; k])
            } else {
                // A profile differing in the first bit.
                let mut bits = vec![true; k];
                bits[0] = false;
                Profile::from_bits(&bits)
            };
            let s = sketcher
                .sketch(UserId(i), &profile, &subset, &mut rng)
                .unwrap();
            db.insert(subset.clone(), UserId(i), s);
        }
        (db, subset)
    }

    #[test]
    fn recovers_planted_fraction() {
        let p = 0.3;
        let m = 20_000;
        let (db, subset) = build_db(p, 4, m, 0.35);
        let est = ConjunctiveEstimator::new(params(p));
        let q = ConjunctiveQuery::new(subset, BitString::from_bits(&[true; 4])).unwrap();
        let e = est.estimate(&db, &q).unwrap();
        assert_eq!(e.sample_size, m as usize);
        assert!(
            (e.fraction - 0.35).abs() < 0.03,
            "estimate {} should be near 0.35",
            e.fraction
        );
    }

    #[test]
    fn error_is_independent_of_width() {
        // The defining property: at fixed M, widening the conjunction does
        // not blow up the error.
        let p = 0.3;
        let m = 8_000;
        for k in [2usize, 8, 16] {
            let (db, subset) = build_db(p, k, m, 0.5);
            let est = ConjunctiveEstimator::new(params(p));
            let q = ConjunctiveQuery::new(subset, BitString::from_bits(&vec![true; k])).unwrap();
            let e = est.estimate(&db, &q).unwrap();
            assert!(
                (e.fraction - 0.5).abs() < 0.05,
                "width {k}: estimate {} drifted",
                e.fraction
            );
        }
    }

    #[test]
    fn negated_attributes_are_supported() {
        // Count the complement population: users with first bit = 0.
        let p = 0.25;
        let m = 10_000;
        let (db, subset) = build_db(p, 4, m, 0.2);
        let est = ConjunctiveEstimator::new(params(p));
        let mut v = vec![true; 4];
        v[0] = false; // negation of x0, conjunction of the rest
        let q = ConjunctiveQuery::new(subset, BitString::from_bits(&v)).unwrap();
        let e = est.estimate(&db, &q).unwrap();
        assert!(
            (e.fraction - 0.8).abs() < 0.04,
            "negated estimate {} should be near 0.8",
            e.fraction
        );
    }

    #[test]
    fn width_mismatch_rejected() {
        let subset = BitSubset::range(0, 3);
        assert!(matches!(
            ConjunctiveQuery::new(subset, BitString::from_bits(&[true])),
            Err(Error::WidthMismatch { .. })
        ));
    }

    #[test]
    fn unknown_subset_surfaces() {
        let est = ConjunctiveEstimator::new(params(0.3));
        let db = SketchDb::new();
        let q = ConjunctiveQuery::new(BitSubset::single(0), BitString::from_bits(&[true])).unwrap();
        assert!(matches!(
            est.estimate(&db, &q),
            Err(Error::UnknownSubset { .. })
        ));
    }

    #[test]
    fn estimate_bookkeeping() {
        let e = Estimate {
            fraction: 1.2,
            raw: 0.9,
            sample_size: 100,
            p: 0.3,
        };
        assert_eq!(e.clamped(), 1.0);
        assert_eq!(e.count(50), 50.0);
        assert!(e.half_width(0.05) > 0.0);
        assert!(e.lemma41_failure_prob(0.1) < 1.0);
        let empty = Estimate {
            fraction: 0.0,
            raw: 0.0,
            sample_size: 0,
            p: 0.3,
        };
        assert_eq!(empty.half_width(0.05), f64::INFINITY);
    }

    #[test]
    fn half_width_shrinks_with_samples() {
        let mk = |n| Estimate {
            fraction: 0.5,
            raw: 0.5,
            sample_size: n,
            p: 0.3,
        };
        assert!(mk(10_000).half_width(0.05) < mk(100).half_width(0.05) / 5.0);
    }

    #[test]
    fn batched_equals_scalar_bitwise() {
        // The acceptance bar for the batched pipeline: not "close", but
        // bit-identical to the scalar reference path.
        let p = 0.3;
        let (db, subset) = build_db(p, 5, 3_000, 0.4);
        let est = ConjunctiveEstimator::new(params(p));
        for value in [0u64, 1, 17, 31] {
            let q = ConjunctiveQuery::new(subset.clone(), BitString::from_u64(value, 5)).unwrap();
            let batched = est.estimate(&db, &q).unwrap();
            let scalar = est.estimate_scalar(&db, &q).unwrap();
            assert_eq!(batched.fraction.to_bits(), scalar.fraction.to_bits());
            assert_eq!(batched.raw.to_bits(), scalar.raw.to_bits());
            assert_eq!(batched.sample_size, scalar.sample_size);
        }
    }

    #[test]
    fn snapshot_estimation_matches_db_estimation() {
        let p = 0.25;
        let (db, subset) = build_db(p, 3, 2_000, 0.5);
        let est = ConjunctiveEstimator::new(params(p));
        let snap = db.snapshot(&subset).unwrap();
        let q = ConjunctiveQuery::new(subset, BitString::from_bits(&[true; 3])).unwrap();
        assert_eq!(
            est.estimate_snapshot(&snap, &q).unwrap(),
            est.estimate(&db, &q).unwrap()
        );
    }

    #[test]
    fn one_pass_distribution_equals_scalar_scans() {
        let p = 0.3;
        let (db, subset) = build_db(p, 4, 1_500, 0.6);
        let est = ConjunctiveEstimator::new(params(p));
        let dist = est.estimate_distribution(&db, &subset).unwrap();
        assert_eq!(dist.len(), 16);
        for (value, batched) in dist.iter().enumerate() {
            let q = ConjunctiveQuery::new(subset.clone(), BitString::from_u64(value as u64, 4))
                .unwrap();
            let scalar = est.estimate_scalar(&db, &q).unwrap();
            assert_eq!(batched.fraction.to_bits(), scalar.fraction.to_bits());
            assert_eq!(batched.raw.to_bits(), scalar.raw.to_bits());
        }
    }

    #[test]
    fn parallel_chunking_is_exact() {
        // Cross the parallel threshold and verify against the scalar path
        // (chunked counts must sum to exactly the sequential count).
        let p = 0.3;
        let m = (super::PARALLEL_THRESHOLD + 1_000) as u64;
        let (db, subset) = build_db(p, 2, m, 0.5);
        let est = ConjunctiveEstimator::new(params(p));
        let q = ConjunctiveQuery::new(subset, BitString::from_bits(&[true; 2])).unwrap();
        let batched = est.estimate(&db, &q).unwrap();
        let scalar = est.estimate_scalar(&db, &q).unwrap();
        assert_eq!(batched.raw.to_bits(), scalar.raw.to_bits());
        assert_eq!(batched.sample_size, m as usize);
    }

    #[test]
    fn counts_invert_to_the_estimate_bitwise() {
        let p = 0.3;
        let (db, subset) = build_db(p, 4, 2_500, 0.35);
        let est = ConjunctiveEstimator::new(params(p));
        let q = ConjunctiveQuery::new(subset.clone(), BitString::from_bits(&[true; 4])).unwrap();
        let (ones, n) = est.count(&db, &q).unwrap();
        assert_eq!(n, 2_500);
        let from_counts = Estimate::from_counts(ones, n, p);
        let scanned = est.estimate(&db, &q).unwrap();
        assert_eq!(from_counts.fraction.to_bits(), scanned.fraction.to_bits());
        assert_eq!(from_counts.raw.to_bits(), scanned.raw.to_bits());
        assert_eq!(from_counts.sample_size, scanned.sample_size);

        let (dist_ones, dist_n) = est.count_distribution(&db, &subset).unwrap();
        let dist = est.estimate_distribution(&db, &subset).unwrap();
        assert_eq!(dist_ones.len(), 16);
        for (count, scanned) in dist_ones.iter().zip(&dist) {
            let e = Estimate::from_counts(*count, dist_n, p);
            assert_eq!(e.fraction.to_bits(), scanned.fraction.to_bits());
        }
    }

    /// `count_terms` over `queries` equals `count_terms_partial`, the
    /// per-term `count`, and the scalar reference path's raw fraction.
    fn assert_terms_match_per_term(
        est: &ConjunctiveEstimator,
        db: &SketchDb,
        queries: &[ConjunctiveQuery],
    ) {
        let batched = est.count_terms(db, queries).unwrap();
        let partial = est.count_terms_partial(db, queries);
        assert_eq!(batched, partial);
        for (q, &(ones, n)) in queries.iter().zip(&batched) {
            assert_eq!((ones, n), est.count(db, q).unwrap());
            let scalar = est.estimate_scalar(db, q).unwrap();
            let p = est.params().p();
            assert_eq!(
                Estimate::from_counts(ones, n, p).raw.to_bits(),
                scalar.raw.to_bits()
            );
        }
    }

    #[test]
    fn count_terms_matches_per_term_counts() {
        let p = 0.3;
        let (db, subset) = build_db(p, 4, 2_000, 0.4);
        let est = ConjunctiveEstimator::new(params(p));
        let terms = |subset: &BitSubset, values: &[u64]| -> Vec<ConjunctiveQuery> {
            values
                .iter()
                .map(|&v| {
                    ConjunctiveQuery::new(subset.clone(), BitString::from_u64(v, subset.len()))
                        .unwrap()
                })
                .collect()
        };
        // A sparse pair, the full value space, a 6-of-16 group (the
        // `sumlt` shape) and a duplicated term: each subset group is one
        // fused scan, and every count must match the per-term oracle.
        let all: Vec<u64> = (0..16).collect();
        for values in [&[3u64, 9][..], &all, &[0, 1, 2, 4, 5, 8], &[3, 9, 3]] {
            assert_terms_match_per_term(&est, &db, &terms(&subset, values));
        }
        // A 25-bit value: its tail is 8 bytes, so the generic per-value
        // loop counts it.
        let (wide_db, wide) = build_db(p, 25, 300, 0.5);
        assert_terms_match_per_term(&est, &wide_db, &terms(&wide, &[0, (1 << 25) - 1, 12345]));
        // The ChaCha family.
        let chacha = SketchParams::new(p, 10, GlobalKey::from_seed(21), PrfKind::ChaCha).unwrap();
        let (chacha_db, small) = build_db_with(chacha, 3, 600, 0.5);
        let chacha_est = ConjunctiveEstimator::new(chacha);
        assert_terms_match_per_term(&chacha_est, &chacha_db, &terms(&small, &[0, 5, 7, 5]));

        // Unknown subsets: strict errors, partial reports empty shares.
        let unknown =
            ConjunctiveQuery::new(BitSubset::single(40), BitString::from_bits(&[true])).unwrap();
        assert!(matches!(
            est.count_terms(&db, std::slice::from_ref(&unknown)),
            Err(Error::UnknownSubset { .. })
        ));
        assert_eq!(est.count_terms_partial(&db, &[unknown]), vec![(0, 0)]);
    }

    #[test]
    fn partitioned_counts_sum_to_whole_pool_counts() {
        // The sharding invariant: counts over any partition of the
        // records sum to exactly the whole-pool counts.
        let p = 0.25;
        let params = params(p);
        let sketcher = Sketcher::new(params);
        let subset = BitSubset::range(0, 3);
        let whole = SketchDb::new();
        let shards = [SketchDb::new(), SketchDb::new(), SketchDb::new()];
        let mut rng = Prg::seed_from_u64(99);
        for i in 0..3_000u64 {
            let profile = Profile::from_bits(&[i % 2 == 0, i % 3 == 0, i % 5 == 0]);
            let s = sketcher
                .sketch(UserId(i), &profile, &subset, &mut rng)
                .unwrap();
            whole.insert(subset.clone(), UserId(i), s);
            shards[(i % 3) as usize].insert(subset.clone(), UserId(i), s);
        }
        let est = ConjunctiveEstimator::new(params);
        let q = ConjunctiveQuery::new(subset.clone(), BitString::from_bits(&[true; 3])).unwrap();
        let (whole_ones, whole_n) = est.count(&whole, &q).unwrap();
        let mut ones = 0;
        let mut n = 0;
        for shard in &shards {
            let (o, m) = est.count(shard, &q).unwrap();
            ones += o;
            n += m;
        }
        assert_eq!((ones, n), (whole_ones, whole_n));
    }

    #[test]
    fn distribution_sums_to_approximately_one() {
        let p = 0.3;
        let (db, subset) = build_db(p, 3, 12_000, 0.6);
        let est = ConjunctiveEstimator::new(params(p));
        let dist = est.estimate_distribution(&db, &subset).unwrap();
        assert_eq!(dist.len(), 8);
        let total: f64 = dist.iter().map(|e| e.fraction).sum();
        // Each of the 8 estimates is unbiased; their sum concentrates at 1.
        assert!((total - 1.0).abs() < 0.1, "distribution total {total}");
    }

    /// Runs `body` on its own thread and fails — rather than hangs — if
    /// it does not finish within a minute; a panic in `body` is re-raised.
    fn under_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                if let Err(panic) = worker.join() {
                    panic::resume_unwind(panic);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("scan pool hung"),
        }
    }

    /// A chunk closure counting one per record. On the calling thread it
    /// first waits until a helper has started a chunk, so every scan it
    /// drives is helped; on a helper it panics if `fail_on_helper`.
    fn helped_chunks(
        caller: std::thread::ThreadId,
        fail_on_helper: bool,
    ) -> impl Fn(Range<usize>) -> Vec<usize> + Send + Sync + 'static {
        let helper_started = Arc::new(std::sync::atomic::AtomicBool::new(false));
        move |range| {
            if std::thread::current().id() == caller {
                while !helper_started.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            } else {
                helper_started.store(true, Ordering::SeqCst);
                assert!(!fail_on_helper, "chunk panicked on purpose");
            }
            vec![range.len()]
        }
    }

    #[test]
    fn helper_panic_reaches_the_caller_and_the_pool_keeps_serving() {
        under_watchdog(|| {
            let pool = ScanPool::new(1);
            assert_eq!(pool.helpers, 1);
            let caller = std::thread::current().id();
            let (n, chunk) = (10 * 4096 + 3, 4096);
            let failed = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.fork_join(n, chunk, 1, helped_chunks(caller, true))
            }))
            .err()
            .expect("a helper's panic must reach the caller");
            assert_eq!(
                failed.downcast_ref::<&str>().copied(),
                Some("count worker panicked")
            );
            // The helper survived its chunk's panic and serves the next scan.
            let scan = pool.fork_join(n, chunk, 1, helped_chunks(caller, false));
            assert_eq!(scan.counts, vec![n]);
            assert_eq!(scan.chunks, 11);
            assert_eq!(scan.threads, 2);
            assert!(scan.helped >= 1, "the helper counted no chunk");
        });
    }

    /// Record counts that straddle the scan's split points: both sides of
    /// the `4096·k` chunk edges (all with `n % 8 ≠ 0`), a size whose chunks
    /// are `n / (4·threads)` long, and both sides of the threshold for
    /// `values` values.
    fn edge_sizes(values: usize) -> Vec<usize> {
        let mut sizes: Vec<usize> = (1..=4).flat_map(|k| [4096 * k - 1, 4096 * k + 1]).collect();
        sizes.push(33_003);
        let crossing = PARALLEL_THRESHOLD.div_ceil(values);
        sizes.extend([crossing - 1, crossing]);
        sizes
    }

    /// `n` records with distinct ids and arbitrary keys.
    fn columns(n: usize) -> (Vec<u64>, Vec<u64>) {
        let ids: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
        let keys = ids
            .iter()
            .map(|id| id.wrapping_mul(0x9E37_79B9) >> 22)
            .collect();
        (ids, keys)
    }

    /// The single-threaded `PreparedH::count_values` counts of every
    /// value of a `k`-bit subset over [`columns`]`(n)`, computed once per
    /// `(n, k)` and shared by every case.
    fn oracle(params: SketchParams, n: usize, k: usize) -> Vec<usize> {
        type Cache = Mutex<std::collections::HashMap<(usize, usize), Vec<usize>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = CACHE.get_or_init(Cache::default);
        if let Some(counts) = cache.lock().unwrap().get(&(n, k)) {
            return counts.clone();
        }
        let subset = BitSubset::range(0, k as u32);
        let (ids, keys) = columns(n);
        let prepared = HFunction::new(&params).prepare(&subset, k);
        let counts = prepared.count_values(&ids, &keys, &all_values(&subset));
        cache.lock().unwrap().insert((n, k), counts.clone());
        counts
    }

    proptest::proptest! {
        #[test]
        fn concurrent_pooled_scans_match_the_single_thread_oracle(
            draws in proptest::collection::vec((0usize..11, 1usize..=6, 0u64..1 << 18), 8)
        ) {
            // 8 threads (the server's default worker count) scan their own
            // pools at once, every pooled scan sharing the one scan pool.
            let params = params(0.3);
            let start = Arc::new(std::sync::Barrier::new(draws.len()));
            let workers: Vec<_> = draws
                .into_iter()
                .enumerate()
                .map(|(t, (pick, values, picks))| {
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        let n = edge_sizes(values)[pick];
                        let k = if t % 2 == 0 { 3 } else { 1 + values % 2 };
                        let subset = BitSubset::range(0, k as u32);
                        let db = SketchDb::new();
                        let (ids, keys) = columns(n);
                        db.insert_columns(subset.clone(), ids, keys);
                        let est = ConjunctiveEstimator::new(params);
                        let expected = oracle(params, n, k);
                        start.wait();
                        if t % 2 == 0 {
                            // 1–6 terms on a 3-bit subset, duplicates allowed.
                            let picked: Vec<u64> = (0..values).map(|j| (picks >> (3 * j)) & 7).collect();
                            let terms: Vec<ConjunctiveQuery> = picked
                                .iter()
                                .map(|&v| ConjunctiveQuery::new(subset.clone(), BitString::from_u64(v, k)).unwrap())
                                .collect();
                            let counts = est.count_terms(&db, &terms).unwrap();
                            let oracle: Vec<(u64, u64)> =
                                picked.iter().map(|&v| (expected[v as usize] as u64, n as u64)).collect();
                            assert_eq!(counts, oracle, "count_terms: n = {n}, values = {picked:?}");
                        } else {
                            // Every value of a 1- or 2-bit subset: 2 or 4 values.
                            let (counts, population) = est.count_distribution(&db, &subset).unwrap();
                            let oracle: Vec<u64> = expected.iter().map(|&c| c as u64).collect();
                            assert_eq!(population, n as u64);
                            assert_eq!(counts, oracle, "count_distribution: n = {n}, k = {k}");
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }
        }
    }
}

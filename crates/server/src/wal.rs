//! Write-ahead log and snapshot store: crash-safe sketch-pool state.
//!
//! The pool is rebuilt from two files in the store directory:
//!
//! * `wal.log` — an append-only sequence of CRC-framed records, fsync'd
//!   before a batch is acknowledged. Record layout:
//!
//!   ```text
//!   u32 LE payload length ‖ u32 LE CRC-32 (IEEE, over payload) ‖ payload
//!   payload: u8 tag ‖ body
//!       tag 1 = announcement (body: wire announcement encoding)
//!       tag 2 = submission batch (body: wire submission-list encoding)
//!   ```
//!
//! * `snapshot.bin` — the compacted state: announcement, counters, the
//!   accepted-user set, and every shard's columns with the sketch-key
//!   column bit-packed through [`psketch_core::codec`] (each key costs
//!   `sketch_bits` bits on disk, same as on the wire).
//!
//! Live ingestion logs each `SubmitBatch` frame body as received, so a
//! batch record's body is that frame's submission list. Replay loads the
//! snapshot (if any), then decodes each batch record straight into
//! columns and applies it through [`Coordinator::apply_batch`] — the
//! same decoder and apply step live ingestion runs, so a replayed pool
//! is *identical* to the pre-crash pool. A
//! torn final record (the crash happened mid-append) is tolerated: the
//! log is truncated back to the last fully committed record. Anything
//! bad *before* that is real corruption and refuses to load.
//!
//! Compaction: once the log exceeds the configured threshold the whole
//! state is written to `snapshot.tmp`, fsync'd, renamed over
//! `snapshot.bin`, and the log is truncated. If the process dies between
//! the rename and the truncation, replaying the stale log records is
//! harmless — the restored user set rejects every one of them as a
//! duplicate (the duplicate counter inflates; the pool does not).

use crate::wire;
use psketch_core::codec::{encode_bundle, open_bundle};
use psketch_core::{BitSubset, Sketch, SketchDb, UserId};
use psketch_obs::{self as obs};
use psketch_protocol::{Announcement, Coordinator, CoordinatorStats, Submission};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const TAG_ANNOUNCEMENT: u8 = 1;
const TAG_BATCH: u8 = 2;

/// Magic prefix of `snapshot.bin`.
const SNAPSHOT_MAGIC: &[u8; 8] = b"PSKSNAP1";

/// Hard ceiling on one WAL record payload (matches the wire frame limit;
/// a batch that fits in a frame fits in a record).
const MAX_RECORD_BYTES: usize = wire::MAX_FRAME_BYTES;

/// Errors from the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(io::Error),
    /// Store contents invalid beyond the tolerated torn tail.
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal i/o error: {e}"),
            Self::Corrupt(reason) => write!(f, "wal corrupt: {reason}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

fn corrupt(reason: impl Into<String>) -> WalError {
    WalError::Corrupt(reason.into())
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, table-driven, built at compile time).
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------

/// Configuration of the durability layer.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding `wal.log` and `snapshot.bin` (created if absent).
    pub dir: PathBuf,
    /// Compact once the log exceeds this many bytes.
    pub compact_threshold_bytes: u64,
}

impl WalConfig {
    /// A config with the default 64 MiB compaction threshold.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            compact_threshold_bytes: 64 << 20,
        }
    }
}

/// The open write-ahead log (plus its snapshot sibling).
#[derive(Debug)]
pub struct Wal {
    log: File,
    log_path: PathBuf,
    snap_path: PathBuf,
    tmp_path: PathBuf,
    dir: PathBuf,
    log_bytes: u64,
    compact_threshold: u64,
    /// Set when a failed append could not be rolled back: the file may
    /// end in partial record bytes, so appending after them would bury
    /// durably-acked records behind garbage that replay refuses. A
    /// poisoned log rejects every further append.
    poisoned: bool,
}

impl Wal {
    /// Opens the store in `config.dir` (creating the directory if
    /// needed) and replays any persisted state.
    ///
    /// Returns the open log and the recovered coordinator, or `None`
    /// when the store is fresh (no snapshot, no announcement record).
    ///
    /// # Errors
    ///
    /// I/O failures, or [`WalError::Corrupt`] for damage beyond a torn
    /// final log record.
    pub fn open(config: &WalConfig) -> Result<(Self, Option<Coordinator>), WalError> {
        std::fs::create_dir_all(&config.dir)?;
        let log_path = config.dir.join("wal.log");
        let snap_path = config.dir.join("snapshot.bin");
        let tmp_path = config.dir.join("snapshot.tmp");
        // A leftover snapshot.tmp is an aborted compaction; the real
        // snapshot (if any) is intact, so just discard the partial file.
        let _ = std::fs::remove_file(&tmp_path);

        let mut coordinator = match std::fs::read(&snap_path) {
            Ok(bytes) => Some(decode_snapshot(&bytes)?),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        let mut log = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&log_path)?;
        let replay_started = Instant::now();
        let committed = replay_log(&mut log, &mut coordinator)?;
        obs::histogram("psketch_wal_replay_nanos", &[]).record_duration(replay_started.elapsed());
        obs::counter("psketch_wal_replay_bytes_total", &[]).add(committed);
        obs::log::info("psketch::wal")
            .field("log_bytes", committed)
            .field("elapsed_us", replay_started.elapsed().as_micros())
            .emit("replayed");
        // Drop a torn tail so the next append starts at a record
        // boundary.
        let len = log.metadata()?.len();
        if committed < len {
            log.set_len(committed)?;
            log.sync_data()?;
        }
        log.seek(SeekFrom::End(0))?;

        let wal = Self {
            log,
            log_path,
            snap_path,
            tmp_path,
            dir: config.dir.clone(),
            log_bytes: committed,
            compact_threshold: config.compact_threshold_bytes,
            poisoned: false,
        };
        Ok((wal, coordinator))
    }

    /// Bytes of committed log (diagnostics, compaction trigger).
    #[must_use]
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Whether the log has outgrown the compaction threshold.
    #[must_use]
    pub fn should_compact(&self) -> bool {
        self.log_bytes > self.compact_threshold
    }

    /// Appends and fsyncs the announcement record (once, when a fresh
    /// store is initialized).
    ///
    /// # Errors
    ///
    /// I/O failures; the record is not committed unless this returns
    /// `Ok`.
    pub fn record_announcement(&mut self, ann: &Announcement) -> Result<(), WalError> {
        let mut body = Vec::new();
        wire::put_announcement(&mut body, ann);
        self.append(TAG_ANNOUNCEMENT, &body)
    }

    /// Appends and fsyncs one submission batch. Call *before* applying
    /// the batch to the live pool and *before* acknowledging the client:
    /// once this returns, the batch survives a crash.
    ///
    /// # Errors
    ///
    /// I/O failures; the record is not committed unless this returns
    /// `Ok`.
    pub fn record_batch(&mut self, subs: &[Submission]) -> Result<(), WalError> {
        let mut body = Vec::new();
        wire::put_submissions(&mut body, subs);
        self.record_batch_body(&body)
    }

    /// As [`Wal::record_batch`] for a batch already encoded as a
    /// submission list — a `SubmitBatch` frame body exactly as received.
    /// The encoding is canonical, so the record is byte-identical to
    /// the one [`Wal::record_batch`] writes for the decoded batch. Log
    /// only a body the wire decoder accepted: replay refuses a batch
    /// record that does not parse.
    ///
    /// # Errors
    ///
    /// As [`Wal::record_batch`].
    pub fn record_batch_body(&mut self, body: &[u8]) -> Result<(), WalError> {
        self.append(TAG_BATCH, body)
    }

    /// Appends and fsyncs the record `tag ‖ body`.
    fn append(&mut self, tag: u8, body: &[u8]) -> Result<(), WalError> {
        if self.poisoned {
            return Err(corrupt(
                "log poisoned by an earlier unrecoverable append failure",
            ));
        }
        let len = 1 + body.len();
        if len > MAX_RECORD_BYTES {
            return Err(corrupt(format!(
                "record payload {len} exceeds {MAX_RECORD_BYTES} bytes"
            )));
        }
        let mut framed = Vec::with_capacity(8 + len);
        framed.extend_from_slice(&(len as u32).to_le_bytes());
        framed.extend_from_slice(&[0; 4]);
        framed.push(tag);
        framed.extend_from_slice(body);
        let crc = crc32(&framed[8..]);
        framed[4..8].copy_from_slice(&crc.to_le_bytes());
        let started = Instant::now();
        let wrote = self.log.write_all(&framed);
        let write_elapsed = started.elapsed();
        let wrote = wrote.and_then(|()| self.log.sync_data());
        obs::histogram("psketch_wal_append_nanos", &[]).record_duration(started.elapsed());
        obs::histogram("psketch_wal_fsync_nanos", &[])
            .record_duration(started.elapsed().saturating_sub(write_elapsed));
        obs::histogram("psketch_wal_record_bytes", &[]).record(framed.len() as u64);
        if let Err(e) = wrote {
            // A failed write (ENOSPC, I/O error) may have landed some of
            // the record's bytes; roll the file back to the last record
            // boundary so a later successful append is still replayable.
            if self
                .log
                .set_len(self.log_bytes)
                .and_then(|()| self.log.sync_data())
                .is_err()
            {
                self.poisoned = true;
            }
            return Err(e.into());
        }
        self.log_bytes += framed.len() as u64;
        Ok(())
    }

    /// Writes the full current state as a snapshot and truncates the
    /// log. Crash-safe: the new snapshot lands via `rename`, and the log
    /// is only truncated after the snapshot (and the directory entry)
    /// are durable.
    ///
    /// # Errors
    ///
    /// I/O failures. On error the store remains recoverable: either the
    /// old snapshot + full log, or the new snapshot + (possibly stale)
    /// log, both replay to the same pool.
    pub fn compact(&mut self, coordinator: &Coordinator) -> Result<(), WalError> {
        let started = Instant::now();
        let log_before = self.log_bytes;
        let bytes = encode_snapshot(coordinator)?;
        let mut tmp = File::create(&self.tmp_path)?;
        tmp.write_all(&bytes)?;
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&self.tmp_path, &self.snap_path)?;
        sync_dir(&self.dir)?;
        // Re-open rather than set_len(0) on the append handle: append
        // mode positions every write at EOF anyway, but a fresh handle
        // keeps the offset bookkeeping obvious.
        self.log = OpenOptions::new()
            .read(true)
            .write(true)
            .truncate(true)
            .open(&self.log_path)?;
        self.log.sync_data()?;
        self.log_bytes = 0;
        obs::histogram("psketch_wal_compact_nanos", &[]).record_duration(started.elapsed());
        obs::counter("psketch_wal_compactions_total", &[]).inc();
        obs::log::info("psketch::wal")
            .field("log_bytes_before", log_before)
            .field("snapshot_bytes", bytes.len())
            .field("elapsed_us", started.elapsed().as_micros())
            .emit("compacted");
        Ok(())
    }
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync is how a rename becomes durable on Linux; other
    // platforms may refuse to open a directory — best effort there.
    match File::open(dir) {
        Ok(d) => d.sync_all().or(Ok(())),
        Err(_) => Ok(()),
    }
}

/// Replays committed log records into `coordinator`, creating it from
/// an announcement record when the snapshot did not provide one.
/// Returns the byte offset of the end of the last fully committed
/// record.
///
/// A record that fails its length or CRC check is only a *torn tail*
/// if nothing after it looks like a committed record; if an intact
/// record follows the damage, this is mid-log corruption, and replay
/// refuses rather than silently truncating away committed batches.
fn replay_log(log: &mut File, coordinator: &mut Option<Coordinator>) -> Result<u64, WalError> {
    let mut data = Vec::new();
    log.seek(SeekFrom::Start(0))?;
    log.read_to_end(&mut data)?;
    let mut offset = 0usize;
    loop {
        let rest = &data[offset..];
        if rest.len() < 8 {
            break; // clean EOF or torn header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        // len == 0 is never written (payloads always carry a tag byte),
        // so it means a zero-filled torn region, not a record.
        let committed = len > 0
            && len <= MAX_RECORD_BYTES
            && rest
                .get(8..8 + len)
                .is_some_and(|payload| crc32(payload) == crc);
        if !committed {
            if contains_committed_record(&rest[1..]) {
                return Err(corrupt(format!(
                    "damaged record at byte {offset} is followed by intact records; \
                     refusing to truncate committed data (inspect or restore the log)"
                )));
            }
            break; // genuine torn tail: nothing valid follows
        }
        apply_record(&rest[8..8 + len], coordinator)?;
        offset += 8 + len;
    }
    Ok(offset as u64)
}

/// Whether some byte offset in `data` starts a chain of CRC-valid
/// records that runs exactly to EOF — the signature of intact committed
/// records stranded behind damage.
///
/// Requiring the chain to reach EOF (not just one valid-looking record
/// anywhere) keeps record *images embedded inside record payloads* —
/// submission bundles are attacker-controlled bytes — from masquerading
/// as committed records when they end up inside a torn tail: garbage
/// follows the embedded image, so its chain never reaches EOF. Only
/// runs on the already-damaged path, so the quadratic worst case on
/// pathological garbage is acceptable; a genuine torn tail is at most
/// one partial record and scans quickly.
fn contains_committed_record(data: &[u8]) -> bool {
    (0..data.len().saturating_sub(8)).any(|start| record_chain_reaches_eof(&data[start..]))
}

fn record_chain_reaches_eof(mut rest: &[u8]) -> bool {
    let mut records = 0usize;
    loop {
        if rest.is_empty() {
            return records > 0;
        }
        if rest.len() < 8 {
            return false;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_RECORD_BYTES {
            return false;
        }
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let Some(payload) = rest.get(8..8 + len) else {
            return false;
        };
        if crc32(payload) != crc {
            return false;
        }
        records += 1;
        rest = &rest[8 + len..];
    }
}

fn apply_record(payload: &[u8], coordinator: &mut Option<Coordinator>) -> Result<(), WalError> {
    let (tag, body) = payload
        .split_first()
        .ok_or_else(|| corrupt("empty record payload"))?;
    match *tag {
        TAG_ANNOUNCEMENT => {
            let ann = wire::decode_announcement(body)
                .map_err(|e| corrupt(format!("bad announcement record: {e}")))?;
            match coordinator {
                None => *coordinator = Some(Coordinator::new(ann)),
                // A matching announcement record under a restored
                // snapshot is the stale log of a compaction that
                // crashed between the snapshot rename and the log
                // truncate — replaying it is a no-op, exactly like the
                // stale batch records that follow it.
                Some(c) if c.announcement() == &ann => {}
                Some(_) => {
                    return Err(corrupt("log announcement disagrees with the snapshot's"));
                }
            }
        }
        TAG_BATCH => {
            let Some(c) = coordinator.as_ref() else {
                return Err(corrupt("batch record before any announcement"));
            };
            let batch = wire::decode_submit_body(body, c)
                .map_err(|e| corrupt(format!("bad batch record: {e}")))?;
            c.apply_batch(batch);
        }
        other => return Err(corrupt(format!("unknown record tag {other}"))),
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Snapshot encoding.
// ---------------------------------------------------------------------

fn encode_snapshot(coordinator: &Coordinator) -> Result<Vec<u8>, WalError> {
    let ann = coordinator.announcement();
    let stats = coordinator.stats();
    let mut payload = vec![1u8]; // snapshot format version
    wire::put_announcement(&mut payload, ann);
    for v in [
        stats.accepted,
        stats.duplicates,
        stats.malformed,
        stats.records,
    ] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let mut seen = coordinator.seen_users();
    seen.sort_unstable();
    payload.extend_from_slice(&(seen.len() as u64).to_le_bytes());
    for user in &seen {
        payload.extend_from_slice(&user.0.to_le_bytes());
    }
    let mut subsets = coordinator.pool().subsets();
    subsets.sort();
    payload.extend_from_slice(&(u32::try_from(subsets.len()).unwrap()).to_le_bytes());
    for subset in subsets {
        let snap = coordinator
            .pool()
            .snapshot(&subset)
            .map_err(|e| corrupt(format!("pool snapshot failed: {e}")))?;
        let mut sub_buf = Vec::new();
        wire::put_announcement_subset(&mut sub_buf, &subset);
        payload.extend_from_slice(&sub_buf);
        payload.extend_from_slice(&(snap.len() as u64).to_le_bytes());
        for &id in snap.ids() {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        let sketches: Vec<Sketch> = snap.keys().iter().map(|&key| Sketch { key }).collect();
        let bundle = encode_bundle(ann.sketch_bits, &sketches);
        payload.extend_from_slice(&(u32::try_from(bundle.len()).unwrap()).to_le_bytes());
        payload.extend_from_slice(&bundle);
    }

    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

fn decode_snapshot(bytes: &[u8]) -> Result<Coordinator, WalError> {
    let rest = bytes
        .strip_prefix(SNAPSHOT_MAGIC.as_slice())
        .ok_or_else(|| corrupt("snapshot magic mismatch"))?;
    if rest.len() < 8 {
        return Err(corrupt("snapshot header truncated"));
    }
    let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let payload = rest
        .get(8..8 + len)
        .ok_or_else(|| corrupt("snapshot payload truncated"))?;
    if rest.len() != 8 + len {
        return Err(corrupt("trailing bytes after snapshot"));
    }
    if crc32(payload) != crc {
        return Err(corrupt("snapshot CRC mismatch"));
    }

    let mut r = SnapReader { data: payload };
    let version = r.u8()?;
    if version != 1 {
        return Err(corrupt(format!("unknown snapshot version {version}")));
    }
    let ann = r.announcement()?;
    let stats = CoordinatorStats {
        accepted: r.u64()?,
        duplicates: r.u64()?,
        malformed: r.u64()?,
        records: r.u64()?,
    };
    let n_seen = r.u64()? as usize;
    let mut seen = Vec::with_capacity(n_seen.min(1 << 20));
    for _ in 0..n_seen {
        seen.push(UserId(r.u64()?));
    }
    let n_shards = r.u32()? as usize;
    let mut shards: Vec<(BitSubset, Vec<u64>, Vec<u64>)> = Vec::with_capacity(n_shards.min(1024));
    for _ in 0..n_shards {
        let subset = r.subset()?;
        let n = r.u64()? as usize;
        if n.saturating_mul(8) > r.data.len() {
            return Err(corrupt("shard id column truncated"));
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(r.u64()?);
        }
        let bundle_len = r.u32()? as usize;
        let bundle =
            open_bundle(r.take(bundle_len)?).map_err(|e| corrupt(format!("shard bundle: {e}")))?;
        if bundle.sketch_bits != ann.sketch_bits {
            return Err(corrupt(format!(
                "shard bundle uses {}-bit sketches, announcement says {}",
                bundle.sketch_bits, ann.sketch_bits
            )));
        }
        if bundle.count != ids.len() {
            return Err(corrupt("shard columns misaligned"));
        }
        let keys: Vec<u64> = bundle.keys().collect();
        shards.push((subset, ids, keys));
    }
    if !r.data.is_empty() {
        return Err(corrupt("trailing bytes inside snapshot payload"));
    }
    let db = SketchDb::from_columns(shards);
    Ok(Coordinator::restore(ann, seen, db, stats))
}

/// Minimal reader for the snapshot payload (the wire module's decoder
/// is frame-oriented; this one is offset-oriented).
struct SnapReader<'a> {
    data: &'a [u8],
}

impl<'a> SnapReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.data.len() < n {
            return Err(corrupt("snapshot truncated"));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn announcement(&mut self) -> Result<Announcement, WalError> {
        // Announcements are length-delimited nowhere in the snapshot, so
        // decode in place by borrowing the wire decoder on the remaining
        // bytes and advancing by what it consumed.
        let before = self.data.len();
        let (ann, consumed) = wire::decode_announcement_prefix(self.data)
            .map_err(|e| corrupt(format!("snapshot announcement: {e}")))?;
        debug_assert!(consumed <= before);
        self.data = &self.data[consumed..];
        Ok(ann)
    }

    fn subset(&mut self) -> Result<BitSubset, WalError> {
        let (subset, consumed) = wire::decode_subset_prefix(self.data)
            .map_err(|e| corrupt(format!("snapshot subset: {e}")))?;
        self.data = &self.data[consumed..];
        Ok(subset)
    }
}

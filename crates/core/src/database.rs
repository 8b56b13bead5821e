//! The analyst-side collection of published sketches.
//!
//! Once users publish sketches they become public; the analyst aggregates
//! them per attribute subset. [`SketchDb`] is that aggregation, stored
//! **columnar**: each subset owns a shard holding the user-id column and
//! the sketch-key column as plain `Vec<u64>`s, which is the layout the
//! batched Algorithm 2 scan consumes directly.
//!
//! Reads and writes are decoupled snapshot-style: writers append into a
//! shard's pending columns under a short mutex, while queries obtain an
//! [`Arc`]-shared [`SubsetSnapshot`] of the columns. Taking a snapshot is
//! an `Arc` clone whenever the shard is unchanged since the last snapshot;
//! after new appends the next snapshot re-publishes the columns once
//! (amortized over all subsequent queries). Queries therefore never
//! deep-clone records, and ingestion never blocks readers holding a
//! snapshot.
//!
//! A database built [`SketchDb::with_count_tables`] also keeps a **count
//! table** for every subset of width `k ≤ K_MAX`: the `2^k` integers
//! `#{records : H(id, B, v, s) = 1}`, one per value `v`. One sketch
//! answers every value query on its subset, so these integers and the
//! population are a narrow subset's whole Algorithm 2 answer space; an
//! append adds its records' counts (one fused pass over the new rows,
//! outside the lock) under the same mutex that grows the columns, so a
//! reader of [`SketchDb::count_table`] always sees a consistent
//! `(table, population)` pair and needs no scan.

use crate::hfun::{HFunction, PreparedH};
use crate::params::{Error, SketchParams};
use crate::profile::{BitString, BitSubset, UserId};
use crate::sketcher::Sketch;
use parking_lot::{Mutex, RwLock};
use psketch_obs as obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The widest subset that gets a count table.
///
/// Upkeep is one fused `H` pass over each appended record with all
/// `2^k` values, so it doubles with every bit, while a table answer
/// costs the same at every width. e25's sweep (`BENCH_lanes.json`
/// `count_tables`: 500-record batches, 2-vCPU AVX-512 VM) measured
/// upkeep per record of 7, 14, 24, 41, 80, 159, 325 and 710 ns for
/// k = 1..8 at the auto-probed 8 lanes (47–714 ns for k ≤ 6 and 1.4 µs
/// at k = 7 on the scalar path), against about 1.15 µs to ingest one
/// submission (e22). A table answer took 0.24–0.40 µs at every k ≤ 6,
/// where a scan of the same 262k records took 0.64–0.70 ms. At k = 6 one
/// tabled subset adds at most a seventh of a submission's ingest cost
/// at 8 lanes; at k = 7 it would add over a quarter, and on the scalar
/// path more than a whole submission.
pub(crate) const K_MAX: usize = 6;

/// Bytes held by every live count table in the process: the
/// `psketch_count_table_bytes` gauge.
static TABLE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Moves the process-wide table byte total by `added − removed` counts
/// and republishes the gauge. A table is built (registering the gauge)
/// before it can be dropped, so `Drop` never takes the registry lock.
fn account_table_bytes(added: usize, removed: usize) {
    static GAUGE: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
    let (added, removed) = (added as u64 * 8, removed as u64 * 8);
    // ord: a lone running total; nothing is published through it
    TABLE_BYTES.fetch_add(added.wrapping_sub(removed), Ordering::Relaxed);
    // ord: as above; a racing update at worst shows one stale total
    let total = TABLE_BYTES.load(Ordering::Relaxed);
    GAUGE
        .get_or_init(|| obs::gauge("psketch_count_table_bytes", &[]))
        .set(total);
}

/// One published record: a user and the sketch they released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchRecord {
    /// The publishing user.
    pub id: UserId,
    /// The published sketch.
    pub sketch: Sketch,
}

/// The two columns of a shard, in insertion order.
#[derive(Debug, Default, Clone)]
struct Columns {
    ids: Vec<u64>,
    keys: Vec<u64>,
}

impl Columns {
    /// Appends aligned columns, moving them in when nothing is held yet.
    fn extend(&mut self, ids: Vec<u64>, keys: Vec<u64>) {
        if self.ids.is_empty() {
            self.ids = ids;
            self.keys = keys;
        } else {
            self.ids.extend_from_slice(&ids);
            self.keys.extend_from_slice(&keys);
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }
}

/// What a shard's writers hold its mutex for: the columns and, for a
/// tabled shard, the count table that always matches them.
#[derive(Debug, Default)]
struct Pending {
    columns: Columns,
    /// `table[v]` counts the records with `H(id, B, v, s) = 1`, for
    /// every LSB-first value `v` of the subset; empty when untabled.
    table: Vec<u64>,
}

/// Keeps one subset's count table current: `H` prepared for the subset,
/// and every value of the subset in table order.
#[derive(Debug)]
struct Tabler {
    prepared: PreparedH,
    values: Vec<BitString>,
}

impl Tabler {
    fn new(params: &SketchParams, subset: &BitSubset) -> Self {
        let k = subset.len();
        Self {
            prepared: HFunction::new(params).prepare(subset, k),
            values: (0..1u64 << k).map(|v| BitString::from_u64(v, k)).collect(),
        }
    }

    /// Per-value `H = 1` counts over aligned columns: one fused pass.
    fn count(&self, ids: &[u64], keys: &[u64]) -> Vec<usize> {
        self.prepared.count_values(ids, keys, &self.values)
    }
}

/// One subset's columnar shard: pending (write-side) columns plus the
/// last published snapshot.
#[derive(Debug, Default)]
struct Shard {
    pending: Mutex<Pending>,
    published: RwLock<Arc<Columns>>,
    stale: AtomicBool,
    /// Set for a tabled shard.
    tabler: Option<Tabler>,
}

impl Shard {
    /// Appends aligned columns. A tabled shard counts the new rows first,
    /// outside the lock, then grows its columns and table together.
    fn append(&self, ids: Vec<u64>, keys: Vec<u64>) {
        let delta = self.tabler.as_ref().map(|tabler| {
            let span = obs::span::enter("pool:table_update");
            span.attr("records", ids.len() as u64);
            span.attr("values", tabler.values.len() as u64);
            tabler.count(&ids, &keys)
        });
        let mut pending = self.pending.lock();
        pending.columns.extend(ids, keys);
        for (count, delta) in pending.table.iter_mut().zip(delta.unwrap_or_default()) {
            *count += delta as u64;
        }
        drop(pending);
        // ord: release pairs with the AcqRel swap in `snapshot`, which
        // must observe the pending rows pushed above
        self.stale.store(true, Ordering::Release);
    }

    /// Makes this a tabled shard, counting the rows it already holds in
    /// one fused pass.
    fn build_table(&mut self, tabler: Tabler) {
        let pending = self.pending.get_mut();
        let table = tabler.count(&pending.columns.ids, &pending.columns.keys);
        account_table_bytes(table.len(), pending.table.len());
        pending.table = table.into_iter().map(|c| c as u64).collect();
        self.tabler = Some(tabler);
    }

    fn len(&self) -> usize {
        self.pending.lock().columns.len()
    }

    /// Publishes the pending columns if they changed, then hands out the
    /// current snapshot (an `Arc` clone).
    fn snapshot(&self) -> Arc<Columns> {
        // ord: acquire sees the rows behind a writer's release store;
        // release keeps a racing snapshotter honest about the clear
        if self.stale.swap(false, Ordering::AcqRel) {
            // Clone *and* publish while holding the pending mutex:
            // appends and competing publishers serialize on it, so a
            // slow publisher can never overwrite a newer snapshot with
            // stale columns (published contents only ever grow).
            let pending = self.pending.lock();
            *self.published.write() = Arc::new(pending.columns.clone());
        }
        self.published.read().clone()
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let table = self.pending.get_mut().table.len();
        if table > 0 {
            account_table_bytes(0, table);
        }
    }
}

/// An immutable, cheaply cloneable view of one subset's columns.
///
/// Holding a snapshot pins the column memory; concurrent appends publish
/// new snapshots without disturbing existing ones.
#[derive(Debug, Clone)]
pub struct SubsetSnapshot {
    columns: Arc<Columns>,
}

impl SubsetSnapshot {
    /// The user-id column, in insertion order.
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.columns.ids
    }

    /// The sketch-key column, aligned with [`SubsetSnapshot::ids`].
    #[must_use]
    pub fn keys(&self) -> &[u64] {
        &self.columns.keys
    }

    /// Number of records in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the snapshot holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.ids.is_empty()
    }

    /// Row-oriented iteration for code that wants records; the columns
    /// themselves are the primary interface.
    pub fn records(&self) -> impl Iterator<Item = SketchRecord> + '_ {
        self.columns
            .ids
            .iter()
            .zip(&self.columns.keys)
            .map(|(&id, &key)| SketchRecord {
                id: UserId(id),
                sketch: Sketch { key },
            })
    }
}

/// A database of published sketches, grouped by sketched subset.
#[derive(Debug, Default)]
pub struct SketchDb {
    shards: RwLock<HashMap<BitSubset, Arc<Shard>>>,
    /// The parameters of every count table, set by
    /// [`SketchDb::with_count_tables`].
    table_params: Option<SketchParams>,
}

impl SketchDb {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Keeps a count table for every subset of width `k ≤ K_MAX`, built
    /// with `params`'s `H`; shards already held get theirs with one
    /// fused pass over their columns. Only an estimator with the same
    /// parameters reads them ([`SketchDb::count_table`]).
    #[must_use]
    pub fn with_count_tables(mut self, params: SketchParams) -> Self {
        for (subset, shard) in self.shards.get_mut() {
            // An owned database lends its shards to no one, so `get_mut`
            // finds each unshared.
            match Arc::get_mut(shard) {
                Some(shard) if subset.len() <= K_MAX => {
                    shard.build_table(Tabler::new(&params, subset));
                }
                _ => {}
            }
        }
        self.table_params = Some(params);
        self
    }

    fn shard(&self, subset: &BitSubset) -> Option<Arc<Shard>> {
        self.shards.read().get(subset).cloned()
    }

    fn shard_or_insert(&self, subset: BitSubset) -> Arc<Shard> {
        if let Some(shard) = self.shard(&subset) {
            return shard;
        }
        let mut shard = Shard::default();
        if let Some(params) = self.table_params.filter(|_| subset.len() <= K_MAX) {
            shard.build_table(Tabler::new(&params, &subset));
        }
        Arc::clone(self.shards.write().entry(subset).or_insert(Arc::new(shard)))
    }

    /// Records a published sketch for `(id, subset)`.
    pub fn insert(&self, subset: BitSubset, id: UserId, sketch: Sketch) {
        self.insert_columns(subset, vec![id.0], vec![sketch.key]);
    }

    /// Records many sketches for the same subset at once, appending
    /// directly into the subset's columns.
    pub fn insert_batch(&self, subset: BitSubset, records: impl IntoIterator<Item = SketchRecord>) {
        let (ids, keys) = records
            .into_iter()
            .map(|rec| (rec.id.0, rec.sketch.key))
            .unzip();
        self.insert_columns(subset, ids, keys);
    }

    /// Appends aligned id and key columns to a subset's shard: the one
    /// write path. Ingestion groups each batch into these two columns,
    /// and snapshot files store each shard as exactly them.
    ///
    /// # Panics
    ///
    /// Panics if the columns have different lengths (a corrupt snapshot
    /// must not silently misalign ids and keys).
    pub fn insert_columns(&self, subset: BitSubset, ids: Vec<u64>, keys: Vec<u64>) {
        assert_eq!(
            ids.len(),
            keys.len(),
            "id and key columns must be the same length"
        );
        self.shard_or_insert(subset).append(ids, keys);
    }

    /// Rebuilds a database from per-subset columns (e.g. a decoded
    /// snapshot file).
    ///
    /// # Panics
    ///
    /// As [`SketchDb::insert_columns`] on misaligned columns.
    #[must_use]
    pub fn from_columns(shards: impl IntoIterator<Item = (BitSubset, Vec<u64>, Vec<u64>)>) -> Self {
        let db = Self::new();
        for (subset, ids, keys) in shards {
            db.insert_columns(subset, ids, keys);
        }
        db
    }

    /// `subset`'s count table and population, read together under the
    /// shard's lock: `table[v]` counts the records with
    /// `H(id, B, v, s) = 1` for each LSB-first value `v`. Those are the
    /// integers a scan of the same records counts, so
    /// [`crate::Estimate::from_counts`] over them is the scan's answer
    /// bit for bit.
    ///
    /// `None` unless the tables were built with `params` and `subset`
    /// has one (it is held and at most `K_MAX` bits wide).
    #[must_use]
    pub fn count_table(
        &self,
        subset: &BitSubset,
        params: &SketchParams,
    ) -> Option<(Vec<u64>, u64)> {
        if self.table_params? != *params {
            return None;
        }
        let shard = self.shard(subset)?;
        shard.tabler.as_ref()?;
        let pending = shard.pending.lock();
        Some((pending.table.clone(), pending.columns.len() as u64))
    }

    /// Returns a columnar snapshot of the records for `subset`.
    ///
    /// This is the read path of Algorithm 2: an `Arc` clone when the
    /// shard is unchanged since the previous snapshot, one column
    /// republish right after writes.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSubset`] if nothing was published for `subset`.
    pub fn snapshot(&self, subset: &BitSubset) -> Result<SubsetSnapshot, Error> {
        self.shard(subset)
            .map(|shard| SubsetSnapshot {
                columns: shard.snapshot(),
            })
            .ok_or_else(|| Error::UnknownSubset {
                subset: format!("{subset:?}"),
            })
    }

    /// Returns a row-oriented copy of the records for `subset`.
    ///
    /// Compatibility/inspection helper: this materializes a fresh `Vec`
    /// on every call. Query paths use [`SketchDb::snapshot`] instead.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSubset`] if nothing was published for `subset`.
    pub fn records(&self, subset: &BitSubset) -> Result<Vec<SketchRecord>, Error> {
        Ok(self.snapshot(subset)?.records().collect())
    }

    /// Number of sketches recorded for `subset` (0 if unknown).
    #[must_use]
    pub fn count(&self, subset: &BitSubset) -> usize {
        self.shard(subset).map_or(0, |shard| shard.len())
    }

    /// All subsets with at least one shard, in unspecified order.
    #[must_use]
    pub fn subsets(&self) -> Vec<BitSubset> {
        self.shards.read().keys().cloned().collect()
    }

    /// Total number of records across all subsets.
    #[must_use]
    pub fn total_records(&self) -> usize {
        self.shards.read().values().map(|shard| shard.len()).sum()
    }

    /// Whether the database holds no shards at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subset(positions: &[u32]) -> BitSubset {
        BitSubset::new(positions.to_vec()).unwrap()
    }

    #[test]
    fn insert_and_retrieve() {
        let db = SketchDb::new();
        let b = subset(&[0, 1]);
        db.insert(b.clone(), UserId(1), Sketch { key: 3 });
        db.insert(b.clone(), UserId(2), Sketch { key: 5 });
        let records = db.records(&b).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, UserId(1));
        assert_eq!(records[1].sketch.key, 5);
    }

    #[test]
    fn unknown_subset_is_an_error() {
        let db = SketchDb::new();
        assert!(matches!(
            db.records(&subset(&[7])),
            Err(Error::UnknownSubset { .. })
        ));
        assert!(matches!(
            db.snapshot(&subset(&[7])),
            Err(Error::UnknownSubset { .. })
        ));
        assert_eq!(db.count(&subset(&[7])), 0);
    }

    #[test]
    fn batch_insert_and_counts() {
        let db = SketchDb::new();
        let b = subset(&[2]);
        db.insert_batch(
            b.clone(),
            (0..10).map(|i| SketchRecord {
                id: UserId(i),
                sketch: Sketch { key: i },
            }),
        );
        assert_eq!(db.count(&b), 10);
        assert_eq!(db.total_records(), 10);
        assert!(!db.is_empty());
    }

    #[test]
    fn from_columns_rebuilds_identically() {
        let db = SketchDb::new();
        let b = subset(&[0, 2]);
        for i in 0..20u64 {
            db.insert(b.clone(), UserId(i), Sketch { key: i % 7 });
        }
        let snap = db.snapshot(&b).unwrap();
        let rebuilt =
            SketchDb::from_columns([(b.clone(), snap.ids().to_vec(), snap.keys().to_vec())]);
        let rsnap = rebuilt.snapshot(&b).unwrap();
        assert_eq!(rsnap.ids(), snap.ids());
        assert_eq!(rsnap.keys(), snap.keys());
        // Restored shards keep accepting appends.
        rebuilt.insert(b.clone(), UserId(99), Sketch { key: 1 });
        assert_eq!(rebuilt.count(&b), 21);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn misaligned_columns_panic() {
        let db = SketchDb::new();
        db.insert_columns(subset(&[0]), vec![1, 2], vec![3]);
    }

    #[test]
    fn subsets_lists_all_keys() {
        let db = SketchDb::new();
        db.insert(subset(&[0]), UserId(0), Sketch { key: 0 });
        db.insert(subset(&[1]), UserId(0), Sketch { key: 0 });
        let mut subs = db.subsets();
        subs.sort();
        assert_eq!(subs, vec![subset(&[0]), subset(&[1])]);
    }

    #[test]
    fn snapshot_exposes_columns_in_insertion_order() {
        let db = SketchDb::new();
        let b = subset(&[0]);
        for i in 0..5u64 {
            db.insert(b.clone(), UserId(10 + i), Sketch { key: i * 2 });
        }
        let snap = db.snapshot(&b).unwrap();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.ids(), &[10, 11, 12, 13, 14]);
        assert_eq!(snap.keys(), &[0, 2, 4, 6, 8]);
        let rows: Vec<SketchRecord> = snap.records().collect();
        assert_eq!(rows[3].id, UserId(13));
        assert_eq!(rows[3].sketch.key, 6);
    }

    #[test]
    fn unchanged_shard_snapshots_share_columns() {
        let db = SketchDb::new();
        let b = subset(&[0]);
        db.insert(b.clone(), UserId(1), Sketch { key: 1 });
        let a = db.snapshot(&b).unwrap();
        let c = db.snapshot(&b).unwrap();
        // Same Arc: no copying happened for the second snapshot.
        assert!(Arc::ptr_eq(&a.columns, &c.columns));
    }

    #[test]
    fn snapshots_are_stable_under_later_writes() {
        let db = SketchDb::new();
        let b = subset(&[0]);
        db.insert(b.clone(), UserId(1), Sketch { key: 1 });
        let before = db.snapshot(&b).unwrap();
        db.insert(b.clone(), UserId(2), Sketch { key: 2 });
        let after = db.snapshot(&b).unwrap();
        assert_eq!(before.len(), 1);
        assert_eq!(after.len(), 2);
        assert_eq!(before.ids(), &[1]);
        assert_eq!(after.ids(), &[1, 2]);
    }

    fn params(seed: u64) -> SketchParams {
        SketchParams::with_sip(0.3, 10, psketch_prf::GlobalKey::from_seed(seed)).unwrap()
    }

    /// Per-value `H = 1` counts of `subset`'s records, one scalar `eval`
    /// per record and value.
    fn scalar_table(db: &SketchDb, subset: &BitSubset, params: &SketchParams) -> Vec<u64> {
        let h = HFunction::new(params);
        let k = subset.len();
        (0..1u64 << k)
            .map(|v| {
                let value = BitString::from_u64(v, k);
                db.records(subset)
                    .unwrap()
                    .iter()
                    .filter(|r| h.eval(r.id, subset, &value, r.sketch.key))
                    .count() as u64
            })
            .collect()
    }

    #[test]
    fn count_tables_track_every_write_path() {
        let params = params(5);
        let db = SketchDb::new().with_count_tables(params);
        let narrow = subset(&[0, 3]);
        let widest = BitSubset::range(0, K_MAX as u32);
        let wide = BitSubset::range(0, K_MAX as u32 + 1);
        for b in [&narrow, &widest, &wide] {
            db.insert(b.clone(), UserId(1), Sketch { key: 9 });
            db.insert_batch(
                b.clone(),
                (2..40).map(|i| SketchRecord {
                    id: UserId(i),
                    sketch: Sketch { key: i * 31 % 1024 },
                }),
            );
            db.insert_columns(
                b.clone(),
                (40..90).collect(),
                (40..90).map(|i| i % 7).collect(),
            );
        }
        for b in [&narrow, &widest] {
            let (table, population) = db.count_table(b, &params).unwrap();
            assert_eq!(population, 89);
            assert_eq!(table, scalar_table(&db, b, &params), "{b:?}");
        }
        assert!(db.count_table(&wide, &params).is_none(), "wider than K_MAX");
        assert!(db.count_table(&subset(&[7]), &params).is_none(), "not held");
        assert!(
            db.count_table(&narrow, &self::params(6)).is_none(),
            "built with other parameters"
        );
        assert!(SketchDb::new().count_table(&narrow, &params).is_none());
    }

    #[test]
    fn count_tables_are_built_for_shards_already_held() {
        let params = params(8);
        let b = subset(&[1, 2]);
        let restored =
            SketchDb::from_columns([(b.clone(), (0..300).collect(), (0..300).collect())])
                .with_count_tables(params);
        let live = SketchDb::new().with_count_tables(params);
        live.insert_columns(b.clone(), (0..300).collect(), (0..300).collect());
        assert_eq!(
            restored.count_table(&b, &params),
            live.count_table(&b, &params)
        );
        assert_eq!(
            restored.count_table(&b, &params).unwrap().0,
            scalar_table(&restored, &b, &params)
        );
        // Appends after the rebuild keep the table current.
        restored.insert(b.clone(), UserId(300), Sketch { key: 3 });
        let (table, population) = restored.count_table(&b, &params).unwrap();
        assert_eq!(population, 301);
        assert_eq!(table, scalar_table(&restored, &b, &params));
    }

    #[test]
    fn readers_see_tables_consistent_with_the_population() {
        let params = params(9);
        let db = Arc::new(SketchDb::new().with_count_tables(params));
        let b = subset(&[0]);
        let writer = {
            let db = Arc::clone(&db);
            let b = b.clone();
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    db.insert_columns(b.clone(), vec![2 * i, 2 * i + 1], vec![i, i + 1]);
                }
            })
        };
        // Batches land whole: a reader never sees a population between
        // two batches' rows, nor a count above its population.
        for _ in 0..200 {
            if let Some((table, population)) = db.count_table(&b, &params) {
                assert_eq!(population % 2, 0, "a batch landed half-way");
                assert!(table.iter().all(|&c| c <= population));
            }
        }
        writer.join().unwrap();
        let (table, population) = db.count_table(&b, &params).unwrap();
        assert_eq!(population, 1000);
        assert_eq!(table, scalar_table(&db, &b, &params));
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let db = Arc::new(SketchDb::new());
        let b = subset(&[0]);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                let b = b.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        db.insert(b.clone(), UserId(t * 1000 + i), Sketch { key: i });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.count(&b), 800);
        assert_eq!(db.snapshot(&b).unwrap().len(), 800);
    }

    #[test]
    fn concurrent_reads_during_writes() {
        let db = Arc::new(SketchDb::new());
        let b = subset(&[3]);
        db.insert(b.clone(), UserId(0), Sketch { key: 0 });
        let writer = {
            let db = Arc::clone(&db);
            let b = b.clone();
            std::thread::spawn(move || {
                for i in 1..2000u64 {
                    db.insert(b.clone(), UserId(i), Sketch { key: i % 16 });
                }
            })
        };
        // Readers observe monotonically growing, internally consistent
        // snapshots while the writer runs.
        let mut last = 0;
        for _ in 0..200 {
            let snap = db.snapshot(&b).unwrap();
            assert_eq!(snap.ids().len(), snap.keys().len());
            assert!(snap.len() >= last);
            last = snap.len();
        }
        writer.join().unwrap();
        assert_eq!(db.snapshot(&b).unwrap().len(), 2000);
    }
}

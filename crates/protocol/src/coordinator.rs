//! The coordinator: announcement authoring and the public sketch pool.
//!
//! The coordinator is *not* trusted with data — it only (a) publishes an
//! [`Announcement`] (parameters + subset plan, with the sketch length
//! sized by Lemma 3.1), and (b) accumulates the public [`Submission`]s
//! into a [`SketchDb`] that anyone can query. Rejecting malformed or
//! duplicate submissions is bookkeeping, not trust.

use crate::messages::{Announcement, Submission};
use parking_lot::Mutex;
use psketch_core::theory::min_sketch_bits;
use psketch_core::{BitSubset, Error, SketchDb, UserId};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Builder for announcements.
#[derive(Debug, Clone)]
pub struct AnnouncementBuilder {
    database_id: u64,
    p: f64,
    expected_users: u64,
    failure_budget: f64,
    global_key: [u8; 32],
    subsets: Vec<BitSubset>,
}

impl AnnouncementBuilder {
    /// Starts an announcement for a database.
    ///
    /// `expected_users` (`M`) and `failure_budget` (`τ`) size the sketch
    /// via Lemma 3.1.
    #[must_use]
    pub fn new(database_id: u64, p: f64, expected_users: u64, failure_budget: f64) -> Self {
        Self {
            database_id,
            p,
            expected_users,
            failure_budget,
            global_key: [0; 32],
            subsets: Vec::new(),
        }
    }

    /// Sets the public global key.
    #[must_use]
    pub fn global_key(mut self, key: [u8; 32]) -> Self {
        self.global_key = key;
        self
    }

    /// Adds a subset to the sketching plan.
    #[must_use]
    pub fn subset(mut self, subset: BitSubset) -> Self {
        self.subsets.push(subset);
        self
    }

    /// Adds several subsets.
    #[must_use]
    pub fn subsets(mut self, subsets: impl IntoIterator<Item = BitSubset>) -> Self {
        self.subsets.extend(subsets);
        self
    }

    /// Finalizes: dedupes subsets canonically and sizes the sketch.
    ///
    /// # Errors
    ///
    /// Parameter validation errors (bad `p`, empty plan reported as
    /// [`Error::EmptyDatabase`]).
    ///
    /// # Panics
    ///
    /// As [`min_sketch_bits`] for out-of-range `M`/`τ`.
    pub fn build(mut self) -> Result<Announcement, Error> {
        if self.subsets.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        self.subsets.sort();
        self.subsets.dedup();
        let sketch_bits = min_sketch_bits(self.expected_users, self.failure_budget, self.p);
        let ann = Announcement {
            database_id: self.database_id,
            p: self.p,
            sketch_bits,
            global_key: self.global_key,
            subsets: self.subsets,
        };
        ann.validate()?;
        Ok(ann)
    }
}

/// The result of a batch ingestion: how many submissions landed and how
/// many were rejected (malformed or duplicate).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Submissions accepted into the pool.
    pub accepted: usize,
    /// Submissions rejected (also added to the coordinator's running
    /// rejection counter).
    pub rejected: usize,
}

/// A point-in-time snapshot of the coordinator's ingestion counters —
/// the observability surface reported by the server's Stats frame.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Submissions accepted into the pool.
    pub accepted: u64,
    /// Submissions rejected because the user already submitted.
    pub duplicates: u64,
    /// Submissions rejected because the bundle failed to decode.
    pub malformed: u64,
    /// Individual sketch records ingested across all subsets.
    pub records: u64,
}

impl CoordinatorStats {
    /// Total rejected submissions (duplicates + malformed).
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.duplicates + self.malformed
    }

    /// Adds another node's counters into this one. Shards partition the
    /// user population, so per-shard counters sum to exactly the
    /// counters a single node ingesting the same records would hold —
    /// this is the cluster-status merge.
    pub fn merge(&mut self, other: &CoordinatorStats) {
        self.accepted += other.accepted;
        self.duplicates += other.duplicates;
        self.malformed += other.malformed;
        self.records += other.records;
    }

    /// Sums a set of per-shard counter snapshots.
    #[must_use]
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a CoordinatorStats>) -> CoordinatorStats {
        let mut total = CoordinatorStats::default();
        for s in stats {
            total.merge(s);
        }
        total
    }
}

/// Lock-free running counters behind [`CoordinatorStats`].
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    duplicates: AtomicU64,
    malformed: AtomicU64,
    records: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> CoordinatorStats {
        CoordinatorStats {
            // ord: fuzzy stats snapshot; fields may tear across readers
            accepted: self.accepted.load(Ordering::Relaxed),
            // ord: fuzzy stats snapshot; fields may tear across readers
            duplicates: self.duplicates.load(Ordering::Relaxed),
            // ord: fuzzy stats snapshot; fields may tear across readers
            malformed: self.malformed.load(Ordering::Relaxed),
            // ord: fuzzy stats snapshot; fields may tear across readers
            records: self.records.load(Ordering::Relaxed),
        }
    }

    fn restore(stats: CoordinatorStats) -> Self {
        Self {
            accepted: AtomicU64::new(stats.accepted),
            duplicates: AtomicU64::new(stats.duplicates),
            malformed: AtomicU64::new(stats.malformed),
            records: AtomicU64::new(stats.records),
        }
    }
}

/// Gives `db` count tables built with the announcement's `H`, so narrow
/// plan terms are answered without a scan. An announcement that fails
/// validation gets none: its pool answers by scanning.
fn with_count_tables(announcement: &Announcement, db: SketchDb) -> SketchDb {
    match announcement.validate() {
        Ok(params) => db.with_count_tables(params),
        Err(_) => db,
    }
}

/// The coordinator: holds the announcement and the public pool.
#[derive(Debug)]
pub struct Coordinator {
    announcement: Announcement,
    db: SketchDb,
    seen: Mutex<HashSet<UserId>>,
    counters: Counters,
}

impl Coordinator {
    /// Creates a coordinator from a finalized announcement.
    #[must_use]
    pub fn new(announcement: Announcement) -> Self {
        Self {
            db: with_count_tables(&announcement, SketchDb::new()),
            announcement,
            seen: Mutex::new(HashSet::new()),
            counters: Counters::default(),
        }
    }

    /// Rebuilds a coordinator from previously persisted state (a snapshot
    /// file): the announcement, the set of users already accepted, the
    /// restored pool, and the counter values at snapshot time. The
    /// pool's count tables are rebuilt with one fused pass per subset.
    ///
    /// The restored coordinator keeps rejecting duplicates of every user
    /// in `seen`, exactly as the original would have.
    #[must_use]
    pub fn restore(
        announcement: Announcement,
        seen: impl IntoIterator<Item = UserId>,
        db: SketchDb,
        stats: CoordinatorStats,
    ) -> Self {
        Self {
            db: with_count_tables(&announcement, db),
            announcement,
            seen: Mutex::new(seen.into_iter().collect()),
            counters: Counters::restore(stats),
        }
    }

    /// The public announcement.
    #[must_use]
    pub fn announcement(&self) -> &Announcement {
        &self.announcement
    }

    /// Accepts a submission into the pool.
    ///
    /// # Errors
    ///
    /// * [`Error::Codec`] for malformed bundles or duplicate users (a
    ///   duplicate would double-count one person's data in every
    ///   estimate);
    /// * alignment errors from [`Submission::decode`].
    pub fn accept(&self, submission: &Submission) -> Result<(), Error> {
        let records = match submission.decode_indexed(&self.announcement) {
            Ok(r) => r,
            Err(e) => {
                // ord: monotonic stat counter, eventual totals suffice
                self.counters.malformed.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        {
            let mut seen = self.seen.lock();
            if !seen.insert(submission.user) {
                // ord: monotonic stat counter, eventual totals suffice
                self.counters.duplicates.fetch_add(1, Ordering::Relaxed);
                return Err(Error::Codec {
                    reason: format!("duplicate submission from {}", submission.user),
                });
            }
        }
        // ord: monotonic stat counter, eventual totals suffice
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        self.ingest(std::iter::once((submission.user, records)));
        Ok(())
    }

    /// Accepts a whole batch of submissions at once.
    ///
    /// Malformed or duplicate submissions are rejected (and counted)
    /// individually without failing the batch — ingestion at scale must
    /// not let one hostile bundle stall everyone else's. All decoded
    /// records are grouped per subset and appended through the pool's
    /// columnar batch insert, so a batch of `m` submissions over `k`
    /// subsets costs `k` shard appends instead of `m·k` map probes.
    pub fn accept_batch<'a, I>(&self, submissions: I) -> BatchOutcome
    where
        I: IntoIterator<Item = &'a Submission>,
    {
        let mut outcome = BatchOutcome::default();
        // Decode outside any lock: bundle parsing is the expensive part
        // and must not serialize concurrent ingestion.
        let mut decoded: Vec<(UserId, Vec<(usize, psketch_core::Sketch)>)> = Vec::new();
        for submission in submissions {
            match submission.decode_indexed(&self.announcement) {
                Ok(records) => decoded.push((submission.user, records)),
                Err(_) => {
                    // ord: monotonic stat counter, eventual totals suffice
                    self.counters.malformed.fetch_add(1, Ordering::Relaxed);
                    outcome.rejected += 1;
                }
            }
        }
        // Dedup under a short lock covering only the membership check.
        {
            let mut seen = self.seen.lock();
            decoded.retain(|(user, _)| {
                if seen.insert(*user) {
                    true
                } else {
                    // ord: monotonic stat counter, eventual totals suffice
                    self.counters.duplicates.fetch_add(1, Ordering::Relaxed);
                    outcome.rejected += 1;
                    false
                }
            });
        }
        outcome.accepted = decoded.len();
        self.counters
            .accepted
            // ord: monotonic stat counter, eventual totals suffice
            .fetch_add(outcome.accepted as u64, Ordering::Relaxed);
        self.ingest(decoded);
        outcome
    }

    /// Groups decoded records by announced subset (records name theirs
    /// by index) into id and key columns and lands them in the pool's
    /// shards via `SketchDb::insert_columns`, which also brings each
    /// subset's count table up to date.
    fn ingest<I>(&self, decoded: I)
    where
        I: IntoIterator<Item = (UserId, Vec<(usize, psketch_core::Sketch)>)>,
    {
        let subsets = &self.announcement.subsets;
        let mut grouped: Vec<(Vec<u64>, Vec<u64>)> = vec![Default::default(); subsets.len()];
        let mut total = 0u64;
        for (user, records) in decoded {
            for (i, sketch) in records {
                total += 1;
                let (ids, keys) = &mut grouped[i];
                ids.push(user.0);
                keys.push(sketch.key);
            }
        }
        // ord: monotonic stat counter, eventual totals suffice
        self.counters.records.fetch_add(total, Ordering::Relaxed);
        for (subset, (ids, keys)) in subsets.iter().zip(grouped) {
            if !ids.is_empty() {
                self.db.insert_columns(subset.clone(), ids, keys);
            }
        }
    }

    /// Number of accepted participants.
    #[must_use]
    pub fn participants(&self) -> usize {
        self.seen.lock().len()
    }

    /// Number of rejected submissions (duplicates + malformed).
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.stats().rejected()
    }

    /// A point-in-time snapshot of the ingestion counters.
    #[must_use]
    pub fn stats(&self) -> CoordinatorStats {
        self.counters.snapshot()
    }

    /// The users accepted so far, in unspecified order — what a snapshot
    /// file persists so a restored coordinator keeps deduplicating.
    #[must_use]
    pub fn seen_users(&self) -> Vec<UserId> {
        self.seen.lock().iter().copied().collect()
    }

    /// The public sketch pool (what analysts query).
    #[must_use]
    pub fn pool(&self) -> &SketchDb {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::UserAgent;
    use psketch_core::{BitString, ConjunctiveEstimator, ConjunctiveQuery, Profile};
    use psketch_prf::{GlobalKey, Prg};
    use rand::SeedableRng;

    fn build_announcement() -> Announcement {
        AnnouncementBuilder::new(42, 0.45, 10_000, 1e-6)
            .global_key(*GlobalKey::from_seed(3).as_bytes())
            .subset(BitSubset::new(vec![0, 1]).unwrap())
            .subset(BitSubset::single(0))
            .subset(BitSubset::new(vec![1, 0]).unwrap()) // duplicate, canonicalized
            .build()
            .unwrap()
    }

    #[test]
    fn builder_dedupes_and_sizes_sketches() {
        let ann = build_announcement();
        assert_eq!(ann.subsets.len(), 2);
        assert_eq!(ann.sketch_bits, min_sketch_bits(10_000, 1e-6, 0.45));
    }

    #[test]
    fn builder_rejects_empty_plan() {
        let r = AnnouncementBuilder::new(1, 0.3, 100, 1e-3).build();
        assert!(matches!(r, Err(Error::EmptyDatabase)));
    }

    #[test]
    fn full_protocol_round() {
        let ann = build_announcement();
        let coordinator = Coordinator::new(ann.clone());
        let mut rng = Prg::seed_from_u64(10);
        let m = 8_000u64;
        for i in 0..m {
            let profile = Profile::from_bits(&[i % 4 == 0, i % 2 == 0]);
            let mut agent = UserAgent::new(UserId(i), profile, 0.45, 1e6);
            let sub = agent.participate(&ann, &mut rng).unwrap();
            coordinator.accept(&sub).unwrap();
        }
        assert_eq!(coordinator.participants(), m as usize);
        assert_eq!(coordinator.rejected(), 0);

        // An analyst queries the pool directly.
        let params = ann.validate().unwrap();
        let estimator = ConjunctiveEstimator::new(params);
        let q = ConjunctiveQuery::new(
            BitSubset::new(vec![0, 1]).unwrap(),
            BitString::from_bits(&[true, true]),
        )
        .unwrap();
        let est = estimator.estimate(coordinator.pool(), &q).unwrap();
        // truth: i%4==0 ∧ i%2==0 ⇔ i%4==0 → 0.25, but note p=0.45 noise
        // at m=8k: σ ≈ 1/(0.1·√8000) ≈ 0.11.
        assert!(
            (est.fraction - 0.25).abs() < 0.3,
            "estimate {} strayed",
            est.fraction
        );
    }

    #[test]
    fn batch_ingestion_matches_one_by_one() {
        let ann = build_announcement();
        let one_by_one = Coordinator::new(ann.clone());
        let batched = Coordinator::new(ann.clone());
        let mut rng = Prg::seed_from_u64(12);
        let submissions: Vec<Submission> = (0..500u64)
            .map(|i| {
                let profile = Profile::from_bits(&[i % 4 == 0, i % 2 == 0]);
                let mut agent = UserAgent::new(UserId(i), profile, 0.45, 1e6);
                agent.participate(&ann, &mut rng).unwrap()
            })
            .collect();
        for sub in &submissions {
            one_by_one.accept(sub).unwrap();
        }
        let outcome = batched.accept_batch(&submissions);
        assert_eq!(
            outcome,
            BatchOutcome {
                accepted: 500,
                rejected: 0
            }
        );
        assert_eq!(batched.participants(), one_by_one.participants());

        // Both pools answer identically: same records per subset (batch
        // grouping must not lose or duplicate anything).
        for subset in one_by_one.pool().subsets() {
            let mut a = one_by_one.pool().records(&subset).unwrap();
            let mut b = batched.pool().records(&subset).unwrap();
            a.sort_by_key(|r| r.id);
            b.sort_by_key(|r| r.id);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn batch_rejects_bad_submissions_without_failing() {
        let ann = build_announcement();
        let coordinator = Coordinator::new(ann.clone());
        let mut rng = Prg::seed_from_u64(13);
        let mut agent = UserAgent::new(UserId(1), Profile::from_bits(&[true, true]), 0.45, 1e6);
        let good = agent.participate(&ann, &mut rng).unwrap();
        let duplicate = good.clone();
        let malformed = Submission {
            user: UserId(2),
            database_id: 999,
            bundle: vec![1, 2, 3],
            skipped: vec![],
        };
        let outcome = coordinator.accept_batch([&good, &duplicate, &malformed]);
        assert_eq!(
            outcome,
            BatchOutcome {
                accepted: 1,
                rejected: 2
            }
        );
        assert_eq!(coordinator.participants(), 1);
        assert_eq!(coordinator.rejected(), 2);
    }

    #[test]
    fn duplicates_are_rejected() {
        let ann = build_announcement();
        let coordinator = Coordinator::new(ann.clone());
        let mut rng = Prg::seed_from_u64(11);
        let mut agent = UserAgent::new(UserId(1), Profile::from_bits(&[true, true]), 0.45, 1e6);
        let sub = agent.participate(&ann, &mut rng).unwrap();
        coordinator.accept(&sub).unwrap();
        assert!(coordinator.accept(&sub).is_err());
        assert_eq!(coordinator.participants(), 1);
        assert_eq!(coordinator.rejected(), 1);
    }

    #[test]
    fn stats_track_every_outcome() {
        let ann = build_announcement();
        let coordinator = Coordinator::new(ann.clone());
        let mut rng = Prg::seed_from_u64(14);
        let mut agent = UserAgent::new(UserId(1), Profile::from_bits(&[true, false]), 0.45, 1e6);
        let good = agent.participate(&ann, &mut rng).unwrap();
        let malformed = Submission {
            user: UserId(2),
            database_id: 999,
            bundle: vec![0xAB],
            skipped: vec![],
        };
        coordinator.accept(&good).unwrap();
        assert!(coordinator.accept(&good).is_err()); // duplicate
        assert!(coordinator.accept(&malformed).is_err());
        let stats = coordinator.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.rejected(), 2);
        // Two subsets announced, none skipped: 2 records ingested.
        assert_eq!(stats.records, 2);
        assert_eq!(coordinator.rejected(), 2);
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = CoordinatorStats {
            accepted: 10,
            duplicates: 1,
            malformed: 2,
            records: 30,
        };
        let b = CoordinatorStats {
            accepted: 5,
            duplicates: 0,
            malformed: 4,
            records: 15,
        };
        let merged = CoordinatorStats::merged([&a, &b]);
        assert_eq!(merged.accepted, 15);
        assert_eq!(merged.duplicates, 1);
        assert_eq!(merged.malformed, 6);
        assert_eq!(merged.records, 45);
        assert_eq!(merged.rejected(), 7);
        assert_eq!(CoordinatorStats::merged([]), CoordinatorStats::default());
    }

    #[test]
    fn restore_preserves_dedup_pool_and_counters() {
        let ann = build_announcement();
        let original = Coordinator::new(ann.clone());
        let mut rng = Prg::seed_from_u64(15);
        let submissions: Vec<Submission> = (0..50u64)
            .map(|i| {
                let profile = Profile::from_bits(&[i % 4 == 0, i % 2 == 0]);
                let mut agent = UserAgent::new(UserId(i), profile, 0.45, 1e6);
                agent.participate(&ann, &mut rng).unwrap()
            })
            .collect();
        original.accept_batch(&submissions);

        // Persist (announcement, seen, pool columns, stats) and restore.
        let db = psketch_core::SketchDb::from_columns(original.pool().subsets().into_iter().map(
            |subset| {
                let snap = original.pool().snapshot(&subset).unwrap();
                (subset, snap.ids().to_vec(), snap.keys().to_vec())
            },
        ));
        let restored = Coordinator::restore(ann, original.seen_users(), db, original.stats());
        assert_eq!(restored.participants(), 50);
        assert_eq!(restored.stats(), original.stats());
        // A replayed submission is still a duplicate.
        assert!(restored.accept(&submissions[0]).is_err());
        assert_eq!(restored.stats().duplicates, 1);
        // Pools answer identically.
        for subset in original.pool().subsets() {
            let mut a = original.pool().records(&subset).unwrap();
            let mut b = restored.pool().records(&subset).unwrap();
            a.sort_by_key(|r| r.id);
            b.sort_by_key(|r| r.id);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn malformed_submissions_counted() {
        let ann = build_announcement();
        let coordinator = Coordinator::new(ann);
        let bogus = Submission {
            user: UserId(5),
            database_id: 999,
            bundle: vec![1, 2, 3],
            skipped: vec![],
        };
        assert!(coordinator.accept(&bogus).is_err());
        assert_eq!(coordinator.rejected(), 1);
        assert_eq!(coordinator.participants(), 0);
    }
}

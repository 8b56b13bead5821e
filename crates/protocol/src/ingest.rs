//! Columnar ingest: the one validator every submission passes.
//!
//! A submission reaches the pool through an [`IngestBatch`], whatever
//! its front door — a server's `SubmitBatch` frame body, a replayed WAL
//! batch record, or [`crate::Coordinator::accept_batch`] in process.
//! [`IngestBatch::push`] takes the submission's borrowed fields, checks
//! them against the announcement, and appends the user's keys straight
//! into per-subset id/key columns in batch order. No per-user
//! allocation happens: no decoded sketch list, no skipped-index set.
//! [`crate::Coordinator::apply_batch`] then deduplicates the staged
//! users and lands the columns in the pool.

use crate::messages::Announcement;
use psketch_core::codec::open_bundle;
use psketch_core::{Error, UserId};

/// One announced subset's staged rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct Column {
    /// The user of each row.
    pub(crate) ids: Vec<u64>,
    /// The sketch key of each row.
    pub(crate) keys: Vec<u64>,
}

/// A batch of submissions validated against one announcement and staged
/// as columns, not yet deduplicated or applied. Make one with
/// [`crate::Coordinator::new_batch`].
#[derive(Debug, Clone)]
pub struct IngestBatch {
    database_id: u64,
    sketch_bits: u8,
    /// The users of the well-formed submissions, in batch order.
    pub(crate) users: Vec<UserId>,
    /// `(staged user, subset index)` of every skipped slot, ascending.
    pub(crate) skips: Vec<(usize, usize)>,
    /// One column per announced subset, in announcement order.
    pub(crate) columns: Vec<Column>,
    /// Submissions rejected by [`IngestBatch::push`].
    pub(crate) malformed: usize,
    /// Scratch for the distinct-skips check, one flag per subset.
    marks: Vec<bool>,
}

fn malformed(reason: String) -> Error {
    Error::Codec { reason }
}

impl IngestBatch {
    /// An empty batch for `announcement`, with room for `users` users in
    /// every column.
    pub(crate) fn new(announcement: &Announcement, users: usize) -> Self {
        let subsets = announcement.subsets.len();
        Self {
            database_id: announcement.database_id,
            sketch_bits: announcement.sketch_bits,
            users: Vec::with_capacity(users),
            skips: Vec::new(),
            columns: (0..subsets)
                .map(|_| Column {
                    ids: Vec::with_capacity(users),
                    keys: Vec::with_capacity(users),
                })
                .collect(),
            malformed: 0,
            marks: Vec::new(),
        }
    }

    /// Submissions pushed so far, well-formed or not.
    #[must_use]
    pub fn submissions(&self) -> usize {
        self.users.len() + self.malformed
    }

    /// Rows reserved across every column: what staging this batch has
    /// allocated for keys, in rows of one id and one key.
    #[must_use]
    pub fn reserved_rows(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.ids.capacity().max(c.keys.capacity()))
            .sum()
    }

    /// Validates one submission and stages its keys: the database id
    /// must match; the bundle's magic, version, sketch length and
    /// payload length must be valid; its sketch count must equal the
    /// announced subsets minus the skipped ones; and the skipped indices
    /// must be distinct and in range. A rejected submission stages
    /// nothing and counts as malformed.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] naming the first check that failed.
    pub fn push<S>(
        &mut self,
        user: UserId,
        database_id: u64,
        bundle: &[u8],
        skipped: S,
    ) -> Result<(), Error>
    where
        S: ExactSizeIterator<Item = u32>,
    {
        let staged = self.stage(user, database_id, bundle, skipped);
        if staged.is_err() {
            self.malformed += 1;
        }
        staged
    }

    fn stage<S>(
        &mut self,
        user: UserId,
        database_id: u64,
        bundle: &[u8],
        skipped: S,
    ) -> Result<(), Error>
    where
        S: ExactSizeIterator<Item = u32>,
    {
        if database_id != self.database_id {
            return Err(malformed(format!(
                "submission for database {database_id} offered to database {}",
                self.database_id
            )));
        }
        let bundle = open_bundle(bundle)?;
        if bundle.sketch_bits != self.sketch_bits {
            return Err(malformed(format!(
                "bundle uses {}-bit sketches, announcement requires {}",
                bundle.sketch_bits, self.sketch_bits
            )));
        }
        let subsets = self.columns.len();
        // More skips than subsets cannot be distinct and in range.
        let Some(expected) = subsets.checked_sub(skipped.len()) else {
            return Err(malformed("skipped indices malformed".to_string()));
        };
        if bundle.count != expected {
            return Err(malformed(format!(
                "bundle holds {} sketches, expected {expected}",
                bundle.count
            )));
        }
        let staged = self.users.len();
        let mut keys = bundle.keys();
        if skipped.len() == 0 {
            for (column, key) in self.columns.iter_mut().zip(keys) {
                column.ids.push(user.0);
                column.keys.push(key);
            }
        } else {
            self.marks.clear();
            self.marks.resize(subsets, false);
            for i in skipped {
                match self.marks.get_mut(i as usize) {
                    Some(mark) if !*mark => *mark = true,
                    _ => return Err(malformed("skipped indices malformed".to_string())),
                }
            }
            for (i, (column, &skip)) in self.columns.iter_mut().zip(&self.marks).enumerate() {
                if skip {
                    self.skips.push((staged, i));
                } else if let Some(key) = keys.next() {
                    column.ids.push(user.0);
                    column.keys.push(key);
                }
            }
        }
        self.users.push(user);
        Ok(())
    }

    /// Drops the rows of the staged users at `dropped` (ascending staged
    /// indices) from every column, keeping the rest in order.
    pub(crate) fn drop_users(&mut self, dropped: &[usize]) {
        let users = self.users.len();
        for (i, column) in self.columns.iter_mut().enumerate() {
            let keep: Vec<bool> = (0..users)
                .filter(|&j| self.skips.binary_search(&(j, i)).is_err())
                .map(|j| dropped.binary_search(&j).is_err())
                .collect();
            let mut rows = keep.iter();
            column.ids.retain(|_| rows.next().copied().unwrap_or(false));
            let mut rows = keep.iter();
            column
                .keys
                .retain(|_| rows.next().copied().unwrap_or(false));
        }
    }
}

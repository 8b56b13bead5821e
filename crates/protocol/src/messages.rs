//! Protocol messages: what actually crosses the wire.
//!
//! The paper's deployment story (§1, Appendix A) has three actors: a
//! *coordinator* that publishes database-wide parameters and the list of
//! subsets to sketch, *users* who publish sketch bundles, and *analysts*
//! who read the public pool. These are the (serde-serializable) messages
//! between them. Sketch payloads travel in the compact bit-packed format
//! of [`psketch_core::codec`], so the published object is exactly the
//! paper's "minuscule" artifact.

use crate::ingest::IngestBatch;
use psketch_core::{BitSubset, Error, Sketch, UserId};
use serde::{Deserialize, Serialize};

/// The coordinator's public announcement: everything a user agent needs
/// to participate.
///
/// Note what is *absent*: there is no per-user state, no secret — the
/// global key is public (privacy does not rest on it, per Lemma 3.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Announcement {
    /// Database identifier (domain separation across deployments).
    pub database_id: u64,
    /// The bias `p` of the public function `H`.
    pub p: f64,
    /// The sketch length ℓ in bits (from Lemma 3.1 for the expected M, τ).
    pub sketch_bits: u8,
    /// The public 256-bit generator key for `H`.
    pub global_key: [u8; 32],
    /// The subsets every participant is asked to sketch, in canonical
    /// order; a user's bundle must align with this list.
    pub subsets: Vec<BitSubset>,
}

impl Announcement {
    /// Validates the announcement's parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`psketch_core::SketchParams`] validation failures.
    pub fn validate(&self) -> Result<psketch_core::SketchParams, Error> {
        psketch_core::SketchParams::with_sip(
            self.p,
            self.sketch_bits,
            psketch_prf::GlobalKey::from_bytes(self.global_key),
        )
    }

    /// Total privacy cost (log-ratio ε) a fully participating user incurs.
    #[must_use]
    pub fn epsilon_cost(&self) -> f64 {
        psketch_core::theory::epsilon_for(self.p, self.subsets.len() as u32)
    }
}

/// A node's place in a sharded deployment: which shard of how many this
/// server holds. Exchanged in the wire-level hello handshake so a router
/// can verify it is talking to the shard its map says lives at an
/// address before trusting partial counts from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardIdentity {
    /// This node's shard index, in `0..shard_count`.
    pub shard_id: u32,
    /// Total number of shards in the deployment.
    pub shard_count: u32,
}

impl std::fmt::Display for ShardIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.shard_id, self.shard_count)
    }
}

/// One shard's partial answer to one conjunctive *term* of a query
/// plan: the exact number of its records with `H(id, B, v, s) = 1` and
/// its record count for the term's subset. Counts from disjoint shards
/// sum exactly, so a router merging them reproduces the single-node
/// estimate bit-for-bit (the float inversion happens once, after the
/// integer merge). This is the **only** partial-result shape the wire
/// carries — every query family's plan scatters as a batch of these.
///
/// A shard holding no sketches for the queried subset reports `(0, 0)` —
/// its share of the pool is genuinely empty, and merging zeros is a
/// no-op rather than an error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryCounts {
    /// Records whose PRF evaluated to 1 for the queried `(B, v)`.
    pub ones: u64,
    /// Records the shard holds for the queried subset.
    pub population: u64,
}

/// One user's submission: their id and a bit-packed sketch bundle with
/// one sketch per announced subset, in announcement order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Submission {
    /// The submitting user.
    pub user: UserId,
    /// Which database/announcement this answers.
    pub database_id: u64,
    /// The bit-packed sketch bundle ([`psketch_core::codec`] format).
    pub bundle: Vec<u8>,
    /// Indices (into the announcement's subset list) the user *skipped*
    /// because Algorithm 1 failed; the bundle omits those slots. Almost
    /// always empty at Lemma 3.1 lengths, but the paper's failure
    /// semantics ("report failure and stop") must be representable.
    pub skipped: Vec<u32>,
}

impl Submission {
    /// Decodes the bundle and aligns sketches with the announced subsets,
    /// through the same validator ingest runs ([`IngestBatch::push`]).
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] on malformed bundles or misaligned counts.
    pub fn decode(&self, announcement: &Announcement) -> Result<Vec<(BitSubset, Sketch)>, Error> {
        let mut batch = IngestBatch::new(announcement, 1);
        batch.push(
            self.user,
            self.database_id,
            &self.bundle,
            self.skipped.iter().copied(),
        )?;
        Ok(announcement
            .subsets
            .iter()
            .zip(&batch.columns)
            .filter_map(|(subset, column)| {
                column
                    .keys
                    .first()
                    .map(|&key| (subset.clone(), Sketch { key }))
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_core::codec::encode_bundle;

    fn announcement() -> Announcement {
        Announcement {
            database_id: 7,
            p: 0.3,
            sketch_bits: 10,
            global_key: *psketch_prf::GlobalKey::from_seed(1).as_bytes(),
            subsets: vec![
                BitSubset::single(0),
                BitSubset::single(1),
                BitSubset::new(vec![0, 1]).unwrap(),
            ],
        }
    }

    #[test]
    fn announcement_validates_and_prices_privacy() {
        let ann = announcement();
        let params = ann.validate().unwrap();
        assert_eq!(params.sketch_bits(), 10);
        // Three sketches at p = 0.3: ε = (7/3)^12 − 1.
        let expected = psketch_core::theory::epsilon_for(0.3, 3);
        assert!((ann.epsilon_cost() - expected).abs() < 1e-12);
    }

    #[test]
    fn invalid_announcement_rejected() {
        let mut ann = announcement();
        ann.p = 0.6;
        assert!(ann.validate().is_err());
    }

    #[test]
    fn submission_roundtrip_aligns_subsets() {
        let ann = announcement();
        let sketches = vec![Sketch { key: 1 }, Sketch { key: 2 }, Sketch { key: 3 }];
        let sub = Submission {
            user: UserId(9),
            database_id: 7,
            bundle: encode_bundle(10, &sketches).to_vec(),
            skipped: vec![],
        };
        let decoded = sub.decode(&ann).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[2].0, ann.subsets[2]);
        assert_eq!(decoded[2].1.key, 3);
    }

    #[test]
    fn skipped_slots_are_respected() {
        let ann = announcement();
        let sub = Submission {
            user: UserId(9),
            database_id: 7,
            bundle: encode_bundle(10, &[Sketch { key: 5 }, Sketch { key: 6 }]).to_vec(),
            skipped: vec![1],
        };
        let decoded = sub.decode(&ann).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].0, ann.subsets[0]);
        assert_eq!(decoded[1].0, ann.subsets[2]);
    }

    #[test]
    fn partial_results_roundtrip_serde() {
        let counts = QueryCounts {
            ones: 42,
            population: 1000,
        };
        let json = serde_json::to_string(&counts).unwrap();
        assert_eq!(serde_json::from_str::<QueryCounts>(&json).unwrap(), counts);
        let shard = ShardIdentity {
            shard_id: 2,
            shard_count: 5,
        };
        assert_eq!(shard.to_string(), "2/5");
        let json = serde_json::to_string(&shard).unwrap();
        assert_eq!(serde_json::from_str::<ShardIdentity>(&json).unwrap(), shard);
    }

    #[test]
    fn mismatches_are_rejected() {
        let ann = announcement();
        // Wrong database.
        let sub = Submission {
            user: UserId(1),
            database_id: 8,
            bundle: encode_bundle(10, &[]).to_vec(),
            skipped: vec![],
        };
        assert!(sub.decode(&ann).is_err());
        // Wrong sketch width.
        let sub = Submission {
            user: UserId(1),
            database_id: 7,
            bundle: encode_bundle(9, &[Sketch { key: 0 }; 3]).to_vec(),
            skipped: vec![],
        };
        assert!(sub.decode(&ann).is_err());
        // Wrong count.
        let sub = Submission {
            user: UserId(1),
            database_id: 7,
            bundle: encode_bundle(10, &[Sketch { key: 0 }]).to_vec(),
            skipped: vec![],
        };
        assert!(sub.decode(&ann).is_err());
        // Bad skip index.
        let sub = Submission {
            user: UserId(1),
            database_id: 7,
            bundle: encode_bundle(10, &[Sketch { key: 0 }; 3]).to_vec(),
            skipped: vec![9],
        };
        assert!(sub.decode(&ann).is_err());
    }
}

//! The shard map: which node owns which users.
//!
//! Users are partitioned by a **stable hash of their id** — nothing
//! about a user's data influences placement, and every participant
//! (router, ingest tools, operators reading the map file) computes the
//! same placement from the same map. The map is versioned so a future
//! resharding can be detected across components: a router and an ingest
//! pipeline disagreeing about the map version must not mix traffic.
//!
//! The hash is SplitMix64 (Steele et al., *Fast Splittable Pseudorandom
//! Number Generators*), a fixed public bijection on `u64`: good bit
//! avalanche so consecutive user ids spread evenly, trivially portable,
//! and — like everything else in this system — fine to publish (privacy
//! never rests on placement).

use psketch_core::UserId;
use psketch_protocol::ShardIdentity;
use serde::{Deserialize, Serialize};

/// One node of the deployment: a shard index and the address serving it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardNode {
    /// The shard index, in `0..shards.len()`.
    pub id: u32,
    /// The `host:port` address of the node holding this shard.
    pub addr: String,
}

/// A versioned partition of the user population across nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Monotonic map version; components serving the same deployment
    /// must agree on it.
    pub version: u64,
    /// The nodes, one per shard, ordered by shard id.
    pub shards: Vec<ShardNode>,
}

/// Errors raised by shard-map construction and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMapError {
    /// The map holds no shards.
    Empty,
    /// Shard ids are not exactly `0..len` in order.
    MisnumberedShards,
    /// The serialized form could not be parsed.
    Parse(String),
}

impl std::fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "shard map holds no shards"),
            Self::MisnumberedShards => {
                write!(f, "shard ids must be exactly 0..N in order")
            }
            Self::Parse(reason) => write!(f, "cannot parse shard map: {reason}"),
        }
    }
}

impl std::error::Error for ShardMapError {}

/// The fixed SplitMix64 finalizer: the public placement hash.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ShardMap {
    /// Builds a version-`version` map over the given node addresses
    /// (shard `i` is the `i`-th address).
    ///
    /// # Errors
    ///
    /// [`ShardMapError::Empty`] for an empty address list.
    pub fn new(
        version: u64,
        addrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self, ShardMapError> {
        let shards: Vec<ShardNode> = addrs
            .into_iter()
            .enumerate()
            .map(|(i, addr)| ShardNode {
                id: i as u32,
                addr: addr.into(),
            })
            .collect();
        if shards.is_empty() {
            return Err(ShardMapError::Empty);
        }
        Ok(Self { version, shards })
    }

    /// Validates an externally supplied map (e.g. a parsed file).
    ///
    /// # Errors
    ///
    /// [`ShardMapError::Empty`] or [`ShardMapError::MisnumberedShards`].
    pub fn validate(&self) -> Result<(), ShardMapError> {
        if self.shards.is_empty() {
            return Err(ShardMapError::Empty);
        }
        if self
            .shards
            .iter()
            .enumerate()
            .any(|(i, node)| node.id as usize != i)
        {
            return Err(ShardMapError::MisnumberedShards);
        }
        Ok(())
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the map holds no shards (never true for a validated map).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning a user: `splitmix64(id) mod N`.
    #[must_use]
    pub fn shard_of(&self, user: UserId) -> u32 {
        (splitmix64(user.0) % self.shards.len() as u64) as u32
    }

    /// The address serving a shard.
    #[must_use]
    pub fn addr_of(&self, shard: u32) -> &str {
        &self.shards[shard as usize].addr
    }

    /// Whether a node whose `Hello` reported `found` may serve `shard`
    /// of this map: it must report exactly `shard` of `len()` shards,
    /// and a standalone node (no identity) is accepted only for a
    /// 1-shard map. Reading counts from, or ingesting into, any other
    /// node would put users on the wrong shard.
    #[must_use]
    pub fn admits(&self, shard: u32, found: Option<&ShardIdentity>) -> bool {
        match found {
            Some(identity) => {
                identity.shard_id == shard && identity.shard_count as usize == self.len()
            }
            None => self.len() == 1,
        }
    }

    /// Serializes the map as JSON (the on-disk map-file format).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("shard maps always serialize")
    }

    /// Parses and validates a JSON map file.
    ///
    /// # Errors
    ///
    /// [`ShardMapError::Parse`] on malformed JSON, plus the
    /// [`ShardMap::validate`] errors.
    pub fn from_json(raw: &str) -> Result<Self, ShardMapError> {
        let map: Self =
            serde_json::from_str(raw).map_err(|e| ShardMapError::Parse(e.to_string()))?;
        map.validate()?;
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(n: usize) -> ShardMap {
        ShardMap::new(1, (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i))).unwrap()
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let m = map(3);
        for id in 0..10_000u64 {
            let shard = m.shard_of(UserId(id));
            assert!(shard < 3);
            assert_eq!(shard, m.shard_of(UserId(id)), "placement must be stable");
        }
    }

    #[test]
    fn placement_spreads_users_roughly_evenly() {
        let m = map(4);
        let mut counts = [0usize; 4];
        for id in 0..40_000u64 {
            counts[m.shard_of(UserId(id)) as usize] += 1;
        }
        for &c in &counts {
            // 10k expected per shard; SplitMix64 avalanche keeps the
            // imbalance well under 5%.
            assert!((9_500..=10_500).contains(&c), "skewed split: {counts:?}");
        }
    }

    #[test]
    fn single_shard_maps_everyone_to_zero() {
        let m = map(1);
        assert_eq!(m.shard_of(UserId(0)), 0);
        assert_eq!(m.shard_of(UserId(u64::MAX)), 0);
    }

    #[test]
    fn json_roundtrip_preserves_the_map() {
        let m = map(3);
        let json = m.to_json();
        assert_eq!(ShardMap::from_json(&json).unwrap(), m);
    }

    #[test]
    fn invalid_maps_are_rejected() {
        assert_eq!(
            ShardMap::new(1, Vec::<String>::new()).unwrap_err(),
            ShardMapError::Empty
        );
        let mut m = map(2);
        m.shards[1].id = 7;
        assert_eq!(m.validate().unwrap_err(), ShardMapError::MisnumberedShards);
        assert!(matches!(
            ShardMap::from_json("{not json"),
            Err(ShardMapError::Parse(_))
        ));
        // Parsed-but-misnumbered also fails.
        let bad = ShardMap {
            version: 1,
            shards: vec![ShardNode {
                id: 3,
                addr: "x".into(),
            }],
        };
        assert!(ShardMap::from_json(&bad.to_json()).is_err());
    }

    #[test]
    fn admits_only_the_mapped_identity() {
        let id = |shard_id, shard_count| ShardIdentity {
            shard_id,
            shard_count,
        };
        let m = map(3);
        assert!(m.admits(1, Some(&id(1, 3))));
        assert!(!m.admits(0, Some(&id(1, 3))), "wrong shard");
        assert!(!m.admits(1, Some(&id(1, 4))), "wrong shard count");
        assert!(!m.admits(0, None), "standalone node in a 3-shard map");
        // A standalone node serves a 1-shard map; so does shard 0 of 1.
        assert!(map(1).admits(0, None));
        assert!(map(1).admits(0, Some(&id(0, 1))));
    }

    #[test]
    fn splitmix64_reference_values() {
        // Pin the hash so a future "optimization" cannot silently move
        // every user to a different shard.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(2), 0x9758_35DE_1C97_56CE);
    }
}

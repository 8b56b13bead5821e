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
use psketch_obs::log::escape_json;
use psketch_protocol::ShardIdentity;

/// One node of the deployment: a shard index and the address serving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardNode {
    /// The shard index, in `0..shards.len()`.
    pub id: u32,
    /// The `host:port` address of the node holding this shard.
    pub addr: String,
}

/// A versioned partition of the user population across nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|ShardNode { id, addr }| {
                format!(r#"{{"id":{id},"addr":"{}"}}"#, escape_json(addr))
            })
            .collect();
        let version = self.version;
        format!(r#"{{"version":{version},"shards":[{}]}}"#, shards.join(","))
    }

    /// Parses and validates a JSON map file: one object holding exactly
    /// the keys `version` and `shards`, each shard an object holding
    /// exactly `id` and `addr`, keys in any order.
    ///
    /// # Errors
    ///
    /// [`ShardMapError::Parse`] on malformed JSON, a missing, unknown or
    /// duplicate key, or a number out of range, plus the
    /// [`ShardMap::validate`] errors.
    pub fn from_json(raw: &str) -> Result<Self, ShardMapError> {
        let mut reader = MapReader { raw, at: 0 };
        let map = reader.map()?;
        if reader.peek().is_some() {
            return reader.fail("trailing characters");
        }
        map.validate()?;
        Ok(map)
    }
}

/// A cursor over a map file: a JSON reader for the map's one fixed
/// shape. Hostile bytes come back as [`ShardMapError::Parse`], never as
/// a panic.
struct MapReader<'a> {
    raw: &'a str,
    /// Byte offset of the next unread character.
    at: usize,
}

impl MapReader<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, ShardMapError> {
        Err(ShardMapError::Parse(format!("{what} at byte {}", self.at)))
    }

    /// Skips JSON whitespace and returns the next byte, if any.
    fn peek(&mut self) -> Option<u8> {
        let rest = self.raw.as_bytes().get(self.at..).unwrap_or_default();
        self.at += rest
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
        self.raw.as_bytes().get(self.at).copied()
    }

    fn punct(&mut self, want: u8) -> Result<(), ShardMapError> {
        if self.peek() != Some(want) {
            return self.fail(&format!("expected `{}`", char::from(want)));
        }
        self.at += 1;
        Ok(())
    }

    /// Reads `open item, …, item close`, calling `item` for each element.
    fn list(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ShardMapError>,
    ) -> Result<(), ShardMapError> {
        self.punct(open)?;
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b) if b == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return self.fail(&format!("expected `,` or `{}`", char::from(close))),
            }
        }
    }

    /// Reads an object, handing each key to `field` to read its value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), ShardMapError>,
    ) -> Result<(), ShardMapError> {
        self.list(b'{', b'}', |r| {
            let key = r.string()?;
            r.punct(b':')?;
            field(r, &key)
        })
    }

    /// Reads `key`'s value into its slot; a key seen twice is an error.
    fn field<T>(
        &mut self,
        slot: &mut Option<T>,
        key: &str,
        read: impl FnOnce(&mut Self) -> Result<T, ShardMapError>,
    ) -> Result<(), ShardMapError> {
        if slot.is_some() {
            return self.fail(&format!("duplicate key `{key}`"));
        }
        *slot = Some(read(self)?);
        Ok(())
    }

    fn map(&mut self) -> Result<ShardMap, ShardMapError> {
        let (mut version, mut shards) = (None, None);
        self.object(|r, key| match key {
            "version" => r.field(&mut version, key, Self::uint),
            "shards" => r.field(&mut shards, key, |r| {
                let mut nodes = Vec::new();
                r.list(b'[', b']', |r| {
                    nodes.push(r.node()?);
                    Ok(())
                })?;
                Ok(nodes)
            }),
            _ => r.fail(&format!("unknown key `{key}`")),
        })?;
        Ok(ShardMap {
            version: version.ok_or_else(|| missing("version"))?,
            shards: shards.ok_or_else(|| missing("shards"))?,
        })
    }

    fn node(&mut self) -> Result<ShardNode, ShardMapError> {
        let (mut id, mut addr) = (None, None);
        self.object(|r, key| match key {
            "id" => r.field(&mut id, key, |r| {
                let id = r.uint()?;
                u32::try_from(id).or_else(|_| r.fail("shard id above u32::MAX"))
            }),
            "addr" => r.field(&mut addr, key, Self::string),
            _ => r.fail(&format!("unknown key `{key}`")),
        })?;
        Ok(ShardNode {
            id: id.ok_or_else(|| missing("id"))?,
            addr: addr.ok_or_else(|| missing("addr"))?,
        })
    }

    /// Reads a non-negative integer; a sign, fraction or exponent is an
    /// error.
    fn uint(&mut self) -> Result<u64, ShardMapError> {
        self.peek();
        let rest = self.raw.get(self.at..).unwrap_or_default();
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        match rest.get(..digits).map(str::parse::<u64>) {
            Some(Ok(n)) if !matches!(rest.as_bytes().get(digits), Some(b'.' | b'e' | b'E')) => {
                self.at += digits;
                Ok(n)
            }
            _ => self.fail("expected an unsigned 64-bit integer"),
        }
    }

    /// Reads a string, decoding the standard escapes.
    fn string(&mut self) -> Result<String, ShardMapError> {
        self.punct(b'"')?;
        let mut out = String::new();
        loop {
            let rest = self.raw.get(self.at..).unwrap_or_default();
            let Some(stop) = rest.find(['"', '\\']) else {
                return self.fail("unterminated string");
            };
            out.push_str(rest.get(..stop).unwrap_or_default());
            self.at += stop + 1;
            if rest.as_bytes().get(stop) == Some(&b'"') {
                return Ok(out);
            }
            let escaped = match rest.as_bytes().get(stop + 1) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    // Four hex digits starting at `from`.
                    let hex4 = |from: usize| {
                        rest.get(from..from + 4)
                            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    };
                    let (code, len) = match hex4(stop + 2) {
                        // A high surrogate must be followed by an escaped
                        // low one; the pair encodes one non-BMP char.
                        Some(high @ 0xD800..=0xDBFF) => {
                            match (rest.get(stop + 6..stop + 8), hex4(stop + 8)) {
                                (Some("\\u"), Some(low @ 0xDC00..=0xDFFF)) => {
                                    (0x1_0000 + ((high - 0xD800) << 10) + (low - 0xDC00), 10)
                                }
                                _ => return self.fail("unpaired surrogate in \\u escape"),
                            }
                        }
                        Some(code) => (code, 4),
                        None => return self.fail("invalid \\u escape"),
                    };
                    // A lone low surrogate is no char.
                    let Some(c) = char::from_u32(code) else {
                        return self.fail("invalid \\u escape");
                    };
                    self.at += len;
                    c
                }
                _ => return self.fail("invalid escape"),
            };
            self.at += 1;
            out.push(escaped);
        }
    }
}

fn missing(key: &str) -> ShardMapError {
    ShardMapError::Parse(format!("missing key `{key}`"))
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

        let parse = |raw: &str| ShardMap::from_json(raw).unwrap_err();
        let valid = ShardMap::new(2, ["127.0.0.1:7180", "q\"b\\s\n\u{7}:1"])
            .unwrap()
            .to_json();
        // Every truncation of a valid map is malformed.
        for cut in 0..valid.len() {
            assert!(
                matches!(parse(&valid[..cut]), ShardMapError::Parse(_)),
                "prefix {cut}"
            );
        }
        // Hostile bytes: seeded single-byte mutations of a valid map
        // either parse to a map that round-trips or are refused; none
        // panics.
        for i in 0..2_000u64 {
            let r = splitmix64(0x5EED ^ i);
            let mut bytes = valid.clone().into_bytes();
            let at = (r % bytes.len() as u64) as usize;
            bytes[at] = (r >> 32) as u8;
            if let Ok(m) = ShardMap::from_json(&String::from_utf8_lossy(&bytes)) {
                assert_eq!(ShardMap::from_json(&m.to_json()), Ok(m));
            }
        }
        let node = r#"{"id":0,"addr":"a"}"#;
        for raw in [
            r#"{"version":1,"shards":[{"id":4294967296,"addr":"a"}]}"#.to_string(),
            format!(r#"{{"version":-1,"shards":[{node}]}}"#),
            format!(r#"{{"version":1.5,"shards":[{node}]}}"#),
            r#"{"version":1,"shards":[{"id":0.0,"addr":"a"}]}"#.to_string(),
            r#"{"version":1,"shards":[{"id":1e0,"addr":"a"}]}"#.to_string(),
            format!(r#"{{"version":1,"shards":[{node}],"weights":[1]}}"#),
            r#"{"version":1,"shards":[{"id":0,"addr":"a","zone":"b"}]}"#.to_string(),
            format!(r#"{{"version":1,"version":2,"shards":[{node}]}}"#),
            r#"{"version":1,"shards":[{"id":0,"addr":"a","addr":"b"}]}"#.to_string(),
            format!(r#"{{"version":1,"shards":[{node}]}} x"#),
            format!(r#"{{"version":1,"shards":[{node}]}}}}"#),
            r#"{"version":1,"shards":[{"id":0,"addr":"a}]}"#.to_string(),
            // Lone, doubled and reversed UTF-16 surrogate escapes.
            r#"{"version":1,"shards":[{"id":0,"addr":"\ud834"}]}"#.to_string(),
            r#"{"version":1,"shards":[{"id":0,"addr":"\ud834x"}]}"#.to_string(),
            r#"{"version":1,"shards":[{"id":0,"addr":"\ud834\ud834"}]}"#.to_string(),
            r#"{"version":1,"shards":[{"id":0,"addr":"\udd1e"}]}"#.to_string(),
            r#"{"version":1,"shards":[{"id":0,"addr":"\udd1e\ud834"}]}"#.to_string(),
        ] {
            assert!(matches!(parse(&raw), ShardMapError::Parse(_)), "{raw}");
        }
        // An escaped surrogate pair is one non-BMP char (U+1D11E).
        assert_eq!(
            ShardMap::from_json(r#"{"version":1,"shards":[{"id":0,"addr":"a\ud834\udd1eb:1"}]}"#),
            ShardMap::new(1, ["a\u{1D11E}b:1"])
        );
    }

    #[test]
    fn the_documented_map_parses() {
        let doc = include_str!("../../../docs/cluster.md");
        let block = doc
            .split("## Shard map")
            .nth(1)
            .and_then(|s| s.split("```json\n").nth(1))
            .and_then(|s| s.split("```").next())
            .expect("docs/cluster.md has a shard-map JSON block");
        assert_eq!(
            ShardMap::from_json(block).unwrap(),
            ShardMap::new(1, ["127.0.0.1:7180", "127.0.0.1:7181", "127.0.0.1:7182"]).unwrap()
        );
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

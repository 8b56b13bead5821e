//! Compact binary encoding of sketches and sketch bundles.
//!
//! The paper's selling point includes the *size* of the published data:
//! `⌈log log O(M)⌉` bits per sketch. This module provides the wire format
//! a user agent would actually publish: a bit-packed bundle of sketches
//! (each exactly `ℓ` bits) preceded by a small fixed header. The encoder
//! demonstrates the paper's size claim concretely — experiment E6 prints
//! the bytes-per-user numbers straight from here.

use crate::params::Error;
use crate::sketcher::Sketch;
use bytes::{BufMut, Bytes, BytesMut};

/// Magic byte identifying a sketch bundle.
const MAGIC: u8 = 0xB5;
/// Format version.
const VERSION: u8 = 1;

/// Encodes a bundle of same-length sketches into a bit-packed byte string.
///
/// Layout: `magic ‖ version ‖ sketch_bits ‖ count(u32 LE) ‖ packed keys`,
/// where each key occupies exactly `sketch_bits` bits, LSB-first.
///
/// # Panics
///
/// Panics if `sketch_bits` is 0 or > 30 (parameter validation happens at
/// [`crate::SketchParams`] construction; this is a caller contract) or if
/// a key does not fit in `sketch_bits` bits.
#[must_use]
pub fn encode_bundle(sketch_bits: u8, sketches: &[Sketch]) -> Bytes {
    assert!((1..=30).contains(&sketch_bits), "invalid sketch_bits");
    let mut out = BytesMut::with_capacity(7 + sketches.len() * usize::from(sketch_bits) / 8 + 1);
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
    out.put_u8(sketch_bits);
    out.put_u32_le(u32::try_from(sketches.len()).expect("bundle too large"));

    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    for s in sketches {
        assert!(
            s.key < (1u64 << sketch_bits),
            "key {} exceeds {} bits",
            s.key,
            sketch_bits
        );
        acc |= s.key << acc_bits;
        acc_bits += u32::from(sketch_bits);
        while acc_bits >= 8 {
            out.put_u8((acc & 0xFF) as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        out.put_u8((acc & 0xFF) as u8);
    }
    out.freeze()
}

/// A bundle whose header and payload length checked out, its packed
/// keys borrowed from the encoded bytes. Opening one allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct BundleView<'a> {
    /// The length of every sketch in the bundle, in bits.
    pub sketch_bits: u8,
    /// The number of sketches the bundle holds.
    pub count: usize,
    payload: &'a [u8],
}

impl<'a> BundleView<'a> {
    /// The packed keys in bundle order, unpacked on the fly.
    #[must_use]
    pub fn keys(&self) -> BundleKeys<'a> {
        BundleKeys {
            bytes: self.payload.iter(),
            acc: 0,
            acc_bits: 0,
            bits: u32::from(self.sketch_bits),
            mask: (1u64 << self.sketch_bits) - 1,
            left: self.count,
        }
    }
}

/// The keys of a [`BundleView`], LSB-first, `sketch_bits` bits each.
#[derive(Debug, Clone)]
pub struct BundleKeys<'a> {
    bytes: std::slice::Iter<'a, u8>,
    acc: u64,
    acc_bits: u32,
    bits: u32,
    mask: u64,
    left: usize,
}

impl Iterator for BundleKeys<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        while self.acc_bits < self.bits {
            // `open_bundle` checked the payload holds every key, so the
            // bytes never run out before `left` does.
            self.acc |= u64::from(*self.bytes.next()?) << self.acc_bits;
            self.acc_bits += 8;
        }
        let key = self.acc & self.mask;
        self.acc >>= self.bits;
        self.acc_bits -= self.bits;
        self.left -= 1;
        Some(key)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Checks a bundle's header and payload length and borrows its keys:
/// the one bundle reader, which [`decode_bundle`] and ingest share.
///
/// # Errors
///
/// [`Error::Codec`] on truncated input, bad magic/version, or an invalid
/// sketch length.
pub fn open_bundle(data: &[u8]) -> Result<BundleView<'_>, Error> {
    let fail = |reason: &str| Error::Codec {
        reason: reason.to_string(),
    };
    let Some((header, payload)) = data.split_first_chunk::<7>() else {
        return Err(fail("truncated header"));
    };
    let [magic, version, sketch_bits, c0, c1, c2, c3] = *header;
    if magic != MAGIC {
        return Err(fail("bad magic byte"));
    }
    if version != VERSION {
        return Err(fail("unsupported version"));
    }
    if !(1..=30).contains(&sketch_bits) {
        return Err(fail("invalid sketch length"));
    }
    let count = u32::from_le_bytes([c0, c1, c2, c3]) as usize;
    let need_bits = count.saturating_mul(usize::from(sketch_bits));
    if payload.len().saturating_mul(8) < need_bits {
        return Err(fail("truncated payload"));
    }
    Ok(BundleView {
        sketch_bits,
        count,
        payload,
    })
}

/// Decodes a bundle produced by [`encode_bundle`].
///
/// # Errors
///
/// As [`open_bundle`].
pub fn decode_bundle(data: &[u8]) -> Result<(u8, Vec<Sketch>), Error> {
    let bundle = open_bundle(data)?;
    let sketches = bundle.keys().map(|key| Sketch { key }).collect();
    Ok((bundle.sketch_bits, sketches))
}

/// The exact payload size in bytes for `count` sketches of `sketch_bits`
/// bits (header included) — the paper's "minuscule" publication cost.
#[must_use]
pub fn bundle_size_bytes(sketch_bits: u8, count: usize) -> usize {
    7 + (count * usize::from(sketch_bits)).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple() {
        let sketches = vec![Sketch { key: 0 }, Sketch { key: 5 }, Sketch { key: 7 }];
        let encoded = encode_bundle(3, &sketches);
        let (bits, decoded) = decode_bundle(&encoded).unwrap();
        assert_eq!(bits, 3);
        assert_eq!(decoded, sketches);
    }

    #[test]
    fn empty_bundle() {
        let encoded = encode_bundle(10, &[]);
        let (bits, decoded) = decode_bundle(&encoded).unwrap();
        assert_eq!(bits, 10);
        assert!(decoded.is_empty());
        assert_eq!(encoded.len(), bundle_size_bytes(10, 0));
    }

    #[test]
    fn size_formula_matches_encoding() {
        for bits in [1u8, 3, 7, 8, 10, 13, 30] {
            for count in [0usize, 1, 2, 7, 100] {
                let sketches: Vec<Sketch> = (0..count as u64)
                    .map(|i| Sketch {
                        key: i % (1 << bits),
                    })
                    .collect();
                let encoded = encode_bundle(bits, &sketches);
                assert_eq!(
                    encoded.len(),
                    bundle_size_bytes(bits, count),
                    "bits={bits} count={count}"
                );
            }
        }
    }

    #[test]
    fn ten_bit_sketches_cost_little() {
        // The headline: 100 sketches at 10 bits = 125 payload bytes.
        assert_eq!(bundle_size_bytes(10, 100), 7 + 125);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let encoded = encode_bundle(4, &[Sketch { key: 9 }]);
        let mut bad = encoded.to_vec();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_bundle(&bad), Err(Error::Codec { .. })));
        assert!(matches!(
            decode_bundle(&encoded[..encoded.len() - 1]),
            Err(Error::Codec { .. })
        ));
        assert!(matches!(decode_bundle(&[]), Err(Error::Codec { .. })));
    }

    #[test]
    fn rejects_wrong_version() {
        let encoded = encode_bundle(4, &[]);
        let mut bad = encoded.to_vec();
        bad[1] = 99;
        assert!(matches!(decode_bundle(&bad), Err(Error::Codec { .. })));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_key_panics() {
        let _ = encode_bundle(2, &[Sketch { key: 4 }]);
    }

    proptest! {
        #[test]
        fn roundtrip_property(
            bits in 1u8..=30,
            keys in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let sketches: Vec<Sketch> = keys
                .into_iter()
                .map(|k| Sketch { key: k & ((1u64 << bits) - 1) })
                .collect();
            let encoded = encode_bundle(bits, &sketches);
            let (decoded_bits, decoded) = decode_bundle(&encoded).unwrap();
            prop_assert_eq!(decoded_bits, bits);
            prop_assert_eq!(decoded, sketches);
        }
    }
}

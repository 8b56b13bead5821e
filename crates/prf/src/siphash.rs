//! SipHash-2-4, implemented from scratch.
//!
//! SipHash is a keyed pseudorandom function with 128-bit keys and 64-bit
//! outputs, introduced by Aumasson and Bernstein. The paper reproduced by
//! this workspace (Mishra & Sandler, PODS 2006) asks for "any collision free
//! secure hash (such as MD5 or WHIRLPOOL)" as the public function `H`; we
//! substitute SipHash-2-4 because it is a *keyed* PRF (the paper in fact
//! wants a keyed function — "the key used to define the global pseudorandom
//! function for the entire database"), it is a modern standard, and it is
//! small enough to implement and verify from scratch. The privacy results of
//! the paper are independent of the quality of this function (Lemma 3.3), so
//! the substitution is behaviour-preserving for privacy; utility experiments
//! cross-check SipHash against a ChaCha20-based PRF.
//!
//! The implementation is verified against the official test vectors from the
//! SipHash reference implementation.

/// Number of compression rounds (the "2" in SipHash-2-4).
const C_ROUNDS: usize = 2;
/// Number of finalization rounds (the "4" in SipHash-2-4).
const D_ROUNDS: usize = 4;

/// Streaming/one-shot SipHash-2-4 state over a 128-bit key.
///
/// The common entry point is [`SipHash24::hash`]:
///
/// ```
/// use psketch_prf::siphash::SipHash24;
/// let tag = SipHash24::new(0x0706050403020100, 0x0f0e0d0c0b0a0908).hash(b"hello");
/// // Same input, same key => same tag.
/// assert_eq!(
///     tag,
///     SipHash24::new(0x0706050403020100, 0x0f0e0d0c0b0a0908).hash(b"hello")
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
}

impl SipHash24 {
    /// Creates a SipHash-2-4 instance from the two 64-bit key halves.
    ///
    /// `k0` is the little-endian interpretation of key bytes 0..8 and `k1`
    /// of bytes 8..16, matching the reference implementation.
    #[must_use]
    pub const fn new(k0: u64, k1: u64) -> Self {
        Self { k0, k1 }
    }

    /// Creates a SipHash-2-4 instance from 16 key bytes (little-endian).
    #[must_use]
    pub fn from_key_bytes(key: &[u8; 16]) -> Self {
        let k0 = u64::from_le_bytes(key[0..8].try_into().expect("8 bytes"));
        let k1 = u64::from_le_bytes(key[8..16].try_into().expect("8 bytes"));
        Self::new(k0, k1)
    }

    /// Hashes `data` and returns the 64-bit tag.
    #[must_use]
    pub fn hash(&self, data: &[u8]) -> u64 {
        let mut v0 = 0x736f_6d65_7073_6575_u64 ^ self.k0;
        let mut v1 = 0x646f_7261_6e64_6f6d_u64 ^ self.k1;
        let mut v2 = 0x6c79_6765_6e65_7261_u64 ^ self.k0;
        let mut v3 = 0x7465_6462_7974_6573_u64 ^ self.k1;

        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let m = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            v3 ^= m;
            for _ in 0..C_ROUNDS {
                sip_round(&mut v0, &mut v1, &mut v2, &mut v3);
            }
            v0 ^= m;
        }

        // Final block: remaining bytes plus the message length in the top byte.
        let rem = chunks.remainder();
        let mut last = (data.len() as u64) << 56;
        for (i, &b) in rem.iter().enumerate() {
            last |= u64::from(b) << (8 * i);
        }
        v3 ^= last;
        for _ in 0..C_ROUNDS {
            sip_round(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^= last;

        v2 ^= 0xff;
        for _ in 0..D_ROUNDS {
            sip_round(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^ v1 ^ v2 ^ v3
    }

    /// Hashes `data` twice under domain-separated tweaks to produce a
    /// 128-bit output.
    ///
    /// Used when a single 64-bit value is not enough entropy (e.g. deriving
    /// a ChaCha nonce+counter from an arbitrary-length input).
    #[must_use]
    pub fn hash128(&self, data: &[u8]) -> u128 {
        let lo = self.hash(data);
        let hi = self.hi_lane().hash(data);
        (u128::from(hi) << 64) | u128::from(lo)
    }

    /// The tweaked-key instance producing the high 64 bits of
    /// [`SipHash24::hash128`]. Any fixed constant tweak yields an
    /// independent-looking PRF lane.
    #[must_use]
    pub const fn hi_lane(&self) -> Self {
        Self::new(
            self.k0 ^ 0x5851_f42d_4c95_7f2d,
            self.k1 ^ 0x1405_7b7e_f767_814f,
        )
    }

    /// Starts an incremental hash: absorb bytes with
    /// [`SipState::absorb`], finish with [`SipState::finish`].
    ///
    /// The point of the incremental form is *prefix reuse*: a state
    /// absorbed over a shared prefix can be copied and finished under
    /// many different suffixes, paying the prefix compression once per
    /// batch instead of once per evaluation. `begin().absorb(x).finish()`
    /// equals `hash(x)` exactly for any split of `x`.
    #[must_use]
    pub fn begin(&self) -> SipState {
        SipState {
            v0: 0x736f_6d65_7073_6575_u64 ^ self.k0,
            v1: 0x646f_7261_6e64_6f6d_u64 ^ self.k1,
            v2: 0x6c79_6765_6e65_7261_u64 ^ self.k0,
            v3: 0x7465_6462_7974_6573_u64 ^ self.k1,
            len: 0,
            tail: 0,
            ntail: 0,
        }
    }
}

/// Incremental SipHash-2-4 state: the four lanes plus an unfilled block.
///
/// `Copy` by design — finishing copies the state, so one prefix state
/// serves arbitrarily many suffixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SipState {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Total bytes absorbed (feeds the length byte of the final block).
    len: u64,
    /// Up to 7 residual bytes not yet compressed, packed LSB-first.
    tail: u64,
    ntail: u32,
}

impl SipState {
    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        for _ in 0..C_ROUNDS {
            sip_round(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        }
        self.v0 ^= m;
    }

    /// Absorbs `data`, compressing every full 8-byte block.
    pub fn absorb(&mut self, data: &[u8]) -> &mut Self {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.ntail > 0 {
            let need = (8 - self.ntail) as usize;
            if data.len() < need {
                for (i, &b) in data.iter().enumerate() {
                    self.tail |= u64::from(b) << (8 * (self.ntail as usize + i));
                }
                self.ntail += data.len() as u32;
                return self;
            }
            for (i, &b) in data[..need].iter().enumerate() {
                self.tail |= u64::from(b) << (8 * (self.ntail as usize + i));
            }
            let block = self.tail;
            self.compress(block);
            self.tail = 0;
            self.ntail = 0;
            data = &data[need..];
        }
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            self.compress(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        for (i, &b) in chunks.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
        self.ntail = chunks.remainder().len() as u32;
        self
    }

    /// Absorbs a little-endian `u64` (8 bytes) without touching memory —
    /// the hot path for fixed-width record fields.
    #[inline]
    pub fn absorb_u64(&mut self, value: u64) -> &mut Self {
        self.len = self.len.wrapping_add(8);
        if self.ntail == 0 {
            self.compress(value);
        } else {
            let shift = 8 * self.ntail;
            let block = self.tail | (value << shift);
            self.compress(block);
            self.tail = value >> (64 - shift);
        }
        self
    }

    /// Finalizes and returns the 64-bit tag; `self` is unchanged (copy
    /// semantics), so the same state can absorb further suffixes.
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut s = *self;
        let last = s.tail | (s.len << 56);
        s.compress(last);
        s.finalize_rounds()
    }

    /// Whether the state sits exactly on a block boundary (no residual
    /// bytes) — the precondition for the register-only finishers below.
    #[inline]
    #[must_use]
    pub fn is_block_aligned(&self) -> bool {
        self.ntail == 0
    }

    /// The four internal lanes `(v0, v1, v2, v3)` — the seed a multi-lane
    /// state broadcasts from (see [`crate::lanes::SipStateXN::splat`]).
    #[inline]
    pub(crate) fn words(&self) -> [u64; 4] {
        [self.v0, self.v1, self.v2, self.v3]
    }

    /// Register-only hot path: equivalent to
    /// `absorb_u64(a).absorb_u64(b).absorb(tail_bytes).finish()` for a
    /// block-aligned state and a short tail, with the tail's final block
    /// precomputed by [`SipState::pack_short_tail`]. No memory traffic,
    /// no branches: exactly three compressions plus finalization.
    ///
    /// # Panics
    ///
    /// Debug-asserts block alignment.
    #[inline]
    #[must_use]
    pub fn finish_u64x2_then(&self, a: u64, b: u64, packed_tail: u64) -> u64 {
        debug_assert!(self.ntail == 0, "state must be block-aligned");
        let mut s = *self;
        s.compress(a);
        s.compress(b);
        s.compress(packed_tail);
        s.finalize_rounds()
    }

    /// As [`SipState::finish_u64x2_then`] without the two u64 fields:
    /// one precomputed final block on top of a block-aligned state.
    #[inline]
    #[must_use]
    pub fn finish_then(&self, packed_tail: u64) -> u64 {
        debug_assert!(self.ntail == 0, "state must be block-aligned");
        let mut s = *self;
        s.compress(packed_tail);
        s.finalize_rounds()
    }

    /// Packs a short (< 8 bytes) constant tail into the SipHash final
    /// block for a message that will consist of this state's bytes plus
    /// `extra` more fixed-width bytes plus the tail. Feed the result to
    /// [`SipState::finish_u64x2_then`] (`extra = 16`), or to
    /// [`SipState::finish_then`] on the state after those `extra` bytes
    /// were absorbed (the multi-value scan: one record state, one packed
    /// block per value).
    ///
    /// # Panics
    ///
    /// Panics if `tail` holds 8 or more bytes (it must fit the final
    /// block alongside the length byte).
    #[must_use]
    pub fn pack_short_tail(&self, extra: u64, tail: &[u8]) -> u64 {
        assert!(tail.len() < 8, "short tail must fit the final block");
        let mut packed = 0u64;
        for (i, &b) in tail.iter().enumerate() {
            packed |= u64::from(b) << (8 * i);
        }
        let total = self.len.wrapping_add(extra).wrapping_add(tail.len() as u64);
        packed | (total << 56)
    }

    #[inline]
    fn finalize_rounds(mut self) -> u64 {
        self.v2 ^= 0xff;
        for _ in 0..D_ROUNDS {
            sip_round(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        }
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

#[inline]
fn sip_round(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Official vectors from the SipHash reference implementation
    /// (`vectors_sip64` in `vectors.h`): key = 000102…0f, message =
    /// 00 01 02 … of increasing length.
    const REFERENCE_VECTORS: [u64; 16] = [
        0x726f_db47_dd0e_0e31,
        0x74f8_39c5_93dc_67fd,
        0x0d6c_8009_d9a9_4f5a,
        0x8567_6696_d7fb_7e2d,
        0xcf27_94e0_2771_87b7,
        0x1876_5564_cd99_a68d,
        0xcbc9_466e_58fe_e3ce,
        0xab02_00f5_8b01_d137,
        0x93f5_f579_9a93_2462,
        0x9e00_82df_0ba9_e4b0,
        0x7a5d_bbc5_94dd_b9f3,
        0xf4b3_2f46_226b_ada7,
        0x751e_8fbc_860e_e5fb,
        0x14ea_5627_c084_3d90,
        0xf723_ca90_8e7a_f2ee,
        0xa129_ca61_49be_45e5,
    ];

    fn reference_key() -> SipHash24 {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        SipHash24::from_key_bytes(&key)
    }

    #[test]
    fn matches_reference_vectors() {
        let sip = reference_key();
        let msg: Vec<u8> = (0u8..16).collect();
        for (len, expected) in REFERENCE_VECTORS.iter().enumerate() {
            assert_eq!(
                sip.hash(&msg[..len]),
                *expected,
                "vector mismatch at message length {len}"
            );
        }
    }

    #[test]
    fn from_key_bytes_matches_new() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        assert_eq!(
            SipHash24::from_key_bytes(&key),
            SipHash24::new(0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908)
        );
    }

    #[test]
    fn distinct_keys_give_distinct_tags() {
        let a = SipHash24::new(1, 2).hash(b"payload");
        let b = SipHash24::new(3, 4).hash(b"payload");
        assert_ne!(a, b);
    }

    #[test]
    fn length_is_part_of_the_tag() {
        // A trailing zero byte must change the tag even though the padded
        // final block bytes would otherwise collide.
        let sip = reference_key();
        assert_ne!(sip.hash(b""), sip.hash(b"\0"));
        assert_ne!(sip.hash(b"\0\0\0\0\0\0\0"), sip.hash(b"\0\0\0\0\0\0\0\0"));
    }

    #[test]
    fn hash128_halves_are_independent_lanes() {
        let sip = reference_key();
        let wide = sip.hash128(b"abc");
        let lo = (wide & u128::from(u64::MAX)) as u64;
        let hi = (wide >> 64) as u64;
        assert_eq!(lo, sip.hash(b"abc"));
        assert_ne!(lo, hi);
    }

    #[test]
    fn exact_multiple_of_block_size() {
        // 8- and 16-byte messages exercise the empty-remainder path.
        let sip = reference_key();
        let msg: Vec<u8> = (0u8..16).collect();
        assert_eq!(sip.hash(&msg[..8]), REFERENCE_VECTORS[8]);
        // All 16 bytes: not in the table above but must be deterministic
        // and distinct from the 15-byte prefix.
        assert_ne!(sip.hash(&msg), sip.hash(&msg[..15]));
    }

    #[test]
    fn incremental_matches_one_shot_for_every_split() {
        let sip = reference_key();
        let msg: Vec<u8> = (0u8..40).map(|i| i.wrapping_mul(37)).collect();
        let expected = sip.hash(&msg);
        for split in 0..=msg.len() {
            let mut state = sip.begin();
            state.absorb(&msg[..split]);
            state.absorb(&msg[split..]);
            assert_eq!(state.finish(), expected, "diverged at split {split}");
        }
        // Three-way splits with tiny fragments (exercise residual joins).
        for a in 0..8 {
            for b in a..12.min(msg.len()) {
                let mut state = sip.begin();
                state.absorb(&msg[..a]).absorb(&msg[a..b]).absorb(&msg[b..]);
                assert_eq!(state.finish(), expected, "diverged at splits {a},{b}");
            }
        }
    }

    #[test]
    fn incremental_matches_reference_vectors() {
        let sip = reference_key();
        let msg: Vec<u8> = (0u8..16).collect();
        for (len, expected) in REFERENCE_VECTORS.iter().enumerate() {
            let mut state = sip.begin();
            for &b in &msg[..len] {
                state.absorb(&[b]);
            }
            assert_eq!(state.finish(), *expected, "vector mismatch at length {len}");
        }
    }

    #[test]
    fn absorb_u64_matches_byte_absorb() {
        let sip = reference_key();
        for prefix_len in 0..9usize {
            let prefix: Vec<u8> = (0..prefix_len as u8).collect();
            let value = 0xDEAD_BEEF_CAFE_F00Du64;
            let mut by_word = sip.begin();
            by_word.absorb(&prefix).absorb_u64(value);
            let mut by_bytes = sip.begin();
            by_bytes.absorb(&prefix).absorb(&value.to_le_bytes());
            assert_eq!(
                by_word.finish(),
                by_bytes.finish(),
                "absorb_u64 diverged after {prefix_len}-byte prefix"
            );
        }
    }

    #[test]
    fn finish_is_non_destructive() {
        let sip = reference_key();
        let mut state = sip.begin();
        state.absorb(b"shared prefix");
        let first = state.finish();
        assert_eq!(state.finish(), first);
        // The same prefix state serves many suffixes.
        let mut a = state;
        a.absorb(b"-alpha");
        let mut b = state;
        b.absorb(b"-beta");
        assert_eq!(a.finish(), sip.hash(b"shared prefix-alpha"));
        assert_eq!(b.finish(), sip.hash(b"shared prefix-beta"));
    }

    #[test]
    fn avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let sip = reference_key();
        let base = sip.hash(b"avalanche test!!");
        let mut flipped = *b"avalanche test!!";
        flipped[0] ^= 1;
        let other = sip.hash(&flipped);
        let dist = (base ^ other).count_ones();
        assert!(
            (16..=48).contains(&dist),
            "poor avalanche: hamming distance {dist}"
        );
    }
}

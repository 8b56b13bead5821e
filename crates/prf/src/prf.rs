//! Keyed pseudorandom functions: the paper's public function `H`.
//!
//! The paper assumes "a public pseudorandom function H, which upon receiving
//! a random binary string returns 1 with probability p" (§3), keyed by a
//! global generator key of ≥ 300 bits (footnotes 4–5). [`Prf`] is the
//! abstraction: a keyed map from byte strings to uniform 64-bit values. The
//! biased bit the paper needs is obtained by composing with
//! [`Bias::decide`](crate::bias::Bias::decide).
//!
//! Two independent instantiations are provided so that utility experiments
//! can demonstrate that results do not hinge on one primitive:
//!
//! * [`SipPrf`] — SipHash-2-4 under a 128-bit subkey (fast path);
//! * [`ChaChaPrf`] — a hash-then-encrypt construction around the ChaCha20
//!   block function under the full 256-bit key (conservative path).

use crate::bias::Bias;
use crate::chacha::{chacha20_block, ChaChaKey};
use crate::encode::InputEncoder;
use crate::lanes;
use crate::siphash::{SipHash24, SipState};

/// A 256-bit global key for the database-wide pseudorandom function.
///
/// The paper: "if the length of the generator key is at least 300 bits, it
/// is unfeasible to build an algorithm whose answers on a pseudorandom
/// function will differ from those it would produce on a truly random
/// function". 256 bits is the modern equivalent of that requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalKey {
    bytes: [u8; 32],
}

impl GlobalKey {
    /// Builds a key from raw bytes.
    #[must_use]
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Self { bytes }
    }

    /// Derives a key deterministically from a u64 seed (for tests and
    /// reproducible experiments; production users should use OS entropy).
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut bytes = [0u8; 32];
        // Expand the seed with SipHash in counter mode under fixed keys.
        for i in 0..4 {
            let word = SipHash24::new(0x9e37_79b9_7f4a_7c15, i as u64).hash(&seed.to_le_bytes());
            bytes[8 * i..8 * i + 8].copy_from_slice(&word.to_le_bytes());
        }
        Self { bytes }
    }

    /// The raw key bytes.
    #[must_use]
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }
}

/// A keyed pseudorandom function from byte strings to uniform `u64`s.
pub trait Prf: Send + Sync {
    /// Evaluates the PRF on `input`, returning a value indistinguishable
    /// from uniform over `u64` for anyone without the key.
    fn eval_u64(&self, input: &[u8]) -> u64;

    /// Evaluates the PRF and thresholds against `bias`, producing the
    /// paper's `p`-biased bit: true with probability `p`.
    fn eval_biased(&self, input: &[u8], bias: Bias) -> bool {
        bias.decide(self.eval_u64(input))
    }

    /// Batch evaluation: `n` biased bits over inputs assembled in one
    /// shared [`InputEncoder`].
    ///
    /// Per input `i`, `fill(i, enc)` mutates the encoder in place
    /// (typically via the reusable-prefix API: truncate-and-append or
    /// fixed-width splices), then the PRF is evaluated on the encoder's
    /// bytes and `sink(i, bit)` receives the biased outcome. Compared to
    /// calling [`Prf::eval_biased`] in a loop this amortizes the encoder
    /// allocation, the input re-encoding and — through the
    /// [`AnyPrf`] override — the PRF-family dispatch across the whole
    /// batch, which is what makes shard-wide Algorithm 2 scans cheap.
    fn eval_biased_many<F, G>(
        &self,
        n: usize,
        bias: Bias,
        input: &mut InputEncoder,
        fill: F,
        sink: G,
    ) where
        Self: Sized,
        F: FnMut(usize, &mut InputEncoder),
        G: FnMut(usize, bool),
    {
        let mut fill = fill;
        let mut sink = sink;
        for i in 0..n {
            fill(i, input);
            sink(i, bias.decide(self.eval_u64(input.as_bytes())));
        }
    }

    /// As [`Prf::eval_biased_many`], returning only the number of 1s —
    /// the quantity Algorithm 2 needs.
    fn count_biased_many<F>(&self, n: usize, bias: Bias, input: &mut InputEncoder, fill: F) -> usize
    where
        Self: Sized,
        F: FnMut(usize, &mut InputEncoder),
    {
        let mut ones = 0usize;
        self.eval_biased_many(n, bias, input, fill, |_, bit| ones += usize::from(bit));
        ones
    }
}

/// SipHash-2-4 based PRF (the default `H`).
#[derive(Debug, Clone, Copy)]
pub struct SipPrf {
    sip: SipHash24,
}

impl SipPrf {
    /// Keys the PRF with the first 128 bits of the global key.
    #[must_use]
    pub fn new(key: &GlobalKey) -> Self {
        let mut sub = [0u8; 16];
        sub.copy_from_slice(&key.as_bytes()[..16]);
        Self {
            sip: SipHash24::from_key_bytes(&sub),
        }
    }
}

impl Prf for SipPrf {
    fn eval_u64(&self, input: &[u8]) -> u64 {
        self.sip.hash(input)
    }
}

/// ChaCha20 based PRF: input is compressed to a (nonce, counter) pair with
/// SipHash (keyed by the *second* half of the global key, so the compression
/// key is independent of nothing the attacker sees), then one ChaCha20 block
/// under the full 256-bit key supplies the output word.
#[derive(Debug, Clone, Copy)]
pub struct ChaChaPrf {
    key: ChaChaKey,
    compressor: SipHash24,
}

impl ChaChaPrf {
    /// Keys the PRF with the full 256-bit global key.
    #[must_use]
    pub fn new(key: &GlobalKey) -> Self {
        let mut sub = [0u8; 16];
        sub.copy_from_slice(&key.as_bytes()[16..32]);
        Self {
            key: ChaChaKey::from_bytes(key.as_bytes()),
            compressor: SipHash24::from_key_bytes(&sub),
        }
    }
}

impl Prf for ChaChaPrf {
    fn eval_u64(&self, input: &[u8]) -> u64 {
        let digest = self.compressor.hash128(input);
        chacha_output(&self.key, digest)
    }
}

/// Expands a 128-bit compressed input into the ChaCha PRF's output word.
#[inline]
fn chacha_output(key: &ChaChaKey, digest: u128) -> u64 {
    let lo = (digest & u128::from(u64::MAX)) as u64;
    let hi = (digest >> 64) as u64;
    let counter = lo as u32;
    let nonce = [(lo >> 32) as u32, hi as u32, (hi >> 32) as u32];
    let block = chacha20_block(key, counter, nonce);
    (u64::from(block[1]) << 32) | u64::from(block[0])
}

/// The PRF family selector used throughout the workspace.
///
/// An enum (rather than `dyn Prf`) keeps evaluation monomorphic and
/// allocation-free on the hot path while still letting experiments switch
/// instantiations at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrfKind {
    /// SipHash-2-4 instantiation (default; fastest).
    Sip,
    /// ChaCha20 instantiation (conservative cross-check).
    ChaCha,
}

/// A concrete instantiation of the paper's `H`, carrying its key material.
#[derive(Debug, Clone, Copy)]
pub enum AnyPrf {
    /// SipHash-2-4 instantiation.
    Sip(SipPrf),
    /// ChaCha20 instantiation.
    ChaCha(ChaChaPrf),
}

impl AnyPrf {
    /// Instantiates the selected PRF family under `key`.
    #[must_use]
    pub fn new(kind: PrfKind, key: &GlobalKey) -> Self {
        match kind {
            PrfKind::Sip => Self::Sip(SipPrf::new(key)),
            PrfKind::ChaCha => Self::ChaCha(ChaChaPrf::new(key)),
        }
    }
}

impl Prf for AnyPrf {
    #[inline]
    fn eval_u64(&self, input: &[u8]) -> u64 {
        match self {
            Self::Sip(p) => p.eval_u64(input),
            Self::ChaCha(p) => p.eval_u64(input),
        }
    }

    /// Hoists the family dispatch out of the loop: the whole batch runs
    /// monomorphized against the selected PRF.
    fn eval_biased_many<F, G>(
        &self,
        n: usize,
        bias: Bias,
        input: &mut InputEncoder,
        fill: F,
        sink: G,
    ) where
        F: FnMut(usize, &mut InputEncoder),
        G: FnMut(usize, bool),
    {
        match self {
            Self::Sip(p) => p.eval_biased_many(n, bias, input, fill, sink),
            Self::ChaCha(p) => p.eval_biased_many(n, bias, input, fill, sink),
        }
    }
}

impl AnyPrf {
    /// Precomputes the PRF state over a shared input `prefix`.
    ///
    /// Evaluating `prefix ‖ suffix` through the returned [`PrfPrefix`]
    /// equals [`Prf::eval_u64`] on the concatenated bytes, but the prefix
    /// compression is paid once per batch instead of once per call — the
    /// key amortization behind the shard-scale Algorithm 2 scan.
    #[must_use]
    pub fn begin_prefix(&self, prefix: &[u8]) -> PrfPrefix {
        match self {
            Self::Sip(p) => {
                let mut state = p.sip.begin();
                state.absorb(prefix);
                PrfPrefix::Sip(state)
            }
            Self::ChaCha(p) => {
                let mut lo = p.compressor.begin();
                lo.absorb(prefix);
                let mut hi = p.compressor.hi_lane().begin();
                hi.absorb(prefix);
                PrfPrefix::ChaCha { lo, hi, key: p.key }
            }
        }
    }
}

/// A PRF evaluation state frozen after a shared input prefix.
///
/// Copy-cheap: every evaluation copies the small state, absorbs the
/// suffix and finalizes, leaving the prefix state reusable.
#[derive(Debug, Clone, Copy)]
pub enum PrfPrefix {
    /// SipHash lane state.
    Sip(SipState),
    /// Both SipHash compressor lanes plus the ChaCha key for expansion.
    ChaCha {
        /// Low compressor lane.
        lo: SipState,
        /// High (tweaked-key) compressor lane.
        hi: SipState,
        /// The 256-bit ChaCha expansion key.
        key: ChaChaKey,
    },
}

impl PrfPrefix {
    /// Extends the prefix by `bytes`, returning the advanced state (the
    /// original remains usable).
    #[must_use]
    pub fn advanced(&self, bytes: &[u8]) -> Self {
        let mut next = *self;
        match &mut next {
            Self::Sip(state) => {
                state.absorb(bytes);
            }
            Self::ChaCha { lo, hi, .. } => {
                lo.absorb(bytes);
                hi.absorb(bytes);
            }
        }
        next
    }

    /// Evaluates the PRF on `prefix ‖ suffix`.
    #[inline]
    #[must_use]
    pub fn eval_u64(&self, suffix: &[u8]) -> u64 {
        match self {
            Self::Sip(state) => {
                let mut s = *state;
                s.absorb(suffix);
                s.finish()
            }
            Self::ChaCha { lo, hi, key } => {
                let mut l = *lo;
                l.absorb(suffix);
                let mut h = *hi;
                h.absorb(suffix);
                let digest = (u128::from(h.finish()) << 64) | u128::from(l.finish());
                chacha_output(key, digest)
            }
        }
    }

    /// Evaluates the biased bit on `prefix ‖ suffix`.
    #[inline]
    #[must_use]
    pub fn eval_biased(&self, suffix: &[u8], bias: Bias) -> bool {
        bias.decide(self.eval_u64(suffix))
    }

    /// Counts biased-1 outcomes over `(id, key)` column pairs once per
    /// value tail: `counts[t]` is the number of aligned column pairs
    /// whose `prefix ‖ id_i ‖ key_i ‖ tails[t]` decides 1 — the
    /// Algorithm 2 inner loop for every value a query needs on one
    /// subset, in one pass over the columns.
    ///
    /// On the SipHash family with a block-aligned prefix and tails under
    /// 8 bytes, each record's `id ‖ key` state is absorbed once and
    /// finished once per tail, `lane_width()` records at a time (see
    /// [`crate::lanes`]). Other shapes run the generic per-record loop
    /// once per tail. Counts are exact either way.
    ///
    /// # Panics
    ///
    /// Panics if the columns have different lengths.
    #[must_use]
    pub fn count_biased_columns(
        &self,
        ids: &[u64],
        keys: &[u64],
        tails: &[&[u8]],
        bias: Bias,
    ) -> Vec<usize> {
        assert_eq!(ids.len(), keys.len(), "misaligned id/key columns");
        match self {
            Self::Sip(state) if state.is_block_aligned() && tails.iter().all(|t| t.len() < 8) => {
                // Register-only inner loop: two compressions per record,
                // then one per value with the tail's final block
                // precomputed.
                let packed: Vec<u64> = tails.iter().map(|t| state.pack_short_tail(16, t)).collect();
                lanes::count_values(state, ids, keys, &packed, bias, lanes::lane_width())
            }
            _ => tails
                .iter()
                .map(|tail| self.count_biased_tail(ids, keys, tail, bias))
                .collect(),
        }
    }

    /// The generic per-record loop of
    /// [`PrfPrefix::count_biased_columns`] for one value tail.
    fn count_biased_tail(&self, ids: &[u64], keys: &[u64], tail: &[u8], bias: Bias) -> usize {
        let mut ones = 0usize;
        match self {
            Self::Sip(state) => {
                for (&id, &key) in ids.iter().zip(keys) {
                    let mut s = *state;
                    s.absorb_u64(id).absorb_u64(key).absorb(tail);
                    ones += usize::from(bias.decide(s.finish()));
                }
            }
            Self::ChaCha { lo, hi, key: ck } if lo.is_block_aligned() && tail.len() < 8 => {
                let packed_lo = lo.pack_short_tail(16, tail);
                let packed_hi = hi.pack_short_tail(16, tail);
                for (&id, &key) in ids.iter().zip(keys) {
                    let digest = (u128::from(hi.finish_u64x2_then(id, key, packed_hi)) << 64)
                        | u128::from(lo.finish_u64x2_then(id, key, packed_lo));
                    ones += usize::from(bias.decide(chacha_output(ck, digest)));
                }
            }
            Self::ChaCha { lo, hi, key: ck } => {
                for (&id, &key) in ids.iter().zip(keys) {
                    let mut l = *lo;
                    l.absorb_u64(id).absorb_u64(key).absorb(tail);
                    let mut h = *hi;
                    h.absorb_u64(id).absorb_u64(key).absorb(tail);
                    let digest = (u128::from(h.finish()) << 64) | u128::from(l.finish());
                    ones += usize::from(bias.decide(chacha_output(ck, digest)));
                }
            }
        }
        ones
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> GlobalKey {
        GlobalKey::from_seed(42)
    }

    #[test]
    fn global_key_from_seed_is_deterministic() {
        assert_eq!(GlobalKey::from_seed(7), GlobalKey::from_seed(7));
        assert_ne!(
            GlobalKey::from_seed(7).as_bytes(),
            GlobalKey::from_seed(8).as_bytes()
        );
    }

    #[test]
    fn prfs_are_deterministic() {
        for kind in [PrfKind::Sip, PrfKind::ChaCha] {
            let prf = AnyPrf::new(kind, &key());
            assert_eq!(prf.eval_u64(b"input"), prf.eval_u64(b"input"));
        }
    }

    #[test]
    fn prf_families_disagree() {
        // The two instantiations are independent functions.
        let sip = AnyPrf::new(PrfKind::Sip, &key());
        let chacha = AnyPrf::new(PrfKind::ChaCha, &key());
        let disagreements = (0u64..64)
            .filter(|i| sip.eval_u64(&i.to_le_bytes()) != chacha.eval_u64(&i.to_le_bytes()))
            .count();
        assert_eq!(disagreements, 64);
    }

    #[test]
    fn keys_separate_outputs() {
        let a = SipPrf::new(&GlobalKey::from_seed(1));
        let b = SipPrf::new(&GlobalKey::from_seed(2));
        assert_ne!(a.eval_u64(b"x"), b.eval_u64(b"x"));
    }

    #[test]
    fn batch_eval_matches_scalar_eval() {
        // The batch entry point must agree bit-for-bit with one-at-a-time
        // evaluation on the same byte strings.
        for kind in [PrfKind::Sip, PrfKind::ChaCha] {
            let prf = AnyPrf::new(kind, &key());
            let bias = Bias::from_prob(0.3);
            let mut enc = InputEncoder::with_domain(9);
            let mark = enc.mark();
            let mut batch = Vec::new();
            prf.eval_biased_many(
                64,
                bias,
                &mut enc,
                |i, e| {
                    e.truncate(mark);
                    e.put_u64(i as u64);
                },
                |_, bit| batch.push(bit),
            );
            let scalar: Vec<bool> = (0..64u64)
                .map(|i| {
                    let mut e = InputEncoder::with_domain(9);
                    e.put_u64(i);
                    prf.eval_biased(e.as_bytes(), bias)
                })
                .collect();
            assert_eq!(batch, scalar, "{kind:?} batch/scalar divergence");
        }
    }

    #[test]
    fn prefix_evaluation_matches_one_shot() {
        // prefix ‖ suffix through PrfPrefix must equal eval_u64 on the
        // concatenation, for both families and every split shape.
        for kind in [PrfKind::Sip, PrfKind::ChaCha] {
            let prf = AnyPrf::new(kind, &key());
            let msg: Vec<u8> = (0u8..48).map(|i| i.wrapping_mul(113)).collect();
            let expected = prf.eval_u64(&msg);
            for split in 0..=msg.len() {
                let prefix = prf.begin_prefix(&msg[..split]);
                assert_eq!(
                    prefix.eval_u64(&msg[split..]),
                    expected,
                    "{kind:?} diverged at split {split}"
                );
            }
        }
    }

    #[test]
    fn advanced_and_columns_match_flat_eval() {
        for kind in [PrfKind::Sip, PrfKind::ChaCha] {
            let prf = AnyPrf::new(kind, &key());
            let bias = Bias::from_prob(0.3);
            let ids: Vec<u64> = (0..200).map(|i| i * 3 + 1).collect();
            let keys: Vec<u64> = (0..200).map(|i| i ^ 0x5555).collect();
            // An unaligned and a block-aligned prefix; short, empty,
            // duplicated and over-long (≥ 8 byte) tails in one call.
            let tails: [&[u8]; 4] = [b"tail", b"", b"a-long-tail", b"tail"];
            for prefix_bytes in [b"shared-prefix".as_slice(), b"aligned!"] {
                let prefix = prf.begin_prefix(prefix_bytes);
                let batched = prefix.count_biased_columns(&ids, &keys, &tails, bias);
                let scalar: Vec<usize> = tails
                    .iter()
                    .map(|tail| {
                        ids.iter()
                            .zip(&keys)
                            .filter(|&(&id, &k)| {
                                let mut flat = prefix_bytes.to_vec();
                                flat.extend_from_slice(&id.to_le_bytes());
                                flat.extend_from_slice(&k.to_le_bytes());
                                flat.extend_from_slice(tail);
                                prf.eval_biased(&flat, bias)
                            })
                            .count()
                    })
                    .collect();
                assert_eq!(batched, scalar, "{kind:?} column counts diverged");
            }

            // `advanced` composes the same stream.
            let prefix_bytes = b"shared-prefix";
            let prefix = prf.begin_prefix(prefix_bytes);
            assert_eq!(
                prefix.advanced(b"xy").eval_u64(b"z"),
                prf.eval_u64(&[prefix_bytes.as_slice(), b"xy", b"z"].concat())
            );
        }
    }

    #[test]
    fn count_biased_many_counts_ones() {
        let prf = AnyPrf::new(PrfKind::Sip, &key());
        let bias = Bias::from_prob(0.3);
        let mut enc = InputEncoder::with_domain(9);
        let mark = enc.mark();
        let count = prf.count_biased_many(1000, bias, &mut enc, |i, e| {
            e.truncate(mark);
            e.put_u64(i as u64);
        });
        let expected = (0..1000u64)
            .filter(|&i| {
                let mut e = InputEncoder::with_domain(9);
                e.put_u64(i);
                prf.eval_biased(e.as_bytes(), bias)
            })
            .count();
        assert_eq!(count, expected);
    }

    #[test]
    fn biased_eval_matches_threshold() {
        let prf = SipPrf::new(&key());
        let bias = Bias::from_prob(0.3);
        let raw = prf.eval_u64(b"q");
        assert_eq!(prf.eval_biased(b"q", bias), bias.decide(raw));
    }

    #[test]
    fn empirical_bias_of_prf_outputs() {
        // Over many distinct inputs the fraction of biased-1 outcomes must
        // track p closely — this is the paper's "for random x, H(x) = 1
        // with probability p" requirement.
        for kind in [PrfKind::Sip, PrfKind::ChaCha] {
            let prf = AnyPrf::new(kind, &key());
            let p = 0.3;
            let bias = Bias::from_prob(p);
            let n = 50_000u64;
            let ones = (0..n)
                .filter(|i| prf.eval_biased(&i.to_le_bytes(), bias))
                .count();
            let freq = ones as f64 / n as f64;
            // 5σ tolerance: σ = sqrt(p(1-p)/n) ≈ 0.00205.
            assert!(
                (freq - p).abs() < 0.0105,
                "{kind:?}: frequency {freq} drifted from {p}"
            );
        }
    }

    #[test]
    fn output_bits_are_balanced() {
        // Each of the 64 output bit positions should be ~half ones.
        let prf = SipPrf::new(&key());
        let n = 20_000u64;
        let mut counts = [0u32; 64];
        for i in 0..n {
            let v = prf.eval_u64(&i.to_le_bytes());
            for (bit, count) in counts.iter_mut().enumerate() {
                *count += ((v >> bit) & 1) as u32;
            }
        }
        for (bit, &c) in counts.iter().enumerate() {
            let freq = f64::from(c) / n as f64;
            assert!(
                (freq - 0.5).abs() < 0.02,
                "output bit {bit} unbalanced: {freq}"
            );
        }
    }
}

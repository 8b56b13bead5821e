//! Evaluation of the paper's public function `H(id, B, v, s)`.
//!
//! `H` is the database-wide pseudorandom `p`-biased function of §3. Both
//! sides of the protocol evaluate it: the *user* while running Algorithm 1
//! (on their true value `d_B`), and the *analyst* while running Algorithm 2
//! (on the queried value `v`). The two sides must agree bit-for-bit, so the
//! canonical input encoding lives here, in one place.

use crate::params::SketchParams;
use crate::profile::{BitString, BitSubset, UserId};
use psketch_prf::{AnyPrf, Bias, InputEncoder, Prf, PrfPrefix};

/// Domain-separation tag for `H` inputs (any other PRF use in the
/// workspace must pick a different tag).
const DOMAIN_H: u8 = 0x01;

/// A cached, keyed evaluator for `H`.
///
/// Construction instantiates the PRF once; evaluation is allocation-light
/// (one buffer per call) and deterministic.
#[derive(Debug, Clone, Copy)]
pub struct HFunction {
    prf: AnyPrf,
    bias: psketch_prf::Bias,
}

impl HFunction {
    /// Instantiates `H` from sketch parameters.
    #[must_use]
    pub fn new(params: &SketchParams) -> Self {
        Self {
            prf: AnyPrf::new(params.prf_kind(), params.global_key()),
            bias: params.bias(),
        }
    }

    /// Evaluates `H(id, B, v, s)` — true means "1".
    ///
    /// For a uniformly random tuple the result is 1 with probability `p`.
    ///
    /// The canonical byte order is `domain ‖ B ‖ id ‖ s ‖ v`: the fields
    /// shared by a whole shard scan (the subset) lead, the per-record
    /// fields follow, and the value trails so a record's absorbed state
    /// can be reused across all values of a distribution query. Encoding
    /// order is an internal detail of `H` — both protocol sides go
    /// through this module — and the framing keeps the tuple encoding
    /// injective in any order.
    #[must_use]
    pub fn eval(&self, id: UserId, subset: &BitSubset, value: &BitString, key: u64) -> bool {
        let mut enc = InputEncoder::with_domain(DOMAIN_H);
        enc.put_u32_seq(subset.positions());
        // Align the shared prefix to the PRF block so the per-record
        // suffix starts register-aligned (see `prepare`); the pad is part
        // of the canonical encoding.
        enc.pad_to(8);
        enc.put_u64(id.0);
        enc.put_u64(key);
        enc.put_bits(&value.to_bools());
        self.prf.eval_biased(enc.as_bytes(), self.bias)
    }

    /// The bias of this instance.
    #[must_use]
    pub fn bias(&self) -> psketch_prf::Bias {
        self.bias
    }

    /// Prepares a batched evaluator for a fixed subset `B` and value
    /// width (usually `subset.len()`, but function sketches pair a
    /// virtual subset with a different output width).
    ///
    /// The PRF state over the shared prefix `domain ‖ B` is computed
    /// **once**; per evaluation only the suffix `id ‖ s ‖ v` is absorbed.
    /// The byte stream equals [`HFunction::eval`]'s exactly, so prepared
    /// evaluation is bit-for-bit identical to scalar evaluation.
    #[must_use]
    pub fn prepare(&self, subset: &BitSubset, width: usize) -> PreparedH {
        let mut prefix = InputEncoder::with_domain(DOMAIN_H);
        prefix.put_u32_seq(subset.positions());
        prefix.pad_to(8);
        // Suffix template: id(8) ‖ key(8) ‖ bit-count(4) ‖ packed value.
        let mut suffix = InputEncoder::default();
        suffix.put_u64(0).put_u64(0).put_bits(&vec![false; width]);
        PreparedH {
            base: self.prf.begin_prefix(prefix.as_bytes()),
            bias: self.bias,
            suffix: suffix.finish(),
            width,
            value_bytes: width.div_ceil(8),
        }
    }

    /// Prepares a batched evaluator with the value region set to `value`.
    #[must_use]
    pub fn prepare_query(&self, subset: &BitSubset, value: &BitString) -> PreparedH {
        let mut prepared = self.prepare(subset, value.len());
        prepared.set_value(value);
        prepared
    }
}

/// A batched evaluator for `H` over a fixed subset: the PRF state after
/// the shared prefix `domain ‖ B`, plus a suffix template
/// `id ‖ s ‖ v` whose fields are spliced per evaluation.
///
/// This is the analyst's hot path (Algorithm 2 streams a shard's columns
/// through it) and the user's rejection-sampling loop (Algorithm 1
/// splices a fresh candidate key per iteration). Neither allocates,
/// re-encodes the subset, nor re-absorbs the prefix after preparation.
#[derive(Debug, Clone)]
pub struct PreparedH {
    /// PRF state absorbed over `domain ‖ B`.
    base: PrfPrefix,
    bias: Bias,
    /// Suffix template: `id(8) ‖ key(8) ‖ bit-count(4) ‖ packed value`.
    suffix: Vec<u8>,
    width: usize,
    value_bytes: usize,
}

/// Byte offsets of the spliced fields inside the suffix template.
const SUFFIX_ID_AT: usize = 0;
const SUFFIX_KEY_AT: usize = 8;
const SUFFIX_VALUE_AT: usize = 20;

impl PreparedH {
    /// The width (in bits) of the prepared value region.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Splices the queried/sketched value into the template.
    ///
    /// # Panics
    ///
    /// Panics unless `value.len()` matches the prepared width.
    pub fn set_value(&mut self, value: &BitString) {
        assert_eq!(value.len(), self.width, "value width mismatch");
        if self.width <= 64 {
            self.set_value_u64(value.to_u64());
            return;
        }
        pack_value(value, &mut self.suffix[SUFFIX_VALUE_AT..]);
    }

    /// Splices a value given as its LSB-first integer encoding (the
    /// packed-bit payload of a `width`-bit value is exactly its
    /// little-endian bytes).
    ///
    /// # Panics
    ///
    /// Panics if the prepared width exceeds 64 bits (use
    /// [`PreparedH::set_value`] with a `BitString` instead) or if
    /// `value` has bits above the prepared width (such an encoding is
    /// unreachable by the scalar path, so accepting it would silently
    /// break the bit-for-bit equivalence contract).
    pub fn set_value_u64(&mut self, value: u64) {
        assert!(self.width <= 64, "integer values cap at 64 bits");
        assert!(
            self.width == 64 || value < (1u64 << self.width),
            "value {value} exceeds the prepared {}-bit width",
            self.width
        );
        self.suffix[SUFFIX_VALUE_AT..SUFFIX_VALUE_AT + self.value_bytes]
            .copy_from_slice(&value.to_le_bytes()[..self.value_bytes]);
    }

    /// Splices the user id into the template.
    pub fn set_id(&mut self, id: UserId) {
        self.suffix[SUFFIX_ID_AT..SUFFIX_ID_AT + 8].copy_from_slice(&id.0.to_le_bytes());
    }

    /// Splices the sketch key into the template.
    pub fn set_key(&mut self, key: u64) {
        self.suffix[SUFFIX_KEY_AT..SUFFIX_KEY_AT + 8].copy_from_slice(&key.to_le_bytes());
    }

    /// Splices both per-record fields.
    pub fn set_record(&mut self, id: u64, key: u64) {
        self.set_id(UserId(id));
        self.set_key(key);
    }

    /// Evaluates `H` on the current template contents.
    #[inline]
    #[must_use]
    pub fn eval(&self) -> bool {
        self.base.eval_biased(&self.suffix, self.bias)
    }

    /// Batched Algorithm 2 inner loop: counts records with
    /// `H(id, B, v, s) = 1` over aligned id/key columns, for the value
    /// currently spliced into the template — the one-value case of
    /// [`PreparedH::count_values`].
    ///
    /// # Panics
    ///
    /// Panics if the columns have different lengths.
    #[must_use]
    pub fn count_ones(&self, ids: &[u64], keys: &[u64]) -> usize {
        self.base
            .count_biased_columns(ids, keys, &[&self.suffix[16..]], self.bias)[0]
    }

    /// Batched Algorithm 2 over several values of the prepared subset:
    /// `counts[t]` is the number of records with `H(id, B, values[t], s)
    /// = 1` over aligned id/key columns. The value trails the canonical
    /// encoding, so each record's `id ‖ s` state is absorbed once and
    /// finished once per value — one pass over the columns, whatever the
    /// number of values.
    ///
    /// # Panics
    ///
    /// Panics if the columns have different lengths or a value's width
    /// differs from the prepared width.
    #[must_use]
    pub fn count_values(&self, ids: &[u64], keys: &[u64], values: &[BitString]) -> Vec<usize> {
        // Each tail is the template's `bit-count(4) ‖ packed value`
        // region (everything after `id ‖ key`) with that value spliced in.
        let template = &self.suffix[16..];
        let mut packed = template.repeat(values.len());
        for (tail, value) in packed.chunks_exact_mut(template.len()).zip(values) {
            assert_eq!(value.len(), self.width, "value width mismatch");
            pack_value(value, &mut tail[SUFFIX_VALUE_AT - 16..]);
        }
        let tails: Vec<&[u8]> = packed.chunks_exact(template.len()).collect();
        self.base.count_biased_columns(ids, keys, &tails, self.bias)
    }
}

/// Packs `value` LSB-first into a zeroed value region, exactly as
/// `InputEncoder::put_bits` lays out its payload.
fn pack_value(value: &BitString, region: &mut [u8]) {
    region.fill(0);
    for (i, bit) in value.iter().enumerate() {
        if bit {
            region[i / 8] |= 1 << (i % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_prf::{GlobalKey, PrfKind};

    fn h() -> HFunction {
        let params = SketchParams::new(0.3, 10, GlobalKey::from_seed(7), PrfKind::Sip).unwrap();
        HFunction::new(&params)
    }

    #[test]
    fn deterministic() {
        let f = h();
        let b = BitSubset::new(vec![0, 2]).unwrap();
        let v = BitString::from_bits(&[true, false]);
        assert_eq!(f.eval(UserId(1), &b, &v, 3), f.eval(UserId(1), &b, &v, 3));
    }

    #[test]
    fn distinguishes_every_argument() {
        let f = h();
        let b = BitSubset::new(vec![0, 2]).unwrap();
        let b2 = BitSubset::new(vec![0, 3]).unwrap();
        let v = BitString::from_bits(&[true, false]);
        let v2 = BitString::from_bits(&[true, true]);
        // Over many keys the functions for different (id, B, v) must differ
        // somewhere; check disagreement exists within 64 keys.
        let disagree =
            |a: &dyn Fn(u64) -> bool, b: &dyn Fn(u64) -> bool| (0..64).any(|s| a(s) != b(s));
        let base = |s: u64| f.eval(UserId(1), &b, &v, s);
        assert!(disagree(&base, &|s| f.eval(UserId(2), &b, &v, s)));
        assert!(disagree(&base, &|s| f.eval(UserId(1), &b2, &v, s)));
        assert!(disagree(&base, &|s| f.eval(UserId(1), &b, &v2, s)));
    }

    #[test]
    fn empirical_bias_matches_p() {
        let f = h();
        let b = BitSubset::single(0);
        let v = BitString::from_bits(&[true]);
        let n = 40_000u64;
        let ones = (0..n).filter(|&s| f.eval(UserId(9), &b, &v, s)).count();
        let freq = ones as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.012, "bias drift: {freq}");
    }

    #[test]
    fn prepared_matches_scalar_eval() {
        // The template-splice path must agree with the scalar encoder
        // bit-for-bit, for both PRF families and across all fields.
        for kind in [PrfKind::Sip, PrfKind::ChaCha] {
            let params = SketchParams::new(0.3, 10, GlobalKey::from_seed(7), kind).unwrap();
            let f = HFunction::new(&params);
            let b = BitSubset::new(vec![0, 2, 5]).unwrap();
            let mut prepared = f.prepare(&b, 3);
            for value in 0..8u64 {
                let v = BitString::from_u64(value, 3);
                prepared.set_value(&v);
                for id in [0u64, 1, 77, u64::MAX] {
                    for key in [0u64, 5, 1023] {
                        prepared.set_record(id, key);
                        assert_eq!(
                            prepared.eval(),
                            f.eval(UserId(id), &b, &v, key),
                            "{kind:?} diverged at value={value} id={id} key={key}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_handles_wide_values() {
        // Widths beyond 64 bits take the general bit-packing path.
        let f = h();
        let b = BitSubset::range(0, 70);
        let bits: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let v = BitString::from_bits(&bits);
        let mut prepared = f.prepare(&b, 70);
        prepared.set_value(&v);
        prepared.set_record(4, 9);
        assert_eq!(prepared.eval(), f.eval(UserId(4), &b, &v, 9));
    }

    #[test]
    fn count_ones_matches_scalar_count() {
        let f = h();
        let b = BitSubset::new(vec![1, 3]).unwrap();
        let v = BitString::from_bits(&[true, false]);
        let ids: Vec<u64> = (0..500).collect();
        let keys: Vec<u64> = (0..500).map(|i| (i * 7) % 1024).collect();
        let prepared = f.prepare_query(&b, &v);
        let batched = prepared.count_ones(&ids, &keys);
        let scalar = ids
            .iter()
            .zip(&keys)
            .filter(|&(&id, &key)| f.eval(UserId(id), &b, &v, key))
            .count();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn count_values_matches_per_value_evals() {
        // All 2^3 values of a 3-bit subset in one pass, for both PRF
        // families, against one scalar `eval` per record and value.
        for kind in [PrfKind::Sip, PrfKind::ChaCha] {
            let params = SketchParams::new(0.3, 10, GlobalKey::from_seed(7), kind).unwrap();
            let f = HFunction::new(&params);
            let b = BitSubset::new(vec![0, 1, 4]).unwrap();
            let prepared = f.prepare(&b, 3);
            let values: Vec<BitString> = (0..8u64).map(|v| BitString::from_u64(v, 3)).collect();
            let ids: Vec<u64> = (0..37).map(|i| i * 11 + 3).collect();
            let keys: Vec<u64> = (0..37).map(|i| (i * 5) % 1024).collect();
            let counts = prepared.count_values(&ids, &keys, &values);
            for (v, &count) in values.iter().zip(&counts) {
                let expected = ids
                    .iter()
                    .zip(&keys)
                    .filter(|&(&id, &key)| f.eval(UserId(id), &b, v, key))
                    .count();
                assert_eq!(count, expected, "{kind:?} value {v:?}");
            }
        }
    }

    #[test]
    fn both_prf_families_work() {
        for kind in [PrfKind::Sip, PrfKind::ChaCha] {
            let params = SketchParams::new(0.4, 8, GlobalKey::from_seed(3), kind).unwrap();
            let f = HFunction::new(&params);
            let b = BitSubset::single(1);
            let v = BitString::from_bits(&[false]);
            // Just determinism + plausibility.
            assert_eq!(f.eval(UserId(5), &b, &v, 0), f.eval(UserId(5), &b, &v, 0));
        }
    }
}

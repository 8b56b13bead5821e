//! Multi-lane SipHash-2-4: N independent hash streams per instruction
//! sequence.
//!
//! Every estimate in this workspace bottoms out in millions of independent
//! SipHash evaluations over columnar shards. The SipHash rounds are pure
//! ARX — add, rotate, xor — with no data-dependent branches and no
//! cross-stream dependencies, so N independent streams laid out as
//! structure-of-arrays `[u64; LANES]` registers compile to N-wide vector
//! instructions: one `vpaddq`/`vprolq`/`vpxorq` sequence advances all N
//! streams at once under AVX-512 (8 × u64 per zmm register, with a native
//! lane rotate), and narrower ISAs still profit from the explicit
//! instruction-level parallelism.
//!
//! [`SipStateXN`] is the lane-parallel mirror of
//! [`SipState`](crate::siphash::SipState): it broadcasts a block-aligned
//! scalar prefix state into N lanes, absorbs N records' `(id, key)`
//! blocks, and finishes all N once per requested query value. The
//! scalar `SipState` remains the reference implementation — it carries the
//! official-test-vector anchor — and every lane path is bit-identical to
//! it by construction (same compression schedule, same finalization; the
//! property tests in this module and in `prf.rs` prove it over random
//! keys, prefixes and batch shapes).
//!
//! Lane width is a process-wide knob: [`probe_lane_width`] picks a
//! sensible default from the host CPU (8 on AVX-512, 4 elsewhere — the
//! 4-lane structure-of-arrays form matches or beats the hand-unrolled
//! scalar loop through instruction-level parallelism alone), and
//! [`set_lane_width`] overrides it (CLI `--lanes` on `serve` and the
//! experiment harness). Because all widths are bit-identical, the knob is
//! purely a performance choice — answers never depend on it.

use crate::bias::Bias;
use crate::siphash::SipState;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of compression rounds (the "2" in SipHash-2-4).
const C_ROUNDS: usize = 2;
/// Number of finalization rounds (the "4" in SipHash-2-4).
const D_ROUNDS: usize = 4;

/// The lane widths the dispatcher knows how to run: scalar, 4-wide and
/// 8-wide structure-of-arrays. Other widths evaluate through the scalar
/// reference loop.
pub const SUPPORTED_LANE_WIDTHS: &[usize] = &[1, 4, 8];

/// `LANES` independent SipHash-2-4 streams advanced in lockstep.
///
/// The four SipHash registers are stored as `[u64; LANES]` arrays
/// (structure-of-arrays), so every ARX operation in a round is an
/// elementwise loop over lanes that the compiler turns into vector
/// instructions. All lanes share the same absorbed prefix (broadcast by
/// [`SipStateXN::splat`]) and diverge only in the finishing blocks —
/// exactly the shape of a shard scan, where the query prefix is shared
/// and the per-record `(id, key)` fields differ.
///
/// Lane `i` of every output equals the scalar
/// [`SipState`](crate::siphash::SipState) evaluation of the same byte
/// stream, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct SipStateXN<const LANES: usize> {
    v0: [u64; LANES],
    v1: [u64; LANES],
    v2: [u64; LANES],
    v3: [u64; LANES],
}

/// Four-lane SipHash state (one SSE/AVX2-era register pair per variable).
pub type SipStateX4 = SipStateXN<4>;
/// Eight-lane SipHash state (one AVX-512 zmm register per variable).
pub type SipStateX8 = SipStateXN<8>;

impl<const LANES: usize> SipStateXN<LANES> {
    /// Broadcasts a block-aligned scalar prefix state into all lanes.
    ///
    /// # Panics
    ///
    /// Panics unless the state is block-aligned (no residual tail bytes)
    /// — lanes only ever compress whole 8-byte blocks.
    #[must_use]
    pub fn splat(state: &SipState) -> Self {
        assert!(
            state.is_block_aligned(),
            "lane states broadcast only from block-aligned prefixes"
        );
        let [v0, v1, v2, v3] = state.words();
        Self {
            v0: [v0; LANES],
            v1: [v1; LANES],
            v2: [v2; LANES],
            v3: [v3; LANES],
        }
    }

    /// One SipHash round across all lanes. Each statement is an
    /// elementwise array operation — the vectorizable form of the scalar
    /// round in `siphash.rs`.
    #[inline(always)]
    fn round(&mut self) {
        for i in 0..LANES {
            self.v0[i] = self.v0[i].wrapping_add(self.v1[i]);
        }
        for i in 0..LANES {
            self.v1[i] = self.v1[i].rotate_left(13);
        }
        for i in 0..LANES {
            self.v1[i] ^= self.v0[i];
        }
        for i in 0..LANES {
            self.v0[i] = self.v0[i].rotate_left(32);
        }
        for i in 0..LANES {
            self.v2[i] = self.v2[i].wrapping_add(self.v3[i]);
        }
        for i in 0..LANES {
            self.v3[i] = self.v3[i].rotate_left(16);
        }
        for i in 0..LANES {
            self.v3[i] ^= self.v2[i];
        }
        for i in 0..LANES {
            self.v0[i] = self.v0[i].wrapping_add(self.v3[i]);
        }
        for i in 0..LANES {
            self.v3[i] = self.v3[i].rotate_left(21);
        }
        for i in 0..LANES {
            self.v3[i] ^= self.v0[i];
        }
        for i in 0..LANES {
            self.v2[i] = self.v2[i].wrapping_add(self.v1[i]);
        }
        for i in 0..LANES {
            self.v1[i] = self.v1[i].rotate_left(17);
        }
        for i in 0..LANES {
            self.v1[i] ^= self.v2[i];
        }
        for i in 0..LANES {
            self.v2[i] = self.v2[i].rotate_left(32);
        }
    }

    /// Compresses one message block per lane.
    // Indexed lane loops keep every elementwise op in the exact shape
    // the SLP vectorizer recognizes, matching `round()`.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn compress(&mut self, m: &[u64; LANES]) {
        for i in 0..LANES {
            self.v3[i] ^= m[i];
        }
        for _ in 0..C_ROUNDS {
            self.round();
        }
        for i in 0..LANES {
            self.v0[i] ^= m[i];
        }
    }

    /// Compresses the same message block into every lane (shared tails).
    #[inline(always)]
    fn compress_splat(&mut self, m: u64) {
        for i in 0..LANES {
            self.v3[i] ^= m;
        }
        for _ in 0..C_ROUNDS {
            self.round();
        }
        for i in 0..LANES {
            self.v0[i] ^= m;
        }
    }

    /// The D-round finalization, consuming the copied state.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn finalize_rounds(mut self) -> [u64; LANES] {
        for i in 0..LANES {
            self.v2[i] ^= 0xff;
        }
        for _ in 0..D_ROUNDS {
            self.round();
        }
        let mut out = [0u64; LANES];
        for i in 0..LANES {
            out[i] = self.v0[i] ^ self.v1[i] ^ self.v2[i] ^ self.v3[i];
        }
        out
    }

    /// Lane-parallel mirror of two
    /// [`SipState::absorb_u64`](crate::siphash::SipState::absorb_u64)
    /// calls: per lane `i`, absorbs `a[i]` and `b[i]` (the per-record
    /// id/key pair). `self` is unchanged (copy semantics), so one
    /// broadcast prefix state serves the whole scan.
    #[inline(always)]
    #[must_use]
    pub fn absorbed_u64x2(&self, a: &[u64; LANES], b: &[u64; LANES]) -> Self {
        let mut s = *self;
        s.compress(a);
        s.compress(b);
        s
    }

    /// Lane-parallel mirror of
    /// [`SipState::finish_then`](crate::siphash::SipState::finish_then):
    /// every lane absorbs the same precomputed final block (a query
    /// value's packed tail) and finalizes. `self` is unchanged, so one
    /// absorbed record state finishes once per requested value.
    #[inline(always)]
    #[must_use]
    pub fn finish_splat(&self, packed_tail: u64) -> [u64; LANES] {
        let mut s = *self;
        s.compress_splat(packed_tail);
        s.finalize_rounds()
    }
}

// ---------------------------------------------------------------------------
// Lane-width configuration
// ---------------------------------------------------------------------------

/// Sentinel: no explicit configuration, use the probed default.
const AUTO: usize = 0;

/// The configured lane width (`AUTO` until [`set_lane_width`] is called).
static CONFIGURED: AtomicUsize = AtomicUsize::new(AUTO);

/// An invalid lane-width configuration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWidthError(usize);

impl std::fmt::Display for LaneWidthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsupported lane width {} (supported: 0 = auto, {:?})",
            self.0, SUPPORTED_LANE_WIDTHS
        )
    }
}

impl std::error::Error for LaneWidthError {}

/// The lane width the host CPU is expected to profit from, probed once.
///
/// * x86-64 with AVX-512F: 8 — one zmm register per SipHash variable and
///   a native 64-bit lane rotate (`vprolq`); measured 3.2× over the
///   hand-unrolled scalar loop on the reference host.
/// * everything else: 4 — the 4-lane structure-of-arrays form matches or
///   modestly beats the scalar loop through instruction-level
///   parallelism and narrower vectors, and never loses (measured ≈1.1×
///   on the reference host when forced off the AVX-512 path).
#[must_use]
pub fn probe_lane_width() -> usize {
    static PROBED: OnceLock<usize> = OnceLock::new();

    fn detect() -> usize {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return 8;
        }
        4
    }

    *PROBED.get_or_init(detect)
}

/// Overrides the process-wide lane width: `0` restores auto-probing,
/// `1` forces the scalar reference loop, `4`/`8` force that lane count.
///
/// Safe to call at any time — every width computes bit-identical answers,
/// so a mid-flight change can only alter throughput, never results.
///
/// # Errors
///
/// [`LaneWidthError`] for widths outside `{0} ∪` [`SUPPORTED_LANE_WIDTHS`].
pub fn set_lane_width(width: usize) -> Result<(), LaneWidthError> {
    if width != AUTO && !SUPPORTED_LANE_WIDTHS.contains(&width) {
        return Err(LaneWidthError(width));
    }
    // ord: standalone config word; callers set it before spawning the
    // scan threads that read it, and thread::spawn orders the handoff
    CONFIGURED.store(width, Ordering::Relaxed);
    Ok(())
}

/// The effective lane width: the configured override, or the probed
/// hardware default.
#[must_use]
pub fn lane_width() -> usize {
    // ord: see `set_lane_width` — the spawn edge does the ordering
    match CONFIGURED.load(Ordering::Relaxed) {
        AUTO => probe_lane_width(),
        width => width,
    }
}

// ---------------------------------------------------------------------------
// Dispatched batch kernels (crate-internal: `PrfPrefix` calls these)
// ---------------------------------------------------------------------------

/// Whether the AVX-512F fast path is available on this host.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_available() -> bool {
    // `is_x86_feature_detected!` caches its CPUID probe internally.
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Counts biased-1 outcomes per requested value over `(id, key)` column
/// pairs under a shared block-aligned prefix state: `counts[t]` is the
/// number of records `i` whose stream `prefix ‖ id_i ‖ key_i ‖ tail_t`
/// decides 1, where `packed_tails[t]` is tail `t`'s precomputed final
/// block. Each record's `id ‖ key` state is absorbed once and finished
/// once per value — the Algorithm 2 inner loop for every value a query
/// needs on one subset, dispatched by lane width.
pub(crate) fn count_values(
    state: &SipState,
    ids: &[u64],
    keys: &[u64],
    packed_tails: &[u64],
    bias: Bias,
    width: usize,
) -> Vec<usize> {
    match width {
        8 => {
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                // SAFETY: `count_values_x8_avx512` requires AVX-512F,
                // which the branch above just detected at runtime.
                #[allow(unsafe_code)]
                return unsafe { count_values_x8_avx512(state, ids, keys, packed_tails, bias) };
            }
            count_values_lanes::<8>(state, ids, keys, packed_tails, bias)
        }
        4 => count_values_lanes::<4>(state, ids, keys, packed_tails, bias),
        _ => count_values_scalar(state, ids, keys, packed_tails, bias),
    }
}

/// Adds one record's outcomes to `counts`: its `id ‖ key` state is
/// absorbed once, then finished against every packed tail.
#[inline(always)]
fn count_record(
    state: &SipState,
    id: u64,
    key: u64,
    packed_tails: &[u64],
    bias: Bias,
    counts: &mut [usize],
) {
    let mut record = *state;
    record.absorb_u64(id).absorb_u64(key);
    for (count, &tail) in counts.iter_mut().zip(packed_tails) {
        *count += usize::from(bias.decide(record.finish_then(tail)));
    }
}

/// The scalar reference loop: four independent records interleaved by
/// hand so the CPU overlaps their round chains (SipHash is latency-bound
/// on a single stream). This is the `width = 1` path.
fn count_values_scalar(
    state: &SipState,
    ids: &[u64],
    keys: &[u64],
    packed_tails: &[u64],
    bias: Bias,
) -> Vec<usize> {
    let mut counts = vec![0usize; packed_tails.len()];
    let mut id4 = ids.chunks_exact(4);
    let mut key4 = keys.chunks_exact(4);
    for (id, key) in (&mut id4).zip(&mut key4) {
        let records: [SipState; 4] = core::array::from_fn(|i| {
            let mut record = *state;
            record.absorb_u64(id[i]).absorb_u64(key[i]);
            record
        });
        for (count, &tail) in counts.iter_mut().zip(packed_tails) {
            *count += usize::from(bias.decide(records[0].finish_then(tail)))
                + usize::from(bias.decide(records[1].finish_then(tail)))
                + usize::from(bias.decide(records[2].finish_then(tail)))
                + usize::from(bias.decide(records[3].finish_then(tail)));
        }
    }
    for (&id, &key) in id4.remainder().iter().zip(key4.remainder()) {
        count_record(state, id, key, packed_tails, bias, &mut counts);
    }
    counts
}

/// The generic N-lane counter; the scalar loop handles the `n % LANES`
/// remainder so every batch size is covered. Counts accumulate
/// lane-wise (`[u64; LANES]` per value) and are summed across lanes
/// once at the end, so the per-value inner loop stays in vector
/// registers.
#[inline(always)]
fn count_values_lanes<const LANES: usize>(
    state: &SipState,
    ids: &[u64],
    keys: &[u64],
    packed_tails: &[u64],
    bias: Bias,
) -> Vec<usize> {
    let xs = SipStateXN::<LANES>::splat(state);
    let mut lane_counts = vec![[0u64; LANES]; packed_tails.len()];
    let mut idc = ids.chunks_exact(LANES);
    let mut keyc = keys.chunks_exact(LANES);
    for (id, key) in (&mut idc).zip(&mut keyc) {
        let id: &[u64; LANES] = id.try_into().expect("chunks_exact yields LANES");
        let key: &[u64; LANES] = key.try_into().expect("chunks_exact yields LANES");
        let records = xs.absorbed_u64x2(id, key);
        for (lanes, &tail) in lane_counts.iter_mut().zip(packed_tails) {
            let tags = records.finish_splat(tail);
            for (count, tag) in lanes.iter_mut().zip(tags) {
                *count += u64::from(bias.decide(tag));
            }
        }
    }
    let mut counts: Vec<usize> = lane_counts
        .iter()
        .map(|lanes| lanes.iter().sum::<u64>() as usize)
        .collect();
    for (&id, &key) in idc.remainder().iter().zip(keyc.remainder()) {
        count_record(state, id, key, packed_tails, bias, &mut counts);
    }
    counts
}

/// The AVX-512 monomorphization: same code as
/// [`count_values_lanes`]`::<8>`, compiled with zmm registers and
/// `vprolq` available so the elementwise lane loops vectorize 8-wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn count_values_x8_avx512(
    state: &SipState,
    ids: &[u64],
    keys: &[u64],
    packed_tails: &[u64],
    bias: Bias,
) -> Vec<usize> {
    count_values_lanes::<8>(state, ids, keys, packed_tails, bias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::siphash::SipHash24;
    use proptest::prelude::*;

    /// Official vectors from the SipHash reference implementation
    /// (`vectors_sip64`): key = 000102…0f, message = 00 01 02 … of
    /// increasing length. Duplicated from `siphash.rs` on purpose — the
    /// lane evaluator must anchor to the published constants on its own.
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

    /// Packs `msg` (≤ 7 bytes) plus the length byte for a message of
    /// `total` bytes into a SipHash final block.
    fn final_block(msg: &[u8], total: u64) -> u64 {
        let mut packed = total << 56;
        for (i, &b) in msg.iter().enumerate() {
            packed |= u64::from(b) << (8 * i);
        }
        packed
    }

    /// Finishes every lane with its own final block — the compression
    /// and finalization the scan kernels run, one message per lane.
    fn finish_lanewise<const LANES: usize>(
        state: SipStateXN<LANES>,
        blocks: &[u64; LANES],
    ) -> [u64; LANES] {
        let mut s = state;
        s.compress(blocks);
        s.finalize_rounds()
    }

    #[test]
    fn every_lane_reproduces_reference_vectors() {
        // Messages of length 0..8 finish from the empty state; lengths
        // 8..16 finish after one absorbed block. Each x8 call validates
        // eight *different* official vectors — one per lane — so a
        // single lane copying its neighbour would be caught.
        let sip = reference_key();
        let msg: Vec<u8> = (0u8..16).collect();

        let empty = SipStateXN::<8>::splat(&sip.begin());
        let tails: [u64; 8] = core::array::from_fn(|len| final_block(&msg[..len], len as u64));
        assert_eq!(finish_lanewise(empty, &tails), REFERENCE_VECTORS[..8]);

        let mut one_block = sip.begin();
        one_block.absorb(&msg[..8]);
        let aligned = SipStateXN::<8>::splat(&one_block);
        let tails: [u64; 8] = core::array::from_fn(|i| final_block(&msg[8..8 + i], (8 + i) as u64));
        assert_eq!(finish_lanewise(aligned, &tails), REFERENCE_VECTORS[8..]);

        // The x4 shape replays the same anchors in two halves.
        let narrow = SipStateXN::<4>::splat(&sip.begin());
        for half in 0..2usize {
            let tails: [u64; 4] = core::array::from_fn(|i| {
                let len = 4 * half + i;
                final_block(&msg[..len], len as u64)
            });
            assert_eq!(
                finish_lanewise(narrow, &tails),
                REFERENCE_VECTORS[4 * half..4 * half + 4]
            );
        }
    }

    #[test]
    fn finish_u64x2_then_matches_scalar_lanewise() {
        let sip = SipHash24::new(0x1234, 0x5678);
        let mut state = sip.begin();
        state.absorb(b"prefix66"); // 8 bytes: block-aligned
        let packed_tail = state.pack_short_tail(16, b"xyz");
        let ids: [u64; 8] = core::array::from_fn(|i| (i as u64) * 77 + 1);
        let keys: [u64; 8] = core::array::from_fn(|i| (i as u64) ^ 0xABCD);
        let lanes = SipStateXN::<8>::splat(&state)
            .absorbed_u64x2(&ids, &keys)
            .finish_splat(packed_tail);
        for i in 0..8 {
            assert_eq!(
                lanes[i],
                state.finish_u64x2_then(ids[i], keys[i], packed_tail),
                "lane {i} diverged from the scalar oracle"
            );
        }
    }

    #[test]
    fn splat_rejects_unaligned_states() {
        let sip = reference_key();
        let mut state = sip.begin();
        state.absorb(b"123"); // 3 residual bytes
        assert!(std::panic::catch_unwind(|| SipStateXN::<4>::splat(&state)).is_err());
    }

    #[test]
    fn lane_width_configuration_round_trips() {
        // Exercise the knob through every supported value and back to
        // auto. Other tests run concurrently, but every width computes
        // identical answers, so this is observability-only.
        for &w in SUPPORTED_LANE_WIDTHS {
            set_lane_width(w).unwrap();
            assert_eq!(lane_width(), w);
        }
        assert!(set_lane_width(3).is_err());
        assert!(set_lane_width(16).is_err());
        let msg = set_lane_width(5).unwrap_err().to_string();
        assert!(msg.contains('5'), "error names the bad width: {msg}");
        set_lane_width(0).unwrap();
        assert_eq!(lane_width(), probe_lane_width());
        assert!(SUPPORTED_LANE_WIDTHS.contains(&probe_lane_width()));
    }

    /// The scalar oracle for `count_values`: one full state per record
    /// and value.
    fn count_oracle(state: &SipState, ids: &[u64], keys: &[u64], tail: &[u8], bias: Bias) -> usize {
        ids.iter()
            .zip(keys)
            .filter(|&(&id, &key)| {
                let mut s = *state;
                s.absorb_u64(id).absorb_u64(key).absorb(tail);
                bias.decide(s.finish())
            })
            .count()
    }

    proptest! {
        /// Every supported lane width × record counts that leave a
        /// remainder at every width × 1–20 short tails of mixed lengths
        /// (duplicates included): each value's count from the dispatched
        /// kernel equals the scalar absorb/finish oracle exactly.
        #[test]
        fn lane_eval_bit_identical_to_scalar(
            k0 in any::<u64>(),
            k1 in any::<u64>(),
            prefix_blocks in 0usize..4,
            lane_groups in 0usize..9,
            remainder in 1usize..4,
            tail_shapes in proptest::collection::vec((0usize..8, 0u64..6), 1..=20),
            seed in any::<u64>(),
            p_milli in 1u64..999,
        ) {
            let sip = SipHash24::new(k0, k1);
            let mut state = sip.begin();
            let prefix: Vec<u8> = (0..8 * prefix_blocks)
                .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 11) as u8)
                .collect();
            state.absorb(&prefix);
            // A small seed pool makes duplicate tails likely.
            let tails: Vec<Vec<u8>> = tail_shapes
                .iter()
                .map(|&(len, s)| (0..len).map(|i| (s * 37 + i as u64) as u8).collect())
                .collect();
            let bias = Bias::from_prob(p_milli as f64 / 1000.0);
            let n = 8 * lane_groups + remainder;
            let ids: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_add(i * 31)).collect();
            let keys: Vec<u64> = (0..n as u64).map(|i| seed.rotate_left(i as u32)).collect();
            let expected: Vec<usize> = tails
                .iter()
                .map(|tail| count_oracle(&state, &ids, &keys, tail, bias))
                .collect();
            let packed: Vec<u64> = tails.iter().map(|t| state.pack_short_tail(16, t)).collect();
            for &width in SUPPORTED_LANE_WIDTHS {
                prop_assert_eq!(
                    count_values(&state, &ids, &keys, &packed, bias, width),
                    expected.clone(),
                    "width {} diverged (n = {}, tails = {})", width, n, tails.len()
                );
            }
        }
    }
}

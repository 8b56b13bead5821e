//! User profiles, identifiers, bit strings and attribute subsets.
//!
//! The paper's data model (§2): each user holds private data `d ∈ {0,1}^q`
//! (the *profile*) plus a unique public identifier `id` that carries no
//! private information. Sketches describe `d_B` — the substring of `d`
//! induced by a subset of attribute positions `B ⊆ [1..q]`.

use std::fmt;

/// A user's unique public identifier.
///
/// The paper: "each user holds a unique public identifier id — which does
/// not contain any private information (for example it could be a timestamp
/// of user registration in the system)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(pub u64);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user:{}", self.0)
    }
}

/// A packed bit string: profiles, projected values, and query values.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    /// Packed bits, LSB-first within each word.
    words: Vec<u64>,
    /// Number of valid bits.
    len: usize,
}

impl BitString {
    /// Creates an all-zero bit string of length `len`.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bit string from a slice of bools.
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut s = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            s.set(i, b);
        }
        s
    }

    /// Creates a `len`-bit string from the low bits of `value` (LSB = bit 0).
    ///
    /// Used for integer attributes stored in binary inside a profile.
    #[must_use]
    pub fn from_u64(value: u64, len: usize) -> Self {
        let mut s = Self::zeros(len);
        for i in 0..len.min(64) {
            s.set(i, (value >> i) & 1 == 1);
        }
        s
    }

    /// Number of bits.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the string is empty.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i` and returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ len`.
    pub fn flip(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// Number of one bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over bits in index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Collects into a `Vec<bool>` (for PRF input encoding and tests).
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Interprets the first `min(len, 64)` bits as an LSB-first integer.
    #[must_use]
    pub fn to_u64(&self) -> u64 {
        let mut v = self.words.first().copied().unwrap_or(0);
        if self.len < 64 {
            v &= (1u64 << self.len) - 1;
        }
        v
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(")?;
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        write!(f, ")")
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Self::from_bits(&bits)
    }
}

/// A user's private profile: `d ∈ {0,1}^q`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Profile {
    bits: BitString,
}

impl Profile {
    /// An all-zero profile over `q` attributes.
    #[must_use]
    pub fn zeros(q: usize) -> Self {
        Self {
            bits: BitString::zeros(q),
        }
    }

    /// Builds a profile from bools.
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        Self {
            bits: BitString::from_bits(bits),
        }
    }

    /// Builds a profile from a bit string.
    #[must_use]
    pub fn from_bitstring(bits: BitString) -> Self {
        Self { bits }
    }

    /// Number of attributes `q`.
    #[must_use]
    pub fn num_attributes(&self) -> usize {
        self.bits.len()
    }

    /// Reads attribute `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ q`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Writes attribute `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ q`.
    pub fn set(&mut self, i: usize, value: bool) {
        self.bits.set(i, value);
    }

    /// The underlying bit string.
    #[must_use]
    pub fn bits(&self) -> &BitString {
        &self.bits
    }

    /// Projects the profile onto a subset: the paper's `d_B`.
    ///
    /// Bit `j` of the result is the profile bit at `subset.positions()[j]`.
    ///
    /// # Panics
    ///
    /// Panics if the subset references positions `≥ q`.
    #[must_use]
    pub fn project(&self, subset: &BitSubset) -> BitString {
        subset
            .positions()
            .iter()
            .map(|&pos| self.bits.get(pos as usize))
            .collect()
    }

    /// Whether the profile satisfies the conjunctive constraint
    /// `d_B = value` (the paper's `I(B, v)` membership predicate).
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or positions are out of range.
    #[must_use]
    pub fn satisfies(&self, subset: &BitSubset, value: &BitString) -> bool {
        assert_eq!(
            subset.len(),
            value.len(),
            "value width {} does not match subset width {}",
            value.len(),
            subset.len()
        );
        subset
            .positions()
            .iter()
            .enumerate()
            .all(|(j, &pos)| self.bits.get(pos as usize) == value.get(j))
    }
}

impl fmt::Debug for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Profile{:?}", self.bits)
    }
}

/// A subset of attribute positions `B ⊆ [0..q)`, kept sorted and unique.
///
/// Sorted canonical order makes subsets hashable database keys and makes
/// the PRF input encoding of `B` canonical (the same set always encodes to
/// the same bytes, as the paper's `H(id, B, ·, ·)` requires).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitSubset {
    positions: Vec<u32>,
}

/// Errors from subset construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubsetError {
    /// The subset contains no positions.
    Empty,
    /// A position appears more than once.
    Duplicate {
        /// The repeated position.
        position: u32,
    },
}

impl fmt::Display for SubsetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "attribute subset must be non-empty"),
            Self::Duplicate { position } => {
                write!(f, "attribute position {position} appears more than once")
            }
        }
    }
}

impl std::error::Error for SubsetError {}

impl BitSubset {
    /// Builds a subset from positions (any order; sorted internally).
    ///
    /// # Errors
    ///
    /// * [`SubsetError::Empty`] for an empty position list;
    /// * [`SubsetError::Duplicate`] if a position repeats.
    pub fn new(mut positions: Vec<u32>) -> Result<Self, SubsetError> {
        if positions.is_empty() {
            return Err(SubsetError::Empty);
        }
        positions.sort_unstable();
        if let Some(w) = positions.windows(2).find(|w| w[0] == w[1]) {
            return Err(SubsetError::Duplicate { position: w[0] });
        }
        Ok(Self { positions })
    }

    /// A single-attribute subset.
    #[must_use]
    pub fn single(position: u32) -> Self {
        Self {
            positions: vec![position],
        }
    }

    /// A contiguous range of positions `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[must_use]
    pub fn range(start: u32, len: u32) -> Self {
        assert!(len > 0, "range subset must be non-empty");
        Self {
            positions: (start..start + len).collect(),
        }
    }

    /// The sorted positions.
    #[must_use]
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Number of attributes in the subset (the conjunction width `k`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the subset is empty (never true for constructed values).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Whether `other` and `self` share any position.
    #[must_use]
    pub fn intersects(&self, other: &Self) -> bool {
        // Both sorted: linear merge scan.
        let (mut i, mut j) = (0, 0);
        while i < self.positions.len() && j < other.positions.len() {
            match self.positions[i].cmp(&other.positions[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// The union of two subsets.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        let mut positions: Vec<u32> = self
            .positions
            .iter()
            .chain(other.positions.iter())
            .copied()
            .collect();
        positions.sort_unstable();
        positions.dedup();
        Self { positions }
    }

    /// Largest referenced position (subsets are non-empty by construction).
    #[must_use]
    pub fn max_position(&self) -> u32 {
        *self.positions.last().expect("subsets are non-empty")
    }
}

impl fmt::Debug for BitSubset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSubset{:?}", self.positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitstring_roundtrip_bools() {
        let bits = [true, false, true, true, false];
        let s = BitString::from_bits(&bits);
        assert_eq!(s.len(), 5);
        assert_eq!(s.to_bools(), bits);
        assert_eq!(s.count_ones(), 3);
    }

    #[test]
    fn bitstring_crosses_word_boundary() {
        let mut s = BitString::zeros(130);
        s.set(0, true);
        s.set(63, true);
        s.set(64, true);
        s.set(129, true);
        assert_eq!(s.count_ones(), 4);
        assert!(s.get(63) && s.get(64) && s.get(129));
        assert!(!s.get(1));
    }

    #[test]
    fn bitstring_from_u64_lsb_first() {
        let s = BitString::from_u64(0b1011, 4);
        assert_eq!(s.to_bools(), [true, true, false, true]);
        assert_eq!(s.to_u64(), 0b1011);
    }

    #[test]
    fn bitstring_to_u64_masks_to_len() {
        let s = BitString::from_u64(0xFF, 3);
        assert_eq!(s.to_u64(), 0b111);
    }

    #[test]
    fn bitstring_flip() {
        let mut s = BitString::zeros(2);
        assert!(s.flip(1));
        assert!(!s.flip(1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bitstring_get_out_of_bounds() {
        let s = BitString::zeros(3);
        let _ = s.get(3);
    }

    #[test]
    fn subset_sorts_and_rejects_duplicates() {
        let s = BitSubset::new(vec![5, 1, 3]).unwrap();
        assert_eq!(s.positions(), &[1, 3, 5]);
        assert_eq!(
            BitSubset::new(vec![2, 2]).unwrap_err(),
            SubsetError::Duplicate { position: 2 }
        );
        assert_eq!(BitSubset::new(vec![]).unwrap_err(), SubsetError::Empty);
    }

    #[test]
    fn subset_range_and_single() {
        assert_eq!(BitSubset::range(4, 3).positions(), &[4, 5, 6]);
        assert_eq!(BitSubset::single(9).positions(), &[9]);
    }

    #[test]
    fn subset_intersects() {
        let a = BitSubset::new(vec![1, 4, 7]).unwrap();
        let b = BitSubset::new(vec![2, 4]).unwrap();
        let c = BitSubset::new(vec![0, 3]).unwrap();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn subset_union_dedups() {
        let a = BitSubset::new(vec![1, 3]).unwrap();
        let b = BitSubset::new(vec![3, 5]).unwrap();
        assert_eq!(a.union(&b).positions(), &[1, 3, 5]);
    }

    #[test]
    fn profile_projection_follows_subset_order() {
        let profile = Profile::from_bits(&[true, false, false, true, true]);
        let subset = BitSubset::new(vec![4, 0, 2]).unwrap(); // sorted: 0,2,4
        let proj = profile.project(&subset);
        assert_eq!(proj.to_bools(), [true, false, true]);
    }

    #[test]
    fn profile_satisfies_matches_projection() {
        let profile = Profile::from_bits(&[true, false, true]);
        let subset = BitSubset::new(vec![0, 2]).unwrap();
        let good = BitString::from_bits(&[true, true]);
        let bad = BitString::from_bits(&[true, false]);
        assert!(profile.satisfies(&subset, &good));
        assert!(!profile.satisfies(&subset, &bad));
        assert_eq!(profile.project(&subset), good);
    }

    #[test]
    #[should_panic(expected = "does not match subset width")]
    fn satisfies_rejects_width_mismatch() {
        let profile = Profile::from_bits(&[true, false]);
        let subset = BitSubset::single(0);
        let v = BitString::from_bits(&[true, false]);
        let _ = profile.satisfies(&subset, &v);
    }

    #[test]
    fn profile_mutation() {
        let mut p = Profile::zeros(4);
        p.set(2, true);
        assert!(p.get(2));
        assert_eq!(p.bits().count_ones(), 1);
        assert_eq!(p.num_attributes(), 4);
    }

    #[test]
    fn figure1_worked_example() {
        // Figure 1 of the paper: private 3-bit value '100' has indicator
        // position 4 (LSB-first reading of '100' = binary 0b001? The paper
        // writes values MSB-first; we store attribute 0 as the leftmost
        // written bit). The projection machinery must reproduce d_B = v.
        let profile = Profile::from_bits(&[true, false, false]); // '100'
        let all = BitSubset::range(0, 3);
        let v = BitString::from_bits(&[true, false, false]);
        assert!(profile.satisfies(&all, &v));
        // Exactly one of the 8 possible values matches.
        let matches = (0..8u64)
            .filter(|&x| {
                let candidate = BitString::from_u64(x, 3);
                profile.satisfies(&all, &candidate)
            })
            .count();
        assert_eq!(matches, 1);
    }
}

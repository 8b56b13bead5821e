//! Integer attributes laid out over profile bits — the paper's §4.1 setup.
//!
//! "We assume that each profile holds several k-bit integer attributes
//! a, b, c, … stored in binary form in the user's profile d. […] Let `A`
//! denote the subset of bits used to store the value of attribute a […]
//! let `Aᵢ` denote the subset which contains the i highest bits of a \[and\]
//! `Aᵢ` the index of the i-th highest bit."
//!
//! [`IntField`] is that layout: a contiguous window of `width` profile
//! bits, stored **most-significant-bit first** (matching the paper's
//! `a_u = Σ a_{u,i}·2^{k−i}` indexing, where `a_{u,1}` is the high bit).

use crate::profile::{BitString, BitSubset, Profile};

/// A `width`-bit unsigned integer attribute occupying profile positions
/// `[offset, offset + width)`, MSB first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntField {
    offset: u32,
    width: u32,
}

impl IntField {
    /// Defines a field.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ width ≤ 63`.
    #[must_use]
    pub fn new(offset: u32, width: u32) -> Self {
        assert!((1..=63).contains(&width), "width must be in [1, 63]");
        Self { offset, width }
    }

    /// First profile position of the field.
    #[must_use]
    pub const fn offset(&self) -> u32 {
        self.offset
    }

    /// Bit width `k`.
    #[must_use]
    pub const fn width(&self) -> u32 {
        self.width
    }

    /// Largest representable value `2^k − 1`.
    #[must_use]
    pub const fn max_value(&self) -> u64 {
        (1u64 << self.width) - 1
    }

    /// One past the last profile position.
    #[must_use]
    pub const fn end(&self) -> u32 {
        self.offset + self.width
    }

    /// Profile position of the `i`-th highest bit, `i ∈ [1, k]`
    /// (the paper's `Aᵢ` index: `i = 1` is the most significant bit).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ i ≤ width`.
    #[must_use]
    pub fn bit_position(&self, i: u32) -> u32 {
        assert!(
            i >= 1 && i <= self.width,
            "bit index {i} out of [1, {}]",
            self.width
        );
        self.offset + (i - 1)
    }

    /// The single-bit subset `{Aᵢ}` for the `i`-th highest bit.
    #[must_use]
    pub fn bit_subset(&self, i: u32) -> BitSubset {
        BitSubset::single(self.bit_position(i))
    }

    /// The subset of the `i` highest bits (the paper's `Aᵢ` prefix set).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ i ≤ width`.
    #[must_use]
    pub fn prefix_subset(&self, i: u32) -> BitSubset {
        assert!(
            i >= 1 && i <= self.width,
            "prefix {i} out of [1, {}]",
            self.width
        );
        BitSubset::range(self.offset, i)
    }

    /// The full attribute subset `A`.
    #[must_use]
    pub fn subset(&self) -> BitSubset {
        BitSubset::range(self.offset, self.width)
    }

    /// Writes `value` into `profile` (MSB at the lowest position).
    ///
    /// # Panics
    ///
    /// Panics if `value > max_value()` or the field exceeds the profile.
    pub fn write(&self, profile: &mut Profile, value: u64) {
        assert!(
            value <= self.max_value(),
            "value {value} exceeds {}-bit field",
            self.width
        );
        for i in 1..=self.width {
            let bit = (value >> (self.width - i)) & 1 == 1;
            profile.set(self.bit_position(i) as usize, bit);
        }
    }

    /// Reads the field from `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the field exceeds the profile.
    #[must_use]
    pub fn read(&self, profile: &Profile) -> u64 {
        (1..=self.width).fold(0u64, |acc, i| {
            (acc << 1) | u64::from(profile.get(self.bit_position(i) as usize))
        })
    }

    /// The `i` highest bits of `value` as a [`BitString`] aligned with
    /// [`IntField::prefix_subset`] (MSB first, matching position order).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ i ≤ width`.
    #[must_use]
    pub fn prefix_value(&self, value: u64, i: u32) -> BitString {
        assert!(i >= 1 && i <= self.width);
        (1..=i)
            .map(|j| (value >> (self.width - j)) & 1 == 1)
            .collect()
    }

    /// The full value as a position-aligned [`BitString`].
    #[must_use]
    pub fn full_value(&self, value: u64) -> BitString {
        self.prefix_value(value, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let field = IntField::new(3, 8);
        let mut profile = Profile::zeros(16);
        for v in [0u64, 1, 37, 128, 255] {
            field.write(&mut profile, v);
            assert_eq!(field.read(&profile), v, "roundtrip of {v}");
        }
    }

    #[test]
    fn msb_first_layout() {
        let field = IntField::new(0, 4);
        let mut profile = Profile::zeros(4);
        field.write(&mut profile, 0b1000);
        // MSB lands at the lowest position.
        assert!(profile.get(0));
        assert!(!profile.get(1) && !profile.get(2) && !profile.get(3));
    }

    #[test]
    fn bit_position_matches_paper_indexing() {
        let field = IntField::new(10, 4);
        assert_eq!(field.bit_position(1), 10); // highest bit
        assert_eq!(field.bit_position(4), 13); // lowest bit
        assert_eq!(field.prefix_subset(2).positions(), &[10, 11]);
        assert_eq!(field.subset().positions(), &[10, 11, 12, 13]);
    }

    #[test]
    fn prefix_value_aligns_with_prefix_subset() {
        let field = IntField::new(0, 4);
        let mut profile = Profile::zeros(4);
        field.write(&mut profile, 0b1010);
        for i in 1..=4 {
            let prefix = field.prefix_value(0b1010, i);
            assert!(
                profile.satisfies(&field.prefix_subset(i), &prefix),
                "prefix {i} misaligned"
            );
        }
    }

    #[test]
    fn disjoint_fields_do_not_clobber() {
        let a = IntField::new(0, 4);
        let b = IntField::new(4, 4);
        let mut profile = Profile::zeros(8);
        a.write(&mut profile, 9);
        b.write(&mut profile, 6);
        assert_eq!(a.read(&profile), 9);
        assert_eq!(b.read(&profile), 6);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_value_rejected() {
        let field = IntField::new(0, 3);
        let mut profile = Profile::zeros(3);
        field.write(&mut profile, 8);
    }

    #[test]
    #[should_panic(expected = "width must be in")]
    fn zero_width_rejected() {
        let _ = IntField::new(0, 0);
    }

    #[test]
    fn max_value_and_end() {
        let f = IntField::new(2, 5);
        assert_eq!(f.max_value(), 31);
        assert_eq!(f.end(), 7);
        assert_eq!(f.offset(), 2);
        assert_eq!(f.width(), 5);
    }
}

//! Wavelength identifiers and dense wavelength sets.
//!
//! TeraRack-class interconnects carry up to 64 DWDM channels per waveguide;
//! we allow an arbitrary count and store memberships in a compact bitset of
//! 64-lane words. The RWA core (`rwa.rs`) works on those words directly: it
//! ORs a route's segment words into one busy mask and takes free lanes with
//! bit tricks, so placing a transfer costs a few word operations per segment
//! and allocates nothing.

use serde::{Deserialize, Serialize};

/// Index of a WDM channel, in `0..w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Wavelength(pub usize);

impl std::fmt::Display for Wavelength {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "λ{}", self.0)
    }
}

/// A set of wavelengths backed by a bit vector.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WavelengthSet {
    words: Vec<u64>,
    capacity: usize,
}

impl WavelengthSet {
    /// Empty set able to hold wavelengths `0..capacity`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Set containing every wavelength in `0..capacity`.
    #[must_use]
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::with_capacity(capacity);
        for w in 0..capacity {
            s.insert(Wavelength(w));
        }
        s
    }

    /// Maximum wavelength index + 1 this set can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of wavelengths in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set holds no wavelength.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Add a wavelength; out-of-capacity inserts are ignored (debug-asserted).
    pub fn insert(&mut self, w: Wavelength) {
        debug_assert!(w.0 < self.capacity, "wavelength {} beyond capacity", w.0);
        if w.0 < self.capacity {
            self.words[w.0 / 64] |= 1 << (w.0 % 64);
        }
    }

    /// Remove a wavelength.
    pub fn remove(&mut self, w: Wavelength) {
        if w.0 < self.capacity {
            self.words[w.0 / 64] &= !(1 << (w.0 % 64));
        }
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, w: Wavelength) -> bool {
        w.0 < self.capacity && (self.words[w.0 / 64] >> (w.0 % 64)) & 1 == 1
    }

    /// Lowest-indexed wavelength in the set.
    #[must_use]
    pub fn first(&self) -> Option<Wavelength> {
        for (i, &word) in self.words.iter().enumerate() {
            if word != 0 {
                return Some(Wavelength(i * 64 + word.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Lowest-indexed wavelength NOT in the set (below capacity).
    #[must_use]
    pub fn first_absent(&self) -> Option<Wavelength> {
        for w in 0..self.capacity {
            if !self.contains(Wavelength(w)) {
                return Some(Wavelength(w));
            }
        }
        None
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &WavelengthSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &WavelengthSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// True when `self` and `other` share no wavelength.
    #[must_use]
    pub fn is_disjoint(&self, other: &WavelengthSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterate over member wavelengths in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Wavelength> + '_ {
        (0..self.capacity)
            .map(Wavelength)
            .filter(move |w| self.contains(*w))
    }

    /// Remove all wavelengths.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// The backing words: word `k` holds wavelengths `64k..64k + 64`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Add every wavelength set in `mask` to word `k`.
    pub(crate) fn insert_word(&mut self, k: usize, mask: u64) {
        debug_assert_eq!(mask & !lane_mask(self.capacity, k), 0);
        self.words[k] |= mask;
    }
}

/// The bits of word `k` that hold real wavelengths of a `capacity`-wide set:
/// all 64 except in the last, partial word.
pub(crate) fn lane_mask(capacity: usize, k: usize) -> u64 {
    let below = capacity.saturating_sub(k * 64);
    if below >= 64 {
        u64::MAX
    } else {
        (1u64 << below) - 1
    }
}

/// The wavelengths set in word `k` of a bitset, in increasing order.
pub(crate) fn word_lanes(k: usize, mut word: u64) -> impl Iterator<Item = Wavelength> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            Wavelength(k * 64 + bit)
        })
    })
}

impl FromIterator<Wavelength> for WavelengthSet {
    /// Collect into a set sized to the largest element + 1.
    fn from_iter<I: IntoIterator<Item = Wavelength>>(iter: I) -> Self {
        let items: Vec<Wavelength> = iter.into_iter().collect();
        let cap = items.iter().map(|w| w.0 + 1).max().unwrap_or(0);
        let mut s = Self::with_capacity(cap);
        for w in items {
            s.insert(w);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = WavelengthSet::with_capacity(100);
        assert!(s.is_empty());
        s.insert(Wavelength(0));
        s.insert(Wavelength(63));
        s.insert(Wavelength(64));
        s.insert(Wavelength(99));
        assert_eq!(s.len(), 4);
        assert!(s.contains(Wavelength(63)));
        assert!(s.contains(Wavelength(64)));
        assert!(!s.contains(Wavelength(65)));
        s.remove(Wavelength(63));
        assert!(!s.contains(Wavelength(63)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn out_of_capacity_contains_is_false() {
        let s = WavelengthSet::with_capacity(4);
        assert!(!s.contains(Wavelength(1000)));
    }

    #[test]
    fn first_and_first_absent() {
        let mut s = WavelengthSet::with_capacity(8);
        assert_eq!(s.first(), None);
        assert_eq!(s.first_absent(), Some(Wavelength(0)));
        for w in 0..5 {
            s.insert(Wavelength(w));
        }
        assert_eq!(s.first(), Some(Wavelength(0)));
        assert_eq!(s.first_absent(), Some(Wavelength(5)));
        let full = WavelengthSet::full(8);
        assert_eq!(full.first_absent(), None);
        assert_eq!(full.len(), 8);
    }

    #[test]
    fn set_algebra() {
        let mut a = WavelengthSet::with_capacity(70);
        let mut b = WavelengthSet::with_capacity(70);
        a.insert(Wavelength(1));
        a.insert(Wavelength(65));
        b.insert(Wavelength(2));
        b.insert(Wavelength(65));
        assert!(!a.is_disjoint(&b));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 3);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![Wavelength(65)]);
        b.remove(Wavelength(65));
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn iter_in_order() {
        let s: WavelengthSet = [Wavelength(5), Wavelength(1), Wavelength(3)]
            .into_iter()
            .collect();
        assert_eq!(s.iter().map(|w| w.0).collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn lane_masks_cover_exactly_the_capacity() {
        assert_eq!(lane_mask(0, 0), 0);
        assert_eq!(lane_mask(3, 0), 0b111);
        assert_eq!(lane_mask(64, 0), u64::MAX);
        assert_eq!(lane_mask(64, 1), 0);
        assert_eq!(lane_mask(130, 1), u64::MAX);
        assert_eq!(lane_mask(130, 2), 0b11);
    }

    #[test]
    fn word_lanes_iterate_in_order() {
        let lanes: Vec<_> = word_lanes(2, (1 << 63) | 0b101).map(|w| w.0).collect();
        assert_eq!(lanes, vec![128, 130, 191]);
        assert_eq!(word_lanes(0, 0).count(), 0);
    }

    #[test]
    fn clear_empties() {
        let mut s = WavelengthSet::full(10);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 10);
    }
}

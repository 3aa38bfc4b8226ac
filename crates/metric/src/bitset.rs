//! Fixed-capacity bitsets used for θ-neighborhood and coverage bookkeeping.

/// A fixed-capacity bitset over `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    capacity: usize,
}

impl Bitset {
    /// Creates an empty bitset able to hold `capacity` bits.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a bitset from an iterator of indices.
    pub fn from_indices(capacity: usize, it: impl IntoIterator<Item = usize>) -> Self {
        let mut b = Self::new(capacity);
        for i in it {
            b.insert(i);
        }
        b
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets bit `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &Bitset) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &Bitset) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `|self \ other|` without allocating.
    pub fn difference_count(&self, other: &Bitset) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Number of set bits with index in `lo..hi`.
    pub fn count_range(&self, lo: usize, hi: usize) -> usize {
        let hi = hi.min(self.capacity);
        if lo >= hi {
            return 0;
        }
        let (wl, bl) = (lo / 64, lo % 64);
        let (wh, bh) = (hi / 64, hi % 64);
        if wl == wh {
            // Same word; here 1 ≤ bh ≤ 63, so the shift cannot overflow.
            let mask = (1u64 << bh) - (1u64 << bl);
            return (self.words[wl] & mask).count_ones() as usize;
        }
        let mut c = (self.words[wl] & (!0u64 << bl)).count_ones() as usize;
        for w in wl + 1..wh {
            c += self.words[w].count_ones() as usize;
        }
        if bh > 0 {
            c += (self.words[wh] & ((1u64 << bh) - 1)).count_ones() as usize;
        }
        c
    }

    /// Iterates set bit indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_ops() {
        let mut b = Bitset::new(130);
        b.insert(0);
        b.insert(64);
        b.insert(129);
        assert!(b.contains(0) && b.contains(64) && b.contains(129));
        assert!(!b.contains(1));
        assert_eq!(b.count(), 3);
        b.remove(64);
        assert!(!b.contains(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn union_intersect_subtract() {
        let a = Bitset::from_indices(100, [1, 2, 3, 70]);
        let b = Bitset::from_indices(100, [2, 3, 4, 99]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 6);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 70]);
    }

    #[test]
    fn counting_helpers() {
        let a = Bitset::from_indices(200, [1, 5, 64, 128, 199]);
        let b = Bitset::from_indices(200, [5, 64, 100]);
        assert_eq!(a.difference_count(&b), 3);
    }

    #[test]
    fn count_range_cases() {
        let a = Bitset::from_indices(300, [0, 63, 64, 65, 127, 128, 255, 299]);
        assert_eq!(a.count_range(0, 300), 8);
        assert_eq!(a.count_range(0, 64), 2);
        assert_eq!(a.count_range(64, 128), 3);
        assert_eq!(a.count_range(65, 66), 1);
        assert_eq!(a.count_range(66, 66), 0);
        assert_eq!(a.count_range(200, 1000), 2);
        assert_eq!(a.count_range(1, 63), 0);
    }

    #[test]
    fn count_range_matches_iter_on_random_sets() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..50 {
            let n = 257;
            let bits: Vec<usize> = (0..40).map(|_| rng.gen_range(0..n)).collect();
            let b = Bitset::from_indices(n, bits.iter().copied());
            let lo = rng.gen_range(0..n);
            let hi = rng.gen_range(0..=n);
            let want = b.iter().filter(|&i| i >= lo && i < hi).count();
            assert_eq!(b.count_range(lo, hi), want, "lo={lo} hi={hi}");
        }
    }

    #[test]
    fn iter_order_and_empty() {
        let b = Bitset::from_indices(80, [77, 3, 40]);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![3, 40, 77]);
        let mut b = b;
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn zero_capacity() {
        let b = Bitset::new(0);
        assert_eq!(b.count(), 0);
        assert!(b.is_empty());
        assert_eq!(b.count_range(0, 0), 0);
    }
}

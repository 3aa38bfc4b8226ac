//! Precomputed distance matrices (the paper's best-case comparator).

/// A dense symmetric distance matrix over items `0..n`.
///
/// Used by the "distance matrix" baseline of Fig 5(i)/6(k): fastest possible
/// queries, quadratic storage and construction cost.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    /// Upper triangle, row-major: entry `(i, j)` with `i < j` at
    /// `i*(2n−i−1)/2 + (j−i−1)`.
    tri: Vec<f32>,
}

impl DistanceMatrix {
    /// Builds the matrix by calling `dist` on every unordered pair.
    pub fn build(n: usize, mut dist: impl FnMut(u32, u32) -> f64) -> Self {
        let mut tri = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in i + 1..n {
                tri.push(dist(i as u32, j as u32) as f32);
            }
        }
        Self { n, tri }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j);
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }

    /// Distance between items `i` and `j`.
    #[inline]
    pub fn get(&self, i: u32, j: u32) -> f64 {
        if i == j {
            return 0.0;
        }
        let (a, b) = (i.min(j) as usize, i.max(j) as usize);
        self.tri[self.idx(a, b)] as f64
    }

    /// All items within distance `theta` of `i` (including `i`).
    pub fn range_query(&self, i: u32, theta: f64) -> Vec<u32> {
        (0..self.n as u32)
            .filter(|&j| self.get(i, j) <= theta + 1e-9)
            .collect()
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tri.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> DistanceMatrix {
        DistanceMatrix::build(n, |a, b| (a as f64 - b as f64).abs())
    }

    #[test]
    fn get_round_trips() {
        let m = line(6);
        for i in 0..6u32 {
            for j in 0..6u32 {
                assert_eq!(m.get(i, j), (i as f64 - j as f64).abs());
            }
        }
    }

    #[test]
    fn range_query_matches_definition() {
        let m = line(10);
        assert_eq!(m.range_query(5, 2.0), vec![3, 4, 5, 6, 7]);
        assert_eq!(m.range_query(0, 0.0), vec![0]);
    }

    #[test]
    fn empty_and_single() {
        let m = line(0);
        assert!(m.is_empty());
        let m1 = line(1);
        assert_eq!(m1.get(0, 0), 0.0);
        assert_eq!(m1.range_query(0, 5.0), vec![0]);
    }

    #[test]
    fn memory_is_quadratic() {
        assert_eq!(line(100).memory_bytes(), 100 * 99 / 2 * 4);
    }
}

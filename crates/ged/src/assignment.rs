//! Minimum-cost assignment (Hungarian / Kuhn–Munkres algorithm).
//!
//! Used by the bipartite graph-edit-distance approximation (Riesen & Bunke
//! style): matching the node sets of two graphs under a local cost matrix is
//! an `O(n³)` assignment problem. Implemented with the shortest augmenting
//! path formulation and dual potentials.

/// A dense square cost matrix in row-major order.
#[derive(Debug, Clone, Default)]
pub struct CostMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// Creates an `n × n` matrix filled with `fill`.
    pub fn filled(n: usize, fill: f64) -> Self {
        Self {
            n,
            data: vec![fill; n * n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Writes entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Re-dimensions the matrix to `n × n` filled with `fill`, reusing the
    /// existing allocation whenever capacity allows.
    pub fn reset(&mut self, n: usize, fill: f64) {
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, fill);
    }
}

/// Reusable working memory for [`solve_into`]: dual potentials, matching
/// arrays, and the output permutation. Lives in the per-thread
/// [`crate::scratch::SearchScratch`] so repeated solves allocate nothing
/// after warm-up.
#[derive(Debug, Default)]
pub struct AssignScratch {
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    /// `row_to_col[i]` is the column assigned to row `i` after a solve.
    pub row_to_col: Vec<usize>,
}

/// Solves the minimum-cost assignment problem on a square matrix into
/// caller-provided scratch: the assignment lands in `s.row_to_col` and the
/// total cost is returned. Allocation-free once the scratch buffers have
/// grown to the largest `n` seen.
///
/// Runs in `O(n³)` time. Costs may be any finite `f64` (including negative);
/// `f64::INFINITY` marks forbidden pairs, which must leave at least one
/// feasible perfect matching.
// graphrep: hot-path
pub fn solve_into(m: &CostMatrix, s: &mut AssignScratch) -> f64 {
    let n = m.n();
    s.row_to_col.clear();
    if n == 0 {
        return 0.0;
    }
    // 1-based shortest-augmenting-path Hungarian (e-maxx formulation).
    let inf = f64::INFINITY;
    s.u.clear();
    s.u.resize(n + 1, 0.0);
    s.v.clear();
    s.v.resize(n + 1, 0.0);
    s.p.clear();
    s.p.resize(n + 1, 0); // p[j] = row matched to column j (0 = none)
    s.way.clear();
    s.way.resize(n + 1, 0);
    for i in 1..=n {
        s.p[0] = i;
        let mut j0 = 0usize;
        s.minv.clear();
        s.minv.resize(n + 1, inf);
        s.used.clear();
        s.used.resize(n + 1, false);
        loop {
            s.used[j0] = true;
            let i0 = s.p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if s.used[j] {
                    continue;
                }
                let cur = m.get(i0 - 1, j - 1) - s.u[i0] - s.v[j];
                if cur < s.minv[j] {
                    s.minv[j] = cur;
                    s.way[j] = j0;
                }
                if s.minv[j] < delta {
                    delta = s.minv[j];
                    j1 = j;
                }
            }
            debug_assert!(delta.is_finite(), "no feasible assignment");
            for j in 0..=n {
                if s.used[j] {
                    s.u[s.p[j]] += delta;
                    s.v[j] -= delta;
                } else {
                    s.minv[j] -= delta;
                }
            }
            j0 = j1;
            if s.p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = s.way[j0];
            s.p[j0] = s.p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    s.row_to_col.resize(n, 0);
    for j in 1..=n {
        if s.p[j] != 0 {
            s.row_to_col[s.p[j] - 1] = j - 1;
        }
    }
    (0..n).map(|i| m.get(i, s.row_to_col[i])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> CostMatrix {
        let n = rows.len();
        let mut m = CostMatrix::filled(n, 0.0);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), n);
            for (j, &c) in r.iter().enumerate() {
                m.set(i, j, c);
            }
        }
        m
    }

    /// Solves `m` in fresh scratch: `(cost, row_to_col)`.
    fn solve(m: &CostMatrix) -> (f64, Vec<usize>) {
        let mut s = AssignScratch::default();
        let cost = solve_into(m, &mut s);
        (cost, s.row_to_col)
    }

    /// Brute-force optimum by permutation enumeration.
    fn brute(m: &CostMatrix) -> f64 {
        fn rec(m: &CostMatrix, i: usize, used: &mut Vec<bool>, acc: f64, best: &mut f64) {
            if i == m.n() {
                *best = best.min(acc);
                return;
            }
            for j in 0..m.n() {
                if !used[j] && m.get(i, j).is_finite() {
                    used[j] = true;
                    rec(m, i + 1, used, acc + m.get(i, j), best);
                    used[j] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        let mut used = vec![false; m.n()];
        rec(m, 0, &mut used, 0.0, &mut best);
        best
    }

    #[test]
    fn empty_matrix() {
        let (cost, cols) = solve(&CostMatrix::filled(0, 0.0));
        assert_eq!(cost, 0.0);
        assert!(cols.is_empty());
    }

    #[test]
    fn single_cell() {
        let (cost, cols) = solve(&from_rows(&[&[7.5]]));
        assert_eq!(cost, 7.5);
        assert_eq!(cols, vec![0]);
    }

    #[test]
    fn classic_3x3() {
        // Optimal = 1 + 2 + 3 picking the off-diagonal.
        let m = from_rows(&[&[4.0, 1.0, 3.0], &[2.0, 0.0, 5.0], &[3.0, 2.0, 2.0]]);
        let (cost, cols) = solve(&m);
        assert_eq!(cost, 5.0);
        // Verify it is a permutation.
        let mut seen = [false; 3];
        for &c in &cols {
            assert!(!seen[c]);
            seen[c] = true;
        }
    }

    #[test]
    fn handles_infinity_forbidden_pairs() {
        let inf = f64::INFINITY;
        let m = from_rows(&[&[inf, 1.0], &[1.0, inf]]);
        let (cost, cols) = solve(&m);
        assert_eq!(cost, 2.0);
        assert_eq!(cols, vec![1, 0]);
    }

    #[test]
    fn negative_costs_supported() {
        let m = from_rows(&[&[-5.0, 0.0], &[0.0, -5.0]]);
        assert_eq!(solve(&m).0, -10.0);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for n in 1..=7usize {
            for _ in 0..30 {
                let mut m = CostMatrix::filled(n, 0.0);
                for i in 0..n {
                    for j in 0..n {
                        m.set(i, j, (rng.gen_range(0..100) as f64) / 10.0);
                    }
                }
                let (a, _) = solve(&m);
                let b = brute(&m);
                assert!((a - b).abs() < 1e-9, "n={n} got {a} want {b}");
            }
        }
    }
}

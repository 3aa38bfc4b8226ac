//! Vantage points and vantage orderings (paper Sec 6.2).
//!
//! A [`VantageTable`] is the Lipschitz embedding of a finite metric space on
//! `|V|` randomly chosen vantage points: every item is represented by its
//! distance to each VP. Theorem 4 (`d_v(g, g') > θ ⇒ g' ∉ N(g)`) makes each
//! coordinate a band filter; Theorem 5 makes their intersection `N̂_θ(g)` a
//! superset of the true θ-neighborhood, computable with binary searches and
//! O(|V|) float comparisons per candidate — no edit distances.
//!
//! # Memory layout (structure of arrays)
//!
//! The table keeps three contiguous views of the same `|V| × n` coordinate
//! matrix, each shaped for one hot loop:
//!
//! * `rows` — one item-major slab (`rows[i·|V| + v]`): the per-pair tests
//!   ([`VantageTable::passes_all_bands`], [`VantageTable::hint_bounds`],
//!   the Lipschitz/triangle bounds) compare two contiguous `|V|`-length
//!   slices, an auto-vectorizable zip with no per-VP pointer chasing.
//! * `sorted[v]` — the VP-`v` coordinates in ascending order, aligned with
//!   `orders[v]`: band edges resolve with `partition_point` over one
//!   contiguous `f32` run instead of gathering `dists[id]` through the
//!   permutation on every probe.
//! * `orders[v]` — the item ids sorted by distance to VP `v` (stable: ties
//!   in ascending-id order), scanned to enumerate a band's members.
//!
//! The sort permutation is a pure function of the coordinates (a stable
//! `total_cmp` argsort: ties in ascending-id order), an invariant every
//! mutation path preserves. One private derivation turns the raw per-VP
//! columns into all three views, and every constructor ends in it: the
//! builders, and [`VantageTable::from_columns`], through which the binary
//! index decoder loads a table that stores only the raw columns.
//!
//! A fourth view lives outside the table, one per query session: a
//! [`BandProjection`] keeps only the `sorted[v]`/`orders[v]` entries of an
//! item subset (the session's relevant set `L_q`). Only candidates inside
//! `L_q` matter to a session, so [`VantageTable::candidates_in`] scans the
//! projected bands and never visits a row the session would discard.

use crate::bitset::Bitset;
use rand::seq::SliceRandom;
use rand::Rng;

const EPS: f64 = 1e-6;

/// The single-band test `|dᵢ − dⱼ| ≤ θ` on two *stored* (f32) coordinates,
/// with the shared storage tolerance. The difference is taken in f64, where
/// it is exact for f32 inputs, so every band decision in this module rounds
/// the same way.
#[inline]
fn band_pass(di: f32, dj: f32, theta: f64) -> bool {
    (f64::from(di) - f64::from(dj)).abs() <= theta + EPS
}

/// f32 scan edges of the band `[center − θ − EPS, center + θ + EPS]`, widened
/// by one ULP on each side so truncating the f64 edges to storage precision
/// can never exclude a coordinate that [`band_pass`] accepts.
#[inline]
fn band_edges(center: f32, theta: f64) -> (f32, f32) {
    let lo = ((f64::from(center) - theta - EPS) as f32).next_down();
    let hi = ((f64::from(center) + theta + EPS) as f32).next_up();
    (lo, hi)
}

/// The vantage orderings of a database: per-VP distances and sorted orders,
/// held in the SoA layout described at the [module level](self).
#[derive(Debug, Clone, PartialEq)]
pub struct VantageTable {
    n: usize,
    vp_ids: Vec<u32>,
    /// Item-major coordinate slab: `rows[i * num_vps + v]` = d(VP v, item i).
    rows: Vec<f32>,
    /// `sorted[v][k]` = distance from VP `v` to the item `orders[v][k]` —
    /// the VP-`v` coordinates in ascending order.
    sorted: Vec<Vec<f32>>,
    /// `orders[v]` = item ids sorted by distance to VP `v`.
    orders: Vec<Vec<u32>>,
}

impl VantageTable {
    /// Builds a table over items `0..n` with `num_vps` randomly chosen VPs
    /// (a seeded shuffle of `0..n`, truncated), using `dist` to compute
    /// `d(vp, item)` as [`VantageTable::build_with_vps`] does.
    pub fn build<R: Rng + ?Sized>(
        n: usize,
        num_vps: usize,
        rng: &mut R,
        dist: impl Fn(u32, u32) -> f64 + Sync,
    ) -> Self {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.shuffle(rng);
        ids.truncate(num_vps.min(n));
        Self::build_with_vps(n, ids, &dist)
    }

    /// Builds a table with explicitly chosen vantage points, evaluating the
    /// `|V| × n` distance matrix — the NP-hard bulk of index construction —
    /// across rayon workers.
    ///
    /// Every matrix cell is an independent pure computation and results are
    /// collected in index order, so the table is identical at any thread
    /// count.
    pub fn build_with_vps(
        n: usize,
        vp_ids: Vec<u32>,
        dist: &(impl Fn(u32, u32) -> f64 + Sync),
    ) -> Self {
        use rayon::prelude::*;
        let num_vps = vp_ids.len();
        let flat: Vec<f32> = (0..num_vps * n)
            .into_par_iter()
            .map(|cell| {
                let (v, i) = (vp_ids[cell / n], (cell % n) as u32);
                dist(v, i) as f32
            })
            .collect();
        // Sliced per VP, so `n == 0` still yields `|V|` empty columns
        // (`chunks(0)` would panic).
        let dists = (0..num_vps)
            .map(|v| flat[v * n..(v + 1) * n].to_vec())
            .collect();
        Self::from_dists(n, vp_ids, dists)
    }

    /// Assembles a table over items `0..n` from its raw per-VP coordinate
    /// columns (`columns[v][i]` = d(VP v, item i)) — the constructor the
    /// binary index decoder uses, so a loaded table is derived exactly as a
    /// built one. Rejects columns whose shape does not match `n` items and
    /// `vp_ids.len()` vantage points.
    pub fn from_columns(
        n: usize,
        vp_ids: Vec<u32>,
        columns: Vec<Vec<f32>>,
    ) -> Result<Self, String> {
        if columns.len() != vp_ids.len() || columns.iter().any(|c| c.len() != n) {
            let lens: Vec<usize> = columns.iter().map(Vec::len).collect();
            return Err(format!(
                "vantage table of {} vp ids over {n} items has columns of lengths {lens:?}",
                vp_ids.len()
            ));
        }
        Ok(Self::from_dists(n, vp_ids, columns))
    }

    /// The one derivation of the table's views from its raw per-VP
    /// coordinate columns: the stable sort orders, the sorted coordinates,
    /// and the item-major slab. Every constructor ends here.
    fn from_dists(n: usize, vp_ids: Vec<u32>, dists: Vec<Vec<f32>>) -> Self {
        let num_vps = vp_ids.len();
        let orders: Vec<Vec<u32>> = dists.iter().map(|d| stable_argsort(n, d)).collect();
        let sorted = dists
            .iter()
            .zip(&orders)
            .map(|(d, ord)| ord.iter().map(|&id| d[id as usize]).collect())
            .collect();
        let mut rows = vec![0.0f32; n * num_vps];
        for (v, d) in dists.iter().enumerate() {
            for (i, &x) in d.iter().enumerate() {
                rows[i * num_vps + v] = x;
            }
        }
        Self {
            n,
            vp_ids,
            rows,
            sorted,
            orders,
        }
    }

    /// Appends one item to the embedding: `vp_dists[v]` is the distance from
    /// VP index `v` to the new item, whose id becomes the previous
    /// [`VantageTable::len`]. Each sorted order receives the id by binary
    /// insertion *after* any equal coordinates — the new id is the largest,
    /// so the orders stay exactly what a stable full re-sort would produce.
    /// Returns the new item's id.
    ///
    /// # Panics
    /// If `vp_dists.len()` differs from [`VantageTable::num_vps`].
    pub fn push_item(&mut self, vp_dists: &[f64]) -> u32 {
        assert_eq!(
            vp_dists.len(),
            self.num_vps(),
            "push_item needs one distance per vantage point"
        );
        let id = self.n as u32;
        for (v, &d) in vp_dists.iter().enumerate() {
            let d = d as f32;
            self.rows.push(d);
            let at = self.sorted[v].partition_point(|&other| other.total_cmp(&d).is_le());
            self.sorted[v].insert(at, d);
            self.orders[v].insert(at, id);
        }
        self.n += 1;
        id
    }

    /// Number of vantage points.
    pub fn num_vps(&self) -> usize {
        self.vp_ids.len()
    }

    /// Ids of the vantage points.
    pub fn vp_ids(&self) -> &[u32] {
        &self.vp_ids
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table is empty (no VPs or no items).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The item-major coordinate row of item `i` (one f32 per VP).
    #[inline]
    fn row(&self, i: u32) -> &[f32] {
        let v = self.num_vps();
        &self.rows[i as usize * v..(i as usize + 1) * v]
    }

    /// The raw coordinate column of VP index `v`, in item-id order —
    /// `column(v)[i]` = d(VP v, item i). Gathered from the item-major slab;
    /// used by persistence, not by any hot loop.
    pub fn column(&self, v: usize) -> Vec<f32> {
        let num = self.num_vps();
        (0..self.n).map(|i| self.rows[i * num + v]).collect()
    }

    /// Lipschitz lower bound `max_v |d(v,i) − d(v,j)| ≤ d(i,j)`.
    pub fn lower_bound(&self, i: u32, j: u32) -> f64 {
        self.row(i)
            .iter()
            .zip(self.row(j))
            .map(|(&a, &b)| (a - b).abs() as f64)
            .fold(0.0, f64::max)
    }

    /// Triangle upper bound `min_v (d(v,i) + d(v,j)) ≥ d(i,j)`.
    pub fn upper_bound(&self, i: u32, j: u32) -> f64 {
        self.row(i)
            .iter()
            .zip(self.row(j))
            .map(|(&a, &b)| (a + b) as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether `d_v(i, j) ≤ θ` for every VP (the Thm 5 candidate test). The
    /// two coordinate rows are contiguous slices, so the loop is a branch-
    /// free zip over `|V|` lanes: every band is tested and the verdicts are
    /// and-ed, with no early exit for the compiler to keep as a branch (a
    /// short-circuiting `all` cost a warm run ≈ 8 % of its search time).
    #[inline]
    pub fn passes_all_bands(&self, i: u32, j: u32, theta: f64) -> bool {
        let mut pass = true;
        for (&a, &b) in self.row(i).iter().zip(self.row(j)) {
            pass &= band_pass(a, b, theta);
        }
        pass
    }

    /// One-pass margin-adjusted metric bounds for the pair `(i, j)`: a
    /// Lipschitz lower bound and triangle upper bound on `d(i, j)` that stay
    /// sound under the f32 storage rounding of the per-VP distances (each
    /// stored coordinate carries relative error ≤ 2⁻²⁴ ≪ the `EPS = 1e-6`
    /// margin applied here, which scales with the coordinate magnitudes —
    /// not with their difference, where cancellation would make a
    /// difference-relative margin unsound). Returns `(0.0, f64::INFINITY)`
    /// when there are no vantage points.
    pub fn hint_bounds(&self, i: u32, j: u32) -> (f64, f64) {
        let mut lb = 0.0_f64;
        let mut ub = f64::INFINITY;
        for (&a, &b) in self.row(i).iter().zip(self.row(j)) {
            let (di, dj) = (f64::from(a), f64::from(b));
            lb = lb.max((di - dj).abs() - EPS * (di + dj));
            ub = ub.min((di + dj) * (1.0 + EPS));
        }
        (lb.max(0.0), ub)
    }

    /// Computes the candidate neighborhood `N̂_θ(i)` (Theorem 5), appending
    /// item ids to `out`. Includes `i` itself. Scans the VP with the smallest
    /// band and verifies every candidate against the remaining VPs.
    pub fn candidates_into(&self, i: u32, theta: f64, out: &mut Vec<u32>) {
        out.clear();
        if self.vp_ids.is_empty() {
            out.extend(0..self.len() as u32);
            return;
        }
        self.scan_bands(&self.sorted, &self.orders, i, theta, out);
    }

    /// Projects the vantage orderings onto the items in `keep` (indexed by
    /// item id, capacity at least [`Self::len`]): one pass over the `n × |V|`
    /// orderings that keeps each kept item's entries in the table's stable
    /// order.
    pub fn project(&self, keep: &Bitset) -> BandProjection {
        let (sorted, orders): (Vec<Vec<f32>>, Vec<Vec<u32>>) = self
            .sorted
            .iter()
            .zip(&self.orders)
            .map(|(s, ord)| {
                s.iter()
                    .zip(ord)
                    .filter(|&(_, &id)| keep.contains(id as usize))
                    .map(|(&d, &id)| (d, id))
                    .unzip()
            })
            .unzip();
        let ids = (0..self.n as u32)
            .filter(|&id| keep.contains(id as usize))
            .collect();
        BandProjection {
            sorted,
            orders,
            ids,
        }
    }

    /// `N̂_θ(i)` restricted to the projection's items — as a set, exactly
    /// `candidates_into(i, θ) ∩ keep` — written to `out`. `i` itself need not
    /// be kept. Scans the narrowest *projected* band, so it visits at most
    /// as many rows as the projection holds.
    pub fn candidates_in(&self, p: &BandProjection, i: u32, theta: f64, out: &mut Vec<u32>) {
        out.clear();
        if self.vp_ids.is_empty() {
            out.extend_from_slice(&p.ids);
            return;
        }
        self.scan_bands(&p.sorted, &p.orders, i, theta, out);
    }

    /// The one Thm 5 band scan behind [`Self::candidates_into`] and
    /// [`Self::candidates_in`]: over aligned per-VP `(sorted, orders)`
    /// columns, picks the VP whose band around item `i` holds the fewest
    /// rows and appends every row in it that passes all bands. Band edges
    /// come from [`band_edges`], whose widened f32 edges guarantee the range
    /// covers every item [`band_pass`] accepts; binary searches run directly
    /// over the contiguous ascending `sorted[v]` — no gather through the
    /// permutation.
    fn scan_bands(
        &self,
        sorted: &[Vec<f32>],
        orders: &[Vec<u32>],
        i: u32,
        theta: f64,
        out: &mut Vec<u32>,
    ) {
        let mut best = (0, 0, 0);
        let mut best_len = usize::MAX;
        for (v, (s, &center)) in sorted.iter().zip(self.row(i)).enumerate() {
            let (lo, hi) = band_edges(center, theta);
            let start = s.partition_point(|&d| d < lo);
            let end = s.partition_point(|&d| d <= hi);
            if end - start < best_len {
                best_len = end - start;
                best = (v, start, end);
            }
        }
        let (v, start, end) = best;
        for &cand in &orders[v][start..end] {
            if self.passes_all_bands(i, cand, theta) {
                out.push(cand);
            }
        }
    }

    /// Allocating variant of [`Self::candidates_into`].
    pub fn candidates(&self, i: u32, theta: f64) -> Vec<u32> {
        let mut v = Vec::new();
        self.candidates_into(i, theta, &mut v);
        v
    }

    /// Approximate heap footprint in bytes (all three SoA views).
    pub fn memory_bytes(&self) -> usize {
        self.vp_ids.len() * 4
            + self.rows.len() * 4
            + self.sorted.iter().map(|s| s.len() * 4).sum::<usize>()
            + self.orders.iter().map(|o| o.len() * 4).sum::<usize>()
    }
}

/// The vantage orderings of a [`VantageTable`] restricted to an item subset,
/// built by [`VantageTable::project`] and scanned by
/// [`VantageTable::candidates_in`]. It holds no coordinates of its own
/// beyond the kept `sorted`/`orders` entries, so it is only meaningful with
/// the table (and table length) it was projected from.
#[derive(Debug, Clone)]
pub struct BandProjection {
    /// `sorted[v]` — the VP-`v` coordinates of the kept items, ascending.
    sorted: Vec<Vec<f32>>,
    /// `orders[v]` — the kept item ids aligned with `sorted[v]`.
    orders: Vec<Vec<u32>>,
    /// The kept item ids, ascending: the whole candidate set when the table
    /// has no vantage points.
    ids: Vec<u32>,
}

impl BandProjection {
    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.sorted.iter().map(|s| s.len() * 4).sum::<usize>()
            + self.orders.iter().map(|o| o.len() * 4).sum::<usize>()
            + self.ids.len() * 4
    }
}

/// Item ids `0..n` stably sorted by the coordinates in `d` — the canonical
/// order every table construction path produces and every mutation path
/// preserves.
fn stable_argsort(n: usize, d: &[f32]) -> Vec<u32> {
    let mut ord: Vec<u32> = (0..n as u32).collect();
    ord.sort_by(|&a, &b| d[a as usize].total_cmp(&d[b as usize]));
    ord
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// 1-D line metric: items at positions 0, 1, 2, …, n−1.
    fn line_table(n: usize, vps: usize, seed: u64) -> VantageTable {
        let mut rng = SmallRng::seed_from_u64(seed);
        VantageTable::build(n, vps, &mut rng, |a, b| (a as f64 - b as f64).abs())
    }

    #[test]
    fn bounds_sandwich_true_distance_on_line() {
        let t = line_table(50, 5, 1);
        for i in 0..50u32 {
            for j in 0..50u32 {
                let d = (i as f64 - j as f64).abs();
                assert!(t.lower_bound(i, j) <= d + 1e-6);
                assert!(t.upper_bound(i, j) >= d - 1e-6);
            }
        }
    }

    #[test]
    fn on_a_line_one_vp_lower_bound_is_often_exact() {
        // For collinear points on the same side of the VP the bound is exact.
        let d = |a: u32, b: u32| (a as f64 - b as f64).abs();
        let t = VantageTable::build_with_vps(10, vec![0], &d);
        assert_eq!(t.lower_bound(3, 7), 4.0);
    }

    #[test]
    fn candidates_superset_of_true_neighborhood() {
        let t = line_table(100, 3, 2);
        for i in (0..100u32).step_by(17) {
            let cands = t.candidates(i, 5.0);
            for j in 0..100u32 {
                let d = (i as f64 - j as f64).abs();
                if d <= 5.0 {
                    assert!(cands.contains(&j), "true neighbor {j} of {i} missing");
                }
            }
            assert!(cands.contains(&i));
        }
    }

    #[test]
    fn candidates_equal_pairwise_band_test() {
        // `candidates_into` (best-band scan + all-bands filter) must accept
        // exactly the items `passes_all_bands` accepts pair-by-pair: the
        // shard home verifier applies the pairwise predicate directly and
        // relies on this equivalence.
        let d = |a: u32, b: u32| {
            let (ax, ay) = ((a % 9) as f64, (a / 9) as f64);
            let (bx, by) = ((b % 9) as f64, (b / 9) as f64);
            (ax - bx).abs() + (ay - by).abs()
        };
        let t = VantageTable::build_with_vps(81, vec![0, 8, 72, 40], &d);
        for i in (0..81u32).step_by(7) {
            for theta in [0.0, 1.0, 2.5, 6.0] {
                let mut got = t.candidates(i, theta);
                got.sort_unstable();
                let want: Vec<u32> = (0..81u32)
                    .filter(|&c| t.passes_all_bands(i, c, theta))
                    .collect();
                assert_eq!(got, want, "i={i} theta={theta}");
            }
        }
    }

    #[test]
    fn all_bands_test_is_the_per_band_conjunction() {
        // The and-ed loop must decide exactly like a short-circuiting
        // `band_pass` over every VP, including θ on a band edge (every
        // coordinate gap of this table is itself tried as θ).
        let d = |a: u32, b: u32| {
            let (ax, ay) = ((a % 7) as f64 * 0.7, (a / 7) as f64 * 1.3);
            let (bx, by) = ((b % 7) as f64 * 0.7, (b / 7) as f64 * 1.3);
            (ax - bx).abs() + (ay - by).abs()
        };
        let t = VantageTable::build_with_vps(49, vec![0, 6, 24, 42, 48], &d);
        let mut thetas = vec![0.0, 1e-7, 3.9];
        for j in 0..49u32 {
            for (&a, &b) in t.row(3).iter().zip(t.row(j)) {
                thetas.push((f64::from(a) - f64::from(b)).abs());
            }
        }
        for i in 0..49u32 {
            for j in 0..49u32 {
                for &theta in &thetas {
                    let want = t
                        .row(i)
                        .iter()
                        .zip(t.row(j))
                        .all(|(&a, &b)| band_pass(a, b, theta));
                    assert_eq!(
                        t.passes_all_bands(i, j, theta),
                        want,
                        "({i}, {j}) θ={theta}"
                    );
                }
            }
        }
    }

    /// The projected scan is, as a set, both the full-table scan restricted
    /// to `keep` and the pairwise Thm 5 predicate over `keep` — for any
    /// subset (empty, a singleton, one without the center, random, all),
    /// any threshold (zero, exactly on a band edge, above every coordinate)
    /// and any table history (built, or grown by `push_item`).
    #[test]
    fn projected_scan_equals_full_scan_within_keep() {
        let mut rng = SmallRng::seed_from_u64(27);
        // Coordinates drawn from 0..6 put many ties in every column.
        let coord = |rng: &mut SmallRng| rng.gen_range(0u32..6) as f32;
        for num_vps in [0usize, 1, 3, 6] {
            for grown in [false, true] {
                let cols: Vec<Vec<f32>> = (0..num_vps)
                    .map(|_| (0..40).map(|_| coord(&mut rng)).collect())
                    .collect();
                let mut t =
                    VantageTable::build_with_vps(40, (0..num_vps as u32).collect(), &|v, i| {
                        f64::from(cols[v as usize][i as usize])
                    });
                if grown {
                    for _ in 0..10 {
                        let row: Vec<f64> =
                            (0..num_vps).map(|_| f64::from(coord(&mut rng))).collect();
                        t.push_item(&row);
                    }
                }
                let n = t.len();
                for i in (0..n as u32).step_by(3) {
                    let keeps = [
                        Bitset::new(n),
                        Bitset::from_indices(n, [i as usize]),
                        Bitset::from_indices(n, (0..n).filter(|&c| c != i as usize && c % 2 == 0)),
                        Bitset::from_indices(n, (0..n).filter(|_| rng.gen_bool(0.3))),
                        Bitset::from_indices(n, 0..n),
                    ];
                    // A θ equal to some item's VP-0 offset from `i`.
                    let edge = match num_vps {
                        0 => 1.0,
                        _ => {
                            let col = t.column(0);
                            col.iter()
                                .map(|&c| f64::from((col[i as usize] - c).abs()))
                                .find(|&d| d > 0.0)
                                .unwrap_or(1.0)
                        }
                    };
                    for theta in [0.0, edge, 100.0] {
                        for keep in &keeps {
                            let mut got = Vec::new();
                            t.candidates_in(&t.project(keep), i, theta, &mut got);
                            got.sort_unstable();
                            let mut full = t.candidates(i, theta);
                            full.retain(|&c| keep.contains(c as usize));
                            full.sort_unstable();
                            let pairwise: Vec<u32> = (0..n as u32)
                                .filter(|&c| keep.contains(c as usize))
                                .filter(|&c| t.passes_all_bands(i, c, theta))
                                .collect();
                            let case = format!("vps={num_vps} grown={grown} i={i} θ={theta}");
                            assert_eq!(got, full, "{case}");
                            assert_eq!(got, pairwise, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn more_vps_never_grow_candidates() {
        let d = |a: u32, b: u32| {
            // 2-D grid metric (L1): decouples coordinates so one VP is weak.
            let (ax, ay) = ((a % 10) as f64, (a / 10) as f64);
            let (bx, by) = ((b % 10) as f64, (b / 10) as f64);
            (ax - bx).abs() + (ay - by).abs()
        };
        let t1 = VantageTable::build_with_vps(100, vec![0], &d);
        let t3 = VantageTable::build_with_vps(100, vec![0, 9, 90], &d);
        for i in (0..100u32).step_by(13) {
            let c1 = t1.candidates(i, 3.0).len();
            let c3 = t3.candidates(i, 3.0).len();
            assert!(c3 <= c1, "i={i}: {c3} > {c1}");
        }
    }

    #[test]
    fn empty_vp_set_returns_everything() {
        let d = |a: u32, b: u32| (a as f64 - b as f64).abs();
        let t = VantageTable::build_with_vps(5, vec![], &d);
        assert_eq!(t.candidates(2, 1.0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn par_build_on_empty_database() {
        // Regression: the flat-index arithmetic used `n.max(1)`, which on an
        // empty database produced a dists/vp_ids length mismatch instead of
        // `|V|` empty rows.
        let t = VantageTable::build_with_vps(0, vec![], &|_, _| 0.0);
        assert!(t.is_empty());
        assert_eq!(t.num_vps(), 0);
        assert!(t.candidates(0, 1.0).is_empty());
        let t2 = VantageTable::build_with_vps(0, vec![7, 9], &|_, _| 0.0);
        assert_eq!(t2.num_vps(), 2);
        assert_eq!(t2.len(), 0);
        assert_eq!(t2.memory_bytes(), 8);
    }

    #[test]
    fn band_scan_covers_band_pass_near_f32_boundaries() {
        // Coordinates engineered so the band edge `center ± θ` falls within
        // one f32 ULP of stored values: the scan range must still cover
        // everything `passes_all_bands` accepts, or candidate generation
        // would silently drop true neighbors.
        let base = 16_384.0_f64; // f32 ULP here is 2⁻³Q·2¹⁴ = 1/512
        let ulp = (16_384.0_f32.next_up() - 16_384.0_f32) as f64;
        let pos = [0.0, base, base + ulp, base + 2.0 * ulp, base + 1000.0];
        let dist = |a: u32, b: u32| (pos[a as usize] - pos[b as usize]).abs();
        let t = VantageTable::build_with_vps(pos.len(), vec![0], &dist);
        for theta in [ulp, 2.0 * ulp, ulp / 2.0, 1000.0 - ulp] {
            for i in 0..pos.len() as u32 {
                let cands = t.candidates(i, theta);
                for j in 0..pos.len() as u32 {
                    if t.passes_all_bands(i, j, theta) {
                        assert!(
                            cands.contains(&j),
                            "θ={theta}: {j} passes all bands of {i} but was not scanned"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hint_bounds_sandwich_true_distance_despite_f32_storage() {
        // Large, nearly equal coordinates: the f32 rounding error of each
        // stored distance can exceed the true difference, so an unadjusted
        // |dᵢ − dⱼ| would overshoot d(i, j). The margins must absorb it.
        let pos = [0.0_f64, 1.0e6, 1.0e6 + 0.01, 1.0e6 + 0.5, 2.0e6];
        let dist = |a: u32, b: u32| (pos[a as usize] - pos[b as usize]).abs();
        let t = VantageTable::build_with_vps(pos.len(), vec![0, 4], &dist);
        for i in 0..pos.len() as u32 {
            for j in 0..pos.len() as u32 {
                let d = dist(i, j);
                let (lb, ub) = t.hint_bounds(i, j);
                assert!(lb <= d + 1e-9, "({i},{j}): lb {lb} > d {d}");
                assert!(ub >= d - 1e-9, "({i},{j}): ub {ub} < d {d}");
            }
        }
        let (lb, ub) = t.hint_bounds(0, 4);
        assert!(lb > 0.0 && ub.is_finite());
    }

    #[test]
    fn hint_bounds_empty_vps_are_vacuous() {
        let t =
            VantageTable::build_with_vps(3, vec![], &|a: u32, b: u32| (a as f64 - b as f64).abs());
        assert_eq!(t.hint_bounds(0, 2), (0.0, f64::INFINITY));
    }

    #[test]
    fn memory_accounting_scales() {
        let t1 = line_table(100, 2, 3);
        let t2 = line_table(100, 8, 3);
        assert!(t2.memory_bytes() > t1.memory_bytes());
    }

    #[test]
    fn push_item_matches_full_rebuild() {
        let pos = |i: u32| i as f64 * 1.5;
        let d = |a: u32, b: u32| (pos(a) - pos(b)).abs();
        let mut t = VantageTable::build_with_vps(8, vec![0, 5], &d);
        // Append items 8 and 9 one at a time …
        for id in 8u32..10 {
            let vp_dists: Vec<f64> = t.vp_ids().to_vec().iter().map(|&v| d(v, id)).collect();
            assert_eq!(t.push_item(&vp_dists), id);
        }
        // … and the result must equal a table built over all 10 from scratch.
        let full = VantageTable::build_with_vps(10, vec![0, 5], &d);
        assert_eq!(t.len(), full.len());
        for i in 0..10u32 {
            for j in 0..10u32 {
                assert_eq!(t.lower_bound(i, j), full.lower_bound(i, j));
                assert_eq!(t.upper_bound(i, j), full.upper_bound(i, j));
            }
            assert_eq!(t.candidates(i, 2.0), full.candidates(i, 2.0));
        }
    }

    #[test]
    fn push_item_ties_go_after_equal_coordinates() {
        // Items 1 and 2 are equidistant from the single VP; the appended
        // item 3 shares that distance and must sort after both (stable-sort
        // discipline: ties in ascending-id order).
        let pos = [0.0_f64, 2.0, 2.0];
        let d = |a: u32, b: u32| (pos[a as usize] - pos[b as usize]).abs();
        let mut t = VantageTable::build_with_vps(3, vec![0], &d);
        t.push_item(&[2.0]);
        let full = VantageTable::build_with_vps(4, vec![0], &|a: u32, b: u32| {
            let q = [0.0_f64, 2.0, 2.0, 2.0];
            (q[a as usize] - q[b as usize]).abs()
        });
        assert_eq!(t.candidates(1, 0.5), full.candidates(1, 0.5));
        assert_eq!(t.candidates(3, 0.0), full.candidates(3, 0.0));
    }

    /// The table is a pure function of its raw columns — the invariant the
    /// binary format relies on when it stores only the columns: a table
    /// grown by `push_item` equals one rebuilt from its columns, orders,
    /// sorted slabs and item-major rows included.
    #[test]
    fn from_columns_reassembles_exactly() {
        let mut t = line_table(30, 4, 9);
        // Mix in appended items so ties exercise the stable-argsort claim.
        t.push_item(&[3.0, 7.0, 1.0, 4.0]);
        t.push_item(&[3.0, 7.0, 1.0, 4.0]);
        let cols: Vec<Vec<f32>> = (0..t.num_vps()).map(|v| t.column(v)).collect();
        let back = VantageTable::from_columns(t.len(), t.vp_ids().to_vec(), cols).unwrap();
        assert_eq!(back, t);
    }

    /// Every column is ordered by the stable `total_cmp` argsort: negatives
    /// first, `-0.0` before `0.0`, and ties in ascending-id order.
    #[test]
    fn from_columns_orders_negatives_signed_zeros_and_ties_stably() {
        let col = vec![2.0f32, -1.5, 0.0, -0.0, -1.5, 2.0, 0.0, -0.0];
        let t = VantageTable::from_columns(col.len(), vec![3], vec![col.clone()]).unwrap();
        assert_eq!(t.orders[0], vec![1, 4, 3, 7, 2, 6, 0, 5]);
        let bits = |c: &[f32]| c.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&t.sorted[0]),
            bits(&[-1.5, -1.5, -0.0, -0.0, 0.0, 0.0, 2.0, 2.0])
        );
        assert_eq!(bits(&t.column(0)), bits(&col));
    }

    /// The decode constructor rejects columns whose shape does not match
    /// the table's.
    #[test]
    fn from_columns_rejects_mismatched_shapes() {
        let table = |cols: Vec<Vec<f32>>| VantageTable::from_columns(3, vec![0], cols);
        assert!(table(vec![vec![0.0; 3]]).is_ok());
        assert!(table(vec![vec![0.0; 2]]).is_err());
        assert!(table(vec![vec![0.0; 4]]).is_err());
        assert!(table(vec![]).is_err());
        assert!(table(vec![vec![0.0; 3], vec![0.0; 3]]).is_err());
    }
}

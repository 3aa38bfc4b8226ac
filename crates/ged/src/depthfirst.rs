//! Depth-first branch-and-bound exact GED (DF-GED).
//!
//! An alternative to the A\* search of [`crate::exact`]: explores the same
//! mapping space depth-first, keeping only the current path in memory
//! (`O(n)` instead of the A\* frontier), pruning with the identical
//! admissible heuristic — both searches read the same per-pair tables —
//! against the best complete edit path found so far.
//! Best-first usually expands fewer states; depth-first is preferable when
//! memory is the binding constraint. Cross-validated against A\* in tests —
//! both must return the same distances.

use crate::bipartite::bp_upper_bound_in;
use crate::cost::CostModel;
use crate::tables::{Frame, PairTables};
use graphrep_graph::Graph;

/// Reusable DF-GED buffers: the current partial map (the `b_mat` column
/// taken at each depth) and the shared child-ordering stack (sliced per
/// recursion level). Lives in the per-thread
/// [`crate::scratch::SearchScratch`].
#[derive(Debug, Default)]
pub(crate) struct DfBufs {
    cols: Vec<u8>,
    children: Vec<(f64, u8)>,
}

/// Outcome of a DF-GED run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfResult {
    /// The exact distance, or `None` if every path exceeded the cutoff.
    pub distance: Option<f64>,
    /// Number of recursive states visited.
    pub visited: u64,
}

struct Dfs<'a> {
    t: &'a PairTables,
    frame: &'a mut Frame,
    cost: &'a CostModel,
    /// cols[depth] = b node (or n2 for ε) the a-node at `depth` maps to.
    cols: &'a mut Vec<u8>,
    /// Shared child-ordering stack; each recursion level uses the slice it
    /// pushed and truncates back before returning.
    children: &'a mut Vec<(f64, u8)>,
    best: f64,
    visited: u64,
}

const TOL: f64 = 1e-9;

impl Dfs<'_> {
    // graphrep: hot-path
    fn rec(&mut self, depth: usize, used: u32, g: f64) {
        self.visited += 1;
        let (t, cost) = (self.t, self.cost);
        self.frame.enter(t, depth, used);
        if depth == t.n1() {
            // Completion: insert all unused b nodes and every b edge not
            // fully inside the used set.
            let (unused, pending) = self.frame.remaining();
            let total = g + unused as f64 * cost.node_indel + pending as f64 * cost.edge_indel;
            if total < self.best {
                self.best = total;
            }
            return;
        }
        if g + self.frame.heuristic(t, cost) >= self.best - TOL {
            return;
        }
        // Order children by step cost (cheapest first) to find good complete
        // paths early and tighten the bound. This level's slice of the shared
        // stack is `start..end`; recursion pushes beyond `end` and truncates
        // back, so the slice stays valid across the loop.
        let start = self.children.len();
        for col in t.children(used) {
            let c = t.step_cost(depth, col, &self.cols[..depth], cost);
            self.children.push((c, col as u8));
        }
        self.children[start..].sort_by(|a, b| a.0.total_cmp(&b.0));
        let end = self.children.len();
        for ci in start..end {
            let (step, col) = self.children[ci];
            if g + step >= self.best - TOL {
                continue;
            }
            self.cols[depth] = col;
            self.rec(depth + 1, t.taking(used, col as usize), g + step);
        }
        self.children.truncate(start);
    }
}

/// Exact GED by depth-first branch and bound, pruning against `cutoff`
/// (pass `f64::INFINITY` for the unconstrained distance).
pub fn ged_depth_first(g1: &Graph, g2: &Graph, cost: &CostModel, cutoff: f64) -> DfResult {
    let (a, b) = if g1.node_count() <= g2.node_count() {
        (g1, g2)
    } else {
        (g2, g1)
    };
    let n1 = a.node_count();
    if n1 == 0 {
        let d = b.node_count() as f64 * cost.node_indel + b.edge_count() as f64 * cost.edge_indel;
        return DfResult {
            distance: (d <= cutoff + TOL).then_some(d),
            visited: 1,
        };
    }
    crate::scratch::with_scratch(|s| {
        let crate::scratch::SearchScratch {
            tables,
            frame,
            bp,
            df,
            ..
        } = s;
        tables.rebuild(a, b);
        // Seed with the bipartite upper bound: a tight initial best prunes
        // hard.
        let seed = bp_upper_bound_in(a, b, cost, bp);
        df.cols.clear();
        df.cols.resize(n1, 0);
        df.children.clear();
        let mut dfs = Dfs {
            t: tables,
            frame,
            cost,
            cols: &mut df.cols,
            children: &mut df.children,
            // +TOL so a complete path *equal* to the seed is still recorded.
            best: seed.min(cutoff) + 2.0 * TOL,
            visited: 0,
        };
        dfs.rec(0, 0, 0.0);
        let found = dfs.best;
        let distance = (found <= cutoff + TOL && found.is_finite()).then_some(found);
        DfResult {
            distance,
            visited: dfs.visited,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ged_exact_full;
    use graphrep_graph::generate::{mutate, random_connected};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn agrees_with_astar_on_random_pairs() {
        let mut rng = SmallRng::seed_from_u64(13);
        let c = CostModel::uniform();
        for trial in 0..30 {
            let g1 = random_connected(&mut rng, 5 + trial % 3, 2, &[0, 1, 2], &[7, 8]);
            let g2 = if trial % 2 == 0 {
                mutate(&mut rng, &g1, 2, &[0, 1, 2], &[7, 8])
            } else {
                random_connected(&mut rng, 5 + trial % 4, 2, &[0, 1, 2], &[7, 8])
            };
            let astar = ged_exact_full(&g1, &g2, &c, 2_000_000).unwrap().0;
            let df = ged_depth_first(&g1, &g2, &c, f64::INFINITY);
            assert_eq!(df.distance, Some(astar), "trial {trial}");
        }
    }

    #[test]
    fn cutoff_rejects_far_pairs() {
        let mut rng = SmallRng::seed_from_u64(14);
        let c = CostModel::uniform();
        let g1 = random_connected(&mut rng, 5, 1, &[0], &[1]);
        let g2 = random_connected(&mut rng, 9, 4, &[5], &[6]);
        let d = ged_exact_full(&g1, &g2, &c, 2_000_000).unwrap().0;
        assert!(ged_depth_first(&g1, &g2, &c, d - 0.5).distance.is_none());
        assert_eq!(ged_depth_first(&g1, &g2, &c, d).distance, Some(d));
    }

    #[test]
    fn identical_graphs_zero() {
        let mut rng = SmallRng::seed_from_u64(15);
        let g = random_connected(&mut rng, 7, 3, &[0, 1], &[2]);
        assert_eq!(
            ged_depth_first(&g, &g, &CostModel::uniform(), f64::INFINITY).distance,
            Some(0.0)
        );
    }

    #[test]
    fn empty_graph_special_case() {
        let e = graphrep_graph::GraphBuilder::new().build();
        let mut rng = SmallRng::seed_from_u64(16);
        let g = random_connected(&mut rng, 3, 1, &[0], &[1]);
        let r = ged_depth_first(&e, &g, &CostModel::uniform(), f64::INFINITY);
        assert_eq!(r.distance, Some((3 + g.edge_count()) as f64));
    }
}

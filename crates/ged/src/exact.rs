//! Exact graph edit distance via best-first (A*) search.
//!
//! The classical formulation [Zeng et al. 2009; He & Singh 2006]: states are
//! partial mappings of the first graph's nodes — in a fixed order — onto
//! nodes of the second graph or onto ε (deletion). Each expansion pays the
//! exactly attributable node and edge costs; an admissible heuristic prunes
//! the search: the label-multiset bound on the remaining nodes, plus one per
//! edge class — the pending edges of each mapped node against those of its
//! image, and the edges among unmapped nodes ([`crate::tables`]). Any
//! admissible heuristic finds an optimal edit path, so the heuristic decides
//! only how many states are expanded. With symmetric costs the result is a
//! metric, which the NB-Index theorems require.
//!
//! Computing GED is NP-hard, so the search takes both a `cutoff` (for
//! θ-membership tests, Sec 5–6 of the paper) and an expansion `budget`
//! (so index construction can fall back to the bipartite upper bound).

use crate::cost::CostModel;
use crate::tables::{Frame, PairTables};
use graphrep_graph::Graph;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of an exact GED search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The exact distance (≤ cutoff).
    Distance(f64),
    /// The distance is certainly greater than the cutoff.
    ExceedsCutoff,
    /// The expansion budget ran out before a certificate was found.
    BudgetExhausted,
}

/// Search statistics returned along with the outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactResult {
    /// What the search concluded.
    pub outcome: Outcome,
    /// Number of node expansions performed.
    pub expansions: u64,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    parent: u32,
    g: f64,
    used: u32,
    depth: u8,
    /// The `b_mat` column the a-node at `depth - 1` went to (`n2` = ε).
    col: u8,
}

#[derive(Debug)]
struct HeapEntry {
    f: f64,
    depth: u8,
    idx: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f && self.depth == other.depth
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert f (prefer small), prefer deep ties.
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| self.depth.cmp(&other.depth))
    }
}

/// Reusable A* state: the node arena, the frontier heap, and the partial-map
/// reconstruction buffer (the column chosen at each depth).
#[derive(Debug, Default)]
pub(crate) struct AstarBufs {
    arena: Vec<Node>,
    heap: BinaryHeap<HeapEntry>,
    cols: Vec<u8>,
}

/// Largest graph, in nodes, the exact search supports: its state is a `u32`
/// node bitmask. A larger graph panics the search, so callers that accept
/// graphs from outside check against this first.
pub const MAX_EXACT_NODES: usize = 32;

/// Exact GED between `g1` and `g2` under `cost`, searching only edit paths of
/// cost ≤ `cutoff` and at most `budget` expansions.
///
/// Symmetric in its graph arguments. Both graphs must have at most
/// [`MAX_EXACT_NODES`] nodes (asserted) — our datasets are far below that.
pub fn ged_exact(
    g1: &Graph,
    g2: &Graph,
    cost: &CostModel,
    cutoff: f64,
    budget: u64,
) -> ExactResult {
    crate::scratch::with_scratch(|s| {
        let crate::scratch::SearchScratch {
            tables,
            frame,
            astar,
            ..
        } = s;
        ged_exact_in(g1, g2, cost, cutoff, budget, tables, frame, astar)
    })
}

/// [`ged_exact`] over caller-provided scratch buffers; allocation-free once
/// the buffers have warmed up to the largest instance seen on this thread.
#[allow(clippy::too_many_arguments)] // internal: the wrapper owns the API
                                     // graphrep: hot-path
pub(crate) fn ged_exact_in(
    g1: &Graph,
    g2: &Graph,
    cost: &CostModel,
    cutoff: f64,
    budget: u64,
    t: &mut PairTables,
    frame: &mut Frame,
    ab: &mut AstarBufs,
) -> ExactResult {
    // Map the smaller graph onto the larger: fewer levels, same distance
    // (costs are symmetric).
    let (a, b) = if g1.node_count() <= g2.node_count() {
        (g1, g2)
    } else {
        (g2, g1)
    };
    let limit = cutoff + 1e-9;
    if a.node_count() == 0 {
        // Pure insertion: every node and edge of the larger graph.
        let d = b.node_count() as f64 * cost.node_indel + b.edge_count() as f64 * cost.edge_indel;
        let outcome = if d <= limit {
            Outcome::Distance(d)
        } else {
            Outcome::ExceedsCutoff
        };
        return ExactResult {
            outcome,
            expansions: 0,
        };
    }
    t.rebuild(a, b);
    let t = &*t;
    let n1 = t.n1();

    ab.arena.clear();
    ab.heap.clear();
    ab.arena.push(Node {
        parent: u32::MAX,
        g: 0.0,
        used: 0,
        depth: 0,
        col: 0,
    });
    frame.enter(t, 0, &[]);
    let h0 = frame.heuristic(t, cost);
    if h0 > limit {
        return ExactResult {
            outcome: Outcome::ExceedsCutoff,
            expansions: 0,
        };
    }
    ab.heap.push(HeapEntry {
        f: h0,
        depth: 0,
        idx: 0,
    });

    let mut expansions = 0u64;
    ab.cols.clear();
    ab.cols.resize(n1, 0);

    while let Some(entry) = ab.heap.pop() {
        let node = ab.arena[entry.idx as usize];
        let depth = node.depth as usize;
        if depth == n1 {
            return ExactResult {
                outcome: Outcome::Distance(node.g),
                expansions,
            };
        }
        if expansions >= budget {
            return ExactResult {
                outcome: Outcome::BudgetExhausted,
                expansions,
            };
        }
        expansions += 1;

        // Reconstruct the partial map: the column taken at each depth.
        let mut cur = node;
        while cur.parent != u32::MAX {
            ab.cols[cur.depth as usize - 1] = cur.col;
            cur = ab.arena[cur.parent as usize];
        }
        let cols = &ab.cols[..depth];

        // Children: the a-node at `depth` onto each unused b-node in
        // ascending id order, then onto ε (column n2). One frame for the
        // expansion, with that a-node in flight; each child is an O(1) step
        // from it. The last a-node's children are complete and need none.
        let complete = depth + 1 == n1;
        if !complete {
            frame.enter(t, depth + 1, cols);
        }
        for col in t.children(node.used) {
            let mut g = node.g + t.step_cost(depth, col, cols, cost);
            if g > limit {
                // h ≥ 0, so f would exceed the limit as well.
                continue;
            }
            let h = if complete {
                // Completion: insert all unused b nodes and every b edge not
                // fully inside the used set (edges among used nodes were paid
                // pairwise).
                let (unused, pending) = t.left_over(t.taking(node.used, col));
                g += unused as f64 * cost.node_indel + pending as f64 * cost.edge_indel;
                0.0
            } else {
                frame.child(t, col, cost)
            };
            let f = g + h;
            if f <= limit {
                let idx = ab.arena.len() as u32;
                ab.arena.push(Node {
                    parent: entry.idx,
                    g,
                    used: t.taking(node.used, col),
                    depth: depth as u8 + 1,
                    col: col as u8,
                });
                ab.heap.push(HeapEntry {
                    f,
                    depth: depth as u8 + 1,
                    idx,
                });
            }
        }
    }
    ExactResult {
        outcome: Outcome::ExceedsCutoff,
        expansions,
    }
}

/// Convenience wrapper: unbounded exact distance (still budgeted).
///
/// Returns `None` if the budget is exhausted first.
pub fn ged_exact_full(g1: &Graph, g2: &Graph, cost: &CostModel, budget: u64) -> Option<(f64, u64)> {
    let r = ged_exact(g1, g2, cost, f64::INFINITY, budget);
    match r.outcome {
        Outcome::Distance(d) => Some((d, r.expansions)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_graph::GraphBuilder;

    fn build(nodes: &[u32], edges: &[(u16, u16, u32)]) -> Graph {
        let mut b = GraphBuilder::new();
        for &l in nodes {
            b.add_node(l);
        }
        for &(u, v, l) in edges {
            b.add_edge(u, v, l).unwrap();
        }
        b.build()
    }

    fn d(g1: &Graph, g2: &Graph) -> f64 {
        ged_exact_full(g1, g2, &CostModel::uniform(), 1_000_000)
            .expect("budget")
            .0
    }

    #[test]
    fn identical_graphs_are_distance_zero() {
        let g = build(&[0, 1, 2], &[(0, 1, 5), (1, 2, 5)]);
        assert_eq!(d(&g, &g), 0.0);
    }

    #[test]
    fn empty_vs_graph_counts_everything() {
        let e = build(&[], &[]);
        let g = build(&[0, 1], &[(0, 1, 3)]);
        assert_eq!(d(&e, &g), 3.0); // 2 node inserts + 1 edge insert
        assert_eq!(d(&g, &e), 3.0);
    }

    #[test]
    fn single_relabel() {
        let g1 = build(&[0, 1], &[(0, 1, 3)]);
        let g2 = build(&[0, 2], &[(0, 1, 3)]);
        assert_eq!(d(&g1, &g2), 1.0);
    }

    #[test]
    fn edge_relabel() {
        let g1 = build(&[0, 1], &[(0, 1, 3)]);
        let g2 = build(&[0, 1], &[(0, 1, 4)]);
        assert_eq!(d(&g1, &g2), 1.0);
    }

    #[test]
    fn leaf_addition_costs_two() {
        let g1 = build(&[0, 1], &[(0, 1, 3)]);
        let g2 = build(&[0, 1, 2], &[(0, 1, 3), (1, 2, 3)]);
        assert_eq!(d(&g1, &g2), 2.0); // node insert + edge insert
    }

    #[test]
    fn isomorphic_relabeled_ordering() {
        // Same structure, nodes listed in different order.
        let g1 = build(&[7, 8, 9], &[(0, 1, 1), (1, 2, 2)]);
        let g2 = build(&[9, 8, 7], &[(2, 1, 1), (1, 0, 2)]);
        assert_eq!(d(&g1, &g2), 0.0);
    }

    #[test]
    fn triangle_vs_path() {
        let tri = build(&[0, 0, 0], &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let path = build(&[0, 0, 0], &[(0, 1, 1), (1, 2, 1)]);
        assert_eq!(d(&tri, &path), 1.0); // delete one edge
    }

    #[test]
    fn cutoff_exceeded_detected() {
        let g1 = build(&[0; 4], &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let g2 = build(&[5; 4], &[(0, 1, 2), (1, 2, 2), (2, 3, 2)]);
        let r = ged_exact(&g1, &g2, &CostModel::uniform(), 2.0, 1_000_000);
        assert_eq!(r.outcome, Outcome::ExceedsCutoff);
        // True distance is 7 (4 node relabels + 3 edge relabels).
        assert_eq!(d(&g1, &g2), 7.0);
    }

    #[test]
    fn cutoff_equal_to_distance_succeeds() {
        let g1 = build(&[0, 1], &[(0, 1, 3)]);
        let g2 = build(&[0, 2], &[(0, 1, 3)]);
        let r = ged_exact(&g1, &g2, &CostModel::uniform(), 1.0, 1_000_000);
        assert_eq!(r.outcome, Outcome::Distance(1.0));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g1 = build(
            &[0; 6],
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)],
        );
        let g2 = build(
            &[1; 6],
            &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2), (4, 5, 2)],
        );
        let r = ged_exact(&g1, &g2, &CostModel::uniform(), f64::INFINITY, 1);
        assert_eq!(r.outcome, Outcome::BudgetExhausted);
    }

    #[test]
    fn symmetry_on_random_pairs() {
        use graphrep_graph::generate::random_connected;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(4);
        let c = CostModel::uniform();
        for _ in 0..10 {
            let g1 = random_connected(&mut rng, 5, 2, &[0, 1, 2], &[9, 8]);
            let g2 = random_connected(&mut rng, 6, 2, &[0, 1, 2], &[9, 8]);
            let d12 = ged_exact_full(&g1, &g2, &c, 500_000).unwrap().0;
            let d21 = ged_exact_full(&g2, &g1, &c, 500_000).unwrap().0;
            assert_eq!(d12, d21);
        }
    }

    #[test]
    fn triangle_inequality_on_random_triples() {
        use graphrep_graph::generate::random_connected;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(21);
        let c = CostModel::uniform();
        for _ in 0..8 {
            let a = random_connected(&mut rng, 4, 1, &[0, 1], &[7]);
            let b = random_connected(&mut rng, 5, 2, &[0, 1], &[7]);
            let g = random_connected(&mut rng, 5, 1, &[0, 1], &[7]);
            let dab = ged_exact_full(&a, &b, &c, 500_000).unwrap().0;
            let dbg = ged_exact_full(&b, &g, &c, 500_000).unwrap().0;
            let dag = ged_exact_full(&a, &g, &c, 500_000).unwrap().0;
            assert!(dag <= dab + dbg + 1e-9, "{dag} > {dab} + {dbg}");
        }
    }
}

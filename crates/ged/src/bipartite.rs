//! Bipartite graph-edit-distance approximation (Riesen & Bunke style).
//!
//! A square assignment problem over node sets augmented with ε rows/columns
//! produces a complete node mapping in `O(n³)`; the exact cost of the edit
//! path *induced* by that mapping is a valid **upper bound** on GED. This is
//! the workhorse for large graphs (hybrid mode) and for seeding the exact
//! search with a good cutoff.

use crate::assignment::{solve_into, AssignScratch, CostMatrix};
use crate::bounds::multiset_bound;
use crate::cost::CostModel;
use graphrep_graph::{Graph, NodeId};

/// Reusable buffers for the bipartite bounds: the cost matrix, flattened
/// per-node star label multisets, and the Hungarian solver's scratch. Lives
/// in the per-thread [`crate::scratch::SearchScratch`].
#[derive(Debug, Default)]
pub(crate) struct BpBufs {
    m: CostMatrix,
    stars1: Vec<u32>,
    stars1_off: Vec<usize>,
    stars2: Vec<u32>,
    stars2_off: Vec<usize>,
    assign: AssignScratch,
}

/// Fills `flat`/`off` with the sorted neighbor-label multiset of every node
/// of `g`, reusing the buffers.
// graphrep: hot-path
fn stars_into(g: &Graph, flat: &mut Vec<u32>, off: &mut Vec<usize>) {
    flat.clear();
    off.clear();
    for u in 0..g.node_count() as NodeId {
        let start = flat.len();
        off.push(start);
        for &(_, l) in g.neighbors(u) {
            flat.push(l);
        }
        flat[start..].sort_unstable();
    }
    off.push(flat.len());
}

/// Builds the `(n1+n2) × (n1+n2)` Riesen–Bunke cost matrix into `bufs.m`.
///
/// The upper-left block holds substitution estimates (node substitution plus
/// half the incident-edge multiset bound — each edge is seen from both of its
/// endpoints); the diagonal blocks hold deletions/insertions including
/// incident edges; the lower-right block is zero.
#[allow(clippy::needless_range_loop)] // indexed loops mirror the block matrix
                                      // graphrep: hot-path
fn bp_matrix_into(g1: &Graph, g2: &Graph, cost: &CostModel, bufs: &mut BpBufs) {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let n = n1 + n2;
    let inf = f64::INFINITY;
    bufs.m.reset(n, 0.0);
    stars_into(g1, &mut bufs.stars1, &mut bufs.stars1_off);
    stars_into(g2, &mut bufs.stars2, &mut bufs.stars2_off);
    let m = &mut bufs.m;
    // (indexed loops below intentionally mirror the matrix block structure)

    for i in 0..n1 {
        let s1 = &bufs.stars1[bufs.stars1_off[i]..bufs.stars1_off[i + 1]];
        for j in 0..n2 {
            let s2 = &bufs.stars2[bufs.stars2_off[j]..bufs.stars2_off[j + 1]];
            let node = cost.node_subst(g1.node_label(i as NodeId), g2.node_label(j as NodeId));
            let edges = multiset_bound(s1, s2, cost.edge_sub, cost.edge_indel) / 2.0;
            m.set(i, j, node + edges);
        }
        // i -> ε (delete node i and its incident edges, half-charged).
        for j in n2..n {
            let v = if j - n2 == i {
                cost.node_indel + g1.degree(i as NodeId) as f64 * cost.edge_indel / 2.0
            } else {
                inf
            };
            m.set(i, j, v);
        }
    }
    for i in n1..n {
        for j in 0..n2 {
            let v = if i - n1 == j {
                cost.node_indel + g2.degree(j as NodeId) as f64 * cost.edge_indel / 2.0
            } else {
                inf
            };
            m.set(i, j, v);
        }
        // ε -> ε block stays 0.
    }
}

/// Exact cost of the edit path induced by the complete node mapping in the
/// solver's `row_to_col` output: g1-node `i` maps onto g2-node
/// `row_to_col[i]`, or is deleted when that column is `≥ n2`.
///
/// This is an upper bound on the true GED for *any* mapping, and the basis
/// of [`bp_upper_bound`].
// graphrep: hot-path
fn induced_from_rows(g1: &Graph, g2: &Graph, row_to_col: &[usize], cost: &CostModel) -> f64 {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let mut total = 0.0;
    // Node operations.
    let mut matched = 0usize;
    for (i, &c) in row_to_col.iter().take(n1).enumerate() {
        if c < n2 {
            total += cost.node_subst(g1.node_label(i as NodeId), g2.node_label(c as NodeId));
            matched += 1;
        } else {
            total += cost.node_indel;
        }
    }
    total += (n2 - matched) as f64 * cost.node_indel;

    // g1 edges: substituted when both endpoints map and the image edge
    // exists, deleted otherwise.
    let mut matched_g2_edges = 0usize;
    for e in g1.edges() {
        let cu = row_to_col[e.u as usize];
        let cv = row_to_col[e.v as usize];
        if cu < n2 && cv < n2 {
            match g2.edge_label(cu as NodeId, cv as NodeId) {
                Some(l2) => {
                    total += cost.edge_subst(e.label, l2);
                    matched_g2_edges += 1;
                }
                None => total += cost.edge_indel,
            }
        } else {
            total += cost.edge_indel;
        }
    }
    // Remaining g2 edges are insertions.
    total += (g2.edge_count() - matched_g2_edges) as f64 * cost.edge_indel;
    total
}

/// Upper bound on GED from the bipartite heuristic: symmetric by
/// construction (runs both directions and keeps the smaller).
pub fn bp_upper_bound(g1: &Graph, g2: &Graph, cost: &CostModel) -> f64 {
    crate::scratch::with_scratch(|s| bp_upper_bound_in(g1, g2, cost, &mut s.bp))
}

/// [`bp_upper_bound`] over caller-provided scratch; allocation-free after
/// warm-up.
// graphrep: hot-path
pub(crate) fn bp_upper_bound_in(
    g1: &Graph,
    g2: &Graph,
    cost: &CostModel,
    bufs: &mut BpBufs,
) -> f64 {
    bp_matrix_into(g1, g2, cost, bufs);
    let _ = solve_into(&bufs.m, &mut bufs.assign);
    let a = induced_from_rows(g1, g2, &bufs.assign.row_to_col, cost);
    bp_matrix_into(g2, g1, cost, bufs);
    let _ = solve_into(&bufs.m, &mut bufs.assign);
    let b = induced_from_rows(g2, g1, &bufs.assign.row_to_col, cost);
    a.min(b)
}

/// Assignment-based **lower bound** (Riesen-style): the optimal cost of the
/// bipartite matrix itself.
///
/// Sound because any true edit path induces a complete node assignment
/// whose matrix cost it dominates: node operations are charged identically,
/// and every edge operation of the path is charged to its two endpoints at
/// half cost each (edges to deleted/inserted partners included), while
/// substitution entries use the *admissible* half-star multiset bound.
/// Stronger than the label bound whenever local structure disagrees.
pub fn bp_lower_bound(g1: &Graph, g2: &Graph, cost: &CostModel) -> f64 {
    crate::scratch::with_scratch(|s| bp_lower_bound_in(g1, g2, cost, &mut s.bp))
}

/// [`bp_lower_bound`] over caller-provided scratch; allocation-free after
/// warm-up.
// graphrep: hot-path
pub(crate) fn bp_lower_bound_in(
    g1: &Graph,
    g2: &Graph,
    cost: &CostModel,
    bufs: &mut BpBufs,
) -> f64 {
    bp_matrix_into(g1, g2, cost, bufs);
    solve_into(&bufs.m, &mut bufs.assign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::label_lower_bound_profiled;
    use crate::exact::ged_exact_full;
    use crate::profile::GraphProfile;
    use graphrep_graph::generate::{mutate, random_connected};
    use graphrep_graph::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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

    fn label_bound(g1: &Graph, g2: &Graph, c: &CostModel) -> f64 {
        label_lower_bound_profiled(&GraphProfile::new(g1), &GraphProfile::new(g2), c)
    }

    #[test]
    fn identical_graphs_bound_zero() {
        let g = build(&[0, 1, 2], &[(0, 1, 5), (1, 2, 6)]);
        assert_eq!(bp_upper_bound(&g, &g, &CostModel::uniform()), 0.0);
    }

    #[test]
    fn empty_graph_bound_is_exact() {
        let e = build(&[], &[]);
        let g = build(&[0, 1], &[(0, 1, 3)]);
        assert_eq!(bp_upper_bound(&e, &g, &CostModel::uniform()), 3.0);
    }

    /// The solved matrix is a complete mapping: every g2 node is either the
    /// image of a g1 row or taken by an ε row (inserted).
    #[test]
    fn mapping_shape() {
        let g1 = build(&[0, 1], &[(0, 1, 3)]);
        let g2 = build(&[0, 1, 2], &[(0, 1, 3), (1, 2, 4)]);
        let mut bufs = BpBufs::default();
        bp_matrix_into(&g1, &g2, &CostModel::uniform(), &mut bufs);
        solve_into(&bufs.m, &mut bufs.assign);
        let (g1_rows, eps_rows) = bufs.assign.row_to_col.split_at(2);
        assert_eq!(eps_rows.len(), 3);
        let mapped = g1_rows.iter().filter(|&&c| c < 3).count();
        let inserted = eps_rows.iter().filter(|&&c| c < 3).count();
        assert_eq!(inserted, 3 - mapped);
    }

    #[test]
    fn upper_bound_sandwiches_exact_on_random_pairs() {
        let mut rng = SmallRng::seed_from_u64(23);
        let c = CostModel::uniform();
        for trial in 0..25 {
            let g1 = random_connected(&mut rng, 5, 2, &[0, 1, 2], &[9, 8]);
            let g2 = if trial % 2 == 0 {
                mutate(&mut rng, &g1, 2, &[0, 1, 2], &[9, 8])
            } else {
                random_connected(&mut rng, 6, 2, &[0, 1, 2], &[9, 8])
            };
            let exact = ged_exact_full(&g1, &g2, &c, 2_000_000).unwrap().0;
            let ub = bp_upper_bound(&g1, &g2, &c);
            let lb = label_bound(&g1, &g2, &c);
            assert!(
                ub >= exact - 1e-9,
                "ub {ub} < exact {exact} (trial {trial})"
            );
            assert!(
                lb <= exact + 1e-9,
                "lb {lb} > exact {exact} (trial {trial})"
            );
        }
    }

    #[test]
    fn upper_bound_is_symmetric() {
        let mut rng = SmallRng::seed_from_u64(31);
        let c = CostModel::uniform();
        for _ in 0..10 {
            let g1 = random_connected(&mut rng, 6, 3, &[0, 1], &[5, 6]);
            let g2 = random_connected(&mut rng, 7, 3, &[0, 1], &[5, 6]);
            assert_eq!(bp_upper_bound(&g1, &g2, &c), bp_upper_bound(&g2, &g1, &c));
        }
    }

    #[test]
    fn bp_lower_bound_is_admissible_on_random_pairs() {
        let mut rng = SmallRng::seed_from_u64(47);
        let c = CostModel::uniform();
        for trial in 0..40 {
            let g1 = random_connected(&mut rng, 4 + trial % 4, 2, &[0, 1, 2], &[9, 8]);
            let g2 = if trial % 3 == 0 {
                mutate(&mut rng, &g1, 2, &[0, 1, 2], &[9, 8])
            } else {
                random_connected(&mut rng, 5 + trial % 3, 2, &[0, 1, 2], &[9, 8])
            };
            let exact = ged_exact_full(&g1, &g2, &c, 2_000_000).unwrap().0;
            let lb = bp_lower_bound(&g1, &g2, &c);
            assert!(
                lb <= exact + 1e-9,
                "bp lb {lb} > exact {exact} (trial {trial})"
            );
        }
    }

    #[test]
    fn bp_lower_bound_zero_on_identical() {
        let g = build(&[0, 1, 2], &[(0, 1, 5), (1, 2, 6)]);
        assert_eq!(bp_lower_bound(&g, &g, &CostModel::uniform()), 0.0);
    }

    #[test]
    fn bp_lower_bound_sees_structural_mismatch_label_bound_misses() {
        // Same node/edge label multisets, different local structure:
        // a path vs a star over identical labels.
        let path = build(&[0, 0, 0, 0], &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let star = build(&[0, 0, 0, 0], &[(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        let c = CostModel::uniform();
        assert_eq!(label_bound(&path, &star, &c), 0.0);
        assert!(bp_lower_bound(&path, &star, &c) > 0.0);
    }

    #[test]
    fn induced_cost_of_identity_mapping_is_zero() {
        let g = build(&[0, 1, 2], &[(0, 1, 5), (1, 2, 6)]);
        assert_eq!(
            induced_from_rows(&g, &g, &[0, 1, 2], &CostModel::uniform()),
            0.0
        );
    }
}

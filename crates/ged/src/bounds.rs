//! Cheap admissible lower bounds on graph edit distance.
//!
//! These run in near-linear time and are used to (a) avoid exact searches
//! whose answer is certainly above θ and (b) seed the A* heuristic.

use crate::cost::CostModel;
use crate::profile::GraphProfile;
use std::cmp::Ordering;

/// Size of the intersection of two sorted multisets.
pub fn multiset_overlap(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                k += 1;
                i += 1;
                j += 1;
            }
        }
    }
    k
}

/// Admissible lower bound on the cost of reconciling two label multisets,
/// where unequal paired labels cost `sub` (capped by `2·indel`) and the count
/// difference costs `indel` each.
pub fn multiset_bound(a: &[u32], b: &[u32], sub: f64, indel: f64) -> f64 {
    count_bound(multiset_overlap(a, b), a.len(), b.len(), sub, indel)
}

/// [`multiset_bound`] from the counts alone: multisets of `r1` and `r2`
/// labels sharing `overlap` of them.
#[inline]
pub(crate) fn count_bound(overlap: usize, r1: usize, r2: usize, sub: f64, indel: f64) -> f64 {
    split_bound(
        r1.min(r2).saturating_sub(overlap),
        r1.abs_diff(r2),
        sub,
        indel,
    )
}

/// The bound of several disjoint multiset pairs at once, from two integer
/// totals: `pairs` unmatched pairs and `diff` summed size difference. The
/// sum of [`count_bound`] over the pairs, converted once, so its bits do not
/// depend on the order the pairs were counted in. The exact searches
/// evaluate their heuristic through this (see [`crate::tables`]), so it is
/// the one place the bound's arithmetic lives.
#[inline]
pub(crate) fn split_bound(pairs: usize, diff: usize, sub: f64, indel: f64) -> f64 {
    pairs as f64 * sub.min(2.0 * indel) + diff as f64 * indel
}

/// Label lower bound: node-label multiset bound + edge-label multiset bound,
/// an O(n) merge over the profiles' sorted label arrays.
///
/// Valid because any edit path must reconcile both multisets, and node and
/// edge operations are charged separately.
pub fn label_lower_bound_profiled(p1: &GraphProfile, p2: &GraphProfile, cost: &CostModel) -> f64 {
    multiset_bound(
        &p1.node_labels,
        &p2.node_labels,
        cost.node_sub,
        cost.node_indel,
    ) + multiset_bound(
        &p1.edge_labels,
        &p2.edge_labels,
        cost.edge_sub,
        cost.edge_indel,
    )
}

/// Size lower bound: node and edge count differences only (never above the
/// label bound, and O(1)).
pub fn size_lower_bound_profiled(p1: &GraphProfile, p2: &GraphProfile, cost: &CostModel) -> f64 {
    p1.node_count.abs_diff(p2.node_count) as f64 * cost.node_indel
        + p1.edge_count.abs_diff(p2.edge_count) as f64 * cost.edge_indel
}

/// Degree-sequence lower bound: half the L1 distance between the zero-padded
/// sorted degree sequences, charged at the edge-indel cost.
///
/// Admissible because node substitutions and edge substitutions leave every
/// degree unchanged, deleting or inserting one edge changes the sorted
/// sequence's minimal-matching L1 distance by at most 2 (one unit at each
/// endpoint), and a node indel only adds or removes a zero entry of the
/// padded sequence (its incident edges are charged as edge indels first).
/// Any edit path therefore performs at least `⌈W1 / 2⌉` edge indels, each
/// costing `edge_indel`. Orthogonal to the label bound (which can miss
/// structural disagreement entirely); the tiers combine bounds with `max`,
/// never by summing, because the two may charge the same edit.
pub fn degree_sequence_bound(p1: &GraphProfile, p2: &GraphProfile, cost: &CostModel) -> f64 {
    // Both sequences sorted ascending; the shorter is implicitly padded with
    // leading zeros, which aligns with matching the largest degrees first.
    let (a, b) = (&p1.degrees, &p2.degrees);
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let pad = long.len() - short.len();
    let mut w1: u64 = 0;
    for (i, &d) in long.iter().enumerate() {
        let other = if i < pad { 0 } else { short[i - pad] };
        w1 += u64::from(d.abs_diff(other));
    }
    (w1.div_ceil(2)) as f64 * cost.edge_indel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ged_exact_full;
    use graphrep_graph::generate::random_connected;
    use graphrep_graph::{Graph, GraphBuilder};
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

    #[test]
    fn overlap_counts_multiplicity() {
        assert_eq!(multiset_overlap(&[1, 1, 2], &[1, 2, 2]), 2);
        assert_eq!(multiset_overlap(&[], &[1]), 0);
        assert_eq!(multiset_overlap(&[3, 3, 3], &[3, 3]), 2);
    }

    fn label_bound(g1: &Graph, g2: &Graph, cost: &CostModel) -> f64 {
        label_lower_bound_profiled(&GraphProfile::new(g1), &GraphProfile::new(g2), cost)
    }

    fn size_bound(g1: &Graph, g2: &Graph, cost: &CostModel) -> f64 {
        size_lower_bound_profiled(&GraphProfile::new(g1), &GraphProfile::new(g2), cost)
    }

    #[test]
    fn bound_zero_for_identical() {
        let g = build(&[0, 1], &[(0, 1, 2)]);
        assert_eq!(label_bound(&g, &g, &CostModel::uniform()), 0.0);
        assert_eq!(size_bound(&g, &g, &CostModel::uniform()), 0.0);
    }

    #[test]
    fn bounds_are_admissible_on_random_pairs() {
        let mut rng = SmallRng::seed_from_u64(17);
        let c = CostModel::uniform();
        for _ in 0..20 {
            let g1 = random_connected(&mut rng, 5, 2, &[0, 1, 2], &[9, 8]);
            let g2 = random_connected(&mut rng, 6, 2, &[0, 1, 2], &[9, 8]);
            let exact = ged_exact_full(&g1, &g2, &c, 1_000_000).unwrap().0;
            let lb = label_bound(&g1, &g2, &c);
            let sb = size_bound(&g1, &g2, &c);
            assert!(lb <= exact + 1e-9, "label lb {lb} > exact {exact}");
            assert!(sb <= exact + 1e-9, "size lb {sb} > exact {exact}");
            assert!(sb <= lb + 1e-9, "size bound should not beat label bound");
        }
    }

    #[test]
    fn label_bound_sees_relabels_size_bound_does_not() {
        let g1 = build(&[0, 0], &[(0, 1, 1)]);
        let g2 = build(&[5, 5], &[(0, 1, 1)]);
        let c = CostModel::uniform();
        assert_eq!(size_bound(&g1, &g2, &c), 0.0);
        assert_eq!(label_bound(&g1, &g2, &c), 2.0);
    }
}

//! An oracle that shares nothing with the search: the edit distance of two
//! small graphs by enumerating every injective partial node map and pricing
//! the edit path it induces, so agreeing with it checks A\*'s per-pair
//! tables and heuristic against nothing they share.

use graphrep_ged::{ged_exact_full, CostModel};
use graphrep_graph::{generate, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Cost of the edit path induced by `map` (`map[u]` = image of g1-node `u`,
/// `None` = deleted): unmapped nodes of either side are deleted / inserted,
/// and every node pair pays for the edge it has on one side and lacks, or
/// labels differently, on the other.
fn induced_cost(g1: &Graph, g2: &Graph, map: &[Option<NodeId>], cost: &CostModel) -> f64 {
    let mut total = 0.0;
    let mut image = vec![false; g2.node_count()];
    for (u, m) in map.iter().enumerate() {
        match *m {
            Some(j) => {
                image[j as usize] = true;
                total += cost.node_subst(g1.node_label(u as NodeId), g2.node_label(j));
            }
            None => total += cost.node_indel,
        }
    }
    total += image.iter().filter(|&&hit| !hit).count() as f64 * cost.node_indel;
    // g1 edges: substituted when both endpoints are mapped onto an edge,
    // deleted otherwise.
    let mut kept = 0;
    for e in g1.edges() {
        let other = match (map[e.u as usize], map[e.v as usize]) {
            (Some(x), Some(y)) => g2.edge_label(x, y),
            _ => None,
        };
        total += match other {
            Some(l) => {
                kept += 1;
                cost.edge_subst(e.label, l)
            }
            None => cost.edge_indel,
        };
    }
    // Every g2 edge that no g1 edge was substituted onto is inserted.
    total + (g2.edge_count() - kept) as f64 * cost.edge_indel
}

fn enumerate(
    g1: &Graph,
    g2: &Graph,
    cost: &CostModel,
    map: &mut Vec<Option<NodeId>>,
    taken: &mut Vec<bool>,
    best: &mut f64,
) {
    if map.len() == g1.node_count() {
        *best = best.min(induced_cost(g1, g2, map, cost));
        return;
    }
    map.push(None);
    enumerate(g1, g2, cost, map, taken, best);
    map.pop();
    for j in 0..g2.node_count() {
        if !taken[j] {
            taken[j] = true;
            map.push(Some(j as NodeId));
            enumerate(g1, g2, cost, map, taken, best);
            map.pop();
            taken[j] = false;
        }
    }
}

fn brute_force(g1: &Graph, g2: &Graph, cost: &CostModel) -> f64 {
    let mut best = f64::INFINITY;
    let mut taken = vec![false; g2.node_count()];
    enumerate(g1, g2, cost, &mut Vec::new(), &mut taken, &mut best);
    best
}

fn graph_from_seed(seed: u64, n: usize) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    generate::random_connected(&mut rng, n, 2, &[0, 1, 2], &[7, 8])
}

/// Uniform, dyadic non-uniform (sums stay exact) and non-dyadic costs.
const COSTS: [CostModel; 4] = [
    CostModel::uniform(),
    CostModel {
        node_sub: 0.5,
        node_indel: 1.0,
        edge_sub: 1.5,
        edge_indel: 2.0,
    },
    CostModel {
        node_sub: 2.0,
        node_indel: 1.0,
        edge_sub: 0.25,
        edge_indel: 0.5,
    },
    CostModel {
        node_sub: 0.7,
        node_indel: 0.9,
        edge_sub: 1.1,
        edge_indel: 1.3,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn searches_agree_with_enumeration(
        s1 in 0u64..1000, s2 in 0u64..1000,
        n1 in 1usize..=5, n2 in 1usize..=5,
        model in 0usize..COSTS.len()
    ) {
        let cost = COSTS[model];
        prop_assert!(cost.validate().is_ok());
        let (a, b) = (graph_from_seed(s1, n1), graph_from_seed(s2, n2));
        let want = brute_force(&a, &b, &cost);
        let astar = ged_exact_full(&a, &b, &cost, 2_000_000).unwrap().0;
        // Both sides sum the same operation costs, each in its own order.
        prop_assert!((astar - want).abs() <= 1e-9, "A* {astar} vs enumeration {want}");
        if model < 3 {
            prop_assert_eq!(astar, want);
        }
    }
}

#[test]
fn enumeration_handles_the_empty_graph() {
    let empty = graphrep_graph::GraphBuilder::new().build();
    let g = graph_from_seed(3, 4);
    let cost = CostModel::uniform();
    let want = (g.node_count() + g.edge_count()) as f64;
    assert_eq!(brute_force(&empty, &g, &cost), want);
    assert_eq!(brute_force(&g, &empty, &cost), want);
    assert_eq!(ged_exact_full(&empty, &g, &cost, 10).unwrap().0, want);
}

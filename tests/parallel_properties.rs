//! Property-based tests of the vantage-embedding theorems *through the
//! parallel execution path*: the rayon-built [`VantageTable`] must satisfy
//! Thm 4 (the Lipschitz lower bound never exceeds the exact GED) and Thm 5
//! (`N̂_θ(g) ⊇ N_θ(g)`), and a query on the rayon-built NB-Index must return
//! exactly the sequential brute-force greedy answer.

use graphrep::core::{baseline_greedy, BruteForceProvider, NbIndex, NbIndexConfig};
use graphrep::ged::{DistanceOracle, GedConfig, GedEngine};
use graphrep::graph::{Graph, GraphBuilder};
use graphrep::metric::VantageTable;
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a small random connected labeled graph (spanning-tree skeleton
/// plus a few extra edges).
fn arb_graph(max_nodes: usize) -> impl Strategy<Value = Graph> {
    (1..=max_nodes).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u32..3, n);
        let parents = proptest::collection::vec(0usize..n.max(1), n.saturating_sub(1));
        let extra = proptest::collection::vec((0usize..n, 0usize..n, 0u32..2), 0..3);
        (labels, parents, extra).prop_map(move |(labels, parents, extra)| {
            let mut b = GraphBuilder::new();
            for &l in &labels {
                b.add_node(l);
            }
            for (i, &p) in parents.iter().enumerate() {
                let child = (i + 1) as u16;
                let parent = (p % (i + 1)) as u16;
                b.add_edge(child, parent, 5).unwrap();
            }
            for &(u, v, l) in &extra {
                let (u, v) = (u as u16, v as u16);
                if u != v && !b.has_edge(u, v) {
                    b.add_edge(u, v, l).unwrap();
                }
            }
            b.build()
        })
    })
}

/// Strategy: a small random graph database behind a caching oracle.
fn arb_db() -> impl Strategy<Value = Arc<DistanceOracle>> {
    proptest::collection::vec(arb_graph(5), 4..10).prop_map(|graphs| {
        Arc::new(DistanceOracle::new(
            Arc::new(graphs),
            GedEngine::new(GedConfig::default()),
        ))
    })
}

/// The parallel vantage build over the first `vps` graphs as vantage points.
fn par_table(oracle: &DistanceOracle, vps: usize) -> VantageTable {
    let n = oracle.len();
    let vp_ids: Vec<u32> = (0..vps.min(n) as u32).collect();
    VantageTable::build_with_vps(n, vp_ids, &|a, b| oracle.distance(a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn vantage_lower_bound_is_admissible(oracle in arb_db(), vps in 1usize..4) {
        // Thm 4: max_v |d(v,i) − d(v,j)| ≤ d(i,j) for every pair, when the
        // table's |V| × n matrix was evaluated across rayon workers.
        let t = par_table(&oracle, vps);
        let n = oracle.len() as u32;
        for i in 0..n {
            for j in 0..n {
                let exact = oracle.distance(i, j);
                prop_assert!(
                    t.lower_bound(i, j) <= exact + 1e-6,
                    "lb {} > exact {} for ({i},{j})", t.lower_bound(i, j), exact
                );
            }
        }
    }

    #[test]
    fn candidate_superset_contains_true_neighborhood(
        oracle in arb_db(),
        vps in 1usize..4,
        theta in 0.5f64..6.0,
    ) {
        // Thm 5: N̂_θ(g) ⊇ N_θ(g) — band filtering may overshoot but never
        // drops a true neighbor.
        let t = par_table(&oracle, vps);
        let n = oracle.len() as u32;
        for g in 0..n {
            let cands = t.candidates(g, theta);
            for j in 0..n {
                if oracle.distance(g, j) <= theta {
                    prop_assert!(
                        cands.contains(&j),
                        "true neighbor {j} of {g} missing at θ={theta}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_index_query_equals_brute_force_greedy(
        oracle in arb_db(),
        theta in 1.0f64..5.0,
        k in 1usize..4,
    ) {
        // End-to-end: the NB-Index (rayon-parallel build, single-threaded
        // query) must return exactly the Alg 1 greedy answer over the
        // brute-force provider.
        let relevant: Vec<u32> = (0..oracle.len() as u32).collect();
        let index = NbIndex::build(
            Arc::clone(&oracle),
            NbIndexConfig {
                num_vps: 3,
                ladder: vec![theta],
                ..NbIndexConfig::default()
            },
        );
        let (answer, _) = index.query(relevant.clone(), theta, k);
        let brute = baseline_greedy(
            &BruteForceProvider::new(&oracle, &relevant),
            &relevant,
            theta,
            k,
        );
        prop_assert_eq!(answer.ids, brute.ids);
        prop_assert_eq!(answer.covered, brute.covered);
    }
}

//! Property-based tests of the edit-distance stack: consistency between the
//! exact search, its cutoff variant, the bounds, and the engine policies.

use graphrep_ged::{
    bipartite, bounds, ged_exact, ged_exact_full, CostModel, Fact, GedConfig, GedEngine,
    GraphProfile, Outcome,
};
use graphrep_graph::{generate, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn label_bound(a: &Graph, b: &Graph, cost: &CostModel) -> f64 {
    bounds::label_lower_bound_profiled(&GraphProfile::new(a), &GraphProfile::new(b), cost)
}

/// The cost models the kernel's heuristic tests run under: uniform, and
/// three whose substitution/indel ratios differ per element kind.
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

fn graph_from_seed(seed: u64, n: usize) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    generate::random_connected(&mut rng, n.max(1), 2, &[0, 1, 2], &[7, 8])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cutoff_never_changes_the_distance(
        s1 in 0u64..300, s2 in 0u64..300, n1 in 2usize..7, n2 in 2usize..7
    ) {
        let (a, b) = (graph_from_seed(s1, n1), graph_from_seed(s2, n2));
        let cost = CostModel::uniform();
        let d = ged_exact_full(&a, &b, &cost, 2_000_000).unwrap().0;
        // At cutoff = d the search must succeed with the same value.
        match ged_exact(&a, &b, &cost, d, 2_000_000).outcome {
            Outcome::Distance(v) => prop_assert_eq!(v, d),
            other => prop_assert!(false, "expected Distance, got {:?}", other),
        }
        // At cutoff just below d it must report ExceedsCutoff.
        if d > 0.5 {
            match ged_exact(&a, &b, &cost, d - 0.5, 2_000_000).outcome {
                Outcome::ExceedsCutoff => {}
                other => prop_assert!(false, "expected ExceedsCutoff, got {:?}", other),
            }
        }
    }

    #[test]
    fn mutation_distance_bounded_by_edit_count(
        seed in 0u64..300, edits in 0usize..4
    ) {
        // `mutate` applies local edits; each costs at most 2 under uniform
        // costs (AddLeaf/RemoveLeaf = node + edge), so GED ≤ 2 · edits.
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = generate::random_connected(&mut rng, 6, 2, &[0, 1], &[5]);
        let m = generate::mutate(&mut rng, &base, edits, &[0, 1], &[5]);
        let d = ged_exact_full(&base, &m, &CostModel::uniform(), 3_000_000).unwrap().0;
        prop_assert!(d <= 2.0 * edits as f64 + 1e-9, "d = {d}, edits = {edits}");
    }

    #[test]
    fn bp_bound_tight_on_identical_graphs(seed in 0u64..300, n in 2usize..8) {
        let g = graph_from_seed(seed, n);
        prop_assert_eq!(bipartite::bp_upper_bound(&g, &g, &CostModel::uniform()), 0.0);
        prop_assert_eq!(label_bound(&g, &g, &CostModel::uniform()), 0.0);
    }

    #[test]
    fn non_uniform_costs_stay_sandwiched(
        s1 in 0u64..100, s2 in 0u64..100,
        node_sub in 1u32..=4, edge_indel in 1u32..=3
    ) {
        let cost = CostModel {
            node_sub: node_sub as f64 / 2.0,
            node_indel: 1.0,
            edge_sub: 1.0,
            edge_indel: edge_indel as f64,
        };
        prop_assume!(cost.validate().is_ok());
        let (a, b) = (graph_from_seed(s1, 5), graph_from_seed(s2, 5));
        let exact = ged_exact_full(&a, &b, &cost, 2_000_000).unwrap().0;
        let lb = label_bound(&a, &b, &cost);
        let ub = bipartite::bp_upper_bound(&a, &b, &cost);
        prop_assert!(lb <= exact + 1e-9);
        prop_assert!(ub >= exact - 1e-9);
    }

    /// `GedEngine::ask` is the exact search's answer under every cost
    /// model: at `τ = ∞` the distance, at a finite `τ` `Exact(d)` iff
    /// `d ≤ τ` and `Above(τ)` otherwise.
    #[test]
    fn ask_answers_like_the_exact_search(
        s1 in 0u64..300, s2 in 0u64..300, n1 in 1usize..7, n2 in 1usize..7,
        model in 0usize..4, half_steps in 0u32..16
    ) {
        let cost = COSTS[model];
        let (a, b) = (graph_from_seed(s1, n1), graph_from_seed(s2, n2));
        let (pa, pb) = (GraphProfile::new(&a), GraphProfile::new(&b));
        let engine = GedEngine::new(GedConfig { cost, ..GedConfig::default() });
        let d = ged_exact_full(&a, &b, &cost, 2_000_000).unwrap().0;
        match engine.ask(&a, &b, &pa, &pb, f64::INFINITY) {
            Fact::Exact(v) => prop_assert!((v - d).abs() <= 1e-9, "ask(∞) {} vs {}", v, d),
            Fact::Above(t) => prop_assert!(false, "ask(∞) answered Above({})", t),
        }
        for tau in [d, f64::from(half_steps) / 2.0] {
            match engine.ask(&a, &b, &pa, &pb, tau) {
                Fact::Exact(v) => {
                    prop_assert!((v - d).abs() <= 1e-9, "ask({}) {} vs {}", tau, v, d);
                    prop_assert!(d <= tau + 1e-9, "accepted {} at τ = {}", d, tau);
                }
                Fact::Above(t) => {
                    prop_assert_eq!(t, tau);
                    prop_assert!(d > tau + 1e-9, "rejected {} at τ = {}", d, tau);
                }
            }
        }
        prop_assert_eq!(engine.counters().snapshot().budget_fallbacks, 0);
    }
}

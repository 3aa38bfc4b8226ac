//! Property-based tests (proptest) over the core invariants the paper's
//! theorems rely on: metric axioms of the edit distance, admissibility of
//! every bound, Lipschitz embedding guarantees, and submodularity of π.

use graphrep::ged::{bipartite, bounds, ged_exact_full, CostModel, GraphProfile};
use graphrep::graph::{Graph, GraphBuilder};
use graphrep::metric::Bitset;
use proptest::prelude::*;

/// Strategy: a small random connected labeled graph.
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

fn d(a: &Graph, b: &Graph) -> f64 {
    ged_exact_full(a, b, &CostModel::uniform(), 3_000_000)
        .expect("budget")
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ged_identity(g in arb_graph(6)) {
        prop_assert_eq!(d(&g, &g), 0.0);
    }

    #[test]
    fn ged_symmetry(a in arb_graph(5), b in arb_graph(6)) {
        prop_assert_eq!(d(&a, &b), d(&b, &a));
    }

    #[test]
    fn ged_triangle_inequality(a in arb_graph(4), b in arb_graph(5), c in arb_graph(4)) {
        let (ab, bc, ac) = (d(&a, &b), d(&b, &c), d(&a, &c));
        prop_assert!(ac <= ab + bc + 1e-9, "{} > {} + {}", ac, ab, bc);
    }

    #[test]
    fn bounds_sandwich_exact(a in arb_graph(5), b in arb_graph(6)) {
        let cost = CostModel::uniform();
        let exact = d(&a, &b);
        let (pa, pb) = (GraphProfile::new(&a), GraphProfile::new(&b));
        let lb = bounds::label_lower_bound_profiled(&pa, &pb, &cost);
        let ub = bipartite::bp_upper_bound(&a, &b, &cost);
        prop_assert!(lb <= exact + 1e-9, "lb {} > exact {}", lb, exact);
        prop_assert!(ub >= exact - 1e-9, "ub {} < exact {}", ub, exact);
    }

    #[test]
    fn within_is_consistent_with_distance(a in arb_graph(5), b in arb_graph(5), tau in 0.0f64..8.0) {
        use graphrep::ged::{GedConfig, GedEngine};
        let e = GedEngine::new(GedConfig::default());
        let exact = e.distance(&a, &b);
        let (pa, pb) = (GraphProfile::new(&a), GraphProfile::new(&b));
        match e.ask(&a, &b, &pa, &pb, tau).exact() {
            Some(v) => {
                prop_assert!((v - exact).abs() < 1e-9);
                prop_assert!(exact <= tau + 1e-9);
            }
            None => prop_assert!(exact > tau - 1e-9),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitset_union_intersection_counts(
        xs in proptest::collection::hash_set(0usize..256, 0..40),
        ys in proptest::collection::hash_set(0usize..256, 0..40),
    ) {
        let a = Bitset::from_indices(256, xs.iter().copied());
        let b = Bitset::from_indices(256, ys.iter().copied());
        let diff = xs.difference(&ys).count();
        prop_assert_eq!(a.difference_count(&b), diff);
        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(u.count(), xs.union(&ys).count());
    }

    #[test]
    fn pi_is_submodular_on_random_cover_instances(
        sets in proptest::collection::vec(
            proptest::collection::hash_set(0usize..60, 0..12), 3..10),
        pick in 0usize..10,
    ) {
        // π(S) = |∪ N(g)| is submodular: adding `o` to a subset gains at
        // least as much as adding it to a superset (Thm 2).
        // S ⊆ T with S = the first half of the sets and T = all of them.
        let o = &sets[pick % sets.len()];
        let half = sets.len() / 2;
        let unite = |range: &[std::collections::HashSet<usize>]| {
            let mut u = std::collections::HashSet::new();
            for s in range {
                u.extend(s.iter().copied());
            }
            u
        };
        let s_u = unite(&sets[..half]);
        let t_u = unite(&sets);
        let gain_s = o.difference(&s_u).count();
        let gain_t = o.difference(&t_u).count();
        prop_assert!(gain_s >= gain_t, "submodularity violated");
    }
}

/// Vantage-table candidate sets are supersets of true θ-neighborhoods on a
/// real edit-distance space (Thm 5), and the Lipschitz bounds sandwich the
/// true distance (Thm 4 / triangle inequality).
#[test]
fn vantage_bounds_hold_on_real_ged_space() {
    use graphrep::datagen::{DatasetKind, DatasetSpec};
    use graphrep::ged::GedConfig;
    use graphrep::metric::VantageTable;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let data = DatasetSpec::new(DatasetKind::DudLike, 60, 601).generate();
    let oracle = data.db.oracle(GedConfig::default());
    let mut rng = SmallRng::seed_from_u64(1);
    let vt = VantageTable::build(oracle.len(), 5, &mut rng, |a, b| oracle.distance(a, b));
    for i in (0..60u32).step_by(9) {
        for j in (0..60u32).step_by(13) {
            let d = oracle.distance(i, j);
            assert!(vt.lower_bound(i, j) <= d + 1e-6);
            assert!(vt.upper_bound(i, j) >= d - 1e-6);
        }
        let theta = data.default_theta;
        let cands = vt.candidates(i, theta);
        for j in 0..60u32 {
            if oracle.within(i, j, theta).is_some() {
                assert!(
                    cands.contains(&j),
                    "true neighbor {j} of {i} missing from N̂"
                );
            }
        }
    }
}

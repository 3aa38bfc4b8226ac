//! Edge cases of the query session: empty/degenerate inputs, θ extremes,
//! repeated runs, and stats sanity.

use graphrep_core::{NbIndex, NbIndexConfig};
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::GedConfig;

fn small_index(seed: u64) -> (graphrep_datagen::Dataset, NbIndex) {
    let data = DatasetSpec::new(DatasetKind::DudLike, 60, seed).generate();
    let oracle = data.db.oracle(GedConfig::default());
    let index = NbIndex::build(
        oracle,
        NbIndexConfig {
            num_vps: 4,
            ladder: data.default_ladder.clone(),
            ..Default::default()
        },
    );
    (data, index)
}

#[test]
fn k_zero_returns_empty() {
    let (data, index) = small_index(801);
    let relevant = data.default_query().relevant_set(&data.db);
    let (answer, _) = index.query(relevant, data.default_theta, 0);
    assert!(answer.is_empty());
    assert_eq!(answer.pi(), 0.0);
}

#[test]
fn empty_relevant_set_returns_empty() {
    let (_, index) = small_index(802);
    let (answer, _) = index.query(vec![], 4.0, 5);
    assert!(answer.is_empty());
    assert_eq!(answer.relevant, 0);
}

#[test]
fn k_exceeding_relevant_set_is_capped() {
    let (data, index) = small_index(803);
    let relevant = data.default_query().relevant_set(&data.db);
    let (answer, _) = index.query(relevant.clone(), data.default_theta, 10_000);
    assert!(answer.len() <= relevant.len());
    // Everything relevant must be covered when the whole set is selected.
    if answer.len() == relevant.len() {
        assert_eq!(answer.covered, relevant.len());
    }
}

#[test]
fn theta_zero_covers_only_duplicates() {
    let (data, index) = small_index(804);
    let relevant = data.default_query().relevant_set(&data.db);
    let k = 3.min(relevant.len());
    let (answer, _) = index.query(relevant.clone(), 0.0, k);
    // Each answer covers at least itself (d = 0 ≤ θ).
    assert!(answer.covered >= answer.len());
}

#[test]
fn huge_theta_covers_everything_with_one_pick() {
    let (data, index) = small_index(805);
    let relevant = data.default_query().relevant_set(&data.db);
    let (answer, _) = index.query(relevant.clone(), 1e6, 1);
    assert_eq!(answer.covered, relevant.len());
    assert!((answer.pi() - 1.0).abs() < 1e-12);
}

#[test]
fn repeated_runs_are_deterministic() {
    let (data, index) = small_index(806);
    let relevant = data.default_query().relevant_set(&data.db);
    let session = index.start_session(relevant);
    let (a, _) = session.run(data.default_theta, 5);
    let (b, _) = session.run(data.default_theta, 5);
    assert_eq!(a.ids, b.ids);
    assert_eq!(a.pi_trajectory, b.pi_trajectory);
}

#[test]
fn stats_fields_are_consistent() {
    let (data, index) = small_index(807);
    let relevant = data.default_query().relevant_set(&data.db);
    let session = index.start_session(relevant);
    let (answer, stats) = session.run(data.default_theta, 4);
    assert!(stats.verified_graphs >= answer.len() as u64);
    assert!(stats.nodes_expanded >= 1);
    assert!(stats.ladder_slot.is_some());
    assert!(stats.wall.as_nanos() > 0);
}

/// The batch update after a pick asks no edit distance. On a cold oracle,
/// a pick `g*` and a tree centroid whose vantage lower bound already
/// exceeds θ are never a candidate pair of a verification (Thm 5), so no
/// run may leave an exact distance for them behind. The tree audit computes
/// centroid distances itself, so the check runs without `invariant-audit`.
#[cfg(not(feature = "invariant-audit"))]
#[test]
fn batch_update_computes_no_centroid_distance() {
    let (data, index) = small_index(809);
    let relevant: Vec<u32> = (0..data.db.len() as u32).collect();
    let (vt, oracle, tree) = (index.vantage(), index.oracle(), index.tree());
    let mut checked = 0;
    for scale in [0.25, 0.5, 0.75] {
        let theta = data.default_theta * scale;
        oracle.clear();
        let (answer, _) = index.query(relevant.clone(), theta, relevant.len());
        for &g in &answer.ids {
            for node in tree.nodes() {
                if vt.lower_bound(g, node.centroid) > theta {
                    checked += 1;
                    assert_eq!(
                        oracle.cached_distance(g, node.centroid),
                        None,
                        "θ = {theta}: pick {g} and centroid {} hold an exact distance",
                        node.centroid
                    );
                }
            }
        }
    }
    assert!(checked >= 100, "only {checked} pairs checked");
}

#[test]
fn single_graph_database() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 1, 808).generate();
    let oracle = data.db.oracle(GedConfig::default());
    let index = NbIndex::build(oracle, NbIndexConfig::default());
    let (answer, _) = index.query(vec![0], 2.0, 3);
    assert_eq!(answer.ids, vec![0]);
    assert_eq!(answer.covered, 1);
}

#[test]
fn all_graphs_identical() {
    use graphrep_core::GraphDatabase;
    use graphrep_graph::{GraphBuilder, LabelInterner};
    let mut b = GraphBuilder::new();
    let a = b.add_node(0);
    let c = b.add_node(1);
    b.add_edge(a, c, 2).unwrap();
    let g = b.build();
    let graphs = vec![g; 20];
    let feats = (0..20).map(|i| vec![i as f64]).collect();
    let db = GraphDatabase::new(graphs, feats, LabelInterner::new());
    let oracle = db.oracle(GedConfig::default());
    let index = NbIndex::build(
        oracle,
        NbIndexConfig {
            num_vps: 3,
            ladder: vec![1.0, 2.0],
            ..Default::default()
        },
    );
    let relevant: Vec<u32> = (0..20).collect();
    let (answer, _) = index.query(relevant, 1.0, 4);
    // One pick covers everything (all distances are zero).
    assert_eq!(answer.pi_trajectory[0], 1.0);
    assert_eq!(answer.covered, 20);
}

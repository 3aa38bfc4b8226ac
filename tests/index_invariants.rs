//! Invariants of the NB-Index internals on real edit-distance spaces:
//! NB-Tree structure, π̂ upper-bound soundness, and exactness of the batch
//! update theorems' preconditions.

use graphrep::core::{NbIndex, NbIndexConfig, PiHatVectors, ThresholdLadder};
use graphrep::datagen::{DatasetKind, DatasetSpec};
use graphrep::ged::GedConfig;
use graphrep::metric::Bitset;

#[test]
fn nbtree_validates_on_all_dataset_kinds() {
    for (kind, seed) in [
        (DatasetKind::DudLike, 701u64),
        (DatasetKind::DblpLike, 702),
        (DatasetKind::AmazonLike, 703),
    ] {
        let data = DatasetSpec::new(kind, 100, seed).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let index = NbIndex::build(
            oracle.clone(),
            NbIndexConfig {
                num_vps: 6,
                ladder: data.default_ladder.clone(),
                ..Default::default()
            },
        );
        index.tree().validate(&oracle).unwrap_or_else(|e| {
            panic!("{}: {e}", kind.name());
        });
    }
}

#[test]
fn node_diameter_bounds_pairwise_member_distances() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 80, 704).generate();
    let oracle = data.db.oracle(GedConfig::default());
    let index = NbIndex::build(
        oracle.clone(),
        NbIndexConfig {
            num_vps: 6,
            ladder: data.default_ladder.clone(),
            ..Default::default()
        },
    );
    let tree = index.tree();
    for node in tree.nodes().iter().skip(1) {
        if node.size() > 12 {
            continue; // keep the quadratic check cheap
        }
        for p in node.start..node.end {
            for q in (p + 1)..node.end {
                let d = oracle.distance(tree.graph_at(p), tree.graph_at(q));
                assert!(
                    d <= node.diameter + 1e-6,
                    "pair within node exceeds diameter bound: {d} > {}",
                    node.diameter
                );
            }
        }
    }
}

#[test]
fn pihat_upper_bounds_true_representative_power() {
    let data = DatasetSpec::new(DatasetKind::DblpLike, 100, 705).generate();
    let oracle = data.db.oracle(GedConfig::default());
    let index = NbIndex::build(
        oracle.clone(),
        NbIndexConfig {
            num_vps: 6,
            ladder: data.default_ladder.clone(),
            ..Default::default()
        },
    );
    let relevant = data.default_query().relevant_set(&data.db);
    let relevant_by_id = Bitset::from_indices(oracle.len(), relevant.iter().map(|&g| g as usize));
    let ladder = ThresholdLadder::new(data.default_ladder.clone());
    let pihat = PiHatVectors::initialize(
        index.vantage(),
        index.tree(),
        &relevant,
        &index.vantage().project(&relevant_by_id),
        &ladder,
    );
    for &g in relevant.iter().step_by(5) {
        let pos = index.tree().pos_of(g);
        for (slot, &theta) in ladder.thetas().iter().enumerate() {
            let true_count = relevant
                .iter()
                .filter(|&&r| oracle.within(g, r, theta).is_some())
                .count() as u32;
            let bound = pihat.graph_count(pos, slot);
            assert!(
                bound >= true_count,
                "π̂ violated for graph {g} at θ={theta}: bound {bound} < true {true_count}"
            );
        }
    }
}

#[test]
fn node_pihat_is_ceiling_of_descendants() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 90, 706).generate();
    let oracle = data.db.oracle(GedConfig::default());
    let index = NbIndex::build(
        oracle,
        NbIndexConfig {
            num_vps: 6,
            ladder: data.default_ladder.clone(),
            ..Default::default()
        },
    );
    let relevant = data.default_query().relevant_set(&data.db);
    let relevant_by_id =
        Bitset::from_indices(index.tree().len(), relevant.iter().map(|&g| g as usize));
    let ladder = ThresholdLadder::new(data.default_ladder.clone());
    let pihat = PiHatVectors::initialize(
        index.vantage(),
        index.tree(),
        &relevant,
        &index.vantage().project(&relevant_by_id),
        &ladder,
    );
    let rel_pos = Bitset::from_indices(
        index.tree().len(),
        relevant.iter().map(|&g| index.tree().pos_of(g) as usize),
    );
    for (ni, node) in index.tree().nodes().iter().enumerate() {
        for slot in 0..ladder.len() {
            let node_bound = pihat.node_count(ni as u32, slot);
            for pos in node.start..node.end {
                if rel_pos.contains(pos as usize) {
                    assert!(
                        pihat.graph_count(pos, slot) <= node_bound,
                        "node {ni} slot {slot}: ceiling property violated"
                    );
                }
            }
        }
    }
}

#[test]
fn session_memory_and_build_stats_populated() {
    let data = DatasetSpec::new(DatasetKind::AmazonLike, 70, 707).generate();
    let oracle = data.db.oracle(GedConfig::default());
    let index = NbIndex::build(
        oracle,
        NbIndexConfig {
            num_vps: 4,
            ladder: data.default_ladder.clone(),
            ..Default::default()
        },
    );
    assert!(index.build_stats().distance_calls > 0);
    assert!(index.memory_bytes() > 0);
    let relevant = data.default_query().relevant_set(&data.db);
    let session = index.start_session(relevant);
    assert!(session.memory_bytes() > 0);
}

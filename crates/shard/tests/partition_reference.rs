//! The partitioner against an exhaustive reference (DESIGN.md §14.1): the
//! naive farthest-point selection plus nearest-center assignment, every
//! graph × center distance computed unbounded by a fresh `GedEngine`, must
//! produce the same centers, members and member-to-center distances — bit
//! for bit — as `partition`'s bounded questions through its oracle.

use graphrep_core::GraphDatabase;
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::{GedConfig, GedEngine};
use graphrep_graph::GraphId;
use graphrep_shard::{partition, PartitionConfig};

/// Centers, members per shard and member-to-center distances per shard.
type Reference = (Vec<GraphId>, Vec<Vec<GraphId>>, Vec<Vec<f64>>);

/// Farthest-point centers (first `seed % n`, then the graph farthest from
/// its nearest chosen center, ties toward the smaller id), then every graph
/// to its nearest center (ties toward the smaller shard index).
fn reference(db: &GraphDatabase, shards: usize, seed: u64) -> Reference {
    let engine = GedEngine::new(GedConfig::default());
    let n = db.len();
    let shards = shards.clamp(1, n);
    // dist[s][g]: exact distance from graph g to center s.
    let mut dist: Vec<Vec<f64>> = Vec::new();
    let mut centers: Vec<GraphId> = Vec::new();
    let mut next = (seed % n as u64) as GraphId;
    loop {
        let c = db.graph(next);
        dist.push(
            (0..n as GraphId)
                .map(|g| engine.distance(db.graph(g), c))
                .collect(),
        );
        centers.push(next);
        if centers.len() == shards {
            break;
        }
        let mut far: Option<(f64, GraphId)> = None;
        for g in (0..n as GraphId).filter(|g| !centers.contains(g)) {
            let d = dist
                .iter()
                .map(|row| row[g as usize])
                .fold(f64::INFINITY, f64::min);
            if far.is_none_or(|(fd, _)| d > fd) {
                far = Some((d, g));
            }
        }
        next = far.expect("an unchosen graph remains").1;
    }
    let mut members = vec![Vec::new(); shards];
    let mut to_center = vec![Vec::new(); shards];
    for g in 0..n {
        let mut best = (f64::INFINITY, 0usize);
        for (s, row) in dist.iter().enumerate() {
            if row[g] < best.0 {
                best = (row[g], s);
            }
        }
        members[best.1].push(g as GraphId);
        to_center[best.1].push(best.0);
    }
    (centers, members, to_center)
}

fn assert_matches_reference(n: usize) {
    for seed in [3u64, 41, 20140622] {
        let db = DatasetSpec::new(DatasetKind::DudLike, n, seed)
            .generate()
            .db;
        for shards in [2, 4, 8] {
            let p = partition(&db, GedConfig::default(), &PartitionConfig { shards, seed });
            let (centers, members, to_center) = reference(&db, shards, seed);
            let at = format!("n = {n}, seed = {seed}, S = {shards}");
            assert_eq!(p.centers, centers, "centers differ at {at}");
            assert_eq!(p.members, members, "members differ at {at}");
            assert_eq!(p.to_center, to_center, "to_center differs at {at}");
        }
    }
}

#[test]
fn partition_matches_exhaustive_reference_at_60() {
    assert_matches_reference(60);
}

#[test]
fn partition_matches_exhaustive_reference_at_160() {
    assert_matches_reference(160);
}

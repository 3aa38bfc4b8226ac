//! Metric-space partitioner: assigns every graph of a database to one of
//! `S` shards by farthest-point clustering — the same pivot heuristic the
//! NB-Tree uses for its top-level split, lifted to the shard level.
//!
//! The partition is deterministic under a seed: the first center is
//! `seed % n`, each further center is the graph maximizing its distance to
//! the nearest chosen center (ties toward the smaller id), and each graph
//! joins its nearest center (ties toward the smaller shard index). The
//! center-to-center distance matrix and each shard's covering radius are
//! retained: together with a candidate's distance to its home center they
//! power the coordinator's cross-shard triangle pruning (DESIGN.md §14).

use graphrep_core::GraphDatabase;
use graphrep_ged::GedConfig;
use graphrep_graph::GraphId;

/// Partitioner parameters.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Requested shard count `S`; clamped to `[1, n]` for a non-empty
    /// database so every shard owns at least its own center.
    pub shards: usize,
    /// Seed selecting the first farthest-point center.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            seed: 0x5eed,
        }
    }
}

/// A computed shard assignment over one database.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Effective shard count after clamping.
    pub shards: usize,
    /// Seed the centers were chosen under.
    pub seed: u64,
    /// Center graph id (in the source database) per shard.
    pub centers: Vec<GraphId>,
    /// Dense `S×S` center-to-center distance matrix, row-major.
    pub center_dist: Vec<f64>,
    /// Member ids per shard, ascending.
    pub members: Vec<Vec<GraphId>>,
    /// Distance of each member to its shard center, parallel to `members`.
    pub to_center: Vec<Vec<f64>>,
    /// Covering radius per shard: `max` of `to_center`.
    pub radius: Vec<f64>,
}

/// Partitions `db` into `cfg.shards` shards. Builds a throwaway global
/// oracle for the O(S·n) center selection, whose bounded questions also
/// yield the assignment; the per-shard oracles built afterwards are
/// independent of it.
pub fn partition(db: &GraphDatabase, ged: GedConfig, cfg: &PartitionConfig) -> Partition {
    let n = db.len();
    let shards = if n == 0 { 1 } else { cfg.shards.clamp(1, n) };
    if n == 0 {
        return Partition {
            shards,
            seed: cfg.seed,
            centers: vec![],
            center_dist: vec![0.0],
            members: vec![vec![]],
            to_center: vec![vec![]],
            radius: vec![0.0],
        };
    }
    let oracle = db.oracle(ged);

    // Farthest-point center selection (ties toward the smaller id). Each
    // new center only asks whether it is nearer than the graph's nearest
    // center so far, so `min_dist` and `nearest` end as the exact
    // nearest-center distance and index (ties toward the smaller shard).
    let mut centers: Vec<GraphId> = vec![(cfg.seed % n as u64) as GraphId];
    let mut min_dist: Vec<f64> = (0..n as GraphId)
        .map(|g| oracle.distance(g, centers[0]))
        .collect();
    let mut nearest: Vec<usize> = vec![0; n];
    while centers.len() < shards {
        let mut far: Option<(f64, GraphId)> = None;
        for g in 0..n as GraphId {
            if centers.contains(&g) {
                continue;
            }
            let d = min_dist[g as usize];
            if far.is_none_or(|(fd, _)| d > fd) {
                far = Some((d, g));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "centers.len() < shards <= n guarantees an unchosen graph exists"
        )]
        let (_, c) = far.expect("farthest-point: no candidate center left");
        let s = centers.len();
        centers.push(c);
        for (g, slot) in min_dist.iter_mut().enumerate() {
            if let Some(d) = oracle.within(g as GraphId, c, *slot) {
                if d < *slot {
                    *slot = d;
                    nearest[g] = s;
                }
            }
        }
    }

    let mut members: Vec<Vec<GraphId>> = vec![Vec::new(); shards];
    let mut to_center: Vec<Vec<f64>> = vec![Vec::new(); shards];
    for (g, (&s, &d)) in nearest.iter().zip(&min_dist).enumerate() {
        members[s].push(g as GraphId);
        to_center[s].push(d);
    }

    let radius = to_center
        .iter()
        .map(|ds| ds.iter().copied().fold(0.0f64, f64::max))
        .collect();
    let mut center_dist = vec![0.0; shards * shards];
    for s in 0..shards {
        for t in 0..shards {
            center_dist[s * shards + t] = oracle.distance(centers[s], centers[t]);
        }
    }
    Partition {
        shards,
        seed: cfg.seed,
        centers,
        center_dist,
        members,
        to_center,
        radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_datagen::{DatasetKind, DatasetSpec};

    fn small_db() -> GraphDatabase {
        DatasetSpec::new(DatasetKind::DudLike, 24, 7).generate().db
    }

    #[test]
    fn partition_is_deterministic_and_total() {
        let db = small_db();
        let cfg = PartitionConfig {
            shards: 4,
            seed: 42,
        };
        let a = partition(&db, GedConfig::default(), &cfg);
        let b = partition(&db, GedConfig::default(), &cfg);
        assert_eq!(a, b);
        let mut all: Vec<GraphId> = a.members.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..db.len() as GraphId).collect::<Vec<_>>());
        for (s, ms) in a.members.iter().enumerate() {
            assert!(ms.contains(&a.centers[s]), "center owns itself");
            assert!(ms.windows(2).all(|w| w[0] < w[1]), "members ascending");
        }
    }

    #[test]
    fn radius_covers_members() {
        let db = small_db();
        let cfg = PartitionConfig { shards: 3, seed: 1 };
        let p = partition(&db, GedConfig::default(), &cfg);
        for s in 0..p.shards {
            for &d in &p.to_center[s] {
                assert!(d <= p.radius[s]);
            }
        }
    }

    #[test]
    fn shard_count_clamps_to_database_size() {
        let db = DatasetSpec::new(DatasetKind::DudLike, 3, 7).generate().db;
        let cfg = PartitionConfig { shards: 8, seed: 0 };
        let p = partition(&db, GedConfig::default(), &cfg);
        assert_eq!(p.shards, 3);
    }
}

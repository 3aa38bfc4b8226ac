//! The precomputed-distance-matrix comparator (paper Fig 5(i) inset,
//! Fig 6(k)): the best possible query time, bought with quadratic
//! construction cost and storage.

use graphrep_ged::DistanceOracle;
use graphrep_graph::GraphId;
use graphrep_metric::DistanceMatrix;
use std::time::{Duration, Instant};

/// A fully materialized pairwise distance matrix.
#[derive(Debug)]
pub struct MatrixIndex {
    matrix: DistanceMatrix,
    /// Wall time spent computing all pairs.
    pub build_wall: Duration,
    /// Distance-engine calls during the build.
    pub build_calls: u64,
}

impl MatrixIndex {
    /// Computes all `n(n−1)/2` pairwise distances.
    pub fn build(oracle: &DistanceOracle) -> Self {
        let t0 = Instant::now();
        let calls0 = oracle.engine_calls();
        let matrix = DistanceMatrix::build(oracle.len(), |a, b| oracle.distance(a, b));
        Self {
            matrix,
            build_wall: t0.elapsed(),
            build_calls: oracle.engine_calls() - calls0,
        }
    }

    /// The matrix.
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.matrix
    }

    /// All graphs within `theta` of `q` (including `q`).
    pub fn range_query(&self, q: GraphId, theta: f64) -> Vec<GraphId> {
        self.matrix.range_query(q, theta)
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.matrix.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_datagen::{DatasetKind, DatasetSpec};
    use graphrep_ged::GedConfig;

    #[test]
    fn matrix_agrees_with_oracle() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 40, 31).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let m = MatrixIndex::build(&oracle);
        for i in (0..40u32).step_by(7) {
            for j in (0..40u32).step_by(11) {
                assert_eq!(m.matrix().get(i, j), oracle.distance(i, j));
            }
        }
        assert_eq!(m.build_calls, 40 * 39 / 2);
    }

    #[test]
    fn range_query_matches_brute_force() {
        let data = DatasetSpec::new(DatasetKind::DblpLike, 30, 32).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let m = MatrixIndex::build(&oracle);
        for q in [0u32, 15, 29] {
            let want: Vec<GraphId> = (0..30).filter(|&j| oracle.ask(q, j, 4.0).0).collect();
            assert_eq!(m.range_query(q, 4.0), want);
        }
    }
}

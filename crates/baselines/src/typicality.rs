//! Top-k typicality (Hua et al., VLDB'07/VLDBJ'09), paper Sec 9.
//!
//! An object is *typical* if it is close to many other objects: typicality
//! is a kernel density estimate over the metric space. The paper contrasts
//! it with representative power — typicality scores are independent, so two
//! highly typical objects from the same cluster can both enter the answer
//! set, which is exactly the redundancy top-k representative queries remove.
//! Included as a comparator to demonstrate that difference empirically.

use graphrep_ged::DistanceOracle;
use graphrep_graph::GraphId;

/// Result of a typicality computation.
#[derive(Debug, Clone, PartialEq)]
pub struct TypicalityResult {
    /// The k most typical graphs, descending by score.
    pub ids: Vec<GraphId>,
    /// Their typicality scores.
    pub scores: Vec<f64>,
}

/// Gaussian-kernel typicality of each graph in `relevant`:
/// `T(o) = (1/|L_q|) Σ_{o'} exp(−d(o,o')² / 2h²)`.
///
/// Quadratic in `|relevant|` — typicality has no neighborhood structure to
/// exploit, which is part of the paper's point.
pub fn typicality_scores(
    oracle: &DistanceOracle,
    relevant: &[GraphId],
    bandwidth: f64,
) -> Vec<f64> {
    assert!(bandwidth > 0.0, "bandwidth must be positive");
    let inv = 1.0 / (2.0 * bandwidth * bandwidth);
    relevant
        .iter()
        .map(|&g| {
            relevant
                .iter()
                .map(|&o| {
                    let d = oracle.distance(g, o);
                    (-d * d * inv).exp()
                })
                .sum::<f64>()
                / relevant.len().max(1) as f64
        })
        .collect()
}

/// The `k` most typical relevant graphs (ties toward smaller ids).
pub fn topk_typicality(
    oracle: &DistanceOracle,
    relevant: &[GraphId],
    bandwidth: f64,
    k: usize,
) -> TypicalityResult {
    let scores = typicality_scores(oracle, relevant, bandwidth);
    let mut order: Vec<usize> = (0..relevant.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .total_cmp(&scores[a])
            .then(relevant[a].cmp(&relevant[b]))
    });
    order.truncate(k);
    TypicalityResult {
        ids: order.iter().map(|&i| relevant[i]).collect(),
        scores: order.iter().map(|&i| scores[i]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_datagen::{DatasetKind, DatasetSpec};
    use graphrep_ged::GedConfig;

    #[test]
    fn cluster_members_are_more_typical_than_outliers() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 100, 61).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let relevant: Vec<GraphId> = (0..100).collect();
        let scores = typicality_scores(&oracle, &relevant, 4.0);
        // The largest family occupies the first slots; the tail is outliers.
        let fam0_avg: f64 = (0..20).map(|i| scores[i]).sum::<f64>() / 20.0;
        let tail_avg: f64 = (90..100).map(|i| scores[i]).sum::<f64>() / 10.0;
        assert!(
            fam0_avg > tail_avg,
            "big-family members should be more typical: {fam0_avg} vs {tail_avg}"
        );
    }

    #[test]
    fn topk_returns_descending_scores() {
        let data = DatasetSpec::new(DatasetKind::DblpLike, 60, 62).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let relevant: Vec<GraphId> = (0..60).collect();
        let r = topk_typicality(&oracle, &relevant, 4.0, 10);
        assert_eq!(r.ids.len(), 10);
        for w in r.scores.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn typicality_answers_are_redundant_vs_greedy() {
        // The paper's argument: typicality picks multiple members of the
        // same dense cluster; the representative greedy does not.
        use graphrep_core::{baseline_greedy, BruteForceProvider};
        let data = DatasetSpec::new(DatasetKind::DudLike, 150, 63).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let relevant: Vec<GraphId> = (0..150).collect();
        let theta = data.default_theta;
        let k = 5;
        let typ = topk_typicality(&oracle, &relevant, theta, k);
        let rep = baseline_greedy(
            &BruteForceProvider::new(&oracle, &relevant),
            &relevant,
            theta,
            k,
        );
        let close_pairs = |ids: &[GraphId]| {
            let mut c = 0;
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    if oracle.ask(a, b, theta).0 {
                        c += 1;
                    }
                }
            }
            c
        };
        assert!(
            close_pairs(&typ.ids) >= close_pairs(&rep.ids),
            "typicality should be at least as redundant as REP"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 5, 64).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let _ = typicality_scores(&oracle, &[0, 1], 0.0);
    }
}

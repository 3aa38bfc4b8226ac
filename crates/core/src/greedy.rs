//! The baseline greedy algorithm (paper Alg. 1).
//!
//! Greedy selection of the graph with the maximum marginal gain in
//! representative power. By submodularity (Thm 2) this approximates the
//! optimal answer set within `1 − 1/e`, and no polynomial algorithm does
//! better unless P = NP. The bottleneck is the θ-neighborhood computation,
//! abstracted behind [`NeighborhoodProvider`] so the experiments can plug in
//! brute force, C-tree, M-tree, a distance matrix — or the NB-Index.

use crate::answer::AnswerSet;
pub use crate::provider::NeighborhoodProvider;
use graphrep_ged::DistanceOracle;
use graphrep_graph::GraphId;
use graphrep_metric::Bitset;

/// Brute-force provider: one θ-membership test per relevant graph, routed
/// through the oracle's tiered [`DistanceOracle::ask`] ladder so
/// cheap bounds answer most tests without an edit-distance computation.
#[derive(Debug)]
pub struct BruteForceProvider<'a> {
    oracle: &'a DistanceOracle,
    relevant: &'a [GraphId],
}

impl<'a> BruteForceProvider<'a> {
    /// Creates a provider over the oracle and the relevant set.
    pub fn new(oracle: &'a DistanceOracle, relevant: &'a [GraphId]) -> Self {
        Self { oracle, relevant }
    }
}

impl NeighborhoodProvider for BruteForceProvider<'_> {
    fn neighborhood(&self, g: GraphId, theta: f64) -> Vec<GraphId> {
        self.relevant
            .iter()
            .copied()
            .filter(|&r| self.oracle.ask(g, r, theta).0)
            .collect()
    }
}

/// Runs Alg. 1: `k` rounds of maximum-marginal-gain selection over the
/// relevant set, with neighborhoods supplied by `provider`.
///
/// Ties break toward the smaller graph id, which makes the output
/// deterministic and lets the NB-Index implementation be checked for exact
/// answer equality. The neighborhood-initialization phase — the quadratic
/// GED-dominated part the paper indexes — fans out across rayon workers; the
/// per-graph neighborhoods are pure and collected in relevant-set order, so
/// the answer is identical at any thread count.
pub fn baseline_greedy(
    provider: &(impl NeighborhoodProvider + Sync),
    relevant: &[GraphId],
    theta: f64,
    k: usize,
) -> AnswerSet {
    use rayon::prelude::*;
    let cap = relevant.iter().copied().max().map_or(0, |m| m as usize + 1);
    // Neighborhood initialization: the quadratic phase the paper indexes.
    let mut neigh: Vec<Bitset> = relevant
        .par_iter()
        .map(|&g| {
            Bitset::from_indices(
                cap,
                provider.neighborhood(g, theta).iter().map(|&n| n as usize),
            )
        })
        .collect();
    let mut in_answer = vec![false; relevant.len()];
    let mut covered = Bitset::new(cap);
    let mut ids = Vec::with_capacity(k.min(relevant.len()));
    let mut pi_trajectory = Vec::with_capacity(k.min(relevant.len()));
    #[cfg(feature = "invariant-audit")]
    let mut prev_gain = usize::MAX;
    for _ in 0..k.min(relevant.len()) {
        // arg max marginal gain; |N(g) \ covered| with N pre-shrunk each round.
        let mut best: Option<(usize, usize)> = None; // (gain, index)
        for (i, n) in neigh.iter().enumerate() {
            if in_answer[i] {
                continue;
            }
            let gain = n.count();
            match best {
                Some((bg, _)) if bg >= gain => {}
                _ => best = Some((gain, i)),
            }
        }
        let Some((gain, bi)) = best else { break };
        #[cfg(feature = "invariant-audit")]
        {
            graphrep_ged::audit_invariant!(
                gain <= prev_gain,
                "submodularity (Thm 2): greedy marginal gain rose from {prev_gain} to {gain}"
            );
            prev_gain = gain;
        }
        if gain == 0 {
            // Nothing left to cover: additional answers cannot raise π and
            // only dilute the compression ratio — stop early.
            break;
        }
        in_answer[bi] = true;
        ids.push(relevant[bi]);
        let chosen = neigh[bi].clone();
        covered.union_with(&chosen);
        // Alg. 1 lines 6–7: N(g) ← N(g) \ N(g*).
        for (i, n) in neigh.iter_mut().enumerate() {
            if !in_answer[i] {
                n.subtract(&chosen);
            }
        }
        pi_trajectory.push(if relevant.is_empty() {
            0.0
        } else {
            covered.count() as f64 / relevant.len() as f64
        });
    }
    AnswerSet {
        ids,
        covered: covered.count(),
        relevant: relevant.len(),
        pi_trajectory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Provider over an abstract 1-D space: item ids are positions.
    struct LineProvider {
        relevant: Vec<GraphId>,
    }

    impl NeighborhoodProvider for LineProvider {
        fn neighborhood(&self, g: GraphId, theta: f64) -> Vec<GraphId> {
            self.relevant
                .iter()
                .copied()
                .filter(|&r| (r as f64 - g as f64).abs() <= theta)
                .collect()
        }
    }

    #[test]
    fn picks_cluster_centers_first() {
        // Cluster at 0..5, outlier at 100.
        let relevant = vec![0, 1, 2, 3, 4, 100];
        let p = LineProvider {
            relevant: relevant.clone(),
        };
        let a = baseline_greedy(&p, &relevant, 2.0, 2);
        // Best first pick covers {0..4} — that's position 2.
        assert_eq!(a.ids[0], 2);
        assert_eq!(a.ids[1], 100);
        assert_eq!(a.covered, 6);
        assert!((a.pi() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_is_monotone_and_matches_pi() {
        let relevant: Vec<GraphId> = (0..30).collect();
        let p = LineProvider {
            relevant: relevant.clone(),
        };
        let a = baseline_greedy(&p, &relevant, 3.0, 5);
        for w in a.pi_trajectory.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((a.pi_trajectory.last().unwrap() - a.pi()).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_relevant_set() {
        let relevant = vec![0, 10];
        let p = LineProvider {
            relevant: relevant.clone(),
        };
        let a = baseline_greedy(&p, &relevant, 1.0, 10);
        assert_eq!(a.len(), 2);
        assert!((a.pi() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_relevant_set() {
        let p = LineProvider { relevant: vec![] };
        let a = baseline_greedy(&p, &[], 1.0, 3);
        assert!(a.is_empty());
        assert_eq!(a.pi(), 0.0);
    }

    #[test]
    fn greedy_respects_marginal_gain_not_raw_power() {
        // Two overlapping dense clusters: after picking the first center,
        // the second pick should be the *other* cluster even though members
        // of the first cluster have higher raw |N|.
        let relevant = vec![0, 1, 2, 3, 4, 5, 20, 21, 22];
        let p = LineProvider {
            relevant: relevant.clone(),
        };
        let a = baseline_greedy(&p, &relevant, 3.0, 2);
        assert!(a.ids[0] <= 5);
        assert!(a.ids[1] >= 20, "second pick must cover the far cluster");
    }

    #[test]
    fn deterministic_tie_break_smallest_id() {
        let relevant = vec![7, 8];
        let p = LineProvider {
            relevant: relevant.clone(),
        };
        let a = baseline_greedy(&p, &relevant, 0.0, 1);
        assert_eq!(a.ids, vec![7]);
    }
}

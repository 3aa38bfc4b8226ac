//! π̂-vectors and the indexed threshold ladder (paper Sec 7, Def 6, Sec 7.1).
//!
//! During a session's initialization phase, every relevant graph gets a
//! vector of upper bounds on its representative power — one per indexed
//! threshold — computed purely from the vantage orderings (Thm 5, no edit
//! distances), scanned over the session's projection of those orderings
//! onto `L_q`. The vectors are propagated up the NB-Tree as ceilings so that
//! any tree node bounds the gain of every graph in its subtree (Eq. 14).
//! Bounds are stored as *relevant-graph counts* (integers), not fractions.

use crate::nbtree::NbTree;
use graphrep_graph::GraphId;
use graphrep_metric::{BandProjection, Bitset, VantageTable};

const EPS: f64 = 1e-6;

/// The sorted set of distance thresholds indexed in π̂-vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdLadder {
    thetas: Vec<f64>,
}

impl ThresholdLadder {
    /// Creates a ladder (sorted, deduplicated, non-negative).
    pub fn new(mut thetas: Vec<f64>) -> Self {
        thetas.retain(|t| t.is_finite() && *t >= 0.0);
        thetas.sort_by(f64::total_cmp);
        thetas.dedup_by(|a, b| (*a - *b).abs() < EPS);
        Self { thetas }
    }

    /// The indexed thresholds, ascending.
    pub fn thetas(&self) -> &[f64] {
        &self.thetas
    }

    /// Number of indexed thresholds.
    pub fn len(&self) -> usize {
        self.thetas.len()
    }

    /// Whether the ladder is empty.
    pub fn is_empty(&self) -> bool {
        self.thetas.is_empty()
    }

    /// Index of the smallest `θ_i ≥ θ` (binary search, Def 6), or `None`
    /// when `θ` exceeds every indexed threshold.
    pub fn slot_for(&self, theta: f64) -> Option<usize> {
        let i = self.thetas.partition_point(|&t| t < theta - EPS);
        (i < self.thetas.len()).then_some(i)
    }
}

/// Per-graph and per-node π̂ counts at every ladder slot, plus static
/// per-node relevant counts.
#[derive(Debug, Clone)]
pub struct PiHatVectors {
    slots: usize,
    /// `graph_counts[pos * slots + i]` — π̂ of the graph at leaf position
    /// `pos` at ladder slot `i` (zero for irrelevant graphs).
    graph_counts: Vec<u32>,
    /// `node_counts[node * slots + i]` — ceiling over the node's relevant
    /// descendants.
    node_counts: Vec<u32>,
    /// Number of relevant graphs in each node's subtree.
    node_rel: Vec<u32>,
}

impl PiHatVectors {
    /// Initialization phase: computes π̂-vectors for every relevant graph
    /// from the vantage orderings and propagates ceilings up the tree.
    ///
    /// `projection` is `vt` projected onto `relevant`, so every band scan
    /// visits relevant rows only and counts are of *relevant* candidates
    /// (Thm 5 applied within `L_q`).
    ///
    /// Runs on the calling thread: a session open touches no edit distance,
    /// so there is nothing here worth a parallel region.
    pub fn initialize(
        vt: &VantageTable,
        tree: &NbTree,
        relevant: &[GraphId],
        projection: &BandProjection,
        ladder: &ThresholdLadder,
    ) -> Self {
        let slots = ladder.len();
        let n = tree.len();
        let mut graph_counts = vec![0u32; n * slots];
        let theta_max = ladder.thetas().last().copied().unwrap_or(0.0);
        let mut cand_buf = Vec::new();
        for &g in relevant {
            vt.candidates_in(projection, g, theta_max, &mut cand_buf);
            let mut band: Vec<f64> = cand_buf.iter().map(|&c| vt.lower_bound(g, c)).collect();
            band.sort_by(f64::total_cmp);
            let pos = tree.pos_of(g) as usize;
            for (slot, &t) in graph_counts[pos * slots..][..slots]
                .iter_mut()
                .zip(ladder.thetas())
            {
                *slot = band.partition_point(|&d| d <= t + EPS) as u32;
            }
        }
        let mut node_counts = vec![0u32; tree.nodes().len() * slots];
        let mut node_rel = vec![0u32; tree.nodes().len()];
        let rel_pos = Bitset::from_indices(n, relevant.iter().map(|&g| tree.pos_of(g) as usize));
        for (ni, node) in tree.nodes().iter().enumerate() {
            node_rel[ni] = rel_pos.count_range(node.start as usize, node.end as usize) as u32;
            for pos in node.start as usize..node.end as usize {
                if !rel_pos.contains(pos) {
                    continue;
                }
                for i in 0..slots {
                    let v = graph_counts[pos * slots + i];
                    let slot = &mut node_counts[ni * slots + i];
                    if v > *slot {
                        *slot = v;
                    }
                }
            }
        }
        let this = Self {
            slots,
            graph_counts,
            node_counts,
            node_rel,
        };
        this.audit(tree, &rel_pos);
        this
    }

    /// Audits the Def 6 / Eq. 14 structure: every π̂ row (graph and node) is
    /// monotone non-decreasing along the ascending threshold ladder, and
    /// every node ceiling dominates the π̂ of each relevant graph in its
    /// subtree. Panics on violation.
    ///
    /// Compiled only under the `invariant-audit` feature; the default build
    /// gets the no-op twin below.
    #[cfg(feature = "invariant-audit")]
    pub fn audit(&self, tree: &NbTree, rel_pos: &Bitset) {
        use graphrep_ged::audit_invariant;
        for pos in 0..tree.len() {
            for i in 1..self.slots {
                let (a, b) = (
                    self.graph_counts[pos * self.slots + i - 1],
                    self.graph_counts[pos * self.slots + i],
                );
                audit_invariant!(
                    a <= b,
                    "π̂ monotonicity: graph at pos {pos} drops from {a} (slot {}) to {b} (slot {i})",
                    i - 1
                );
            }
        }
        for (ni, node) in tree.nodes().iter().enumerate() {
            for i in 0..self.slots {
                if i > 0 {
                    let (a, b) = (
                        self.node_counts[ni * self.slots + i - 1],
                        self.node_counts[ni * self.slots + i],
                    );
                    audit_invariant!(
                        a <= b,
                        "π̂ monotonicity: node {ni} drops from {a} (slot {}) to {b} (slot {i})",
                        i - 1
                    );
                }
                let ceil = self.node_counts[ni * self.slots + i];
                for pos in node.start as usize..node.end as usize {
                    if rel_pos.contains(pos) {
                        let v = self.graph_counts[pos * self.slots + i];
                        audit_invariant!(
                            v <= ceil,
                            "Eq. 14: node {ni} ceiling {ceil} at slot {i} below member π̂ {v} at pos {pos}"
                        );
                    }
                }
            }
        }
    }

    /// No-op twin of the audit hook for builds without `invariant-audit`.
    #[cfg(not(feature = "invariant-audit"))]
    #[inline(always)]
    pub fn audit(&self, _tree: &NbTree, _rel_pos: &Bitset) {}

    /// Test-only corruption hook: overwrites one per-graph π̂ entry so audit
    /// tests can prove the checks are not vacuous. Exists only in audit
    /// builds.
    #[cfg(feature = "invariant-audit")]
    pub fn audit_corrupt_graph_count(&mut self, pos: u32, slot: usize, value: u32) {
        self.graph_counts[pos as usize * self.slots + slot] = value;
    }

    /// Number of ladder slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// π̂ count of the graph at leaf position `pos` at ladder slot `i`.
    pub fn graph_count(&self, pos: u32, slot: usize) -> u32 {
        self.graph_counts[pos as usize * self.slots + slot]
    }

    /// π̂ ceiling of tree node `node` at ladder slot `i`.
    pub fn node_count(&self, node: u32, slot: usize) -> u32 {
        self.node_counts[node as usize * self.slots + slot]
    }

    /// Number of relevant graphs under `node`.
    pub fn node_relevant(&self, node: u32) -> u32 {
        self.node_rel[node as usize]
    }

    /// Approximate heap footprint in bytes (Fig 6(l) accounting).
    pub fn memory_bytes(&self) -> usize {
        (self.graph_counts.len() + self.node_counts.len() + self.node_rel.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_sorts_and_dedupes() {
        let l = ThresholdLadder::new(vec![5.0, 1.0, 5.0, 3.0, -2.0, f64::NAN]);
        assert_eq!(l.thetas(), &[1.0, 3.0, 5.0]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn slot_for_picks_smallest_geq() {
        let l = ThresholdLadder::new(vec![1.0, 3.0, 5.0]);
        assert_eq!(l.slot_for(0.5), Some(0));
        assert_eq!(l.slot_for(1.0), Some(0));
        assert_eq!(l.slot_for(1.1), Some(1));
        assert_eq!(l.slot_for(3.0), Some(1));
        assert_eq!(l.slot_for(5.0), Some(2));
        assert_eq!(l.slot_for(5.1), None);
    }
}

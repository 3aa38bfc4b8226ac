//! A metric tree with routing objects and covering radii.
//!
//! This is the index DisC adapts [Zezula et al., "Similarity Search: The
//! Metric Space Approach"]. Bulk-loaded top-down: a node holds a routing
//! object and a covering radius; range queries prune subtrees whose routing
//! ball cannot intersect the query ball (triangle inequality). Unlike the
//! NB-Index it indexes *nearest-neighbor* structure only — no vantage
//! orderings, no θ-neighborhood bounds — which is exactly the gap the paper
//! demonstrates.

use graphrep_ged::{inside, DistanceOracle};
use graphrep_graph::GraphId;
use rand::seq::SliceRandom;
use rand::Rng;

#[derive(Debug)]
struct Node {
    routing: GraphId,
    radius: f64,
    children: Vec<u32>,
    /// Leaf entries (bottom nodes only).
    entries: Vec<GraphId>,
}

/// Bulk-loaded metric tree over all graphs of an oracle.
#[derive(Debug)]
pub struct MTree {
    nodes: Vec<Node>,
    len: usize,
}

/// Fan-out / leaf capacity.
const BRANCHING: usize = 8;

impl MTree {
    /// Builds the tree over every graph the oracle holds.
    pub fn build<R: Rng + ?Sized>(oracle: &DistanceOracle, rng: &mut R) -> Self {
        let ids: Vec<GraphId> = (0..oracle.len() as GraphId).collect();
        let mut t = MTree {
            nodes: Vec::new(),
            len: ids.len(),
        };
        if !ids.is_empty() {
            let routing = ids[rng.gen_range(0..ids.len())];
            let dists: Vec<f64> = ids.iter().map(|&g| oracle.distance(routing, g)).collect();
            t.build_node(oracle, routing, ids, dists, rng);
        }
        t
    }

    fn build_node<R: Rng + ?Sized>(
        &mut self,
        oracle: &DistanceOracle,
        routing: GraphId,
        members: Vec<GraphId>,
        routing_dists: Vec<f64>,
        rng: &mut R,
    ) -> u32 {
        let radius = routing_dists.iter().copied().fold(0.0, f64::max);
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            routing,
            radius,
            children: vec![],
            entries: vec![],
        });
        if members.len() <= BRANCHING {
            self.nodes[idx as usize].entries = members;
            return idx;
        }
        // Pick sub-routing objects at random (classic M-tree split policy
        // approximated for bulk load) and assign members to the closest.
        let mut pivots: Vec<GraphId> = members.clone();
        pivots.shuffle(rng);
        pivots.truncate(BRANCHING);
        let mut parts: Vec<(Vec<GraphId>, Vec<f64>)> = vec![(vec![], vec![]); pivots.len()];
        for &g in &members {
            let (mut best, mut best_i) = (f64::INFINITY, 0);
            for (i, &p) in pivots.iter().enumerate() {
                let d = oracle.distance(g, p);
                if d < best {
                    best = d;
                    best_i = i;
                }
            }
            parts[best_i].0.push(g);
            parts[best_i].1.push(best);
        }
        if parts.iter().filter(|p| !p.0.is_empty()).count() <= 1 {
            self.nodes[idx as usize].entries = members;
            return idx;
        }
        let mut children = Vec::new();
        for (i, (part, dists)) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            children.push(self.build_node(oracle, pivots[i], part, dists, rng));
        }
        self.nodes[idx as usize].children = children;
        idx
    }

    /// Number of indexed graphs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All graphs within `theta` of `q` (including `q` itself).
    pub fn range_query(&self, oracle: &DistanceOracle, q: GraphId, theta: f64) -> Vec<GraphId> {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        let mut stack = vec![0u32];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni as usize];
            let d = oracle.distance(q, node.routing);
            if !inside(d - node.radius, theta) {
                continue; // the query ball misses the covering ball
            }
            for &e in &node.entries {
                if oracle.ask(q, e, theta).0 {
                    out.push(e);
                }
            }
            stack.extend(&node.children);
        }
        out.sort_unstable();
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| std::mem::size_of::<Node>() + (n.children.len() + n.entries.len()) * 4)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_datagen::{DatasetKind, DatasetSpec};
    use graphrep_ged::GedConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn range_query_matches_brute_force() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 80, 11).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let mut rng = SmallRng::seed_from_u64(1);
        let tree = MTree::build(&oracle, &mut rng);
        assert_eq!(tree.len(), 80);
        for q in [0u32, 7, 33, 79] {
            let got = tree.range_query(&oracle, q, 4.0);
            let want: Vec<GraphId> = (0..80).filter(|&j| oracle.ask(q, j, 4.0).0).collect();
            assert_eq!(got, want, "q={q}");
        }
    }

    #[test]
    fn empty_tree() {
        let db = graphrep_core::GraphDatabase::new(vec![], vec![], Default::default());
        let oracle = db.oracle(GedConfig::default());
        let mut rng = SmallRng::seed_from_u64(2);
        let tree = MTree::build(&oracle, &mut rng);
        assert!(tree.is_empty());
        assert!(tree.range_query(&oracle, 0, 5.0).is_empty());
    }

    #[test]
    fn pruning_reduces_leaf_checks() {
        let data = DatasetSpec::new(DatasetKind::AmazonLike, 60, 12).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let tree = MTree::build(&oracle, &mut rng);
        oracle.reset_stats();
        let _ = tree.range_query(&oracle, 0, 2.0);
        // At a tight radius the covering-radius test must prune some leaves:
        // fewer within-calls than graphs.
        let s = oracle.stats();
        assert!(
            s.distance_computations + s.within_rejections + s.cache_hits > 0,
            "query should consult the oracle"
        );
    }
}

//! A closure-tree-style graph index (He & Singh, ICDE'06).
//!
//! The closure tree clusters graphs hierarchically; each node keeps a
//! *closure* — a structural summary that upper-bounds every member — from
//! which a cheap lower bound on the edit distance between a query graph and
//! any member follows. Our closure keeps per-label maximum node/edge counts
//! and size ranges (a simplification of the original's closure graph; see
//! DESIGN.md §3), which preserves the index's role in the evaluation: prune
//! by lower bound, verify by exact distance.

use graphrep_ged::{inside, CostModel, DistanceOracle};
use graphrep_graph::{Graph, GraphId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Structural summary upper-bounding a set of graphs.
#[derive(Debug, Clone, Default)]
struct Closure {
    /// Max count per node label over members.
    node_label_max: HashMap<u32, u32>,
    /// Max count per edge label over members.
    edge_label_max: HashMap<u32, u32>,
    min_nodes: usize,
    max_nodes: usize,
    min_edges: usize,
    max_edges: usize,
}

impl Closure {
    fn of(graphs: &[&Graph]) -> Self {
        let mut c = Closure {
            min_nodes: usize::MAX,
            min_edges: usize::MAX,
            ..Default::default()
        };
        for g in graphs {
            let mut nl: HashMap<u32, u32> = HashMap::new();
            for &l in g.node_labels() {
                *nl.entry(l).or_default() += 1;
            }
            for (l, cnt) in nl {
                let e = c.node_label_max.entry(l).or_default();
                *e = (*e).max(cnt);
            }
            let mut el: HashMap<u32, u32> = HashMap::new();
            for e in g.edges() {
                *el.entry(e.label).or_default() += 1;
            }
            for (l, cnt) in el {
                let e = c.edge_label_max.entry(l).or_default();
                *e = (*e).max(cnt);
            }
            c.min_nodes = c.min_nodes.min(g.node_count());
            c.max_nodes = c.max_nodes.max(g.node_count());
            c.min_edges = c.min_edges.min(g.edge_count());
            c.max_edges = c.max_edges.max(g.edge_count());
        }
        if c.min_nodes == usize::MAX {
            c.min_nodes = 0;
            c.min_edges = 0;
        }
        c
    }

    /// Lower bound on `d(q, g)` for every member `g` of the closure.
    ///
    /// Sound because (a) every query node whose label exceeds the closure's
    /// per-label capacity must be relabeled or deleted (≥ min(sub, indel)
    /// each), likewise for edges, and (b) node/edge count differences cost
    /// at least one indel each. The max of sound bounds is sound.
    fn lower_bound(&self, q: &Graph, cost: &CostModel) -> f64 {
        let mut node_deficit = 0u32;
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for &l in q.node_labels() {
            *counts.entry(l).or_default() += 1;
        }
        for (l, cnt) in counts {
            let cap = self.node_label_max.get(&l).copied().unwrap_or(0);
            node_deficit += cnt.saturating_sub(cap);
        }
        let mut edge_deficit = 0u32;
        let mut ecounts: HashMap<u32, u32> = HashMap::new();
        for e in q.edges() {
            *ecounts.entry(e.label).or_default() += 1;
        }
        for (l, cnt) in ecounts {
            let cap = self.edge_label_max.get(&l).copied().unwrap_or(0);
            edge_deficit += cnt.saturating_sub(cap);
        }
        let label_lb = node_deficit as f64 * cost.node_sub.min(cost.node_indel)
            + edge_deficit as f64 * cost.edge_sub.min(cost.edge_indel);
        let size_node = if q.node_count() > self.max_nodes {
            (q.node_count() - self.max_nodes) as f64
        } else if q.node_count() < self.min_nodes {
            (self.min_nodes - q.node_count()) as f64
        } else {
            0.0
        };
        let size_edge = if q.edge_count() > self.max_edges {
            (q.edge_count() - self.max_edges) as f64
        } else if q.edge_count() < self.min_edges {
            (self.min_edges - q.edge_count()) as f64
        } else {
            0.0
        };
        let size_lb = size_node * cost.node_indel + size_edge * cost.edge_indel;
        label_lb.max(size_lb)
    }
}

#[derive(Debug)]
struct Node {
    closure: Closure,
    children: Vec<u32>,
    entries: Vec<GraphId>,
}

/// The closure tree.
#[derive(Debug)]
pub struct CTree {
    nodes: Vec<Node>,
    len: usize,
}

const BRANCHING: usize = 8;

impl CTree {
    /// Builds the tree over every graph the oracle holds, clustering by
    /// exact distance to randomly chosen pivots.
    pub fn build<R: Rng + ?Sized>(oracle: &DistanceOracle, rng: &mut R) -> Self {
        let ids: Vec<GraphId> = (0..oracle.len() as GraphId).collect();
        let mut t = CTree {
            nodes: Vec::new(),
            len: ids.len(),
        };
        if !ids.is_empty() {
            t.build_node(oracle, ids, rng);
        }
        t
    }

    fn build_node<R: Rng + ?Sized>(
        &mut self,
        oracle: &DistanceOracle,
        members: Vec<GraphId>,
        rng: &mut R,
    ) -> u32 {
        let graphs: Vec<&Graph> = members
            .iter()
            .map(|&g| &oracle.graphs()[g as usize])
            .collect();
        let closure = Closure::of(&graphs);
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            closure,
            children: vec![],
            entries: vec![],
        });
        if members.len() <= BRANCHING {
            self.nodes[idx as usize].entries = members;
            return idx;
        }
        let mut pivots: Vec<GraphId> = members.clone();
        pivots.shuffle(rng);
        pivots.truncate(BRANCHING);
        let mut parts: Vec<Vec<GraphId>> = vec![vec![]; pivots.len()];
        for &g in &members {
            let mut best = f64::INFINITY;
            let mut best_i = 0;
            for (i, &p) in pivots.iter().enumerate() {
                let d = oracle.distance(g, p);
                if d < best {
                    best = d;
                    best_i = i;
                }
            }
            parts[best_i].push(g);
        }
        if parts.iter().filter(|p| !p.is_empty()).count() <= 1 {
            self.nodes[idx as usize].entries = members;
            return idx;
        }
        let mut children = Vec::new();
        for part in parts {
            if part.is_empty() {
                continue;
            }
            children.push(self.build_node(oracle, part, rng));
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
        let cost = graphrep_ged::CostModel::uniform();
        let qg = &oracle.graphs()[q as usize];
        let mut stack = vec![0u32];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni as usize];
            if !inside(node.closure.lower_bound(qg, &cost), theta) {
                continue;
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
            .map(|n| {
                std::mem::size_of::<Node>()
                    + (n.children.len() + n.entries.len()) * 4
                    + (n.closure.node_label_max.len() + n.closure.edge_label_max.len()) * 8
            })
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
    fn closure_lower_bound_is_admissible() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 30, 21).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let cost = CostModel::uniform();
        let members: Vec<&Graph> = (0..10).map(|i| &oracle.graphs()[i]).collect();
        let closure = Closure::of(&members);
        for q in 10..30u32 {
            let lb = closure.lower_bound(&oracle.graphs()[q as usize], &cost);
            for m in 0..10u32 {
                let d = oracle.distance(q, m);
                assert!(lb <= d + 1e-9, "lb {lb} > d({q},{m}) = {d}");
            }
        }
    }

    #[test]
    fn closure_of_member_is_zero_bound() {
        let data = DatasetSpec::new(DatasetKind::DblpLike, 10, 22).generate();
        let g = &data.db.graphs()[0];
        let closure = Closure::of(&[g]);
        assert_eq!(closure.lower_bound(g, &CostModel::uniform()), 0.0);
    }

    #[test]
    fn range_query_matches_brute_force() {
        let data = DatasetSpec::new(DatasetKind::DblpLike, 70, 23).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let mut rng = SmallRng::seed_from_u64(5);
        let tree = CTree::build(&oracle, &mut rng);
        for q in [0u32, 13, 44, 69] {
            let got = tree.range_query(&oracle, q, 4.0);
            let want: Vec<GraphId> = (0..70).filter(|&j| oracle.ask(q, j, 4.0).0).collect();
            assert_eq!(got, want, "q={q}");
        }
    }

    #[test]
    fn empty_tree() {
        let db = graphrep_core::GraphDatabase::new(vec![], vec![], Default::default());
        let oracle = db.oracle(GedConfig::default());
        let mut rng = SmallRng::seed_from_u64(6);
        let tree = CTree::build(&oracle, &mut rng);
        assert!(tree.is_empty());
        assert!(tree.range_query(&oracle, 0, 3.0).is_empty());
    }
}

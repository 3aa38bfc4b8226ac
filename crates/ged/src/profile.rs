//! Per-graph profiles: precomputed sorted invariants for the cheap bound
//! tiers.
//!
//! Sorting a graph's label multisets on every bound evaluation would
//! dominate the cost of the filter tiers once the NP-hard verifier is mostly
//! avoided. A [`GraphProfile`] is computed once per graph when the
//! [`crate::DistanceOracle`] is created (or once per probe graph); the
//! `*_profiled` bounds and [`crate::GedEngine::ask`] then reduce to O(n)
//! merges over the cached arrays.

use graphrep_graph::Graph;

/// Sorted structural invariants of one graph, computed once and reused by
/// every bound evaluation involving the graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphProfile {
    /// Node labels, sorted ascending (a multiset).
    pub node_labels: Vec<u32>,
    /// Edge labels, sorted ascending (a multiset).
    pub edge_labels: Vec<u32>,
    /// Node degrees, sorted ascending.
    pub degrees: Vec<u32>,
    /// Number of nodes.
    pub node_count: usize,
    /// Number of edges.
    pub edge_count: usize,
}

impl GraphProfile {
    /// Builds the profile of `g`.
    pub fn new(g: &Graph) -> Self {
        let node_labels = g.sorted_node_labels();
        let edge_labels = g.sorted_edge_labels();
        let mut degrees: Vec<u32> = (0..g.node_count())
            .map(|u| g.degree(u as graphrep_graph::NodeId) as u32)
            .collect();
        degrees.sort_unstable();
        Self {
            node_labels,
            edge_labels,
            degrees,
            node_count: g.node_count(),
            edge_count: g.edge_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_graph::GraphBuilder;

    #[test]
    fn profile_matches_graph_invariants() {
        let mut b = GraphBuilder::new();
        b.add_node(5);
        b.add_node(3);
        b.add_node(3);
        b.add_edge(0, 1, 9).unwrap();
        b.add_edge(1, 2, 7).unwrap();
        let g = b.build();
        let p = GraphProfile::new(&g);
        assert_eq!(p.node_labels, vec![3, 3, 5]);
        assert_eq!(p.edge_labels, vec![7, 9]);
        assert_eq!(p.degrees, vec![1, 1, 2]);
        assert_eq!(p.node_count, 3);
        assert_eq!(p.edge_count, 2);
    }

    #[test]
    fn empty_graph_profile() {
        let p = GraphProfile::new(&GraphBuilder::new().build());
        assert!(p.node_labels.is_empty());
        assert!(p.degrees.is_empty());
        assert_eq!(p.node_count, 0);
        assert_eq!(p.edge_count, 0);
    }
}

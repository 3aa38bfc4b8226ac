//! Structural statistics over graph collections (paper Table 3).

use crate::graph::Graph;

/// Summary statistics of a graph database.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of graphs.
    pub graphs: usize,
    /// Mean node count.
    pub avg_nodes: f64,
    /// Mean edge count.
    pub avg_edges: f64,
    /// Largest node count.
    pub max_nodes: usize,
    /// Largest edge count.
    pub max_edges: usize,
    /// Number of distinct node labels observed.
    pub node_label_count: usize,
    /// Number of distinct edge labels observed.
    pub edge_label_count: usize,
}

impl DatasetStats {
    /// Computes statistics over `graphs`.
    pub fn compute(graphs: &[Graph]) -> Self {
        let n = graphs.len();
        let mut nodes = 0usize;
        let mut edges = 0usize;
        let mut max_nodes = 0usize;
        let mut max_edges = 0usize;
        let mut node_labels = std::collections::HashSet::new();
        let mut edge_labels = std::collections::HashSet::new();
        for g in graphs {
            nodes += g.node_count();
            edges += g.edge_count();
            max_nodes = max_nodes.max(g.node_count());
            max_edges = max_edges.max(g.edge_count());
            node_labels.extend(g.node_labels().iter().copied());
            edge_labels.extend(g.edges().iter().map(|e| e.label));
        }
        let denom = n.max(1) as f64;
        Self {
            graphs: n,
            avg_nodes: nodes as f64 / denom,
            avg_edges: edges as f64 / denom,
            max_nodes,
            max_edges,
            node_label_count: node_labels.len(),
            edge_label_count: edge_labels.len(),
        }
    }
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} graphs, avg nodes {:.1}, avg edges {:.1}, {} node labels, {} edge labels",
            self.graphs,
            self.avg_nodes,
            self.avg_edges,
            self.node_label_count,
            self.edge_label_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn g(nodes: &[u32], edges: &[(u16, u16, u32)]) -> Graph {
        let mut b = GraphBuilder::new();
        for &l in nodes {
            b.add_node(l);
        }
        for &(u, v, l) in edges {
            b.add_edge(u, v, l).unwrap();
        }
        b.build()
    }

    #[test]
    fn empty_database() {
        let s = DatasetStats::compute(&[]);
        assert_eq!(s.graphs, 0);
        assert_eq!(s.avg_nodes, 0.0);
    }

    #[test]
    fn averages_and_labels() {
        let a = g(&[0, 1], &[(0, 1, 9)]);
        let b = g(&[0, 0, 2, 3], &[(0, 1, 9), (1, 2, 8), (2, 3, 9)]);
        let s = DatasetStats::compute(&[a, b]);
        assert_eq!(s.graphs, 2);
        assert!((s.avg_nodes - 3.0).abs() < 1e-12);
        assert!((s.avg_edges - 2.0).abs() < 1e-12);
        assert_eq!(s.max_nodes, 4);
        assert_eq!(s.max_edges, 3);
        assert_eq!(s.node_label_count, 4); // {0,1,2,3}
        assert_eq!(s.edge_label_count, 2); // {8,9}
        assert!(s.to_string().contains("2 graphs"));
    }
}

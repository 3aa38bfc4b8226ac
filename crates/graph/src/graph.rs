//! The immutable labeled graph.

use crate::labels::Label;
use std::sync::Arc;

/// Index of a graph within a database.
pub type GraphId = u32;

/// Index of a node within one graph.
pub type NodeId = u16;

/// A reference to one undirected edge: `(u, v, label)` with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// Interned edge label.
    pub label: Label,
}

/// An immutable undirected graph with labeled vertices and edges.
///
/// A `Graph` is a shared handle: `clone` copies one pointer, so a database
/// generation, its oracle and every successor generation hold the same rows.
///
/// Invariants (enforced by [`crate::GraphBuilder`]):
/// * no self loops, no parallel edges;
/// * edges are stored with `u < v` and sorted lexicographically;
/// * per-node neighbor lists are sorted by neighbor id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph(Arc<Parts>);

/// The storage behind a [`Graph`] handle.
#[derive(Debug, PartialEq, Eq)]
struct Parts {
    node_labels: Vec<Label>,
    edges: Vec<EdgeRef>,
    /// CSR-style adjacency: `adj[adj_off[u]..adj_off[u+1]]` are `(neighbor, edge label)`.
    adj_off: Vec<u32>,
    adj: Vec<(NodeId, Label)>,
}

impl Graph {
    /// Builds a graph from parts. Callers must uphold the invariants above;
    /// [`crate::GraphBuilder`] is the safe front door.
    pub(crate) fn from_parts(node_labels: Vec<Label>, mut edges: Vec<EdgeRef>) -> Self {
        edges.sort_unstable_by_key(|e| (e.u, e.v));
        let n = node_labels.len();
        let mut deg = vec![0u32; n + 1];
        for e in &edges {
            deg[e.u as usize + 1] += 1;
            deg[e.v as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let adj_off = deg.clone();
        let mut cursor = deg;
        let mut adj = vec![(0 as NodeId, 0 as Label); edges.len() * 2];
        for e in &edges {
            adj[cursor[e.u as usize] as usize] = (e.v, e.label);
            cursor[e.u as usize] += 1;
            adj[cursor[e.v as usize] as usize] = (e.u, e.label);
            cursor[e.v as usize] += 1;
        }
        for u in 0..n {
            adj[adj_off[u] as usize..adj_off[u + 1] as usize].sort_unstable();
        }
        Self(Arc::new(Parts {
            node_labels,
            edges,
            adj_off,
            adj,
        }))
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.0.node_labels.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.0.edges.len()
    }

    /// Label of node `u`.
    #[inline]
    pub fn node_label(&self, u: NodeId) -> Label {
        self.0.node_labels[u as usize]
    }

    /// All node labels, indexed by node id.
    #[inline]
    pub fn node_labels(&self) -> &[Label] {
        &self.0.node_labels
    }

    /// All edges, sorted by `(u, v)` with `u < v`.
    #[inline]
    pub fn edges(&self) -> &[EdgeRef] {
        &self.0.edges
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        (self.0.adj_off[u + 1] - self.0.adj_off[u]) as usize
    }

    /// Sorted `(neighbor, edge label)` pairs of node `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, Label)] {
        let u = u as usize;
        &self.0.adj[self.0.adj_off[u] as usize..self.0.adj_off[u + 1] as usize]
    }

    /// Label of the edge `{u, v}` if present.
    pub fn edge_label(&self, u: NodeId, v: NodeId) -> Option<Label> {
        let nbrs = self.neighbors(u);
        nbrs.binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| nbrs[i].1)
    }

    /// Whether `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_label(u, v).is_some()
    }

    /// Iterates node ids `0..n`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.0.node_labels.len() as NodeId).map(|u| u as NodeId)
    }

    /// Multiset of node labels as a sorted vector (used by distance bounds).
    pub fn sorted_node_labels(&self) -> Vec<Label> {
        let mut v = self.0.node_labels.clone();
        v.sort_unstable();
        v
    }

    /// Multiset of edge labels as a sorted vector (used by distance bounds).
    pub fn sorted_edge_labels(&self) -> Vec<Label> {
        let mut v: Vec<Label> = self.0.edges.iter().map(|e| e.label).collect();
        v.sort_unstable();
        v
    }

    /// Whether the graph is connected (true for the empty graph).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut cnt = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    cnt += 1;
                    stack.push(v);
                }
            }
        }
        cnt == n
    }

    /// Approximate heap footprint in bytes (used by the Fig 6(l) experiment).
    pub fn memory_bytes(&self) -> usize {
        self.0.node_labels.len() * std::mem::size_of::<Label>()
            + self.0.edges.len() * std::mem::size_of::<EdgeRef>()
            + self.0.adj_off.len() * std::mem::size_of::<u32>()
            + self.0.adj.len() * std::mem::size_of::<(NodeId, Label)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0);
        let c = b.add_node(1);
        let d = b.add_node(2);
        b.add_edge(a, c, 7).unwrap();
        b.add_edge(c, d, 8).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_labels() {
        let g = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_label(1), 1);
        assert_eq!(g.node_labels(), &[0, 1, 2]);
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = path3();
        assert_eq!(g.neighbors(1), &[(0, 7), (2, 8)]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_label(2, 1), Some(8));
    }

    #[test]
    fn connectivity() {
        let g = path3();
        assert!(g.is_connected());
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_node(0);
        assert!(!b.build().is_connected());
        assert!(GraphBuilder::new().build().is_connected());
    }

    #[test]
    fn sorted_label_multisets() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(5);
        let n1 = b.add_node(3);
        let n2 = b.add_node(5);
        b.add_edge(n0, n1, 9).unwrap();
        b.add_edge(n1, n2, 2).unwrap();
        let g = b.build();
        assert_eq!(g.sorted_node_labels(), vec![3, 5, 5]);
        assert_eq!(g.sorted_edge_labels(), vec![2, 9]);
    }

    #[test]
    fn memory_bytes_positive() {
        assert!(path3().memory_bytes() > 0);
    }
}

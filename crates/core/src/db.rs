//! The graph database: graphs plus per-graph feature vectors.

use graphrep_ged::{DistanceOracle, GedConfig, GedEngine};
use graphrep_graph::{Graph, GraphId, LabelInterner};
use std::sync::Arc;

/// A graph database `D = {g_1, …, g_n}` where every graph `g_i` carries a
/// feature vector characterizing its properties (paper Sec 2, Table 1).
#[derive(Debug, Clone)]
pub struct GraphDatabase {
    graphs: Arc<Vec<Graph>>,
    features: Arc<Vec<Vec<f64>>>,
    labels: Arc<LabelInterner>,
}

impl GraphDatabase {
    /// Assembles a database. `features[i]` belongs to `graphs[i]`; all
    /// feature vectors must have the same dimensionality.
    pub fn new(graphs: Vec<Graph>, features: Vec<Vec<f64>>, labels: LabelInterner) -> Self {
        assert_eq!(graphs.len(), features.len(), "one feature vector per graph");
        if let Some(first) = features.first() {
            let d = first.len();
            assert!(
                features.iter().all(|f| f.len() == d),
                "feature vectors must share one dimensionality"
            );
        }
        Self {
            graphs: Arc::new(graphs),
            features: Arc::new(features),
            labels: Arc::new(labels),
        }
    }

    /// Number of graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Feature dimensionality (`0` for an empty database).
    pub fn dims(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// The graphs.
    pub fn graphs(&self) -> &[Graph] {
        &self.graphs
    }

    /// Shared handle to the graphs (for building a [`DistanceOracle`]).
    pub fn graphs_arc(&self) -> Arc<Vec<Graph>> {
        Arc::clone(&self.graphs)
    }

    /// Graph `id`.
    pub fn graph(&self, id: GraphId) -> &Graph {
        &self.graphs[id as usize]
    }

    /// Feature vector of graph `id`.
    pub fn features(&self, id: GraphId) -> &[f64] {
        &self.features[id as usize]
    }

    /// All feature vectors.
    pub fn all_features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// The label interner.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Builds a caching distance oracle over this database.
    pub fn oracle(&self, config: GedConfig) -> Arc<DistanceOracle> {
        Arc::new(DistanceOracle::new(
            self.graphs_arc(),
            GedEngine::new(config),
        ))
    }

    /// Restricts the database to the graphs at `ids` (in order), rebasing ids
    /// to `0..ids.len()`. Used for dataset-size sweeps in the experiments.
    pub fn subset(&self, ids: &[GraphId]) -> GraphDatabase {
        let graphs = ids
            .iter()
            .map(|&i| self.graphs[i as usize].clone())
            .collect();
        let features = ids
            .iter()
            .map(|&i| self.features[i as usize].clone())
            .collect();
        GraphDatabase::new(graphs, features, (*self.labels).clone())
    }

    /// The first `n` graphs as a new database.
    pub fn prefix(&self, n: usize) -> GraphDatabase {
        let ids: Vec<GraphId> = (0..n.min(self.len()) as GraphId).collect();
        self.subset(&ids)
    }

    /// A new database with `graph` and its `features` appended as the next
    /// id. Existing ids are unchanged and existing graphs are shared (a
    /// [`Graph`] is a handle) — the dynamic-maintenance counterpart of
    /// [`DistanceOracle::extended`].
    ///
    /// # Panics
    /// If `features` does not match the database's dimensionality.
    pub fn pushed(&self, graph: Graph, features: Vec<f64>) -> GraphDatabase {
        assert!(
            self.is_empty() || features.len() == self.dims(),
            "feature vectors must share one dimensionality"
        );
        let mut graphs = self.graphs.as_ref().clone();
        graphs.push(graph);
        let mut feats = self.features.as_ref().clone();
        feats.push(features);
        GraphDatabase {
            graphs: Arc::new(graphs),
            features: Arc::new(feats),
            labels: Arc::clone(&self.labels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_graph::GraphBuilder;

    fn tiny_db() -> GraphDatabase {
        let mut labels = LabelInterner::new();
        let c = labels.intern("C");
        let graphs: Vec<Graph> = (0..4)
            .map(|i| {
                let mut b = GraphBuilder::new();
                for _ in 0..=i {
                    b.add_node(c);
                }
                for j in 0..i {
                    b.add_edge(j as u16, j as u16 + 1, c).unwrap();
                }
                b.build()
            })
            .collect();
        let features = (0..4).map(|i| vec![i as f64, 1.0]).collect();
        GraphDatabase::new(graphs, features, labels)
    }

    #[test]
    fn accessors() {
        let db = tiny_db();
        assert_eq!(db.len(), 4);
        assert_eq!(db.dims(), 2);
        assert_eq!(db.graph(2).node_count(), 3);
        assert_eq!(db.features(3), &[3.0, 1.0]);
        assert_eq!(db.labels().len(), 1);
    }

    #[test]
    #[should_panic(expected = "one feature vector per graph")]
    fn mismatched_lengths_panic() {
        let db = tiny_db();
        GraphDatabase::new(db.graphs().to_vec(), vec![vec![1.0]], LabelInterner::new());
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn mismatched_dims_panic() {
        let db = tiny_db();
        let mut feats: Vec<Vec<f64>> = db.all_features().to_vec();
        feats[1] = vec![1.0];
        GraphDatabase::new(db.graphs().to_vec(), feats, LabelInterner::new());
    }

    #[test]
    fn subset_rebases() {
        let db = tiny_db();
        let sub = db.subset(&[3, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.graph(0).node_count(), 4);
        assert_eq!(sub.features(1), &[1.0, 1.0]);
    }

    #[test]
    fn prefix_truncates() {
        let db = tiny_db();
        assert_eq!(db.prefix(2).len(), 2);
        assert_eq!(db.prefix(99).len(), 4);
    }

    #[test]
    fn pushed_appends_without_touching_original() {
        let db = tiny_db();
        let g = db.graph(0).clone();
        let db2 = db.pushed(g, vec![9.0, 9.0]);
        assert_eq!(db2.len(), 5);
        assert_eq!(db.len(), 4);
        assert_eq!(db2.features(4), &[9.0, 9.0]);
        assert_eq!(db2.features(1), db.features(1));
        for i in 0..db.len() {
            assert_eq!(
                db.graphs()[i].node_labels().as_ptr(),
                db2.graphs()[i].node_labels().as_ptr(),
                "graph {i} must be shared, not copied"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn pushed_rejects_wrong_dims() {
        let db = tiny_db();
        let g = db.graph(0).clone();
        let _ = db.pushed(g, vec![1.0]);
    }

    #[test]
    fn oracle_runs() {
        let db = tiny_db();
        let o = db.oracle(GedConfig::default());
        assert!(o.distance(0, 3) > 0.0);
    }
}

//! Query-time relevance functions `q : features → {−1, 1}` (paper Sec 2,
//! Table 1).
//!
//! A [`Scorer`] maps a feature vector to a scalar; a [`RelevanceQuery`]
//! thresholds the score. The paper's four example applications are all
//! expressible: linear scores over selected dimensions (molecular library,
//! bug analysis), Jaccard similarity against a topic set (cascades), and
//! intersection counts against expertise areas (social networks).

use crate::db::GraphDatabase;
use graphrep_graph::GraphId;

/// Feature-space scoring functions.
#[derive(Debug, Clone, PartialEq)]
pub enum Scorer {
    /// Mean of the selected dimensions: `Σ_j g_j / |dims|` (DUD style).
    MeanOfDims(Vec<usize>),
    /// Weighted sum `wᵀ·g` (bug-analysis style).
    Weighted(Vec<f64>),
    /// Jaccard similarity of the binary feature vector against a topic set
    /// (cascade style): `|g ∩ T| / |g ∪ T|`.
    Jaccard(Vec<usize>),
    /// Intersection count against expertise areas (social-network style):
    /// `|g ∩ E|`.
    Intersection(Vec<usize>),
}

impl Scorer {
    /// Scores one feature vector.
    pub fn score(&self, f: &[f64]) -> f64 {
        match self {
            Scorer::MeanOfDims(dims) => {
                if dims.is_empty() {
                    return 0.0;
                }
                dims.iter().map(|&d| f[d]).sum::<f64>() / dims.len() as f64
            }
            Scorer::Weighted(w) => w.iter().zip(f).map(|(a, b)| a * b).sum(),
            Scorer::Jaccard(topics) => {
                let in_set = |d: usize| topics.contains(&d);
                let mut inter = 0.0;
                let mut union = topics.len() as f64;
                for (d, &v) in f.iter().enumerate() {
                    if v > 0.5 {
                        if in_set(d) {
                            inter += 1.0;
                        } else {
                            union += 1.0;
                        }
                    }
                }
                if union <= 0.0 {
                    0.0
                } else {
                    inter / union
                }
            }
            Scorer::Intersection(areas) => areas
                .iter()
                .map(|&d| {
                    if f.get(d).copied().unwrap_or(0.0) > 0.5 {
                        1.0
                    } else {
                        0.0
                    }
                })
                .sum(),
        }
    }
}

/// A relevance query: a graph is relevant iff its score is at least
/// `threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct RelevanceQuery {
    /// The feature-space scorer.
    pub scorer: Scorer,
    /// Relevance cutoff.
    pub threshold: f64,
}

impl RelevanceQuery {
    /// Builds a query whose threshold is the `q`-quantile of scores over
    /// `db` — the paper marks graphs relevant when their score falls in the
    /// top quartile (`q = 0.75`).
    pub fn top_quantile(db: &GraphDatabase, scorer: Scorer, q: f64) -> Self {
        let mut scores: Vec<f64> = db.all_features().iter().map(|f| scorer.score(f)).collect();
        scores.sort_by(f64::total_cmp);
        let threshold = if scores.is_empty() {
            0.0
        } else {
            let idx = ((scores.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
            scores[idx]
        };
        Self { scorer, threshold }
    }

    /// Whether graph `id` of `db` is relevant.
    pub fn is_relevant(&self, db: &GraphDatabase, id: GraphId) -> bool {
        self.scorer.score(db.features(id)) >= self.threshold
    }

    /// The score of graph `id`.
    pub fn score(&self, db: &GraphDatabase, id: GraphId) -> f64 {
        self.scorer.score(db.features(id))
    }

    /// The relevant set `L_q`, in ascending id order.
    pub fn relevant_set(&self, db: &GraphDatabase) -> Vec<GraphId> {
        (0..db.len() as GraphId)
            .filter(|&id| self.is_relevant(db, id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_graph::{GraphBuilder, LabelInterner};

    fn db_with_features(features: Vec<Vec<f64>>) -> GraphDatabase {
        let graphs = features
            .iter()
            .map(|_| {
                let mut b = GraphBuilder::new();
                b.add_node(0);
                b.build()
            })
            .collect();
        GraphDatabase::new(graphs, features, LabelInterner::new())
    }

    #[test]
    fn mean_of_dims() {
        let s = Scorer::MeanOfDims(vec![0, 2]);
        assert_eq!(s.score(&[2.0, 100.0, 4.0]), 3.0);
        assert_eq!(Scorer::MeanOfDims(vec![]).score(&[1.0]), 0.0);
    }

    #[test]
    fn weighted() {
        let s = Scorer::Weighted(vec![1.0, -1.0]);
        assert_eq!(s.score(&[3.0, 2.0]), 1.0);
    }

    #[test]
    fn jaccard() {
        // features: topics 0 and 2 active; query topics {0, 1}.
        let s = Scorer::Jaccard(vec![0, 1]);
        // intersection {0}, union {0,1,2} → 1/3.
        assert!((s.score(&[1.0, 0.0, 1.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Scorer::Jaccard(vec![]).score(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn intersection() {
        let s = Scorer::Intersection(vec![0, 1, 5]);
        assert_eq!(s.score(&[1.0, 1.0, 1.0]), 2.0); // dim 5 missing → skipped
    }

    #[test]
    fn quantile_threshold_marks_top_quarter() {
        let feats: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let db = db_with_features(feats);
        let q = RelevanceQuery::top_quantile(&db, Scorer::MeanOfDims(vec![0]), 0.75);
        let rel = q.relevant_set(&db);
        assert_eq!(rel.len(), 26); // scores 74..=99 — nearest-rank at 0.75
        assert!(q.is_relevant(&db, 99));
        assert!(!q.is_relevant(&db, 0));
    }

    #[test]
    fn relevant_set_sorted() {
        let db = db_with_features(vec![vec![5.0], vec![1.0], vec![9.0]]);
        let q = RelevanceQuery {
            scorer: Scorer::MeanOfDims(vec![0]),
            threshold: 4.0,
        };
        assert_eq!(q.relevant_set(&db), vec![0, 2]);
        assert_eq!(q.score(&db, 1), 1.0);
    }

    #[test]
    fn empty_db_quantile() {
        let db = db_with_features(vec![]);
        let q = RelevanceQuery::top_quantile(&db, Scorer::MeanOfDims(vec![0]), 0.75);
        assert_eq!(q.threshold, 0.0);
        assert!(q.relevant_set(&db).is_empty());
    }
}

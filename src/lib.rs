#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! # graphrep — top-k representative queries on graph databases
//!
//! A from-scratch Rust implementation of *Answering Top-k Representative
//! Queries on Graph Databases* (SIGMOD 2014): given a graph database with
//! per-graph feature vectors, a query-time relevance function, a graph-edit
//! distance threshold θ and a budget `k`, return the `k` relevant graphs
//! whose θ-neighborhoods cover the most relevant graphs.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — the labeled graph data model,
//! * [`ged`] — exact and approximate graph edit distance,
//! * [`metric`] — vantage embeddings, bitsets, distance statistics,
//! * [`core`] — the greedy approximation and the **NB-Index**,
//! * [`baselines`] — DisC, DIV, C-tree, M-tree, distance-matrix and
//!   traditional top-k comparators,
//! * [`datagen`] — synthetic DUD/DBLP/Amazon-like dataset generators.
//!
//! ## Quickstart
//!
//! ```
//! use graphrep::datagen::{DatasetKind, DatasetSpec};
//! use graphrep::core::{NbIndex, NbIndexConfig};
//! use graphrep::ged::GedConfig;
//!
//! // A small DUD-like molecule database.
//! let data = DatasetSpec::new(DatasetKind::DudLike, 120, 7).generate();
//! let oracle = data.db.oracle(GedConfig::default());
//!
//! // Build the NB-Index once, offline.
//! let index = NbIndex::build(oracle, NbIndexConfig {
//!     ladder: data.default_ladder.clone(),
//!     ..NbIndexConfig::default()
//! });
//!
//! // Relevance is defined at query time; ask for 5 representatives.
//! let relevant = data.default_query().relevant_set(&data.db);
//! let (answer, _stats) = index.query(relevant, data.default_theta, 5);
//! assert!(answer.len() <= 5);
//! println!("π(A) = {:.2}", answer.pi());
//! ```

pub use graphrep_baselines as baselines;
pub use graphrep_core as core;
pub use graphrep_datagen as datagen;
pub use graphrep_ged as ged;
pub use graphrep_graph as graph;
pub use graphrep_metric as metric;

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Labeled graph data model for `graphrep`.
//!
//! Graphs in this workspace are small, undirected, vertex- and edge-labeled
//! structures (molecules, ego-networks, call graphs, cascades). The model is
//! deliberately compact: labels are interned `u32` ids, adjacency is a sorted
//! neighbor list per vertex, and every graph is immutable once built.
//!
//! The crate provides:
//! * [`Graph`] — the immutable labeled graph,
//! * [`GraphBuilder`] — incremental construction with validation,
//! * [`LabelInterner`] — string↔id label mapping shared across a database,
//! * [`generate`] — random graph primitives used by the dataset generators,
//! * [`stats`] — per-database structural statistics (Table 3 of the paper).

pub mod builder;
pub mod ego;
pub mod generate;
pub mod graph;
pub mod io;
pub mod labels;
pub mod stats;

pub use builder::GraphBuilder;
pub use graph::{EdgeRef, Graph, GraphId, NodeId};
pub use labels::{Label, LabelInterner};

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Synthetic dataset generators for `graphrep`.
//!
//! The paper evaluates on DUD (molecules), DBLP (2-hop collaboration
//! ego-nets) and Amazon (2-hop co-purchase ego-nets), none of which are
//! available offline. Each generator here reproduces the *structural regime*
//! the evaluation depends on — a family/cluster structure in edit-distance
//! space with feature vectors correlated to structure — at node counts where
//! the exact A\* edit distance stays computable (see DESIGN.md §3 for the
//! substitution argument).
//!
//! All generators are deterministic in their seed.

pub mod callgraphs;
pub mod cascades;
pub mod egonet;
pub mod features;
pub mod molecules;
pub mod network;
pub mod spec;
pub mod store;

pub use spec::{Dataset, DatasetKind, DatasetSpec};

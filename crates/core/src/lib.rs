#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Top-k representative queries on graph databases — the core library.
//!
//! Implements the SIGMOD'14 paper's contribution end to end:
//!
//! * the problem model — [`GraphDatabase`], query-time [`RelevanceQuery`]
//!   functions, and the representative-power objective ([`AnswerSet`]),
//! * the `1 − 1/e` [`greedy`] approximation (Alg 1) over pluggable
//!   θ-neighborhood providers,
//! * the **NB-Index** ([`NbIndex`]): vantage orderings, the [`nbtree`]
//!   hierarchical clustering, π̂-vectors over an indexed threshold ladder,
//!   the Alg 2 best-first search, Thm 6–8 batch updates, and interactive
//!   θ refinement via [`session::QuerySession`].
//!
//! The NB-Index path returns *exactly* the baseline greedy answer (ties
//! broken toward smaller graph ids on both paths) while computing orders of
//! magnitude fewer NP-hard edit distances.

pub mod answer;
pub(crate) mod binfmt;
pub mod cancel;
pub mod db;
pub mod greedy;
pub mod nbindex;
pub mod nbtree;
pub mod persist;
pub mod pihat;
pub mod provider;
pub mod relevance;
pub mod session;
pub mod views;

pub use answer::{evaluate_answer, AnswerSet};
pub use binfmt::fnv1a64;
pub use cancel::{CancelToken, Cancelled};
pub use db::GraphDatabase;
pub use greedy::{baseline_greedy, BruteForceProvider};
pub use nbindex::{
    BuildStats, MutateError, MutationOutcome, MutationPolicy, NbIndex, NbIndexConfig,
};
pub use nbtree::{InsertOutcome, NbTree, NbTreeConfig, TreeNode};
pub use persist::PersistError;
pub use pihat::{PiHatVectors, ThresholdLadder};
pub use provider::NeighborhoodProvider;
pub use relevance::{RelevanceQuery, Scorer};
pub use session::{PickEvent, QuerySession, RunStats, Session};
pub use views::{
    query_fingerprint, AnswerCache, AnswerKey, CacheConfig, CacheCounters, MaterializedView,
    ViewScope, ViewStore,
};

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Comparator systems for the paper's evaluation.
//!
//! Everything the paper benchmarks NB-Index against, re-implemented on the
//! same substrates (`graphrep-ged` distances, `graphrep-core` objective):
//!
//! * [`mtree`] — a metric tree with covering radii (DisC's index \[29\]),
//! * [`ctree`] — a closure-tree-style graph index with label-closure lower
//!   bounds \[12\],
//! * [`matrix`] — the precomputed full distance matrix (best-case runtime,
//!   quadratic cost),
//! * [`disc`] — Greedy-DisC: the covering independent-set model \[9\],
//! * [`div`] — DIV: diversified top-k with static scores \[19\], at both the
//!   θ and 2θ pairwise constraints,
//! * [`topk`] — the traditional score-only top-k of Fig 7,
//! * [`providers`] — [`graphrep_core::NeighborhoodProvider`] adapters so the
//!   baseline greedy (Alg 1) can run over each index.

pub mod ctree;
pub mod disc;
pub mod div;
pub mod matrix;
pub mod mtree;
pub mod providers;
pub mod topk;
pub mod typicality;

pub use ctree::CTree;
pub use disc::greedy_disc;
pub use div::{div_topk, DivVariant};
pub use matrix::MatrixIndex;
pub use mtree::MTree;
pub use providers::{CTreeProvider, MTreeProvider, MatrixProvider};
pub use topk::traditional_topk;
pub use typicality::{topk_typicality, typicality_scores, TypicalityResult};

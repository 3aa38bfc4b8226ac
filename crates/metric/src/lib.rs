#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Metric-space toolkit for `graphrep`.
//!
//! Everything the NB-Index needs from the metric space, independent of
//! graphs: [`Bitset`]s for neighborhood/coverage bookkeeping,
//! [`VantageTable`] — the Lipschitz embedding / vantage orderings of
//! Sec 6.2 — [`DistanceDistribution`] statistics (Figs 5(a)–(e)), the
//! vantage-point false-positive-rate theory of Sec 6.2.1 ([`fpr`]), and the
//! precomputed [`DistanceMatrix`] comparator.

pub mod bitset;
pub mod fpr;
pub mod space;
pub mod stats;
pub mod vantage;

pub use bitset::Bitset;
pub use space::DistanceMatrix;
pub use stats::DistanceDistribution;
pub use vantage::{BandProjection, VantageTable};

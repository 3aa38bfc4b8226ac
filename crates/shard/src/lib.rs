//! Horizontal sharding for graphrep (DESIGN.md §14).
//!
//! The paper's admissible-bound machinery (Thm 4/5 vantage bounds, the Sec
//! 7.1 π̂-vectors) lifts one level up: a metric-space [`partition`] assigns
//! graphs to shards by farthest-point clustering, each shard owns an
//! independent [`graphrep_core::NbIndex`] over its slice, and the
//! [`Coordinator`] runs the best-first greedy across shards — aggregating
//! per-shard π̂ upper bounds into one global frontier and paying GED on a
//! shard only while its bound can still beat the current pick. Answers are
//! byte-identical to a single-index deployment; the payoff is the fraction
//! of shards each pick never touches.
//!
//! The crate persists nothing: a sharded dataset's record on disk is the
//! dataset directory's own mutation log, replayed through
//! [`Coordinator::insert`] / [`Coordinator::remove`] at open.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod coordinator;
pub mod partition;
pub mod shard;

pub use coordinator::{
    CoordConfig, CoordReceipt, CoordRunStats, CoordSession, Coordinator, ShardOverview,
};
pub use partition::{partition, Partition, PartitionConfig};
pub use shard::ShardState;

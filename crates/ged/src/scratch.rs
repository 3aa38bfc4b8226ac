//! Per-thread reusable search state for the GED hot path.
//!
//! Every public GED entry point (`ged_exact`, `bp_upper_bound`,
//! `bp_lower_bound`) borrows this thread's [`SearchScratch`] exactly once,
//! for the duration of one call, and runs an internal `*_in` variant against
//! its buffers. Buffers are `clear()`ed — never shrunk — between calls, so
//! after a few calls have warmed them up to the largest instance seen,
//! repeated `within(τ)` verification does zero heap allocation.
//!
//! For the exact search the scratch holds the pair's dense [`PairTables`] —
//! label ids, `u32` node bitmasks, per-depth label counts and two adjacency
//! matrices, rebuilt once per call — and one [`Frame`] of per-class label
//! counts: A\* positions it once per expansion and reads every child off it
//! (`Frame::child`). It rests on every graph of a searched pair having ≤ 32
//! nodes, which `PairTables::rebuild` asserts (larger graphs are
//! `GedMode::Hybrid`'s business). The layout, the edge classes, and what a
//! child step moves are in the [`crate::tables`] module doc.
//!
//! Borrow discipline: the public wrappers never nest (an `*_in` function
//! takes `&mut` buffer parts and cannot re-enter [`with_scratch`]), so the
//! `RefCell` borrow is provably exclusive and panic-free.

use crate::bipartite::BpBufs;
use crate::exact::AstarBufs;
use crate::tables::{Frame, PairTables};
use std::cell::RefCell;

/// All reusable buffers of one worker thread, grouped so internal search
/// routines can borrow disjoint parts simultaneously.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    /// Per-pair dense tables (label ids, bitmasks, counts, adjacency
    /// matrices) for A*.
    pub(crate) tables: PairTables,
    /// Edge-class label counts of the state A* is expanding.
    pub(crate) frame: Frame,
    /// A* arena, frontier heap, and map-reconstruction buffer.
    pub(crate) astar: AstarBufs,
    /// Bipartite matrix, star multisets, and Hungarian solver scratch.
    pub(crate) bp: BpBufs,
}

thread_local! {
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::default());
}

/// Runs `f` with exclusive access to this thread's scratch buffers.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

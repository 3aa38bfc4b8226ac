//! The neighborhood-provider seam (DESIGN.md §11).
//!
//! Separates *what greedy needs* — the θ-neighborhood `N_θ(g)` restricted
//! to the relevant set — from *where it comes from*: brute force over the
//! oracle, a baseline metric index, or a precomputed matrix. The offline
//! greedy ([`crate::baseline_greedy`]) and the diversity baselines run over
//! any provider. The NB-Index session does not go
//! through the seam: its verifier reads and writes the session's
//! [`crate::ViewStore`] rows directly, because a row carries per-pair facts
//! a member list cannot.

use graphrep_graph::GraphId;

/// Supplies θ-neighborhoods restricted to the relevant set.
pub trait NeighborhoodProvider {
    /// All *relevant* graphs within distance θ of `g`, including `g` itself
    /// when relevant.
    fn neighborhood(&self, g: GraphId, theta: f64) -> Vec<GraphId>;
}

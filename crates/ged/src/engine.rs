//! The distance engine: policy around exact search, bounds, and fallbacks.

use crate::bipartite::{bp_lower_bound, bp_upper_bound};
use crate::bounds::{
    degree_sequence_bound, label_lower_bound, label_lower_bound_profiled, size_lower_bound_profiled,
};
use crate::cost::CostModel;
use crate::counter::GedCounters;
use crate::exact::{ged_exact, Outcome};
use crate::profile::GraphProfile;
use graphrep_graph::Graph;

/// How distances are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GedMode {
    /// Always run the exact A* (falling back to the bipartite upper bound
    /// only when the expansion budget is exhausted).
    Exact,
    /// Exact when both graphs have at most `exact_max_nodes` nodes;
    /// bipartite upper bound otherwise. **Not a metric** in the approximate
    /// regime — documented in DESIGN.md; index-correctness tests use `Exact`.
    Hybrid {
        /// Largest node count still handled exactly.
        exact_max_nodes: usize,
    },
}

/// Configuration of a [`GedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct GedConfig {
    /// Edit operation costs.
    pub cost: CostModel,
    /// Exact vs hybrid policy.
    pub mode: GedMode,
    /// A* expansion budget per distance call.
    pub budget: u64,
}

impl Default for GedConfig {
    fn default() -> Self {
        Self {
            cost: CostModel::uniform(),
            mode: GedMode::Exact,
            budget: 400_000,
        }
    }
}

/// Computes graph edit distances according to a [`GedConfig`], accumulating
/// [`GedCounters`].
#[derive(Debug, Default)]
pub struct GedEngine {
    config: GedConfig,
    counters: GedCounters,
}

impl GedEngine {
    /// Creates an engine with the given configuration.
    #[expect(
        clippy::expect_used,
        reason = "constructor contract: a bad cost model is a programming error caught at startup"
    )]
    pub fn new(config: GedConfig) -> Self {
        config.cost.validate().expect("invalid cost model");
        Self {
            config,
            counters: GedCounters::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GedConfig {
        &self.config
    }

    /// The engine's counters.
    pub fn counters(&self) -> &GedCounters {
        &self.counters
    }

    fn use_exact(&self, g1: &Graph, g2: &Graph) -> bool {
        match self.config.mode {
            GedMode::Exact => true,
            GedMode::Hybrid { exact_max_nodes } => {
                g1.node_count() <= exact_max_nodes && g2.node_count() <= exact_max_nodes
            }
        }
    }

    /// The edit distance between `g1` and `g2`.
    ///
    /// Exact under [`GedMode::Exact`] unless the budget runs out, in which
    /// case the bipartite upper bound is returned and
    /// [`GedCounters::budget_fallbacks`] is incremented.
    pub fn distance(&self, g1: &Graph, g2: &Graph) -> f64 {
        let lb = label_lower_bound(g1, g2, &self.config.cost);
        self.distance_from_lb(g1, g2, lb)
    }

    /// Returns `Some(d)` iff `ged(g1, g2) = d ≤ tau` (within budget).
    ///
    /// `None` means the distance certainly exceeds `tau`, except after a
    /// budget fallback where the bipartite bound also exceeded `tau` (counted
    /// in [`GedCounters::budget_fallbacks`]).
    pub fn distance_within(&self, g1: &Graph, g2: &Graph, tau: f64) -> Option<f64> {
        let c = &self.config.cost;
        let lb = label_lower_bound(g1, g2, c);
        self.distance_within_from_lb(g1, g2, tau, lb)
    }

    /// [`GedEngine::distance`] with precomputed [`GraphProfile`]s: identical
    /// result, but the label lower bound is an O(n) merge over the cached
    /// sorted arrays instead of four per-call sorts.
    pub fn distance_profiled(
        &self,
        g1: &Graph,
        g2: &Graph,
        p1: &GraphProfile,
        p2: &GraphProfile,
    ) -> f64 {
        let lb = label_lower_bound_profiled(p1, p2, &self.config.cost);
        self.distance_from_lb(g1, g2, lb)
    }

    /// [`GedEngine::distance_within`] with precomputed [`GraphProfile`]s:
    /// identical verdicts and values, prefixed by the cheap profile tiers
    /// (size, profiled label, degree sequence) which can only turn an
    /// expensive rejection into a free one — each is a sound lower bound on
    /// the true distance, so `bound > τ` implies the engine would reject too.
    pub fn distance_within_profiled(
        &self,
        g1: &Graph,
        g2: &Graph,
        p1: &GraphProfile,
        p2: &GraphProfile,
        tau: f64,
    ) -> Option<f64> {
        let c = &self.config.cost;
        if size_lower_bound_profiled(p1, p2, c) > tau + 1e-9 {
            self.counters.add(&self.counters.lb_prunes, 1);
            return None;
        }
        let lb = label_lower_bound_profiled(p1, p2, c);
        if lb > tau + 1e-9 {
            self.counters.add(&self.counters.lb_prunes, 1);
            return None;
        }
        if degree_sequence_bound(p1, p2, c) > tau + 1e-9 {
            self.counters.add(&self.counters.lb_prunes, 1);
            return None;
        }
        self.distance_within_from_lb(g1, g2, tau, lb)
    }

    /// Shared tail of the full-distance paths, entered with the label lower
    /// bound.
    fn distance_from_lb(&self, g1: &Graph, g2: &Graph, lb: f64) -> f64 {
        let c = &self.config.cost;
        self.counters.add(&self.counters.bp_calls, 1);
        let ub = bp_upper_bound(g1, g2, c);
        if (ub - lb).abs() <= 1e-9 {
            return ub;
        }
        if !self.use_exact(g1, g2) {
            return ub;
        }
        self.counters.add(&self.counters.exact_searches, 1);
        let r = ged_exact(g1, g2, c, ub, self.config.budget);
        self.counters.add(&self.counters.expansions, r.expansions);
        match r.outcome {
            Outcome::Distance(d) => d,
            // The true distance is ≤ ub; with cutoff = ub the search can only
            // fail by budget, where ub is the best certificate we hold.
            Outcome::ExceedsCutoff | Outcome::BudgetExhausted => {
                self.counters.add(&self.counters.budget_fallbacks, 1);
                ub
            }
        }
    }

    /// Shared tail of the `within` paths, entered with a label lower bound
    /// already known to be ≤ `tau`.
    fn distance_within_from_lb(&self, g1: &Graph, g2: &Graph, tau: f64, lb: f64) -> Option<f64> {
        let c = &self.config.cost;
        if lb > tau + 1e-9 {
            self.counters.add(&self.counters.lb_prunes, 1);
            return None;
        }
        if !self.use_exact(g1, g2) {
            self.counters.add(&self.counters.bp_calls, 1);
            let ub = bp_upper_bound(g1, g2, c);
            return (ub <= tau + 1e-9).then_some(ub);
        }
        self.counters.add(&self.counters.bp_calls, 1);
        let ub = bp_upper_bound(g1, g2, c);
        if (ub - lb).abs() <= 1e-9 {
            return (ub <= tau + 1e-9).then_some(ub);
        }
        // Assignment-based lower bound: O(n³), far cheaper than the exact
        // search it often avoids.
        if bp_lower_bound(g1, g2, c) > tau + 1e-9 {
            self.counters.add(&self.counters.lb_prunes, 1);
            return None;
        }
        self.counters.add(&self.counters.exact_searches, 1);
        let r = ged_exact(g1, g2, c, tau.min(ub), self.config.budget);
        self.counters.add(&self.counters.expansions, r.expansions);
        match r.outcome {
            Outcome::Distance(d) => Some(d),
            Outcome::ExceedsCutoff => None,
            Outcome::BudgetExhausted => {
                self.counters.add(&self.counters.budget_fallbacks, 1);
                (ub <= tau + 1e-9).then_some(ub)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_graph::generate::{mutate, random_connected};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn engine() -> GedEngine {
        GedEngine::new(GedConfig::default())
    }

    #[test]
    fn distance_zero_for_identical() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = random_connected(&mut rng, 8, 3, &[0, 1, 2], &[4, 5]);
        assert_eq!(engine().distance(&g, &g), 0.0);
    }

    #[test]
    fn within_agrees_with_distance() {
        let mut rng = SmallRng::seed_from_u64(2);
        let e = engine();
        for _ in 0..15 {
            let g1 = random_connected(&mut rng, 6, 2, &[0, 1, 2], &[4, 5]);
            let g2 = mutate(&mut rng, &g1, 3, &[0, 1, 2], &[4, 5]);
            let d = e.distance(&g1, &g2);
            assert_eq!(e.distance_within(&g1, &g2, d), Some(d));
            if d > 0.5 {
                assert_eq!(e.distance_within(&g1, &g2, d - 0.5), None);
            }
        }
    }

    #[test]
    fn counters_accumulate() {
        let e = engine();
        let mut rng = SmallRng::seed_from_u64(3);
        let g1 = random_connected(&mut rng, 6, 2, &[0, 1, 2], &[4, 5]);
        let g2 = random_connected(&mut rng, 7, 2, &[0, 1, 2], &[4, 5]);
        let _ = e.distance(&g1, &g2);
        let s = e.counters().snapshot();
        assert!(s.bp_calls >= 1);
    }

    #[test]
    fn lb_prune_short_circuits() {
        let e = engine();
        let mut rng = SmallRng::seed_from_u64(4);
        let g1 = random_connected(&mut rng, 4, 1, &[0], &[1]);
        let g2 = random_connected(&mut rng, 12, 4, &[5], &[6]);
        // Wildly different sizes/labels: lower bound alone rejects tau = 1.
        assert_eq!(e.distance_within(&g1, &g2, 1.0), None);
        assert!(e.counters().snapshot().lb_prunes >= 1);
        assert_eq!(e.counters().snapshot().exact_searches, 0);
    }

    #[test]
    fn hybrid_mode_uses_upper_bound_for_large_graphs() {
        let e = GedEngine::new(GedConfig {
            mode: GedMode::Hybrid { exact_max_nodes: 4 },
            ..GedConfig::default()
        });
        let mut rng = SmallRng::seed_from_u64(5);
        let g1 = random_connected(&mut rng, 8, 3, &[0, 1], &[2]);
        let g2 = mutate(&mut rng, &g1, 2, &[0, 1], &[2]);
        let approx = e.distance(&g1, &g2);
        let exact = engine().distance(&g1, &g2);
        assert!(approx >= exact - 1e-9);
        assert_eq!(e.counters().snapshot().exact_searches, 0);
    }

    #[test]
    fn symmetry_of_engine_distance() {
        let e = engine();
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..10 {
            let g1 = random_connected(&mut rng, 5, 2, &[0, 1], &[2, 3]);
            let g2 = random_connected(&mut rng, 6, 2, &[0, 1], &[2, 3]);
            assert_eq!(e.distance(&g1, &g2), e.distance(&g2, &g1));
        }
    }
}

//! The distance engine: one question, [`GedEngine::ask`], answered by the
//! cheapest certificate that settles it — profile bounds, the bipartite
//! bounds, then the budgeted exact search — with the budget fallback mapped
//! in one place.

use crate::bipartite::{bp_lower_bound, bp_upper_bound};
use crate::bounds::{degree_sequence_bound, label_lower_bound_profiled, size_lower_bound_profiled};
use crate::cost::CostModel;
use crate::counter::GedCounters;
use crate::exact::{ged_exact, Outcome};
use crate::profile::GraphProfile;
use graphrep_graph::Graph;

/// Whether `d` is inside `tau` under the GED layer's one verdict tolerance
/// (`d ≤ tau + 1e-9`): every comparison of a distance or bound against a
/// threshold, in the engine, the oracle's memo and tiers, the shard
/// coordinator's geometry prune and the baselines' ball tests, goes
/// through it.
#[inline]
pub fn inside(d: f64, tau: f64) -> bool {
    d <= tau + 1e-9
}

/// [`GedEngine::ask`]'s answer about a pair's edit distance `d` against a
/// threshold `τ`. The oracle's memo keeps every fact it learns
/// ([`crate::Facts`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fact {
    /// `d` exactly, and `d ≤ τ`.
    Exact(f64),
    /// `d > τ`.
    Above(f64),
}

impl Fact {
    /// The distance this fact states, if it states one.
    pub fn exact(self) -> Option<f64> {
        match self {
            Fact::Exact(d) => Some(d),
            Fact::Above(_) => None,
        }
    }
}

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

    /// The edit distance between `g1` and `g2`: [`GedEngine::ask`] at
    /// `τ = ∞` over freshly built profiles.
    pub fn distance(&self, g1: &Graph, g2: &Graph) -> f64 {
        let (p1, p2) = (GraphProfile::new(g1), GraphProfile::new(g2));
        let fact = self.ask(g1, g2, &p1, &p2, f64::INFINITY);
        // At τ = ∞ every answer is `Exact`.
        fact.exact().unwrap_or(f64::INFINITY)
    }

    /// Where `d = ged(g1, g2)` stands against `tau`: `Exact(d)` when
    /// `d ≤ tau`, `Above(tau)` when `d > tau`. `tau = ∞` asks for the
    /// distance, which is always answered `Exact`. `p1` and `p2` are the
    /// graphs' [`GraphProfile`]s.
    ///
    /// Cheapest certificate first: the size, label and degree-sequence
    /// lower bounds; the bipartite upper bound, which is the answer when it
    /// meets the label bound or when [`GedMode::Hybrid`] leaves the pair
    /// approximate; the bipartite lower bound; and only then the exact
    /// search, cut off at `min(tau, ub)`. Each lower bound is sound, so a
    /// screen only turns an expensive rejection into a free one
    /// ([`GedCounters::lb_prunes`]); a screen that cannot fire at `tau = ∞`
    /// does not run.
    ///
    /// When the search runs out of budget the bipartite upper bound stands
    /// in for the distance — `Exact(ub)` if `ub ≤ tau`, else `Above(tau)` —
    /// and [`GedCounters::budget_fallbacks`] is incremented.
    pub fn ask(
        &self,
        g1: &Graph,
        g2: &Graph,
        p1: &GraphProfile,
        p2: &GraphProfile,
        tau: f64,
    ) -> Fact {
        let (c, counters) = (&self.config.cost, &self.counters);
        let bounded = tau < f64::INFINITY;
        let settle = |d: f64| {
            if inside(d, tau) {
                Fact::Exact(d)
            } else {
                Fact::Above(tau)
            }
        };
        let pruned = || {
            counters.add(&counters.lb_prunes, 1);
            Fact::Above(tau)
        };
        if bounded && !inside(size_lower_bound_profiled(p1, p2, c), tau) {
            return pruned();
        }
        let lb = label_lower_bound_profiled(p1, p2, c);
        if bounded && !(inside(lb, tau) && inside(degree_sequence_bound(p1, p2, c), tau)) {
            return pruned();
        }
        counters.add(&counters.bp_calls, 1);
        let ub = bp_upper_bound(g1, g2, c);
        if inside(ub, lb) || !self.use_exact(g1, g2) {
            return settle(ub);
        }
        // Assignment-based lower bound: O(n³), far cheaper than the exact
        // search it often avoids.
        if bounded && !inside(bp_lower_bound(g1, g2, c), tau) {
            return pruned();
        }
        counters.add(&counters.exact_searches, 1);
        let r = ged_exact(g1, g2, c, tau.min(ub), self.config.budget);
        counters.add(&counters.expansions, r.expansions);
        match r.outcome {
            Outcome::Distance(d) => Fact::Exact(d),
            Outcome::ExceedsCutoff if tau < ub => Fact::Above(tau),
            // The true distance is ≤ ub, so a search cut off at ub can only
            // fail by budget; ub is the best certificate held.
            Outcome::ExceedsCutoff | Outcome::BudgetExhausted => {
                counters.add(&counters.budget_fallbacks, 1);
                settle(ub)
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

    fn ask(e: &GedEngine, g1: &Graph, g2: &Graph, tau: f64) -> Fact {
        e.ask(g1, g2, &GraphProfile::new(g1), &GraphProfile::new(g2), tau)
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
            assert_eq!(ask(&e, &g1, &g2, d), Fact::Exact(d));
            if d > 0.5 {
                assert_eq!(ask(&e, &g1, &g2, d - 0.5), Fact::Above(d - 0.5));
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
        assert_eq!(ask(&e, &g1, &g2, 1.0), Fact::Above(1.0));
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
        assert!(inside(exact, approx));
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

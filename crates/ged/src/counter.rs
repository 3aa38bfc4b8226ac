//! Instrumentation counters for distance computations.
//!
//! The paper's speedups are, at bottom, reductions in the number of NP-hard
//! edit-distance computations; every experiment in `graphrep-bench` reports
//! these counters alongside wall time so results are hardware-independent.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe counters accumulated by a [`crate::GedEngine`].
#[derive(Debug, Default)]
pub struct GedCounters {
    /// Number of exact A* searches started.
    pub exact_searches: AtomicU64,
    /// Total A* node expansions.
    pub expansions: AtomicU64,
    /// Number of bipartite upper-bound computations.
    pub bp_calls: AtomicU64,
    /// Number of times the expansion budget forced an approximate answer.
    pub budget_fallbacks: AtomicU64,
    /// Number of calls short-circuited by the label lower bound.
    pub lb_prunes: AtomicU64,
}

/// A point-in-time copy of [`GedCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Exact A* searches started.
    pub exact_searches: u64,
    /// Total A* node expansions.
    pub expansions: u64,
    /// Bipartite upper-bound computations.
    pub bp_calls: u64,
    /// Budget-forced approximate answers.
    pub budget_fallbacks: u64,
    /// Lower-bound short circuits.
    pub lb_prunes: u64,
}

impl GedCounters {
    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            // Counters are independent tallies read at quiescent points.
            exact_searches: self.exact_searches.load(Ordering::Relaxed),
            expansions: self.expansions.load(Ordering::Relaxed),
            bp_calls: self.bp_calls.load(Ordering::Relaxed),
            budget_fallbacks: self.budget_fallbacks.load(Ordering::Relaxed),
            lb_prunes: self.lb_prunes.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        // Counters are independent tallies; resets happen at quiescent points.
        self.exact_searches.store(0, Ordering::Relaxed);
        self.expansions.store(0, Ordering::Relaxed);
        self.bp_calls.store(0, Ordering::Relaxed);
        self.budget_fallbacks.store(0, Ordering::Relaxed);
        self.lb_prunes.store(0, Ordering::Relaxed);
    }

    pub(crate) fn add(&self, field: &AtomicU64, v: u64) {
        // Independent event tally; no cross-counter ordering is consumed.
        field.fetch_add(v, Ordering::Relaxed);
    }
}

impl CounterSnapshot {
    /// Difference `self - earlier`, for measuring one experiment phase.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            exact_searches: self.exact_searches - earlier.exact_searches,
            expansions: self.expansions - earlier.expansions,
            bp_calls: self.bp_calls - earlier.bp_calls,
            budget_fallbacks: self.budget_fallbacks - earlier.budget_fallbacks,
            lb_prunes: self.lb_prunes - earlier.lb_prunes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let c = GedCounters::default();
        c.add(&c.exact_searches, 3);
        c.add(&c.expansions, 100);
        let s = c.snapshot();
        assert_eq!(s.exact_searches, 3);
        assert_eq!(s.expansions, 100);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let a = CounterSnapshot {
            exact_searches: 5,
            expansions: 50,
            bp_calls: 2,
            budget_fallbacks: 0,
            lb_prunes: 1,
        };
        let b = CounterSnapshot {
            exact_searches: 8,
            expansions: 80,
            bp_calls: 4,
            budget_fallbacks: 1,
            lb_prunes: 3,
        };
        let d = b.since(&a);
        assert_eq!(d.exact_searches, 3);
        assert_eq!(d.expansions, 30);
        assert_eq!(d.bp_calls, 2);
        assert_eq!(d.budget_fallbacks, 1);
        assert_eq!(d.lb_prunes, 2);
    }
}

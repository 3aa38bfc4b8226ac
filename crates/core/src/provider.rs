//! The neighborhood-provider seam (DESIGN.md §11).
//!
//! Separates *what greedy needs* — the θ-neighborhood `N_θ(g)` restricted
//! to the relevant set — from *where it comes from*: brute force, the
//! NB-Index's verified search, or a [`ViewStore`] of previously verified
//! neighborhoods. [`MaterializedProvider`] is the caching decorator: it
//! answers from the store when a materialized view exists for the exact
//! `(epoch, θ, fingerprint, g)` key and otherwise delegates to the inner
//! provider, offering the verified result back for materialization.

use crate::views::{ViewScope, ViewStore};
use graphrep_graph::GraphId;

/// Supplies θ-neighborhoods restricted to the relevant set.
pub trait NeighborhoodProvider {
    /// All *relevant* graphs within distance θ of `g`, including `g` itself
    /// when relevant.
    fn neighborhood(&self, g: GraphId, theta: f64) -> Vec<GraphId>;
}

/// Caching decorator over any provider: serves materialized θ-neighborhood
/// views from a [`ViewStore`] and populates the store on miss (subject to
/// the store's frequency-promotion policy).
///
/// Sound by construction: the store keys on the exact `(epoch, θ bits,
/// query fingerprint, graph)` — a hit returns precisely the member set the
/// inner provider verified earlier under the same index snapshot, relevant
/// set, and threshold, so cached and uncached runs are byte-identical.
#[derive(Debug)]
pub struct MaterializedProvider<'a, P> {
    store: &'a ViewStore,
    scope: ViewScope,
    inner: &'a P,
}

impl<'a, P: NeighborhoodProvider> MaterializedProvider<'a, P> {
    /// Wraps `inner`, serving and recording views under `scope`.
    pub fn new(store: &'a ViewStore, scope: ViewScope, inner: &'a P) -> Self {
        Self {
            store,
            scope,
            inner,
        }
    }
}

impl<P: NeighborhoodProvider> NeighborhoodProvider for MaterializedProvider<'_, P> {
    fn neighborhood(&self, g: GraphId, theta: f64) -> Vec<GraphId> {
        if let Some(view) = self.store.lookup(self.scope, theta, g) {
            return view.members.to_vec();
        }
        let members = self.inner.neighborhood(g, theta);
        self.store.record(self.scope, theta, g, &members);
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::baseline_greedy;
    use crate::views::{query_fingerprint, CacheConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Provider over an abstract 1-D space that counts how often the
    /// expensive path runs.
    struct CountingLine {
        relevant: Vec<GraphId>,
        calls: AtomicU64,
    }

    impl NeighborhoodProvider for CountingLine {
        fn neighborhood(&self, g: GraphId, theta: f64) -> Vec<GraphId> {
            // Relaxed: test-only call counter, no ordering dependency.
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.relevant
                .iter()
                .copied()
                .filter(|&r| (r as f64 - g as f64).abs() <= theta)
                .collect()
        }
    }

    fn setup() -> (CountingLine, ViewStore, ViewScope) {
        let relevant: Vec<GraphId> = (0..20).collect();
        let scope = ViewScope {
            epoch: 0,
            fingerprint: query_fingerprint(&relevant),
        };
        let inner = CountingLine {
            relevant,
            calls: AtomicU64::new(0),
        };
        let store = ViewStore::new(CacheConfig {
            promote_after: 1,
            ..CacheConfig::default()
        });
        (inner, store, scope)
    }

    #[test]
    fn decorated_greedy_matches_plain_and_reuses_views() {
        let (inner, store, scope) = setup();
        store.note_query(scope, 3.0);
        let relevant = inner.relevant.clone();
        let plain = baseline_greedy(&inner, &relevant, 3.0, 4);
        let after_plain = inner.calls.load(Ordering::Relaxed);

        // First decorated run: all misses, populates the store.
        let provider = MaterializedProvider::new(&store, scope, &inner);
        let first = baseline_greedy(&provider, &relevant, 3.0, 4);
        assert_eq!(format!("{first:?}"), format!("{plain:?}"));
        let after_first = inner.calls.load(Ordering::Relaxed);
        assert_eq!(after_first - after_plain, relevant.len() as u64);

        // Second decorated run: every neighborhood served from the store.
        let second = baseline_greedy(&provider, &relevant, 3.0, 4);
        assert_eq!(format!("{second:?}"), format!("{plain:?}"));
        assert_eq!(
            inner.calls.load(Ordering::Relaxed),
            after_first,
            "second run must not touch the inner provider"
        );
        let c = store.counters();
        assert_eq!(c.lookups, c.hits + c.misses);
        assert_eq!(c.hits as usize, relevant.len());
    }

    #[test]
    fn different_theta_or_epoch_bypasses_views() {
        let (inner, store, scope) = setup();
        store.note_query(scope, 3.0);
        let relevant = inner.relevant.clone();
        let provider = MaterializedProvider::new(&store, scope, &inner);
        let _ = baseline_greedy(&provider, &relevant, 3.0, 2);
        let calls = inner.calls.load(Ordering::Relaxed);

        // Same store, bumped epoch: all entries are invisible.
        let bumped = ViewScope { epoch: 1, ..scope };
        store.note_query(bumped, 3.0);
        let provider2 = MaterializedProvider::new(&store, bumped, &inner);
        let _ = baseline_greedy(&provider2, &relevant, 3.0, 2);
        assert_eq!(
            inner.calls.load(Ordering::Relaxed) - calls,
            relevant.len() as u64,
            "epoch bump must recompute every neighborhood"
        );
    }
}

//! Materialized θ-neighborhood rows and the cross-session answer cache
//! (DESIGN.md §11).
//!
//! Interactive traffic repeats itself: one relevant set is refined over
//! many θ, and every run verifies θ-neighborhoods of the same graphs —
//! exactly the `N_θ` sets Alg 1's greedy consumes. The two stores here turn
//! that repeat traffic into lookups:
//!
//! * [`ViewStore`] — one *row* per `(dataset epoch, query fingerprint,
//!   graph id)`: the graph's Thm 5 candidates at the widest θ a run has
//!   band-scanned, ascending by id, each with the memo's [`Facts`] about
//!   the pair. A row answers every θ′ up to its own θ (see
//!   [`MaterializedView`]). Every verified neighborhood is recorded; the
//!   LRU capacity bounds what stays resident.
//! * [`AnswerCache`] — memoizes whole [`crate::QuerySession::run`] results,
//!   keyed by `(epoch, θ bits, k, fingerprint)`.
//!
//! ## Soundness
//!
//! Both stores key on the index **mutation epoch**: a mutation forks the
//! index and bumps the epoch, so entries written against the old snapshot
//! can never answer a query against the new one — even *without* any
//! invalidation. [`ViewStore::invalidate_all`] / [`AnswerCache::invalidate_all`]
//! exist to reclaim memory wholesale when the serving layer swaps indexes;
//! sessions pinned to the pre-mutation snapshot simply miss afterwards and
//! recompute from their pinned index, byte-identically.
//!
//! Rows carry no θ in their key because what they store is θ-free: the band
//! test is monotone in θ, so candidates at θ include every candidate at any
//! θ′ ≤ θ, and a pair's facts are truths about the pair, not about the
//! threshold they were learned at. A member set would not be — an
//! upper-bound-certified accept at θ says nothing about θ′ < θ — which is
//! why a row keeps the facts, not the verdicts.
//!
//! ## Conservation
//!
//! Every counter lives under the store's mutex, so the identities are exact
//! even under thread races: `lookups == hits + misses`, `evictions ≤
//! insertions`, and all counters are monotone (invalidation drops entries,
//! never history).

use crate::answer::AnswerSet;
use graphrep_ged::Facts;
use graphrep_graph::GraphId;
use graphrep_lockaudit::TrackedMutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

/// Configuration shared by both cache tiers. Entries live until the LRU
/// evicts them or an invalidation drops them; staleness needs no expiry,
/// because keys carry the mutation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident entries per store; 0 disables the store entirely
    /// (every lookup misses, nothing is ever inserted).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { capacity: 1024 }
    }
}

/// Monotone counters of one cache tier, snapshotted atomically (they are
/// read under the same mutex that updates them, so the conservation
/// identity `lookups == hits + misses` holds exactly in every snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookup requests served (hit or miss).
    pub lookups: u64,
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries written (including replacements of an existing key).
    pub insertions: u64,
    /// Entries dropped by capacity pressure or replacement.
    pub evictions: u64,
    /// Entries dropped wholesale by [`ViewStore::invalidate_all`] /
    /// [`AnswerCache::invalidate_all`].
    pub invalidated: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate resident bytes of the stored values.
    pub memory_bytes: usize,
}

impl CacheCounters {
    /// Asserts the conservation identities (always-on in tests; under
    /// `invariant-audit` they are also audited inside every snapshot).
    fn conserve(&self) {
        debug_assert_eq!(self.lookups, self.hits + self.misses);
        debug_assert!(self.evictions <= self.insertions);
        #[cfg(feature = "invariant-audit")]
        {
            graphrep_ged::audit_invariant!(
                self.lookups == self.hits + self.misses,
                "cache conservation: {} lookups != {} hits + {} misses",
                self.lookups,
                self.hits,
                self.misses
            );
            graphrep_ged::audit_invariant!(
                self.evictions <= self.insertions,
                "cache conservation: {} evictions > {} insertions",
                self.evictions,
                self.insertions
            );
        }
    }
}

/// One resident entry of the generic LRU below.
struct Slot<V> {
    value: V,
    /// Recency stamp; also the key into the recency index.
    stamp: u64,
    /// Approximate bytes attributed to this entry.
    bytes: usize,
}

/// A deterministic LRU map: `HashMap` for residency plus a
/// `BTreeMap<stamp, key>` recency index (O(log n) touch/evict), with the
/// counters kept inside the same structure so one mutex makes every
/// conservation identity exact.
struct Lru<K, V> {
    entries: HashMap<K, Slot<V>>,
    recency: BTreeMap<u64, K>,
    next_stamp: u64,
    bytes: usize,
    lookups: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidated: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    fn new() -> Self {
        Self {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            next_stamp: 0,
            bytes: 0,
            lookups: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            invalidated: 0,
        }
    }

    fn stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    /// Looks `key` up, refreshing its recency; a resident value is returned
    /// and counts as a hit when `answers` accepts it, as a miss otherwise.
    fn get(&mut self, key: &K, answers: impl Fn(&V) -> bool) -> Option<V> {
        self.lookups += 1;
        let next = self.stamp();
        match self.entries.get_mut(key) {
            Some(slot) => {
                self.recency.remove(&slot.stamp);
                slot.stamp = next;
                self.recency.insert(next, key.clone());
                if answers(&slot.value) {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                Some(slot.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used entries
    /// until residency fits `capacity`. A replacement counts as one
    /// insertion plus one eviction, keeping `evictions ≤ insertions` exact.
    fn insert(&mut self, key: K, value: V, bytes: usize, capacity: usize) {
        if capacity == 0 {
            return;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.recency.remove(&old.stamp);
            self.bytes -= old.bytes;
            self.evictions += 1;
        }
        let stamp = self.stamp();
        self.entries.insert(
            key.clone(),
            Slot {
                value,
                stamp,
                bytes,
            },
        );
        self.recency.insert(stamp, key);
        self.bytes += bytes;
        self.insertions += 1;
        while self.entries.len() > capacity {
            let Some((&stamp, _)) = self.recency.iter().next() else {
                break;
            };
            let Some(victim) = self.recency.remove(&stamp) else {
                break;
            };
            if let Some(slot) = self.entries.remove(&victim) {
                self.bytes -= slot.bytes;
            }
            self.evictions += 1;
        }
    }

    /// Drops every entry, counting them as invalidated. Returns how many.
    fn invalidate_all(&mut self) -> u64 {
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        self.recency.clear();
        self.bytes = 0;
        self.invalidated += dropped;
        dropped
    }

    fn counters(&self) -> CacheCounters {
        let c = CacheCounters {
            lookups: self.lookups,
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            invalidated: self.invalidated,
            entries: self.entries.len(),
            memory_bytes: self.bytes,
        };
        c.conserve();
        c
    }
}

/// Mixes one value into a SplitMix64 fold (same finalizer constants the
/// serve-layer load harness uses).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Canonical fingerprint of a relevance query: a SplitMix64 fold over the
/// **sorted** relevant ids, so two sessions over the same relevant *set*
/// share cache entries regardless of the order the ids arrived in (answers
/// are set-determined: ties break by graph id on every search path).
pub fn query_fingerprint(relevant: &[GraphId]) -> u64 {
    let mut ids: Vec<GraphId> = relevant.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let mut h = mix(ids.len() as u64 ^ 0x5143_4F56_4945_5753); // "SCOVIEWS"
    for id in ids {
        h = mix(h ^ u64::from(id));
    }
    h
}

/// Scope of a view-store entry: which index snapshot and which relevance
/// query the neighborhoods were verified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewScope {
    /// Mutation epoch of the index snapshot (see
    /// [`crate::NbIndex::epoch`]) — the invalidation key.
    pub epoch: u64,
    /// [`query_fingerprint`] of the relevant set.
    pub fingerprint: u64,
}

/// Key of one row: scope + the graph whose neighborhood it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ViewKey {
    epoch: u64,
    fingerprint: u64,
    graph: GraphId,
}

/// One materialized row of graph `g`: its relevant Thm 5 candidates at
/// `theta`, ascending by id, each with the memo's [`Facts`] about `(g, c)`.
///
/// The row answers `N_θ′(g) ∩ L_q` for every `θ′ ≤ theta` (it
/// [`covers`](Self::covers) θ′) without a band scan: an entry its facts
/// reject is out, one that fails a band at θ′ is out, one its facts accept
/// is in, and only the rest reach the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializedView {
    /// The threshold the candidates were band-scanned at.
    pub theta: f64,
    /// `(candidate, facts)` pairs, ascending by candidate id.
    pub entries: Arc<Vec<(GraphId, Facts)>>,
}

impl MaterializedView {
    /// A row of `entries` (ascending by id) band-scanned at `theta`.
    pub fn new(theta: f64, entries: Vec<(GraphId, Facts)>) -> Self {
        Self {
            theta,
            entries: Arc::new(entries),
        }
    }

    /// Whether the row answers θ′ without a band scan: `θ′ ≤ theta`.
    pub fn covers(&self, theta: f64) -> bool {
        theta <= self.theta
    }

    fn bytes(&self) -> usize {
        std::mem::size_of::<ViewKey>()
            + std::mem::size_of::<Self>()
            + self.entries.len() * std::mem::size_of::<(GraphId, Facts)>()
    }
}

/// The materialized view store: a concurrent LRU of θ-free rows. See the
/// module docs for keying and soundness.
pub struct ViewStore {
    config: CacheConfig,
    inner: TrackedMutex<Lru<ViewKey, MaterializedView>>,
}

impl std::fmt::Debug for ViewStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewStore")
            .field("config", &self.config)
            .field("counters", &self.counters())
            .finish()
    }
}

impl ViewStore {
    /// An empty store with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            inner: TrackedMutex::new("core.views.ViewStore.inner", Lru::new()),
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn key(scope: ViewScope, graph: GraphId) -> ViewKey {
        ViewKey {
            epoch: scope.epoch,
            fingerprint: scope.fingerprint,
            graph,
        }
    }

    /// Looks up the row of `graph` under `scope`. Counts one lookup, a hit
    /// only when the row covers `theta`; a narrower row is still returned,
    /// so its facts can be reused by the band scan the miss leads to.
    pub fn lookup(&self, scope: ViewScope, graph: GraphId, theta: f64) -> Option<MaterializedView> {
        self.inner
            .lock()
            .get(&Self::key(scope, graph), |row| row.covers(theta))
    }

    /// Offers a row for materialization. It is stored unless a resident
    /// row of wider θ already answers more. Returns whether it was admitted.
    pub fn record(&self, scope: ViewScope, graph: GraphId, row: MaterializedView) -> bool {
        let mut inner = self.inner.lock();
        let key = Self::key(scope, graph);
        let wider = |slot: &Slot<MaterializedView>| slot.value.theta > row.theta;
        if inner.entries.get(&key).is_some_and(wider) {
            return false;
        }
        let bytes = row.bytes();
        inner.insert(key, row, bytes, self.config.capacity);
        true
    }

    /// Drops every row (the wholesale epoch-bump invalidation); counters
    /// are kept — history is monotone. Returns how many entries were
    /// dropped.
    pub fn invalidate_all(&self) -> u64 {
        self.inner.lock().invalidate_all()
    }

    /// Atomic counter snapshot (conservation holds exactly; see
    /// [`CacheCounters`]).
    pub fn counters(&self) -> CacheCounters {
        self.inner.lock().counters()
    }

    /// Approximate resident bytes of the rows.
    pub fn memory_bytes(&self) -> usize {
        self.inner.lock().bytes
    }
}

/// Key of one memoized answer: snapshot epoch, exact `(θ, k)`, and the
/// query fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnswerKey {
    /// Mutation epoch of the index snapshot the answer was computed on.
    pub epoch: u64,
    /// `θ.to_bits()` of the run.
    pub theta_bits: u64,
    /// Answer-set budget `k`.
    pub k: usize,
    /// [`query_fingerprint`] of the relevant set.
    pub fingerprint: u64,
}

/// The cross-session answer cache: memoizes whole
/// [`crate::QuerySession::run`] results. Epoch keying makes a stale serve
/// impossible (see module docs); [`AnswerCache::invalidate_all`] reclaims
/// the memory wholesale when the serving layer swaps in a mutated index.
pub struct AnswerCache {
    config: CacheConfig,
    inner: TrackedMutex<Lru<AnswerKey, Arc<AnswerSet>>>,
}

impl std::fmt::Debug for AnswerCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerCache")
            .field("config", &self.config)
            .field("counters", &self.counters())
            .finish()
    }
}

fn answer_bytes(a: &AnswerSet) -> usize {
    std::mem::size_of::<AnswerKey>()
        + std::mem::size_of::<AnswerSet>()
        + a.ids.len() * std::mem::size_of::<GraphId>()
        + a.pi_trajectory.len() * std::mem::size_of::<f64>()
}

impl AnswerCache {
    /// An empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            inner: TrackedMutex::new("core.views.AnswerCache.inner", Lru::new()),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Looks a memoized answer up. Counts one lookup (hit or miss).
    pub fn get(&self, key: &AnswerKey) -> Option<Arc<AnswerSet>> {
        self.inner.lock().get(key, |_| true)
    }

    /// Memoizes an answer under `key`.
    pub fn insert(&self, key: AnswerKey, answer: Arc<AnswerSet>) {
        let bytes = answer_bytes(&answer);
        self.inner
            .lock()
            .insert(key, answer, bytes, self.config.capacity);
    }

    /// Drops every memoized answer (counters are kept — history is
    /// monotone). Returns how many entries were dropped.
    pub fn invalidate_all(&self) -> u64 {
        self.inner.lock().invalidate_all()
    }

    /// Atomic counter snapshot (conservation holds exactly).
    pub fn counters(&self) -> CacheCounters {
        self.inner.lock().counters()
    }

    /// Approximate resident bytes of the memoized answers.
    pub fn memory_bytes(&self) -> usize {
        self.inner.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(epoch: u64) -> ViewScope {
        ViewScope {
            epoch,
            fingerprint: query_fingerprint(&[1, 2, 3]),
        }
    }

    /// A row over `ids` at `theta` whose facts know nothing.
    fn row(theta: f64, ids: &[GraphId]) -> MaterializedView {
        MaterializedView::new(theta, ids.iter().map(|&c| (c, Facts::default())).collect())
    }

    fn ids(v: &MaterializedView) -> Vec<GraphId> {
        v.entries.iter().map(|&(c, _)| c).collect()
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_set_sensitive() {
        assert_eq!(query_fingerprint(&[3, 1, 2]), query_fingerprint(&[1, 2, 3]));
        assert_ne!(query_fingerprint(&[1, 2]), query_fingerprint(&[1, 2, 3]));
        assert_ne!(query_fingerprint(&[]), query_fingerprint(&[0]));
    }

    /// A row at θ answers every θ′ ≤ θ as a hit; θ′ > θ is a miss that
    /// still hands the row back; another epoch or fingerprint sees nothing.
    #[test]
    fn view_store_round_trip_and_conservation() {
        let s = ViewStore::new(CacheConfig::default());
        let sc = scope(0);
        assert!(s.lookup(sc, 7, 2.0).is_none());
        assert!(s.record(sc, 7, row(2.0, &[1, 3])));
        for theta in [2.0, 1.5, 0.0] {
            let v = s.lookup(sc, 7, theta).expect("a covering row must hit");
            assert_eq!(ids(&v), vec![1, 3]);
            assert!(v.covers(theta));
        }
        let wider = s
            .lookup(sc, 7, 2.0 + 1e-9)
            .expect("a narrower row is handed back");
        assert!(!wider.covers(2.0 + 1e-9));
        assert!(s.lookup(scope(1), 7, 2.0).is_none(), "epoch keying");
        let other = ViewScope {
            fingerprint: query_fingerprint(&[1, 2]),
            ..sc
        };
        assert!(s.lookup(other, 7, 2.0).is_none(), "fingerprint keying");
        let c = s.counters();
        assert_eq!(c.lookups, c.hits + c.misses);
        assert_eq!((c.lookups, c.hits), (7, 3));
        assert!(c.memory_bytes > 0);
    }

    /// A row is widened or refreshed in place, never narrowed.
    #[test]
    fn record_never_replaces_a_row_with_a_narrower_one() {
        let s = ViewStore::new(CacheConfig::default());
        let sc = scope(0);
        assert!(s.record(sc, 7, row(2.0, &[1, 3])));
        assert!(!s.record(sc, 7, row(1.0, &[1])));
        assert!(s.record(sc, 7, row(2.0, &[1, 3, 4])), "same θ refreshes");
        assert!(s.record(sc, 7, row(3.0, &[1, 3, 4, 6])), "wider θ replaces");
        let v = s.lookup(sc, 7, 1.0).expect("the widest row answers");
        assert_eq!((v.theta, ids(&v)), (3.0, vec![1, 3, 4, 6]));
        let c = s.counters();
        assert_eq!((c.entries, c.insertions, c.evictions), (1, 3, 2));
    }

    #[test]
    fn lru_evicts_least_recent_and_counts() {
        let s = ViewStore::new(CacheConfig { capacity: 2 });
        let sc = scope(0);
        for g in 0..2u32 {
            assert!(s.record(sc, g, row(1.0, &[g])));
        }
        // Touch graph 0 so graph 1 is the LRU victim.
        assert!(s.lookup(sc, 0, 1.0).is_some());
        assert!(s.record(sc, 2, row(1.0, &[2])));
        assert!(s.lookup(sc, 0, 1.0).is_some());
        assert!(s.lookup(sc, 1, 1.0).is_none(), "LRU victim must be gone");
        assert!(s.lookup(sc, 2, 1.0).is_some());
        let c = s.counters();
        assert_eq!(c.entries, 2);
        assert_eq!(c.insertions, 3);
        assert_eq!(c.evictions, 1);
        assert_eq!(c.lookups, c.hits + c.misses);
    }

    #[test]
    fn zero_capacity_disables_the_store() {
        let s = ViewStore::new(CacheConfig { capacity: 0 });
        let sc = scope(0);
        assert!(s.record(sc, 0, row(1.0, &[0])));
        assert!(s.lookup(sc, 0, 1.0).is_none());
        assert_eq!(s.counters().entries, 0);
        assert_eq!(s.memory_bytes(), 0);
    }

    #[test]
    fn invalidate_all_drops_entries_keeps_history() {
        let s = AnswerCache::new(CacheConfig::default());
        for k in 0..5usize {
            s.insert(
                AnswerKey {
                    epoch: 0,
                    theta_bits: 0,
                    k,
                    fingerprint: 1,
                },
                Arc::new(AnswerSet::default()),
            );
        }
        let before = s.counters();
        assert_eq!(s.invalidate_all(), 5);
        let after = s.counters();
        assert_eq!(after.entries, 0);
        assert_eq!(after.memory_bytes, 0);
        assert_eq!(after.invalidated, 5);
        assert_eq!(after.insertions, before.insertions, "history is monotone");
        assert_eq!(s.invalidate_all(), 0, "second invalidate finds nothing");
    }

    #[test]
    fn answer_cache_round_trip() {
        let s = AnswerCache::new(CacheConfig::default());
        let key = AnswerKey {
            epoch: 3,
            theta_bits: 2.0f64.to_bits(),
            k: 4,
            fingerprint: 11,
        };
        let ans = Arc::new(AnswerSet {
            ids: vec![5, 9],
            covered: 7,
            relevant: 9,
            pi_trajectory: vec![0.5, 0.77],
        });
        assert!(s.get(&key).is_none());
        s.insert(key, Arc::clone(&ans));
        let got = s.get(&key).expect("inserted answer must hit");
        assert_eq!(format!("{got:?}"), format!("{ans:?}"));
        // A different epoch, θ, k, or fingerprint all miss.
        assert!(s.get(&AnswerKey { epoch: 4, ..key }).is_none());
        assert!(s.get(&AnswerKey { k: 5, ..key }).is_none());
        let c = s.counters();
        assert_eq!(c.lookups, c.hits + c.misses);
        assert!(c.memory_bytes > 0);
    }
}

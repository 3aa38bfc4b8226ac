//! Database-level distance oracle with caching and call accounting.
//!
//! Everything above the raw engine — the greedy algorithms, the NB-Index,
//! every baseline — talks to a [`DistanceOracle`]: distances are addressed by
//! [`GraphId`], results are memoized, and the number of *engine* calls (the
//! paper's cost unit) is tracked.
//!
//! The caches are sharded 64 ways by pair key so concurrent distance
//! evaluation (the rayon-parallel index build, insert sweeps and offline
//! baselines; the server's workers running sessions side by side) doesn't
//! serialize on a global lock. Exact distances live in per-pair
//! [`OnceLock`] cells, and `within` misses rendezvous on per-`(pair, τ)`
//! verdict cells: when many threads race on the same uncached request,
//! exactly one runs the NP-hard engine computation and the rest block on the
//! cell, so engine-call accounting stays exact under any interleaving —
//! every non-self request increments exactly one of
//! `distance_computations` / `within_rejections` / `cache_hits` /
//! `ub_accepts`.
//!
//! [`DistanceOracle::within_verdict`] additionally runs a ladder of cheap
//! filter tiers (size → profiled label → degree sequence → metric hints)
//! before falling back to the engine; every tier is verdict-identical to the
//! engine, so answers are byte-for-byte independent of tiering and thread
//! count.

use crate::bounds::{degree_sequence_bound, label_lower_bound_profiled, size_lower_bound_profiled};
use crate::engine::{GedEngine, GedMode};
use crate::profile::{profiles_for, GraphProfile};
use graphrep_graph::{Graph, GraphId};
use graphrep_lockaudit::TrackedRwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Statistics of oracle usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Engine invocations that produced an exact cached distance.
    pub distance_computations: u64,
    /// Rejected verdicts: `within`/`within_verdict` decisions of "outside τ",
    /// whether decided by the engine or by a cheap filter tier.
    pub within_rejections: u64,
    /// Requests answered from cache.
    pub cache_hits: u64,
    /// Accepted `within_verdict` decisions certified by a metric upper bound
    /// with no engine call and no exact distance produced.
    pub ub_accepts: u64,
}

/// Per-tier attribution of [`DistanceOracle::within_verdict`] decisions made
/// without invoking the distance engine. Diagnostics only: the conservation
/// identity is carried by [`OracleStats`], of which these are a breakdown
/// (`size + label + degree + vantage_lb ≤ within_rejections`,
/// `vantage_ub == ub_accepts`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Rejections by the size lower bound.
    pub size_rejects: u64,
    /// Rejections by the profiled label lower bound.
    pub label_rejects: u64,
    /// Rejections by the degree-sequence lower bound.
    pub degree_rejects: u64,
    /// Rejections by the metric-hint (Lipschitz) lower bound.
    pub vantage_lb_rejects: u64,
    /// Acceptances by the metric-hint (triangle) upper bound.
    pub vantage_ub_accepts: u64,
}

/// Cheap per-pair metric bounds supplied by an index structure — in practice
/// the VantageTable's Lipschitz embedding (paper Sec 6.2), whose pivot rows
/// give both `max_v |d(v,i) − d(v,j)| ≤ d(i,j)` and
/// `d(i,j) ≤ min_v (d(v,i) + d(v,j))`.
///
/// Contract: both methods must already account for any storage rounding —
/// [`MetricHints::lower_bound`] never exceeds and [`MetricHints::upper_bound`]
/// never undercuts the value the engine would certify, *provided the pivot
/// distances are exact*. The oracle additionally gates every hint use on the
/// engine being in exact mode with zero budget fallbacks, so a degraded
/// engine silently disables the hint tier rather than risking a verdict that
/// differs from the engine's.
pub trait MetricHints: Send + Sync + std::fmt::Debug {
    /// A sound lower bound on `d(i, j)`.
    fn lower_bound(&self, i: GraphId, j: GraphId) -> f64;
    /// A sound upper bound on `d(i, j)` (may be `f64::INFINITY`).
    fn upper_bound(&self, i: GraphId, j: GraphId) -> f64;
}

#[inline]
fn key(i: GraphId, j: GraphId) -> u64 {
    let (a, b) = if i <= j { (i, j) } else { (j, i) };
    ((a as u64) << 32) | b as u64
}

/// Number of cache shards. Pair keys hash-spread across shards so parallel
/// phases rarely contend on a lock; 64 comfortably exceeds any realistic
/// worker count while keeping the per-oracle footprint trivial.
const NUM_SHARDS: usize = 64;

#[inline]
fn shard_of(key: u64) -> usize {
    // Fibonacci multiplicative hash: consecutive pair keys (the common
    // access pattern in matrix-style phases) land on different shards.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
}

/// A shared `within` verdict: `Some(d)` accepts with the exact distance,
/// `None` rejects (`d > τ`).
type WithinCell = Arc<OnceLock<Option<f64>>>;

/// A shared boolean θ-membership verdict for [`DistanceOracle::within_verdict`].
type VerdictCell = Arc<OnceLock<bool>>;

/// One cache shard: exact distances plus known strict lower bounds.
struct Shard {
    /// Exact distances. Each pair owns a [`OnceLock`] cell so that racing
    /// threads agree on a single engine computation.
    exact: TrackedRwLock<HashMap<u64, Arc<OnceLock<f64>>>>,
    /// Known strict lower bounds: `d(i, j) > lower[key]`.
    lower: TrackedRwLock<HashMap<u64, f64>>,
    /// Known upper bounds: `d(i, j) ≤ upper[key]`, from hint-certified
    /// accepts that never produced an exact distance.
    upper: TrackedRwLock<HashMap<u64, f64>>,
    /// `within` verdicts keyed by `(pair, τ bits)`. Threads racing the same
    /// uncached threshold test rendezvous here so only one runs the engine;
    /// `Some(d)` means `d(i, j) = d ≤ τ`, `None` means `d(i, j) > τ`.
    within: TrackedRwLock<HashMap<(u64, u64), WithinCell>>,
    /// Boolean verdicts of the tiered `within_verdict` path, keyed the same
    /// way; the winner evaluates the tier ladder exactly once per `(pair, τ)`.
    verdict: TrackedRwLock<HashMap<(u64, u64), VerdictCell>>,
}

impl Shard {
    /// An empty shard. Site names identify the *field* across all
    /// [`NUM_SHARDS`] instances — the static lock graph cannot distinguish
    /// instances, and the runtime witness mirrors that (same-site pairs are
    /// self-edges and skipped).
    fn new() -> Shard {
        Shard {
            exact: TrackedRwLock::new("ged.cache.Shard.exact", HashMap::new()),
            lower: TrackedRwLock::new("ged.cache.Shard.lower", HashMap::new()),
            upper: TrackedRwLock::new("ged.cache.Shard.upper", HashMap::new()),
            within: TrackedRwLock::new("ged.cache.Shard.within", HashMap::new()),
            verdict: TrackedRwLock::new("ged.cache.Shard.verdict", HashMap::new()),
        }
    }

    /// The pair's exact-distance cell, creating an empty one if absent.
    fn cell(&self, key: u64) -> Arc<OnceLock<f64>> {
        if let Some(cell) = self.exact.read().get(&key) {
            return Arc::clone(cell);
        }
        Arc::clone(self.exact.write().entry(key).or_default())
    }

    /// The pair's exact distance, if already computed.
    fn exact_get(&self, key: u64) -> Option<f64> {
        self.exact
            .read()
            .get(&key)
            .and_then(|cell| cell.get().copied())
    }

    /// The `(pair, τ)` within-verdict cell, creating an empty one if absent.
    fn within_cell(&self, key: u64, tau: f64) -> WithinCell {
        let k = (key, tau.to_bits());
        if let Some(cell) = self.within.read().get(&k) {
            return Arc::clone(cell);
        }
        Arc::clone(self.within.write().entry(k).or_default())
    }

    /// The `(pair, τ)` boolean verdict cell, creating an empty one if absent.
    fn verdict_cell(&self, key: u64, tau: f64) -> VerdictCell {
        let k = (key, tau.to_bits());
        if let Some(cell) = self.verdict.read().get(&k) {
            return Arc::clone(cell);
        }
        Arc::clone(self.verdict.write().entry(k).or_default())
    }

    /// Records the lower-bound fact `d > lb`, keeping the strongest.
    fn note_lower(&self, key: u64, lb: f64) {
        let mut lw = self.lower.write();
        let e = lw.entry(key).or_insert(lb);
        if *e < lb {
            *e = lb;
        }
    }

    /// Records the upper-bound fact `d ≤ ub`, keeping the strongest.
    fn note_upper(&self, key: u64, ub: f64) {
        let mut uw = self.upper.write();
        let e = uw.entry(key).or_insert(ub);
        if *e > ub {
            *e = ub;
        }
    }

    /// A copy of this shard sharing every memoized cell: pair keys encode
    /// graph ids, which are stable under extension, so the new oracle's
    /// shard answers exactly what this one would for the old id range.
    fn transplanted(&self) -> Shard {
        Shard {
            exact: TrackedRwLock::new("ged.cache.Shard.exact", self.exact.read().clone()),
            lower: TrackedRwLock::new("ged.cache.Shard.lower", self.lower.read().clone()),
            upper: TrackedRwLock::new("ged.cache.Shard.upper", self.upper.read().clone()),
            within: TrackedRwLock::new("ged.cache.Shard.within", self.within.read().clone()),
            verdict: TrackedRwLock::new("ged.cache.Shard.verdict", self.verdict.read().clone()),
        }
    }
}

/// Caching, counting distance oracle over a fixed graph collection.
pub struct DistanceOracle {
    graphs: Arc<Vec<Graph>>,
    /// Per-graph sorted invariants, index-aligned with `graphs`; computed
    /// once here so every bound tier is an O(n) merge.
    profiles: Vec<GraphProfile>,
    engine: GedEngine,
    shards: [Shard; NUM_SHARDS],
    /// Index-supplied metric bounds (Lipschitz embedding); installed after
    /// the vantage table is built, absent before.
    hints: TrackedRwLock<Option<Arc<dyn MetricHints>>>,
    /// Whether `within_verdict` may use the cheap filter tiers at all;
    /// disabled only for baseline comparison runs.
    tiers_enabled: AtomicBool,
    computations: AtomicU64,
    rejections: AtomicU64,
    hits: AtomicU64,
    ub_accepts: AtomicU64,
    tier_size: AtomicU64,
    tier_label: AtomicU64,
    tier_degree: AtomicU64,
    tier_vlb: AtomicU64,
    /// Total non-self requests, tallied only in audit builds to check the
    /// conservation identity
    /// `computations + rejections + hits + ub_accepts == requests`.
    #[cfg(feature = "invariant-audit")]
    requests: AtomicU64,
}

/// The oracle is shared across rayon workers by reference.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<DistanceOracle>();

impl std::fmt::Debug for DistanceOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let exact: usize = self.shards.iter().map(|s| s.exact.read().len()).sum();
        let lower: usize = self.shards.iter().map(|s| s.lower.read().len()).sum();
        f.debug_struct("DistanceOracle")
            .field("graphs", &self.graphs.len())
            .field("cached_exact", &exact)
            .field("cached_lower", &lower)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DistanceOracle {
    /// Creates an oracle over `graphs` backed by `engine`.
    pub fn new(graphs: Arc<Vec<Graph>>, engine: GedEngine) -> Self {
        let profiles = profiles_for(&graphs);
        Self {
            graphs,
            profiles,
            engine,
            shards: std::array::from_fn(|_| Shard::new()),
            hints: TrackedRwLock::new("ged.cache.DistanceOracle.hints", None),
            tiers_enabled: AtomicBool::new(true),
            computations: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            ub_accepts: AtomicU64::new(0),
            tier_size: AtomicU64::new(0),
            tier_label: AtomicU64::new(0),
            tier_degree: AtomicU64::new(0),
            tier_vlb: AtomicU64::new(0),
            #[cfg(feature = "invariant-audit")]
            requests: AtomicU64::new(0),
        }
    }

    /// A new oracle over this oracle's graphs plus `graph` appended as the
    /// next id.
    ///
    /// Graph ids are stable under extension, so every memoized distance,
    /// bound, and verdict is transplanted into the new oracle and all
    /// counter totals carry forward — callers holding delta baselines (the
    /// serve registry) or relying on the conservation identity see one
    /// continuous history across the swap. Metric hints are *not* carried:
    /// the vantage table they wrap predates the new graph, so the caller
    /// must re-install hints after extending its embedding.
    pub fn extended(&self, graph: Graph) -> DistanceOracle {
        let mut graphs: Vec<Graph> = self.graphs.as_ref().clone();
        let mut profiles = self.profiles.clone();
        profiles.push(GraphProfile::new(&graph));
        graphs.push(graph);
        self.clone_with(Arc::new(graphs), profiles)
    }

    /// A new oracle over the *same* graphs with every memoized result and
    /// counter carried forward, but no metric hints installed.
    ///
    /// Used when an index rebuild swaps in a new embedding: installing the
    /// rebuilt hints on a fork leaves sessions pinned to the old oracle (and
    /// its old embedding) entirely undisturbed.
    pub fn forked(&self) -> DistanceOracle {
        self.clone_with(Arc::clone(&self.graphs), self.profiles.clone())
    }

    /// Shared tail of [`DistanceOracle::extended`]/[`DistanceOracle::forked`].
    fn clone_with(&self, graphs: Arc<Vec<Graph>>, profiles: Vec<GraphProfile>) -> DistanceOracle {
        Self {
            graphs,
            profiles,
            engine: self.engine.fork(),
            shards: std::array::from_fn(|i| self.shards[i].transplanted()),
            hints: TrackedRwLock::new("ged.cache.DistanceOracle.hints", None),
            // Config-style flag, not synchronization.
            tiers_enabled: AtomicBool::new(self.tiers_enabled.load(Ordering::Relaxed)),
            // Counters are independent tallies copied at a quiescent point.
            computations: AtomicU64::new(self.computations.load(Ordering::Relaxed)),
            rejections: AtomicU64::new(self.rejections.load(Ordering::Relaxed)),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            ub_accepts: AtomicU64::new(self.ub_accepts.load(Ordering::Relaxed)),
            tier_size: AtomicU64::new(self.tier_size.load(Ordering::Relaxed)),
            tier_label: AtomicU64::new(self.tier_label.load(Ordering::Relaxed)),
            tier_degree: AtomicU64::new(self.tier_degree.load(Ordering::Relaxed)),
            tier_vlb: AtomicU64::new(self.tier_vlb.load(Ordering::Relaxed)),
            #[cfg(feature = "invariant-audit")]
            // Quiescent-point tally copy, same as the counters above.
            requests: AtomicU64::new(self.requests.load(Ordering::Relaxed)),
        }
    }

    /// The underlying graphs.
    pub fn graphs(&self) -> &[Graph] {
        &self.graphs
    }

    /// Shared handle to the underlying graphs.
    pub fn graphs_arc(&self) -> Arc<Vec<Graph>> {
        Arc::clone(&self.graphs)
    }

    /// Number of graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The precomputed profile of graph `i`, for callers that take one of
    /// this oracle's graphs to an engine's `*_profiled` entry points.
    pub fn profile(&self, i: GraphId) -> &GraphProfile {
        &self.profiles[i as usize]
    }

    /// The engine (for counter access).
    pub fn engine(&self) -> &GedEngine {
        &self.engine
    }

    /// Exact distance between graphs `i` and `j` (cached).
    ///
    /// Concurrent calls on the same uncached pair run the engine exactly
    /// once: the winner counts a computation, everyone else blocks on the
    /// pair's cell and counts a cache hit.
    pub fn distance(&self, i: GraphId, j: GraphId) -> f64 {
        if i == j {
            return 0.0;
        }
        let k = key(i, j);
        self.note_request();
        let cell = self.shards[shard_of(k)].cell(k);
        let mut computed = false;
        let d = *cell.get_or_init(|| {
            computed = true;
            // Independent event tally; no cross-counter ordering is consumed.
            self.computations.fetch_add(1, Ordering::Relaxed);
            self.engine.distance_profiled(
                &self.graphs[i as usize],
                &self.graphs[j as usize],
                &self.profiles[i as usize],
                &self.profiles[j as usize],
            )
        });
        if !computed {
            // Independent event tally; no cross-counter ordering is consumed.
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        d
    }

    /// Returns `Some(d)` iff `d(i, j) = d ≤ tau`, consulting the caches
    /// before the engine.
    ///
    /// Concurrent calls on the same uncached `(pair, tau)` run the engine
    /// exactly once: the winner counts a computation or rejection, everyone
    /// else blocks on the verdict cell and counts a cache hit.
    pub fn within(&self, i: GraphId, j: GraphId, tau: f64) -> Option<f64> {
        if i == j {
            return Some(0.0);
        }
        let k = key(i, j);
        self.note_request();
        let shard = &self.shards[shard_of(k)];
        if let Some(d) = shard.exact_get(k) {
            // Independent event tally; no cross-counter ordering is consumed.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (d <= tau + 1e-9).then_some(d);
        }
        if let Some(&lb) = shard.lower.read().get(&k) {
            if lb >= tau - 1e-9 {
                // d > lb ≥ tau: certainly outside. Independent event tally.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        let cell = shard.within_cell(k, tau);
        let mut ran_engine = false;
        let verdict = *cell.get_or_init(|| {
            // A concurrent `distance` may have resolved the pair between the
            // cache probe above and winning this cell; re-check before
            // paying for the engine.
            if let Some(d) = shard.exact_get(k) {
                return (d <= tau + 1e-9).then_some(d);
            }
            ran_engine = true;
            match self.engine.distance_within_profiled(
                &self.graphs[i as usize],
                &self.graphs[j as usize],
                &self.profiles[i as usize],
                &self.profiles[j as usize],
                tau,
            ) {
                Some(d) => {
                    // Independent event tally; the verdict cell publishes.
                    self.computations.fetch_add(1, Ordering::Relaxed);
                    // A concurrent `distance` may have filled the cell with
                    // the same exact value already; the failed set is
                    // harmless.
                    let _ = shard.cell(k).set(d);
                    Some(d)
                }
                None => {
                    // Independent event tally; the verdict cell publishes.
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    shard.note_lower(k, tau);
                    None
                }
            }
        });
        if !ran_engine {
            // Independent event tally; no cross-counter ordering is consumed.
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Returns `true` iff `d(i, j) ≤ tau`, deciding through the tiered filter
    /// ladder: caches, then size / profiled-label / degree-sequence lower
    /// bounds, then the installed [`MetricHints`] (Lipschitz lower bound and
    /// triangle upper bound), and only then the engine.
    ///
    /// The verdict is identical to `self.within(i, j, tau).is_some()` in every
    /// case — each lower-bound tier is sound (`bound > τ` implies the true
    /// distance exceeds `τ`) and the upper-bound tier only accepts when the
    /// true distance is certainly within `τ` — but unlike [`Self::within`] an
    /// upper-bound acceptance produces no exact distance, so callers that
    /// need the value afterwards should consult [`Self::cached_distance`].
    ///
    /// Hint tiers are additionally gated on the engine being in exact mode
    /// with zero budget fallbacks: a degraded engine certifies verdicts about
    /// its bipartite bound rather than the true distance, and only the
    /// engine's own verdict is authoritative then.
    ///
    /// Accounting: concurrent calls on the same uncached `(pair, tau)`
    /// evaluate the ladder exactly once; the winner increments exactly one of
    /// `distance_computations` / `within_rejections` / `ub_accepts`, everyone
    /// else counts a cache hit.
    pub fn within_verdict(&self, i: GraphId, j: GraphId, tau: f64) -> bool {
        if i == j {
            return true;
        }
        let k = key(i, j);
        self.note_request();
        let shard = &self.shards[shard_of(k)];
        if let Some(d) = shard.exact_get(k) {
            // Independent event tally; no cross-counter ordering is consumed.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return d <= tau + 1e-9;
        }
        if let Some(&lb) = shard.lower.read().get(&k) {
            if lb >= tau - 1e-9 {
                // d > lb ≥ tau: certainly outside. Independent event tally.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        if let Some(&ub) = shard.upper.read().get(&k) {
            if ub <= tau + 1e-9 {
                // d ≤ ub ≤ tau: certainly inside. Independent event tally.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        let cell = shard.verdict_cell(k, tau);
        let mut counted = false;
        let verdict = *cell.get_or_init(|| {
            // A concurrent call may have resolved the pair between the cache
            // probes above and winning this cell; re-check before paying for
            // any tier.
            if let Some(d) = shard.exact_get(k) {
                return d <= tau + 1e-9;
            }
            let p1 = &self.profiles[i as usize];
            let p2 = &self.profiles[j as usize];
            // Tier gating reads are config-style flags, not synchronization.
            if self.tiers_enabled.load(Ordering::Relaxed) {
                let c = &self.engine.config().cost;
                if size_lower_bound_profiled(p1, p2, c) > tau + 1e-9 {
                    counted = true;
                    // Independent event tallies; the verdict cell publishes.
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    self.tier_size.fetch_add(1, Ordering::Relaxed);
                    shard.note_lower(k, tau);
                    return false;
                }
                if label_lower_bound_profiled(p1, p2, c) > tau + 1e-9 {
                    counted = true;
                    // Independent event tallies; the verdict cell publishes.
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    self.tier_label.fetch_add(1, Ordering::Relaxed);
                    shard.note_lower(k, tau);
                    return false;
                }
                if degree_sequence_bound(p1, p2, c) > tau + 1e-9 {
                    counted = true;
                    // Independent event tallies; the verdict cell publishes.
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    self.tier_degree.fetch_add(1, Ordering::Relaxed);
                    shard.note_lower(k, tau);
                    return false;
                }
                let hints = self.hints.read().as_ref().map(Arc::clone);
                if let Some(h) = hints {
                    if self.hints_sound() {
                        let hub = h.upper_bound(i, j);
                        if hub <= tau + 1e-9 {
                            counted = true;
                            // Independent event tally; the verdict cell
                            // publishes.
                            self.ub_accepts.fetch_add(1, Ordering::Relaxed);
                            shard.note_upper(k, hub);
                            return true;
                        }
                        let hlb = h.lower_bound(i, j);
                        if hlb > tau + 1e-9 {
                            counted = true;
                            // Independent event tallies; the verdict cell
                            // publishes.
                            self.rejections.fetch_add(1, Ordering::Relaxed);
                            self.tier_vlb.fetch_add(1, Ordering::Relaxed);
                            shard.note_lower(k, tau);
                            return false;
                        }
                    }
                }
            }
            counted = true;
            match self.engine.distance_within_profiled(
                &self.graphs[i as usize],
                &self.graphs[j as usize],
                p1,
                p2,
                tau,
            ) {
                Some(d) => {
                    // Independent event tally; the verdict cell publishes.
                    self.computations.fetch_add(1, Ordering::Relaxed);
                    // A concurrent `distance` may have filled the cell with
                    // the same exact value already; the failed set is
                    // harmless.
                    let _ = shard.cell(k).set(d);
                    true
                }
                None => {
                    // Independent event tally; the verdict cell publishes.
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    shard.note_lower(k, tau);
                    false
                }
            }
        });
        if !counted {
            // Independent event tally; no cross-counter ordering is consumed.
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Whether hint bounds about the *true* distance may substitute for the
    /// engine's verdict: requires exact mode and zero budget fallbacks so
    /// far, because a budget-degraded engine certifies its bipartite bound
    /// rather than the true distance.
    fn hints_sound(&self) -> bool {
        matches!(self.engine.config().mode, GedMode::Exact)
            && self.engine.counters().snapshot().budget_fallbacks == 0
    }

    /// The exact distance between `i` and `j` if it is already known without
    /// any engine work: `Some(0.0)` for `i == j`, otherwise the pair's
    /// exact-cache entry. Never counts a request, a hit, or an engine call.
    pub fn cached_distance(&self, i: GraphId, j: GraphId) -> Option<f64> {
        if i == j {
            return Some(0.0);
        }
        let k = key(i, j);
        self.shards[shard_of(k)].exact_get(k)
    }

    /// Installs index-supplied metric bounds for [`Self::within_verdict`]'s
    /// hint tier (replacing any previous hints).
    pub fn set_hints(&self, hints: Arc<dyn MetricHints>) {
        *self.hints.write() = Some(hints);
    }

    /// Enables or disables the cheap filter tiers of
    /// [`Self::within_verdict`]; verdicts are identical either way, only the
    /// cost of reaching them changes. Intended for baseline comparison runs.
    pub fn set_tiers_enabled(&self, enabled: bool) {
        // Config-style flag, not synchronization.
        self.tiers_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Per-tier attribution of engine-free [`Self::within_verdict`] decisions.
    pub fn tier_stats(&self) -> TierStats {
        TierStats {
            // Counters are independent tallies read at quiescent points.
            size_rejects: self.tier_size.load(Ordering::Relaxed),
            label_rejects: self.tier_label.load(Ordering::Relaxed),
            degree_rejects: self.tier_degree.load(Ordering::Relaxed),
            vantage_lb_rejects: self.tier_vlb.load(Ordering::Relaxed),
            vantage_ub_accepts: self.ub_accepts.load(Ordering::Relaxed),
        }
    }

    /// Usage statistics.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            // Counters are independent tallies read at quiescent points.
            distance_computations: self.computations.load(Ordering::Relaxed),
            within_rejections: self.rejections.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            ub_accepts: self.ub_accepts.load(Ordering::Relaxed),
        }
    }

    /// Total engine invocations (computations + rejections).
    pub fn engine_calls(&self) -> u64 {
        // Counters are independent tallies read at quiescent points.
        self.computations.load(Ordering::Relaxed) + self.rejections.load(Ordering::Relaxed)
    }

    /// Clears counters (the caches are kept).
    pub fn reset_stats(&self) {
        // Counters are independent tallies; resets happen at quiescent points.
        self.computations.store(0, Ordering::Relaxed);
        self.rejections.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.ub_accepts.store(0, Ordering::Relaxed);
        self.tier_size.store(0, Ordering::Relaxed);
        self.tier_label.store(0, Ordering::Relaxed);
        self.tier_degree.store(0, Ordering::Relaxed);
        self.tier_vlb.store(0, Ordering::Relaxed);
        self.reset_request_tally();
    }

    /// Tallies one non-self request for conservation checking (audit builds).
    #[cfg(feature = "invariant-audit")]
    #[inline]
    fn note_request(&self) {
        // Audit-only tally; read quiescently by the conservation audit.
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(not(feature = "invariant-audit"))]
    #[inline(always)]
    fn note_request(&self) {}

    #[cfg(feature = "invariant-audit")]
    fn reset_request_tally(&self) {
        // Audit-only tally; reset at the same quiescent points as the stats.
        self.requests.store(0, Ordering::Relaxed);
    }

    #[cfg(not(feature = "invariant-audit"))]
    fn reset_request_tally(&self) {}

    /// True when every distance this oracle has produced is exact: the
    /// engine runs in `Exact` mode and has recorded no budget fallbacks.
    ///
    /// Metric-dependent audits (triangle-inequality facts, Thm 4/5 bound
    /// admissibility) only hold for exact distances, so they consult this
    /// before asserting. Compiled only under the `invariant-audit` feature.
    #[cfg(feature = "invariant-audit")]
    pub fn audit_distances_exact(&self) -> bool {
        matches!(self.engine.config().mode, crate::engine::GedMode::Exact)
            && self.engine.counters().snapshot().budget_fallbacks == 0
    }

    /// Checks the accounting identity behind the concurrency layer's
    /// determinism guarantees: every non-self request increments exactly one
    /// of `distance_computations` / `within_rejections` / `cache_hits` /
    /// `ub_accepts`, and the tier breakdown never exceeds the rejection total.
    ///
    /// Sound under concurrent oracle traffic: a request ticks `requests`
    /// before its outcome counter, so a snapshot can transiently observe
    /// `outcomes < requests` while calls are in flight. A genuine leak (a
    /// request that finished without an outcome) is *permanent*, so the
    /// audit retries across short yields and only aborts when the imbalance
    /// never clears. Compiled only under the `invariant-audit` feature.
    #[cfg(feature = "invariant-audit")]
    pub fn audit_counter_conservation(&self) {
        const SAMPLES: usize = 64;
        let mut s = self.stats();
        for attempt in 1..=SAMPLES {
            // Audit-only tally, read after the outcomes: any in-flight
            // request missing from the outcome sums is still ticked here,
            // so a clean snapshot shows exact equality.
            let q = self.requests.load(Ordering::Relaxed);
            if s.distance_computations + s.within_rejections + s.cache_hits + s.ub_accepts == q {
                break;
            }
            crate::audit_invariant!(
                attempt < SAMPLES,
                "oracle counter conservation: {} computations + {} rejections + {} hits + {} ub accepts != {} requests (imbalance persisted across {} samples)",
                s.distance_computations,
                s.within_rejections,
                s.cache_hits,
                s.ub_accepts,
                q,
                SAMPLES
            );
            std::thread::yield_now();
            s = self.stats();
        }
        let t = self.tier_stats();
        crate::audit_invariant!(
            t.size_rejects + t.label_rejects + t.degree_rejects + t.vantage_lb_rejects
                <= s.within_rejections,
            "oracle tier attribution: {:?} exceeds {} rejections",
            t,
            s.within_rejections
        );
    }

    /// Clears the memoized distances *and* counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.exact.write().clear();
            shard.lower.write().clear();
            shard.upper.write().clear();
            shard.within.write().clear();
            shard.verdict.write().clear();
        }
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GedConfig;
    use graphrep_graph::generate::random_connected;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn oracle(n: usize, seed: u64) -> DistanceOracle {
        let mut rng = SmallRng::seed_from_u64(seed);
        let graphs: Vec<Graph> = (0..n)
            .map(|_| random_connected(&mut rng, 5, 2, &[0, 1, 2], &[3, 4]))
            .collect();
        DistanceOracle::new(Arc::new(graphs), GedEngine::new(GedConfig::default()))
    }

    #[test]
    fn self_distance_is_zero_and_free() {
        let o = oracle(3, 1);
        assert_eq!(o.distance(1, 1), 0.0);
        assert_eq!(o.stats().distance_computations, 0);
    }

    #[test]
    fn distance_is_cached() {
        let o = oracle(3, 2);
        let d1 = o.distance(0, 1);
        let d2 = o.distance(1, 0);
        assert_eq!(d1, d2);
        let s = o.stats();
        assert_eq!(s.distance_computations, 1);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn within_uses_exact_cache() {
        let o = oracle(3, 3);
        let d = o.distance(0, 2);
        assert_eq!(o.within(0, 2, d), Some(d));
        assert_eq!(o.within(0, 2, d - 0.5), None);
        assert_eq!(o.stats().distance_computations, 1);
    }

    #[test]
    fn within_rejection_cached_as_lower_bound() {
        let o = oracle(4, 4);
        let d = o.distance(1, 2);
        o.clear();
        if d > 1.0 {
            assert_eq!(o.within(1, 2, 1.0), None);
            let before = o.engine_calls();
            // A second query at the same or smaller tau is answered from the
            // lower-bound cache.
            assert_eq!(o.within(1, 2, 0.5), None);
            assert_eq!(o.engine_calls(), before);
        }
    }

    #[test]
    fn stats_reset() {
        let o = oracle(3, 5);
        let _ = o.distance(0, 1);
        o.reset_stats();
        assert_eq!(o.stats(), OracleStats::default());
        // Cache retained: next call is a hit.
        let _ = o.distance(0, 1);
        assert_eq!(o.stats().cache_hits, 1);
    }

    #[test]
    fn len_and_graph_access() {
        let o = oracle(5, 6);
        assert_eq!(o.len(), 5);
        assert!(!o.is_empty());
        assert_eq!(o.graphs().len(), 5);
    }

    #[test]
    fn within_verdict_agrees_with_within() {
        let tiered = oracle(6, 7);
        let plain = oracle(6, 7);
        for i in 0..6u32 {
            for j in 0..6u32 {
                for tau in [0.5, 2.0, 4.0, 8.0] {
                    assert_eq!(
                        tiered.within_verdict(i, j, tau),
                        plain.within(i, j, tau).is_some(),
                        "pair ({i}, {j}) at tau {tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn within_verdict_tiers_off_agrees() {
        let on = oracle(6, 7);
        let off = oracle(6, 7);
        off.set_tiers_enabled(false);
        for i in 0..6u32 {
            for j in 0..6u32 {
                for tau in [0.5, 2.0, 4.0] {
                    assert_eq!(on.within_verdict(i, j, tau), off.within_verdict(i, j, tau));
                }
            }
        }
        assert_eq!(off.tier_stats(), TierStats::default());
    }

    #[test]
    fn cached_distance_reports_only_known_values() {
        let o = oracle(3, 8);
        assert_eq!(o.cached_distance(1, 1), Some(0.0));
        assert_eq!(o.cached_distance(0, 1), None);
        let before = o.stats();
        assert_eq!(o.cached_distance(0, 1), None);
        assert_eq!(o.stats(), before);
        let d = o.distance(0, 1);
        assert_eq!(o.cached_distance(0, 1), Some(d));
        assert_eq!(o.cached_distance(1, 0), Some(d));
    }

    #[derive(Debug)]
    struct PerfectHints(Vec<Vec<f64>>);

    impl MetricHints for PerfectHints {
        fn lower_bound(&self, i: GraphId, j: GraphId) -> f64 {
            self.0[i as usize][j as usize]
        }
        fn upper_bound(&self, i: GraphId, j: GraphId) -> f64 {
            self.0[i as usize][j as usize]
        }
    }

    #[test]
    fn hint_tier_decides_without_engine() {
        let o = oracle(5, 9);
        let n = o.len();
        let mut m = vec![vec![0.0_f64; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, d) in row.iter_mut().enumerate() {
                *d = o.distance(i as GraphId, j as GraphId);
            }
        }
        o.clear();
        o.set_hints(Arc::new(PerfectHints(m.clone())));
        for i in 0..n as GraphId {
            for j in 0..n as GraphId {
                for tau in [1.0, 3.0, 6.0] {
                    assert_eq!(
                        o.within_verdict(i, j, tau),
                        m[i as usize][j as usize] <= tau + 1e-9
                    );
                }
            }
        }
        // Perfect hints decide every first evaluation that reaches the hint
        // tier; the engine's exact search never runs after the clear.
        assert_eq!(o.stats().distance_computations, 0);
        assert!(o.tier_stats().vantage_ub_accepts > 0);
        assert_eq!(o.stats().ub_accepts, o.tier_stats().vantage_ub_accepts);
    }

    #[test]
    fn ub_accept_is_reused_from_upper_cache() {
        let o = oracle(4, 10);
        let d = o.distance(0, 1);
        o.clear();
        let m = vec![vec![0.0, d, 9.0, 9.0]; 4];
        o.set_hints(Arc::new(PerfectHints(m)));
        assert!(o.within_verdict(0, 1, d + 1.0));
        let accepts = o.stats().ub_accepts;
        assert_eq!(accepts, 1);
        // Looser tau on the same pair: answered by the upper-bound cache.
        assert!(o.within_verdict(0, 1, d + 2.0));
        assert_eq!(o.stats().ub_accepts, accepts);
        assert_eq!(o.stats().cache_hits, 1);
    }
}

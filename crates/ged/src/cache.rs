//! Database-level distance oracle with caching and call accounting.
//!
//! Everything above the raw engine — the greedy algorithms, the NB-Index,
//! every baseline — talks to a [`DistanceOracle`]: distances are addressed by
//! [`GraphId`], results are memoized, and the number of *engine* calls (the
//! paper's cost unit) is tracked.
//!
//! An oracle is a per-generation view (graph rows, their profiles, the
//! installed metric hints) over one shared memo: the engine, the counters
//! and a table of per-pair facts — the exact distance once known, the
//! strongest strict lower bound, the strongest upper bound. A fact about a
//! pair of ids holds for as long as the ids do, and every tier is
//! verdict-identical to the engine, so [`DistanceOracle::extended`] and
//! [`DistanceOracle::forked`] hand the successor generation the same memo:
//! sessions pinned to an old generation and sessions on the new one read and
//! fill the same cells, and the counters are one continuous history.
//!
//! The table, a [`FactTable`], is sharded 64 ways by pair key so
//! concurrent distance evaluation (the rayon-parallel index build, insert
//! sweeps and offline baselines; the server's workers running sessions side
//! by side) doesn't serialize on a global lock. A request the facts cannot
//! answer rendezvouses on its pair's in-flight [`OnceLock`] cell: exactly
//! one racer runs the ladder or the NP-hard engine, publishes what it
//! learned as a fact and drops the cell; the rest block on the cell, then
//! read the fact.
//! Engine-call accounting therefore stays exact under any interleaving —
//! every non-self request increments exactly one of
//! `distance_computations` / `within_rejections` / `cache_hits` /
//! `ub_accepts` — and the table holds one entry per pair however many
//! distinct thresholds are asked.
//!
//! The oracle asks one question, [`DistanceOracle::ask`]: is `d(i, j) ≤ τ`?
//! It reads the facts, then runs a ladder of cheap filter tiers (size →
//! profiled label → degree sequence → metric hints) before the engine's
//! [`GedEngine::ask`]; every tier is verdict-identical to the engine, so
//! answers are byte-for-byte independent of tiering and thread count.
//! [`DistanceOracle::distance`] is the same engine question at `τ = ∞`, and
//! one private function turns every engine answer into a tally tick and a
//! fact.

use crate::bounds::{degree_sequence_bound, label_lower_bound_profiled, size_lower_bound_profiled};
use crate::cost::CostModel;
use crate::engine::{inside, Fact, GedEngine, GedMode};
use crate::profile::GraphProfile;
use graphrep_graph::{Graph, GraphId};
use graphrep_lockaudit::TrackedRwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Statistics of oracle usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Engine invocations that produced an exact cached distance.
    pub distance_computations: u64,
    /// Rejected verdicts: [`DistanceOracle::ask`] decisions of "outside τ",
    /// whether decided by the engine or by a cheap filter tier.
    pub within_rejections: u64,
    /// Requests answered from cache.
    pub cache_hits: u64,
    /// Accepted [`DistanceOracle::ask`] decisions certified by a metric upper
    /// bound with no engine call and no exact distance produced.
    pub ub_accepts: u64,
}

/// Per-tier attribution of [`DistanceOracle::ask`] decisions made without
/// invoking the distance engine. Diagnostics only: the conservation
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

/// Everything the memo knows about one pair of ids, as a value: what
/// [`DistanceOracle::ask`] hands back beside its verdict, so a caller can
/// keep the facts and decide later thresholds without a probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Facts {
    /// The exact distance, once some call has produced it.
    pub exact: Option<f64>,
    /// Strongest known strict lower bound: `d(i, j) > lower`.
    pub lower: f64,
    /// Strongest known upper bound: `d(i, j) ≤ upper`, from hint-certified
    /// accepts that never produced an exact distance.
    pub upper: f64,
}

impl Default for Facts {
    /// Nothing known: no exact distance and vacuous bounds.
    fn default() -> Self {
        Self {
            exact: None,
            lower: f64::NEG_INFINITY,
            upper: f64::INFINITY,
        }
    }
}

/// The memo's entry for one pair: its facts plus the decision in flight.
#[derive(Default)]
struct PairFacts {
    facts: Facts,
    /// Rendezvous for the decision in flight on this pair, if any: racers
    /// block on it so only one runs the engine. Dropped by the winner once
    /// its fact is published, so a resolved cell never outlives its decision.
    flight: Option<Arc<OnceLock<()>>>,
}

/// What one decision teaches the memo about a pair: the engine's [`Fact`],
/// or a metric-hint accept `d ≤ ub` that states no distance.
#[derive(Clone, Copy)]
enum Learned {
    Engine(Fact),
    AtMost(f64),
}

impl Facts {
    /// Records what a decision learned, keeping the strongest bound of each
    /// kind.
    fn learn(&mut self, learned: Learned) {
        match learned {
            Learned::Engine(Fact::Exact(d)) => self.exact = Some(d),
            Learned::Engine(Fact::Above(lb)) => self.lower = self.lower.max(lb),
            Learned::AtMost(ub) => self.upper = self.upper.min(ub),
        }
    }

    /// The `d ≤ τ` verdict if the facts hold it — the one rule every memo
    /// hit of [`DistanceOracle::ask`] is decided by.
    pub fn verdict(&self, tau: f64) -> Option<bool> {
        match self.exact {
            Some(d) => Some(inside(d, tau)),
            // d > lower ≥ τ: certainly outside.
            None if inside(tau, self.lower) => Some(false),
            // d ≤ upper ≤ τ: certainly inside.
            None => inside(self.upper, tau).then_some(true),
        }
    }
}

/// One memo shard. The site name identifies the *field* across all
/// [`NUM_SHARDS`] instances — the static lock graph cannot distinguish
/// instances, and the runtime witness mirrors that (same-site pairs are
/// self-edges and skipped).
struct Shard {
    facts: TrackedRwLock<HashMap<u64, PairFacts>>,
}

/// Facts about unordered pairs of ids, sharded [`NUM_SHARDS`] ways by pair
/// key, with one in-flight rendezvous per pair: the table every
/// [`DistanceOracle`] generation of one dataset shares, and the one a
/// sharded deployment keeps for its cross-shard pairs, keyed by global id.
///
/// A fact about a pair holds for as long as its ids do, so a table needs no
/// epoch: its owner only has to never give an id a second meaning.
pub struct FactTable {
    shards: [Shard; NUM_SHARDS],
}

impl Default for FactTable {
    fn default() -> Self {
        FactTable {
            shards: std::array::from_fn(|_| Shard {
                facts: TrackedRwLock::new("ged.cache.Shard.facts", HashMap::new()),
            }),
        }
    }
}

impl std::fmt::Debug for FactTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pairs: usize = self.shards.iter().map(|s| s.facts.read().len()).sum();
        f.debug_struct("FactTable").field("pairs", &pairs).finish()
    }
}

impl FactTable {
    /// Whether `d(i, j) ≤ tau`: read off the pair's facts when they decide
    /// it ([`Facts::verdict`], ticking `hits`), else `engine`'s answer at
    /// `tau`, which the pair's facts then keep. Concurrent askers the facts
    /// cannot answer rendezvous on the pair: exactly one runs `engine`.
    pub fn ask(
        &self,
        i: GraphId,
        j: GraphId,
        tau: f64,
        hits: &AtomicU64,
        engine: impl Fn() -> Fact,
    ) -> bool {
        let decide = || {
            let fact = engine();
            (Learned::Engine(fact), fact.exact().is_some())
        };
        self.resolve(key(i, j), |f| f.verdict(tau), decide, hits).0
    }

    /// Answers one request about pair `k`: from the facts if `known` reads
    /// an answer off them (ticking `hits`), otherwise by running `decide`,
    /// which returns the fact it learned beside the answer. Either way the
    /// pair's facts as the answer left them come back with it.
    ///
    /// Requests the facts cannot answer rendezvous on the pair's in-flight
    /// cell. Exactly one runs `decide`, publishes the fact and drops the
    /// cell; the others wake and probe again — a hit, unless the fact does
    /// not settle *their* question (another τ), in which case one of them
    /// takes the next flight. No lock is held while `decide` runs.
    fn resolve<T>(
        &self,
        k: u64,
        known: impl Fn(&Facts) -> Option<T>,
        decide: impl Fn() -> (Learned, T),
        hits: &AtomicU64,
    ) -> (T, Facts) {
        let facts = &self.shards[shard_of(k)].facts;
        let read = |pair: &PairFacts| known(&pair.facts).map(|t| (t, pair.facts));
        loop {
            let hit = facts.read().get(&k).and_then(read);
            if let Some(t) = hit {
                tick(hits);
                return t;
            }
            let flight = {
                let mut w = facts.write();
                let pair = w.entry(k).or_default();
                // Published between the probe above and this lock?
                if let Some(t) = read(pair) {
                    tick(hits);
                    return t;
                }
                Arc::clone(pair.flight.get_or_insert_with(Arc::default))
            };
            let mut won = None;
            flight.get_or_init(|| {
                let (fact, t) = decide();
                let mut w = facts.write();
                let pair = w.entry(k).or_default();
                pair.facts.learn(fact);
                pair.flight = None;
                won = Some((t, pair.facts));
            });
            if let Some(t) = won {
                return t;
            }
        }
    }

    /// The pair's facts, if the table holds any. Counts nothing.
    fn peek(&self, k: u64) -> Option<Facts> {
        let facts = self.shards[shard_of(k)].facts.read();
        facts.get(&k).map(|f| f.facts)
    }
}

/// Ticks an outcome or tier counter.
#[inline]
fn tick(counter: &AtomicU64) {
    // Independent event tally; no cross-counter ordering is consumed.
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The state every generation of one dataset's oracle shares: the engine,
/// the per-pair facts and the counters.
struct Memo {
    engine: GedEngine,
    table: FactTable,
    /// Ids this memo holds facts about; [`DistanceOracle::extended`] claims
    /// the next one.
    rows: AtomicUsize,
    /// Whether `ask` may use the cheap filter tiers at all; disabled only
    /// for baseline comparison runs.
    tiers_enabled: AtomicBool,
    tally: Tally,
}

/// The memo's counters: one outcome per non-self request, plus the tier
/// breakdown of engine-free rejections.
#[derive(Default)]
struct Tally {
    computations: AtomicU64,
    rejections: AtomicU64,
    hits: AtomicU64,
    ub_accepts: AtomicU64,
    tier_size: AtomicU64,
    tier_label: AtomicU64,
    tier_degree: AtomicU64,
    tier_vlb: AtomicU64,
    /// Total non-self requests, and how many of them have not settled yet:
    /// tallied only in audit builds to check the conservation identity
    /// `computations + rejections + hits + ub_accepts == requests` whenever
    /// nothing is in flight.
    #[cfg(feature = "invariant-audit")]
    requests: AtomicU64,
    #[cfg(feature = "invariant-audit")]
    in_flight: AtomicU64,
}

impl Memo {
    fn new(engine: GedEngine, rows: usize, tiers_enabled: bool) -> Memo {
        Memo {
            engine,
            table: FactTable::default(),
            rows: AtomicUsize::new(rows),
            tiers_enabled: AtomicBool::new(tiers_enabled),
            tally: Tally::default(),
        }
    }

    /// Answers one non-self request about pair `k` through the table
    /// ([`FactTable::resolve`]), tallied: a cache hit when `known` reads an
    /// answer off the facts, otherwise `decide` runs and tallies its own
    /// outcome.
    fn resolve<T>(
        &self,
        k: u64,
        known: impl Fn(&Facts) -> Option<T>,
        decide: impl Fn() -> (Learned, T),
    ) -> (T, Facts) {
        self.note_request();
        let answer = self.table.resolve(k, known, decide, &self.tally.hits);
        self.note_settled();
        answer
    }

    /// Tallies one non-self request entering (audit builds): the gauge
    /// first, so no request is ever counted in `requests` without showing in
    /// `in_flight` until its outcome has ticked.
    #[cfg(feature = "invariant-audit")]
    fn note_request(&self) {
        // Audit-only tallies, sequentially consistent so the conservation
        // audit's reads order against every request's entry and exit.
        self.tally.in_flight.fetch_add(1, Ordering::SeqCst);
        self.tally.requests.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks one request settled: its outcome counter has ticked.
    #[cfg(feature = "invariant-audit")]
    fn note_settled(&self) {
        // Audit-only gauge; see `note_request`.
        self.tally.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    #[cfg(not(feature = "invariant-audit"))]
    #[inline(always)]
    fn note_request(&self) {}

    #[cfg(not(feature = "invariant-audit"))]
    #[inline(always)]
    fn note_settled(&self) {}
}

/// Caching, counting distance oracle over one generation of a graph
/// collection.
pub struct DistanceOracle {
    /// The rows. A [`Graph`] is a shared handle, so successor generations
    /// hold the same graphs and profiles and allocate only what they add.
    graphs: Arc<Vec<Graph>>,
    /// Per-graph sorted invariants, index-aligned with `graphs`; computed
    /// once per graph so every bound tier is an O(n) merge.
    profiles: Vec<Arc<GraphProfile>>,
    /// Engine, facts and counters, shared with every other generation.
    memo: Arc<Memo>,
    /// Index-supplied metric bounds (Lipschitz embedding); installed after
    /// the vantage table is built, absent before. Per generation: the
    /// embedding they wrap covers exactly this generation's ids.
    hints: TrackedRwLock<Option<Arc<dyn MetricHints>>>,
}

/// The oracle is shared across rayon workers by reference.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<DistanceOracle>();

impl std::fmt::Debug for DistanceOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (pairs, exact) = self.memo.table.shards.iter().fold((0, 0), |(p, e), s| {
            let facts = s.facts.read();
            let known = facts.values().filter(|f| f.facts.exact.is_some()).count();
            (p + facts.len(), e + known)
        });
        f.debug_struct("DistanceOracle")
            .field("graphs", &self.graphs.len())
            .field("cached_pairs", &pairs)
            .field("cached_exact", &exact)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DistanceOracle {
    /// Creates an oracle over `graphs` backed by `engine`.
    pub fn new(graphs: Arc<Vec<Graph>>, engine: GedEngine) -> Self {
        let profiles = graphs
            .iter()
            .map(|g| Arc::new(GraphProfile::new(g)))
            .collect();
        let memo = Arc::new(Memo::new(engine, graphs.len(), true));
        Self::generation(graphs, profiles, memo)
    }

    /// One generation's view over `memo`, with no metric hints installed.
    fn generation(
        graphs: Arc<Vec<Graph>>,
        profiles: Vec<Arc<GraphProfile>>,
        memo: Arc<Memo>,
    ) -> DistanceOracle {
        DistanceOracle {
            graphs,
            profiles,
            memo,
            hints: TrackedRwLock::new("ged.cache.DistanceOracle.hints", None),
        }
    }

    /// A new oracle over this oracle's graphs plus `graph` appended as the
    /// next id.
    ///
    /// Graph ids are stable under extension, so the successor shares this
    /// oracle's memo — every distance, bound and counter, past and future —
    /// and its rows: only the new graph's handle and profile are allocated.
    /// Callers holding delta baselines (the serve registry) or relying on
    /// the conservation identity see one continuous history across the swap.
    /// Metric hints are *not* carried: the vantage table they wrap predates
    /// the new graph, so the caller must re-install hints after extending
    /// its embedding.
    pub fn extended(&self, graph: Graph) -> DistanceOracle {
        let n = self.graphs.len();
        let mut profiles = self.profiles.clone();
        profiles.push(Arc::new(GraphProfile::new(&graph)));
        let mut graphs = self.graphs.as_ref().clone();
        graphs.push(graph);
        // Facts are keyed by id, so only one successor may give id `n` a
        // meaning in this memo. A second extension of the same generation (a
        // discarded or divergent fork went first) starts a memo of its own
        // rather than read facts about a different graph.
        let rows = &self.memo.rows;
        // A ticket, not a publication: nothing is ordered against the claim.
        let claim = rows.compare_exchange(n, n + 1, Ordering::Relaxed, Ordering::Relaxed);
        let memo = match claim {
            Ok(_) => Arc::clone(&self.memo),
            Err(_) => Arc::new(Memo::new(
                GedEngine::new(*self.memo.engine.config()),
                n + 1,
                // Config-style flag, not synchronization.
                self.memo.tiers_enabled.load(Ordering::Relaxed),
            )),
        };
        Self::generation(Arc::new(graphs), profiles, memo)
    }

    /// A new oracle over the *same* graphs and the same memo, but with no
    /// metric hints installed.
    ///
    /// Used when an index rebuild swaps in a new embedding: installing the
    /// rebuilt hints on a fork leaves sessions pinned to the old oracle (and
    /// its old embedding) entirely undisturbed.
    pub fn forked(&self) -> DistanceOracle {
        Self::generation(
            Arc::clone(&self.graphs),
            self.profiles.clone(),
            Arc::clone(&self.memo),
        )
    }

    /// The underlying graphs.
    pub fn graphs(&self) -> &[Graph] {
        &self.graphs
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
    /// this oracle's graphs to [`GedEngine::ask`].
    pub fn profile(&self, i: GraphId) -> &GraphProfile {
        &self.profiles[i as usize]
    }

    /// The engine (for counter access), shared by every generation.
    pub fn engine(&self) -> &GedEngine {
        &self.memo.engine
    }

    /// Exact distance between graphs `i` and `j` (cached): the facts, else
    /// the engine's answer at `τ = ∞`.
    ///
    /// Concurrent calls on the same uncached pair run the engine exactly
    /// once: the winner counts a computation, everyone else blocks on the
    /// pair's cell and counts a cache hit.
    pub fn distance(&self, i: GraphId, j: GraphId) -> f64 {
        if i == j {
            return 0.0;
        }
        // At τ = ∞ every answer is `Exact`.
        self.exact_within(i, j, f64::INFINITY)
            .unwrap_or(f64::INFINITY)
    }

    /// Returns `Some(d)` iff `d(i, j) = d ≤ tau`: [`Self::ask`], then the
    /// pair's exact fact. An accept certified by a metric upper bound alone
    /// holds no exact fact; the engine then answers the same question, so
    /// its search is cut off at `tau` and a budget fallback above `tau` is
    /// `None`, as the engine's verdict would be.
    pub fn within(&self, i: GraphId, j: GraphId, tau: f64) -> Option<f64> {
        let (accepted, facts) = self.ask(i, j, tau);
        if !accepted {
            return None;
        }
        facts.exact.or_else(|| self.exact_within(i, j, tau))
    }

    /// The pair's exact fact if it is inside `tau`, else the engine's
    /// answer at `tau` (a non-self pair), resolved through the memo.
    fn exact_within(&self, i: GraphId, j: GraphId, tau: f64) -> Option<f64> {
        let decide = || {
            let fact = self.engine_ask(i, j, tau);
            (Learned::Engine(fact), fact.exact())
        };
        let known = |f: &Facts| f.exact.map(|d| inside(d, tau).then_some(d));
        self.memo.resolve(key(i, j), known, decide).0
    }

    /// Whether `d(i, j) ≤ tau`, with the pair's facts the verdict was read
    /// from or learned: whatever later threshold those facts decide
    /// ([`Facts::verdict`]) needs no further request. A self pair is
    /// `(true, exact 0)` and counts nothing.
    ///
    /// Decided through the tiered filter ladder: facts, then size /
    /// profiled-label / degree-sequence lower bounds, then the installed
    /// [`MetricHints`] (Lipschitz lower bound and triangle upper bound), and
    /// only then the engine. The verdict is the engine's in every case —
    /// each lower-bound tier is sound (`bound > τ` implies the true distance
    /// exceeds `τ`) and the upper-bound tier only accepts when the true
    /// distance is certainly within `τ` — but an upper-bound acceptance
    /// produces no exact distance.
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
    pub fn ask(&self, i: GraphId, j: GraphId, tau: f64) -> (bool, Facts) {
        if i == j {
            let zero = Facts {
                exact: Some(0.0),
                ..Facts::default()
            };
            return (true, zero);
        }
        self.memo
            .resolve(key(i, j), |f| f.verdict(tau), || self.ladder(i, j, tau))
    }

    /// The engine's answer about `(i, j)` at `tau`, tallied: the one place
    /// an engine answer becomes a count (`Exact` a computation, `Above` a
    /// rejection) and the fact the memo learns.
    fn engine_ask(&self, i: GraphId, j: GraphId, tau: f64) -> Fact {
        let m = &*self.memo;
        let fact = m.engine.ask(
            &self.graphs[i as usize],
            &self.graphs[j as usize],
            self.profile(i),
            self.profile(j),
            tau,
        );
        let outcome = match fact.exact() {
            Some(_) => &m.tally.computations,
            None => &m.tally.rejections,
        };
        tick(outcome);
        fact
    }

    /// One evaluation of the filter ladder below the facts, tallied.
    fn ladder(&self, i: GraphId, j: GraphId, tau: f64) -> (Learned, bool) {
        let m = &*self.memo;
        let reject = |tier: &AtomicU64| {
            tick(&m.tally.rejections);
            tick(tier);
            (Learned::Engine(Fact::Above(tau)), false)
        };
        // Tier gating reads are config-style flags, not synchronization.
        if m.tiers_enabled.load(Ordering::Relaxed) {
            let (p1, p2, c) = (self.profile(i), self.profile(j), &m.engine.config().cost);
            type Bound = fn(&GraphProfile, &GraphProfile, &CostModel) -> f64;
            let tiers: [(Bound, &AtomicU64); 3] = [
                (size_lower_bound_profiled, &m.tally.tier_size),
                (label_lower_bound_profiled, &m.tally.tier_label),
                (degree_sequence_bound, &m.tally.tier_degree),
            ];
            for (bound, tier) in tiers {
                if !inside(bound(p1, p2, c), tau) {
                    return reject(tier);
                }
            }
            let hints = self.hints.read().clone();
            if let Some(h) = hints.filter(|_| self.hints_sound()) {
                let hub = h.upper_bound(i, j);
                if inside(hub, tau) {
                    tick(&m.tally.ub_accepts);
                    return (Learned::AtMost(hub), true);
                }
                if !inside(h.lower_bound(i, j), tau) {
                    return reject(&m.tally.tier_vlb);
                }
            }
        }
        let fact = self.engine_ask(i, j, tau);
        (Learned::Engine(fact), fact.exact().is_some())
    }

    /// Whether hint bounds about the *true* distance may substitute for the
    /// engine's verdict: requires exact mode and zero budget fallbacks so
    /// far, because a budget-degraded engine certifies its bipartite bound
    /// rather than the true distance.
    fn hints_sound(&self) -> bool {
        let engine = &self.memo.engine;
        matches!(engine.config().mode, GedMode::Exact)
            && engine.counters().snapshot().budget_fallbacks == 0
    }

    /// The exact distance between `i` and `j` if it is already known without
    /// any engine work: `Some(0.0)` for `i == j`, otherwise the pair's exact
    /// fact. Never counts a request, a hit, or an engine call.
    pub fn cached_distance(&self, i: GraphId, j: GraphId) -> Option<f64> {
        if i == j {
            return Some(0.0);
        }
        self.memo.table.peek(key(i, j)).and_then(|f| f.exact)
    }

    /// Installs index-supplied metric bounds for [`Self::ask`]'s hint tier
    /// (replacing any previous hints).
    pub fn set_hints(&self, hints: Arc<dyn MetricHints>) {
        *self.hints.write() = Some(hints);
    }

    /// Enables or disables the cheap filter tiers of [`Self::ask`], for
    /// every generation sharing this memo; verdicts are identical either
    /// way, only the cost of reaching them changes. Intended for baseline
    /// comparison runs.
    pub fn set_tiers_enabled(&self, enabled: bool) {
        // Config-style flag, not synchronization.
        self.memo.tiers_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Per-tier attribution of engine-free [`Self::ask`] decisions.
    pub fn tier_stats(&self) -> TierStats {
        let t = &self.memo.tally;
        TierStats {
            // Counters are independent tallies read at quiescent points.
            size_rejects: t.tier_size.load(Ordering::Relaxed),
            label_rejects: t.tier_label.load(Ordering::Relaxed),
            degree_rejects: t.tier_degree.load(Ordering::Relaxed),
            vantage_lb_rejects: t.tier_vlb.load(Ordering::Relaxed),
            vantage_ub_accepts: t.ub_accepts.load(Ordering::Relaxed),
        }
    }

    /// Usage statistics, over every generation sharing this memo.
    pub fn stats(&self) -> OracleStats {
        let t = &self.memo.tally;
        OracleStats {
            // Counters are independent tallies read at quiescent points.
            distance_computations: t.computations.load(Ordering::Relaxed),
            within_rejections: t.rejections.load(Ordering::Relaxed),
            cache_hits: t.hits.load(Ordering::Relaxed),
            ub_accepts: t.ub_accepts.load(Ordering::Relaxed),
        }
    }

    /// Total engine invocations (computations + rejections).
    pub fn engine_calls(&self) -> u64 {
        let s = self.stats();
        s.distance_computations + s.within_rejections
    }

    /// Clears counters (the facts are kept). Acts on the shared memo, so
    /// every generation's counters restart; meant for single-generation
    /// oracles at quiescent points (experiments, tests).
    pub fn reset_stats(&self) {
        let t = &self.memo.tally;
        let tallies = [
            &t.computations,
            &t.rejections,
            &t.hits,
            &t.ub_accepts,
            &t.tier_size,
            &t.tier_label,
            &t.tier_degree,
            &t.tier_vlb,
            #[cfg(feature = "invariant-audit")]
            &t.requests,
        ];
        for tally in tallies {
            // Counters are independent tallies; resets happen at quiescent points.
            tally.store(0, Ordering::Relaxed);
        }
    }

    /// True when every distance this oracle has produced is exact: the
    /// engine runs in `Exact` mode and has recorded no budget fallbacks.
    ///
    /// Metric-dependent audits (triangle-inequality facts, Thm 4/5 bound
    /// admissibility) only hold for exact distances, so they consult this
    /// before asserting. Compiled only under the `invariant-audit` feature.
    #[cfg(feature = "invariant-audit")]
    pub fn audit_distances_exact(&self) -> bool {
        self.hints_sound()
    }

    /// Checks the accounting identity behind the concurrency layer's
    /// determinism guarantees: every non-self request increments exactly one
    /// of `distance_computations` / `within_rejections` / `cache_hits` /
    /// `ub_accepts`, and the tier breakdown never exceeds the rejection total.
    ///
    /// A request ticks `requests` before its outcome counter, so the identity
    /// is exact only while nothing is in flight. The audit therefore asserts
    /// when the in-flight gauge reads zero and no request entered while the
    /// counters were being read, and says nothing otherwise: an end-of-load
    /// audit always asserts, one racing other sessions' traffic never
    /// misfires. Compiled only under the `invariant-audit` feature.
    #[cfg(feature = "invariant-audit")]
    pub fn audit_counter_conservation(&self) {
        let m = &*self.memo;
        // Audit-only tallies; see `Memo::note_request`. Everything counted in
        // `q` had settled when the gauge read zero, and an unchanged `q`
        // afterwards means the counters in between are exactly theirs.
        let q = m.tally.requests.load(Ordering::SeqCst);
        if m.tally.in_flight.load(Ordering::SeqCst) != 0 {
            return;
        }
        let (s, t) = (self.stats(), self.tier_stats());
        // Same audit-only tally, second read.
        if m.tally.requests.load(Ordering::SeqCst) != q {
            return;
        }
        crate::audit_invariant!(
            s.distance_computations + s.within_rejections + s.cache_hits + s.ub_accepts == q,
            "oracle counter conservation: {} computations + {} rejections + {} hits + {} ub accepts != {} requests",
            s.distance_computations,
            s.within_rejections,
            s.cache_hits,
            s.ub_accepts,
            q
        );
        crate::audit_invariant!(
            t.size_rejects + t.label_rejects + t.degree_rejects + t.vantage_lb_rejects
                <= s.within_rejections,
            "oracle tier attribution: {:?} exceeds {} rejections",
            t,
            s.within_rejections
        );
    }

    /// Clears the memoized facts *and* counters. Acts on the shared memo —
    /// every generation forgets; meant for single-generation oracles at
    /// quiescent points (experiments, tests).
    pub fn clear(&self) {
        for shard in &self.memo.table.shards {
            shard.facts.write().clear();
        }
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::bp_upper_bound;
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
    fn theta_sweep_keeps_one_entry_per_pair() {
        let o = oracle(6, 11);
        let pairs: Vec<(GraphId, GraphId)> = (0..6)
            .flat_map(|i| (i + 1..6).map(move |j| (i, j)))
            .collect();
        for step in 0..64 {
            let tau = 0.25 + 0.125 * step as f64;
            for &(i, j) in &pairs {
                assert_eq!(o.ask(i, j, tau).0, o.within(i, j, tau).is_some());
            }
        }
        let (mut entries, mut flights) = (0, 0);
        for shard in &o.memo.table.shards {
            let facts = shard.facts.read();
            entries += facts.len();
            flights += facts.values().filter(|f| f.flight.is_some()).count();
        }
        assert_eq!(
            entries,
            pairs.len(),
            "one memo entry per pair, not per (pair, τ)"
        );
        assert_eq!(flights, 0, "a resolved rendezvous cell must be dropped");
    }

    #[test]
    fn generations_share_rows_and_memo() {
        let old = oracle(4, 12);
        let new = old.extended(old.graphs()[0].clone());
        assert_eq!(new.len(), 5);
        for i in 0..old.len() {
            assert_eq!(
                old.graphs()[i].node_labels().as_ptr(),
                new.graphs()[i].node_labels().as_ptr(),
                "graph {i} must be shared, not copied"
            );
            assert!(std::ptr::eq(
                old.profile(i as GraphId),
                new.profile(i as GraphId)
            ));
        }
        // A pair decided through either generation is a fact for both.
        let d = new.distance(1, 2);
        assert_eq!(old.cached_distance(1, 2), Some(d));
        assert_eq!(new.forked().distance(2, 1), d);
        assert_eq!(old.stats(), new.stats());
        assert_eq!(old.engine_calls(), 1);
    }

    #[test]
    fn second_extension_of_one_generation_gets_its_own_memo() {
        let base = oracle(4, 13);
        let first = base.extended(base.graphs()[0].clone());
        let d = first.distance(0, 4);
        assert_eq!(d, 0.0, "id 4 is a copy of graph 0 on this branch");
        // Id 4 means a different graph on the second branch: it must not
        // read the first branch's facts about it.
        let second = base.extended(base.graphs()[1].clone());
        assert_eq!(second.cached_distance(0, 4), None);
        assert_eq!(second.distance(0, 4), base.distance(0, 1));
        assert_eq!(first.distance(0, 4), 0.0);
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

    /// The tiered verdict is the engine's: the reference oracle runs with
    /// its tiers off, so every one of its answers comes from the engine.
    #[test]
    fn within_verdict_agrees_with_within() {
        let tiered = oracle(6, 7);
        let plain = oracle(6, 7);
        plain.set_tiers_enabled(false);
        for i in 0..6u32 {
            for j in 0..6u32 {
                for tau in [0.5, 2.0, 4.0, 8.0] {
                    assert_eq!(
                        tiered.ask(i, j, tau).0,
                        plain.within(i, j, tau).is_some(),
                        "pair ({i}, {j}) at tau {tau}"
                    );
                }
            }
        }
    }

    /// The facts `ask` hands back decide their own threshold, and
    /// every other threshold they decide matches the engine's answer on a
    /// fresh, untiered oracle.
    #[test]
    fn within_facts_decide_later_thresholds_like_the_oracle() {
        let (o, truth) = (oracle(6, 14), oracle(6, 14));
        truth.set_tiers_enabled(false);
        assert_eq!(o.ask(2, 2, 0.0).1.exact, Some(0.0));
        let taus = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0];
        for i in 0..6u32 {
            for j in i + 1..6 {
                for &tau in &taus {
                    let (inside, facts) = o.ask(i, j, tau);
                    assert_eq!(facts.verdict(tau), Some(inside), "({i}, {j}) at {tau}");
                    for &later in &taus {
                        if let Some(v) = facts.verdict(later) {
                            assert_eq!(v, truth.within(i, j, later).is_some());
                        }
                    }
                }
            }
        }
        let after = o.stats();
        assert_eq!(
            o.ask(0, 1, 6.0).1,
            o.ask(1, 0, 6.0).1,
            "facts are per unordered pair"
        );
        assert_eq!(o.stats().cache_hits, after.cache_hits + 2);
    }

    #[test]
    fn within_verdict_tiers_off_agrees() {
        let on = oracle(6, 7);
        let off = oracle(6, 7);
        off.set_tiers_enabled(false);
        for i in 0..6u32 {
            for j in 0..6u32 {
                for tau in [0.5, 2.0, 4.0] {
                    assert_eq!(on.ask(i, j, tau).0, off.ask(i, j, tau).0);
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
                    assert_eq!(o.ask(i, j, tau).0, inside(m[i as usize][j as usize], tau));
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
        assert!(o.ask(0, 1, d + 1.0).0);
        let accepts = o.stats().ub_accepts;
        assert_eq!(accepts, 1);
        // Looser tau on the same pair: answered by the upper-bound cache.
        assert!(o.ask(0, 1, d + 2.0).0);
        assert_eq!(o.stats().ub_accepts, accepts);
        assert_eq!(o.stats().cache_hits, 1);
    }

    /// A pair the triangle tier accepts holds only an upper-bound fact:
    /// `within` still returns its exact distance, and `distance` never
    /// reads the upper bound as one.
    #[test]
    fn hint_accepted_pair_still_yields_its_exact_distance() {
        let o = oracle(4, 15);
        let d = o.distance(0, 1);
        o.clear();
        // A loose triangle upper bound: it accepts at d + 1 but is not d.
        let mut m = vec![vec![9.0; 4]; 4];
        m[0][1] = d + 0.5;
        m[1][0] = d + 0.5;
        o.set_hints(Arc::new(PerfectHints(m)));
        let (accepted, facts) = o.ask(0, 1, d + 1.0);
        assert!(accepted);
        assert_eq!((facts.exact, facts.upper), (None, d + 0.5));
        assert_eq!(o.within(0, 1, d + 1.0), Some(d));
        assert_eq!(o.cached_distance(0, 1), Some(d));
        o.clear();
        assert!(o.ask(1, 0, d + 1.0).0);
        assert_eq!(o.distance(0, 1), d);
        let s = o.stats();
        assert_eq!((s.ub_accepts, s.distance_computations), (1, 1));
    }

    /// A triangle accept on an engine that runs out of budget: `within`
    /// asks the engine the same threshold question, so the bipartite
    /// fallback above `tau` is a `None`, never a distance above `tau`.
    #[test]
    fn hint_accept_on_a_starved_engine_keeps_within_inside_tau() {
        let full = oracle(8, 16);
        let graphs = full.graphs().to_vec();
        // A pair whose search the budget cannot finish and whose bipartite
        // upper bound exceeds its distance.
        let (i, j, d) = (0..8u32)
            .flat_map(|i| (i + 1..8).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, full.distance(i, j)))
            .find(|&(i, j, d)| {
                let (g1, g2) = (&graphs[i as usize], &graphs[j as usize]);
                !inside(bp_upper_bound(g1, g2, &CostModel::uniform()), d)
            })
            .expect("some pair's bipartite bound is loose");
        let starved = DistanceOracle::new(
            Arc::new(graphs),
            GedEngine::new(GedConfig {
                budget: 1,
                ..GedConfig::default()
            }),
        );
        let mut m = vec![vec![9.0; 8]; 8];
        m[i as usize][j as usize] = d;
        m[j as usize][i as usize] = d;
        starved.set_hints(Arc::new(PerfectHints(m)));
        assert!(starved.ask(i, j, d).0, "the triangle tier accepts");
        assert_eq!(starved.within(i, j, d), None);
        let s = starved.stats();
        assert_eq!((s.ub_accepts, s.within_rejections), (1, 1));
        assert_eq!(starved.engine().counters().snapshot().budget_fallbacks, 1);
        assert_eq!(starved.cached_distance(i, j), None);
    }
}

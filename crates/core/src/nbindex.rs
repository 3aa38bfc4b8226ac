//! The NB-Index (paper Sec 6.4): vantage orderings + NB-Tree + threshold
//! ladder, unified behind one build/query interface.

use crate::answer::AnswerSet;
use crate::nbtree::{NbTree, NbTreeConfig};
use crate::pihat::ThresholdLadder;
use crate::session::{QuerySession, RunStats};
use graphrep_ged::{DistanceOracle, MetricHints};
use graphrep_graph::{Graph, GraphId};
use graphrep_metric::VantageTable;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Vantage coordinate assigned to tombstoned graphs when the index is
/// rebuilt: far outside any real edit distance, so dead graphs fall outside
/// every band scan and their hint lower bounds reject any finite threshold.
/// Kept finite and exactly representable in `f32`, so it persists
/// bit-exactly in a vantage column.
const DEAD_COORD: f64 = 1e30;

/// Construction parameters for the NB-Index.
#[derive(Debug, Clone)]
pub struct NbIndexConfig {
    /// Number of vantage points `|V|` (Sec 6.2.1).
    pub num_vps: usize,
    /// NB-Tree clustering parameters.
    pub tree: NbTreeConfig,
    /// Distance thresholds indexed in π̂-vectors (Sec 7.1). May be empty, in
    /// which case every run computes fresh bounds at its exact θ.
    pub ladder: Vec<f64>,
    /// RNG seed (VP choice, pivot sampling).
    pub seed: u64,
}

impl Default for NbIndexConfig {
    fn default() -> Self {
        Self {
            num_vps: 16,
            tree: NbTreeConfig::default(),
            ladder: vec![],
            seed: 0x5eed,
        }
    }
}

/// When accumulated mutation damage triggers a full rebuild (DESIGN.md §10).
///
/// Both knobs measure *bound quality*, not correctness: answers stay exact at
/// any staleness, but tombstones waste band-scan work and inflated radii
/// weaken the Thm 6–8 prune/accept tests, so past these limits a rebuild is
/// cheaper than the slowdown it removes.
#[derive(Debug, Clone, Copy)]
pub struct MutationPolicy {
    /// Rebuild when the ratio of in-range tombstones ([`NbTree::stale`])
    /// to indexed graphs exceeds this value.
    pub max_tombstone_ratio: f64,
    /// Rebuild when the summed live-share-weighted relative radius inflation
    /// from [`crate::nbtree::InsertOutcome::radius_inflation`] exceeds this
    /// budget: 1.0 is the whole database under a bound one radius looser.
    pub radius_inflation_budget: f64,
}

impl Default for MutationPolicy {
    fn default() -> Self {
        Self {
            max_tombstone_ratio: 0.3,
            radius_inflation_budget: 4.0,
        }
    }
}

/// How a mutation was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOutcome {
    /// Applied incrementally: tree routed/tombstoned in place.
    Applied,
    /// The mutation pushed the index past its [`MutationPolicy`] and a full
    /// reclustering ran.
    Rebuilt,
}

/// A rejected mutation (unknown id, double remove, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutateError(pub String);

impl std::fmt::Display for MutateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mutation rejected: {}", self.0)
    }
}

impl std::error::Error for MutateError {}

/// Costs incurred while building the index (Fig 6(k)).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Wall time of the build.
    pub wall: Duration,
    /// Edit-distance engine calls during the build.
    pub distance_calls: u64,
}

/// The vantage table's margin-adjusted Lipschitz/triangle bounds, exposed to
/// the oracle's [`MetricHints`] tier: the same embedding that generates
/// candidates also helps *verify* them without an engine call.
#[derive(Debug)]
struct VantageHints(Arc<VantageTable>);

impl MetricHints for VantageHints {
    fn lower_bound(&self, i: GraphId, j: GraphId) -> f64 {
        self.0.hint_bounds(i, j).0
    }
    fn upper_bound(&self, i: GraphId, j: GraphId) -> f64 {
        self.0.hint_bounds(i, j).1
    }
}

/// The NB-Index over one graph database.
#[derive(Debug)]
pub struct NbIndex {
    oracle: Arc<DistanceOracle>,
    vantage: Arc<VantageTable>,
    tree: NbTree,
    ladder: ThresholdLadder,
    build_stats: BuildStats,
    config: NbIndexConfig,
    policy: MutationPolicy,
    /// Counts every applied mutation; never reset (rebuilds keep it), so a
    /// persisted snapshot can prove which database state it describes.
    epoch: u64,
    /// Accumulated relative radius inflation since the last (re)build.
    inflation: f64,
}

impl NbIndex {
    /// Assembles an index from pre-built parts (used by persistence),
    /// installing the vantage bounds as the oracle's hint tier. The original
    /// build configuration is not persisted; the reconstructed config only
    /// matters for mutation RNG seeding and rebuild parameters, for which the
    /// defaults (plus the persisted ladder) are faithful enough.
    pub(crate) fn from_parts(
        oracle: Arc<DistanceOracle>,
        vantage: VantageTable,
        tree: NbTree,
        ladder: ThresholdLadder,
        build_stats: BuildStats,
        epoch: u64,
    ) -> Self {
        let vantage = Arc::new(vantage);
        oracle.set_hints(Arc::new(VantageHints(Arc::clone(&vantage))));
        let config = NbIndexConfig {
            num_vps: vantage.num_vps(),
            ladder: ladder.thetas().to_vec(),
            ..NbIndexConfig::default()
        };
        Self {
            oracle,
            vantage,
            tree,
            ladder,
            build_stats,
            config,
            policy: MutationPolicy::default(),
            epoch,
            inflation: 0.0,
        }
    }

    /// Builds the index: vantage orderings first (they accelerate the
    /// NB-Tree's pivot assignments), then the hierarchical clustering.
    ///
    /// The `|V| × n` vantage distances — the bulk of the build's NP-hard
    /// work — are evaluated across rayon workers, as are the NB-Tree's
    /// child-assignment distances; both phases collect in index order, so
    /// the built index is identical at any thread count.
    pub fn build(oracle: Arc<DistanceOracle>, config: NbIndexConfig) -> Self {
        let t0 = Instant::now();
        let calls0 = oracle.engine_calls();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let vantage = VantageTable::build(oracle.len(), config.num_vps, &mut rng, |a, b| {
            oracle.distance(a, b)
        });
        let tree = NbTree::build(&oracle, Some(&vantage), config.tree, &mut rng);
        let ladder = ThresholdLadder::new(config.ladder.clone());
        let build_stats = BuildStats {
            wall: t0.elapsed(),
            distance_calls: oracle.engine_calls() - calls0,
        };
        let vantage = Arc::new(vantage);
        // From here on the oracle can certify θ-verdicts straight from the
        // embedding (Lipschitz lower / triangle upper bounds) — no engine.
        oracle.set_hints(Arc::new(VantageHints(Arc::clone(&vantage))));
        let this = Self {
            oracle,
            vantage,
            tree,
            ladder,
            build_stats,
            config,
            policy: MutationPolicy::default(),
            epoch: 0,
            inflation: 0.0,
        };
        this.audit_build();
        this
    }

    /// Post-build audit: oracle counter conservation across the whole build
    /// (the tree's own audit runs inside [`NbTree::build`]).
    #[cfg(feature = "invariant-audit")]
    fn audit_build(&self) {
        self.oracle.audit_counter_conservation();
    }

    #[cfg(not(feature = "invariant-audit"))]
    #[inline(always)]
    fn audit_build(&self) {}

    /// The underlying distance oracle.
    pub fn oracle(&self) -> &DistanceOracle {
        &self.oracle
    }

    /// Shared handle to the oracle. Mutations swap the index's oracle, so
    /// holders that must observe post-mutation counters should re-fetch this
    /// from the current index rather than caching it.
    pub fn oracle_arc(&self) -> Arc<DistanceOracle> {
        Arc::clone(&self.oracle)
    }

    /// The vantage orderings.
    pub fn vantage(&self) -> &VantageTable {
        &self.vantage
    }

    /// The NB-Tree.
    pub fn tree(&self) -> &NbTree {
        &self.tree
    }

    /// The indexed threshold ladder.
    pub fn ladder(&self) -> &ThresholdLadder {
        &self.ladder
    }

    /// Replaces the threshold ladder (the vantage orderings and tree are
    /// unchanged — ladder choice is an orthogonal, cheap re-indexing used by
    /// the Fig 6(a) experiment). Sessions created afterwards use the new
    /// ladder.
    pub fn set_ladder(&mut self, thetas: Vec<f64>) {
        self.ladder = ThresholdLadder::new(thetas);
    }

    /// Build-time costs.
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Mutation epoch: number of applied inserts/removes since the initial
    /// build. Persisted snapshots record it so a stale snapshot cannot be
    /// silently served after the in-memory index has moved on, and the
    /// caching layer ([`crate::ViewStore`] / [`crate::AnswerCache`]) keys
    /// every entry on it — a fork-mutate-swap bumps the epoch, so cached
    /// results can never cross a mutation boundary even before any explicit
    /// invalidation runs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Accumulated relative radius inflation since the last (re)build.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// The active rebuild policy.
    pub fn policy(&self) -> MutationPolicy {
        self.policy
    }

    /// Replaces the rebuild policy (takes effect on the next mutation).
    pub fn set_policy(&mut self, policy: MutationPolicy) {
        self.policy = policy;
    }

    /// Adds `graph` to the index as the next graph id (DESIGN.md §10).
    ///
    /// The oracle is extended (the successor shares the memo, the counters
    /// and every existing row; only the new graph is allocated), the vantage
    /// table gains one row, and the NB-Tree routes the new graph to its
    /// nearest bottom cluster, re-expanding radii/diameters along the path so
    /// every bound stays admissible. Sessions opened before the call keep
    /// their pinned snapshot; sessions opened after see the new graph.
    pub fn insert(&mut self, graph: Graph) -> Result<(GraphId, MutationOutcome), MutateError> {
        use rayon::prelude::*;
        let id = self.oracle.len() as GraphId;
        let oracle = Arc::new(self.oracle.extended(graph));
        // Pure independent distance sweep, collected in vantage order:
        // parallel execution cannot change the embedding row.
        let vp_dists: Vec<f64> = self
            .vantage
            .vp_ids()
            .par_iter()
            .map(|&v| oracle.distance(v, id))
            .collect();
        // make_mut copies the table: the previous generation's installed
        // hints hold a second handle to it, so pinned sessions keep their
        // embedding undisturbed.
        let appended = Arc::make_mut(&mut self.vantage).push_item(&vp_dists);
        debug_assert_eq!(appended, id, "vantage row ids track oracle ids");
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ self.epoch);
        let out = self
            .tree
            .insert_graph(&oracle, Some(self.vantage.as_ref()), id, &mut rng);
        self.inflation += out.radius_inflation;
        self.epoch += 1;
        oracle.set_hints(Arc::new(VantageHints(Arc::clone(&self.vantage))));
        self.oracle = oracle;
        if self.needs_rebuild() {
            self.rebuild();
            Ok((id, MutationOutcome::Rebuilt))
        } else {
            Ok((id, MutationOutcome::Applied))
        }
    }

    /// Tombstones graph `id` (DESIGN.md §10): the graph keeps its leaf
    /// position (so every position-indexed structure stays valid) but is
    /// excluded from live counts, from relevance sets of future sessions, and
    /// from the clustering of the next rebuild.
    pub fn remove(&mut self, id: GraphId) -> Result<MutationOutcome, MutateError> {
        self.tree.remove_graph(id).map_err(MutateError)?;
        self.epoch += 1;
        if self.needs_rebuild() {
            self.rebuild();
            Ok(MutationOutcome::Rebuilt)
        } else {
            Ok(MutationOutcome::Applied)
        }
    }

    fn needs_rebuild(&self) -> bool {
        let n = self.tree.len();
        if n == 0 {
            return false;
        }
        let tomb = self.tree.stale() as f64 / n as f64;
        tomb > self.policy.max_tombstone_ratio
            || self.inflation > self.policy.radius_inflation_budget
    }

    /// Full reclustering over the live graphs: fresh vantage points, fresh
    /// tree, zeroed inflation. The epoch is *kept* — it counts database
    /// mutations, not index generations.
    ///
    /// Dead ids keep tail leaf positions (outside the root's range) and get
    /// [`DEAD_COORD`] vantage coordinates, so every id stays addressable
    /// while traversal and band scans never touch a tombstone. The oracle is
    /// forked, not mutated: the fork shares the memo, and sessions pinned to
    /// the old oracle keep the old embedding's hints.
    pub fn rebuild(&mut self) {
        let oracle = Arc::new(self.oracle.forked());
        let n = oracle.len();
        let live: Vec<bool> = (0..n as GraphId).map(|g| self.tree.is_live(g)).collect();
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ self.epoch);
        // Keep surviving vantage points: their distance columns are already
        // memoized, so a rebuild after churn re-pays the NP-hard phase only
        // for dead VPs' replacements. Top-up picks are a seeded shuffle of
        // the remaining live ids — deterministic for a given epoch.
        let target = self.config.num_vps.min(self.tree.live_len());
        let mut vp_ids: Vec<u32> = self
            .vantage
            .vp_ids()
            .iter()
            .copied()
            .filter(|&v| live[v as usize])
            .collect();
        vp_ids.truncate(target);
        let mut pool: Vec<u32> = (0..n as u32)
            .filter(|&g| live[g as usize] && !vp_ids.contains(&g))
            .collect();
        {
            use rand::seq::SliceRandom;
            pool.shuffle(&mut rng);
        }
        vp_ids.extend(pool.into_iter().take(target - vp_ids.len()));
        let vantage = VantageTable::build_with_vps(n, vp_ids, &|a, b| {
            if live[b as usize] {
                oracle.distance(a, b)
            } else {
                DEAD_COORD
            }
        });
        let tree = NbTree::build_over(&oracle, Some(&vantage), self.config.tree, &mut rng, &live);
        let vantage = Arc::new(vantage);
        oracle.set_hints(Arc::new(VantageHints(Arc::clone(&vantage))));
        self.oracle = oracle;
        self.vantage = vantage;
        self.tree = tree;
        self.inflation = 0.0;
        self.audit_build();
    }

    /// A mutable copy sharing the immutable heavyweight state (oracle,
    /// vantage table) by `Arc`. This is how a serving registry mutates while
    /// readers hold the previous `Arc<NbIndex>`: fork, mutate the fork, swap.
    pub fn fork(&self) -> NbIndex {
        NbIndex {
            oracle: Arc::clone(&self.oracle),
            vantage: Arc::clone(&self.vantage),
            tree: self.tree.clone(),
            ladder: self.ladder.clone(),
            build_stats: self.build_stats,
            config: self.config.clone(),
            policy: self.policy,
            epoch: self.epoch,
            inflation: self.inflation,
        }
    }

    /// Index memory footprint in bytes (vantage orderings + tree), Fig 6(l).
    /// Session π̂-vectors are accounted by [`QuerySession::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        self.vantage.memory_bytes() + self.tree.memory_bytes()
    }

    /// Initialization phase for a relevance function: computes π̂-vectors
    /// once; the returned session answers any number of `(θ, k)` runs.
    ///
    /// Tombstoned ids in `relevant` are dropped: a removed graph can neither
    /// be an answer nor lend coverage.
    pub fn start_session(&self, mut relevant: Vec<GraphId>) -> QuerySession<&NbIndex> {
        relevant.retain(|&g| self.tree.is_live(g));
        QuerySession::new(self, relevant)
    }

    /// [`Self::start_session`] over a shared handle: the returned session is
    /// `'static + Send + Sync`, so it can outlive the calling stack frame and
    /// serve concurrent runs — the shape the serving layer's session registry
    /// needs. Tombstoned ids in `relevant` are dropped, as in
    /// [`Self::start_session`].
    pub fn start_session_shared(self: Arc<Self>, mut relevant: Vec<GraphId>) -> QuerySession {
        relevant.retain(|&g| self.tree.is_live(g));
        QuerySession::new(self, relevant)
    }

    /// One-shot top-k representative query.
    pub fn query(&self, relevant: Vec<GraphId>, theta: f64, k: usize) -> (AnswerSet, RunStats) {
        self.start_session(relevant).run(theta, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_datagen::{DatasetKind, DatasetSpec};
    use graphrep_ged::{GedConfig, GedEngine};
    use graphrep_graph::generate::mutate;

    fn small_config(data: &graphrep_datagen::Dataset) -> NbIndexConfig {
        NbIndexConfig {
            num_vps: 4,
            ladder: data.default_ladder.clone(),
            ..Default::default()
        }
    }

    /// An insert must leave the index answering exactly like a fresh build
    /// over the extended database — the differential-equivalence contract in
    /// miniature.
    #[test]
    fn insert_matches_fresh_build() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 40, 7101).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let mut index = NbIndex::build(oracle, small_config(&data));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let g = mutate(&mut rng, data.db.graph(0), 2, &[0, 1], &[0]);

        let (id, out) = index.insert(g.clone()).unwrap();
        assert_eq!(id as usize, data.db.len());
        assert_eq!(out, MutationOutcome::Applied);
        assert_eq!(index.epoch(), 1);
        index.tree().validate(index.oracle()).unwrap();

        let mut relevant = data.default_query().relevant_set(&data.db);
        relevant.push(id);
        let (got, _) = index.query(relevant.clone(), data.default_theta, 4);

        let mut graphs = data.db.graphs().to_vec();
        graphs.push(g);
        let ref_oracle = Arc::new(DistanceOracle::new(
            Arc::new(graphs),
            GedEngine::new(GedConfig::default()),
        ));
        let reference = NbIndex::build(ref_oracle, small_config(&data));
        let (want, _) = reference.query(relevant, data.default_theta, 4);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    /// A remove must drop the graph from answers, and the mutated index must
    /// agree with a fresh index queried over the surviving relevant set.
    #[test]
    fn remove_matches_live_filtered_fresh_build() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 40, 7102).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let mut index = NbIndex::build(oracle, small_config(&data));
        let relevant = data.default_query().relevant_set(&data.db);
        let victim = relevant[0];

        assert_eq!(index.remove(victim).unwrap(), MutationOutcome::Applied);
        assert!(
            matches!(index.remove(victim), Err(MutateError(_))),
            "double remove is rejected"
        );
        index.tree().validate(index.oracle()).unwrap();

        let (got, _) = index.query(relevant.clone(), data.default_theta, 4);
        assert!(!got.ids.contains(&victim));

        let reference = NbIndex::build(data.db.oracle(GedConfig::default()), small_config(&data));
        let live: Vec<GraphId> = relevant.iter().copied().filter(|&g| g != victim).collect();
        let (want, _) = reference.query(live, data.default_theta, 4);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    /// Crossing the tombstone-ratio threshold must trigger a full rebuild
    /// that compacts the tombstones and keeps answers correct.
    #[test]
    fn tombstone_ratio_triggers_rebuild() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 30, 7103).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let mut index = NbIndex::build(oracle, small_config(&data));
        index.set_policy(MutationPolicy {
            max_tombstone_ratio: 0.1,
            ..MutationPolicy::default()
        });
        let mut rebuilt = false;
        for id in 0..5 {
            if index.remove(id).unwrap() == MutationOutcome::Rebuilt {
                rebuilt = true;
                assert_eq!(
                    index.tree().stale(),
                    0,
                    "rebuild compacts in-range tombstones"
                );
            }
        }
        assert!(rebuilt, "removing 5/30 must cross the 0.1 ratio");
        index.tree().validate(index.oracle()).unwrap();
        assert_eq!(index.tree().live_len(), 25);

        let relevant = data.default_query().relevant_set(&data.db);
        let reference = NbIndex::build(data.db.oracle(GedConfig::default()), small_config(&data));
        let live: Vec<GraphId> = relevant.iter().copied().filter(|&g| g >= 5).collect();
        let (want, _) = reference.query(live, data.default_theta, 3);
        let (got, _) = index.query(relevant, data.default_theta, 3);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    /// A fork must be mutable without disturbing the original — the
    /// registry's copy-on-mutate contract.
    #[test]
    fn fork_isolates_mutations() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 20, 7104).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let index = NbIndex::build(oracle, small_config(&data));
        let mut fork = index.fork();
        fork.remove(3).unwrap();
        assert!(!fork.tree().is_live(3));
        assert!(index.tree().is_live(3), "original must be untouched");
        assert_eq!(index.epoch(), 0);
        assert_eq!(fork.epoch(), 1);

        let relevant = data.default_query().relevant_set(&data.db);
        let (a, _) = index.query(relevant.clone(), data.default_theta, 3);
        let reference = NbIndex::build(data.db.oracle(GedConfig::default()), small_config(&data));
        let (b, _) = reference.query(relevant, data.default_theta, 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Unknown ids are rejected with the typed error, not a panic.
    #[test]
    fn remove_unknown_id_rejected() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 10, 7105).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let mut index = NbIndex::build(oracle, small_config(&data));
        let err = index.remove(999).unwrap_err();
        assert!(err.to_string().contains("mutation rejected"));
    }
}

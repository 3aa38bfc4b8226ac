//! The dataset registry: datasets and their NB-Indexes are loaded once at
//! server start and shared (`Arc`) across every connection and worker.
//!
//! Warm start: if `<dir>/index.bin` (the succinct binary format) exists it
//! is loaded through the persistence layer — the whole NP-hard build phase
//! is skipped. Otherwise the index is built under exact GED with
//! [`default_index_config`] and, optionally, written back for the next
//! start. `index.bin` is the only index a dataset has and this module is
//! its only writer: the CLI's `index`, `query` and `refine` open a
//! directory through [`open_index`] and [`write_index`] with the same
//! parameters, so whatever loads the file serves the build the paper's
//! exactness bounds hold for. The offline verifier
//! ([`crate::offline_reference_from_dir`]) never reads it: it rebuilds from
//! the base snapshot and the log (`replay`).
//!
//! Mutations (DESIGN.md §10) go through [`LoadedDataset::insert_graph`] /
//! [`LoadedDataset::remove_graph`]: the current index is forked, the fork is
//! mutated, and the fork is swapped in under a write lock. Sessions opened
//! earlier keep their pinned `Arc<NbIndex>` snapshot, so every query is
//! consistent with one serializable order of the mutations. A dir-backed
//! dataset persists each mutation as what it changed: one checksummed record
//! appended to `<dir>/mutations.log` (the base snapshot files are never
//! rewritten), then `index.bin` replaced by a rename. The log is the record
//! of truth: its intact record count is the epoch an `index.bin` must carry
//! to be loaded, so a crash between the two writes, or a torn record, is
//! detected on the next open and answered by replaying the log
//! ([`open_index`]).
//!
//! A sharded dataset ([`ShardedDataset`]) keeps no state of its own on
//! disk: its mutations append to the same log, and an open partitions the
//! base snapshot, builds the shards and replays the log through them.

use crate::protocol::{DatasetStats, OracleDelta, ServeError, ShardStats};
use graphrep_core::{
    AnswerCache, CacheConfig, GraphDatabase, MutationOutcome, NbIndex, NbIndexConfig, QuerySession,
    RelevanceQuery, Scorer, Session, ViewStore,
};
use graphrep_datagen::store::{self, LogRecord};
use graphrep_datagen::Dataset;
use graphrep_ged::{DistanceOracle, GedConfig, OracleStats, TierStats, MAX_EXACT_NODES};
use graphrep_graph::{Graph, GraphId};
use graphrep_lockaudit::{TrackedReadGuard, TrackedRwLock};
use graphrep_shard::{CoordConfig, CoordSession, Coordinator};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Family id recorded for graphs inserted from outside the generator: the
/// generator's sanity checks skip them, and they can never collide with a
/// real family.
pub const EXTERNAL_FAMILY: u32 = u32::MAX;

/// The one set of index-build parameters, shared by the server, the CLI and
/// the offline verifier: the library defaults plus the dataset's own
/// threshold ladder.
pub fn default_index_config(data: &Dataset) -> NbIndexConfig {
    NbIndexConfig {
        ladder: data.default_ladder.clone(),
        ..NbIndexConfig::default()
    }
}

/// Receipt returned by the registry's mutation methods, for single-index
/// and sharded datasets alike.
#[derive(Debug, Clone)]
pub struct MutationReceipt {
    /// Affected graph id (the new id for inserts).
    pub id: GraphId,
    /// Mutation epoch after the operation (for a sharded dataset, the
    /// owning shard's — the only one that moved).
    pub epoch: u64,
    /// Live graphs after the operation (across all shards).
    pub live: usize,
    /// Tombstoned graphs after the operation (across all shards).
    pub tombstones: usize,
    /// Whether the operation tripped the (owning shard's) rebuild policy.
    pub rebuilt: bool,
    /// Owning shard index; 0 for a single index.
    pub shard: usize,
    /// Full per-shard epoch vector after the operation; empty for a single
    /// index.
    pub shard_epochs: Vec<u64>,
}

/// Counts a failed best-effort persistence step. Serving goes on (a
/// read-only dataset directory must not stop it); the count surfaces as
/// [`DatasetStats::persist_errors`].
fn note_persist<T, E>(errors: &AtomicU64, result: Result<T, E>) {
    if result.is_err() {
        // Relaxed: monotone telemetry counter; no ordering needed.
        errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts a mutation whose receipt says it tripped the rebuild policy; the
/// count surfaces as [`DatasetStats::rebuilds`].
fn note_rebuild(rebuilds: &AtomicU64, rebuilt: bool) {
    if rebuilt {
        // Relaxed: monotone telemetry counter; no ordering needed.
        rebuilds.fetch_add(1, Ordering::Relaxed);
    }
}

/// The default relevance function at `quantile` over `data`'s feature rows —
/// identical to the CLI's (mean of all feature dimensions, top quantile), so
/// a server session, single-index or sharded, answers exactly what an
/// offline `query` invocation answers. Tombstoned ids are filtered by the
/// session layer.
fn relevant_of(data: &Dataset, quantile: f64) -> Vec<GraphId> {
    let scorer = Scorer::MeanOfDims((0..data.db.dims().max(1)).collect());
    RelevanceQuery::top_quantile(&data.db, scorer, quantile).relevant_set(&data.db)
}

/// Rejects an inserted feature row whose width differs from the dataset's.
fn check_dims(db: &GraphDatabase, features: &[f64]) -> Result<(), ServeError> {
    if db.is_empty() || features.len() == db.dims() {
        return Ok(());
    }
    Err(ServeError::new(format!(
        "feature vector has {} dims, dataset has {}",
        features.len(),
        db.dims()
    )))
}

/// Rejects a graph too large for the exact GED search the registry serves
/// with, before any distance is computed: the search would panic the
/// worker that ran it.
fn check_nodes(graph: &Graph) -> Result<(), ServeError> {
    if graph.node_count() <= MAX_EXACT_NODES {
        return Ok(());
    }
    Err(ServeError::new(format!(
        "graph has {} nodes, exact GED supports at most {MAX_EXACT_NODES}",
        graph.node_count()
    )))
}

/// [`check_nodes`] over every graph a dataset directory holds, base
/// snapshot and logged inserts alike.
fn check_dir_nodes(dir: &Path, db: &GraphDatabase) -> Result<(), ServeError> {
    for (id, graph) in db.graphs().iter().enumerate() {
        check_nodes(graph)
            .map_err(|e| ServeError::new(format!("{}: graph {id}: {e}", dir.display())))?;
    }
    Ok(())
}

/// Cumulative oracle counters (plus raw engine calls) at one instant: the
/// load-time baseline a dataset keeps, and what `stats` subtracts it from.
type OracleTotals = (OracleStats, TierStats, u64);

fn oracle_totals(oracle: &DistanceOracle) -> OracleTotals {
    (oracle.stats(), oracle.tier_stats(), oracle.engine_calls())
}

/// Oracle activity between `base` and `now` (serving-time deltas: the
/// warm-load/build work is excluded by the baseline, and mutation-swapped
/// oracles carry their counters forward, so baselines stay comparable
/// across mutations).
fn oracle_delta((s, t, engine): OracleTotals, (bs, bt, bengine): &OracleTotals) -> OracleDelta {
    OracleDelta {
        distance_computations: s
            .distance_computations
            .saturating_sub(bs.distance_computations),
        within_rejections: s.within_rejections.saturating_sub(bs.within_rejections),
        cache_hits: s.cache_hits.saturating_sub(bs.cache_hits),
        ub_accepts: s.ub_accepts.saturating_sub(bs.ub_accepts),
        engine_calls: engine.saturating_sub(*bengine),
        size_rejects: t.size_rejects.saturating_sub(bt.size_rejects),
        label_rejects: t.label_rejects.saturating_sub(bt.label_rejects),
        degree_rejects: t.degree_rejects.saturating_sub(bt.degree_rejects),
        vantage_lb_rejects: t.vantage_lb_rejects.saturating_sub(bt.vantage_lb_rejects),
        vantage_ub_accepts: t.vantage_ub_accepts.saturating_sub(bt.vantage_ub_accepts),
    }
}

/// The mutable half of a [`LoadedDataset`], swapped atomically under the
/// write lock.
struct DatasetState {
    data: Dataset,
    index: Arc<NbIndex>,
    index_source: String,
}

/// The two cache tiers of one dataset (DESIGN.md §11): the materialized
/// θ-neighborhood [`ViewStore`] and the cross-session [`AnswerCache`],
/// handed to every session [`LoadedDataset::open_session`] opens.
///
/// Both key every entry on the index's mutation epoch, so correctness never
/// depends on invalidation; [`DatasetCaches::invalidate_all`] is the memory
/// measure the mutation path applies after each fork-mutate-swap. Sessions
/// pinned to the pre-mutation snapshot simply miss afterwards and recompute
/// from their snapshot, byte-identically.
#[derive(Debug)]
struct DatasetCaches {
    /// `capacity == 0` disables caching entirely: sessions are opened
    /// without the tiers and run the plain uncached path.
    enabled: bool,
    views: Arc<ViewStore>,
    answers: Arc<AnswerCache>,
}

impl DatasetCaches {
    fn new(config: CacheConfig) -> Self {
        Self {
            enabled: config.capacity > 0,
            views: Arc::new(ViewStore::new(config)),
            answers: Arc::new(AnswerCache::new(config)),
        }
    }

    /// Drops every entry in both tiers (counters are kept — monotone
    /// history).
    fn invalidate_all(&self) {
        self.views.invalidate_all();
        self.answers.invalidate_all();
    }
}

/// One warm-loaded dataset: database, shared NB-Index, and the counter
/// baselines for delta reporting.
pub struct LoadedDataset {
    name: String,
    /// Backing directory for re-persisting after mutations; `None` for
    /// in-memory datasets.
    dir: Option<PathBuf>,
    state: TrackedRwLock<DatasetState>,
    caches: DatasetCaches,
    /// Failed best-effort persist steps since load (the open-time write-back
    /// included).
    persist_errors: AtomicU64,
    /// Mutations since load that tripped the rebuild policy.
    rebuilds: AtomicU64,
    base: OracleTotals,
}

impl std::fmt::Debug for LoadedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.read();
        f.debug_struct("LoadedDataset")
            .field("name", &self.name)
            .field("graphs", &st.data.db.len())
            .field("epoch", &st.index.epoch())
            .field("index_source", &st.index_source)
            .finish()
    }
}

/// Writes `index` to `<dir>/index.bin` through a temporary file and a
/// rename, so a crash leaves either the previous file or the new one.
pub fn write_index(dir: &Path, index: &NbIndex) -> std::io::Result<()> {
    let tmp = dir.join("index.bin.tmp");
    std::fs::write(&tmp, index.save_bin())?;
    std::fs::rename(tmp, dir.join("index.bin"))
}

/// The index the dataset directory `dir` describes, read by `logged`, with
/// its provenance: `"loaded"` when `<dir>/index.bin` loads at the log's
/// epoch (its intact record count), otherwise `"built"` — with what was
/// wrong with the file on disk, if there was one — by replaying the log. A
/// built index is not written back; callers that want the next open warm
/// pass it to [`write_index`]. A graph anywhere in the directory over
/// [`MAX_EXACT_NODES`] nodes is an error before any file is read or built.
pub fn open_index(
    dir: &Path,
    logged: &store::Logged,
    ged: GedConfig,
    config: NbIndexConfig,
) -> Result<(NbIndex, String), ServeError> {
    check_dir_nodes(dir, &logged.data.db)?;
    let expected_epoch = logged.records.len() as u64;
    // `None`: no file to load; `Some(Err(_))`: a file that must not be served.
    let loaded = std::fs::read(dir.join("index.bin")).ok().map(|bytes| {
        NbIndex::load_bin_at_epoch(&bytes, logged.data.db.oracle(ged), expected_epoch)
    });
    match loaded {
        Some(Ok(index)) => Ok((index, "loaded".to_owned())),
        stale => {
            let index = replay(logged, ged, config)?;
            let source = match stale {
                Some(Err(e)) => format!("built (stale index on disk: index.bin: {e})"),
                _ => "built".to_owned(),
            };
            Ok((index, source))
        }
    }
}

/// The index a dataset directory's log describes when no `index.bin` at
/// the log's epoch exists: a fresh build over the base snapshot, then every
/// record replayed in order. The result sits at the log's epoch with the
/// log's tombstones, so removed graphs stay removed and the next mutation's
/// `index.bin` matches the log again.
pub(crate) fn replay(
    logged: &store::Logged,
    ged: GedConfig,
    config: NbIndexConfig,
) -> Result<NbIndex, ServeError> {
    let base = logged.data.db.prefix(logged.base_len);
    let mut index = NbIndex::build(base.oracle(ged), config);
    for record in &logged.records {
        match record {
            LogRecord::Insert { graph, .. } => index.insert(graph.clone()).map(|_| ()),
            LogRecord::Remove { id } => index.remove(*id).map(|_| ()),
        }
        .map_err(|e| ServeError::new(format!("replaying mutations.log: {e}")))?;
    }
    Ok(index)
}

impl LoadedDataset {
    /// Loads the dataset at `dir` (base snapshot plus mutation log) and
    /// warms its index from `<dir>/index.bin` when that loads cleanly at the
    /// log's epoch, its intact record count. Otherwise the index is rebuilt
    /// by replaying the log over the base, and the provenance records what
    /// was wrong with the file — never a silently wrong snapshot. A torn
    /// log tail is cut off so later appends stay reachable. With
    /// `persist_built`, a rebuilt index is written back to `<dir>/index.bin`
    /// so the next start is warm. A failed write is counted in
    /// `persist_errors` and otherwise ignored (read-only dataset directories
    /// must not prevent serving).
    pub fn open(name: &str, dir: &Path, persist_built: bool) -> Result<Self, ServeError> {
        let logged = store::load_logged(dir)
            .map_err(|e| ServeError::new(format!("loading {}: {e}", dir.display())))?;
        let (index, index_source) = open_index(
            dir,
            &logged,
            GedConfig::default(),
            default_index_config(&logged.data),
        )?;
        let write_back =
            (persist_built && index_source != "loaded").then(|| write_index(dir, &index));
        let ds = Self::from_parts(
            name,
            Some(dir.to_path_buf()),
            logged.data,
            index,
            index_source,
        );
        if let Some(write) = write_back {
            note_persist(&ds.persist_errors, write);
        }
        if logged.torn {
            let cut = store::truncate_log(dir, logged.intact_bytes);
            note_persist(&ds.persist_errors, cut);
        }
        Ok(ds)
    }

    /// The one constructor: default caches, zeroed telemetry, and the
    /// oracle baseline taken now — after the load or build that made `index`.
    pub(crate) fn from_parts(
        name: &str,
        dir: Option<PathBuf>,
        data: Dataset,
        index: NbIndex,
        index_source: String,
    ) -> Self {
        let base = oracle_totals(index.oracle());
        Self {
            name: name.to_owned(),
            dir,
            state: TrackedRwLock::new(
                "serve.registry.LoadedDataset.state",
                DatasetState {
                    data,
                    index: Arc::new(index),
                    index_source,
                },
            ),
            caches: DatasetCaches::new(CacheConfig::default()),
            persist_errors: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            base,
        }
    }

    /// Replaces the cache configuration (consuming builder — call before the
    /// dataset is registered and shared).
    pub fn with_cache_config(mut self, config: CacheConfig) -> Self {
        self.caches = DatasetCaches::new(config);
        self
    }

    /// Poison-proof read lock (the tracked wrapper recovers poisoned std
    /// guards): a panicking mutation must not take every future query down
    /// with it — the state is swapped whole, so it is never torn.
    fn read(&self) -> TrackedReadGuard<'_, DatasetState> {
        self.state.read()
    }

    /// Registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dataset's default threshold θ.
    pub fn default_theta(&self) -> f64 {
        self.read().data.default_theta
    }

    /// A shared handle to the current NB-Index. Sessions pin the handle they
    /// start with; mutations swap in a new one.
    pub fn index_arc(&self) -> Arc<NbIndex> {
        Arc::clone(&self.read().index)
    }

    /// How the index was obtained (`loaded`, `built`, or `mutated (epoch N)`).
    pub fn index_source(&self) -> String {
        self.read().index_source.clone()
    }

    /// The default relevance function at `quantile` over the current
    /// feature rows (see [`relevant_of`]).
    pub fn relevant_for(&self, quantile: f64) -> Vec<GraphId> {
        relevant_of(&self.read().data, quantile)
    }

    /// Opens a session on the top-`quantile` relevant set, pinned to the
    /// current epoch. Index and feature rows are read under *one* guard — an
    /// insert landing between two reads would pair epoch *e*'s index with a
    /// quantile threshold taken over epoch *e + 1*'s rows, an `L_q` that
    /// exists at neither epoch. The session holds the dataset's cache tiers
    /// when caching is on; their keys carry the pinned epoch, so this stays
    /// sound for sessions that outlive later mutations.
    pub fn open_session(&self, quantile: f64) -> QuerySession {
        let (index, relevant) = {
            let st = self.read();
            (Arc::clone(&st.index), relevant_of(&st.data, quantile))
        };
        // Through the index so tombstoned ids are filtered from `L_q`.
        let session = index.start_session_shared(relevant);
        if !self.caches.enabled {
            return session;
        }
        session
            .with_views(Arc::clone(&self.caches.views))
            .with_answers(Arc::clone(&self.caches.answers))
    }

    /// Adds `graph` with `features` to the dataset and index (DESIGN.md
    /// §10): fork-mutate-swap, so concurrent sessions keep their snapshot.
    /// Dir-backed datasets log the insert (see module docs). A graph over
    /// [`MAX_EXACT_NODES`] nodes is rejected before any GED work.
    pub fn insert_graph(
        &self,
        graph: Graph,
        features: Vec<f64>,
    ) -> Result<MutationReceipt, ServeError> {
        check_nodes(&graph)?;
        let mut st = self.state.write();
        check_dims(&st.data.db, &features)?;
        let mut index = st.index.fork();
        let (id, outcome) = index
            // graphrep: allow(G008, mutations serialize on the state write lock by design -- the NP-hard insert runs on a private fork while readers keep their pinned Arc snapshot, so only competing mutations and new session opens wait)
            .insert(graph.clone())
            .map_err(|e| ServeError::new(e.to_string()))?;
        let record = LogRecord::Insert {
            id,
            family: EXTERNAL_FAMILY,
            features: features.clone(),
            graph: graph.clone(),
        };
        st.data.db = st.data.db.pushed(graph, features);
        st.data.family.push(EXTERNAL_FAMILY);
        Ok(self.swap_in(&mut st, index, record, outcome))
    }

    /// Tombstones graph `id` in the index (DESIGN.md §10). The database keeps
    /// the graph so ids stay aligned with the oracle; sessions opened after
    /// the call will never see it again.
    pub fn remove_graph(&self, id: GraphId) -> Result<MutationReceipt, ServeError> {
        let mut st = self.state.write();
        let mut index = st.index.fork();
        let outcome = index
            // graphrep: allow(G008, same serialization as insert_graph -- the tombstone and any rebuild it trips run on a private fork under the state write lock; readers keep their pinned Arc snapshot)
            .remove(id)
            .map_err(|e| ServeError::new(e.to_string()))?;
        Ok(self.swap_in(&mut st, index, LogRecord::Remove { id }, outcome))
    }

    /// The swap half of fork-mutate-swap: installs the mutated fork, drops
    /// the caches, persists `record`, and writes the receipt.
    fn swap_in(
        &self,
        st: &mut DatasetState,
        index: NbIndex,
        record: LogRecord,
        outcome: MutationOutcome,
    ) -> MutationReceipt {
        let receipt = MutationReceipt {
            id: record.id(),
            epoch: index.epoch(),
            live: index.tree().live_len(),
            tombstones: index.tree().tombstones(),
            rebuilt: outcome == MutationOutcome::Rebuilt,
            shard: 0,
            shard_epochs: Vec::new(),
        };
        note_rebuild(&self.rebuilds, receipt.rebuilt);
        st.index_source = format!("mutated (epoch {})", index.epoch());
        st.index = Arc::new(index);
        // Epoch keys already make the old entries unreachable for sessions
        // on the new snapshot; dropping them wholesale reclaims the memory.
        self.caches.invalidate_all();
        self.persist_locked(st, &record);
        receipt
    }

    /// Best-effort persist of one mutation, under the state write lock so
    /// records land in epoch order: append its log record, then replace
    /// `index.bin`. If the process dies between the two, the log holds one
    /// record more than the file's epoch, and the next
    /// [`LoadedDataset::open`] replays the log instead of serving the file.
    fn persist_locked(&self, st: &DatasetState, record: &LogRecord) {
        let Some(dir) = &self.dir else { return };
        note_persist(&self.persist_errors, store::append(dir, record));
        note_persist(&self.persist_errors, write_index(dir, &st.index));
    }

    /// Serializable statistics for the `stats` endpoint.
    pub fn stats(&self) -> DatasetStats {
        let (graphs, memory, source, oracle) = {
            let st = self.read();
            (
                st.data.db.len(),
                st.index.memory_bytes(),
                st.index_source.clone(),
                st.index.oracle_arc(),
            )
        };
        DatasetStats {
            name: self.name.clone(),
            graphs,
            index_memory_bytes: memory,
            index_source: source,
            oracle: oracle_delta(oracle_totals(&oracle), &self.base),
            cache_enabled: self.caches.enabled,
            view_store: self.caches.views.counters().into(),
            answer_cache: self.caches.answers.counters().into(),
            shards: Vec::new(),
            // Relaxed: monotone telemetry counters; no ordering needed.
            persist_errors: self.persist_errors.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
        }
    }
}

/// One dataset served by a shard [`Coordinator`] instead of a single
/// NB-Index (DESIGN.md §14): queries scatter-gather across per-shard
/// indexes and mutations route to the owning shard. A dir-backed dataset
/// persists exactly what a single index logs — one record appended to
/// `<dir>/mutations.log` per mutation — and nothing else.
///
/// The coordinator serializes mutations on its own per-shard handle locks;
/// the dataset lock here guards the feature store used for relevance
/// scoring. Both mutations hold the dataset lock *across* the routed shard
/// operation and the log append (lock order: `data` → shard handle,
/// acyclic — the shard crate never takes serve locks), so the assigned
/// global id and the appended feature row can never interleave with a
/// concurrent insert, and log records land in apply order.
pub struct ShardedDataset {
    name: String,
    /// Backing directory whose `mutations.log` records every mutation.
    dir: Option<PathBuf>,
    data: TrackedRwLock<Dataset>,
    coord: Coordinator,
    /// How the coordinator came to be (`built`, plus the log records
    /// replayed at open).
    source: String,
    /// Failed best-effort persist steps since load (a failed cut of a torn
    /// log tail included).
    persist_errors: AtomicU64,
    /// Mutations since load that tripped the owning shard's rebuild policy.
    rebuilds: AtomicU64,
    base: OracleTotals,
    base_shard_calls: Vec<(u64, u64)>,
}

impl std::fmt::Debug for ShardedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDataset")
            .field("name", &self.name)
            .field("shards", &self.coord.shard_count())
            .field("epochs", &self.coord.epochs())
            .finish()
    }
}

/// Sums the per-shard oracle counters of `coord` into workspace-wide totals
/// (plus raw engine calls), for delta reporting against a load baseline.
/// Foreign questions the cross-shard fact table answered count as cache
/// hits beside the oracles' own.
fn sharded_oracle_totals(coord: &Coordinator) -> OracleTotals {
    let mut stats = OracleStats::default();
    let mut tiers = TierStats::default();
    let mut engine = 0u64;
    for snap in coord.snapshots() {
        let s = snap.oracle_stats();
        stats.distance_computations += s.distance_computations;
        stats.within_rejections += s.within_rejections;
        stats.cache_hits += s.cache_hits + snap.foreign_hits();
        stats.ub_accepts += s.ub_accepts;
        let t = snap.oracle_tier_stats();
        tiers.size_rejects += t.size_rejects;
        tiers.label_rejects += t.label_rejects;
        tiers.degree_rejects += t.degree_rejects;
        tiers.vantage_lb_rejects += t.vantage_lb_rejects;
        tiers.vantage_ub_accepts += t.vantage_ub_accepts;
        engine += snap.engine_calls() + snap.foreign_calls();
    }
    (stats, tiers, engine)
}

impl ShardedDataset {
    fn from_parts(
        name: &str,
        dir: Option<PathBuf>,
        data: Dataset,
        coord: Coordinator,
        source: String,
    ) -> Self {
        let base = sharded_oracle_totals(&coord);
        let base_shard_calls = coord
            .snapshots()
            .iter()
            .map(|s| (s.engine_calls(), s.foreign_calls()))
            .collect();
        Self {
            name: name.to_owned(),
            dir,
            data: TrackedRwLock::new("serve.registry.ShardedDataset.data", data),
            coord,
            source,
            persist_errors: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            base,
            base_shard_calls,
        }
    }

    /// Opens the dataset at `dir` sharded `shards` ways: partitions the base
    /// snapshot, builds every shard, then replays `<dir>/mutations.log`
    /// through the coordinator's own routes, so the result holds the log's
    /// inserts at the log's ids and its removes as tombstones — at any shard
    /// count, whatever else the directory holds. A torn log tail is cut off,
    /// as in [`LoadedDataset::open`].
    pub fn open(name: &str, dir: &Path, shards: usize) -> Result<Self, ServeError> {
        let logged = store::load_logged(dir)
            .map_err(|e| ServeError::new(format!("loading {}: {e}", dir.display())))?;
        check_dir_nodes(dir, &logged.data.db)?;
        let cfg = CoordConfig {
            shards,
            ladder: logged.data.default_ladder.clone(),
            ..CoordConfig::default()
        };
        let base = logged.data.db.prefix(logged.base_len);
        let coord = Coordinator::build(&base, GedConfig::default(), &cfg);
        for record in &logged.records {
            let replayed = match record {
                LogRecord::Insert { id, graph, .. } => match coord.insert(graph.clone()) {
                    Ok(r) if r.id == *id => Ok(()),
                    Ok(r) => Err(format!("insert of graph {id} was assigned id {}", r.id)),
                    Err(e) => Err(e.to_string()),
                },
                LogRecord::Remove { id } => coord.remove(*id).map(drop).map_err(|e| e.to_string()),
            };
            replayed.map_err(|e| ServeError::new(format!("replaying mutations.log: {e}")))?;
        }
        let source = format!("built, {} log records replayed", logged.records.len());
        let ds = Self::from_parts(name, Some(dir.to_path_buf()), logged.data, coord, source);
        if logged.torn {
            let cut = store::truncate_log(dir, logged.intact_bytes);
            note_persist(&ds.persist_errors, cut);
        }
        Ok(ds)
    }

    /// Builds a sharded dataset from an in-memory dataset (no persistence)
    /// — the shape in-process tests and benchmarks use.
    pub fn in_memory(name: &str, data: Dataset, shards: usize, seed: u64) -> Self {
        let cfg = CoordConfig {
            shards,
            seed,
            ladder: data.default_ladder.clone(),
        };
        let coord = Coordinator::build(&data.db, GedConfig::default(), &cfg);
        Self::from_parts(name, None, data, coord, "built".to_owned())
    }

    /// Registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Opens a scatter-gather session on the top-`quantile` relevant set
    /// (the same relevance function as [`LoadedDataset::open_session`]),
    /// pinned to the current epoch vector. Feature rows and shard snapshots
    /// are read under one `data` guard — lock order `data` → shard handle,
    /// the order inserts use — so no insert can land between them; the
    /// coordinator drops tombstoned ids under the usual admission rule.
    pub fn open_session(&self, quantile: f64) -> CoordSession {
        let data = self.data.read();
        self.coord.session(relevant_of(&data, quantile))
    }

    /// Inserts `graph` with `features`: the coordinator routes it to the
    /// owning shard (bumping only that shard's epoch), and the feature
    /// store follows under the *same* `data` write guard — id assignment
    /// and feature-row append must be atomic, or concurrent inserts could
    /// interleave and permanently misalign db row index vs global id
    /// (mirroring [`LoadedDataset::insert_graph`]'s single-lock discipline).
    /// The log record is appended under that guard too, so records land in
    /// id order.
    pub fn insert_graph(
        &self,
        graph: Graph,
        features: Vec<f64>,
    ) -> Result<MutationReceipt, ServeError> {
        check_nodes(&graph)?;
        let receipt = {
            let mut data = self.data.write();
            check_dims(&data.db, &features)?;
            let receipt = self
                .coord
                // graphrep: allow(G008, the data guard must span the routed insert so the feature row lands at exactly the assigned global id -- readers keep their snapshots and only competing mutations of this dataset wait, same serialization as LoadedDataset::insert_graph)
                .insert(graph.clone())
                .map_err(|e| ServeError::new(e.to_string()))?;
            if let Some(dir) = &self.dir {
                let record = LogRecord::Insert {
                    id: receipt.id,
                    family: EXTERNAL_FAMILY,
                    features: features.clone(),
                    graph: graph.clone(),
                };
                note_persist(&self.persist_errors, store::append(dir, &record));
            }
            data.db = data.db.pushed(graph, features);
            data.family.push(EXTERNAL_FAMILY);
            receipt
        };
        Ok(self.receipt(receipt))
    }

    /// Tombstones graph `id` on its owning shard. The feature store keeps
    /// the row so global ids stay aligned, mirroring the single-index path.
    /// The remove is logged under the `data` write guard, like an insert, so
    /// records land in apply order.
    pub fn remove_graph(&self, id: GraphId) -> Result<MutationReceipt, ServeError> {
        let receipt = {
            let _data = self.data.write();
            let receipt = self
                .coord
                // graphrep: allow(G008, the data guard must span the routed remove so its log record lands in apply order -- readers keep their snapshots and only competing mutations of this dataset wait, same serialization as insert_graph)
                .remove(id)
                .map_err(|e| ServeError::new(e.to_string()))?;
            if let Some(dir) = &self.dir {
                let record = LogRecord::Remove { id };
                note_persist(&self.persist_errors, store::append(dir, &record));
            }
            receipt
        };
        Ok(self.receipt(receipt))
    }

    /// The wire receipt of one applied mutation, counted if it rebuilt.
    fn receipt(&self, r: graphrep_shard::CoordReceipt) -> MutationReceipt {
        note_rebuild(&self.rebuilds, r.outcome == MutationOutcome::Rebuilt);
        MutationReceipt {
            id: r.id,
            epoch: r.epochs.get(r.shard).copied().unwrap_or(0),
            live: r.live,
            // From the receipt's own snapshot — re-reading the coordinator
            // here could pair this with a concurrent mutation's live count.
            tombstones: r.len.saturating_sub(r.live),
            rebuilt: r.outcome == MutationOutcome::Rebuilt,
            shard: r.shard,
            shard_epochs: r.epochs,
        }
    }

    /// Serializable statistics: aggregate oracle deltas plus the per-shard
    /// breakdown (epochs, engine/foreign calls, index memory).
    pub fn stats(&self) -> DatasetStats {
        let shards = self
            .coord
            .overview()
            .into_iter()
            .map(|o| {
                let (base_eng, base_foreign) = self
                    .base_shard_calls
                    .get(o.shard)
                    .copied()
                    .unwrap_or((0, 0));
                ShardStats {
                    shard: o.shard,
                    epoch: o.epoch,
                    live: o.live,
                    len: o.len,
                    engine_calls: o.engine_calls.saturating_sub(base_eng),
                    foreign_calls: o.foreign_calls.saturating_sub(base_foreign),
                    index_memory_bytes: o.index_memory_bytes,
                }
            })
            .collect::<Vec<_>>();
        DatasetStats {
            name: self.name.clone(),
            graphs: self.data.read().db.len(),
            index_memory_bytes: shards.iter().map(|s| s.index_memory_bytes).sum(),
            index_source: format!("sharded x{} ({})", self.coord.shard_count(), self.source),
            oracle: oracle_delta(sharded_oracle_totals(&self.coord), &self.base),
            cache_enabled: false,
            view_store: Default::default(),
            answer_cache: Default::default(),
            shards,
            // Relaxed: monotone telemetry counters; no ordering needed.
            persist_errors: self.persist_errors.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
        }
    }
}

/// One registry entry: a dataset served by a single NB-Index or by a shard
/// coordinator. Cloning is cheap (`Arc`s).
#[derive(Debug, Clone)]
pub enum DatasetEntry {
    /// Single-index dataset (the default deployment).
    Single(Arc<LoadedDataset>),
    /// Scatter-gather dataset split over shards.
    Sharded(Arc<ShardedDataset>),
}

impl DatasetEntry {
    /// Registry name.
    pub fn name(&self) -> &str {
        match self {
            DatasetEntry::Single(ds) => ds.name(),
            DatasetEntry::Sharded(ds) => ds.name(),
        }
    }

    /// Per-dataset statistics for the `stats` endpoint.
    pub fn stats(&self) -> DatasetStats {
        match self {
            DatasetEntry::Single(ds) => ds.stats(),
            DatasetEntry::Sharded(ds) => ds.stats(),
        }
    }

    /// Inserts `graph` with `features` into whichever engine serves this
    /// dataset.
    pub fn insert_graph(
        &self,
        graph: Graph,
        features: Vec<f64>,
    ) -> Result<MutationReceipt, ServeError> {
        match self {
            DatasetEntry::Single(ds) => ds.insert_graph(graph, features),
            DatasetEntry::Sharded(ds) => ds.insert_graph(graph, features),
        }
    }

    /// Tombstones graph `id` in whichever engine serves this dataset.
    pub fn remove_graph(&self, id: GraphId) -> Result<MutationReceipt, ServeError> {
        match self {
            DatasetEntry::Single(ds) => ds.remove_graph(id),
            DatasetEntry::Sharded(ds) => ds.remove_graph(id),
        }
    }

    /// Opens a session on the top-`quantile` relevant set of whichever
    /// engine serves this dataset, pinned to its current epoch(s).
    pub fn open_session(&self, quantile: f64) -> Box<dyn Session> {
        match self {
            DatasetEntry::Single(ds) => Box::new(ds.open_session(quantile)),
            DatasetEntry::Sharded(ds) => Box::new(ds.open_session(quantile)),
        }
    }

    /// The single-index dataset behind this entry, if it is not sharded.
    pub fn as_single(&self) -> Option<&Arc<LoadedDataset>> {
        match self {
            DatasetEntry::Single(ds) => Some(ds),
            DatasetEntry::Sharded(_) => None,
        }
    }
}

/// Name → dataset map, immutable once the server starts (the datasets
/// themselves mutate internally).
#[derive(Debug, Default)]
pub struct DatasetRegistry {
    map: HashMap<String, DatasetEntry>,
}

impl DatasetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads and registers the dataset at `dir` under `name`, with the
    /// default cache configuration.
    pub fn load_dir(
        &mut self,
        name: &str,
        dir: &Path,
        persist_built: bool,
    ) -> Result<(), ServeError> {
        self.load_dir_with(name, dir, persist_built, CacheConfig::default())
    }

    /// [`DatasetRegistry::load_dir`] with an explicit cache configuration
    /// (the `graphrep serve --cache-capacity` path).
    pub fn load_dir_with(
        &mut self,
        name: &str,
        dir: &Path,
        persist_built: bool,
        cache: CacheConfig,
    ) -> Result<(), ServeError> {
        let ds = LoadedDataset::open(name, dir, persist_built)?.with_cache_config(cache);
        self.insert(ds);
        Ok(())
    }

    /// Loads and registers the dataset at `dir` sharded `shards` ways (the
    /// `graphrep serve --shards S` path; see [`ShardedDataset::open`]).
    pub fn load_dir_sharded(
        &mut self,
        name: &str,
        dir: &Path,
        shards: usize,
    ) -> Result<(), ServeError> {
        let ds = ShardedDataset::open(name, dir, shards)?;
        self.insert_sharded(ds);
        Ok(())
    }

    /// Registers an already-loaded single-index dataset.
    pub fn insert(&mut self, ds: LoadedDataset) {
        self.map
            .insert(ds.name.clone(), DatasetEntry::Single(Arc::new(ds)));
    }

    /// Registers an already-built sharded dataset.
    pub fn insert_sharded(&mut self, ds: ShardedDataset) {
        self.map
            .insert(ds.name.clone(), DatasetEntry::Sharded(Arc::new(ds)));
    }

    /// Looks a dataset up by name.
    pub fn get(&self, name: &str) -> Option<DatasetEntry> {
        self.map.get(name).cloned()
    }

    /// Registered dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.keys().cloned().collect();
        v.sort();
        v
    }

    /// Per-dataset statistics, in name order.
    pub fn stats(&self) -> Vec<DatasetStats> {
        self.names()
            .into_iter()
            .filter_map(|n| self.map.get(&n).map(|d| d.stats()))
            .collect()
    }
}

/// Builds a [`LoadedDataset`] from an in-memory dataset (no directory, no
/// persistence) — the shape in-process tests and benchmarks use.
pub fn load_in_memory(name: &str, data: Dataset) -> LoadedDataset {
    let oracle = data.db.oracle(GedConfig::default());
    let index = NbIndex::build(oracle, default_index_config(&data));
    LoadedDataset::from_parts(name, None, data, index, "built".to_owned())
}

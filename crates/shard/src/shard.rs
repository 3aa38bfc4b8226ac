//! Per-shard state: each shard owns its [`NbIndex`] (and through it its
//! [`DistanceOracle`]), its member list mapping local ids to global ids,
//! and its partition geometry (center, covering radius, member-to-center
//! distances).
//!
//! All distance work lives here, behind shard-side methods — the
//! coordinator aggregates bounds and routes refinement requests but never
//! touches the GED engine or oracle verification paths itself (lint G011).
//!
//! A `ShardState` is an immutable snapshot: mutations build a successor via
//! fork-mutate and the coordinator swaps it in under its handle lock, so a
//! session holding `Arc<ShardState>`s is pinned to one epoch vector.
//!
//! Pair facts live in two tables whose key spaces never meet: a home pair's
//! in the shard oracle's memo, keyed by local id, and a cross-shard pair's
//! in one [`FactTable`] keyed by global id, which every shard and every
//! generation of a coordinator share. Global ids are never reused and
//! graphs never change, so neither table needs an epoch.

use crate::partition::Partition;
use graphrep_core::{
    GraphDatabase, MutateError, MutationOutcome, NbIndex, NbIndexConfig, PiHatVectors,
    ThresholdLadder,
};
use graphrep_ged::{DistanceOracle, Fact, FactTable, GedConfig, GedEngine, GraphProfile};
use graphrep_graph::{Graph, GraphId};
use graphrep_metric::{BandProjection, Bitset};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One shard's immutable snapshot.
#[derive(Debug)]
pub struct ShardState {
    index: Arc<NbIndex>,
    /// Global id of each local graph, ascending (tombstones included —
    /// local ids are oracle positions and never move).
    members: Vec<GraphId>,
    /// Distance of each member to the shard center, parallel to `members`.
    to_center: Vec<f64>,
    /// Local id of the shard center.
    center_local: GraphId,
    /// Covering radius: max member-to-center distance ever admitted.
    radius: f64,
    /// Engine questions served for foreign probes (candidates owned by
    /// other shards, and graphs being routed), outside the oracle's own
    /// counters: one per engine ask, whichever tier settles it. Shared by
    /// every generation, like the oracle's tally, so calls a session makes
    /// through a superseded snapshot still count.
    foreign_calls: Arc<AtomicU64>,
    /// Foreign θ-questions about this shard's members that `foreign_facts`
    /// answered without the engine; shared like `foreign_calls`.
    foreign_hits: Arc<AtomicU64>,
    /// Facts about cross-shard pairs, keyed by global id: one table for
    /// every shard and generation of the coordinator.
    foreign_facts: Arc<FactTable>,
}

impl ShardState {
    /// Builds shard `s` of `part` over `db`'s graphs: its members (global
    /// ids, ascending), centered on the partition's center for `s`.
    /// `foreign_facts` is the coordinator's cross-shard table, shared with
    /// every other shard.
    pub fn build(
        db: &GraphDatabase,
        ged: GedConfig,
        part: &Partition,
        s: usize,
        ladder: &[f64],
        foreign_facts: Arc<FactTable>,
    ) -> ShardState {
        let members = part.members[s].clone();
        let graphs: Vec<Graph> = members.iter().map(|&g| db.graph(g).clone()).collect();
        let oracle = Arc::new(DistanceOracle::new(Arc::new(graphs), GedEngine::new(ged)));
        let config = NbIndexConfig {
            ladder: ladder.to_vec(),
            ..NbIndexConfig::default()
        };
        let index = Arc::new(NbIndex::build(oracle, config));
        #[expect(
            clippy::expect_used,
            reason = "partitioner assigns every center to its own shard"
        )]
        let center_local =
            local_position(&members, part.centers[s]).expect("shard center must be a member");
        ShardState {
            index,
            members,
            to_center: part.to_center[s].clone(),
            center_local,
            radius: part.radius[s],
            foreign_calls: Arc::default(),
            foreign_hits: Arc::default(),
            foreign_facts,
        }
    }

    /// Mutation epoch of this shard's index.
    pub fn epoch(&self) -> u64 {
        self.index.epoch()
    }

    /// Total member slots (live + tombstoned).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the shard holds no member slots at all.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Live member count.
    pub fn live_len(&self) -> usize {
        self.index.tree().live_len()
    }

    /// Global id of the graph at `local`.
    pub fn global_of(&self, local: GraphId) -> GraphId {
        self.members[local as usize]
    }

    /// Local id owning global id `g`, if this shard holds it.
    pub fn local_of(&self, g: GraphId) -> Option<GraphId> {
        local_position(&self.members, g)
    }

    /// Whether local graph `local` is live (not tombstoned).
    pub fn is_live(&self, local: GraphId) -> bool {
        self.index.tree().is_live(local)
    }

    /// Covering radius around the shard center.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Stored distance from local member `local` to the shard center.
    pub fn member_center_distance(&self, local: GraphId) -> f64 {
        self.to_center[local as usize]
    }

    /// Distance from an out-of-shard probe graph (and its profile) to the
    /// shard center, asked as a threshold question: `Some(d)` with the exact
    /// distance iff `d ≤ tau`, `None` when it certainly exceeds `tau`.
    /// Counts one foreign call per invocation, whatever the answer. Insert
    /// routing is its only caller; queries never ask it.
    pub fn center_distance_within(
        &self,
        probe: &Graph,
        profile: &GraphProfile,
        tau: f64,
    ) -> Option<f64> {
        self.foreign_call(probe, profile, self.center_local, tau)
            .exact()
    }

    /// [`ShardState::engine_ask`], counted as one foreign call.
    fn foreign_call(
        &self,
        probe: &Graph,
        profile: &GraphProfile,
        local: GraphId,
        tau: f64,
    ) -> Fact {
        // Relaxed: a monotone stats counter, never used for synchronization.
        self.foreign_calls.fetch_add(1, Ordering::Relaxed);
        self.engine_ask(probe, profile, local, tau)
    }

    /// The engine's answer about a foreign probe against local member
    /// `local` at `tau`, uncounted.
    fn engine_ask(&self, probe: &Graph, profile: &GraphProfile, local: GraphId, tau: f64) -> Fact {
        let oracle = self.index.oracle();
        let member = &oracle.graphs()[local as usize];
        oracle
            .engine()
            .ask(probe, member, profile, oracle.profile(local), tau)
    }

    /// The graph owned at `local` (for cross-shard probes).
    pub fn graph(&self, local: GraphId) -> &Graph {
        &self.index.oracle().graphs()[local as usize]
    }

    /// The profile of the graph owned at `local` (travels with
    /// [`ShardState::graph`] on cross-shard probes).
    pub fn profile(&self, local: GraphId) -> &GraphProfile {
        self.index.oracle().profile(local)
    }

    /// Edit-distance engine calls made through this shard's oracle.
    pub fn engine_calls(&self) -> u64 {
        self.index.oracle().engine_calls()
    }

    /// Exact searches of this shard's engine that ran out of budget and
    /// stored the bipartite upper bound instead (build included).
    pub fn budget_fallbacks(&self) -> u64 {
        self.index
            .oracle()
            .engine()
            .counters()
            .snapshot()
            .budget_fallbacks
    }

    /// Resident bytes of this shard's NB-Index.
    pub fn index_memory_bytes(&self) -> usize {
        self.index.memory_bytes()
    }

    /// Cumulative distance-oracle counters for this shard.
    pub fn oracle_stats(&self) -> graphrep_ged::OracleStats {
        self.index.oracle().stats()
    }

    /// Cumulative filter-tier counters for this shard's oracle.
    pub fn oracle_tier_stats(&self) -> graphrep_ged::TierStats {
        self.index.oracle().tier_stats()
    }

    /// Engine questions served for foreign probes.
    pub fn foreign_calls(&self) -> u64 {
        // Relaxed: a monotone stats counter, never used for synchronization.
        self.foreign_calls.load(Ordering::Relaxed)
    }

    /// Foreign θ-questions about this shard's members answered by the
    /// cross-shard fact table, without an engine call.
    pub fn foreign_hits(&self) -> u64 {
        // Relaxed: a monotone stats counter, never used for synchronization.
        self.foreign_hits.load(Ordering::Relaxed)
    }

    /// This shard's vantage orderings projected onto the local ids
    /// `locals`: what [`ShardState::pihat_bounds`] scans, a function of a
    /// session's slice alone.
    pub fn project(&self, locals: &[GraphId]) -> BandProjection {
        let by_id =
            Bitset::from_indices(self.index.tree().len(), locals.iter().map(|&l| l as usize));
        self.index.vantage().project(&by_id)
    }

    /// Distance-free π̂ upper bounds at θ for the given local candidates
    /// (paper Sec 7.1, computed over this shard's vantage orderings alone):
    /// entry `i` bounds `|N_θ(locals[i]) ∩ L_shard|` from above.
    /// `projection` is [`ShardState::project`] of `locals`.
    pub fn pihat_bounds(
        &self,
        locals: &[GraphId],
        projection: &BandProjection,
        theta: f64,
    ) -> Vec<i64> {
        let tree = self.index.tree();
        let pihat = PiHatVectors::initialize(
            self.index.vantage(),
            tree,
            locals,
            projection,
            &ThresholdLadder::new(vec![theta]),
        );
        locals
            .iter()
            .map(|&l| pihat.graph_count(tree.pos_of(l), 0) as i64)
            .collect()
    }

    /// Exact θ-neighborhood of home candidate `cand` within this shard's
    /// slice of the relevant set, as ascending *global* ids. `locals` must
    /// be ascending, deduplicated, live local ids.
    pub fn home_members(&self, cand: GraphId, locals: &[GraphId], theta: f64) -> Vec<GraphId> {
        let vt = self.index.vantage();
        let oracle = self.index.oracle();
        locals
            .iter()
            .copied()
            .filter(|&c| vt.passes_all_bands(cand, c, theta) && oracle.ask(cand, c, theta).0)
            .map(|c| self.global_of(c))
            .collect()
    }

    /// Exact θ-neighborhood of a *foreign* probe graph, global id
    /// `probe_id`, within this shard's slice of the relevant set, as
    /// ascending global ids. `locals` must be ascending, deduplicated, live
    /// local ids.
    ///
    /// Each member `m` is decided by the cross-shard fact table when its
    /// facts about `(probe_id, m)` settle θ (a foreign hit), else by the
    /// engine's `ask(probe, m, θ)` (a foreign call), whose answer the table
    /// keeps: the threshold question the home oracle bottoms out in, so
    /// membership is the engine's verdict, byte-identical across paths. The
    /// size, label and degree screens settle most engine asks before any
    /// search.
    pub fn foreign_members(
        &self,
        probe_id: GraphId,
        probe: &Graph,
        profile: &GraphProfile,
        locals: &[GraphId],
        theta: f64,
    ) -> Vec<GraphId> {
        let hits = &*self.foreign_hits;
        locals
            .iter()
            .map(|&c| (c, self.global_of(c)))
            .filter(|&(c, m)| {
                let engine = || self.foreign_call(probe, profile, c, theta);
                self.foreign_facts.ask(probe_id, m, theta, hits, engine)
            })
            .map(|(_, m)| m)
            .collect()
    }

    /// [`ShardState::foreign_members`] with every member asked of the
    /// engine and nothing read from or kept in the fact table: the audit's
    /// reference, which must not check the table against itself. Counts no
    /// foreign call, so audited runs report the calls unaudited ones make.
    #[cfg(feature = "invariant-audit")]
    pub(crate) fn engine_members(
        &self,
        probe: &Graph,
        profile: &GraphProfile,
        locals: &[GraphId],
        theta: f64,
    ) -> Vec<GraphId> {
        locals
            .iter()
            .copied()
            .filter(|&c| self.engine_ask(probe, profile, c, theta).exact().is_some())
            .map(|c| self.global_of(c))
            .collect()
    }

    /// Successor snapshot with `graph` inserted as global id `global`
    /// (`d_center` its distance to this shard's center). Local id = next
    /// oracle position; the member list stays ascending because the
    /// coordinator assigns global ids monotonically.
    pub fn with_insert(
        &self,
        graph: Graph,
        global: GraphId,
        d_center: f64,
    ) -> Result<(ShardState, MutationOutcome), MutateError> {
        let mut forked = self.index.fork();
        let (local, outcome) = forked.insert(graph)?;
        debug_assert_eq!(local as usize, self.members.len());
        let mut members = self.members.clone();
        members.push(global);
        let mut to_center = self.to_center.clone();
        to_center.push(d_center);
        Ok((
            ShardState {
                index: Arc::new(forked),
                members,
                to_center,
                center_local: self.center_local,
                radius: self.radius.max(d_center),
                foreign_calls: Arc::clone(&self.foreign_calls),
                foreign_hits: Arc::clone(&self.foreign_hits),
                foreign_facts: Arc::clone(&self.foreign_facts),
            },
            outcome,
        ))
    }

    /// Successor snapshot with global id `g` tombstoned.
    pub fn with_remove(&self, g: GraphId) -> Result<(ShardState, MutationOutcome), MutateError> {
        let local = self
            .local_of(g)
            .ok_or_else(|| MutateError(format!("graph {g} is not owned by this shard")))?;
        let mut forked = self.index.fork();
        let outcome = forked.remove(local)?;
        Ok((
            ShardState {
                index: Arc::new(forked),
                members: self.members.clone(),
                to_center: self.to_center.clone(),
                center_local: self.center_local,
                // The radius is kept: a looser covering radius only costs
                // pruning opportunities, never admissibility.
                radius: self.radius,
                foreign_calls: Arc::clone(&self.foreign_calls),
                foreign_hits: Arc::clone(&self.foreign_hits),
                foreign_facts: Arc::clone(&self.foreign_facts),
            },
            outcome,
        ))
    }
}

/// Index of `g` in the ascending `members` list.
fn local_position(members: &[GraphId], g: GraphId) -> Option<GraphId> {
    members.binary_search(&g).ok().map(|i| i as GraphId)
}

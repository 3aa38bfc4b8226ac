//! The scatter-gather coordinator: the best-first greedy search over shards.
//!
//! The coordinator never performs distance work itself (enforced by lint
//! G011): it aggregates per-shard π̂ upper bounds into one global best-first
//! frontier and asks a shard to refine — verify a candidate's exact
//! θ-neighborhood, paying GED — only while that candidate's bound can still
//! beat the best verified pick. Shards whose geometry proves they cannot
//! contribute members (center-distance triangle test, DESIGN.md §14) are
//! never contacted at all; the per-pick fraction of such silent shards is
//! the subsystem's headline pruning metric. Every other foreign shard
//! decides each relevant member by the engine's tiered θ-question, so
//! membership is the engine's own verdict on every unpruned pair. The
//! coordinator creates one fact table for those cross-shard pairs, keyed by
//! global id and shared by every shard, generation and session: a pair
//! reaches the engine only when the facts kept about it do not settle the
//! θ asked, so a repeated `(θ, k)` asks the engine nothing. The table is
//! read only behind `ShardState::foreign_members`.
//!
//! Exactness: every accepted pick has a *verified* marginal gain at least
//! every bound left in the frontier, with ties toward the smaller global
//! id — the same acceptance rule as [`graphrep_core::QuerySession`], so a
//! sharded answer is byte-identical to the single-index answer.
//!
//! Consistency: mutations route to the owning shard, run fork-mutate-swap
//! under that shard's handle lock, and bump only that shard's epoch. A
//! session snapshots every shard's `Arc` once at creation — an epoch
//! *vector* — so its answers are serializable against one global state.

use crate::partition::{partition, PartitionConfig};
use crate::shard::ShardState;
use graphrep_core::{
    AnswerSet, CancelToken, Cancelled, GraphDatabase, MutateError, MutationOutcome, PickEvent,
    RunStats, Session,
};
use graphrep_ged::{inside, FactTable, GedConfig, GraphProfile};
use graphrep_graph::{Graph, GraphId};
use graphrep_lockaudit::TrackedRwLock;
use graphrep_metric::{BandProjection, Bitset};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Coordinator build parameters.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Requested shard count `S`.
    pub shards: usize,
    /// Partitioner seed (center selection).
    pub seed: u64,
    /// π̂ threshold ladder for the per-shard indexes.
    pub ladder: Vec<f64>,
}

impl Default for CoordConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            seed: 0x5eed,
            ladder: vec![],
        }
    }
}

/// One shard's slot in the coordinator: the current snapshot behind a
/// tracked lock, swapped whole on mutation.
#[derive(Debug)]
struct ShardHandle {
    state: TrackedRwLock<Arc<ShardState>>,
}

/// Receipt for a routed mutation: which shard absorbed it and the full
/// per-shard epoch vector afterwards.
#[derive(Debug, Clone)]
pub struct CoordReceipt {
    /// Global id inserted or removed.
    pub id: GraphId,
    /// Owning shard the mutation landed on.
    pub shard: usize,
    /// How the owning shard absorbed it.
    pub outcome: MutationOutcome,
    /// Epoch of every shard after the mutation (only `shard`'s moved).
    pub epochs: Vec<u64>,
    /// Total member slots across shards (live + tombstoned), from the same
    /// snapshot as `live` — so `len - live` is a consistent tombstone count.
    pub len: usize,
    /// Total live graphs across shards.
    pub live: usize,
}

/// The sharded deployment: partition geometry plus one handle per shard.
#[derive(Debug)]
pub struct Coordinator {
    shards: Vec<ShardHandle>,
    /// Dense `S×S` center-to-center distances, row-major.
    center_dist: Vec<f64>,
    /// Next global id an insert will claim — monotone, tracking exactly the
    /// id a single-index deployment would assign (`oracle.len()`).
    next_id: AtomicU64,
}

impl Coordinator {
    /// Partitions `db` and builds every shard's index.
    pub fn build(db: &GraphDatabase, ged: GedConfig, cfg: &CoordConfig) -> Coordinator {
        let part = partition(
            db,
            ged,
            &PartitionConfig {
                shards: cfg.shards,
                seed: cfg.seed,
            },
        );
        let foreign_facts = Arc::new(FactTable::default());
        let shards = (0..part.members.len())
            .map(|s| ShardHandle {
                state: TrackedRwLock::new(
                    "shard.coordinator.ShardHandle.state",
                    Arc::new(ShardState::build(
                        db,
                        ged,
                        &part,
                        s,
                        &cfg.ladder,
                        Arc::clone(&foreign_facts),
                    )),
                ),
            })
            .collect();
        Coordinator {
            shards,
            center_dist: part.center_dist,
            next_id: AtomicU64::new(db.len() as u64),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current snapshots of every shard — one consistent epoch vector per
    /// individual read, pinned for as long as the caller holds the `Arc`s
    /// (what a session pins, and what observability layers that aggregate
    /// per-shard counters themselves read).
    pub fn snapshots(&self) -> Vec<Arc<ShardState>> {
        (0..self.shards.len())
            .map(|s| self.shards[s].state.read().clone())
            .collect()
    }

    /// Per-shard mutation epochs right now.
    pub fn epochs(&self) -> Vec<u64> {
        self.snapshots().iter().map(|s| s.epoch()).collect()
    }

    /// Opens a query session pinned to the current epoch vector. Tombstoned
    /// ids in `relevant` are dropped, preserving order — the same admission
    /// rule as [`graphrep_core::NbIndex::start_session`].
    pub fn session(&self, relevant: Vec<GraphId>) -> CoordSession {
        CoordSession::new(
            self.snapshots(),
            self.center_dist.clone(),
            relevant,
            // SeqCst: the id-space bound must not be observed behind a
            // concurrently completed insert's snapshot.
            self.next_id.load(Ordering::SeqCst) as usize,
        )
    }

    /// Inserts `graph`, routing it to the shard with the nearest center
    /// (ties toward the smaller shard index) and assigning the next global
    /// id — exactly the id a single-index deployment would assign. Each
    /// shard is asked only whether its center is within the best distance
    /// so far (unbounded for the first), so the owner's distance comes back
    /// exact and every other shard's question can stop at that bound.
    pub fn insert(&self, graph: Graph) -> Result<CoordReceipt, MutateError> {
        // Routing distances probe fixed center graphs: no lock is held and
        // no later mutation can change the owner.
        let snaps = self.snapshots();
        let profile = GraphProfile::new(&graph);
        let mut owner = (f64::INFINITY, 0usize);
        for (s, snap) in snaps.iter().enumerate() {
            if let Some(d) = snap.center_distance_within(&graph, &profile, owner.0) {
                if d < owner.0 {
                    owner = (d, s);
                }
            }
        }
        let (d_center, s) = owner;
        let (global, outcome) = {
            let mut guard = self.shards[s].state.write();
            // The id is claimed *under* the owning shard's write lock: ids
            // handed out by the same shard are then monotone in append
            // order, keeping `members` ascending (its binary-search
            // invariant) even when concurrent inserts race to one shard.
            // SeqCst: global ids must still form one total order across all
            // shards so they match what a single-index deployment assigns.
            let global = self.next_id.fetch_add(1, Ordering::SeqCst) as GraphId;
            let (next, outcome) = guard
                // graphrep: allow(G008, mutations serialize on the owning shard's handle lock by design -- the NP-hard insert runs on a private fork while readers and sessions keep their pinned Arc snapshots; only competing mutations of the same shard wait)
                .with_insert(graph, global, d_center)?;
            *guard = Arc::new(next);
            (global, outcome)
        };
        Ok(self.receipt(global, s, outcome))
    }

    /// Tombstones global id `g` on its owning shard.
    pub fn remove(&self, g: GraphId) -> Result<CoordReceipt, MutateError> {
        let snaps = self.snapshots();
        let Some(s) = snaps.iter().position(|snap| snap.local_of(g).is_some()) else {
            return Err(MutateError(format!("graph {g} is not owned by any shard")));
        };
        let outcome = {
            let mut guard = self.shards[s].state.write();
            let (next, outcome) = guard
                // graphrep: allow(G008, same serialization as insert -- the tombstone and any rebuild it trips run on a private fork under the owning shard's handle lock)
                .with_remove(g)?;
            *guard = Arc::new(next);
            outcome
        };
        Ok(self.receipt(g, s, outcome))
    }

    fn receipt(&self, id: GraphId, shard: usize, outcome: MutationOutcome) -> CoordReceipt {
        let snaps = self.snapshots();
        CoordReceipt {
            id,
            shard,
            outcome,
            epochs: snaps.iter().map(|s| s.epoch()).collect(),
            len: snaps.iter().map(|s| s.len()).sum(),
            live: snaps.iter().map(|s| s.live_len()).sum(),
        }
    }

    /// Cumulative per-shard engine entries: oracle-mediated calls plus
    /// foreign-probe calls, one entry per shard.
    pub fn engine_entries(&self) -> Vec<u64> {
        self.snapshots()
            .iter()
            .map(|s| s.engine_calls() + s.foreign_calls())
            .collect()
    }

    /// Point-in-time per-shard overview for observability endpoints (one
    /// consistent snapshot per shard, like [`Coordinator::epochs`]).
    pub fn overview(&self) -> Vec<ShardOverview> {
        self.snapshots()
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardOverview {
                shard,
                epoch: s.epoch(),
                len: s.len(),
                live: s.live_len(),
                radius: s.radius(),
                engine_calls: s.engine_calls(),
                foreign_calls: s.foreign_calls(),
                index_memory_bytes: s.index_memory_bytes(),
            })
            .collect()
    }
}

/// One shard's slice of a [`Coordinator::overview`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOverview {
    /// Shard index.
    pub shard: usize,
    /// Mutation epoch.
    pub epoch: u64,
    /// Member slots (live + tombstoned).
    pub len: usize,
    /// Live members.
    pub live: usize,
    /// Covering radius around the shard center.
    pub radius: f64,
    /// Edit-distance engine calls through the shard's oracle.
    pub engine_calls: u64,
    /// Engine calls served for foreign (cross-shard) probes.
    pub foreign_calls: u64,
    /// Resident bytes of the shard's NB-Index.
    pub index_memory_bytes: usize,
}

/// Statistics of one distributed run.
#[derive(Debug, Clone, Default)]
pub struct CoordRunStats {
    /// Greedy picks completed.
    pub picks: u64,
    /// Shard count of the session.
    pub shard_count: usize,
    /// Over all picks, shards that performed *no* fresh verification work
    /// (geometry-pruned, empty slice, or every needed neighborhood already
    /// memoized).
    pub pruned_shard_picks: u64,
    /// Complement of `pruned_shard_picks`: shard-pick pairs that did work.
    pub touched_shard_picks: u64,
    /// Candidates whose exact neighborhood was verified.
    pub verified_candidates: u64,
    /// Per-shard engine entries (oracle + foreign) spent by this run.
    pub engine_entries: Vec<u64>,
    /// Wall time of the run.
    pub wall: Duration,
}

impl CoordRunStats {
    /// Mean fraction of shards pruned per pick, in `[0, 1]`.
    pub fn prune_rate(&self) -> f64 {
        let total = self.pruned_shard_picks + self.touched_shard_picks;
        if total == 0 {
            0.0
        } else {
            self.pruned_shard_picks as f64 / total as f64
        }
    }
}

/// The engine-neutral form [`Session::run_with`] reports: engine entries
/// summed into `distance_calls`, shard work under its own four counts.
impl From<CoordRunStats> for RunStats {
    fn from(s: CoordRunStats) -> RunStats {
        RunStats {
            distance_calls: s.engine_entries.iter().sum(),
            verified_graphs: s.verified_candidates,
            wall: s.wall,
            shard_count: s.shard_count,
            picks: s.picks,
            shards_pruned: s.pruned_shard_picks,
            shards_touched: s.touched_shard_picks,
            ..RunStats::default()
        }
    }
}

/// A unique candidate: a live relevant graph, addressed both globally and
/// on its owning shard.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    id: GraphId,
    shard: usize,
    local: GraphId,
}

/// Frontier entry, mirroring the single-index session's heap order exactly:
/// larger bound first, then verified entries before unverified at the same
/// bound, then the smaller global id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    bound: i64,
    tie: u64,
    cand: u32,
    verified: bool,
}

impl Entry {
    fn new(bound: i64, cand: u32, id: GraphId, verified: bool) -> Self {
        let v = if verified { 0u64 } else { 1 << 32 };
        Entry {
            bound,
            tie: v | id as u64,
            cand,
            verified,
        }
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .cmp(&other.bound)
            .then_with(|| other.tie.cmp(&self.tie))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A query session pinned to one epoch vector: the shard snapshots taken at
/// creation are immutable, so every run answers against the same global
/// state no matter what mutations land concurrently.
#[derive(Debug)]
pub struct CoordSession {
    snaps: Vec<Arc<ShardState>>,
    center_dist: Vec<f64>,
    /// Live relevant ids in caller order (duplicates preserved, like
    /// `start_session`): `|L_q|` and the π denominator.
    relevant: Vec<GraphId>,
    /// Unique candidates, grouped by shard, ascending local id.
    cand: Vec<Candidate>,
    /// Ascending unique live relevant locals per shard.
    locals: Vec<Vec<GraphId>>,
    /// Each shard's vantage orderings projected onto its slice of `locals`,
    /// which every run's π̂ bounds scan.
    projections: Vec<BandProjection>,
    /// Global-id bitset capacity.
    id_space: usize,
}

impl CoordSession {
    fn new(
        snaps: Vec<Arc<ShardState>>,
        center_dist: Vec<f64>,
        mut relevant: Vec<GraphId>,
        id_space: usize,
    ) -> CoordSession {
        let owner = |g: GraphId| {
            snaps
                .iter()
                .enumerate()
                .find_map(|(s, snap)| snap.local_of(g).map(|l| (s, l)))
        };
        relevant.retain(|&g| owner(g).is_some_and(|(s, l)| snaps[s].is_live(l)));
        let mut locals: Vec<Vec<GraphId>> = vec![Vec::new(); snaps.len()];
        for &g in &relevant {
            #[expect(
                clippy::expect_used,
                reason = "retain above kept only ids with a live owner"
            )]
            let (s, l) = owner(g).expect("relevant id lost its owner");
            locals[s].push(l);
        }
        let mut cand = Vec::new();
        for (s, ls) in locals.iter_mut().enumerate() {
            ls.sort_unstable();
            ls.dedup();
            for &l in ls.iter() {
                cand.push(Candidate {
                    id: snaps[s].global_of(l),
                    shard: s,
                    local: l,
                });
            }
        }
        let projections = snaps
            .iter()
            .zip(&locals)
            .map(|(snap, ls)| snap.project(ls))
            .collect();
        CoordSession {
            snaps,
            center_dist,
            relevant,
            cand,
            locals,
            projections,
            id_space,
        }
    }

    /// The live relevant set `L_q` this session answers for.
    pub fn relevant(&self) -> &[GraphId] {
        &self.relevant
    }

    /// The epoch vector this session is pinned to.
    pub fn epochs(&self) -> Vec<u64> {
        self.snaps.iter().map(|s| s.epoch()).collect()
    }

    /// Whether shard `t` provably contributes no θ-member for `cand`:
    /// `d(c_home, c_t) − d(cand, c_home) − radius_t > θ` implies every
    /// member of `t` is farther than θ from `cand` (triangle inequality,
    /// twice) — pure coordinator-side arithmetic, no shard contact.
    fn geometry_prunes(&self, cand: &Candidate, t: usize, theta: f64) -> bool {
        let s_count = self.snaps.len();
        let cc = self.center_dist[cand.shard * s_count + t];
        let to_center = self.snaps[cand.shard].member_center_distance(cand.local);
        // The GED layer's verdict tolerance: only a bound outside θ prunes.
        !inside(cc - to_center - self.snaps[t].radius(), theta)
    }

    /// Exact θ-neighborhood of candidate `ci` over the whole relevant set,
    /// as a global-id bitset memoized in `memo` (one slot per candidate).
    /// Home members come from the shard's own tiered oracle; every foreign
    /// shard the center-distance geometry cannot rule out decides each
    /// relevant member from the cross-shard fact table or, on a miss, by
    /// the engine's tiered θ-question. Marks every shard asked in `touched`.
    fn neighborhood<'a>(
        &self,
        ci: u32,
        theta: f64,
        memo: &'a mut [Option<Bitset>],
        touched: &mut [bool],
        stats: &mut CoordRunStats,
    ) -> &'a Bitset {
        memo[ci as usize].get_or_insert_with(|| {
            let cand = self.cand[ci as usize];
            let home = cand.shard;
            touched[home] = true;
            stats.verified_candidates += 1;
            let mut members = self.snaps[home].home_members(cand.local, &self.locals[home], theta);
            let probe = self.snaps[home].graph(cand.local);
            let profile = self.snaps[home].profile(cand.local);
            for (t, snap) in self.snaps.iter().enumerate() {
                if t == home || self.locals[t].is_empty() || self.geometry_prunes(&cand, t, theta) {
                    continue;
                }
                touched[t] = true;
                let locals = &self.locals[t];
                members.extend(snap.foreign_members(cand.id, probe, profile, locals, theta));
            }
            let nb = Bitset::from_indices(self.id_space, members.iter().map(|&m| m as usize));
            graphrep_ged::audit_invariant!(
                nb == self.audit_neighborhood(&cand, theta),
                "candidate {} at θ = {theta}: memoized neighborhood differs from \
                 the one every slice answers without the geometry prune",
                cand.id
            );
            nb
        })
    }

    /// The θ-neighborhood of `cand` recomputed with no geometry prune, no
    /// home path and no fact table: every shard's slice, the home one
    /// included, asks the engine about each member on the candidate's
    /// graph.
    #[cfg(feature = "invariant-audit")]
    fn audit_neighborhood(&self, cand: &Candidate, theta: f64) -> Bitset {
        let home = &self.snaps[cand.shard];
        let (probe, profile) = (home.graph(cand.local), home.profile(cand.local));
        let members = self
            .snaps
            .iter()
            .zip(&self.locals)
            .flat_map(|(snap, locals)| snap.engine_members(probe, profile, locals, theta));
        Bitset::from_indices(self.id_space, members.map(|m| m as usize))
    }

    /// Distance-free initial upper bounds: per candidate, the home shard's
    /// π̂ count plus, for every foreign shard the geometry cannot prune, the
    /// full size of that shard's relevant slice. Both parts dominate the
    /// true contribution, so the aggregate is admissible (DESIGN.md §14).
    fn initial_bounds(&self, theta: f64) -> Vec<i64> {
        let mut bound = vec![0i64; self.cand.len()];
        let mut ci = 0usize;
        for (s, ls) in self.locals.iter().enumerate() {
            if ls.is_empty() {
                continue;
            }
            let home = self.snaps[s].pihat_bounds(ls, &self.projections[s], theta);
            for (j, _) in ls.iter().enumerate() {
                let cand = self.cand[ci + j];
                let mut b = home[j];
                for (t, tl) in self.locals.iter().enumerate() {
                    if t == s || tl.is_empty() || self.geometry_prunes(&cand, t, theta) {
                        continue;
                    }
                    b += tl.len() as i64;
                }
                bound[ci + j] = b;
            }
            ci += ls.len();
        }
        bound
    }

    /// Executes the distributed search for one `(θ, k)`: returns the greedy
    /// answer — byte-identical to the single-index session's — plus
    /// per-shard work statistics. The offline entry point: no deadline, no
    /// observer.
    pub fn run(&self, theta: f64, k: usize) -> (AnswerSet, CoordRunStats) {
        match self.search(theta, k, &CancelToken::never(), None) {
            Ok(r) => r,
            Err(Cancelled) => unreachable!("CancelToken::never never cancels"),
        }
    }

    /// The search both entry points share. `cancel` is polled between
    /// frontier pops — the same cooperative boundary as the single-index
    /// session, so one NP-hard refinement is the atomic unit of work; the
    /// up-front check is [`Session::run_with`]'s.
    fn search(
        &self,
        theta: f64,
        k: usize,
        cancel: &CancelToken,
        mut on_pick: Option<&mut dyn FnMut(PickEvent) -> bool>,
    ) -> Result<(AnswerSet, CoordRunStats), Cancelled> {
        let t0 = Instant::now();
        let s_count = self.snaps.len();
        let entries0: Vec<u64> = self
            .snaps
            .iter()
            .map(|s| s.engine_calls() + s.foreign_calls())
            .collect();
        let mut stats = CoordRunStats {
            shard_count: s_count,
            ..CoordRunStats::default()
        };
        let mut bound = self.initial_bounds(theta);
        let mut covered = Bitset::new(self.id_space);
        let mut in_answer = vec![false; self.cand.len()];
        let mut memo: Vec<Option<Bitset>> = vec![None; self.cand.len()];
        let mut ids = Vec::new();
        let mut pi_trajectory = Vec::new();
        let budget = k.min(self.relevant.len());
        for _ in 0..budget {
            let mut touched = vec![false; s_count];
            let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
            for (ci, c) in self.cand.iter().enumerate() {
                if !in_answer[ci] {
                    heap.push(Entry::new(bound[ci], ci as u32, c.id, false));
                }
            }
            let mut best: Option<(i64, GraphId, u32)> = None;
            while let Some(e) = heap.pop() {
                cancel.check()?;
                if let Some((bg, _, _)) = best {
                    if e.bound < bg {
                        break;
                    }
                }
                let ci = e.cand;
                let id = self.cand[ci as usize].id;
                if !e.verified {
                    let cur = bound[ci as usize];
                    if e.bound > cur {
                        heap.push(Entry::new(cur, ci, id, false));
                        continue;
                    }
                    let nb = self.neighborhood(ci, theta, &mut memo, &mut touched, &mut stats);
                    let gain = nb.difference_count(&covered) as i64;
                    debug_assert!(
                        gain <= e.bound,
                        "verified gain must not exceed its upper bound"
                    );
                    bound[ci as usize] = gain;
                    heap.push(Entry::new(gain, ci, id, true));
                } else {
                    let better = match best {
                        None => true,
                        Some((bg, bid, _)) => e.bound > bg || (e.bound == bg && id < bid),
                    };
                    if better {
                        best = Some((e.bound, id, ci));
                    }
                }
            }
            let Some((gain, id, ci)) = best else {
                break;
            };
            if gain == 0 {
                // Verified zero marginal gain: coverage is saturated (same
                // early-stop rule as the single-index search). Not an
                // accepted pick, so it contributes nothing to the pick or
                // shard-prune counters — the single-index path counts no
                // equivalent iteration either.
                break;
            }
            stats.picks += 1;
            let touched_count = touched.iter().filter(|&&t| t).count() as u64;
            stats.touched_shard_picks += touched_count;
            stats.pruned_shard_picks += s_count as u64 - touched_count;
            ids.push(id);
            in_answer[ci as usize] = true;
            #[expect(
                clippy::expect_used,
                reason = "search contract: best is only set from verified entries, which are memoized"
            )]
            let nb = memo[ci as usize]
                .as_ref()
                .expect("selected candidate was verified");
            covered.union_with(nb);
            pi_trajectory.push(if self.relevant.is_empty() {
                0.0
            } else {
                covered.count() as f64 / self.relevant.len() as f64
            });
            if let Some(on_pick) = on_pick.as_mut() {
                let keep_going = on_pick(PickEvent {
                    seq: ids.len() - 1,
                    id,
                    covered: covered.count(),
                    relevant: self.relevant.len(),
                    pi: pi_trajectory[pi_trajectory.len() - 1],
                });
                if !keep_going {
                    return Err(Cancelled);
                }
            }
        }
        stats.engine_entries = self
            .snaps
            .iter()
            .zip(&entries0)
            .map(|(s, &e0)| s.engine_calls() + s.foreign_calls() - e0)
            .collect();
        stats.wall = t0.elapsed();
        Ok((
            AnswerSet {
                ids,
                covered: covered.count(),
                relevant: self.relevant.len(),
                pi_trajectory,
            },
            stats,
        ))
    }
}

/// Scatter-gather sessions hold no answer cache (an answer key would need
/// the whole epoch vector), so every run executes its search. The pair
/// facts a run learns outlive it: home pairs in each shard oracle's memo,
/// cross-shard pairs in the coordinator's fact table, so a repeated run
/// asks the engine nothing.
impl Session for CoordSession {
    fn relevant(&self) -> &[GraphId] {
        &self.relevant
    }

    fn run_with(
        &self,
        theta: f64,
        k: usize,
        cancel: &CancelToken,
        on_pick: Option<&mut dyn FnMut(PickEvent) -> bool>,
    ) -> Result<(Arc<AnswerSet>, RunStats), Cancelled> {
        cancel.check()?;
        let (answer, stats) = self.search(theta, k, cancel, on_pick)?;
        Ok((Arc::new(answer), stats.into()))
    }
}

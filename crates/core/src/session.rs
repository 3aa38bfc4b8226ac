//! Query processing (paper Sec 7): initialization phase, Alg 2 search, and
//! the Thm 6–8 batch update step, with interactive θ refinement.
//!
//! A [`QuerySession`] is created once per relevance function `q`: the
//! initialization phase computes π̂-vectors from the vantage orderings alone
//! (no edit distances). Each [`QuerySession::run`] then executes the
//! search-and-update phase for one `(θ, k)` — rerunning with a refined θ
//! reuses the same initialization, which is exactly the paper's interactive
//! zoom scenario (Fig 6(i)–(j)).
//!
//! ## Exactness
//!
//! The search accepts a graph only when its *verified* marginal gain is at
//! least every upper bound left in the priority queue, with ties broken
//! toward the smaller graph id — so a run returns precisely the Alg 1 greedy
//! answer. Upper bounds are only ever lowered when Thms 6–8 license it,
//! pushed down the tree lazily (segment-tree style).

use crate::answer::AnswerSet;
use crate::cancel::{CancelToken, Cancelled};
use crate::nbindex::NbIndex;
use crate::pihat::{PiHatVectors, ThresholdLadder};
use crate::views::{
    query_fingerprint, AnswerCache, AnswerKey, MaterializedView, ViewScope, ViewStore,
};
use graphrep_ged::Facts;
use graphrep_graph::GraphId;
use graphrep_metric::{BandProjection, Bitset};
use std::borrow::Cow;
use std::collections::BinaryHeap;
use std::ops::Deref;
use std::sync::Arc;
use std::time::{Duration, Instant};

const EPS: f64 = 1e-6;

/// Statistics of one search-and-update run, whichever engine executed it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Edit-distance engine calls made during the run.
    pub distance_calls: u64,
    /// Graphs whose exact θ-neighborhood was verified by a band scan (a
    /// neighborhood answered from a covering view row is not counted).
    pub verified_graphs: u64,
    /// Tree nodes expanded by the best-first search.
    pub nodes_expanded: u64,
    /// Ladder slot used, or `None` if fresh bounds were computed at θ.
    pub ladder_slot: Option<usize>,
    /// Wall time of the run.
    pub wall: Duration,
    /// Whether the answer came from the session's [`AnswerCache`]; every
    /// other field but `wall` is then zero — stats describe work performed.
    pub cached: bool,
    /// Shards the run scattered over; `0` means a single NB-Index, and the
    /// three counts below are then `0` too.
    pub shard_count: usize,
    /// Greedy picks completed (scatter-gather runs).
    pub picks: u64,
    /// Over all picks, shards that did no fresh verification work.
    pub shards_pruned: u64,
    /// Over all picks, shards that did (complement of `shards_pruned`).
    pub shards_touched: u64,
}

/// One accepted greedy pick, handed to [`Session::run_with`]'s `on_pick`
/// as the search commits it.
///
/// Events carry exactly the state the final [`AnswerSet`] records for the
/// pick: the `seq`-th entry of `ids` and of `pi_trajectory`, plus the
/// coverage counts behind the ratio. Concatenating the events of a completed
/// run therefore reconstructs the answer byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PickEvent {
    /// Zero-based pick index within the run (`0` = first representative).
    pub seq: usize,
    /// The representative graph just accepted.
    pub id: GraphId,
    /// Relevant graphs covered after this pick.
    pub covered: usize,
    /// Size of the relevant set `L_q`.
    pub relevant: usize,
    /// Coverage ratio π after this pick (the `seq`-th trajectory entry).
    pub pi: f64,
}

/// The one seam a server, a CLI or a test drives a query engine through:
/// a session pinned to one snapshot of the data (an index epoch, or a
/// per-shard epoch vector) and one relevant set `L_q`, answering any number
/// of `(θ, k)` runs. [`QuerySession`] and the shard coordinator's session
/// implement it and return the byte-identical answer (DESIGN.md §14.3).
///
/// Contract of [`Session::run_with`], the same for every implementation:
///
/// * **Token first.** `cancel` is checked before any work — before the
///   answer-cache lookup, before any π̂ initialization — so a request that
///   waited out its deadline in a queue reports [`Cancelled`] whatever `k`
///   is and whatever a cache holds; it is then polled between search pops.
///   A cancelled run discards its partial answer and leaves the session
///   fully usable (a run never mutates the session).
/// * **`on_pick` observes, never steers.** It fires once per accepted
///   representative, in order, after the pick is committed; a completed
///   streamed run returns the byte-identical answer of the blocking run.
///   Returning `false` aborts the run like a fired token.
/// * **Caches are the session's own.** With `on_pick == None` a session
///   that holds an [`AnswerCache`] looks the key up and returns a hit's
///   `Arc` with `cached: true` and stats that carry only `wall`; a miss
///   runs and populates it. A streamed run neither reads nor populates the
///   answer cache (a hit has no pick sequence to stream).
pub trait Session: Send + Sync {
    /// The live relevant set `L_q` this session answers for.
    fn relevant(&self) -> &[GraphId];

    /// Executes one `(θ, k)` under the contract above.
    fn run_with(
        &self,
        theta: f64,
        k: usize,
        cancel: &CancelToken,
        on_pick: Option<&mut dyn FnMut(PickEvent) -> bool>,
    ) -> Result<(Arc<AnswerSet>, RunStats), Cancelled>;
}

/// A per-query-function session: initialization phase output plus a handle
/// to the index.
///
/// The handle is generic over how the index is held: [`NbIndex::start_session`]
/// borrows (`I = &NbIndex`, the classic single-process shape), while
/// [`NbIndex::start_session_shared`] owns an `Arc<NbIndex>` — an `'static`,
/// `Send + Sync` session that a server can store in a registry and run from
/// many worker threads at once. A run takes `&self` and keeps all its state
/// on the stack, so concurrent runs of the same session are safe and each
/// returns exactly its single-threaded answer.
#[derive(Debug)]
pub struct QuerySession<I: Deref<Target = NbIndex> = Arc<NbIndex>> {
    index: I,
    relevant: Vec<GraphId>,
    /// The vantage orderings projected onto `L_q`: every band scan of the
    /// session (π̂ init, fresh bounds, verification) runs over it.
    projection: BandProjection,
    /// Relevant membership by leaf position.
    rel_pos: Bitset,
    pihat: PiHatVectors,
    init_wall: Duration,
    /// Canonical fingerprint of the relevant set (cache key component).
    fingerprint: u64,
    /// Materialized-view store, when the session participates in caching.
    views: Option<Arc<ViewStore>>,
    /// Cross-session answer cache consulted by [`Session::run_with`].
    answers: Option<Arc<AnswerCache>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Node(u32),
    Graph { id: GraphId, verified: bool },
}

/// A best-first search entry packed into one integer key, so the heap moves
/// 16 bytes and compares once. High half: the bound (sign bit flipped, so
/// unsigned order is signed order). Low half: the complement of the
/// tie-break key — verified graphs `id`, unverified graphs `2³² | id`, nodes
/// `2³³ | index` — so at equal bound the smaller key pops first: graphs by
/// ascending id, then nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry(u128);

impl Entry {
    fn new(bound: i64, tie: u64) -> Self {
        let high = (bound as u64) ^ (1 << 63);
        Entry((u128::from(high) << 64) | u128::from(!tie))
    }
    fn node(bound: i64, ni: u32) -> Self {
        Self::new(bound, (1 << 33) | u64::from(ni))
    }
    fn graph(bound: i64, id: GraphId, verified: bool) -> Self {
        let v = if verified { 0u64 } else { 1 << 32 };
        Self::new(bound, v | u64::from(id))
    }
    fn bound(self) -> i64 {
        (((self.0 >> 64) as u64) ^ (1 << 63)) as i64
    }
    fn kind(self) -> Kind {
        let tie = !(self.0 as u64);
        match tie >> 32 {
            0 => Kind::Graph {
                id: tie as u32,
                verified: true,
            },
            1 => Kind::Graph {
                id: tie as u32,
                verified: false,
            },
            _ => Kind::Node(tie as u32),
        }
    }
}

/// Sessions over a shared index handle cross thread boundaries: the serving
/// layer stores them in a registry and runs them from pooled workers.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<QuerySession<Arc<NbIndex>>>();

impl<I: Deref<Target = NbIndex>> QuerySession<I> {
    pub(crate) fn new(index: I, relevant: Vec<GraphId>) -> Self {
        let t0 = Instant::now();
        let n = index.tree().len();
        let relevant_by_id = Bitset::from_indices(n, relevant.iter().map(|&g| g as usize));
        let projection = index.vantage().project(&relevant_by_id);
        let rel_pos =
            Bitset::from_indices(n, relevant.iter().map(|&g| index.tree().pos_of(g) as usize));
        let pihat = PiHatVectors::initialize(
            index.vantage(),
            index.tree(),
            &relevant,
            &projection,
            index.ladder(),
        );
        let fingerprint = query_fingerprint(&relevant);
        Self {
            index,
            relevant,
            projection,
            rel_pos,
            pihat,
            init_wall: t0.elapsed(),
            fingerprint,
            views: None,
            answers: None,
        }
    }

    /// Attaches a materialized-view store: subsequent runs answer
    /// θ-neighborhoods from its rows when a row covers θ and offer every
    /// band scan and every newly learned fact back for materialization.
    /// Rows are keyed by the index's mutation epoch and this session's
    /// [`QuerySession::fingerprint`], so a shared store is sound across
    /// sessions, epochs, and pinned snapshots.
    pub fn with_views(mut self, views: Arc<ViewStore>) -> Self {
        self.views = Some(views);
        self
    }

    /// Attaches the cross-session answer cache [`Session::run_with`] reads
    /// and populates for blocking runs; [`Self::run`] never touches it.
    pub fn with_answers(mut self, answers: Arc<AnswerCache>) -> Self {
        self.answers = Some(answers);
        self
    }

    /// The relevant set `L_q`.
    pub fn relevant(&self) -> &[GraphId] {
        &self.relevant
    }

    /// Canonical [`query_fingerprint`] of this session's relevant set.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Mutation epoch of the index snapshot this session is pinned to.
    pub fn epoch(&self) -> u64 {
        self.index.epoch()
    }

    /// Wall time of the initialization phase.
    pub fn init_wall(&self) -> Duration {
        self.init_wall
    }

    /// Session memory footprint (π̂-vectors, the `L_q` projection and the
    /// position mask), Fig 6(l).
    pub fn memory_bytes(&self) -> usize {
        self.pihat.memory_bytes() + self.projection.memory_bytes() + self.rel_pos.memory_bytes()
    }

    /// Executes the search-and-update phase for one `(θ, k)`: the offline
    /// entry point — no deadline, no observer, no answer cache.
    pub fn run(&self, theta: f64, k: usize) -> (AnswerSet, RunStats) {
        match self.search(theta, k, &CancelToken::never(), None) {
            Ok(r) => r,
            // A never-token has no trigger; this arm cannot be reached.
            Err(Cancelled) => unreachable!("CancelToken::never() fired"),
        }
    }

    /// The search both entry points share. `cancel` is polled between
    /// best-first-search pops and between greedy iterations; the up-front
    /// check is [`Session::run_with`]'s.
    fn search(
        &self,
        theta: f64,
        k: usize,
        cancel: &CancelToken,
        mut on_pick: Option<&mut dyn FnMut(PickEvent) -> bool>,
    ) -> Result<(AnswerSet, RunStats), Cancelled> {
        let t0 = Instant::now();
        let calls0 = self.index.oracle().engine_calls();
        let tree = self.index.tree();
        let n = tree.len();
        let mut stats = RunStats::default();

        // Working upper bounds at the ladder slot covering θ, or fresh
        // single-slot bounds when θ exceeds the ladder.
        let slot = self.index.ladder().slot_for(theta);
        stats.ladder_slot = slot;
        let fresh;
        let (pihat, use_slot): (&PiHatVectors, usize) = match slot {
            Some(s) => (&self.pihat, s),
            None => {
                fresh = PiHatVectors::initialize(
                    self.index.vantage(),
                    tree,
                    &self.relevant,
                    &self.projection,
                    &ThresholdLadder::new(vec![theta]),
                );
                (&fresh, 0)
            }
        };
        let mut graph_bound: Vec<i64> = (0..n as u32)
            .map(|pos| pihat.graph_count(pos, use_slot) as i64)
            .collect();
        let mut node_bound: Vec<i64> = (0..tree.nodes().len() as u32)
            .map(|ni| pihat.node_count(ni, use_slot) as i64)
            .collect();
        let mut node_lazy: Vec<i64> = vec![0; tree.nodes().len()];

        let mut covered = Bitset::new(n);
        let mut in_answer = Bitset::new(n);
        let mut neigh: Vec<Option<Bitset>> = vec![None; n];
        let mut heap_buf = Vec::new();

        let mut ids = Vec::new();
        let mut pi_trajectory = Vec::new();
        let budget = k.min(self.relevant.len());
        #[cfg(feature = "invariant-audit")]
        let mut prev_gain = i64::MAX;
        for _ in 0..budget {
            cancel.check()?;
            let Some(pos_star) = self.next_graph(
                theta,
                &mut graph_bound,
                &mut node_bound,
                &mut node_lazy,
                &covered,
                &in_answer,
                &mut neigh,
                &mut heap_buf,
                &mut stats,
                cancel,
            )?
            else {
                break;
            };
            #[cfg(feature = "invariant-audit")]
            {
                let gain = graph_bound[pos_star as usize];
                graphrep_ged::audit_invariant!(
                    gain <= prev_gain,
                    "submodularity (Thm 2): search marginal gain rose from {prev_gain} to {gain}"
                );
                prev_gain = gain;
            }
            if graph_bound[pos_star as usize] == 0 {
                // Verified zero marginal gain: coverage is saturated (same
                // early-stop rule as the baseline greedy).
                break;
            }
            ids.push(tree.graph_at(pos_star));
            self.apply_update(
                theta,
                pos_star,
                &mut node_bound,
                &mut node_lazy,
                &mut covered,
                &mut in_answer,
                &neigh,
            );
            // The update trusts the (immutable) tree's diameter bounds for
            // Thms 7–8 without asking a distance; the audit re-checks them.
            self.audit_tree();
            pi_trajectory.push(if self.relevant.is_empty() {
                0.0
            } else {
                covered.count() as f64 / self.relevant.len() as f64
            });
            if let Some(on_pick) = on_pick.as_mut() {
                let keep_going = on_pick(PickEvent {
                    seq: ids.len() - 1,
                    id: ids[ids.len() - 1],
                    covered: covered.count(),
                    relevant: self.relevant.len(),
                    pi: pi_trajectory[pi_trajectory.len() - 1],
                });
                if !keep_going {
                    return Err(Cancelled);
                }
            }
        }
        self.audit_run_end();
        stats.distance_calls = self.index.oracle().engine_calls() - calls0;
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

    /// The view-store scope of this session: its pinned snapshot's epoch
    /// plus the relevant-set fingerprint.
    fn view_scope(&self) -> ViewScope {
        ViewScope {
            epoch: self.index.epoch(),
            fingerprint: self.fingerprint,
        }
    }

    /// Exact θ-neighborhood of the graph at `pos` as a position bitset,
    /// memoized in `neigh` (one slot per leaf position).
    fn neighborhood<'a>(
        &self,
        theta: f64,
        pos: u32,
        neigh: &'a mut [Option<Bitset>],
        stats: &mut RunStats,
    ) -> &'a Bitset {
        neigh[pos as usize].get_or_insert_with(|| {
            let tree = self.index.tree();
            let mut nb = Bitset::new(tree.len());
            for c in self.verify(tree.graph_at(pos), theta, stats) {
                nb.insert(tree.pos_of(c) as usize);
            }
            nb
        })
    }

    /// The verified members of `N_θ(g) ∩ L_q`, ascending by id, on the
    /// calling thread (a run enters no parallel region; the server's worker
    /// pool across requests is where query parallelism lives).
    ///
    /// Every answer is read off a row of `g` ([`Self::answer_from_row`]).
    /// With a view store attached, a stored row that covers θ is read in
    /// place. Otherwise the row is band-scanned at θ ([`Self::scan_row`],
    /// reusing a narrower row's facts). A scanned row, or a stored one the
    /// answer taught new facts (copied on the first one), is offered back to
    /// the store. `stats.verified_graphs` counts band scans only. No
    /// view-store guard is held while the oracle runs: a lookup hands back a
    /// shared row.
    fn verify(&self, g: GraphId, theta: f64, stats: &mut RunStats) -> Vec<GraphId> {
        let views = self.views.as_deref().map(|s| (s, self.view_scope()));
        let stored = views.and_then(|(store, scope)| store.lookup(scope, g, theta));
        let (row_theta, mut entries) = match &stored {
            Some(row) if row.covers(theta) => (row.theta, Cow::Borrowed(&row.entries[..])),
            narrower => {
                stats.verified_graphs += 1;
                (
                    theta,
                    Cow::Owned(self.scan_row(g, theta, narrower.as_ref())),
                )
            }
        };
        let members = self.answer_from_row(g, theta, row_theta, &mut entries);
        if let (Some((store, scope)), Cow::Owned(entries)) = (views, entries) {
            store.record(scope, g, MaterializedView::new(row_theta, entries));
        }
        members
    }

    /// The row entries of `g` at θ: the `N̂_θ` candidate superset, scanned
    /// over the session's `L_q` projection (so only relevant rows are
    /// visited), ascending by id, each with the facts `narrower` holds
    /// about it.
    fn scan_row(
        &self,
        g: GraphId,
        theta: f64,
        narrower: Option<&MaterializedView>,
    ) -> Vec<(GraphId, Facts)> {
        let mut candidates = Vec::new();
        self.index
            .vantage()
            .candidates_in(&self.projection, g, theta, &mut candidates);
        self.audit_thm5(g, &candidates, theta);
        candidates.sort_unstable();
        let mut known = narrower.iter().flat_map(|r| r.entries.iter()).peekable();
        candidates
            .into_iter()
            .map(|c| {
                while known.next_if(|&&(k, _)| k < c).is_some() {}
                let facts = known.next_if(|&&(k, _)| k == c).map(|&(_, f)| f);
                (c, facts.unwrap_or_default())
            })
            .collect()
    }

    /// Answers θ from the entries of a row scanned at `row_theta ≥ θ`, in
    /// id order. An entry whose facts reject it is out; one that fails a
    /// band at θ is out (Thm 5: it is not a candidate at θ, which only a
    /// row wider than θ can hold); one whose facts accept it is in; the
    /// rest ask the tier ladder, which is verdict-identical to the engine,
    /// so members are the same with tiers on or off, and their new facts
    /// are written into `entries`. The band test precedes a fact accept so
    /// that every member is a candidate at θ even when a degraded engine's
    /// distances break Thm 4.
    fn answer_from_row(
        &self,
        g: GraphId,
        theta: f64,
        row_theta: f64,
        entries: &mut Cow<'_, [(GraphId, Facts)]>,
    ) -> Vec<GraphId> {
        let (vt, oracle) = (self.index.vantage(), self.index.oracle());
        let mut members = Vec::new();
        for i in 0..entries.len() {
            let (c, facts) = entries[i];
            let inside = match facts.verdict(theta) {
                Some(false) => false,
                _ if theta < row_theta && !vt.passes_all_bands(g, c, theta) => false,
                Some(true) => true,
                None => {
                    let (inside, learned) = oracle.ask(g, c, theta);
                    entries.to_mut()[i].1 = learned;
                    inside
                }
            };
            if inside {
                members.push(c);
            }
        }
        self.audit_row(g, row_theta, entries, &members, theta);
        members
    }

    /// Alg 2: best-first search for the next maximum-marginal-gain graph.
    ///
    /// The cancellation token is polled between heap pops — the loop's only
    /// unbounded dimension; everything inside one pop is bounded work plus
    /// at most one candidate-set verification. `heap_buf` is the heap's
    /// storage, handed back emptied-on-entry so the picks of one run share
    /// one allocation.
    #[allow(clippy::too_many_arguments)]
    fn next_graph(
        &self,
        theta: f64,
        graph_bound: &mut [i64],
        node_bound: &mut [i64],
        node_lazy: &mut [i64],
        covered: &Bitset,
        in_answer: &Bitset,
        neigh: &mut [Option<Bitset>],
        heap_buf: &mut Vec<Entry>,
        stats: &mut RunStats,
        cancel: &CancelToken,
    ) -> Result<Option<u32>, Cancelled> {
        let tree = self.index.tree();
        let Some(root) = tree.root() else {
            return Ok(None);
        };
        heap_buf.clear();
        let mut heap = BinaryHeap::from(std::mem::take(heap_buf));
        if self.pihat.node_relevant(root) > 0 {
            heap.push(Entry::node(node_bound[root as usize], root));
        }
        let mut best: Option<(i64, GraphId, u32)> = None;
        while let Some(e) = heap.pop() {
            cancel.check()?;
            let bound = e.bound();
            if let Some((bg, _, _)) = best {
                if bound < bg {
                    break;
                }
            }
            match e.kind() {
                Kind::Node(ni) => {
                    let cur = node_bound[ni as usize];
                    if bound > cur {
                        heap.push(Entry::node(cur, ni));
                        continue;
                    }
                    stats.nodes_expanded += 1;
                    let node = tree.node(ni);
                    let lazy = std::mem::take(&mut node_lazy[ni as usize]);
                    if node.is_bottom() {
                        for pos in node.start..node.end {
                            if !self.rel_pos.contains(pos as usize) {
                                continue;
                            }
                            if lazy > 0 {
                                graph_bound[pos as usize] =
                                    (graph_bound[pos as usize] - lazy).max(0);
                            }
                            if in_answer.contains(pos as usize) {
                                continue;
                            }
                            heap.push(Entry::graph(
                                graph_bound[pos as usize],
                                tree.graph_at(pos),
                                false,
                            ));
                        }
                    } else {
                        for &c in &node.children {
                            if lazy > 0 {
                                node_bound[c as usize] = (node_bound[c as usize] - lazy).max(0);
                                node_lazy[c as usize] += lazy;
                            }
                            if self.pihat.node_relevant(c) > 0 {
                                heap.push(Entry::node(node_bound[c as usize], c));
                            }
                        }
                    }
                }
                Kind::Graph {
                    id,
                    verified: false,
                } => {
                    let pos = tree.pos_of(id);
                    let cur = graph_bound[pos as usize];
                    if bound > cur {
                        heap.push(Entry::graph(cur, id, false));
                        continue;
                    }
                    let nb = self.neighborhood(theta, pos, neigh, stats);
                    let gain = nb.difference_count(covered) as i64;
                    debug_assert!(
                        gain <= bound,
                        "verified gain must not exceed its upper bound"
                    );
                    graph_bound[pos as usize] = gain;
                    heap.push(Entry::graph(gain, id, true));
                }
                Kind::Graph { id, verified: true } => {
                    let better = match best {
                        None => true,
                        Some((bg, bid, _)) => bound > bg || (bound == bg && id < bid),
                    };
                    if better {
                        best = Some((bound, id, tree.pos_of(id)));
                    }
                }
            }
        }
        *heap_buf = heap.into_vec();
        Ok(best.map(|(_, _, pos)| pos))
    }

    /// The update step, which asks no edit distance. It walks the tree over
    /// the pick's newly covered set `new_c`: a node whose range holds none
    /// of `new_c` is skipped, one with diameter ≤ θ subtracts its range
    /// count from its whole subtree via a lazy delta (Thms 7–8), and any
    /// other is descended. Ranges are contiguous and nested, so a skipped
    /// subtree would have subtracted 0 everywhere. Thm 6's prune
    /// (`d(g*, c) − r > 2θ`) only ever skipped such subtrees, so the bounds
    /// are the ones its exact centroid distances gave.
    #[allow(clippy::too_many_arguments)]
    fn apply_update(
        &self,
        theta: f64,
        pos_star: u32,
        node_bound: &mut [i64],
        node_lazy: &mut [i64],
        covered: &mut Bitset,
        in_answer: &mut Bitset,
        neigh: &[Option<Bitset>],
    ) {
        let tree = self.index.tree();
        #[expect(
            clippy::expect_used,
            reason = "search contract: next_graph only returns verified graphs, which are memoized"
        )]
        let nb = neigh[pos_star as usize]
            .as_ref()
            .expect("selected graph was verified");
        let mut new_c = nb.clone();
        new_c.subtract(covered);
        covered.union_with(nb);
        in_answer.insert(pos_star as usize);
        let mut stack: Vec<u32> = tree.root().into_iter().collect();
        while let Some(ni) = stack.pop() {
            let node = tree.node(ni);
            let sub = new_c.count_range(node.start as usize, node.end as usize) as i64;
            if sub == 0 {
                continue;
            }
            if node.diameter <= theta + EPS {
                // Thms 7–8: every member g' of c has N(g') ⊇ c, hence
                // N(g') ∩ N(g*) ⊇ c ∩ N(g*); its uncovered part is
                // exactly the newly covered members of c.
                node_bound[ni as usize] = (node_bound[ni as usize] - sub).max(0);
                node_lazy[ni as usize] += sub;
            } else {
                stack.extend(&node.children);
            }
        }
    }

    /// Thm 4 audit: the vantage lower bound never exceeds the exact distance
    /// of a verified candidate, for whichever pairs the oracle holds one
    /// (upper-bound-certified accepts carry none). Compiled — memo probe
    /// included — only under `invariant-audit`.
    #[cfg(feature = "invariant-audit")]
    fn audit_thm4(&self, g: GraphId, c: GraphId) {
        // Thm 4 presumes metric (exact) distances.
        if !self.index.oracle().audit_distances_exact() {
            return;
        }
        let Some(d) = self.index.oracle().cached_distance(g, c) else {
            return;
        };
        let lb = self.index.vantage().lower_bound(g, c);
        graphrep_ged::audit_invariant!(
            lb <= d + EPS,
            "Thm 4: vantage lower bound {lb} exceeds exact distance {d} for pair ({g}, {c})"
        );
    }

    /// Thm 5 audit: `N̂_θ` is a candidate superset — every relevant graph
    /// excluded from it must have a vantage lower bound strictly above θ
    /// (hence exact distance above θ). Compiled only under `invariant-audit`.
    #[cfg(feature = "invariant-audit")]
    fn audit_thm5(&self, g: GraphId, candidates: &[GraphId], theta: f64) {
        // Thm 5 presumes metric (exact) distances.
        if !self.index.oracle().audit_distances_exact() {
            return;
        }
        let in_cand = Bitset::from_indices(
            self.index.tree().len(),
            candidates.iter().map(|&c| c as usize),
        );
        for &r in &self.relevant {
            if r == g || in_cand.contains(r as usize) {
                continue;
            }
            let lb = self.index.vantage().lower_bound(g, r);
            graphrep_ged::audit_invariant!(
                lb > theta,
                "Thm 5: relevant graph {r} excluded from the candidate set of {g} \
                 but its lower bound {lb} does not exceed θ = {theta}"
            );
        }
    }

    #[cfg(not(feature = "invariant-audit"))]
    #[inline(always)]
    fn audit_thm5(&self, _g: GraphId, _candidates: &[GraphId], _theta: f64) {}

    /// Row-path audit, with no oracle request: the row's candidates contain
    /// the fresh Thm 5 candidate set at θ (so answering from the row misses
    /// no neighbor a band scan would have verified), every member passes
    /// all bands at θ, and every member passes the Thm 4 check. Compiled
    /// only under `invariant-audit`.
    #[cfg(feature = "invariant-audit")]
    fn audit_row(
        &self,
        g: GraphId,
        row_theta: f64,
        entries: &[(GraphId, Facts)],
        members: &[GraphId],
        theta: f64,
    ) {
        let vt = self.index.vantage();
        let mut fresh = Vec::new();
        vt.candidates_in(&self.projection, g, theta, &mut fresh);
        for c in fresh {
            graphrep_ged::audit_invariant!(
                entries.binary_search_by_key(&c, |&(k, _)| k).is_ok(),
                "Thm 5 superset: candidate {c} of {g} at θ′ = {theta} is missing \
                 from the row band-scanned at θ = {row_theta}"
            );
        }
        for &c in members {
            graphrep_ged::audit_invariant!(
                vt.passes_all_bands(g, c, theta),
                "row member {c} of {g} fails a band at θ′ = {theta}"
            );
            self.audit_thm4(g, c);
        }
    }

    #[cfg(not(feature = "invariant-audit"))]
    #[inline(always)]
    fn audit_row(
        &self,
        _g: GraphId,
        _row_theta: f64,
        _entries: &[(GraphId, Facts)],
        _members: &[GraphId],
        _theta: f64,
    ) {
    }

    /// Re-audits the NB-Tree's metric facts (Thm 6–8 preconditions).
    /// Compiled only under `invariant-audit`.
    #[cfg(feature = "invariant-audit")]
    fn audit_tree(&self) {
        self.index.tree().audit(self.index.oracle());
    }

    #[cfg(not(feature = "invariant-audit"))]
    #[inline(always)]
    fn audit_tree(&self) {}

    /// End-of-run audit: tree containment plus oracle counter conservation
    /// at a quiescent point. Compiled only under `invariant-audit`.
    #[cfg(feature = "invariant-audit")]
    fn audit_run_end(&self) {
        self.audit_tree();
        self.index.oracle().audit_counter_conservation();
    }

    #[cfg(not(feature = "invariant-audit"))]
    #[inline(always)]
    fn audit_run_end(&self) {}
}

impl<I: Deref<Target = NbIndex> + Send + Sync> Session for QuerySession<I> {
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
        let t0 = Instant::now();
        cancel.check()?;
        let cache = self.answers.as_deref().filter(|_| on_pick.is_none());
        let key = AnswerKey {
            epoch: self.index.epoch(),
            theta_bits: theta.to_bits(),
            k,
            fingerprint: self.fingerprint,
        };
        if let Some(answer) = cache.and_then(|c| c.get(&key)) {
            let stats = RunStats {
                wall: t0.elapsed(),
                cached: true,
                ..RunStats::default()
            };
            return Ok((answer, stats));
        }
        let (answer, stats) = self.search(theta, k, cancel, on_pick)?;
        let answer = Arc::new(answer);
        if let Some(cache) = cache {
            cache.insert(key, Arc::clone(&answer));
        }
        Ok((answer, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nbindex::NbIndexConfig;
    use graphrep_datagen::{DatasetKind, DatasetSpec};
    use graphrep_ged::GedConfig;
    use std::rc::Rc;

    /// The packed key pops in the order of the two-field comparison it
    /// replaced — larger bound first, then the smaller tie key (graphs by
    /// ascending id, unverified after verified, nodes last) — and decodes
    /// back to the bound and kind it was built from.
    #[test]
    fn packed_entry_orders_like_bound_then_tie() {
        let mut entries = Vec::new();
        for bound in [i64::MIN, -3, 0, 1, 2, 57, i64::MAX] {
            for x in [0u32, 1, 9, u32::MAX] {
                entries.push((bound, (1u64 << 33) | u64::from(x), Entry::node(bound, x)));
                entries.push((bound, u64::from(x), Entry::graph(bound, x, true)));
                entries.push((
                    bound,
                    (1u64 << 32) | u64::from(x),
                    Entry::graph(bound, x, false),
                ));
            }
        }
        for &(bound, tie, e) in &entries {
            assert_eq!(e.bound(), bound);
            let want = match tie >> 32 {
                0 => Kind::Graph {
                    id: tie as u32,
                    verified: true,
                },
                1 => Kind::Graph {
                    id: tie as u32,
                    verified: false,
                },
                _ => Kind::Node(tie as u32),
            };
            assert_eq!(e.kind(), want);
            for &(b2, t2, e2) in &entries {
                let reference = bound.cmp(&b2).then_with(|| t2.cmp(&tie));
                assert_eq!(
                    e.cmp(&e2),
                    reference,
                    "({bound}, {tie:#x}) vs ({b2}, {t2:#x})"
                );
            }
        }
        let mut heap: BinaryHeap<Entry> = entries.iter().map(|&(_, _, e)| e).collect();
        let mut popped = Vec::new();
        while let Some(e) = heap.pop() {
            popped.push(e);
        }
        let mut reference: Vec<(i64, u64, Entry)> = entries.clone();
        reference.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let reference: Vec<Entry> = reference.into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(popped, reference);
    }

    /// A session over an `Rc` handle is `!Sync`, so this compiles only while
    /// a run shares the session with no other thread — and it must answer
    /// exactly like the borrowed session, on and off the ladder.
    #[test]
    fn rc_handle_session_matches_borrowed_session() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 80, 7201).generate();
        let build = || {
            let config = NbIndexConfig {
                num_vps: 4,
                ladder: data.default_ladder.clone(),
                ..Default::default()
            };
            NbIndex::build(data.db.oracle(GedConfig::default()), config)
        };
        // Two identical builds: each side starts on its own cold oracle, so
        // the distance-call counts are comparable too.
        let (borrowed, shared) = (build(), Rc::new(build()));
        let relevant = data.default_query().relevant_set(&data.db);
        let want = borrowed.start_session(relevant.clone());
        let got = QuerySession::new(shared, relevant);
        let top = *data.default_ladder.last().expect("non-empty ladder");
        let counts = |s: &RunStats| {
            (
                s.distance_calls,
                s.verified_graphs,
                s.nodes_expanded,
                s.ladder_slot,
            )
        };
        for (theta, on_ladder) in [(data.default_theta, true), (top * 1.5, false)] {
            let (want_answer, want_stats) = want.run(theta, 6);
            let (got_answer, got_stats) = got.run(theta, 6);
            assert_eq!(want_stats.ladder_slot.is_some(), on_ladder, "θ = {theta}");
            assert_eq!(format!("{got_answer:?}"), format!("{want_answer:?}"));
            assert_eq!(counts(&got_stats), counts(&want_stats), "θ = {theta}");
        }
    }

    /// Two identical cold builds of a 60-graph index, one session each
    /// over the default relevant set: `plain` without views, `viewed` with
    /// a view store.
    fn plain_and_viewed() -> (NbIndex, NbIndex, Vec<GraphId>, Vec<f64>, Arc<ViewStore>) {
        let data = DatasetSpec::new(DatasetKind::DudLike, 60, 7202).generate();
        let build = || {
            let config = NbIndexConfig {
                num_vps: 4,
                ladder: data.default_ladder.clone(),
                ..Default::default()
            };
            NbIndex::build(data.db.oracle(GedConfig::default()), config)
        };
        let store = Arc::new(ViewStore::new(crate::CacheConfig::default()));
        let relevant = data.default_query().relevant_set(&data.db);
        (build(), build(), relevant, data.default_ladder, store)
    }

    /// Rows recorded at θ answer θ and every θ′ < θ without a band scan,
    /// and every answer is the plain session's.
    #[test]
    fn view_rows_answer_like_plain_runs_and_skip_band_scans() {
        let (plain_index, viewed_index, relevant, ladder, store) = plain_and_viewed();
        let plain = plain_index.start_session(relevant.clone());
        let viewed = viewed_index
            .start_session(relevant)
            .with_views(Arc::clone(&store));
        let top = ladder[ladder.len() - 1];
        let (want, first) = (plain.run(top, 6), viewed.run(top, 6));
        assert_eq!(format!("{:?}", first.0), format!("{:?}", want.0));
        assert_eq!(first.1.verified_graphs, want.1.verified_graphs);
        let hits = store.counters().hits;
        for theta in [top, top * 0.9, ladder[0]] {
            let (want, _) = plain.run(theta, 6);
            let (got, stats) = viewed.run(theta, 6);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "θ = {theta}");
            assert_eq!(
                stats.verified_graphs, 0,
                "θ = {theta} is covered by rows at {top}"
            );
        }
        let c = store.counters();
        assert!(c.hits > hits, "{c:?}");
        assert_eq!(c.lookups, c.hits + c.misses);
    }

    /// A θ above every row, or a new epoch, band-scans every neighborhood
    /// exactly as a session without views does.
    #[test]
    fn wider_theta_or_new_epoch_band_scans() {
        let (mut plain_index, mut viewed_index, relevant, ladder, store) = plain_and_viewed();
        let (theta, wider) = (ladder[0], ladder[ladder.len() - 1] * 1.5);
        let viewed = viewed_index
            .start_session(relevant.clone())
            .with_views(Arc::clone(&store));
        let _ = viewed.run(theta, 6);
        let (want, want_stats) = plain_index.start_session(relevant.clone()).run(wider, 6);
        let (got, stats) = viewed.run(wider, 6);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(stats.verified_graphs, want_stats.verified_graphs);
        drop(viewed);

        let extra = plain_index.oracle().graphs()[0].clone();
        plain_index.insert(extra.clone()).expect("insert");
        viewed_index.insert(extra).expect("insert");
        let viewed = viewed_index
            .start_session(relevant.clone())
            .with_views(Arc::clone(&store));
        let (want, want_stats) = plain_index.start_session(relevant).run(theta, 6);
        let (got, stats) = viewed.run(theta, 6);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(
            stats.verified_graphs, want_stats.verified_graphs,
            "a new epoch sees no row"
        );
    }
}

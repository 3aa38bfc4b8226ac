//! The NB-Tree: top-down hierarchical clustering of the database
//! (paper Sec 6.4).
//!
//! Disjoint clusters are formed recursively: `b` pivots are chosen
//! farthest-first, every graph is assigned to its closest pivot — using the
//! vantage-point lower bound to skip most NP-hard distance computations —
//! and the process recurses until clusters have at most `b` members. Each
//! node stores its centroid, radius, and a diameter upper bound (sum of the
//! two largest centroid distances), which power the Thm 6–8 batch updates.
//!
//! Graph ids are permuted DFS-wise into `leaf_order`, so every node owns a
//! contiguous *position* range and cluster∩coverage counts are O(words)
//! bitset range operations.

use graphrep_ged::DistanceOracle;
use graphrep_graph::GraphId;
use graphrep_metric::VantageTable;
use rand::seq::SliceRandom;
use rand::Rng;

/// One cluster node of the NB-Tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// The pivot graph acting as cluster centroid.
    pub centroid: GraphId,
    /// Max distance from the centroid to any member (∞ at the root).
    pub radius: f64,
    /// Upper bound on the pairwise diameter (∞ at the root).
    pub diameter: f64,
    /// Child node indices; empty for bottom clusters whose children are the
    /// individual graphs in `start..end`.
    pub children: Vec<u32>,
    /// First leaf position owned by this node.
    pub start: u32,
    /// One past the last leaf position owned by this node.
    pub end: u32,
}

impl TreeNode {
    /// Number of graphs in this cluster.
    pub fn size(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether this node's children are individual graphs.
    pub fn is_bottom(&self) -> bool {
        self.children.is_empty()
    }
}

/// The NB-Tree over a whole database.
///
/// Dynamic maintenance (DESIGN.md §10): removed graphs are *tombstoned* —
/// they keep their leaf position (so `len() == oracle.len()` and every
/// position-indexed structure stays valid) but are flagged in `dead` and
/// excluded from per-node live counts. Inserted graphs are routed to their
/// nearest bottom cluster with radius/diameter re-expansion along the path,
/// which keeps the Thm 6–8 bounds admissible without restructuring.
#[derive(Debug, Clone, PartialEq)]
pub struct NbTree {
    nodes: Vec<TreeNode>,
    /// `leaf_order[pos]` = graph id at leaf position `pos`.
    leaf_order: Vec<GraphId>,
    /// `pos_of[graph id]` = leaf position.
    pos_of: Vec<u32>,
    branching: usize,
    /// `dead[pos]` = the graph at leaf position `pos` is tombstoned.
    dead: Vec<bool>,
    /// `node_live[i]` = live (non-tombstoned) members of node `i`'s range.
    node_live: Vec<u32>,
}

/// Result of one [`NbTree::insert_graph`] call.
#[derive(Debug, Clone, Copy)]
pub struct InsertOutcome {
    /// Leaf position the new graph received.
    pub pos: u32,
    /// Nodes on the root→bottom routing path (including both ends).
    pub path_len: usize,
    /// Σ share · (r′ − r) / max(r, 1) over the re-expanded path nodes, where
    /// `share` is the fraction of the tree's live graphs that sit under the
    /// node — the bound-degradation currency of the rebuild policy: how much
    /// of the database now lies under a weakened bound, and by how much.
    pub radius_inflation: f64,
    /// Whether the receiving bottom cluster was split after insertion.
    pub split: bool,
}

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct NbTreeConfig {
    /// Maximum fan-out `b` (also the bottom-cluster capacity).
    pub branching: usize,
    /// Sample size cap for farthest-first pivot selection.
    pub pivot_sample: usize,
}

impl Default for NbTreeConfig {
    fn default() -> Self {
        Self {
            branching: 8,
            pivot_sample: 64,
        }
    }
}

struct Builder<'a> {
    oracle: &'a DistanceOracle,
    vt: Option<&'a VantageTable>,
    cfg: NbTreeConfig,
    nodes: Vec<TreeNode>,
    leaf_order: Vec<GraphId>,
}

impl Builder<'_> {
    /// Chooses up to `b` pivots farthest-first from a sample of `members`.
    fn choose_pivots<R: Rng + ?Sized>(&self, members: &[GraphId], rng: &mut R) -> Vec<GraphId> {
        farthest_first_pivots(
            self.oracle,
            members,
            self.cfg.branching,
            self.cfg.pivot_sample,
            rng,
        )
    }

    /// Closest pivot to `g` (paper Sec 6.4).
    fn assign(&self, g: GraphId, pivots: &[GraphId]) -> (usize, f64) {
        nearest_of(self.oracle, self.vt, g, pivots)
    }

    /// Builds the node for `members` with the given centroid and exact
    /// centroid distances; returns its index.
    fn build_cluster<R: Rng + ?Sized>(
        &mut self,
        members: Vec<GraphId>,
        centroid: GraphId,
        cent_dists: Vec<f64>,
        rng: &mut R,
    ) -> u32 {
        let (radius, diameter) = radius_diameter(&cent_dists);
        let idx = self.nodes.len() as u32;
        self.nodes.push(TreeNode {
            centroid,
            radius,
            diameter,
            children: vec![],
            start: 0,
            end: 0,
        });
        if members.len() <= self.cfg.branching {
            let start = self.leaf_order.len() as u32;
            self.leaf_order.extend(&members);
            let end = self.leaf_order.len() as u32;
            self.nodes[idx as usize].start = start;
            self.nodes[idx as usize].end = end;
            return idx;
        }
        let pivots = self.choose_pivots(&members, rng);
        let mut parts: Vec<Vec<GraphId>> = vec![vec![]; pivots.len()];
        let mut part_dists: Vec<Vec<f64>> = vec![vec![]; pivots.len()];
        // Each member's closest-pivot search is pure and independent; fan it
        // out and partition sequentially in member order afterwards, so the
        // resulting clusters never depend on thread interleaving.
        let assignments: Vec<(usize, f64)> = {
            use rayon::prelude::*;
            let builder = &*self;
            members
                .par_iter()
                .map(|&g| builder.assign(g, &pivots))
                .collect()
        };
        for (&g, (pi, d)) in members.iter().zip(assignments) {
            parts[pi].push(g);
            part_dists[pi].push(d);
        }
        // Degenerate split (duplicate-heavy data): fall back to a flat bottom
        // cluster to guarantee termination.
        if parts.iter().filter(|p| !p.is_empty()).count() <= 1 {
            let start = self.leaf_order.len() as u32;
            self.leaf_order.extend(&members);
            let end = self.leaf_order.len() as u32;
            self.nodes[idx as usize].start = start;
            self.nodes[idx as usize].end = end;
            return idx;
        }
        let start = self.leaf_order.len() as u32;
        let mut children = Vec::new();
        for (pi, (part, dists)) in parts.into_iter().zip(part_dists).enumerate() {
            if part.is_empty() {
                continue;
            }
            children.push(self.build_cluster(part, pivots[pi], dists, rng));
        }
        let end = self.leaf_order.len() as u32;
        let n = &mut self.nodes[idx as usize];
        n.children = children;
        n.start = start;
        n.end = end;
        idx
    }
}

/// Chooses up to `b` pivots farthest-first from a sample of `members`.
///
/// The RNG (sample shuffle) runs on the sequential control path; only the
/// pure pool→pivot distance sweeps fan out over rayon workers, and the
/// farthest-first argmax folds their results in pool order — so the chosen
/// pivots are independent of thread count.
fn farthest_first_pivots<R: Rng + ?Sized>(
    oracle: &DistanceOracle,
    members: &[GraphId],
    b: usize,
    pivot_sample: usize,
    rng: &mut R,
) -> Vec<GraphId> {
    use rayon::prelude::*;
    let mut pool: Vec<GraphId> = members.to_vec();
    pool.shuffle(rng);
    pool.truncate(pivot_sample.max(b).min(members.len()));
    let mut pivots = vec![pool[0]];
    let mut mindist: Vec<f64> = pool
        .par_iter()
        .map(|&g| oracle.distance(g, pivots[0]))
        .collect();
    while pivots.len() < b.min(pool.len()) {
        #[expect(
            clippy::expect_used,
            reason = "pool is non-empty: members is non-empty and truncation keeps at least one"
        )]
        let (best_i, &best_d) = mindist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty pool");
        if best_d <= 0.0 {
            break; // every remaining candidate coincides with a pivot
        }
        let p = pool[best_i];
        pivots.push(p);
        let to_p: Vec<f64> = pool.par_iter().map(|&g| oracle.distance(g, p)).collect();
        for (i, d) in to_p.into_iter().enumerate() {
            if d < mindist[i] {
                mindist[i] = d;
            }
        }
    }
    pivots
}

/// Nearest child centroid for an online insert: the choice of a full sweep
/// (minimum exact distance, ties to the lowest index), computing exact
/// distances only for centroids whose margin-adjusted vantage lower bound
/// ([`VantageTable::hint_bounds`], sound under the f32 storage) does not
/// exceed the best distance found so far. Centroids are visited in
/// ascending bound (stable, so equal bounds keep index order), and the
/// scan stops at the first bound above the best — no later centroid can
/// reach it, let alone tie it. Without a table every bound is 0 and this is
/// the full sweep. Returns `(centroid index, exact distance)`.
fn route_child(
    oracle: &DistanceOracle,
    vt: Option<&VantageTable>,
    g: GraphId,
    centroids: &[GraphId],
) -> (usize, f64) {
    let mut order: Vec<(f64, usize)> = centroids
        .iter()
        .enumerate()
        .map(|(i, &c)| (vt.map_or(0.0, |vt| vt.hint_bounds(g, c).0), i))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut best_i, mut best) = (usize::MAX, f64::INFINITY);
    for &(lb, i) in &order {
        if lb > best {
            break;
        }
        let d = oracle.distance(g, centroids[i]);
        if d.total_cmp(&best).then(i.cmp(&best_i)).is_lt() {
            best = d;
            best_i = i;
        }
    }
    (best_i, best)
}

/// Closest pivot to `g`, pruning exact computations with the VP lower bound
/// (paper Sec 6.4). Returns `(pivot index, exact distance)`. Deterministic
/// for a given table; the static build's clustering is defined by it.
fn nearest_of(
    oracle: &DistanceOracle,
    vt: Option<&VantageTable>,
    g: GraphId,
    pivots: &[GraphId],
) -> (usize, f64) {
    match vt {
        Some(vt) => {
            let mut order: Vec<(f64, usize)> = pivots
                .iter()
                .enumerate()
                .map(|(i, &p)| (vt.lower_bound(g, p), i))
                .collect();
            order.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut best = f64::INFINITY;
            let mut best_i = order[0].1;
            for &(lb, i) in &order {
                if lb >= best {
                    break; // ascending lbs: no remaining pivot can win
                }
                let d = oracle.distance(g, pivots[i]);
                if d < best {
                    best = d;
                    best_i = i;
                }
            }
            (best_i, best)
        }
        None => {
            let mut best = f64::INFINITY;
            let mut best_i = 0;
            for (i, &p) in pivots.iter().enumerate() {
                let d = oracle.distance(g, p);
                if d < best {
                    best = d;
                    best_i = i;
                }
            }
            (best_i, best)
        }
    }
}

/// Radius (max) and diameter bound (sum of two largest) from centroid
/// distances.
fn radius_diameter(cent_dists: &[f64]) -> (f64, f64) {
    let (mut r1, mut r2) = (0.0f64, 0.0f64);
    for &d in cent_dists {
        if d > r1 {
            r2 = r1;
            r1 = d;
        } else if d > r2 {
            r2 = d;
        }
    }
    (r1, r1 + r2)
}

impl NbTree {
    /// Builds the tree over every graph the oracle holds.
    pub fn build<R: Rng + ?Sized>(
        oracle: &DistanceOracle,
        vt: Option<&VantageTable>,
        cfg: NbTreeConfig,
        rng: &mut R,
    ) -> Self {
        Self::build_over(oracle, vt, cfg, rng, &vec![true; oracle.len()])
    }

    /// Builds the tree over the graphs with `live[id] == true` — the
    /// compaction path of the rebuild policy.
    ///
    /// Dead ids keep leaf positions at the *tail*, outside the root's range:
    /// `pos_of` stays total (every position-indexed structure keeps working)
    /// while traversal, which starts at the root, can never reach a dead
    /// graph. The resulting tree has zero tombstones inside node ranges.
    ///
    /// # Panics
    /// If `live.len() != oracle.len()` or `cfg.branching < 2`.
    pub fn build_over<R: Rng + ?Sized>(
        oracle: &DistanceOracle,
        vt: Option<&VantageTable>,
        cfg: NbTreeConfig,
        rng: &mut R,
        live: &[bool],
    ) -> Self {
        assert!(cfg.branching >= 2, "branching factor must be at least 2");
        let n = oracle.len();
        assert_eq!(live.len(), n, "one liveness flag per indexed graph");
        let members: Vec<GraphId> = (0..n as GraphId).filter(|&g| live[g as usize]).collect();
        let mut b = Builder {
            oracle,
            vt,
            cfg,
            nodes: Vec::new(),
            leaf_order: Vec::with_capacity(n),
        };
        if !members.is_empty() {
            let centroid = members[rng.gen_range(0..members.len())];
            // Root: whole live set; radius/diameter are left unbounded so the
            // root is always traversed (it cannot be pruned anyway).
            let idx = b.build_cluster(members, centroid, vec![], rng);
            debug_assert_eq!(idx, 0);
            b.nodes[0].radius = f64::INFINITY;
            b.nodes[0].diameter = f64::INFINITY;
        }
        let live_count = b.leaf_order.len();
        for g in 0..n as GraphId {
            if !live[g as usize] {
                b.leaf_order.push(g);
            }
        }
        let mut pos_of = vec![0u32; n];
        for (pos, &g) in b.leaf_order.iter().enumerate() {
            pos_of[g as usize] = pos as u32;
        }
        let node_live = b.nodes.iter().map(|nd| nd.size() as u32).collect();
        let mut dead = vec![false; n];
        for d in dead.iter_mut().skip(live_count) {
            *d = true;
        }
        let tree = NbTree {
            nodes: b.nodes,
            leaf_order: b.leaf_order,
            pos_of,
            branching: cfg.branching,
            dead,
            node_live,
        };
        tree.audit(oracle);
        tree
    }

    /// Routes the already-appended graph `id` (which must equal the previous
    /// [`NbTree::len`]) down to its nearest bottom cluster, re-expanding
    /// radius and diameter along the path so every Thm 6–8 bound stays
    /// admissible: for a path node with radius `r` at distance `d` from the
    /// new graph, `r′ = max(r, d)` restores containment and
    /// `diam′ = max(diam, d + r)` bounds any new–old pair via the triangle
    /// inequality through the centroid.
    ///
    /// A bottom cluster that grows beyond `2 × branching` all-live members
    /// is split in place (one level, deterministic under `rng`), bounding
    /// bottom-scan cost under sustained insert load.
    ///
    /// # Panics
    /// If `id` is not the next unindexed id.
    pub fn insert_graph<R: Rng + ?Sized>(
        &mut self,
        oracle: &DistanceOracle,
        vt: Option<&VantageTable>,
        id: GraphId,
        rng: &mut R,
    ) -> InsertOutcome {
        assert_eq!(
            id as usize,
            self.leaf_order.len(),
            "insert_graph takes the next unindexed id"
        );
        if self.nodes.is_empty() {
            // No root (fresh or fully-compacted-away tree): the new graph
            // becomes a singleton root appended after any dead tail.
            let pos = self.leaf_order.len() as u32;
            self.nodes.push(TreeNode {
                centroid: id,
                radius: f64::INFINITY,
                diameter: f64::INFINITY,
                children: vec![],
                start: pos,
                end: pos + 1,
            });
            self.leaf_order.push(id);
            self.pos_of.push(pos);
            self.dead.push(false);
            self.node_live.push(1);
            return InsertOutcome {
                pos,
                path_len: 1,
                radius_inflation: 0.0,
                split: false,
            };
        }
        // Route: at each internal node pick the nearest-centroid child (VP
        // lower bounds prune exact computations without changing the
        // choice) and re-expand it to contain the new member.
        let mut cur = 0u32;
        let mut path = vec![cur];
        let mut inflation = 0.0f64;
        // Live graphs under the root once the new one is counted.
        let live = f64::from(self.node_live[0] + 1);
        while !self.nodes[cur as usize].is_bottom() {
            let children = self.nodes[cur as usize].children.clone();
            let centroids: Vec<GraphId> = children
                .iter()
                .map(|&c| self.nodes[c as usize].centroid)
                .collect();
            let (ci, d) = route_child(oracle, vt, id, &centroids);
            let child = children[ci];
            let n = &mut self.nodes[child as usize];
            if n.radius.is_finite() {
                let grown = n.radius.max(d);
                // Weighted by the share of the database the node covers: a
                // far graph routed into a singleton (radius 0) grows that
                // radius by its whole distance but weakens the bounds of one
                // graph in n, not of the index.
                let share = f64::from(self.node_live[child as usize] + 1) / live;
                inflation += share * (grown - n.radius) / n.radius.max(1.0);
                n.diameter = n.diameter.max(d + n.radius);
                n.radius = grown;
            }
            cur = child;
            path.push(cur);
        }
        // Splice the new leaf position at the receiving bottom's end:
        // ancestors stretch by one, everything to the right slides by one.
        let insert_pos = self.nodes[cur as usize].end;
        for (i, n) in self.nodes.iter_mut().enumerate() {
            if path.contains(&(i as u32)) {
                n.end += 1;
            } else if n.start >= insert_pos {
                n.start += 1;
                n.end += 1;
            }
        }
        for p in self.pos_of.iter_mut() {
            if *p >= insert_pos {
                *p += 1;
            }
        }
        self.leaf_order.insert(insert_pos as usize, id);
        self.dead.insert(insert_pos as usize, false);
        self.pos_of.push(insert_pos);
        for &nidx in &path {
            self.node_live[nidx as usize] += 1;
        }
        let split = self.maybe_split_bottom(cur, oracle, vt, rng);
        InsertOutcome {
            // A split reorders the receiving bottom's range, so re-read the
            // final position rather than reporting the pre-split slot.
            pos: self.pos_of[id as usize],
            path_len: path.len(),
            radius_inflation: inflation,
            split,
        }
    }

    /// Splits bottom `idx` one level if it holds more than `2 × branching`
    /// members, all live. Tombstoned bottoms are left alone — compaction is
    /// the rebuild policy's job, and splitting around dead positions would
    /// break range contiguity.
    fn maybe_split_bottom<R: Rng + ?Sized>(
        &mut self,
        idx: u32,
        oracle: &DistanceOracle,
        vt: Option<&VantageTable>,
        rng: &mut R,
    ) -> bool {
        let (start, end) = {
            let n = &self.nodes[idx as usize];
            if !n.is_bottom()
                || n.size() <= 2 * self.branching
                || (self.node_live[idx as usize] as usize) < n.size()
            {
                return false;
            }
            (n.start, n.end)
        };
        let members: Vec<GraphId> = self.leaf_order[start as usize..end as usize].to_vec();
        let pivots = farthest_first_pivots(oracle, &members, self.branching, members.len(), rng);
        if pivots.len() <= 1 {
            return false; // duplicate-heavy cluster: nothing to separate
        }
        let mut parts: Vec<Vec<GraphId>> = vec![vec![]; pivots.len()];
        let mut part_dists: Vec<Vec<f64>> = vec![vec![]; pivots.len()];
        for &g in &members {
            let (pi, d) = nearest_of(oracle, vt, g, &pivots);
            parts[pi].push(g);
            part_dists[pi].push(d);
        }
        if parts.iter().filter(|p| !p.is_empty()).count() <= 1 {
            return false;
        }
        // Rewrite the bottom's leaf range as the part concatenation and hang
        // one child per non-empty part under it.
        let mut cursor = start;
        let mut children = Vec::new();
        for (pi, (part, dists)) in parts.into_iter().zip(part_dists).enumerate() {
            if part.is_empty() {
                continue;
            }
            let (radius, diameter) = radius_diameter(&dists);
            let cstart = cursor;
            for &g in &part {
                self.leaf_order[cursor as usize] = g;
                self.pos_of[g as usize] = cursor;
                cursor += 1;
            }
            let cidx = self.nodes.len() as u32;
            self.nodes.push(TreeNode {
                centroid: pivots[pi],
                radius,
                diameter,
                children: vec![],
                start: cstart,
                end: cursor,
            });
            self.node_live.push(cursor - cstart);
            children.push(cidx);
        }
        self.nodes[idx as usize].children = children;
        true
    }

    /// Tombstones graph `id`: the graph keeps its leaf position (so every
    /// position-indexed structure stays valid) but is flagged dead and
    /// decremented from the live count of every node on its ancestor chain.
    /// Radii never shrink, so all Thm 6–8 bounds remain admissible.
    ///
    /// Returns the graph's leaf position, or an error if `id` is unindexed
    /// or already removed.
    pub fn remove_graph(&mut self, id: GraphId) -> Result<u32, String> {
        let idu = id as usize;
        if idu >= self.pos_of.len() {
            return Err(format!("graph {id} is not indexed"));
        }
        let pos = self.pos_of[idu];
        if self.dead[pos as usize] {
            return Err(format!("graph {id} is already removed"));
        }
        self.dead[pos as usize] = true;
        if !self.nodes.is_empty() && pos >= self.nodes[0].start && pos < self.nodes[0].end {
            let mut cur = 0u32;
            loop {
                self.node_live[cur as usize] = self.node_live[cur as usize].saturating_sub(1);
                if self.nodes[cur as usize].is_bottom() {
                    break;
                }
                let mut next = None;
                for &c in &self.nodes[cur as usize].children {
                    let cn = &self.nodes[c as usize];
                    if cn.start <= pos && pos < cn.end {
                        next = Some(c);
                        break;
                    }
                }
                match next {
                    Some(c) => cur = c,
                    None => break, // unreachable: children tile the parent
                }
            }
        }
        Ok(pos)
    }

    /// Whether graph `id` is indexed and not tombstoned.
    pub fn is_live(&self, id: GraphId) -> bool {
        (id as usize) < self.pos_of.len() && !self.dead[self.pos_of[id as usize] as usize]
    }

    /// Number of live (non-tombstoned) graphs.
    pub fn live_len(&self) -> usize {
        self.node_live.first().map_or(0, |&l| l as usize)
    }

    /// Number of tombstoned graphs.
    pub fn tombstones(&self) -> usize {
        self.len() - self.live_len()
    }

    /// Tombstones still occupying positions *inside* the root's clustered
    /// range — the ones traversal must step over. A rebuild moves every dead
    /// id to the tail (outside the root's range), so this is the staleness
    /// the rebuild policy meters, while [`NbTree::tombstones`] counts all
    /// removals ever.
    pub fn stale(&self) -> usize {
        self.nodes.first().map_or(0, |root| {
            root.size() - self.node_live.first().copied().unwrap_or(0) as usize
        })
    }

    /// Live member count of node `idx`'s range.
    pub fn node_live(&self, idx: u32) -> u32 {
        self.node_live[idx as usize]
    }

    /// All nodes (index 0 is the root).
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// The node at `idx`.
    pub fn node(&self, idx: u32) -> &TreeNode {
        &self.nodes[idx as usize]
    }

    /// Root index (0), if the tree is non-empty.
    pub fn root(&self) -> Option<u32> {
        (!self.nodes.is_empty()).then_some(0)
    }

    /// Number of graphs indexed.
    pub fn len(&self) -> usize {
        self.leaf_order.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.leaf_order.is_empty()
    }

    /// The configured fan-out.
    pub fn branching(&self) -> usize {
        self.branching
    }

    /// Graph id at leaf position `pos`.
    pub fn graph_at(&self, pos: u32) -> GraphId {
        self.leaf_order[pos as usize]
    }

    /// Leaf position of graph `id`.
    pub fn pos_of(&self, id: GraphId) -> u32 {
        self.pos_of[id as usize]
    }

    /// The DFS leaf ordering.
    pub fn leaf_order(&self) -> &[GraphId] {
        &self.leaf_order
    }

    /// Reassembles a tree from its persisted parts — the binary decode path.
    /// `pos_of` is derived from `leaf_order` (it is the inverse permutation),
    /// and the shape is validated so a corrupt payload surfaces as a typed
    /// error instead of an out-of-bounds panic during traversal.
    pub(crate) fn from_raw_parts(
        nodes: Vec<TreeNode>,
        leaf_order: Vec<GraphId>,
        branching: usize,
        dead: Vec<bool>,
        node_live: Vec<u32>,
    ) -> Result<Self, String> {
        if branching < 2 {
            return Err(format!("branching factor {branching} below minimum 2"));
        }
        let n = leaf_order.len();
        if dead.len() != n {
            return Err(format!("{n} leaves but {} dead flags", dead.len()));
        }
        if node_live.len() != nodes.len() {
            return Err(format!(
                "{} nodes but {} live counts",
                nodes.len(),
                node_live.len()
            ));
        }
        let mut pos_of = vec![u32::MAX; n];
        for (pos, &g) in leaf_order.iter().enumerate() {
            let slot = pos_of
                .get_mut(g as usize)
                .ok_or_else(|| format!("leaf order names graph {g}, only {n} graphs exist"))?;
            if *slot != u32::MAX {
                return Err(format!("graph {g} appears twice in the leaf order"));
            }
            *slot = pos as u32;
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.start > node.end || node.end as usize > n {
                return Err(format!(
                    "node {i} owns leaf range {}..{} beyond {n} leaves",
                    node.start, node.end
                ));
            }
            if let Some(&c) = node.children.iter().find(|&&c| c as usize >= nodes.len()) {
                return Err(format!(
                    "node {i} has child {c} beyond {} nodes",
                    nodes.len()
                ));
            }
        }
        Ok(Self {
            nodes,
            leaf_order,
            pos_of,
            branching,
            dead,
            node_live,
        })
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| std::mem::size_of::<TreeNode>() + n.children.len() * 4)
            .sum::<usize>()
            + self.leaf_order.len() * 4
            + self.pos_of.len() * 4
            + self.dead.len()
            + self.node_live.len() * 4
    }

    /// Audits the metric facts behind the Thm 6–8 batch updates: structure
    /// and radius containment (via [`NbTree::validate`]), radius ≤ diameter
    /// bound on every non-root node, and pairwise member distances within
    /// the diameter bound on bottom clusters. Panics on violation.
    ///
    /// Compiled only under the `invariant-audit` feature; the default build
    /// gets the no-op twin below.
    #[cfg(feature = "invariant-audit")]
    pub fn audit(&self, oracle: &DistanceOracle) {
        use graphrep_ged::audit_invariant;
        let v = self.validate(oracle);
        audit_invariant!(
            v.is_ok(),
            "NB-Tree validation failed: {}",
            v.as_ref().err().map(String::as_str).unwrap_or("?")
        );
        for (i, n) in self.nodes.iter().enumerate() {
            if i == 0 {
                continue;
            }
            audit_invariant!(
                n.radius <= n.diameter + 1e-9,
                "node {i}: radius {} exceeds diameter bound {}",
                n.radius,
                n.diameter
            );
            // The diameter bound rests on the triangle inequality, which
            // approximate or budget-starved engines do not guarantee.
            if n.is_bottom() && n.diameter.is_finite() && oracle.audit_distances_exact() {
                for p in n.start..n.end {
                    for q in (p + 1)..n.end {
                        let (a, b) = (self.leaf_order[p as usize], self.leaf_order[q as usize]);
                        let d = oracle.distance(a, b);
                        audit_invariant!(
                            d <= n.diameter + 1e-6,
                            "node {i}: member pair ({a}, {b}) distance {d} exceeds diameter bound {}",
                            n.diameter
                        );
                    }
                }
            }
        }
    }

    /// No-op twin of the audit hook for builds without `invariant-audit`.
    #[cfg(not(feature = "invariant-audit"))]
    #[inline(always)]
    pub fn audit(&self, _oracle: &DistanceOracle) {}

    /// Checks structural invariants; exact radius/diameter containment is
    /// verified against the oracle. Intended for tests.
    pub fn validate(&self, oracle: &DistanceOracle) -> Result<(), String> {
        if self.dead.len() != self.leaf_order.len() {
            return Err("one tombstone flag per leaf position".into());
        }
        if self.node_live.len() != self.nodes.len() {
            return Err("one live count per node".into());
        }
        if self.nodes.is_empty() {
            if self.dead.iter().any(|&d| !d) {
                return Err("a live graph exists but the tree has no nodes".into());
            }
            return Ok(());
        }
        if self.leaf_order.len() != oracle.len() {
            return Err("leaf order must cover the database".into());
        }
        let mut seen = vec![false; self.leaf_order.len()];
        for &g in &self.leaf_order {
            if seen[g as usize] {
                return Err(format!("graph {g} appears twice"));
            }
            seen[g as usize] = true;
        }
        // Positions outside the root's range (the dead tail a compacting
        // rebuild leaves behind) must all be tombstoned: traversal starts at
        // the root and must be able to reach every live graph.
        let root = &self.nodes[0];
        for pos in 0..self.leaf_order.len() as u32 {
            if (pos < root.start || pos >= root.end) && !self.dead[pos as usize] {
                return Err(format!("live position {pos} outside the root's range"));
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let live_in_range = (n.start..n.end).filter(|&p| !self.dead[p as usize]).count();
            if live_in_range != self.node_live[i] as usize {
                return Err(format!(
                    "node {i}: live count {} but {live_in_range} live members",
                    self.node_live[i]
                ));
            }
            if n.start > n.end || n.end as usize > self.leaf_order.len() {
                return Err(format!("node {i} has bad range"));
            }
            // Children must tile the parent's range.
            if !n.children.is_empty() {
                let mut cursor = n.start;
                for &c in &n.children {
                    let cn = &self.nodes[c as usize];
                    if cn.start != cursor {
                        return Err(format!("node {i}: children not contiguous"));
                    }
                    cursor = cn.end;
                }
                if cursor != n.end {
                    return Err(format!("node {i}: children do not tile range"));
                }
            }
            if i != 0 {
                for p in n.start..n.end {
                    let g = self.leaf_order[p as usize];
                    let d = oracle.distance(n.centroid, g);
                    if d > n.radius + 1e-6 {
                        return Err(format!("node {i}: member {g} outside radius"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_ged::{GedConfig, GedEngine};
    use graphrep_graph::generate::{mutate, random_connected};
    use graphrep_graph::Graph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn family_oracle(n_families: usize, per: usize, seed: u64) -> DistanceOracle {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graphs: Vec<Graph> = Vec::new();
        for _ in 0..n_families {
            let base = random_connected(&mut rng, 7, 2, &[0, 1, 2, 3], &[8, 9]);
            for _ in 0..per {
                graphs.push(mutate(&mut rng, &base, 1, &[0, 1, 2, 3], &[8, 9]));
            }
        }
        DistanceOracle::new(Arc::new(graphs), GedEngine::new(GedConfig::default()))
    }

    #[test]
    fn build_and_validate() {
        let oracle = family_oracle(4, 8, 5);
        let mut rng = SmallRng::seed_from_u64(1);
        let tree = NbTree::build(
            &oracle,
            None,
            NbTreeConfig {
                branching: 4,
                pivot_sample: 16,
            },
            &mut rng,
        );
        assert_eq!(tree.len(), 32);
        tree.validate(&oracle).unwrap();
    }

    #[test]
    fn positions_round_trip() {
        let oracle = family_oracle(3, 6, 6);
        let mut rng = SmallRng::seed_from_u64(2);
        let tree = NbTree::build(&oracle, None, NbTreeConfig::default(), &mut rng);
        for g in 0..tree.len() as GraphId {
            assert_eq!(tree.graph_at(tree.pos_of(g)), g);
        }
    }

    #[test]
    fn vp_assisted_build_matches_validation() {
        let oracle = family_oracle(3, 8, 7);
        let mut rng = SmallRng::seed_from_u64(3);
        let vt = VantageTable::build(oracle.len(), 6, &mut rng, |a, b| oracle.distance(a, b));
        let tree = NbTree::build(&oracle, Some(&vt), NbTreeConfig::default(), &mut rng);
        tree.validate(&oracle).unwrap();
    }

    #[test]
    fn vp_pruning_saves_distance_computations() {
        let oracle_a = family_oracle(4, 10, 8);
        let oracle_b = family_oracle(4, 10, 8);
        let mut rng = SmallRng::seed_from_u64(4);
        let cfg = NbTreeConfig {
            branching: 5,
            pivot_sample: 20,
        };
        // Without VPs.
        let _ = NbTree::build(&oracle_a, None, cfg, &mut rng);
        let plain = oracle_a.stats().distance_computations;
        // With VPs (VP construction distances counted too).
        let mut rng = SmallRng::seed_from_u64(4);
        let vt = VantageTable::build(oracle_b.len(), 6, &mut rng, |a, b| oracle_b.distance(a, b));
        let _ = NbTree::build(&oracle_b, Some(&vt), cfg, &mut rng);
        let pruned = oracle_b.stats().distance_computations;
        // The pruned build must not do *more* pairwise work than brute
        // assignment; typically it does far less.
        assert!(pruned <= plain + oracle_b.len() as u64 * 6);
    }

    #[test]
    fn duplicate_heavy_data_terminates() {
        // All graphs identical: recursion must bottom out via the degenerate
        // split guard.
        let mut rng = SmallRng::seed_from_u64(9);
        let g = random_connected(&mut rng, 5, 2, &[0], &[1]);
        let graphs: Vec<Graph> = (0..20).map(|_| g.clone()).collect();
        let oracle = DistanceOracle::new(Arc::new(graphs), GedEngine::new(GedConfig::default()));
        let tree = NbTree::build(
            &oracle,
            None,
            NbTreeConfig {
                branching: 3,
                pivot_sample: 8,
            },
            &mut rng,
        );
        tree.validate(&oracle).unwrap();
    }

    #[test]
    fn empty_database() {
        let oracle = DistanceOracle::new(Arc::new(vec![]), GedEngine::new(GedConfig::default()));
        let mut rng = SmallRng::seed_from_u64(10);
        let tree = NbTree::build(&oracle, None, NbTreeConfig::default(), &mut rng);
        assert!(tree.is_empty());
        assert!(tree.root().is_none());
        tree.validate(&oracle).unwrap();
    }

    #[test]
    fn radius_diameter_helper() {
        assert_eq!(radius_diameter(&[]), (0.0, 0.0));
        assert_eq!(radius_diameter(&[3.0]), (3.0, 3.0));
        assert_eq!(radius_diameter(&[1.0, 5.0, 4.0]), (5.0, 9.0));
    }

    /// Oracle over `base` graphs plus `extra` more from the same families,
    /// so insertions have realistic neighbors.
    fn growable_oracle(total: usize, seed: u64) -> DistanceOracle {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = random_connected(&mut rng, 6, 2, &[0, 1, 2, 3], &[8, 9]);
        let graphs: Vec<Graph> = (0..total)
            .map(|_| mutate(&mut rng, &base, 2, &[0, 1, 2, 3], &[8, 9]))
            .collect();
        DistanceOracle::new(Arc::new(graphs), GedEngine::new(GedConfig::default()))
    }

    #[test]
    fn insert_keeps_structure_valid() {
        let oracle = growable_oracle(30, 21);
        let prefix = DistanceOracle::new(
            Arc::new(oracle.graphs()[..20].to_vec()),
            GedEngine::new(GedConfig::default()),
        );
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = NbTreeConfig {
            branching: 3,
            pivot_sample: 16,
        };
        let mut tree = NbTree::build(&prefix, None, cfg, &mut rng);
        for id in 20..30u32 {
            let out = tree.insert_graph(&oracle, None, id, &mut rng);
            assert!(out.radius_inflation >= 0.0);
            assert_eq!(tree.graph_at(out.pos), id);
        }
        assert_eq!(tree.len(), 30);
        assert_eq!(tree.live_len(), 30);
        tree.validate(&oracle).unwrap();
        for g in 0..30u32 {
            assert_eq!(tree.graph_at(tree.pos_of(g)), g);
            assert!(tree.is_live(g));
        }
    }

    #[test]
    fn remove_tombstones_and_counts() {
        let oracle = family_oracle(3, 8, 13);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut tree = NbTree::build(&oracle, None, NbTreeConfig::default(), &mut rng);
        assert_eq!(tree.live_len(), 24);
        tree.remove_graph(5).unwrap();
        tree.remove_graph(17).unwrap();
        assert!(tree.remove_graph(5).is_err(), "double remove must fail");
        assert!(tree.remove_graph(99).is_err(), "unknown id must fail");
        assert_eq!(tree.live_len(), 22);
        assert_eq!(tree.tombstones(), 2);
        assert!(!tree.is_live(5) && !tree.is_live(17) && tree.is_live(6));
        assert_eq!(tree.len(), 24, "tombstones keep their positions");
        tree.validate(&oracle).unwrap();
    }

    #[test]
    fn interleaved_insert_remove_round_trips_positions() {
        let oracle = growable_oracle(24, 22);
        let prefix = DistanceOracle::new(
            Arc::new(oracle.graphs()[..16].to_vec()),
            GedEngine::new(GedConfig::default()),
        );
        let mut rng = SmallRng::seed_from_u64(7);
        let cfg = NbTreeConfig {
            branching: 3,
            pivot_sample: 8,
        };
        let mut tree = NbTree::build(&prefix, None, cfg, &mut rng);
        for (step, id) in (16..24u32).enumerate() {
            tree.remove_graph(step as u32 * 2).unwrap();
            tree.insert_graph(&oracle, None, id, &mut rng);
        }
        assert_eq!(tree.len(), 24);
        assert_eq!(tree.live_len(), 16);
        tree.validate(&oracle).unwrap();
        for g in 0..24u32 {
            assert_eq!(tree.graph_at(tree.pos_of(g)), g);
        }
    }

    #[test]
    fn build_over_puts_dead_outside_root() {
        let oracle = family_oracle(3, 8, 14);
        let mut live = vec![true; 24];
        for id in [1usize, 7, 8, 20] {
            live[id] = false;
        }
        let mut rng = SmallRng::seed_from_u64(8);
        let tree = NbTree::build_over(&oracle, None, NbTreeConfig::default(), &mut rng, &live);
        assert_eq!(tree.len(), 24);
        assert_eq!(tree.live_len(), 20);
        assert_eq!(tree.tombstones(), 4);
        tree.validate(&oracle).unwrap();
        let root_end = tree.node(0).end;
        for id in [1u32, 7, 8, 20] {
            assert!(!tree.is_live(id));
            assert!(
                tree.pos_of(id) >= root_end,
                "dead id {id} must sit outside the root's range"
            );
        }
    }

    #[test]
    fn oversized_live_bottom_splits_on_insert() {
        let oracle = growable_oracle(20, 23);
        let prefix = DistanceOracle::new(
            Arc::new(oracle.graphs()[..4].to_vec()),
            GedEngine::new(GedConfig::default()),
        );
        let mut rng = SmallRng::seed_from_u64(9);
        let cfg = NbTreeConfig {
            branching: 2,
            pivot_sample: 8,
        };
        let mut tree = NbTree::build(&prefix, None, cfg, &mut rng);
        let mut any_split = false;
        for id in 4..20u32 {
            any_split |= tree.insert_graph(&oracle, None, id, &mut rng).split;
        }
        tree.validate(&oracle).unwrap();
        // With branching 2 and 16 insertions some bottom must have exceeded
        // 2·b members and split (unless all graphs were identical, which the
        // mutation-based generator rules out).
        assert!(any_split, "expected at least one bottom split");
    }

    #[test]
    fn insert_into_empty_tree() {
        let oracle = growable_oracle(3, 24);
        let empty = DistanceOracle::new(Arc::new(vec![]), GedEngine::new(GedConfig::default()));
        let mut rng = SmallRng::seed_from_u64(10);
        let mut tree = NbTree::build(&empty, None, NbTreeConfig::default(), &mut rng);
        for id in 0..3u32 {
            tree.insert_graph(&oracle, None, id, &mut rng);
        }
        assert_eq!(tree.live_len(), 3);
        tree.validate(&oracle).unwrap();
    }
}

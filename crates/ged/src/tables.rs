//! Per-pair dense tables for the exact search.
//!
//! A\* ([`crate::exact`]) maps the nodes of the smaller graph `a`, in a
//! fixed degree-descending order, onto nodes of the larger graph `b` (or
//! onto ε). Both graphs have at most 32 nodes — the search asserts it — so a
//! search state is the column chosen at each depth so far, with `used` the
//! `u32` bitmask of the b-nodes taken, and everything the inner loop asks of
//! the two graphs is a table read or a popcount:
//!
//! * labels are remapped to small ids: a label occurring in **both** graphs
//!   gets its rank among the shared labels, every other label shares one
//!   "unshared" id — it can never pair with anything, so it only counts
//!   towards the multiset sizes;
//! * `b_mask[l]` is the bitmask of b-nodes carrying shared node label `l`,
//!   `b_adj[u][l]` the bitmask of u's b-neighbours over shared edge label
//!   `l`, `b_any[u]` the bitmask of all its neighbours;
//! * `a_adj[r][l]` / `a_any[r]` are the same masks for the a-node at depth
//!   `r`, over depths, so `& above(d)` keeps its neighbours still
//!   unprocessed at depth `d`;
//! * `a_cnt[d][l]` counts, per shared label, the a-nodes not yet processed
//!   at depth `d`, and `a_free[d][l]` the a-edges with both endpoints among
//!   them;
//! * `a_mat` / `b_mat` are dense adjacency matrices holding `edge id + 1`
//!   (0 = no edge). `a_mat` is indexed by processing depth; `b_mat` has one
//!   extra all-zero column that stands for ε, so the step cost needs no
//!   branch on "mapped to ε".
//!
//! The admissible heuristic is the label-multiset bound of
//! [`crate::bounds::multiset_bound`] on the unprocessed a-nodes against the
//! unused b-nodes, plus one such bound per **edge class**. The pending edges
//! of both sides split into classes that no completion can pair across:
//!
//! * one *anchored* class per processed a-node `x` with image `y`: the
//!   a-edges from `x` to unprocessed nodes against the b-edges from `y` to
//!   unused nodes — a completion maps `(x, u)` onto `(y, φ(u))` or deletes
//!   it. For `y = ε` the class has no b-side: all of x's pending edges are
//!   deleted;
//! * one *free* class: the a-edges among unprocessed nodes against the
//!   b-edges among unused nodes.
//!
//! Edges between processed nodes were paid by the step costs. Each pending
//! edge lies in exactly one class and an edit path reconciles each class on
//! its own, so the sum is admissible under every cost model. It never
//! undercuts the one bound over all pending edges, because the count bound
//! of a union is at most the sum over a partition of it; at the root nothing
//! is processed, the free class is every edge, and the two coincide.
//!
//! A class bound is `pairs · min(sub, 2·indel) + diff · indel`, with `pairs`
//! its unmatched pairs (`min(|A|, |B|) − overlap`, the overlap being
//! `Σ_l min(count_a[l], count_b[l])` over shared labels) and `diff` its size
//! difference. The frame sums the two integers over the classes and converts
//! once ([`crate::bounds::split_bound`]), so `h` has the same bits however
//! its counts were reached.
//!
//! A [`Frame`] holds the counts of one state. [`Frame::enter`] counts every
//! class from scratch — one popcount per shared node label, per used b-node
//! one per shared edge label, and per processed a-node with edges on both
//! sides one per shared edge label on each side. A\* enters it **once per
//! expansion**, on the popped state's columns measured against the
//! children's depth: the a-node at the popped depth is *in flight*, its
//! edges to later nodes in no class yet. [`Frame::child`] derives every
//! child from that frame; taking b-node `j` for the in-flight node moves
//! each count by an O(1) delta —
//!
//! * `unused` falls by one;
//! * j's label loses one b-node, so the node overlap `min(a, b)` of that
//!   label falls by one exactly when `b ≤ a` — the label is *tight*. `enter`
//!   records the b-nodes carrying a tight label in one `u32`, so the child
//!   reads a bit (an unshared label is in no `b_mask` and never tight);
//! * the class anchored at each used neighbour `y` of `j` loses the b-edge
//!   `(y, j)`: one size, and one overlap when that label's b-count is at
//!   most its a-count. `owner[y]` names the class;
//! * the new class anchored at the in-flight node pairs its a-edges, counted
//!   by `enter`, with `b_adj[j][l] & !used`, and the free class loses those
//!   same b-edges;
//! * ε takes nothing, and the new class has no b-side: the in-flight node's
//!   pending edges count as deletions.
//!
//! A child costs O(edge labels + used neighbours of `j`). The in-crate
//! proptest checks every stepped child against the frame entered on the
//! child's own columns, and both against sorted slices. The children of the
//! last a-node are complete mappings with `h = 0`, so A\* enters no frame
//! for them and prices each completion from [`PairTables::left_over`].

use crate::bounds::{count_bound, split_bound};
use crate::cost::CostModel;
use crate::exact::MAX_EXACT_NODES;
use graphrep_graph::{Graph, NodeId};

/// Position of `label` among the sorted shared labels, or `shared.len()`
/// (the "unshared" id) when it occurs in one graph only.
#[inline]
fn label_id(shared: &[u32], label: u32) -> usize {
    shared.binary_search(&label).unwrap_or(shared.len())
}

/// Fills `shared` with the sorted distinct labels of `a` that also occur in
/// `b`.
fn shared_labels(
    shared: &mut Vec<u32>,
    a: impl Iterator<Item = u32>,
    b: impl Iterator<Item = u32> + Clone,
) {
    shared.clear();
    shared.extend(a);
    shared.sort_unstable();
    shared.dedup();
    shared.retain(|&l| b.clone().any(|m| m == l));
}

/// The depths `≥ depth` as a bitmask (`depth ≤ 32`).
#[inline]
fn above(depth: usize) -> u32 {
    (u64::MAX << depth) as u32
}

/// Dense views of one `(a, b)` pair, rebuilt per search into reused buffers.
#[derive(Debug, Default)]
pub(crate) struct PairTables {
    n1: usize,
    n2: usize,
    /// Edge count of `b`.
    e2: usize,
    /// Processing order: `order[d]` is the a-node handled at depth `d`.
    order: Vec<NodeId>,
    /// `rank[u]` is the depth at which a-node `u` is processed.
    rank: Vec<usize>,
    /// Raw node labels: of a by depth, of b by node id.
    a_label: Vec<u32>,
    b_label: Vec<u32>,
    /// Sorted node / edge labels occurring in both graphs.
    node_labels: Vec<u32>,
    edge_labels: Vec<u32>,
    /// Per shared node label: bitmask of the b-nodes carrying it.
    b_mask: Vec<u32>,
    /// `(n1 + 1) × node_labels.len()`: a-nodes at depth ≥ d per label.
    a_cnt: Vec<u16>,
    /// `n1 × edge_labels.len()` by depth: the depths of the a-node's
    /// neighbours over each shared label.
    a_adj: Vec<u32>,
    /// Per depth: the depths of all the a-node's neighbours.
    a_any: Vec<u32>,
    /// `(n1 + 1) × edge_labels.len()`: a-edges with both endpoints at depth
    /// ≥ d per label.
    a_free: Vec<u16>,
    /// `n1 + 1`: the same, shared label or not.
    a_free_total: Vec<u16>,
    /// Per shared edge label: b-edges carrying it.
    b_edges: Vec<u16>,
    /// `n2 × edge_labels.len()`: b-neighbours of u over each shared label.
    b_adj: Vec<u32>,
    /// Per b-node: bitmask of all its neighbours.
    b_any: Vec<u32>,
    /// `n1 × n1` by depth: edge id + 1, 0 = no edge.
    a_mat: Vec<u16>,
    /// `n2 × (n2 + 1)` by node id; column `n2` (ε) is all zero.
    b_mat: Vec<u16>,
}

impl PairTables {
    /// Recomputes the tables for mapping `a` onto `b`, reusing all buffers.
    // graphrep: hot-path
    pub(crate) fn rebuild(&mut self, a: &Graph, b: &Graph) {
        let (n1, n2) = (a.node_count(), b.node_count());
        assert!(
            n1 <= n2 && n2 <= MAX_EXACT_NODES,
            "exact GED bitmask supports ≤ {MAX_EXACT_NODES} nodes; use hybrid mode"
        );
        self.n1 = n1;
        self.n2 = n2;
        self.e2 = b.edge_count();

        // Degree-descending order: high-degree nodes first constrain more.
        self.order.clear();
        self.order.extend(0..n1 as NodeId);
        self.order.sort_by_key(|&u| std::cmp::Reverse(a.degree(u)));
        self.rank.clear();
        self.rank.resize(n1, 0);
        for (d, &u) in self.order.iter().enumerate() {
            self.rank[u as usize] = d;
        }
        self.a_label.clear();
        self.a_label
            .extend(self.order.iter().map(|&u| a.node_label(u)));
        self.b_label.clear();
        self.b_label.extend_from_slice(b.node_labels());

        // Nodes.
        shared_labels(
            &mut self.node_labels,
            a.node_labels().iter().copied(),
            b.node_labels().iter().copied(),
        );
        let nl = self.node_labels.len();
        self.b_mask.clear();
        self.b_mask.resize(nl, 0);
        for (j, &l) in self.b_label.iter().enumerate() {
            let id = label_id(&self.node_labels, l);
            if id < nl {
                self.b_mask[id] |= 1 << j;
            }
        }
        self.a_cnt.clear();
        self.a_cnt.resize((n1 + 1) * nl, 0);
        for d in (0..n1).rev() {
            self.a_cnt.copy_within((d + 1) * nl..(d + 2) * nl, d * nl);
            let id = label_id(&self.node_labels, self.a_label[d]);
            if id < nl {
                self.a_cnt[d * nl + id] += 1;
            }
        }

        // Edges. An a-edge is free at every depth ≤ the smaller rank of its
        // endpoints: count it there, then suffix-sum over depths.
        shared_labels(
            &mut self.edge_labels,
            a.edges().iter().map(|e| e.label),
            b.edges().iter().map(|e| e.label),
        );
        let le = self.edge_labels.len();
        self.a_adj.clear();
        self.a_adj.resize(n1 * le, 0);
        self.a_any.clear();
        self.a_any.resize(n1, 0);
        self.a_free.clear();
        self.a_free.resize((n1 + 1) * le, 0);
        self.a_free_total.clear();
        self.a_free_total.resize(n1 + 1, 0);
        self.a_mat.clear();
        self.a_mat.resize(n1 * n1, 0);
        for e in a.edges() {
            let (ru, rv) = (self.rank[e.u as usize], self.rank[e.v as usize]);
            let id = label_id(&self.edge_labels, e.label);
            let first = ru.min(rv);
            self.a_free_total[first] += 1;
            self.a_any[ru] |= 1 << rv;
            self.a_any[rv] |= 1 << ru;
            if id < le {
                self.a_free[first * le + id] += 1;
                self.a_adj[ru * le + id] |= 1 << rv;
                self.a_adj[rv * le + id] |= 1 << ru;
            }
            // Unshared a-labels get `le + 1`, unshared b-labels `le + 2`:
            // they never compare equal across the two matrices.
            self.a_mat[ru * n1 + rv] = id as u16 + 1;
            self.a_mat[rv * n1 + ru] = id as u16 + 1;
        }
        for d in (0..n1).rev() {
            self.a_free_total[d] += self.a_free_total[d + 1];
            for l in 0..le {
                self.a_free[d * le + l] += self.a_free[(d + 1) * le + l];
            }
        }
        self.b_edges.clear();
        self.b_edges.resize(le, 0);
        self.b_adj.clear();
        self.b_adj.resize(n2 * le, 0);
        self.b_any.clear();
        self.b_any.resize(n2, 0);
        self.b_mat.clear();
        self.b_mat.resize(n2 * (n2 + 1), 0);
        for e in b.edges() {
            let (u, v) = (e.u as usize, e.v as usize);
            let id = label_id(&self.edge_labels, e.label);
            if id < le {
                self.b_edges[id] += 1;
                self.b_adj[u * le + id] |= 1 << v;
                self.b_adj[v * le + id] |= 1 << u;
            }
            self.b_any[u] |= 1 << v;
            self.b_any[v] |= 1 << u;
            let cell = if id < le {
                id as u16 + 1
            } else {
                le as u16 + 2
            };
            self.b_mat[u * (n2 + 1) + v] = cell;
            self.b_mat[v * (n2 + 1) + u] = cell;
        }
    }

    /// Node count of `a`: the depth of a complete mapping.
    #[inline]
    pub(crate) fn n1(&self) -> usize {
        self.n1
    }

    /// The mask after column `col` is taken (`n2` = ε takes nothing).
    #[inline]
    pub(crate) fn taking(&self, used: u32, col: usize) -> u32 {
        if col == self.n2 {
            used
        } else {
            used | 1 << col
        }
    }

    /// The child columns of a state, in generation order: each unused b-node
    /// by ascending id, then ε.
    #[inline]
    pub(crate) fn children(&self, used: u32) -> impl Iterator<Item = usize> {
        let mut free = !used & ((1u64 << self.n2) - 1) as u32;
        std::iter::from_fn(move || {
            (free != 0).then(|| {
                let col = free.trailing_zeros() as usize;
                free &= free - 1;
                col
            })
        })
        .chain(std::iter::once(self.n2))
    }

    /// What a complete mapping onto `used` leaves for insertion: the
    /// b-nodes outside the mask and the b-edges not inside it.
    #[inline]
    pub(crate) fn left_over(&self, used: u32) -> (usize, usize) {
        let mut internal = 0;
        let mut rest = used;
        while rest != 0 {
            let u = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            internal += (self.b_any[u] & rest).count_ones() as usize;
        }
        (self.n2 - used.count_ones() as usize, self.e2 - internal)
    }

    /// Cost of mapping the a-node at `depth` onto b-node `col` (`n2` = ε,
    /// i.e. deleting it), given the columns chosen at the earlier depths:
    /// the node operation plus, in depth order, the edge operation against
    /// every processed a-node.
    // graphrep: hot-path
    #[inline]
    pub(crate) fn step_cost(&self, depth: usize, col: usize, cols: &[u8], cost: &CostModel) -> f64 {
        let arow = &self.a_mat[depth * self.n1..][..depth];
        if col == self.n2 {
            let mut step = cost.node_indel;
            for &e1 in arow {
                if e1 != 0 {
                    step += cost.edge_indel;
                }
            }
            return step;
        }
        let brow = &self.b_mat[col * (self.n2 + 1)..][..self.n2 + 1];
        let mut step = cost.node_subst(self.a_label[depth], self.b_label[col]);
        for (&e1, &c) in arow.iter().zip(cols) {
            let e2 = brow[c as usize];
            if e1 != 0 && e2 != 0 {
                if e1 != e2 {
                    step += cost.edge_sub;
                }
            } else if e1 != e2 {
                step += cost.edge_indel;
            }
        }
        step
    }
}

/// One edge class: `a` a-edges against `b` b-edges, `overlap` of them
/// pairable by label.
#[derive(Debug, Default, Clone, Copy)]
struct Class {
    a: u16,
    b: u16,
    overlap: u16,
}

impl Class {
    /// Unmatched pairs and size difference: the two integers of its bound.
    #[inline]
    fn terms(self) -> (usize, usize) {
        (
            (self.a.min(self.b) - self.overlap) as usize,
            self.a.abs_diff(self.b) as usize,
        )
    }
}

/// Swaps class `old`'s terms for `new`'s in the running totals.
#[inline]
fn retally(totals: &mut (usize, usize), old: Class, new: Class) {
    let ((p0, d0), (p1, d1)) = (old.terms(), new.terms());
    totals.0 = totals.0 + p1 - p0;
    totals.1 = totals.1 + d1 - d0;
}

/// The label counts of one search state, measured against the a-side
/// counts of one depth: everything the heuristic of that state needs beyond
/// [`PairTables`].
#[derive(Debug, Default)]
pub(crate) struct Frame {
    depth: usize,
    used: u32,
    /// b-nodes outside the mask.
    unused: usize,
    /// Node-label overlap of the state.
    node_overlap: usize,
    /// The unused b-nodes whose label is *tight*: it has no more unused
    /// b-nodes than unprocessed a-nodes, so taking one lowers the overlap.
    tight: u32,
    /// Unmatched pairs and size differences, summed over the counted
    /// classes: one anchored class per column, and the free class.
    totals: (usize, usize),
    /// The anchored classes, by the depth of their a-node.
    anchored: Vec<Class>,
    /// `anchored.len() × edge_labels.len()`: each anchored class's a- and
    /// b-edges per shared label.
    anchored_a: Vec<u8>,
    anchored_b: Vec<u8>,
    /// `owner[y]`: the depth of the a-node mapped onto used b-node `y`.
    owner: [u8; MAX_EXACT_NODES],
    /// The free class, and its b-edges per shared label.
    free: Class,
    free_b: Vec<u16>,
    /// The in-flight a-node's edges to later depths, per shared label, and
    /// their count (empty and zero when no node is in flight).
    fresh_a: Vec<u8>,
    fresh: u16,
}

impl Frame {
    /// Positions the frame on the state with columns `cols`, measured
    /// against depth `depth` of `a`: `cols.len() == depth` is that state
    /// itself, `cols.len() + 1 == depth` leaves the a-node at `depth − 1` in
    /// flight for [`Frame::child`] to map.
    // graphrep: hot-path
    pub(crate) fn enter(&mut self, t: &PairTables, depth: usize, cols: &[u8]) {
        debug_assert!(cols.len() == depth || cols.len() + 1 == depth);
        let used = cols
            .iter()
            .filter(|&&c| (c as usize) < t.n2)
            .fold(0u32, |m, &c| m | 1 << c);
        self.depth = depth;
        self.used = used;
        self.unused = t.n2 - used.count_ones() as usize;
        let nl = t.node_labels.len();
        self.node_overlap = 0;
        self.tight = 0;
        for (&ac, &mask) in t.a_cnt[depth * nl..][..nl].iter().zip(&t.b_mask) {
            let free = mask & !used;
            let bc = free.count_ones() as u16;
            self.node_overlap += ac.min(bc) as usize;
            if bc <= ac {
                self.tight |= free;
            }
        }

        // The free class's b-edges per shared label: all of them less those
        // with a used endpoint.
        let le = t.edge_labels.len();
        self.free_b.clear();
        self.free_b.extend_from_slice(&t.b_edges);
        let mut internal = 0;
        let mut rest = used;
        while rest != 0 {
            let u = rest.trailing_zeros() as usize;
            // With u's bit cleared, `rest` is the used nodes above u: an
            // internal edge counts once, at its lower endpoint, and leaves
            // `free_b` once, at its upper one (`!rest` keeps u's edges to
            // unused nodes and to used nodes below it).
            rest &= rest - 1;
            internal += (t.b_any[u] & rest).count_ones() as usize;
            for (fb, &adj) in self.free_b.iter_mut().zip(&t.b_adj[u * le..][..le]) {
                *fb -= (adj & !rest).count_ones() as u16;
            }
        }
        let pending = t.e2 - internal;

        let later = above(depth);
        let mut totals = (0, 0);
        let mut anchored_b = 0;
        self.anchored.clear();
        self.anchored_a.clear();
        self.anchored_a.resize(cols.len() * le, 0);
        self.anchored_b.clear();
        self.anchored_b.resize(cols.len() * le, 0);
        for (r, &c) in cols.iter().enumerate() {
            let mut class = Class {
                a: (t.a_any[r] & later).count_ones() as u16,
                ..Class::default()
            };
            let y = c as usize;
            if y < t.n2 {
                self.owner[y] = r as u8;
                class.b = (t.b_any[y] & !used).count_ones() as u16;
                anchored_b += class.b as usize;
            }
            // Only a class with both sides can overlap; `child` reads the
            // label rows of no other.
            if class.a > 0 && class.b > 0 {
                let a_row = &mut self.anchored_a[r * le..][..le];
                let b_row = &mut self.anchored_b[r * le..][..le];
                for (((na, nb), &aa), &ba) in a_row
                    .iter_mut()
                    .zip(b_row.iter_mut())
                    .zip(&t.a_adj[r * le..][..le])
                    .zip(&t.b_adj[y * le..][..le])
                {
                    *na = (aa & later).count_ones() as u8;
                    *nb = (ba & !used).count_ones() as u8;
                    class.overlap += (*na).min(*nb) as u16;
                }
            }
            let (p, d) = class.terms();
            totals.0 += p;
            totals.1 += d;
            self.anchored.push(class);
        }

        let free_a = &t.a_free[depth * le..][..le];
        self.free = Class {
            a: t.a_free_total[depth],
            b: (pending - anchored_b) as u16,
            overlap: free_a
                .iter()
                .zip(&self.free_b)
                .map(|(&a, &b)| a.min(b))
                .sum(),
        };
        let (p, d) = self.free.terms();
        self.totals = (totals.0 + p, totals.1 + d);

        self.fresh_a.clear();
        self.fresh = 0;
        if cols.len() < depth {
            let r = depth - 1;
            self.fresh = (t.a_any[r] & later).count_ones() as u16;
            self.fresh_a.extend(
                t.a_adj[r * le..][..le]
                    .iter()
                    .map(|&adj| (adj & later).count_ones() as u8),
            );
        }
    }

    /// Admissible heuristic of the state the frame was entered on (one with
    /// no node in flight).
    // graphrep: hot-path
    #[inline]
    pub(crate) fn heuristic(&self, t: &PairTables, cost: &CostModel) -> f64 {
        debug_assert_eq!(self.anchored.len(), self.depth);
        self.bound(t, cost, self.node_overlap, self.unused, self.totals)
    }

    /// Heuristic of the in-flight a-node mapped onto b-node `col` (`n2` =
    /// ε): what [`Frame::enter`] on the child's columns followed by
    /// [`Frame::heuristic`] would return, from O(1) deltas (module doc).
    // graphrep: hot-path
    #[inline]
    pub(crate) fn child(&self, t: &PairTables, col: usize, cost: &CostModel) -> f64 {
        debug_assert_eq!(self.anchored.len() + 1, self.depth);
        if col == t.n2 {
            let totals = (self.totals.0, self.totals.1 + self.fresh as usize);
            return self.bound(t, cost, self.node_overlap, self.unused, totals);
        }
        let unused = self.unused - 1;
        let node_overlap = self.node_overlap - (self.tight >> col & 1) as usize;
        let mut totals = self.totals;
        let le = t.edge_labels.len();

        // Each class anchored at a used neighbour loses its edge to `col`.
        let into = t.b_any[col] & self.used;
        let brow = &t.b_mat[col * (t.n2 + 1)..][..t.n2];
        let mut rest = into;
        while rest != 0 {
            let y = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let r = self.owner[y] as usize;
            let old = self.anchored[r];
            let mut new = Class {
                b: old.b - 1,
                ..old
            };
            let id = brow[y] as usize - 1;
            if old.overlap > 0
                && id < le
                && self.anchored_b[r * le + id] <= self.anchored_a[r * le + id]
            {
                new.overlap -= 1;
            }
            retally(&mut totals, old, new);
        }

        // The new class takes col's edges to unused nodes from the free one.
        let out = t.b_any[col] & !self.used;
        let mut fresh = Class {
            a: self.fresh,
            b: out.count_ones() as u16,
            overlap: 0,
        };
        let mut free = Class {
            b: self.free.b - fresh.b,
            ..self.free
        };
        if out != 0 {
            free.overlap = 0;
            let free_a = &t.a_free[self.depth * le..][..le];
            for (((&adj, &fa), &fb), &na) in t.b_adj[col * le..][..le]
                .iter()
                .zip(free_a)
                .zip(&self.free_b)
                .zip(&self.fresh_a)
            {
                let bc = (adj & !self.used).count_ones() as u16;
                fresh.overlap += (na as u16).min(bc);
                free.overlap += fa.min(fb - bc);
            }
        }
        retally(&mut totals, self.free, free);
        let (p, d) = fresh.terms();
        totals = (totals.0 + p, totals.1 + d);
        self.bound(t, cost, node_overlap, unused, totals)
    }

    /// The node bound at the frame's depth plus the edge classes' bound
    /// from their summed terms.
    #[inline]
    fn bound(
        &self,
        t: &PairTables,
        cost: &CostModel,
        node_overlap: usize,
        unused: usize,
        (pairs, diff): (usize, usize),
    ) -> f64 {
        count_bound(
            node_overlap,
            t.n1 - self.depth,
            unused,
            cost.node_sub,
            cost.node_indel,
        ) + split_bound(pairs, diff, cost.edge_sub, cost.edge_indel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{multiset_bound, multiset_overlap};
    use graphrep_graph::generate::random_connected;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Uniform, dyadic non-uniform (sums stay exact) and non-dyadic costs:
    /// the four models `tests/brute_force.rs` checks A\* under.
    const COSTS: [CostModel; 4] = [
        CostModel::uniform(),
        CostModel {
            node_sub: 0.5,
            node_indel: 1.0,
            edge_sub: 1.5,
            edge_indel: 2.0,
        },
        CostModel {
            node_sub: 2.0,
            node_indel: 1.0,
            edge_sub: 0.25,
            edge_indel: 0.5,
        },
        CostModel {
            node_sub: 0.7,
            node_indel: 0.9,
            edge_sub: 1.1,
            edge_indel: 1.3,
        },
    ];

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    fn used_of(t: &PairTables, cols: &[u8]) -> u32 {
        cols.iter()
            .filter(|&&c| (c as usize) < t.n2)
            .fold(0, |m, &c| m | 1 << c)
    }

    /// A reachable state of `depth` columns: each a-node onto a b-node not
    /// yet taken, or onto ε.
    fn random_cols(t: &PairTables, depth: usize, rng: &mut SmallRng) -> Vec<u8> {
        let mut cols = Vec::new();
        for _ in 0..depth {
            let options: Vec<usize> = t.children(used_of(t, &cols)).collect();
            cols.push(options[rng.gen_range(0..options.len())] as u8);
        }
        cols
    }

    /// The heuristic before the edge classes: the label-multiset bound on
    /// the unprocessed nodes plus one on all pending edges, over sorted
    /// slices.
    fn single_class_bound(
        a: &Graph,
        b: &Graph,
        t: &PairTables,
        depth: usize,
        used: u32,
        cost: &CostModel,
    ) -> f64 {
        let is_used = |j: NodeId| used & (1 << j) != 0;
        let rem1 = sorted(t.order[depth..].iter().map(|&u| a.node_label(u)).collect());
        let rem2 = sorted(
            (0..b.node_count() as NodeId)
                .filter(|&j| !is_used(j))
                .map(|j| b.node_label(j))
                .collect(),
        );
        let pend1 = sorted(
            a.edges()
                .iter()
                .filter(|e| t.rank[e.u as usize] >= depth || t.rank[e.v as usize] >= depth)
                .map(|e| e.label)
                .collect(),
        );
        let pend2 = sorted(
            b.edges()
                .iter()
                .filter(|e| !is_used(e.u) || !is_used(e.v))
                .map(|e| e.label)
                .collect(),
        );
        multiset_bound(&rem1, &rem2, cost.node_sub, cost.node_indel)
            + multiset_bound(&pend1, &pend2, cost.edge_sub, cost.edge_indel)
    }

    /// The class bound of the state `cols` from sorted slices, as the
    /// integer-summed value [`Frame`] computes and as the plain sum of one
    /// `multiset_bound` per class.
    fn class_bound_reference(
        a: &Graph,
        b: &Graph,
        t: &PairTables,
        cols: &[u8],
        cost: &CostModel,
    ) -> (f64, f64) {
        let depth = cols.len();
        let used = used_of(t, cols);
        let is_used = |j: NodeId| used & (1 << j) != 0;
        let later = |u: NodeId| t.rank[u as usize] >= depth;
        let rem1 = sorted(t.order[depth..].iter().map(|&u| a.node_label(u)).collect());
        let rem2 = sorted(
            (0..b.node_count() as NodeId)
                .filter(|&j| !is_used(j))
                .map(|j| b.node_label(j))
                .collect(),
        );
        let node = multiset_bound(&rem1, &rem2, cost.node_sub, cost.node_indel);
        // (a-side, b-side) label lists of every class.
        let mut classes: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        for (r, &c) in cols.iter().enumerate() {
            let x = t.order[r];
            let a_side = a
                .edges()
                .iter()
                .filter(|e| (e.u == x && later(e.v)) || (e.v == x && later(e.u)))
                .map(|e| e.label)
                .collect();
            let b_side = if (c as usize) < t.n2 {
                let y = c as NodeId;
                b.edges()
                    .iter()
                    .filter(|e| (e.u == y && !is_used(e.v)) || (e.v == y && !is_used(e.u)))
                    .map(|e| e.label)
                    .collect()
            } else {
                Vec::new()
            };
            classes.push((a_side, b_side));
        }
        classes.push((
            a.edges()
                .iter()
                .filter(|e| later(e.u) && later(e.v))
                .map(|e| e.label)
                .collect(),
            b.edges()
                .iter()
                .filter(|e| !is_used(e.u) && !is_used(e.v))
                .map(|e| e.label)
                .collect(),
        ));
        let (mut pairs, mut diff, mut summed) = (0, 0, node);
        for (x, y) in classes {
            let (x, y) = (sorted(x), sorted(y));
            pairs += x.len().min(y.len()) - multiset_overlap(&x, &y);
            diff += x.len().abs_diff(y.len());
            summed += multiset_bound(&x, &y, cost.edge_sub, cost.edge_indel);
        }
        (
            node + split_bound(pairs, diff, cost.edge_sub, cost.edge_indel),
            summed,
        )
    }

    /// The least cost of finishing the state `cols`: every assignment of the
    /// remaining a-nodes, priced as A\* prices its steps and its completion.
    fn cheapest_completion(t: &PairTables, cols: &mut Vec<u8>, cost: &CostModel) -> f64 {
        let depth = cols.len();
        let used = used_of(t, cols);
        if depth == t.n1 {
            let internal: u32 = (0..t.n2)
                .filter(|&u| used >> u & 1 == 1)
                .map(|u| (t.b_any[u] & used).count_ones())
                .sum();
            let pending = t.e2 - internal as usize / 2;
            let unused = t.n2 - used.count_ones() as usize;
            return unused as f64 * cost.node_indel + pending as f64 * cost.edge_indel;
        }
        let mut best = f64::INFINITY;
        for col in t.children(used) {
            let step = t.step_cost(depth, col, cols, cost);
            cols.push(col as u8);
            best = best.min(step + cheapest_completion(t, cols, cost));
            cols.pop();
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// For every child column (ε included) of a random reachable state:
        /// the step from the parent's frame is bit-identical to the frame
        /// entered on the child, both are the class bound over sorted
        /// slices, and none undercuts the single-class bound. At the root
        /// the two bounds are the same bits.
        #[test]
        fn stepped_children_are_the_sorted_slice_class_bound(
            s1 in 0u64..1000, s2 in 0u64..1000, pick in 0u64..1000,
            n1 in 1usize..=7, extra in 0usize..=3,
            depth_pick in 0usize..7, model in 0usize..COSTS.len()
        ) {
            let cost = COSTS[model];
            // Few labels on one side, more on the other: shared and
            // unshared ids both occur.
            let a = random_connected(&mut SmallRng::seed_from_u64(s1), n1, 2, &[0, 1, 2, 3], &[7, 8, 9]);
            let b = random_connected(&mut SmallRng::seed_from_u64(s2), n1 + extra, 3, &[1, 2, 4], &[8, 9, 6]);
            let mut t = PairTables::default();
            t.rebuild(&a, &b);
            let depth = depth_pick % n1;
            let cols = random_cols(&t, depth, &mut SmallRng::seed_from_u64(pick));
            let used = used_of(&t, &cols);

            let mut frame = Frame::default();
            frame.enter(&t, 0, &[]);
            let root = frame.heuristic(&t, &cost);
            let single = single_class_bound(&a, &b, &t, 0, 0, &cost);
            prop_assert_eq!(root.to_bits(), single.to_bits(), "root: {} vs {}", root, single);

            let mut scratch = Frame::default();
            frame.enter(&t, depth + 1, &cols);
            let mut child_cols = cols.clone();
            for col in t.children(used) {
                child_cols.push(col as u8);
                scratch.enter(&t, depth + 1, &child_cols);
                let h = scratch.heuristic(&t, &cost);
                let ch = frame.child(&t, col, &cost);
                prop_assert_eq!(ch.to_bits(), h.to_bits(), "child {} of {:?}: {} vs {}", col, cols, ch, h);
                let (want, summed) = class_bound_reference(&a, &b, &t, &child_cols, &cost);
                prop_assert_eq!(h.to_bits(), want.to_bits(), "{:?}: {} vs {}", child_cols, h, want);
                prop_assert!((h - summed).abs() <= 1e-9, "{:?}: {} vs summed {}", child_cols, h, summed);
                let single = single_class_bound(&a, &b, &t, depth + 1, t.taking(used, col), &cost);
                prop_assert!(h + 1e-9 >= single, "{:?}: {} below the single-class {}", child_cols, h, single);
                child_cols.pop();
            }
        }
    }

    /// On graphs of at most 6 nodes, the heuristic of a state never exceeds
    /// the cheapest way to finish it, found by enumerating completions.
    #[test]
    fn heuristic_never_exceeds_the_cheapest_completion() {
        let mut rng = SmallRng::seed_from_u64(54);
        let mut t = PairTables::default();
        let mut frame = Frame::default();
        for cost in &COSTS {
            for _ in 0..40 {
                let n1 = rng.gen_range(1..=6);
                let n2 = rng.gen_range(n1..=6);
                let a = random_connected(&mut rng, n1, 2, &[0, 1, 2], &[7, 8]);
                let b = random_connected(&mut rng, n2, 2, &[0, 1, 2], &[7, 8]);
                t.rebuild(&a, &b);
                for depth in 0..=n1 {
                    let mut cols = random_cols(&t, depth, &mut rng);
                    frame.enter(&t, depth, &cols);
                    let h = frame.heuristic(&t, cost);
                    let rest = cheapest_completion(&t, &mut cols, cost);
                    assert!(
                        h <= rest + 1e-9,
                        "{cols:?}: h {h} > cheapest completion {rest}"
                    );
                }
            }
        }
    }
}

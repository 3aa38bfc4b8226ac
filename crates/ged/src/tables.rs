//! Per-pair dense tables for the exact search.
//!
//! A\* ([`crate::exact`]) maps the nodes of the smaller graph `a`, in a
//! fixed degree-descending order, onto nodes of the larger graph `b` (or
//! onto ε). Both graphs have at most 32 nodes — the search asserts it — so
//! one search state is `(depth, used)` with `used` a `u32` bitmask of the
//! b-nodes taken so far, and everything the inner loop asks of the two
//! graphs is a table read or a popcount:
//!
//! * labels are remapped to small ids: a label occurring in **both** graphs
//!   gets its rank among the shared labels, every other label shares one
//!   "unshared" id — it can never pair with anything, so it only counts
//!   towards the multiset sizes;
//! * `b_mask[l]` is the bitmask of b-nodes carrying shared node label `l`,
//!   `b_adj[u][l]` the bitmask of u's b-neighbours over shared edge label
//!   `l`, `b_any[u]` the bitmask of all its neighbours;
//! * `a_cnt[d][l]` / `a_pend[d][l]` count, per shared label, the a-nodes not
//!   yet processed at depth `d` and the a-edges with an endpoint among them;
//! * `a_mat` / `b_mat` are dense adjacency matrices holding `edge id + 1`
//!   (0 = no edge). `a_mat` is indexed by processing depth; `b_mat` has one
//!   extra all-zero column that stands for ε, so the step cost needs no
//!   branch on "mapped to ε".
//!
//! The admissible heuristic is the label-multiset bound of
//! [`crate::bounds::multiset_bound`] on the unprocessed nodes plus the same
//! bound on the pending edges. It is evaluated from counts instead of sorted
//! slices: the overlap of two multisets is `Σ_l min(count_a[l], count_b[l])`
//! over the labels they share, and the b-side counts under a mask are
//! `popcount(b_mask[l] & !used)` for nodes and `edges[l] − internal(used)[l]`
//! for edges. The integers handed to [`crate::bounds::count_bound`] are the
//! ones the slice form would have produced, so every `f` is bit-identical to
//! the sort-based evaluation and the search expands the same states in the
//! same order.
//!
//! A [`Frame`] holds the b-side counts of one mask: [`Frame::enter`] costs one
//! popcount per shared node label and, per used b-node, one per shared edge
//! label. A\* enters it **once per expansion**, on the popped state's mask
//! measured against the children's depth, and derives every child from that
//! one frame with [`Frame::child`]: taking one more b-node `j` moves each
//! count by an O(1) delta —
//!
//! * `unused` falls by one;
//! * j's label loses one b-node, so the node overlap `min(a, b)` of that
//!   label falls by one exactly when `b ≤ a` — the label is *tight*. `enter`
//!   records the b-nodes carrying a tight label in one `u32`, so the child
//!   reads a bit (an unshared label is in no `b_mask` and never tight);
//! * the edges from `j` into the mask become internal:
//!   `pending − popcount(b_any[j] & used)`, and per shared edge label
//!   `avail[l] − popcount(b_adj[j][l] & used)`, which lowers the edge overlap
//!   by `min(ap, av) − min(ap, av − taken)`; skipped when `j` has no used
//!   neighbour;
//! * ε takes nothing: the frame's own values.
//!
//! Each of these is the integer `enter(depth, used | 1 << j)` would have
//! counted from scratch (the in-crate proptest checks every child column
//! against exactly that), so A\* hands [`count_bound`] the same arguments as
//! when it entered the frame per child, and a child costs O(edge labels)
//! instead of O(node labels + |used| · edge labels).

use crate::bounds::count_bound;
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
    /// `(n1 + 1) × edge_labels.len()`: a-edges pending at depth d per label.
    a_pend: Vec<u16>,
    /// `n1 + 1`: all a-edges pending at depth d (shared label or not).
    a_pend_total: Vec<u16>,
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

        // Edges. An a-edge is pending at every depth ≤ the larger rank of
        // its endpoints: count it there, then suffix-sum over depths.
        shared_labels(
            &mut self.edge_labels,
            a.edges().iter().map(|e| e.label),
            b.edges().iter().map(|e| e.label),
        );
        let le = self.edge_labels.len();
        self.a_pend.clear();
        self.a_pend.resize((n1 + 1) * le, 0);
        self.a_pend_total.clear();
        self.a_pend_total.resize(n1 + 1, 0);
        self.a_mat.clear();
        self.a_mat.resize(n1 * n1, 0);
        for e in a.edges() {
            let (ru, rv) = (self.rank[e.u as usize], self.rank[e.v as usize]);
            let id = label_id(&self.edge_labels, e.label);
            let last = ru.max(rv);
            self.a_pend_total[last] += 1;
            if id < le {
                self.a_pend[last * le + id] += 1;
            }
            // Unshared a-labels get `le + 1`, unshared b-labels `le + 2`:
            // they never compare equal across the two matrices.
            self.a_mat[ru * n1 + rv] = id as u16 + 1;
            self.a_mat[rv * n1 + ru] = id as u16 + 1;
        }
        for d in (0..n1).rev() {
            self.a_pend_total[d] += self.a_pend_total[d + 1];
            for l in 0..le {
                self.a_pend[d * le + l] += self.a_pend[(d + 1) * le + l];
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

/// The b-side label counts of one search state, measured against the a-side
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
    /// Per shared edge label: b-edges not inside the mask.
    avail: Vec<u16>,
    /// Edge-label overlap of the state.
    edge_overlap: usize,
    /// b-edges not inside the mask, shared label or not.
    pending: usize,
}

impl Frame {
    /// Positions the frame on `used`, measured against depth `depth` of `a`.
    // graphrep: hot-path
    pub(crate) fn enter(&mut self, t: &PairTables, depth: usize, used: u32) {
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

        let le = t.edge_labels.len();
        self.avail.clear();
        self.avail.extend_from_slice(&t.b_edges);
        let mut internal = 0;
        let mut rest = used;
        while rest != 0 {
            let u = rest.trailing_zeros() as usize;
            // With u's bit cleared, `rest` is the used nodes above u: every
            // internal edge is seen once, from its lower endpoint.
            rest &= rest - 1;
            let nb = t.b_any[u] & rest;
            if nb != 0 {
                internal += nb.count_ones() as usize;
                for (av, &adj) in self.avail.iter_mut().zip(&t.b_adj[u * le..][..le]) {
                    *av -= (adj & rest).count_ones() as u16;
                }
            }
        }
        self.pending = t.e2 - internal;
        let a_pend = &t.a_pend[depth * le..][..le];
        self.edge_overlap = a_pend
            .iter()
            .zip(&self.avail)
            .map(|(&ap, &av)| ap.min(av) as usize)
            .sum();
    }

    /// Admissible heuristic of the state the frame was entered on.
    // graphrep: hot-path
    #[inline]
    pub(crate) fn heuristic(&self, t: &PairTables, cost: &CostModel) -> f64 {
        self.bound(
            t,
            cost,
            self.node_overlap,
            self.unused,
            self.edge_overlap,
            self.pending,
        )
    }

    /// The state one step on from the entered one — same depth, b-node `col`
    /// (`n2` = ε: nothing) added to the mask — as `(heuristic, unused
    /// b-nodes, b-edges not inside the mask)`: what [`Frame::enter`] on that
    /// mask followed by [`Frame::heuristic`] would return, plus that frame's
    /// `unused` and `pending` counts, from O(1) deltas (module doc).
    // graphrep: hot-path
    #[inline]
    pub(crate) fn child(
        &self,
        t: &PairTables,
        col: usize,
        cost: &CostModel,
    ) -> (f64, usize, usize) {
        if col == t.n2 {
            return (self.heuristic(t, cost), self.unused, self.pending);
        }
        let unused = self.unused - 1;
        let node_overlap = self.node_overlap - (self.tight >> col & 1) as usize;
        let mut edge_overlap = self.edge_overlap;
        let mut pending = self.pending;
        let nb = t.b_any[col] & self.used;
        if nb != 0 {
            pending -= nb.count_ones() as usize;
            let le = t.edge_labels.len();
            let a_pend = &t.a_pend[self.depth * le..][..le];
            let adj = &t.b_adj[col * le..][..le];
            for ((&ap, &av), &adj) in a_pend.iter().zip(&self.avail).zip(adj) {
                let taken = (adj & self.used).count_ones() as u16;
                edge_overlap -= (ap.min(av) - ap.min(av - taken)) as usize;
            }
        }
        let h = self.bound(t, cost, node_overlap, unused, edge_overlap, pending);
        (h, unused, pending)
    }

    /// The label-multiset bound at the frame's depth, from the overlap and
    /// the b-side count of the nodes and of the edges.
    #[inline]
    fn bound(
        &self,
        t: &PairTables,
        cost: &CostModel,
        node_overlap: usize,
        unused: usize,
        edge_overlap: usize,
        pending: usize,
    ) -> f64 {
        count_bound(
            node_overlap,
            t.n1 - self.depth,
            unused,
            cost.node_sub,
            cost.node_indel,
        ) + count_bound(
            edge_overlap,
            t.a_pend_total[self.depth] as usize,
            pending,
            cost.edge_sub,
            cost.edge_indel,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::multiset_bound;
    use graphrep_graph::generate::random_connected;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The heuristic as first written: collect the remaining labels of both
    /// sides, sort them, and bound the two multiset pairs.
    fn sorted_slice_heuristic(
        a: &Graph,
        b: &Graph,
        t: &PairTables,
        depth: usize,
        used: u32,
        cost: &CostModel,
    ) -> f64 {
        let sorted = |mut v: Vec<u32>| {
            v.sort_unstable();
            v
        };
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Bit-identical, for each child column (ε included, which is the
        /// state itself) of a random reachable state, entered from scratch
        /// and stepped to from the state's frame — under costs whose sums
        /// round, too.
        #[test]
        fn table_heuristic_is_the_sorted_slice_bound(
            s1 in 0u64..1000, s2 in 0u64..1000,
            n1 in 1usize..=7, extra in 0usize..=3,
            depth_pick in 0usize..8, mask in 0u32..u32::MAX,
            node_sub in 1u32..=20, edge_indel in 5u32..=30
        ) {
            let cost = CostModel {
                node_sub: node_sub as f64 / 10.0,
                node_indel: 1.0,
                edge_sub: 0.7,
                edge_indel: edge_indel as f64 / 10.0,
            };
            prop_assume!(cost.validate().is_ok());
            // Few labels on one side, more on the other: shared and
            // unshared ids both occur.
            let a = random_connected(&mut SmallRng::seed_from_u64(s1), n1, 2, &[0, 1, 2, 3], &[7, 8, 9]);
            let b = random_connected(&mut SmallRng::seed_from_u64(s2), n1 + extra, 3, &[1, 2, 4], &[8, 9, 6]);
            let mut t = PairTables::default();
            t.rebuild(&a, &b);
            let depth = depth_pick % (n1 + 1);
            // A reachable mask: at most `depth` of b's nodes are taken.
            let mut used = mask & (u32::MAX >> (32 - t.n2));
            while used.count_ones() as usize > depth {
                used &= used - 1;
            }
            let mut frame = Frame::default();
            frame.enter(&t, depth, used);
            let mut scratch = Frame::default();
            for col in t.children(used) {
                // From scratch on the child's mask: the sorted-slice bound …
                let mask = t.taking(used, col);
                scratch.enter(&t, depth, mask);
                let h = scratch.heuristic(&t, &cost);
                let want = sorted_slice_heuristic(&a, &b, &t, depth, mask, &cost);
                prop_assert_eq!(h.to_bits(), want.to_bits(), "mask {:b}: {} vs {}", mask, h, want);
                // … and the incremental step from the parent's frame is it.
                let (ch, unused, pending) = frame.child(&t, col, &cost);
                prop_assert_eq!(ch.to_bits(), h.to_bits(), "child {} of {:b}: {} vs {}", col, used, ch, h);
                prop_assert_eq!((unused, pending), (scratch.unused, scratch.pending), "child {} of {:b}", col, used);
            }
        }
    }
}

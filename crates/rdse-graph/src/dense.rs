//! Data-oriented DAG storage and incremental longest path.
//!
//! [`Digraph`] optimizes for cheap edge edits; the annealing hot path
//! wants the opposite trade: a fixed edge structure scanned millions of
//! times with mutable *weights*. [`DenseDag`] stores the graph in CSR
//! form — flat `u32` slabs for both edge directions, structure-of-arrays
//! node and edge attributes — so a longest-path relaxation touches
//! contiguous memory and no per-node `Vec` headers.
//!
//! On top of it, [`IncrementalLongestPath`] keeps completion labels and
//! a topological order alive across deltas. After a delta, the caller
//! patches the order around each node whose own edge set changed
//! ([`IncrementalLongestPath::reposition`]), verifies every changed
//! edge against it ([`IncrementalLongestPath::order_pos`]), and then
//! relabels the swept suffix — every node from the first changed
//! position on — in one check-free forward pass
//! ([`IncrementalLongestPath::sweep_certified`]). When the order
//! cannot be certified, the caller runs a full Kahn pass
//! ([`IncrementalLongestPath::full`]) instead, which also records a
//! fresh order and detects cycles.
//!
//! All label changes are journaled, so a rejected move rolls back to
//! bit-identical labels — including the recorded order, which is
//! snapshotted once per journal window.
//!
//! # Determinism
//!
//! Every completion label is `w(v) + max(0, max over in-edges (u,v):
//! comp(u) + w(u,v))` — a maximum over a finite candidate set. IEEE-754
//! `max` is order-independent in *value* for finite inputs, so the
//! label fixpoint on a DAG is unique: any relaxation schedule that
//! processes every node whose candidate set changed, each after all its
//! predecessors (certified suffix sweep or full pass), lands on the
//! same bits. A sweep may also re-relax *unchanged* nodes; that
//! rewrites their labels with identical bits.

use crate::longest_path::LongestPath;
use crate::{Digraph, GraphError, NodeId};

/// A directed graph in CSR (compressed sparse row) form with mutable
/// node and edge weights but a fixed edge structure.
///
/// Edges keep their insertion index (*edge id*); both the out- and the
/// in-adjacency slabs preserve insertion order, so traversals enumerate
/// neighbours exactly as [`Digraph`] would after the same `add_edge`
/// sequence. Parallel edges and cycles are representable (cycles are
/// rejected by [`DenseDag::longest_path`], not by construction).
///
/// # Examples
///
/// ```
/// use rdse_graph::DenseDag;
///
/// # fn main() -> Result<(), rdse_graph::GraphError> {
/// let g = DenseDag::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)], &[1.0, 1.0, 1.0])?;
/// assert_eq!(g.longest_path()?.makespan(), 8.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseDag {
    n: usize,
    out_start: Vec<u32>,
    out_target: Vec<u32>,
    out_eid: Vec<u32>,
    in_start: Vec<u32>,
    in_source: Vec<u32>,
    in_eid: Vec<u32>,
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    edge_w: Vec<f64>,
    node_w: Vec<f64>,
}

impl DenseDag {
    /// Builds a dense graph over nodes `0..n` from an edge list.
    ///
    /// The edge id of `edges[i]` is `i`; adjacency slabs preserve the
    /// relative order of `edges` per source and per target.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] for invalid endpoints and
    /// [`GraphError::SelfLoop`] if any edge has equal endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `node_weights.len() != n`.
    pub fn from_edges(
        n: usize,
        edges: &[(u32, u32, f64)],
        node_weights: &[f64],
    ) -> Result<Self, GraphError> {
        assert_eq!(
            node_weights.len(),
            n,
            "node weight slice must match node count"
        );
        for &(u, v, _) in edges {
            for node in [u, v] {
                if node as usize >= n {
                    return Err(GraphError::NodeOutOfBounds {
                        node: NodeId(node),
                        n_nodes: n,
                    });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop(NodeId(u)));
            }
        }
        let m = edges.len();
        let mut out_start = vec![0u32; n + 1];
        let mut in_start = vec![0u32; n + 1];
        for &(u, v, _) in edges {
            out_start[u as usize + 1] += 1;
            in_start[v as usize + 1] += 1;
        }
        for i in 0..n {
            out_start[i + 1] += out_start[i];
            in_start[i + 1] += in_start[i];
        }
        let mut out_cursor: Vec<u32> = out_start[..n].to_vec();
        let mut in_cursor: Vec<u32> = in_start[..n].to_vec();
        let mut out_target = vec![0u32; m];
        let mut out_eid = vec![0u32; m];
        let mut in_source = vec![0u32; m];
        let mut in_eid = vec![0u32; m];
        for (eid, &(u, v, _)) in edges.iter().enumerate() {
            let oc = &mut out_cursor[u as usize];
            out_target[*oc as usize] = v;
            out_eid[*oc as usize] = eid as u32;
            *oc += 1;
            let ic = &mut in_cursor[v as usize];
            in_source[*ic as usize] = u;
            in_eid[*ic as usize] = eid as u32;
            *ic += 1;
        }
        Ok(DenseDag {
            n,
            out_start,
            out_target,
            out_eid,
            in_start,
            in_source,
            in_eid,
            edge_from: edges.iter().map(|e| e.0).collect(),
            edge_to: edges.iter().map(|e| e.1).collect(),
            edge_w: edges.iter().map(|e| e.2).collect(),
            node_w: node_weights.to_vec(),
        })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges (parallel edges counted individually).
    pub fn n_edges(&self) -> usize {
        self.edge_w.len()
    }

    /// Weight of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn node_weight(&self, v: u32) -> f64 {
        self.node_w[v as usize]
    }

    /// Sets the weight of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn set_node_weight(&mut self, v: u32, weight: f64) {
        self.node_w[v as usize] = weight;
    }

    /// Weight of edge `eid`.
    ///
    /// # Panics
    ///
    /// Panics if `eid` is out of bounds.
    #[inline]
    pub fn edge_weight(&self, eid: u32) -> f64 {
        self.edge_w[eid as usize]
    }

    /// Sets the weight of edge `eid`.
    ///
    /// # Panics
    ///
    /// Panics if `eid` is out of bounds.
    #[inline]
    pub fn set_edge_weight(&mut self, eid: u32, weight: f64) {
        self.edge_w[eid as usize] = weight;
    }

    /// Endpoints `(from, to)` of edge `eid`.
    ///
    /// # Panics
    ///
    /// Panics if `eid` is out of bounds.
    #[inline]
    pub fn edge_endpoints(&self, eid: u32) -> (u32, u32) {
        (self.edge_from[eid as usize], self.edge_to[eid as usize])
    }

    /// Out-edges of `v` as `(target, edge id)`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn out_edges(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.out_start[v as usize] as usize;
        let hi = self.out_start[v as usize + 1] as usize;
        self.out_target[lo..hi]
            .iter()
            .copied()
            .zip(self.out_eid[lo..hi].iter().copied())
    }

    /// In-edges of `v` as `(source, edge id)`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn in_edges(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.in_start[v as usize] as usize;
        let hi = self.in_start[v as usize + 1] as usize;
        self.in_source[lo..hi]
            .iter()
            .copied()
            .zip(self.in_eid[lo..hi].iter().copied())
    }

    /// Converts back to an edit-friendly [`Digraph`] with the same edge
    /// insertion order (edge ids become insertion ranks).
    pub fn to_digraph(&self) -> Digraph {
        let mut g = Digraph::new(self.n);
        for eid in 0..self.edge_w.len() {
            g.add_edge(
                NodeId(self.edge_from[eid]),
                NodeId(self.edge_to[eid]),
                self.edge_w[eid],
            )
            .expect("DenseDag edges are valid by construction");
        }
        g
    }

    /// Topological order with ties broken by node index, mirroring
    /// [`crate::topo::topo_sort`] exactly.
    fn topo_order(&self) -> Result<Vec<u32>, GraphError> {
        let n = self.n;
        let mut in_deg: Vec<u32> = (0..n)
            .map(|v| self.in_start[v + 1] - self.in_start[v])
            .collect();
        let mut frontier: Vec<u32> = (0..n as u32).filter(|&v| in_deg[v as usize] == 0).collect();
        frontier.sort_unstable_by_key(|&v| std::cmp::Reverse(v));
        let mut order = Vec::with_capacity(n);
        while let Some(v) = frontier.pop() {
            order.push(v);
            for (s, _) in self.out_edges(v) {
                let d = &mut in_deg[s as usize];
                *d -= 1;
                if *d == 0 {
                    let pos = frontier
                        .binary_search_by_key(&std::cmp::Reverse(s), |&x| std::cmp::Reverse(x));
                    let pos = pos.unwrap_or_else(|p| p);
                    frontier.insert(pos, s);
                }
            }
        }
        if order.len() != n {
            let on_cycle = (0..n)
                .find(|&v| in_deg[v] > 0)
                .expect("cycle implies a node with nonzero residual in-degree");
            return Err(GraphError::Cycle {
                on_cycle: NodeId(on_cycle as u32),
            });
        }
        Ok(order)
    }

    /// Longest path of the DAG, bit-identical to
    /// [`crate::longest_path::dag_longest_path`] on a [`Digraph`] built
    /// with the same edge insertion sequence (same labels, same
    /// critical predecessors, same terminal tie-breaks).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the graph is not acyclic.
    pub fn longest_path(&self) -> Result<LongestPath, GraphError> {
        let order = self.topo_order()?;
        let n = self.n;
        let mut completion = vec![0.0_f64; n];
        let mut critical_pred: Vec<Option<NodeId>> = vec![None; n];
        let mut makespan = 0.0_f64;
        let mut terminal = None;
        for &v in &order {
            let mut best = 0.0_f64;
            let mut best_pred = None;
            // Mirror the reference enumeration: per predecessor *entry*,
            // scan all of that predecessor's out-edges towards `v`, so
            // parallel-edge tie-breaks agree with `dag_longest_path`.
            for (p, _) in self.in_edges(v) {
                for (s, eid) in self.out_edges(p) {
                    if s == v {
                        let cand = completion[p as usize] + self.edge_w[eid as usize];
                        if cand > best {
                            best = cand;
                            best_pred = Some(NodeId(p));
                        }
                    }
                }
            }
            completion[v as usize] = best + self.node_w[v as usize];
            critical_pred[v as usize] = best_pred;
            if completion[v as usize] > makespan {
                makespan = completion[v as usize];
                terminal = Some(NodeId(v));
            }
        }
        Ok(LongestPath::from_parts(
            completion,
            critical_pred,
            makespan,
            terminal,
        ))
    }
}

/// A graph view the incremental longest path can relax over.
///
/// The two traversal methods take generic closures (monomorphized, no
/// virtual dispatch on the hot path) and must enumerate each edge
/// exactly once per direction, in a deterministic order. `for_each_in`
/// also yields the edge weight, since the pull-style relaxation only
/// ever needs weights on incoming edges.
pub trait RepairGraph {
    /// Number of nodes (labels are indexed `0..n_nodes()`).
    fn n_nodes(&self) -> usize;
    /// Weight of node `v`.
    fn node_weight(&self, v: u32) -> f64;
    /// Calls `f(target)` for every out-edge of `v`.
    fn for_each_out<F: FnMut(u32)>(&self, v: u32, f: F);
    /// Calls `f(source, weight)` for every in-edge of `v`.
    fn for_each_in<F: FnMut(u32, f64)>(&self, v: u32, f: F);
    /// Number of in-edges of `v`. The default counts via
    /// [`for_each_in`](Self::for_each_in); implementations with a
    /// closed form (e.g. CSR extents plus marker bits) should override
    /// it — [`IncrementalLongestPath`]'s full pass derives its Kahn
    /// in-degrees from this, skipping a whole edge enumeration.
    #[inline]
    fn in_degree(&self, v: u32) -> u32 {
        let mut d = 0u32;
        self.for_each_in(v, |_, _| d += 1);
        d
    }
}

impl RepairGraph for DenseDag {
    #[inline]
    fn n_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn node_weight(&self, v: u32) -> f64 {
        self.node_w[v as usize]
    }

    #[inline]
    fn for_each_out<F: FnMut(u32)>(&self, v: u32, mut f: F) {
        let lo = self.out_start[v as usize] as usize;
        let hi = self.out_start[v as usize + 1] as usize;
        for &t in &self.out_target[lo..hi] {
            f(t);
        }
    }

    #[inline]
    fn for_each_in<F: FnMut(u32, f64)>(&self, v: u32, mut f: F) {
        let lo = self.in_start[v as usize] as usize;
        let hi = self.in_start[v as usize + 1] as usize;
        for (&u, &eid) in self.in_source[lo..hi].iter().zip(&self.in_eid[lo..hi]) {
            f(u, self.edge_w[eid as usize]);
        }
    }

    #[inline]
    fn in_degree(&self, v: u32) -> u32 {
        self.in_start[v as usize + 1] - self.in_start[v as usize]
    }
}

#[derive(Debug, Clone, Copy)]
struct JournalEntry {
    node: u32,
    comp: f64,
}

/// Incrementally maintained longest-path labels over a recorded
/// topological order.
///
/// The structure owns one completion label per node and a topological
/// order of the graph, kept consistent with some [`RepairGraph`] by the
/// caller:
///
/// 1. [`full`](Self::full) computes labels from scratch (Kahn) and
///    records the order;
/// 2. after a delta, [`reposition`](Self::reposition) patches the order
///    around each node whose own edge set changed, and
///    [`sweep_certified`](Self::sweep_certified) relabels the order
///    suffix from the first changed position;
/// 3. [`rollback`](Self::rollback) undoes the label (and order) changes
///    of the most recent `full`/`sweep_certified` call, so a rejected
///    annealing move costs one replay instead of a recompute.
///
/// Labels after a sweep are bit-identical to a full recompute; see the
/// [module docs](self) for the argument.
///
/// # Examples
///
/// ```
/// use rdse_graph::{DenseDag, IncrementalLongestPath};
///
/// # fn main() -> Result<(), rdse_graph::GraphError> {
/// let mut g = DenseDag::from_edges(3, &[(0, 1, 0.0), (1, 2, 0.0)], &[1.0, 1.0, 1.0])?;
/// let mut lp = IncrementalLongestPath::new(3);
/// lp.full(&g)?;
/// assert_eq!(lp.makespan(), 3.0);
/// g.set_node_weight(1, 5.0);
/// // A weight change keeps the order valid: relabel from node 1 on.
/// lp.sweep_certified(&g, lp.order_pos(1) as usize);
/// assert_eq!(lp.makespan(), 7.0);
/// lp.rollback();
/// assert_eq!(lp.makespan(), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalLongestPath {
    comp: Vec<f64>,
    indeg: Vec<u32>,
    frontier: Vec<u32>,
    journal: Vec<JournalEntry>,
    /// Topological order recorded by the last full pass and patched by
    /// [`reposition`](Self::reposition) (`ord[i]` is the node at
    /// position `i`; `pos` is its inverse).
    ord: Vec<u32>,
    pos: Vec<u32>,
    /// Pre-delta backup of `ord`/`pos`, snapshotted once per journal
    /// window by the first call that overwrites them, so
    /// [`rollback`](Self::rollback) can restore the order along with
    /// the labels.
    ord_backup: Vec<u32>,
    pos_backup: Vec<u32>,
    ord_swapped: bool,
}

impl IncrementalLongestPath {
    /// Creates label storage for `n` nodes, all labels zero.
    pub fn new(n: usize) -> Self {
        IncrementalLongestPath {
            comp: vec![0.0; n],
            indeg: vec![0; n],
            frontier: Vec::new(),
            journal: Vec::new(),
            ord: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
            ord_backup: vec![0; n],
            pos_backup: vec![0; n],
            ord_swapped: false,
        }
    }

    /// All completion labels, indexed by node.
    pub fn labels(&self) -> &[f64] {
        &self.comp
    }

    /// Completion label of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn label(&self, v: u32) -> f64 {
        self.comp[v as usize]
    }

    /// The longest-path value: the maximum completion label (0 for an
    /// empty graph).
    pub fn makespan(&self) -> f64 {
        let mut best = 0.0_f64;
        for &c in &self.comp {
            if c > best {
                best = c;
            }
        }
        best
    }

    /// Combined capacity of the reusable scratch vectors, for arena
    /// warmness accounting.
    pub fn scratch_capacity(&self) -> usize {
        self.frontier.capacity() + self.journal.capacity()
    }

    /// Recomputes every label with a full Kahn pass over `g` and
    /// records the pop order as the new topological order.
    ///
    /// Old labels are journaled and the previous order is backed up, so
    /// [`rollback`](Self::rollback) undoes this call. On a cycle the
    /// partially updated labels are left in place for the caller to
    /// roll back.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if `g` is not acyclic.
    pub fn full<G: RepairGraph>(&mut self, g: &G) -> Result<(), GraphError> {
        debug_assert_eq!(g.n_nodes(), self.comp.len(), "graph/label size mismatch");
        self.journal.clear();
        self.backup_order();
        let n = self.comp.len();
        self.frontier.clear();
        for v in 0..n {
            let d = g.in_degree(v as u32);
            self.indeg[v] = d;
            if d == 0 {
                self.frontier.push(v as u32);
            }
        }
        let mut processed = 0usize;
        while let Some(v) = self.frontier.pop() {
            self.ord[processed] = v;
            self.pos[v as usize] = processed as u32;
            processed += 1;
            self.relax(g, v);
            let (indeg, frontier) = (&mut self.indeg, &mut self.frontier);
            g.for_each_out(v, |t| {
                let d = &mut indeg[t as usize];
                *d -= 1;
                if *d == 0 {
                    frontier.push(t);
                }
            });
        }
        if processed != n {
            let on_cycle = (0..n)
                .find(|&v| self.indeg[v] > 0)
                .expect("cycle implies a node with nonzero residual in-degree");
            return Err(GraphError::Cycle {
                on_cycle: NodeId(on_cycle as u32),
            });
        }
        Ok(())
    }

    /// Position of `v` in the recorded topological order (see
    /// [`reposition`](Self::reposition) and
    /// [`sweep_certified`](Self::sweep_certified)).
    #[inline]
    pub fn order_pos(&self, v: u32) -> u32 {
        self.pos[v as usize]
    }

    /// Relaxes every node at order positions `start..n` in one plain
    /// forward pass, with **no** safety net: the caller must have
    /// certified that the recorded order is a valid topological order
    /// of the current graph (e.g. via [`reposition`](Self::reposition)
    /// outcomes plus [`order_pos`](Self::order_pos) checks over every
    /// changed edge). A valid order proves the graph acyclic, so this
    /// cannot fail; labels reach the unique fixpoint because each node
    /// is relaxed after all its predecessors. `start` must be at or
    /// before the first position whose node's weight or in-edge
    /// candidate set changed; values past `n` relax nothing. Old labels
    /// are journaled exactly as in [`full`](Self::full).
    pub fn sweep_certified<G: RepairGraph>(&mut self, g: &G, start: usize) {
        debug_assert_eq!(g.n_nodes(), self.comp.len(), "graph/label size mismatch");
        self.journal.clear();
        for i in start.min(self.comp.len())..self.comp.len() {
            let v = self.ord[i];
            self.relax(g, v);
        }
    }

    /// Locally re-certifies the recorded topological order after a
    /// delta that changed only `v`'s own edge set: moves `v` to a
    /// position strictly after all its in-neighbors and before all its
    /// out-neighbors, leaving every other node in place.
    ///
    /// This keeps the order valid — and the cheap
    /// [`sweep_certified`](Self::sweep_certified) usable — across moves
    /// that re-chain a single node (e.g. re-splicing a task into a
    /// processor chain). Soundness requires that no *other* node's edge
    /// set changed, except for added edges `(a, b)` whose endpoints the
    /// caller knows were already ordered `a` before `b` (a bypass edge
    /// closing the gap `v` left satisfies this: both endpoints flanked
    /// `v`).
    ///
    /// Returns `None` — leaving the order untouched — when no such
    /// position exists (other nodes would have to move too); callers
    /// then fall back to a [`full`](Self::full) pass. Returns
    /// `Some(false)` when `v`'s current position already satisfies its
    /// edges (nothing moved — the common fast path) and `Some(true)`
    /// when `v` was moved; after any move, previously checked nodes may
    /// have shifted relative to `v`, so callers certifying the whole
    /// order must re-verify every changed node's edges with
    /// [`order_pos`](Self::order_pos). The order change participates in
    /// the journal window: [`rollback`](Self::rollback) restores it.
    pub fn reposition<G: RepairGraph>(&mut self, g: &G, v: u32) -> Option<bool> {
        let n = self.comp.len();
        let pv = self.pos[v as usize] as i64;
        let mut lo: i64 = -1;
        let mut hi: i64 = n as i64;
        {
            let pos = &self.pos;
            g.for_each_in(v, |u, _| {
                let p = pos[u as usize] as i64;
                if p > lo {
                    lo = p;
                }
            });
            g.for_each_out(v, |t| {
                let p = pos[t as usize] as i64;
                if p < hi {
                    hi = p;
                }
            });
        }
        if lo < pv && pv < hi {
            return Some(false); // already between its neighbors
        }
        // Work in v-removed coordinates for the insertion slot.
        let lo_r = if lo > pv { lo - 1 } else { lo };
        let hi_r = if hi > pv { hi - 1 } else { hi };
        if lo_r >= hi_r {
            return None; // no single-node slot exists
        }
        self.backup_order();
        let s = (lo_r + 1) as usize; // insertion slot, v-removed coords
        let pv = pv as usize;
        if s <= pv {
            // v moves earlier: shift [s, pv) right by one.
            self.ord.copy_within(s..pv, s + 1);
            self.ord[s] = v;
            for i in s..=pv {
                self.pos[self.ord[i] as usize] = i as u32;
            }
        } else {
            // v moves later: shift (pv, s] left by one.
            self.ord.copy_within(pv + 1..s + 1, pv);
            self.ord[s] = v;
            for i in pv..=s {
                self.pos[self.ord[i] as usize] = i as u32;
            }
        }
        Some(true)
    }

    /// Undoes the label changes of the most recent
    /// `full`/`sweep_certified` call. Idempotent once drained.
    ///
    /// If a full pass or [`reposition`](Self::reposition) changed the
    /// recorded topological order within this journal window, the
    /// pre-delta order is restored too, so the order stays valid for
    /// the graph the caller is rolling back to.
    pub fn rollback(&mut self) {
        while let Some(e) = self.journal.pop() {
            self.comp[e.node as usize] = e.comp;
        }
        if self.ord_swapped {
            std::mem::swap(&mut self.ord, &mut self.ord_backup);
            std::mem::swap(&mut self.pos, &mut self.pos_backup);
            self.ord_swapped = false;
        }
    }

    /// Drops the undo journal of the most recent
    /// `full`/`sweep_certified` call without applying it, committing
    /// those label and order changes. After this,
    /// [`rollback`](Self::rollback) is a no-op until the next change.
    /// Callers that interleave label updates with other revertible
    /// state use this to mark a delta boundary: a later abort that
    /// never relabeled must not roll labels back across it.
    pub fn discard_journal(&mut self) {
        self.journal.clear();
        self.ord_swapped = false;
    }

    /// Snapshots `ord`/`pos` before their first change in the current
    /// journal window.
    fn backup_order(&mut self) {
        if !self.ord_swapped {
            self.ord_backup.copy_from_slice(&self.ord);
            self.pos_backup.copy_from_slice(&self.pos);
            self.ord_swapped = true;
        }
    }

    /// Recomputes the label of `v` from its in-edges, journaling the old
    /// value if it changed.
    #[inline]
    fn relax<G: RepairGraph>(&mut self, g: &G, v: u32) {
        let comp = &self.comp;
        let mut best = 0.0_f64;
        g.for_each_in(v, |u, w| {
            let cand = comp[u as usize] + w;
            if cand > best {
                best = cand;
            }
        });
        let label = best + g.node_weight(v);
        let vi = v as usize;
        if label.to_bits() != self.comp[vi].to_bits() {
            self.journal.push(JournalEntry {
                node: v,
                comp: self.comp[vi],
            });
            self.comp[vi] = label;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longest_path::dag_longest_path;

    fn chain3() -> DenseDag {
        DenseDag::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)], &[1.0, 1.0, 1.0]).unwrap()
    }

    fn bits(lp: &IncrementalLongestPath) -> Vec<u64> {
        lp.labels().iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn from_edges_validates() {
        assert!(matches!(
            DenseDag::from_edges(2, &[(0, 5, 1.0)], &[0.0, 0.0]),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert!(matches!(
            DenseDag::from_edges(2, &[(1, 1, 1.0)], &[0.0, 0.0]),
            Err(GraphError::SelfLoop(_))
        ));
    }

    #[test]
    fn adjacency_preserves_insertion_order() {
        let g = DenseDag::from_edges(
            4,
            &[(0, 2, 1.0), (0, 1, 2.0), (3, 2, 3.0), (0, 2, 4.0)],
            &[0.0; 4],
        )
        .unwrap();
        let out0: Vec<(u32, u32)> = g.out_edges(0).collect();
        assert_eq!(out0, vec![(2, 0), (1, 1), (2, 3)]);
        let in2: Vec<(u32, u32)> = g.in_edges(2).collect();
        assert_eq!(in2, vec![(0, 0), (3, 2), (0, 3)]);
        assert_eq!(g.edge_endpoints(2), (3, 2));
        assert_eq!(g.n_edges(), 4);
    }

    #[test]
    fn longest_path_matches_digraph_reference() {
        // Same graph as the brute-force test in longest_path.rs, plus a
        // parallel edge to exercise the tie-break mirroring.
        let edges = [
            (0, 1, 2.0),
            (0, 2, 1.0),
            (1, 3, 0.5),
            (2, 3, 4.0),
            (3, 4, 0.0),
            (2, 5, 1.0),
            (4, 5, 2.5),
            (2, 3, 4.0),
        ];
        let w = [1.0, 2.0, 3.0, 1.0, 2.0, 1.0];
        let dense = DenseDag::from_edges(6, &edges, &w).unwrap();
        let sparse = dense.to_digraph();
        let a = dense.longest_path().unwrap();
        let b = dag_longest_path(&sparse, &w).unwrap();
        assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());
        for v in 0..6u32 {
            assert_eq!(
                a.completion(NodeId(v)).to_bits(),
                b.completion(NodeId(v)).to_bits()
            );
        }
        assert_eq!(a.critical_path(), b.critical_path());
    }

    #[test]
    fn cycle_rejected_with_same_witness() {
        let dense = DenseDag::from_edges(3, &[(1, 2, 0.0), (2, 1, 0.0)], &[0.0; 3]).unwrap();
        assert_eq!(
            dense.longest_path(),
            Err(GraphError::Cycle {
                on_cycle: NodeId(1)
            })
        );
        let mut lp = IncrementalLongestPath::new(3);
        assert_eq!(
            lp.full(&dense),
            Err(GraphError::Cycle {
                on_cycle: NodeId(1)
            })
        );
    }

    #[test]
    fn sweep_updates_the_suffix_and_rolls_back() {
        let mut g = chain3();
        let mut lp = IncrementalLongestPath::new(3);
        lp.full(&g).unwrap();
        assert_eq!(lp.makespan(), 8.0);
        assert_eq!(lp.labels(), &[1.0, 4.0, 8.0]);
        let before = bits(&lp);
        g.set_node_weight(1, 3.0);
        lp.sweep_certified(&g, lp.order_pos(1) as usize);
        assert_eq!(lp.labels(), &[1.0, 6.0, 10.0]);
        lp.rollback();
        assert_eq!(bits(&lp), before);
        // Drained: a second rollback changes nothing.
        lp.rollback();
        assert_eq!(bits(&lp), before);
    }

    #[test]
    fn sweep_past_the_end_is_a_no_op() {
        let g = chain3();
        let mut lp = IncrementalLongestPath::new(3);
        lp.full(&g).unwrap();
        lp.sweep_certified(&g, usize::MAX);
        assert_eq!(lp.makespan(), 8.0);
    }

    #[test]
    fn discarded_journal_is_not_rolled_back() {
        let mut g = chain3();
        let mut lp = IncrementalLongestPath::new(3);
        lp.full(&g).unwrap();
        g.set_node_weight(0, 9.0);
        lp.sweep_certified(&g, 0);
        lp.discard_journal();
        lp.rollback();
        assert_eq!(lp.makespan(), 16.0);
    }

    #[test]
    fn reposition_moves_a_rewired_node_and_rollback_restores_the_order() {
        // 0 -> 1 -> 2: full records the order [0, 1, 2].
        let g1 = chain3();
        let mut lp = IncrementalLongestPath::new(3);
        lp.full(&g1).unwrap();
        assert_eq!(
            (0..3).map(|v| lp.order_pos(v)).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        // Rewire node 0 to run after node 2: 1 -> 2 -> 0.
        let g2 = DenseDag::from_edges(3, &[(1, 2, 3.0), (2, 0, 2.0)], &[1.0; 3]).unwrap();
        assert_eq!(lp.reposition(&g2, 0), Some(true));
        assert_eq!(
            (0..3).map(|v| lp.order_pos(v)).collect::<Vec<_>>(),
            [2, 0, 1]
        );
        // Already in place: nothing moves.
        assert_eq!(lp.reposition(&g2, 0), Some(false));
        lp.sweep_certified(&g2, 0);
        let mut fresh = IncrementalLongestPath::new(3);
        fresh.full(&g2).unwrap();
        assert_eq!(bits(&lp), bits(&fresh));
        lp.rollback();
        assert_eq!(
            (0..3).map(|v| lp.order_pos(v)).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(lp.labels(), &[1.0, 4.0, 8.0]);
    }

    #[test]
    fn reposition_without_a_slot_leaves_the_order() {
        // 0 -> 1 -> 2, then node 1 gains the edge 2 -> 1 on top of
        // 0 -> 1 -> 2: no single position for node 1 exists.
        let g1 = chain3();
        let mut lp = IncrementalLongestPath::new(3);
        lp.full(&g1).unwrap();
        let g2 =
            DenseDag::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0), (2, 1, 0.0)], &[1.0; 3]).unwrap();
        assert_eq!(lp.reposition(&g2, 1), None);
        assert_eq!(
            (0..3).map(|v| lp.order_pos(v)).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }
}

//! The bundle hypergraph.
//!
//! ## Representation
//!
//! Hyperedges store their items as a [`qp_core::ItemSet`] bitset (u64
//! blocks), so membership tests are O(1), set algebra is block-wise, and an
//! edge over a support of 10,000 databases occupies ~1.2 KiB regardless of
//! bundle size. Call sites that still need the legacy sorted-`Vec<usize>`
//! shape go through [`Edge::items_vec`]; [`Hypergraph::add_edge`] keeps
//! accepting any `IntoIterator<Item = usize>` so construction code did not
//! have to change.
//!
//! ## The item index
//!
//! Aggregate item queries — per-item degrees, the maximum degree `B`,
//! unique-item flags, item→edge adjacency — used to be recomputed in
//! O(n · m) on every call, which Layering and CIP make many times per run.
//! They are answered by a lazily-built [`ItemIndex`] (per-item sorted
//! adjacency lists + cached degrees + a degree histogram + unique-item
//! flags) constructed on first use behind a [`OnceLock`].
//!
//! **Maintenance rules:** the index depends only on the *structure* of the
//! hypergraph (which edges contain which items), so
//!
//! * [`Hypergraph::add_edge`] / [`Hypergraph::add_edge_set`] **patch** a
//!   built index in place in O(|e|) (degrees, adjacency, max degree,
//!   unique-item flags) instead of dropping it; an unbuilt index stays
//!   unbuilt until the next aggregate query;
//! * [`Hypergraph::remove_edge`] patches the same way (the historical bug
//!   where removals would have left a stale index cannot recur: every
//!   structural mutation goes through the same patch-or-stay-unbuilt path);
//! * [`Hypergraph::set_valuations`] / [`Hypergraph::revalue_edge`] do **not**
//!   touch the index — valuations are not part of it;
//! * [`Hypergraph::restrict_items`] returns a fresh hypergraph with an empty
//!   cache.
//!
//! ## The LP price memo
//!
//! LPIP and CIP solve dozens to hundreds of LPs per run, and XOS is the max
//! of their two price vectors. The hypergraph therefore memoizes one LPIP
//! and one CIP [`PricingOutcome`] next to the index, each keyed by its full
//! config compared bit for bit (`max_lps`, `max_lp_iterations`,
//! `epsilon.to_bits()`). [`crate::algorithms::lp_item_price`] and
//! [`crate::algorithms::capacity_item_price`] read and fill it, so XOS
//! composes two memo hits instead of solving every LP a second time.
//!
//! **Memo rule:** an outcome depends on the structure *and* the valuations,
//! so **every** `&mut` path — [`Hypergraph::add_edge_set`],
//! [`Hypergraph::remove_edge`], [`Hypergraph::revalue_edge`],
//! [`Hypergraph::set_valuations`], and through them
//! [`Hypergraph::apply_delta`] — empties the memo, valuation-only changes
//! included (the index survives those; the memo does not). The first config
//! solved for an algorithm after a mutation owns its slot; a call with a
//! different config solves afresh and is not memoized. `Clone` copies the
//! edges and the item index but **not** the memo: a clone starts empty and
//! solves on first use. Clones are made to be mutated (a valuation model,
//! a benchmark iteration), and a clone that never serves an answer it did
//! not solve keeps every timed run on a clone a real solve.
//!
//! ## Deltas
//!
//! [`HypergraphDelta`] batches `add_edge` / `remove_edge` / `revalue_edge`
//! operations; [`Hypergraph::apply_delta`] applies them in order in
//! O(Σ|e| over the delta) — never a O(n·m) rescan — and returns the
//! [`AppliedOp`] log that incremental repricers
//! ([`crate::algorithms::IncrementalRepricer`]) consume to patch their
//! pricing in place. **Removal semantics:** `remove_edge(i)` swap-removes:
//! the last edge is renumbered to `i` (the `AppliedOp::Removed::moved` field
//! records the renumbering). Within a delta, edge indices refer to the
//! hypergraph state at the moment the operation applies, not the state
//! before the batch.

use std::sync::OnceLock;

use qp_core::ItemSet;

use crate::PricingOutcome;

/// A hyperedge: a bundle of items (support-database indices) together with
/// the buyer's valuation for the corresponding query vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// The items of the bundle (the conflict set), as a bitset.
    pub items: ItemSet,
    /// The buyer's valuation `v_e ≥ 0`, finite.
    pub valuation: f64,
}

impl Edge {
    /// Bundle size `|e|`.
    pub fn size(&self) -> usize {
        self.items.len()
    }

    /// The items as a sorted `Vec<usize>` — the compatibility surface for
    /// call sites not yet migrated to the bitset representation.
    pub fn items_vec(&self) -> Vec<usize> {
        self.items.to_vec()
    }
}

/// The hypergraph `H = (V, E)` of the paper: vertices are the `n` support
/// databases, hyperedges are buyer bundles (conflict sets) with valuations.
#[derive(Debug, Default)]
pub struct Hypergraph {
    num_items: usize,
    edges: Vec<Edge>,
    /// Lazily-built aggregate index; see the module docs for the
    /// maintenance rules (structural mutations patch it in place).
    index: OnceLock<ItemIndex>,
    /// Memoized LPIP / CIP outcomes; emptied by every mutation (see the
    /// module docs).
    lp_prices: LpPriceMemo,
}

/// Copies the edges and the built item index; the LP price memo starts
/// empty (see the module docs).
impl Clone for Hypergraph {
    fn clone(&self) -> Self {
        Hypergraph {
            num_items: self.num_items,
            edges: self.edges.clone(),
            index: self.index.clone(),
            lp_prices: LpPriceMemo::default(),
        }
    }
}

/// One memoized outcome per LP-based algorithm, each tagged with the bit
/// pattern of the config that produced it.
#[derive(Debug, Default)]
pub(crate) struct LpPriceMemo {
    /// LPIP, keyed by `(max_lps, max_lp_iterations)`.
    pub(crate) lpip: OnceLock<((Option<usize>, usize), PricingOutcome)>,
    /// CIP, keyed by `(epsilon.to_bits(), max_lp_iterations)`.
    pub(crate) cip: OnceLock<((u64, usize), PricingOutcome)>,
}

impl LpPriceMemo {
    /// The outcome memoized in `slot` under `key`, solving it with `solve`
    /// on a miss. An empty slot is filled; a slot owned by another key is
    /// left alone and the answer is solved afresh.
    pub(crate) fn get_or_solve<K: Copy + PartialEq>(
        slot: &OnceLock<(K, PricingOutcome)>,
        key: K,
        solve: impl Fn() -> PricingOutcome,
    ) -> PricingOutcome {
        let (memo_key, outcome) = slot.get_or_init(|| (key, solve()));
        if *memo_key == key {
            outcome.clone()
        } else {
            solve()
        }
    }
}

/// Cached aggregate item queries over a hypergraph: per-item degrees, the
/// maximum degree, active items, per-item sorted adjacency lists, and
/// per-edge unique-item flags. Built once per hypergraph structure and
/// **patched in place** by structural mutations (see the module docs).
///
/// Equality compares the observable state (degrees, max degree, active
/// items, adjacency, unique-item flags), so an incrementally-maintained
/// index can be tested against a from-scratch rebuild — the differential
/// oracle in `tests/differential_delta.rs` does exactly that.
#[derive(Debug, Clone, Default)]
pub struct ItemIndex {
    degrees: Vec<usize>,
    max_degree: usize,
    /// `degree_hist[d]` counts the items of degree `d`; lets `max_degree`
    /// decay in O(1) amortized when a removal lowers the top degree.
    degree_hist: Vec<usize>,
    active_items: Vec<usize>,
    /// The edges containing item `j`, ascending, are `adj[j]`.
    adj: Vec<Vec<usize>>,
    unique_item_flags: Vec<bool>,
}

impl PartialEq for ItemIndex {
    fn eq(&self, other: &ItemIndex) -> bool {
        // `degree_hist` may carry trailing-zero slack after removals; it is
        // derived state, so it does not participate in equality.
        self.degrees == other.degrees
            && self.max_degree == other.max_degree
            && self.active_items == other.active_items
            && self.adj == other.adj
            && self.unique_item_flags == other.unique_item_flags
    }
}

fn sorted_insert(v: &mut Vec<usize>, x: usize) {
    let i = v.partition_point(|&y| y < x);
    v.insert(i, x);
}

fn sorted_remove(v: &mut Vec<usize>, x: usize) {
    let i = v.partition_point(|&y| y < x);
    debug_assert_eq!(v.get(i), Some(&x), "adjacency list out of sync");
    v.remove(i);
}

/// Panics unless `v` is a valid valuation. An infinite one would pass a
/// bare `v >= 0.0`, and the LP-based algorithms would then skip every LP
/// holding its row.
fn check_valuation(v: f64) {
    assert!(
        v.is_finite() && v >= 0.0,
        "valuations must be finite and non-negative"
    );
}

impl ItemIndex {
    fn build(num_items: usize, edges: &[Edge]) -> ItemIndex {
        let mut degrees = vec![0usize; num_items];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); num_items];
        for (ei, e) in edges.iter().enumerate() {
            for j in e.items.iter() {
                degrees[j] += 1;
                adj[j].push(ei); // edges visited in order ⇒ lists ascending
            }
        }
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let mut degree_hist = vec![0usize; max_degree + 1];
        for &d in &degrees {
            degree_hist[d] += 1;
        }
        let active_items: Vec<usize> = degrees
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0)
            .map(|(j, _)| j)
            .collect();

        let unique_item_flags = edges
            .iter()
            .map(|e| e.items.iter().any(|j| degrees[j] == 1))
            .collect();

        ItemIndex {
            degrees,
            max_degree,
            degree_hist,
            active_items,
            adj,
            unique_item_flags,
        }
    }

    /// Grows the per-item state to cover `n` items (new items have degree 0).
    fn ensure_items(&mut self, n: usize) {
        if n > self.degrees.len() {
            let grown = n - self.degrees.len();
            self.degrees.resize(n, 0);
            self.adj.resize_with(n, Vec::new);
            if self.degree_hist.is_empty() {
                self.degree_hist.push(0);
            }
            self.degree_hist[0] += grown;
        }
    }

    /// Raises item `j`'s degree by one, maintaining histogram, max degree,
    /// and the active-item list.
    fn raise_degree(&mut self, j: usize) {
        let d = self.degrees[j];
        self.degree_hist[d] -= 1;
        if d + 1 >= self.degree_hist.len() {
            self.degree_hist.push(0);
        }
        self.degree_hist[d + 1] += 1;
        self.degrees[j] = d + 1;
        if d == 0 {
            sorted_insert(&mut self.active_items, j);
        }
        if d + 1 > self.max_degree {
            self.max_degree = d + 1;
        }
    }

    /// Lowers item `j`'s degree by one; `max_degree` decays through the
    /// histogram when the last top-degree item loses an edge.
    fn lower_degree(&mut self, j: usize) {
        let d = self.degrees[j];
        debug_assert!(d > 0, "lowering the degree of an item with no edges");
        self.degree_hist[d] -= 1;
        self.degree_hist[d - 1] += 1;
        self.degrees[j] = d - 1;
        if d == 1 {
            sorted_remove(&mut self.active_items, j);
        }
        while self.max_degree > 0 && self.degree_hist[self.max_degree] == 0 {
            self.max_degree -= 1;
        }
    }

    fn recompute_flag(&self, edge: usize, edges: &[Edge]) -> bool {
        edges[edge].items.iter().any(|j| self.degrees[j] == 1)
    }

    /// Patches the index for the edge just pushed at `edge_id`
    /// (`edges[edge_id]` is the new edge). O(|e|) plus flag repairs for the
    /// edges that stop holding a unique item.
    fn note_add(&mut self, edge_id: usize, edges: &[Edge]) {
        let mut lost_unique = Vec::new(); // items whose degree went 1 → 2
        for j in edges[edge_id].items.iter() {
            self.adj[j].push(edge_id); // edge_id exceeds every existing id
            if self.degrees[j] == 1 {
                lost_unique.push(j);
            }
            self.raise_degree(j);
        }
        self.unique_item_flags
            .push(self.recompute_flag(edge_id, edges));
        for j in lost_unique {
            // Degree is now 2: the other holder may have lost its last
            // unique item.
            let other = self.adj[j][0];
            debug_assert_ne!(other, edge_id);
            self.unique_item_flags[other] = self.recompute_flag(other, edges);
        }
    }

    /// Patches the index after `edges.swap_remove(slot)` removed `removed`;
    /// `moved_from` is the former id of the edge now living at `slot` (if
    /// any). O(|removed| + |moved|) plus flag repairs for the edges that
    /// gain a unique item.
    fn note_remove(
        &mut self,
        slot: usize,
        removed: &Edge,
        moved_from: Option<usize>,
        edges: &[Edge],
    ) {
        let mut gained_unique = Vec::new(); // items whose degree went 2 → 1
        for j in removed.items.iter() {
            sorted_remove(&mut self.adj[j], slot);
            self.lower_degree(j);
            if self.degrees[j] == 1 {
                gained_unique.push(j);
            }
        }
        self.unique_item_flags.swap_remove(slot);
        if let Some(from) = moved_from {
            for j in edges[slot].items.iter() {
                sorted_remove(&mut self.adj[j], from); // `from` was the max id
                sorted_insert(&mut self.adj[j], slot);
            }
        }
        for j in gained_unique {
            // Exactly one holder remains (renumbered above if it moved).
            let only = self.adj[j][0];
            self.unique_item_flags[only] = true;
        }
    }

    /// Per-item degrees (number of hyperedges containing each item).
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Maximum item degree `B`.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Items that appear in at least one hyperedge, in increasing order.
    pub fn active_items(&self) -> &[usize] {
        &self.active_items
    }

    /// The indices of the edges containing `item`, in increasing order.
    pub fn edges_containing(&self, item: usize) -> &[usize] {
        &self.adj[item]
    }

    /// For every edge, whether it contains an item of degree 1.
    pub fn unique_item_flags(&self) -> &[bool] {
        &self.unique_item_flags
    }
}

/// One structural or valuation mutation inside a [`HypergraphDelta`].
#[derive(Debug, Clone)]
pub enum DeltaOp {
    /// Append a hyperedge (see [`Hypergraph::add_edge_set`]).
    AddEdge {
        /// The new edge's bundle.
        items: ItemSet,
        /// The new edge's valuation (finite and ≥ 0).
        valuation: f64,
    },
    /// Swap-remove the edge at `edge` (see [`Hypergraph::remove_edge`]).
    RemoveEdge {
        /// Index of the edge to remove, valid at the moment this op applies.
        edge: usize,
    },
    /// Replace the valuation of the edge at `edge`.
    RevalueEdge {
        /// Index of the edge to revalue, valid at the moment this op applies.
        edge: usize,
        /// The new valuation (finite and ≥ 0).
        valuation: f64,
    },
}

/// An ordered batch of hypergraph mutations, applied atomically (from the
/// caller's perspective) by [`Hypergraph::apply_delta`].
///
/// Edge indices inside the batch refer to the hypergraph state **at the
/// moment the op applies** — a `remove_edge(3)` after two `add_edge`s sees
/// the two new edges already appended.
#[derive(Debug, Clone, Default)]
pub struct HypergraphDelta {
    ops: Vec<DeltaOp>,
}

impl HypergraphDelta {
    /// An empty delta.
    pub fn new() -> HypergraphDelta {
        HypergraphDelta::default()
    }

    /// Queues an edge addition.
    pub fn add_edge(&mut self, items: ItemSet, valuation: f64) -> &mut Self {
        self.ops.push(DeltaOp::AddEdge { items, valuation });
        self
    }

    /// Queues a (swap-)removal of the edge at `edge`.
    pub fn remove_edge(&mut self, edge: usize) -> &mut Self {
        self.ops.push(DeltaOp::RemoveEdge { edge });
        self
    }

    /// Queues a valuation replacement for the edge at `edge`.
    pub fn revalue_edge(&mut self, edge: usize, valuation: f64) -> &mut Self {
        self.ops.push(DeltaOp::RevalueEdge { edge, valuation });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued operations, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Drops all queued operations.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

/// The log entry [`Hypergraph::apply_delta`] emits per applied [`DeltaOp`] —
/// everything an incremental repricer needs to patch its state without
/// rescanning the graph.
#[derive(Debug, Clone)]
pub enum AppliedOp {
    /// An edge was appended.
    Added {
        /// The new edge's index.
        edge: usize,
        /// The new edge's bundle size `|e|`.
        size: usize,
        /// The new edge's valuation.
        valuation: f64,
    },
    /// An edge was swap-removed.
    Removed {
        /// The removed edge (by value — the graph no longer owns it).
        edge: Edge,
        /// `Some((from, to))` when the former last edge was renumbered from
        /// index `from` to the vacated slot `to`; `None` when the removed
        /// edge was the last one.
        moved: Option<(usize, usize)>,
    },
    /// An edge's valuation was replaced.
    Revalued {
        /// The revalued edge's index **at the moment the op applied** — a
        /// later removal in the same batch may renumber or delete it, which
        /// is why the op carries the bundle size instead of leaving
        /// consumers to re-read it from the final graph.
        edge: usize,
        /// The revalued edge's bundle size `|e|`.
        size: usize,
        /// The previous valuation.
        old: f64,
        /// The new valuation.
        new: f64,
    },
}

/// Summary statistics of a hypergraph (Table 3 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct HypergraphStats {
    /// Number of items `n = |S|`.
    pub num_items: usize,
    /// Number of hyperedges (queries) `m`.
    pub num_edges: usize,
    /// Maximum item degree `B`.
    pub max_degree: usize,
    /// Average hyperedge size.
    pub avg_edge_size: f64,
    /// Number of empty hyperedges.
    pub empty_edges: usize,
    /// Number of hyperedges that contain at least one item unique to them.
    pub edges_with_unique_item: usize,
}

impl Hypergraph {
    /// Creates a hypergraph over `num_items` items with no edges.
    pub fn new(num_items: usize) -> Self {
        Hypergraph {
            num_items,
            edges: Vec::new(),
            index: OnceLock::new(),
            lp_prices: LpPriceMemo::default(),
        }
    }

    /// Adds a hyperedge over `items` with valuation `valuation`; returns its
    /// index. Duplicate item indices collapse (the bundle is a set); indices
    /// beyond the current item count grow the vertex set.
    pub fn add_edge<I: IntoIterator<Item = usize>>(&mut self, items: I, valuation: f64) -> usize {
        self.add_edge_set(items.into_iter().collect(), valuation)
    }

    /// Adds a hyperedge that is already an [`ItemSet`] (the fast path used by
    /// the conflict engines — no intermediate `Vec`).
    ///
    /// A built [`ItemIndex`] is patched in place in O(|e|); an unbuilt one
    /// stays unbuilt, and the LP price memo is emptied (see the module docs
    /// for the maintenance rules).
    ///
    /// # Panics
    ///
    /// Panics if `valuation` is negative or not finite.
    pub fn add_edge_set(&mut self, items: ItemSet, valuation: f64) -> usize {
        check_valuation(valuation);
        if let Some(max) = items.max_item() {
            self.num_items = self.num_items.max(max + 1);
        }
        self.lp_prices = LpPriceMemo::default();
        self.edges.push(Edge { items, valuation });
        let id = self.edges.len() - 1;
        if let Some(index) = self.index.get_mut() {
            index.ensure_items(self.num_items);
            index.note_add(id, &self.edges);
        }
        id
    }

    /// Removes the edge at `idx` by **swap-removal**: the last edge is
    /// renumbered to `idx` (O(1) edge movement), and a built [`ItemIndex`]
    /// is patched in place in O(|removed| + |moved|). The vertex set never
    /// shrinks — items keep their indices even at degree 0.
    ///
    /// Returns the removed edge.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn remove_edge(&mut self, idx: usize) -> Edge {
        self.remove_edge_tracked(idx).0
    }

    /// [`Hypergraph::remove_edge`] plus the `(from, to)` renumbering the
    /// swap performed, if any — the single source of truth for the
    /// `AppliedOp::Removed::moved` field.
    fn remove_edge_tracked(&mut self, idx: usize) -> (Edge, Option<(usize, usize)>) {
        assert!(idx < self.edges.len(), "remove_edge: index out of range");
        let last = self.edges.len() - 1;
        let moved = (idx != last).then_some((last, idx));
        let removed = self.edges.swap_remove(idx);
        self.lp_prices = LpPriceMemo::default();
        if let Some(index) = self.index.get_mut() {
            index.note_remove(idx, &removed, moved.map(|(from, _)| from), &self.edges);
        }
        (removed, moved)
    }

    /// Replaces the valuation of the edge at `idx`, returning the old value.
    /// Valuations are not part of the [`ItemIndex`], so the cached index
    /// survives untouched; the LP price memo is emptied.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `valuation` is negative or not
    /// finite.
    pub fn revalue_edge(&mut self, idx: usize, valuation: f64) -> f64 {
        check_valuation(valuation);
        self.lp_prices = LpPriceMemo::default();
        std::mem::replace(&mut self.edges[idx].valuation, valuation)
    }

    /// Applies a batch of mutations in order (see [`HypergraphDelta`] for
    /// the index semantics) and returns the per-op [`AppliedOp`] log that
    /// incremental repricers consume.
    ///
    /// Cost is O(Σ|e| over touched edges) — a built [`ItemIndex`] is patched
    /// op by op, never rebuilt.
    pub fn apply_delta(&mut self, delta: HypergraphDelta) -> Vec<AppliedOp> {
        let mut delta = delta;
        let mut applied = Vec::with_capacity(delta.ops.len());
        self.apply_delta_drain(&mut delta, &mut applied);
        applied
    }

    /// [`Hypergraph::apply_delta`] draining a caller-owned delta into a
    /// caller-owned log, so a steady-state caller (the simulator's demand
    /// window, once per tick) reuses both buffers instead of allocating
    /// them anew. `delta` is left empty and ready to refill; `ops` is
    /// cleared first and holds the same per-op log `apply_delta` returns.
    pub fn apply_delta_drain(&mut self, delta: &mut HypergraphDelta, ops: &mut Vec<AppliedOp>) {
        ops.clear();
        ops.reserve(delta.ops.len());
        for op in delta.ops.drain(..) {
            match op {
                DeltaOp::AddEdge { items, valuation } => {
                    let edge = self.add_edge_set(items, valuation);
                    ops.push(AppliedOp::Added {
                        edge,
                        size: self.edges[edge].size(),
                        valuation,
                    });
                }
                DeltaOp::RemoveEdge { edge } => {
                    let (removed, moved) = self.remove_edge_tracked(edge);
                    ops.push(AppliedOp::Removed {
                        edge: removed,
                        moved,
                    });
                }
                DeltaOp::RevalueEdge { edge, valuation } => {
                    let old = self.revalue_edge(edge, valuation);
                    ops.push(AppliedOp::Revalued {
                        edge,
                        size: self.edges[edge].size(),
                        old,
                        new: valuation,
                    });
                }
            }
        }
    }

    /// Number of items `n`.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of hyperedges `m`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The hyperedges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// A single hyperedge.
    pub fn edge(&self, idx: usize) -> &Edge {
        &self.edges[idx]
    }

    /// The aggregate item index, building it on first use.
    pub fn item_index(&self) -> &ItemIndex {
        self.index
            .get_or_init(|| ItemIndex::build(self.num_items, &self.edges))
    }

    /// The memoized LPIP / CIP outcomes (see the module docs).
    pub(crate) fn lp_prices(&self) -> &LpPriceMemo {
        &self.lp_prices
    }

    /// Replaces every valuation using `f(edge index, edge) -> new valuation`.
    ///
    /// Valuations are not part of the [`ItemIndex`], so the cached index
    /// survives this call; the LP price memo is emptied.
    ///
    /// # Panics
    ///
    /// Panics if a new valuation is negative or not finite.
    pub fn set_valuations<F: FnMut(usize, &Edge) -> f64>(&mut self, mut f: F) {
        self.lp_prices = LpPriceMemo::default();
        for i in 0..self.edges.len() {
            let v = f(i, &self.edges[i]);
            check_valuation(v);
            self.edges[i].valuation = v;
        }
    }

    /// Sum of all valuations — the coarse revenue upper bound used throughout
    /// the paper.
    pub fn total_valuation(&self) -> f64 {
        self.edges.iter().map(|e| e.valuation).sum()
    }

    /// Per-item degrees (number of hyperedges containing each item).
    /// O(1) after the first aggregate query on this structure.
    pub fn item_degrees(&self) -> &[usize] {
        self.item_index().degrees()
    }

    /// Maximum item degree `B`. O(1) after the first aggregate query.
    pub fn max_degree(&self) -> usize {
        self.item_index().max_degree()
    }

    /// Items that appear in at least one hyperedge, in increasing order.
    pub fn active_items(&self) -> &[usize] {
        self.item_index().active_items()
    }

    /// The indices of the edges containing `item`.
    pub fn edges_containing(&self, item: usize) -> &[usize] {
        self.item_index().edges_containing(item)
    }

    /// For every edge, whether it contains an item that belongs to no other
    /// edge ("unique item" in the paper's layering analysis).
    pub fn edges_with_unique_item(&self) -> &[bool] {
        self.item_index().unique_item_flags()
    }

    /// Summary statistics (Table 3 / Figure 4 of the paper).
    pub fn stats(&self) -> HypergraphStats {
        let sizes: Vec<usize> = self.edges.iter().map(|e| e.size()).collect();
        let avg = if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
        };
        HypergraphStats {
            num_items: self.num_items,
            num_edges: self.edges.len(),
            max_degree: self.max_degree(),
            avg_edge_size: avg,
            empty_edges: sizes.iter().filter(|&&s| s == 0).count(),
            edges_with_unique_item: self.edges_with_unique_item().iter().filter(|&&b| b).count(),
        }
    }

    /// Histogram of edge sizes — the data behind Figure 4. Bins have equal
    /// width `ceil(max_size / buckets)` and cover `[0, max_size]` inclusive
    /// (so up to `buckets + 1` entries, fewer when `max_size < buckets`).
    /// Each entry is `(lower bound of the bin, count)`; bins are derived
    /// from the actual maximum edge size, so no empty trailing bins past
    /// `max_size` are emitted and every label is a size that can occur.
    pub fn edge_size_histogram(&self, buckets: usize) -> Vec<(usize, usize)> {
        assert!(buckets > 0);
        let max_size = self.edges.iter().map(|e| e.size()).max().unwrap_or(0);
        let width = max_size.div_ceil(buckets).max(1);
        let bins = max_size / width + 1;
        let mut hist = vec![0usize; bins];
        for e in &self.edges {
            hist[e.size() / width] += 1;
        }
        hist.into_iter()
            .enumerate()
            .map(|(b, count)| (b * width, count))
            .collect()
    }

    /// Restricts the hypergraph to the first `k` items: every edge keeps only
    /// items `< k`. Models shrinking the support set (Figure 8).
    pub fn restrict_items(&self, k: usize) -> Hypergraph {
        let mut h = Hypergraph::new(k.min(self.num_items));
        for e in &self.edges {
            h.edges.push(Edge {
                items: e.items.restricted_below(k),
                valuation: e.valuation,
            });
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        let mut h = Hypergraph::new(5);
        h.add_edge(vec![0, 1], 10.0);
        h.add_edge(vec![1, 2, 3], 6.0);
        h.add_edge(vec![4], 3.0);
        h.add_edge(Vec::<usize>::new(), 1.0);
        h
    }

    #[test]
    fn add_edge_dedups_and_grows() {
        let mut h = Hypergraph::new(2);
        let idx = h.add_edge(vec![3, 1, 3], 2.0);
        assert_eq!(idx, 0);
        assert_eq!(h.edge(0).items_vec(), vec![1, 3]);
        assert_eq!(h.num_items(), 4);
        assert_eq!(h.edge(0).size(), 2);
        assert!(h.edge(0).items.contains(3));
        assert!(!h.edge(0).items.contains(2));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_valuations_rejected() {
        let mut h = Hypergraph::new(1);
        h.add_edge(vec![0], -1.0);
    }

    #[test]
    fn degrees_and_stats() {
        let h = sample();
        assert_eq!(h.num_edges(), 4);
        assert_eq!(h.item_degrees(), vec![1, 2, 1, 1, 1]);
        assert_eq!(h.max_degree(), 2);
        assert_eq!(h.total_valuation(), 20.0);
        assert_eq!(h.active_items(), vec![0, 1, 2, 3, 4]);
        let stats = h.stats();
        assert_eq!(stats.num_edges, 4);
        assert_eq!(stats.max_degree, 2);
        assert_eq!(stats.empty_edges, 1);
        assert!((stats.avg_edge_size - 1.5).abs() < 1e-12);
        // Edges 0,1,2 all contain a unique item; the empty edge does not.
        assert_eq!(stats.edges_with_unique_item, 3);
    }

    #[test]
    fn unique_item_detection() {
        let h = sample();
        assert_eq!(h.edges_with_unique_item(), vec![true, true, true, false]);
    }

    #[test]
    fn csr_adjacency_lists_the_right_edges() {
        let h = sample();
        assert_eq!(h.edges_containing(1), &[0, 1]);
        assert_eq!(h.edges_containing(0), &[0]);
        assert_eq!(h.edges_containing(4), &[2]);
        let idx = h.item_index();
        assert_eq!(idx.max_degree(), 2);
        assert_eq!(idx.degrees()[1], 2);
    }

    #[test]
    fn index_is_maintained_across_structural_changes() {
        let mut h = sample();
        assert_eq!(h.max_degree(), 2); // builds the index
        h.add_edge(vec![1, 4], 2.0); // structural: patched in place
        assert_eq!(h.max_degree(), 3);
        assert_eq!(h.edges_containing(4), &[2, 4]);
        h.set_valuations(|_, e| e.valuation * 2.0); // non-structural
        assert_eq!(h.max_degree(), 3);
        assert_eq!(h.total_valuation(), 44.0);
    }

    #[test]
    fn remove_edge_swap_removes_and_patches_the_index() {
        let mut h = sample();
        h.add_edge(vec![1, 4], 2.0); // edge 4
        assert_eq!(h.max_degree(), 3); // item 1 in edges 0, 1, 4

        // Remove edge 1 ({1,2,3}): edge 4 ({1,4}) is renumbered to slot 1.
        let removed = h.remove_edge(1);
        assert_eq!(removed.items_vec(), vec![1, 2, 3]);
        assert_eq!(removed.valuation, 6.0);
        assert_eq!(h.num_edges(), 4);
        assert_eq!(h.edge(1).items_vec(), vec![1, 4]);

        // The patched index must agree with a from-scratch rebuild.
        assert_eq!(h.max_degree(), 2);
        assert_eq!(h.item_degrees(), vec![1, 2, 0, 0, 2]);
        assert_eq!(h.edges_containing(1), &[0, 1]);
        assert_eq!(h.edges_containing(4), &[1, 2]);
        assert_eq!(h.active_items(), vec![0, 1, 4]);
        let mut rebuilt = Hypergraph::new(h.num_items());
        for e in h.edges() {
            rebuilt.add_edge_set(e.items.clone(), e.valuation);
        }
        assert_eq!(h.item_index(), rebuilt.item_index());

        // Removing the current last edge needs no renumbering.
        let last = h.num_edges() - 1;
        h.remove_edge(last);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.max_degree(), 2);
    }

    #[test]
    fn remove_edge_restores_unique_item_flags() {
        // Items 0 and 1 shared by two edges each; removing one of the two
        // makes the survivor's items unique again.
        let mut h = Hypergraph::new(2);
        h.add_edge(vec![0, 1], 4.0);
        h.add_edge(vec![0, 1], 3.0);
        assert_eq!(h.edges_with_unique_item(), vec![false, false]);
        h.remove_edge(0);
        assert_eq!(h.edges_with_unique_item(), vec![true]);
        assert_eq!(h.edge(0).valuation, 3.0);
    }

    /// How many LP outcomes (LPIP, CIP; at most one each) `h` memoizes.
    fn memoized(h: &Hypergraph) -> usize {
        let memo = &h.lp_prices;
        usize::from(memo.lpip.get().is_some()) + usize::from(memo.cip.get().is_some())
    }

    #[test]
    fn every_mutation_empties_the_lp_memo_and_clone_starts_empty() {
        use crate::algorithms::{xos_pricing, CipConfig, LpipConfig};
        let (lpip, cip) = (LpipConfig::default(), CipConfig::default());
        let mut h = sample();
        let fill = |h: &Hypergraph| {
            xos_pricing(h, &lpip, &cip);
            assert_eq!(memoized(h), 2, "XOS fills both slots");
        };
        type Mutation = (&'static str, fn(&mut Hypergraph));
        let mutations: [Mutation; 5] = [
            ("add_edge_set", |h| {
                h.add_edge(vec![0, 4], 2.0);
            }),
            ("remove_edge", |h| {
                h.remove_edge(0);
            }),
            ("revalue_edge", |h| {
                h.revalue_edge(0, 8.0);
            }),
            ("set_valuations", |h| {
                h.set_valuations(|_, e| e.valuation + 1.0)
            }),
            ("apply_delta", |h| {
                let mut delta = HypergraphDelta::new();
                delta.revalue_edge(0, 4.0);
                h.apply_delta(delta);
            }),
        ];
        for (name, mutate) in mutations {
            fill(&h);
            mutate(&mut h);
            assert_eq!(memoized(&h), 0, "{name} must empty the memo");
        }

        fill(&h);
        let mut copy = h.clone();
        assert_eq!(memoized(&copy), 0, "a clone starts with an empty memo");
        assert_eq!(memoized(&h), 2, "cloning leaves the original's memo");
        fill(&copy);
        copy.revalue_edge(0, 1.0);
        assert_eq!(
            memoized(&h),
            2,
            "mutating a clone leaves the original's memo"
        );
    }

    #[test]
    fn apply_delta_logs_every_op_with_swap_semantics() {
        let mut h = sample();
        h.item_index(); // force the index so the delta path patches it

        let mut delta = HypergraphDelta::new();
        delta
            .add_edge([1usize, 4].into_iter().collect(), 7.0)
            .revalue_edge(0, 12.5)
            .remove_edge(1);
        assert_eq!(delta.len(), 3);
        let ops = h.apply_delta(delta);
        assert_eq!(ops.len(), 3);
        assert!(matches!(
            ops[0],
            AppliedOp::Added {
                edge: 4,
                size: 2,
                valuation
            } if valuation == 7.0
        ));
        assert!(matches!(
            ops[1],
            AppliedOp::Revalued { edge: 0, old, new, .. } if old == 10.0 && new == 12.5
        ));
        // Removing edge 1 of 5: the added edge (index 4) fills the slot.
        let AppliedOp::Removed { edge, moved } = &ops[2] else {
            panic!("third op must be a removal");
        };
        assert_eq!(edge.items_vec(), vec![1, 2, 3]);
        assert_eq!(*moved, Some((4, 1)));
        assert_eq!(h.edge(1).items_vec(), vec![1, 4]);
        assert_eq!(h.edge(0).valuation, 12.5);

        let mut rebuilt = Hypergraph::new(h.num_items());
        for e in h.edges() {
            rebuilt.add_edge_set(e.items.clone(), e.valuation);
        }
        assert_eq!(h.item_index(), rebuilt.item_index());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_edge_rejects_bad_indices() {
        let mut h = sample();
        h.remove_edge(99);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn revalue_edge_rejects_negative_valuations() {
        let mut h = sample();
        h.revalue_edge(0, -2.0);
    }

    #[test]
    fn every_mutation_rejects_non_finite_valuations() {
        type Mutation = fn(&mut Hypergraph, f64);
        let paths: [(&str, Mutation); 5] = [
            ("add_edge", |h, v| {
                h.add_edge(vec![0], v);
            }),
            ("revalue_edge", |h, v| {
                h.revalue_edge(0, v);
            }),
            ("set_valuations", |h, v| h.set_valuations(|_, _| v)),
            ("delta add_edge", |h, v| {
                let mut delta = HypergraphDelta::new();
                delta.add_edge([1].into_iter().collect(), v);
                h.apply_delta(delta);
            }),
            ("delta revalue_edge", |h, v| {
                let mut delta = HypergraphDelta::new();
                delta.revalue_edge(1, v);
                h.apply_delta(delta);
            }),
        ];
        for v in [f64::INFINITY, f64::NAN] {
            for (name, mutate) in paths {
                let mut h = sample();
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mutate(&mut h, v)));
                let message = outcome
                    .expect_err(name)
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string());
                assert_eq!(
                    message.as_deref(),
                    Some("valuations must be finite and non-negative"),
                    "{name} with {v}"
                );
            }
        }
    }

    #[test]
    fn histogram_covers_all_edges() {
        let h = sample();
        let hist = h.edge_size_histogram(3);
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, h.num_edges());
    }

    #[test]
    fn histogram_trims_bins_to_the_actual_max_size() {
        // max edge size 2 with 10 requested buckets: the old implementation
        // emitted 11 bins with labels up to 10; now bins stop at max_size.
        let mut h = Hypergraph::new(3);
        h.add_edge(vec![0], 1.0);
        h.add_edge(vec![0, 1], 1.0);
        h.add_edge(vec![1, 2], 1.0);
        let hist = h.edge_size_histogram(10);
        assert_eq!(hist, vec![(0, 0), (1, 1), (2, 2)]);

        // Wide edges still bucket with equal widths derived from max_size.
        let mut wide = Hypergraph::new(9);
        wide.add_edge(0..9, 1.0); // size 9
        wide.add_edge(0..2, 1.0); // size 2
        let hist = wide.edge_size_histogram(3);
        assert_eq!(hist, vec![(0, 1), (3, 0), (6, 0), (9, 1)]);
    }

    #[test]
    fn restrict_items_drops_high_indices() {
        let h = sample();
        let r = h.restrict_items(2);
        assert_eq!(r.num_items(), 2);
        assert_eq!(r.edge(0).items_vec(), vec![0, 1]);
        assert_eq!(r.edge(1).items_vec(), vec![1]);
        assert_eq!(r.edge(2).items_vec(), Vec::<usize>::new());
        // Valuations are preserved.
        assert_eq!(r.edge(1).valuation, 6.0);
    }

    #[test]
    fn set_valuations_rewrites_in_place() {
        let mut h = sample();
        h.set_valuations(|_, e| e.size() as f64 * 2.0);
        assert_eq!(h.edge(0).valuation, 4.0);
        assert_eq!(h.edge(3).valuation, 0.0);
    }
}

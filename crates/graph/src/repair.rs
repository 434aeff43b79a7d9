//! The repair kernel: patch a shortest-path tree for one failed or
//! restored edge instead of searching again.
//!
//! Under a tie-free weight function (Theorem 20) every selected path is
//! the unique shortest path, so failing edge `e` changes a tree only in
//! the subtree hanging below `e`: a path that avoided `e` is still there,
//! and every other route costs strictly more than it did. Restoring `e`
//! changes only the region `e` strictly improves. [`RepairScratch`]
//! computes exactly that change over a *base* tree it never writes:
//!
//! * **arrival** ([`RepairScratch::arrival`]): detach the subtree below
//!   `e` ([`tree_edge_child`], [`SubtreeScratch`]), seed it from every
//!   edge crossing the cut (best-swap selection), and settle it in the
//!   engine's `(cost, vertex)` order;
//! * **repair** ([`RepairScratch::repair`]): relax `e` at its endpoints
//!   and propagate the decrease until the wave dries up.
//!
//! Both steps **refuse** with [`Tie`] on any equal-cost candidate instead
//! of guessing, so a successful step is forced to reproduce the tree a
//! fresh [`crate::dijkstra_into`] selects. Results live in a dense,
//! epoch-stamped overlay over the base: a read is one stamp check, then
//! the overlay cell or the base's. The base is any [`TreeCells`] — a
//! finished [`SearchScratch`] (the offline sweep, [`crate::dijkstra_sweep`])
//! or a stored tree row (`rsp_oracle`'s delta commits, which load the
//! row's replaced cells with [`RepairScratch::set`] first).
//!
//! # Examples
//!
//! Fail a tree edge and patch the tree instead of searching again:
//!
//! ```
//! use rsp_graph::repair::RepairScratch;
//! use rsp_graph::{dijkstra_into, generators, FaultSet, SearchScratch};
//!
//! let g = generators::grid(4, 4);
//! let cost = |e: usize, u: usize, v: usize| 1_000u64 + 7 * e as u64 + u64::from(u < v);
//! let mut base = SearchScratch::new();
//! dijkstra_into(&g, 0, &FaultSet::empty(), cost, &mut base);
//! assert!(!base.ties_detected());
//!
//! let e = g.edge_between(0, 1).unwrap();
//! let faults = FaultSet::single(e);
//! let mut kernel = RepairScratch::new();
//! kernel.begin(g.n());
//! assert_eq!(kernel.arrival(&g, &base, e, &faults, &mut { cost }), Ok(true));
//!
//! let mut fresh = SearchScratch::new();
//! dijkstra_into(&g, 0, &faults, cost, &mut fresh);
//! for v in g.vertices() {
//!     assert_eq!(kernel.parent(&g, &base, v), fresh.parent(v));
//!     assert_eq!(kernel.cost(&base, v), fresh.cost(v));
//! }
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use rsp_arith::PathCost;

use crate::fault::FaultSet;
use crate::graph::{EdgeId, Graph, Vertex};
use crate::scratch::{EdgeCostSource, SearchScratch};
use crate::tree::{tree_edge_child, SubtreeScratch};

/// Cell sentinel: "no parent edge" (the root, unreachable vertices) and
/// "unreachable" (hop count). Graph sizes stay below `u32::MAX`, so it
/// never collides with a real edge id or hop count.
pub const NONE: u32 = u32::MAX;

/// One tree cell, owned: parent edge, hop count and exact cost. The
/// parent vertex is the parent edge's other endpoint.
#[derive(Clone, Debug)]
pub struct Cell<C> {
    /// Edge id to the parent, [`NONE`] for the root and unreachable
    /// vertices.
    pub parent_edge: u32,
    /// Hop count from the root, [`NONE`] when unreachable.
    pub hops: u32,
    /// Exact path cost; meaningful only where `hops` is not [`NONE`].
    pub cost: C,
}

impl<C: PathCost> Cell<C> {
    /// The unreached cell.
    pub fn unreached() -> Self {
        Cell { parent_edge: NONE, hops: NONE, cost: C::zero() }
    }
}

/// Read access to the cells of a base tree the kernel patches over.
pub trait TreeCells<C> {
    /// `v`'s hop count, [`NONE`] when unreachable.
    fn hops(&self, v: Vertex) -> u32;
    /// `v`'s exact cost; read only where [`TreeCells::hops`] is not
    /// [`NONE`].
    fn cost(&self, v: Vertex) -> &C;
    /// `v`'s parent edge, [`NONE`] for the root and unreachable vertices.
    fn parent_edge(&self, v: Vertex) -> u32;
}

/// A finished [`crate::dijkstra_into`] run is a base tree.
impl<C: PathCost> TreeCells<C> for SearchScratch<C> {
    #[inline]
    fn hops(&self, v: Vertex) -> u32 {
        SearchScratch::hops(self, v).unwrap_or(NONE)
    }

    #[inline]
    fn cost(&self, v: Vertex) -> &C {
        &self.key[v]
    }

    #[inline]
    fn parent_edge(&self, v: Vertex) -> u32 {
        self.parent(v).map_or(NONE, |(_, e)| e as u32)
    }
}

/// The kernel refused a step: an equal-cost candidate surfaced, so the
/// selected tree is not forced there. Search instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tie;

/// The patched cells over a base tree: `cells[v]` is current iff
/// `stamp[v] == epoch`; every other cell is the base's.
#[derive(Clone, Debug)]
struct Overlay<C> {
    stamp: Vec<u32>,
    epoch: u32,
    cells: Vec<Cell<C>>,
    /// Vertices written since `begin`, once each.
    touched: Vec<u32>,
}

impl<C: PathCost> Overlay<C> {
    #[inline]
    fn stamped(&self, v: Vertex) -> Option<&Cell<C>> {
        (self.stamp[v] == self.epoch).then(|| &self.cells[v])
    }

    #[inline]
    fn read<'a, B: TreeCells<C>>(&'a self, base: &'a B, v: Vertex) -> (u32, &'a C) {
        match self.stamped(v) {
            Some(c) => (c.hops, &c.cost),
            None => (base.hops(v), base.cost(v)),
        }
    }

    #[inline]
    fn parent(&self, g: &Graph, base: &impl TreeCells<C>, v: Vertex) -> Option<(Vertex, EdgeId)> {
        let e = self.stamped(v).map_or_else(|| base.parent_edge(v), |c| c.parent_edge);
        if e == NONE {
            return None;
        }
        let (a, b) = g.endpoints(e as EdgeId);
        Some((if a == v { b } else { a }, e as EdgeId))
    }

    fn set(&mut self, v: Vertex, cell: Cell<C>) {
        if self.stamp[v] != self.epoch {
            self.stamp[v] = self.epoch;
            self.touched.push(v as u32);
        }
        self.cells[v] = cell;
    }
}

/// Reusable state of the repair kernel: the overlay, the `(cost,
/// vertex)` heap and the subtree scratch — allocated once, reused across
/// every step. See the [module docs](self).
///
/// Steps accumulate in the overlay until the next
/// [`RepairScratch::begin`], so several faults apply in sequence, each
/// against the tree the previous ones left.
#[derive(Clone, Debug)]
pub struct RepairScratch<C> {
    overlay: Overlay<C>,
    heap: BinaryHeap<Reverse<(C, u32)>>,
    subtree: SubtreeScratch,
    detached: Vec<Vertex>,
    adopted: usize,
}

impl<C: PathCost> Default for RepairScratch<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: PathCost> RepairScratch<C> {
    /// An empty kernel; buffers grow on first use ([`RepairScratch::begin`]).
    pub fn new() -> Self {
        let overlay = Overlay { stamp: vec![], epoch: 0, cells: vec![], touched: vec![] };
        let heap = BinaryHeap::new();
        RepairScratch {
            overlay,
            heap,
            subtree: SubtreeScratch::new(),
            detached: vec![],
            adopted: 0,
        }
    }

    /// Empties the overlay in O(1) for a new base tree of `n` vertices:
    /// every cell reads as the base's again.
    pub fn begin(&mut self, n: usize) {
        let o = &mut self.overlay;
        if o.stamp.len() < n {
            o.stamp.resize(n, 0);
            o.cells.resize_with(n, Cell::unreached);
        }
        o.epoch = o.epoch.checked_add(1).unwrap_or_else(|| {
            o.stamp.fill(0);
            1
        });
        o.touched.clear();
    }

    /// Writes `v`'s cell into the overlay: how a caller loads cells its
    /// base does not hold (a stored row's replaced cells).
    pub fn set(&mut self, v: Vertex, cell: Cell<C>) {
        self.overlay.set(v, cell);
    }

    /// `v`'s hop count over `base`, or `None` when unreachable.
    #[inline]
    pub fn hops(&self, base: &impl TreeCells<C>, v: Vertex) -> Option<u32> {
        let h = self.overlay.read(base, v).0;
        (h != NONE).then_some(h)
    }

    /// `v`'s exact cost over `base`, or `None` when unreachable.
    #[inline]
    pub fn cost<'a, B: TreeCells<C>>(&'a self, base: &'a B, v: Vertex) -> Option<&'a C> {
        let (h, c) = self.overlay.read(base, v);
        (h != NONE).then_some(c)
    }

    /// `v`'s parent over `base` as `(vertex, edge id)`, or `None` for the
    /// root and unreachable vertices.
    #[inline]
    pub fn parent(
        &self,
        g: &Graph,
        base: &impl TreeCells<C>,
        v: Vertex,
    ) -> Option<(Vertex, EdgeId)> {
        self.overlay.parent(g, base, v)
    }

    /// The cells written since [`RepairScratch::begin`] (loaded, cleared
    /// or adopted), sorted by vertex.
    pub fn cells(&mut self) -> impl Iterator<Item = (u32, &Cell<C>)> + '_ {
        self.overlay.touched.sort_unstable();
        self.written()
    }

    /// [`RepairScratch::cells`] in write order.
    pub(crate) fn written(&self) -> impl Iterator<Item = (u32, &Cell<C>)> + '_ {
        let cells = &self.overlay.cells;
        self.overlay.touched.iter().map(move |&v| (v, &cells[v as usize]))
    }

    /// Cells adopted by every step so far (one `(parent, hops, cost)`
    /// write each): the work the kernel did.
    pub fn adopted(&self) -> usize {
        self.adopted
    }

    /// Applies the failure of `e` to the tree (base under overlay).
    /// `faults` holds every failed edge, `e` included; the wave never
    /// crosses one.
    ///
    /// Returns `Ok(false)` when `e` is not a tree edge (nothing changes),
    /// `Ok(true)` once the subtree below `e` is reattached. Detached
    /// vertices the wave never reaches are left unreachable.
    ///
    /// # Errors
    ///
    /// [`Tie`] on any equal-cost candidate; the overlay is then partial
    /// and must be discarded with [`RepairScratch::begin`].
    pub fn arrival(
        &mut self,
        g: &Graph,
        base: &impl TreeCells<C>,
        e: EdgeId,
        faults: &FaultSet,
        costs: &mut impl EdgeCostSource<C>,
    ) -> Result<bool, Tie> {
        let overlay = &self.overlay;
        let Some(child) = tree_edge_child(g, e, |v| overlay.parent(g, base, v)) else {
            return Ok(false);
        };
        self.subtree.collect_subtree(g, child, |v| overlay.parent(g, base, v), &mut self.detached);
        for &w in &self.detached {
            self.overlay.set(w, Cell::unreached());
        }
        // Seed every edge into the subtree from a reached vertex outside
        // it. Intra-subtree edges are the wave's job: relaxing one here
        // would replay the identical candidate later as a spurious tie.
        self.heap.clear();
        for i in 0..self.detached.len() {
            let w = self.detached[i];
            for (x, e) in g.neighbors(w) {
                if faults.contains(e)
                    || self.subtree.contains(x)
                    || self.overlay.read(base, x).0 == NONE
                {
                    continue;
                }
                self.relax(base, costs, x, e, w)?;
            }
        }
        self.wave(g, base, faults, costs)?;
        Ok(true)
    }

    /// Applies the restoration of `e` to the tree (base under overlay).
    /// `faults` no longer holds `e`.
    ///
    /// Returns `Ok(false)` when `e` strictly improves neither endpoint
    /// (nothing changes), `Ok(true)` once the improved region is
    /// re-settled.
    ///
    /// # Errors
    ///
    /// [`Tie`] on any equal-cost candidate, as for
    /// [`RepairScratch::arrival`].
    pub fn repair(
        &mut self,
        g: &Graph,
        base: &impl TreeCells<C>,
        e: EdgeId,
        faults: &FaultSet,
        costs: &mut impl EdgeCostSource<C>,
    ) -> Result<bool, Tie> {
        let (u, v) = g.endpoints(e);
        self.heap.clear();
        // At most one endpoint can improve (positive costs): once one
        // does, the other's candidate runs back through it.
        for (from, to) in [(u, v), (v, u)] {
            if self.heap.is_empty() && self.overlay.read(base, from).0 != NONE {
                self.relax(base, costs, from, e, to)?;
            }
        }
        if self.heap.is_empty() {
            return Ok(false);
        }
        self.wave(g, base, faults, costs)?;
        Ok(true)
    }

    /// Relaxes `from --e--> to`: adopt on strict improvement (or first
    /// reach) and enqueue, refuse on an exact tie, ignore otherwise.
    #[inline]
    fn relax(
        &mut self,
        base: &impl TreeCells<C>,
        costs: &mut impl EdgeCostSource<C>,
        from: Vertex,
        e: EdgeId,
        to: Vertex,
    ) -> Result<(), Tie> {
        let (from_hops, from_cost) = self.overlay.read(base, from);
        let cand = costs.compute(from_cost, e, from, to);
        let (to_hops, to_cost) = self.overlay.read(base, to);
        if to_hops != NONE {
            match cand.cmp(to_cost) {
                Ordering::Greater => return Ok(()),
                Ordering::Equal => return Err(Tie),
                Ordering::Less => {}
            }
        }
        self.adopted += 1;
        self.heap.push(Reverse((cand.clone(), to as u32)));
        self.overlay.set(to, Cell { parent_edge: e as u32, hops: from_hops + 1, cost: cand });
        Ok(())
    }

    /// Drains the heap in the engine's `(cost, vertex)` settle order,
    /// relaxing every non-faulted edge out of each settled vertex.
    /// Entries per vertex have strictly decreasing costs, so "cost still
    /// current" is the complete staleness test.
    fn wave(
        &mut self,
        g: &Graph,
        base: &impl TreeCells<C>,
        faults: &FaultSet,
        costs: &mut impl EdgeCostSource<C>,
    ) -> Result<(), Tie> {
        while let Some(Reverse((c, w))) = self.heap.pop() {
            let w = w as usize;
            let (hops, cost) = self.overlay.read(base, w);
            if hops == NONE || c != *cost {
                continue;
            }
            for (x, e) in g.neighbors(w) {
                if faults.contains(e) {
                    continue;
                }
                self.relax(base, costs, w, e, x)?;
            }
        }
        Ok(())
    }
}

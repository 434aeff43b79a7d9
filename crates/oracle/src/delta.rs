//! Incremental snapshot builds: patch the predecessor instead of
//! recompiling every tree.
//!
//! A full [`crate::SnapshotBuilder`] run costs one exact SPT per
//! serving source — on a 16×16 grid with 256 sources, ~9ms per churn
//! epoch. But a single fault event changes each tree only in the
//! subtree hanging off the failed edge (and a repair only in the region
//! the restored edge improves), so per-epoch work should be
//! proportional to the *change*. [`DeltaBuilder`] delivers that:
//!
//! * **Fault arrival** (edge `e` fails): per source row, if `e` is not
//!   a tree edge the row is **provably unchanged** (removing a non-tree
//!   edge deletes no selected path and creates none) and is shared with
//!   the predecessor snapshot by [`std::sync::Arc`] clones of its base
//!   and its cell list — zero copy, zero recompute. If `e` is a tree
//!   edge, the detached subtree is collected in work proportional to
//!   its degree sum ([`rsp_graph::SubtreeScratch`]), its cells are
//!   cleared, and the subtree is reattached by **best-swap selection**: every non-tree
//!   edge crossing the cut seeds a candidate (`cost[outside] + w`) and
//!   a localized Dijkstra wave settles only the detached vertices, in
//!   exactly the engine's `(cost, vertex)` order.
//! * **Fault repair** (edge `e` restored): the endpoints are relaxed
//!   through `e`; if neither strictly improves the row is unchanged
//!   (shared), otherwise a decrease-propagation wave (Ramalingam–Reps
//!   style) re-settles exactly the improved region.
//! * **Batched events** are applied as sequential exact patches: each
//!   step patches against the correct intermediate fault set, so the
//!   final rows equal a from-scratch build at the target set.
//!
//! **Storage: cells, not rows.** A patch never writes a row's base
//! arrays. It loads the row's cell list into a dense overlay, writes
//! the cells it recomputes there, and gives the row a new cell list:
//! every overlay cell that differs from the base, sorted by vertex
//! (see [`crate::OracleSnapshot::patched_cells`]). A cell patched back
//! to its base value leaves the list, so lists track how far a row has
//! drifted from its base, not how often it was patched. The patched
//! snapshot therefore shares every row's base with its predecessor
//! ([`crate::OracleSnapshot::shares_row_base`]), and the predecessor,
//! once retired, owns only the short lists this commit replaced. A list
//! longer than `n / `[`MATERIALIZE_SHARE`] cells is folded into a fresh
//! base at the end of the build, so reads stay one short binary search.
//!
//! Equality with the full rebuild is *forced*, not hoped for: the
//! tiebreaking weights are tie-free (w.h.p., Theorem 20), so the
//! selected SPT per source is unique and any correct localized
//! recomputation must reproduce it cell for cell. Where that assumption
//! could bite — a genuine cost tie surfacing inside a patched region —
//! the builder detects the tie during relaxation and **refuses**
//! ([`DeltaUnsupported::TieDetected`]) instead of guessing, and the
//! churn pipeline falls back to the canonical full rebuild. The
//! pipeline additionally keeps its sampled `spt_into` cross-check as
//! the runtime correctness gate on every delta-built snapshot, and
//! `crates/oracle/tests/delta_equivalence.rs` pins delta pipelines
//! cell-by-cell against a fresh full build at every epoch.
//!
//! # Examples
//!
//! Patch one arrival and verify the storage sharing:
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_graph::{generators, FaultSet};
//! use rsp_oracle::delta::DeltaBuilder;
//! use rsp_oracle::OracleSnapshot;
//!
//! let g = generators::grid(4, 4);
//! let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
//! let prev = OracleSnapshot::builder(&scheme).version(1).build();
//!
//! let e = g.edge_between(0, 1).unwrap();
//! let faults = FaultSet::single(e);
//! let (snap, stats) = DeltaBuilder::new(&prev).version(2).build(&faults).unwrap();
//!
//! // The delta result is cell-identical to a from-scratch build...
//! let full = OracleSnapshot::builder(&scheme).base_faults(faults.clone()).build();
//! for s in g.vertices() {
//!     let a = snap.baseline(s).unwrap();
//!     let b = full.baseline(s).unwrap();
//!     for v in g.vertices() {
//!         assert_eq!(a.dist(v), b.dist(v));
//!         assert_eq!(a.parent(v), b.parent(v));
//!         assert_eq!(a.cost(v), b.cost(v));
//!     }
//! }
//! // ...but only the rows whose tree used the failed edge were
//! // recomputed; every other row is shared storage with `prev`.
//! assert!(stats.rows_shared > 0 && stats.rows_patched > 0);
//! assert_eq!(stats.rows_shared + stats.rows_patched, g.n());
//! let shared = g.vertices().filter(|&s| snap.shares_row_storage(&prev, s)).count();
//! assert_eq!(shared, stats.rows_shared);
//! // A patched row keeps `prev`'s base and carries its recomputed cells
//! // in a list, unless the list outgrew its share and was materialized.
//! let on_base = g.vertices().filter(|&s| snap.shares_row_base(&prev, s)).count();
//! assert_eq!(on_base, g.n() - stats.rows_materialized);
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use rsp_arith::PathCost;
use rsp_graph::{
    tree_edge_child, DirectedCosts, EdgeCostSource, EdgeId, FaultSet, Graph, SubtreeScratch, Vertex,
};

use crate::snapshot::{BuildError, Cell, CellRef, ListCell, OracleSnapshot, TreeRow, NONE};

/// A row's cell list may replace at most `n / MATERIALIZE_SHARE` of its
/// `n` cells: [`DeltaBuilder::build`] folds a longer list into a fresh
/// base ([`DeltaStats::rows_materialized`]). Longer lists would cost
/// every read of the row a deeper search and every later patch of it a
/// longer copy; shorter caps would copy whole rows more often.
pub const MATERIALIZE_SHARE: usize = 8;

/// Why a delta build refused a configuration it could not patch
/// *exactly*. Structural refusals — the churn pipeline answers them by
/// moving on to its full-build rung without counting a failed attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaUnsupported {
    /// A genuine cost tie surfaced inside a patched region: the
    /// selected tree is not forced there, so the builder refuses
    /// rather than risk disagreeing with the canonical engine's
    /// tie-resolution order.
    TieDetected {
        /// The serving source whose row exposed the tie.
        source: Vertex,
    },
}

impl std::fmt::Display for DeltaUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaUnsupported::TieDetected { source } => {
                write!(f, "cost tie inside the patched region of source {source}'s tree")
            }
        }
    }
}

impl std::error::Error for DeltaUnsupported {}

/// Why [`DeltaBuilder::build`] failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The configuration cannot be patched exactly; fall back to a full
    /// rebuild (see [`DeltaUnsupported`]).
    Unsupported(DeltaUnsupported),
    /// The target fault set failed validation against the graph (same
    /// errors as [`crate::SnapshotBuilder::try_build`]).
    Build(BuildError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Unsupported(u) => write!(f, "delta unsupported: {u}"),
            DeltaError::Build(e) => write!(f, "delta rejected configuration: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// What a successful [`DeltaBuilder::build`] did — the proof that
/// "delta" meant "patched", not "silently rebuilt".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Fault-set diff steps applied (arrivals + repairs between the
    /// predecessor's base faults and the target set).
    pub events_applied: usize,
    /// Rows whose storage differs from the predecessor's: at least one
    /// cell was rewritten, so the row has a new cell list over the
    /// predecessor's base (or a fresh base, see `rows_materialized`).
    pub rows_patched: usize,
    /// Rows among `rows_patched` whose cell list outgrew its share of
    /// the row and was folded into a fresh base at commit.
    pub rows_materialized: usize,
    /// Rows shared with the predecessor snapshot by Arc pointer: the
    /// same base and the same cell list.
    pub rows_shared: usize,
    /// Cells adopted across all localized waves (each adoption writes
    /// one `(parent, hop, cost)` cell; the full rebuild writes
    /// `sources × n` of them).
    pub cells_recomputed: usize,
}

/// Patches a predecessor [`OracleSnapshot`] to a new base fault set
/// instead of rebuilding it — see the [module docs](self) for the
/// algorithm and the exactness argument.
///
/// The builder borrows the predecessor immutably; [`DeltaBuilder::build`]
/// returns a new snapshot whose untouched rows share the predecessor's
/// storage ([`OracleSnapshot::shares_row_storage`]) and whose patched
/// rows share its base ([`OracleSnapshot::shares_row_base`]).
#[derive(Debug)]
pub struct DeltaBuilder<'a, C> {
    prev: &'a OracleSnapshot<C>,
    version: u64,
}

impl<'a, C: PathCost + 'static> DeltaBuilder<'a, C> {
    /// Starts a delta build from the predecessor snapshot.
    pub fn new(prev: &'a OracleSnapshot<C>) -> Self {
        DeltaBuilder { prev, version: 0 }
    }

    /// Tags the patched snapshot with a version (default 0), exactly
    /// like [`crate::SnapshotBuilder::version`].
    pub fn version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Builds the snapshot serving `G \ target`: diffs `target` against
    /// the predecessor's base faults, applies each arrival as a
    /// detach-and-reattach patch and each repair as a
    /// decrease-propagation patch, shares every untouched row, and folds
    /// every cell list longer than `n / `[`MATERIALIZE_SHARE`] into a
    /// fresh base.
    ///
    /// Returns the patched snapshot and the [`DeltaStats`] describing
    /// how much work the patch actually did.
    ///
    /// # Errors
    ///
    /// [`DeltaError::Build`] on an out-of-range fault edge;
    /// [`DeltaError::Unsupported`] when the configuration cannot be
    /// patched exactly (see [`DeltaUnsupported`]) — callers fall back
    /// to [`crate::SnapshotBuilder`].
    pub fn build(self, target: &FaultSet) -> Result<(OracleSnapshot<C>, DeltaStats), DeltaError> {
        let g = self.prev.graph();
        if let Some(edge) = target.iter().find(|&e| e >= g.m()) {
            return Err(DeltaError::Build(BuildError::BaseFaultOutOfRange { edge, m: g.m() }));
        }

        let base = self.prev.base_faults();
        let arrivals: Vec<EdgeId> = target.iter().filter(|&e| !base.contains(e)).collect();
        let repairs: Vec<EdgeId> = base.iter().filter(|&e| !target.contains(e)).collect();

        // Cheap: bases and cell lists are Arc'd, so this clone shares
        // every tree.
        let mut snap = self.prev.clone();
        snap.set_version(self.version);

        let sources = self.prev.sources();
        let mut patcher = Patcher::new(g, self.prev.scheme().directed_costs());
        let mut cur = base.clone();

        for &e in &arrivals {
            cur.insert(e);
            for (row, &s) in sources.iter().enumerate() {
                patcher
                    .patch_arrival(&mut snap, row, s, e, &cur)
                    .map_err(DeltaError::Unsupported)?;
            }
        }
        for &e in &repairs {
            cur.remove(e);
            for (row, &s) in sources.iter().enumerate() {
                patcher
                    .patch_repair(&mut snap, row, s, e, &cur)
                    .map_err(DeltaError::Unsupported)?;
            }
        }

        debug_assert_eq!(&cur, target, "diff steps reproduce the target fault set");
        snap.set_base_faults(cur);

        let mut stats = patcher.stats;
        stats.events_applied = arrivals.len() + repairs.len();
        let list_cap = g.n() / MATERIALIZE_SHARE;
        for row in 0..sources.len() {
            let r = snap.row_mut(row);
            if r.list().len() > list_cap {
                r.materialize();
                stats.rows_materialized += 1;
            }
            if r.same_storage(self.prev.row(row)) {
                stats.rows_shared += 1;
            } else {
                stats.rows_patched += 1;
            }
        }
        Ok((snap, stats))
    }
}

/// Reusable per-build state for the localized patch waves: the lazy
/// `(cost, vertex)` heap, the subtree scratch and the overlay of the
/// row under patch — allocated once, reused across every `(event, row)`
/// pair.
struct Patcher<'g, C: PathCost> {
    g: &'g Graph,
    costs: DirectedCosts<'g, C>,
    heap: BinaryHeap<Reverse<(C, Vertex)>>,
    subtree: SubtreeScratch,
    detached: Vec<Vertex>,
    work: Overlay<C>,
    source: Vertex,
    stats: DeltaStats,
}

impl<'g, C: PathCost + 'static> Patcher<'g, C> {
    fn new(g: &'g Graph, costs: DirectedCosts<'g, C>) -> Self {
        Patcher {
            g,
            costs,
            heap: BinaryHeap::new(),
            subtree: SubtreeScratch::with_capacity(g.n()),
            detached: Vec::new(),
            work: Overlay::new(g.n()),
            source: 0,
            stats: DeltaStats::default(),
        }
    }

    /// Applies the arrival of `e` to one row. `cur` already contains
    /// `e`. Rows where `e` is off-tree are untouched (and stay shared).
    fn patch_arrival(
        &mut self,
        snap: &mut OracleSnapshot<C>,
        row_idx: usize,
        source: Vertex,
        e: EdgeId,
        cur: &FaultSet,
    ) -> Result<(), DeltaUnsupported> {
        self.source = source;
        let g = self.g;

        // Read phase: is `e` a tree edge, and what hangs below it?
        let row = snap.row(row_idx);
        let Some(child) = tree_edge_child(g, e, |v| row.parent(g, v)) else {
            return Ok(());
        };
        let mut detached = std::mem::take(&mut self.detached);
        self.subtree.collect_subtree(g, child, |v| row.parent(g, v), &mut detached);

        // Write phase, into the overlay: clear the detached cells, seed
        // every cut-crossing candidate (best-swap selection: the
        // cheapest reattachment per vertex wins in the heap), and
        // settle the subtree.
        self.work.begin(row);
        self.heap.clear();
        for &w in &detached {
            self.work.set(w, Cell::unreached());
        }
        let mut outcome = Ok(());
        'seed: for &w in &detached {
            for (x, e2) in g.neighbors(w) {
                // Seed only from *outside* the cut: intra-subtree edges
                // are the wave's job, and relaxing one here would replay
                // the identical candidate later — a spurious "tie".
                if cur.contains(e2)
                    || self.subtree.contains(x)
                    || self.work.get(row, x).hops() == NONE
                {
                    continue;
                }
                if let Err(u) = self.relax(row, x, e2, w) {
                    outcome = Err(u);
                    break 'seed;
                }
            }
        }
        self.detached = detached;
        outcome?;
        self.wave(row, cur)?;
        // Detached vertices the wave never reached keep their cleared
        // (unreachable) cells — exactly what a full rebuild stores.
        self.work.commit(snap.row_mut(row_idx));
        Ok(())
    }

    /// Applies the repair of `e` to one row. `cur` no longer contains
    /// `e`. Rows neither endpoint of `e` improves are untouched.
    fn patch_repair(
        &mut self,
        snap: &mut OracleSnapshot<C>,
        row_idx: usize,
        source: Vertex,
        e: EdgeId,
        cur: &FaultSet,
    ) -> Result<(), DeltaUnsupported> {
        self.source = source;
        let (u, v) = self.g.endpoints(e);
        let row = snap.row(row_idx);

        // Read phase: does the restored edge strictly improve an
        // endpoint? At most one side can (positive weights), and an
        // exact cost tie is a refusal, not a guess.
        let improved = {
            let cu = row.cell(u).expect("edge endpoints are in range");
            let cv = row.cell(v).expect("edge endpoints are in range");
            let u_reached = cu.hops() != NONE;
            let v_reached = cv.hops() != NONE;
            let mut improved = None;
            if u_reached {
                let cand = self.costs.compute(cu.cost(), e, u, v);
                if !v_reached {
                    improved = Some((u, v));
                } else {
                    match cand.cmp(cv.cost()) {
                        Ordering::Less => improved = Some((u, v)),
                        Ordering::Equal => {
                            return Err(DeltaUnsupported::TieDetected { source });
                        }
                        Ordering::Greater => {}
                    }
                }
            }
            if improved.is_none() && v_reached {
                let cand = self.costs.compute(cv.cost(), e, v, u);
                if !u_reached {
                    improved = Some((v, u));
                } else {
                    match cand.cmp(cu.cost()) {
                        Ordering::Less => improved = Some((v, u)),
                        Ordering::Equal => {
                            return Err(DeltaUnsupported::TieDetected { source });
                        }
                        Ordering::Greater => {}
                    }
                }
            }
            improved
        };
        let Some((from, to)) = improved else { return Ok(()) };

        // Write phase: adopt the improved endpoint and propagate the
        // decrease until the wave dries up.
        self.work.begin(row);
        self.heap.clear();
        self.relax(row, from, e, to)?;
        self.wave(row, cur)?;
        self.work.commit(snap.row_mut(row_idx));
        Ok(())
    }

    /// Relaxes `from --e--> to` against the row's current cells:
    /// adopt on strict improvement (or first reach), refuse on an exact
    /// tie, ignore otherwise. Adopted vertices enter the heap.
    fn relax(
        &mut self,
        row: &TreeRow<C>,
        from: Vertex,
        e: EdgeId,
        to: Vertex,
    ) -> Result<(), DeltaUnsupported> {
        let f = self.work.get(row, from);
        let hops = f.hops() + 1;
        let cand = self.costs.compute(f.cost(), e, from, to);
        let t = self.work.get(row, to);
        if t.hops() != NONE {
            match cand.cmp(t.cost()) {
                Ordering::Greater => return Ok(()),
                Ordering::Equal => {
                    return Err(DeltaUnsupported::TieDetected { source: self.source })
                }
                Ordering::Less => {}
            }
        }
        self.stats.cells_recomputed += 1;
        self.heap.push(Reverse((cand.clone(), to)));
        self.work.set(to, Cell { parent_edge: e as u32, hops, cost: cand });
        Ok(())
    }

    /// Drains the heap in the engine's `(cost, vertex)` settle order,
    /// relaxing every non-faulted edge out of each settled vertex.
    /// Entries per vertex have strictly decreasing costs, so "cost
    /// still current" is the complete staleness test.
    fn wave(&mut self, row: &TreeRow<C>, cur: &FaultSet) -> Result<(), DeltaUnsupported> {
        let g = self.g;
        while let Some(Reverse((c, w))) = self.heap.pop() {
            let cw = self.work.get(row, w);
            if cw.hops() == NONE || c != *cw.cost() {
                continue;
            }
            for (x, e2) in g.neighbors(w) {
                if cur.contains(e2) {
                    continue;
                }
                self.relax(row, w, e2, x)?;
            }
        }
        Ok(())
    }
}

/// The row under patch, dense: its list cells, loaded by
/// [`Overlay::begin`], and every cell written since, read over the
/// row's base. `cells[v]` is current iff `stamp[v] == epoch`, so a read
/// is one stamp check and never searches the list.
struct Overlay<C> {
    stamp: Vec<u32>,
    epoch: u32,
    cells: Vec<Cell<C>>,
    /// Vertices loaded or written since `begin`.
    touched: Vec<u32>,
    /// [`Overlay::commit`] scratch for the new list.
    list: Vec<ListCell<C>>,
}

impl<C: PathCost> Overlay<C> {
    fn new(n: usize) -> Self {
        let mut cells = Vec::new();
        cells.resize_with(n, Cell::unreached);
        Overlay { stamp: vec![0; n], epoch: 0, cells, touched: Vec::new(), list: Vec::new() }
    }

    /// Starts patching `row`: loads its cell list.
    fn begin(&mut self, row: &TreeRow<C>) {
        self.touched.clear();
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.stamp.fill(0);
            1
        });
        for c in row.list() {
            self.set(c.v as Vertex, c.cell.clone());
        }
    }

    /// `v`'s current cell: loaded or written since `begin`, else the
    /// base's.
    fn get<'a>(&'a self, row: &'a TreeRow<C>, v: Vertex) -> CellRef<'a, C> {
        if self.stamp[v] == self.epoch {
            CellRef::Owned(&self.cells[v])
        } else {
            row.base_cell(v)
        }
    }

    fn set(&mut self, v: Vertex, cell: Cell<C>) {
        if self.stamp[v] != self.epoch {
            self.stamp[v] = self.epoch;
            self.touched.push(v as u32);
        }
        self.cells[v] = cell;
    }

    /// Gives `row` its new cell list: every cell loaded or written
    /// since `begin` that differs from the base. The base is never
    /// written.
    fn commit(&mut self, row: &mut TreeRow<C>) {
        self.touched.sort_unstable();
        let cells = &self.cells;
        row.set_list(self.touched.iter().map(|&v| (v, &cells[v as usize])), &mut self.list);
    }
}

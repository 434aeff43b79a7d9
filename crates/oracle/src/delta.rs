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
//!   a tree edge the row is **provably unchanged** and is shared with
//!   the predecessor snapshot by [`std::sync::Arc`] clones of its base
//!   and its cell list — zero copy, zero recompute. Otherwise the
//!   repair kernel ([`rsp_graph::repair`]) detaches the subtree below
//!   `e` and reattaches it by best-swap selection, settling only the
//!   detached vertices in the engine's `(cost, vertex)` order.
//! * **Fault repair** (edge `e` restored): the kernel relaxes `e` at its
//!   endpoints; if neither strictly improves the row is unchanged
//!   (shared), otherwise a decrease wave re-settles the improved region.
//! * **Batched events** are applied as sequential exact patches: each
//!   step patches against the correct intermediate fault set, so the
//!   final rows equal a from-scratch build at the target set.
//!
//! **Storage: cells, not rows.** A patch never writes a row's base
//! arrays. It loads the row's cell list into the kernel's dense overlay
//! over the base, the kernel writes the cells it recomputes there, and
//! the row gets a new cell list:
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
//! the kernel detects the tie during relaxation and the builder
//! **refuses** ([`DeltaUnsupported::TieDetected`]) instead of guessing, and the
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

use rsp_arith::PathCost;
use rsp_graph::repair::{RepairScratch, Tie};
use rsp_graph::{tree_edge_child, EdgeId, FaultSet, Vertex};

use crate::snapshot::{BuildError, ListCell, OracleSnapshot, RowBase};

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
        let mut costs = self.prev.scheme().directed_costs();
        let mut kernel = RepairScratch::new();
        let mut list = Vec::new();
        let mut cur = base.clone();

        for &e in &arrivals {
            cur.insert(e);
            for (row, &s) in sources.iter().enumerate() {
                // Off-tree arrivals leave the row unchanged (and shared):
                // checked on the row itself, before loading its list.
                let r = snap.row(row);
                if tree_edge_child(g, e, |v| r.parent(g, v)).is_none() {
                    continue;
                }
                patch(&mut snap, row, s, &mut kernel, &mut list, |k, b| {
                    k.arrival(g, b, e, &cur, &mut costs)
                })?;
            }
        }
        for &e in &repairs {
            cur.remove(e);
            for (row, &s) in sources.iter().enumerate() {
                patch(&mut snap, row, s, &mut kernel, &mut list, |k, b| {
                    k.repair(g, b, e, &cur, &mut costs)
                })?;
            }
        }

        debug_assert_eq!(&cur, target, "diff steps reproduce the target fault set");
        snap.set_base_faults(cur);

        let mut stats = DeltaStats {
            events_applied: arrivals.len() + repairs.len(),
            cells_recomputed: kernel.adopted(),
            ..DeltaStats::default()
        };
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

/// Runs one kernel step on one row: loads the row's cell list over its
/// base, and gives the row a new list if the step changed the tree.
fn patch<C: PathCost + 'static>(
    snap: &mut OracleSnapshot<C>,
    row: usize,
    source: Vertex,
    kernel: &mut RepairScratch<C>,
    list: &mut Vec<ListCell<C>>,
    step: impl FnOnce(&mut RepairScratch<C>, &RowBase<C>) -> Result<bool, Tie>,
) -> Result<(), DeltaError> {
    let r = snap.row(row);
    kernel.begin(r.n());
    for c in r.list() {
        kernel.set(c.v as Vertex, c.cell.clone());
    }
    let changed = step(kernel, r.base())
        .map_err(|Tie| DeltaError::Unsupported(DeltaUnsupported::TieDetected { source }))?;
    if changed {
        snap.row_mut(row).set_list(kernel.cells(), list);
    }
    Ok(())
}

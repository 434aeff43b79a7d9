//! The data plane's artifact: an immutable, compiled routing snapshot.
//!
//! A [`OracleSnapshot`] is everything the control plane precomputes,
//! frozen into flat arrays so the read path is pointer-chasing-free:
//!
//! * the graph and the scheme's per-direction exact costs (owned, so a
//!   snapshot is self-contained and `'static`);
//! * one **canonical fault-free tree per serving source**, stored as a
//!   shared base of struct-of-arrays cells (`u32` parent edge / hop
//!   count, plus the exact path cost) — the restoration lemma's "paths
//!   you already stored" — plus a short, shared, sorted list of the
//!   cells delta commits replaced since ([`TreeRow`]). The parent
//!   vertex is derived, not stored: graphs are simple, so it is the
//!   parent edge's other endpoint.
//!
//! Snapshots hold tree rows only. The paper's other shippable artifacts
//! (Theorem 26 preservers, Theorem 30 fault labels) are separate
//! constructions in `rsp_preserver` and `rsp_labeling`.
//!
//! Queries go through [`OracleSnapshot::query`]: a fault set that misses
//! the source's canonical tree is answered straight from the flat arrays
//! (zero traversal, zero allocation); one that hits it falls back to the
//! exact engine inside a caller-held [`SearchScratch`]. Either way the
//! answer is byte-identical to [`rsp_core::Rpts::tree_from_with`] — the
//! property suite in `tests/oracle_properties.rs` pins this.

use std::borrow::Cow;
use std::sync::Arc;

use rsp_arith::PathCost;
use rsp_core::{ExactScheme, Rpts};
use rsp_graph::repair::{Cell, TreeCells};
use rsp_graph::{EdgeId, FaultSet, Graph, Path, SearchScratch, Vertex};

use crate::churn::inject::CellCorruption;

/// Why [`SnapshotBuilder::try_build`] rejected a configuration.
///
/// These are *validation* failures — the fallible twin of the panics
/// documented on [`SnapshotBuilder::build`] — so a control plane fed
/// untrusted configuration (the churn pipeline) can refuse a bad build
/// without unwinding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A requested serving source is not a vertex of the graph.
    SourceOutOfRange {
        /// The offending source.
        source: Vertex,
        /// The graph's vertex count.
        n: usize,
    },
    /// A base fault edge id is not an edge of the graph.
    BaseFaultOutOfRange {
        /// The offending edge id.
        edge: EdgeId,
        /// The graph's edge count.
        m: usize,
    },
    /// The graph has too many vertices or edges for `u32` snapshot ids.
    GraphTooLarge {
        /// The graph's vertex count.
        n: usize,
        /// The graph's edge count.
        m: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::SourceOutOfRange { source, n } => {
                write!(f, "serving source {source} out of range (graph has {n} vertices)")
            }
            BuildError::BaseFaultOutOfRange { edge, m } => {
                write!(f, "base fault edge {edge} out of range (graph has {m} edges)")
            }
            BuildError::GraphTooLarge { n, m } => {
                write!(f, "graph too large for u32 snapshot ids (n = {n}, m = {m})")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Why [`OracleSnapshot::try_query`] rejected a query.
///
/// The fallible twin of the panics documented on
/// [`OracleSnapshot::query`]: a malformed wire query (out-of-range
/// source, out-of-range fault edge id) is a client error, and a serving
/// thread must be able to refuse it without unwinding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query source is not a vertex of the graph.
    SourceOutOfRange {
        /// The offending source.
        source: Vertex,
        /// The graph's vertex count.
        n: usize,
    },
    /// A fault edge id is not an edge of the graph.
    FaultOutOfRange {
        /// The offending edge id.
        edge: EdgeId,
        /// The graph's edge count.
        m: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::SourceOutOfRange { source, n } => {
                write!(f, "query source {source} out of range (graph has {n} vertices)")
            }
            QueryError::FaultOutOfRange { edge, m } => {
                write!(f, "fault edge {edge} out of range (graph has {m} edges)")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Flat-array sentinel: "no parent" / "unreachable" / "not a serving
/// source" — the repair kernel's cell sentinel. Graph sizes are asserted
/// below `u32::MAX`, so it never collides with a real vertex, edge, or
/// hop count.
pub(crate) use rsp_graph::repair::NONE;

/// One tree cell, borrowed where it is stored: in a row's base arrays
/// (vertex `v` of them) or as an owned [`Cell`] (a listed cell). A field is loaded only when read, so a read that
/// needs the parent edge touches one base array, not three.
pub(crate) enum CellRef<'a, C> {
    Base(&'a RowBase<C>, Vertex),
    Owned(&'a Cell<C>),
}

impl<C> Clone for CellRef<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for CellRef<'_, C> {}

impl<'a, C: PathCost> CellRef<'a, C> {
    #[inline]
    pub(crate) fn parent_edge(self) -> u32 {
        match self {
            CellRef::Base(b, v) => b.parent_edge[v],
            CellRef::Owned(c) => c.parent_edge,
        }
    }

    #[inline]
    pub(crate) fn hops(self) -> u32 {
        match self {
            CellRef::Base(b, v) => b.hops[v],
            CellRef::Owned(c) => c.hops,
        }
    }

    #[inline]
    pub(crate) fn cost(self) -> &'a C {
        match self {
            CellRef::Base(b, v) => &b.costs[v],
            CellRef::Owned(c) => &c.cost,
        }
    }

    /// The hop count, or `None` when unreachable.
    #[inline]
    pub(crate) fn reached(self) -> Option<u32> {
        let h = self.hops();
        (h != NONE).then_some(h)
    }

    /// The parent of `v` (whose cell this is) as `(vertex, edge id)`, or
    /// `None` for the source and unreachable vertices. The vertex is the
    /// parent edge's other endpoint (graphs are simple).
    #[inline]
    fn parent(self, g: &Graph, v: Vertex) -> Option<(Vertex, EdgeId)> {
        let e = self.parent_edge();
        if e == NONE {
            return None;
        }
        let (a, b) = g.endpoints(e as EdgeId);
        Some((if a == v { b } else { a }, e as EdgeId))
    }

    /// `true` iff this cell holds exactly `cell`'s values.
    fn equals(self, cell: &Cell<C>) -> bool {
        self.parent_edge() == cell.parent_edge
            && self.hops() == cell.hops
            && *self.cost() == cell.cost
    }

    fn to_cell(self) -> Cell<C> {
        Cell { parent_edge: self.parent_edge(), hops: self.hops(), cost: self.cost().clone() }
    }
}

/// A cell of a [`CellList`]: the vertex it replaces plus its values.
#[derive(Clone, Debug)]
pub(crate) struct ListCell<C> {
    pub(crate) v: u32,
    pub(crate) cell: Cell<C>,
}

/// An immutable, `Arc`-shared list of replaced cells, sorted by vertex:
/// the part of a tree row that differs from the row's shared base.
///
/// The empty list holds no allocation, so a row no commit has touched
/// costs one `is_empty` branch per read.
#[derive(Clone, Debug)]
pub(crate) struct CellList<C>(Option<Arc<[ListCell<C>]>>);

impl<C: Clone> CellList<C> {
    const EMPTY: Self = CellList(None);

    fn from_slice(cells: &[ListCell<C>]) -> Self {
        CellList((!cells.is_empty()).then(|| Arc::from(cells)))
    }

    #[inline]
    fn cells(&self) -> &[ListCell<C>] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// Where `v`'s replaced cell is, if the list has one.
    #[inline]
    fn find(&self, v: Vertex) -> Option<usize> {
        let cells = self.0.as_deref()?;
        cells.binary_search_by_key(&(v as u32), |c| c.v).ok()
    }

    fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The dense arrays of a tree row, struct-of-arrays: one entry per
/// vertex.
#[derive(Clone, Debug)]
pub(crate) struct RowBase<C> {
    parent_edge: Vec<u32>,
    hops: Vec<u32>,
    costs: Vec<C>,
}

impl<C: PathCost> RowBase<C> {
    fn set(&mut self, v: Vertex, cell: &Cell<C>) {
        self.parent_edge[v] = cell.parent_edge;
        self.hops[v] = cell.hops;
        self.costs[v].clone_from(&cell.cost);
    }
}

/// The base a delta commit's repair kernel patches over, with the row's
/// cell list loaded into the kernel's overlay first.
impl<C: PathCost> TreeCells<C> for RowBase<C> {
    #[inline]
    fn hops(&self, v: Vertex) -> u32 {
        self.hops[v]
    }

    #[inline]
    fn cost(&self, v: Vertex) -> &C {
        &self.costs[v]
    }

    #[inline]
    fn parent_edge(&self, v: Vertex) -> u32 {
        self.parent_edge[v]
    }
}

/// One canonical tree row: the cells of a single source's selected
/// shortest-path tree, as a shared base plus a list of replaced cells.
///
/// * The **base** is three dense arrays behind an [`Arc`], shared by
///   every snapshot derived from the one that built it.
/// * The **cell list** ([`CellList`]) holds the cells a delta commit
///   ([`crate::delta`]) recomputed since, sorted by vertex. A commit
///   gives a row it patches a new list over the same base, so a
///   retired snapshot owns a few short lists rather than whole rows.
///   A list that grows past a fixed share of `n` is folded into a fresh
///   base at commit ([`TreeRow::materialize`]).
///
/// Every cell read goes through [`TreeRow::cell`]: one `is_empty`
/// branch, then a binary search of the list, then the base.
/// [`OracleSnapshot::shares_row_storage`] and
/// [`OracleSnapshot::shares_row_base`] expose the sharing for tests, so
/// "delta commit" can be asserted to mean "patched", never "silently
/// rebuilt".
#[derive(Clone, Debug)]
pub(crate) struct TreeRow<C> {
    base: Arc<RowBase<C>>,
    list: CellList<C>,
}

impl<C: PathCost> TreeRow<C> {
    /// The row a finished search describes, cell for cell, with an empty
    /// list: the build's canonical trees and the audit's truth rows both
    /// come from here.
    pub(crate) fn from_search(g: &Graph, run: &SearchScratch<C>) -> Self {
        let n = g.n();
        let mut costs = Vec::new();
        costs.resize_with(n, C::zero);
        let mut base = RowBase { parent_edge: vec![NONE; n], hops: vec![NONE; n], costs };
        for v in g.vertices() {
            let Some(h) = run.hops(v) else { continue };
            base.hops[v] = h;
            if let Some(c) = run.cost(v) {
                base.costs[v].clone_from(c);
            }
            if let Some((_, e)) = run.parent(v) {
                base.parent_edge[v] = e as u32;
            }
        }
        TreeRow { base: Arc::new(base), list: CellList::EMPTY }
    }

    /// The row's vertex count. Read off `parent_edge`, so the range
    /// check in [`TreeRow::cell`] also serves the parent walk's index.
    #[inline]
    pub(crate) fn n(&self) -> usize {
        self.base.parent_edge.len()
    }

    /// `v`'s cell, or `None` for out-of-range `v` (readers pass
    /// untrusted targets). The one cell accessor: the list's replaced
    /// cell if it has one, else the base's.
    #[inline]
    pub(crate) fn cell(&self, v: Vertex) -> Option<CellRef<'_, C>> {
        if v >= self.n() {
            return None;
        }
        Some(match self.list.find(v) {
            Some(i) => CellRef::Owned(&self.list.cells()[i].cell),
            None => CellRef::Base(&self.base, v),
        })
    }

    /// `v`'s parent as `(vertex, edge id)`, or `None` for the source,
    /// unreachable vertices and out-of-range `v`; this never panics, so
    /// readers can pass untrusted targets.
    #[inline]
    pub(crate) fn parent(&self, g: &Graph, v: Vertex) -> Option<(Vertex, EdgeId)> {
        self.cell(v)?.parent(g, v)
    }

    /// The replaced cells, sorted by vertex.
    pub(crate) fn list(&self) -> &[ListCell<C>] {
        self.list.cells()
    }

    /// The row's base, whatever the list says: for a delta commit that
    /// loads the list into its repair kernel itself.
    pub(crate) fn base(&self) -> &RowBase<C> {
        &self.base
    }

    /// Replaces the cell list with `cells` (sorted by vertex, distinct),
    /// leaving out every cell equal to the base's: one new allocation,
    /// none if nothing differs. `buf` is reusable scratch.
    pub(crate) fn set_list<'c>(
        &mut self,
        cells: impl IntoIterator<Item = (u32, &'c Cell<C>)>,
        buf: &mut Vec<ListCell<C>>,
    ) where
        C: 'c,
    {
        buf.clear();
        for (v, cell) in cells {
            if !CellRef::Base(&self.base, v as Vertex).equals(cell) {
                buf.push(ListCell { v, cell: cell.clone() });
            }
        }
        self.list = CellList::from_slice(buf);
    }

    /// Folds the list into a fresh base and empties it: the commit-time
    /// step for a list that grew past its share of the row.
    pub(crate) fn materialize(&mut self) {
        let mut base = RowBase::clone(&self.base);
        for c in self.list.cells() {
            base.set(c.v as Vertex, &c.cell);
        }
        *self = TreeRow { base: Arc::new(base), list: CellList::EMPTY };
    }

    /// Overwrites `v`'s cell where it is stored: in the list if the list
    /// replaces `v` (a fresh list), else in the base (a fresh base).
    /// The fault-injection seam behind [`OracleSnapshot::corrupt_cell`].
    fn overwrite(&mut self, v: Vertex, cell: Cell<C>) {
        match self.list.find(v) {
            Some(i) => {
                let mut cells = self.list.cells().to_vec();
                cells[i].cell = cell;
                self.list = CellList::from_slice(&cells);
            }
            None => Arc::make_mut(&mut self.base).set(v, &cell),
        }
    }

    /// `true` iff both rows are the same base and the same list.
    pub(crate) fn same_storage(&self, other: &Self) -> bool {
        self.same_base(other) && self.list.ptr_eq(&other.list)
    }

    /// `true` iff both rows read the same base allocation.
    fn same_base(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }
}

/// An immutable compiled routing snapshot: the data-plane artifact the
/// serving layer publishes and readers answer `(s, t, F)` queries from.
///
/// Build one with [`OracleSnapshot::builder`]; serve it through
/// [`crate::Oracle`]. A snapshot is plain owned data (`Send + Sync` for
/// thread-safe cost types), never mutated after
/// [`SnapshotBuilder::build`] — concurrent readers need no
/// synchronization on it whatsoever.
///
/// # Examples
///
/// ```
/// use rsp_core::RandomGridAtw;
/// use rsp_graph::{generators, FaultSet, SearchScratch};
/// use rsp_oracle::OracleSnapshot;
///
/// let g = generators::grid(4, 4);
/// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
/// let snap = OracleSnapshot::builder(&scheme).version(1).build();
///
/// let mut scratch = SearchScratch::with_capacity(g.n());
/// let view = snap.query(0, &FaultSet::empty(), &mut scratch);
/// assert!(view.from_baseline(), "fault-free queries are pure lookups");
/// assert_eq!(view.dist(15), Some(6));
/// ```
#[derive(Clone, Debug)]
pub struct OracleSnapshot<C> {
    scheme: ExactScheme<C>,
    version: u64,
    /// Faults baked into every canonical tree: the snapshot serves the
    /// subgraph `G \ base_faults` (the churn pipeline's current fault
    /// state). Per-query faults are layered on top.
    base_faults: FaultSet,
    /// Serving sources, in row order (row `i` of the flat arrays is the
    /// canonical tree rooted at `sources[i]`).
    sources: Vec<Vertex>,
    /// `source_row[v]` is `v`'s row index, or [`NONE`] if not served.
    source_row: Vec<u32>,
    /// One canonical tree per serving source, in `sources` order. A
    /// row's base and cell list are `Arc`'d, so delta-derived snapshots
    /// share the storage of untouched rows and the base of patched ones
    /// (see [`TreeRow`]).
    rows: Vec<TreeRow<C>>,
}

/// Configures and compiles an [`OracleSnapshot`] — the control-plane
/// side of the serving layer.
///
/// Obtained from [`OracleSnapshot::builder`]. Three settings: the
/// serving sources, the baked-in base faults and the version tag.
/// Building is where all the cost lives (one exact SPT per serving
/// source, stored as tree rows only); it allocates freely and runs on
/// the publisher's thread, never on a reader's.
#[derive(Debug)]
pub struct SnapshotBuilder<'a, C> {
    scheme: &'a ExactScheme<C>,
    sources: Option<Vec<Vertex>>,
    base_faults: FaultSet,
    version: u64,
}

impl<'a, C: PathCost + 'static> SnapshotBuilder<'a, C> {
    fn new(scheme: &'a ExactScheme<C>) -> Self {
        SnapshotBuilder { scheme, sources: None, base_faults: FaultSet::empty(), version: 0 }
    }

    /// Restricts the precomputed canonical trees to these sources
    /// (default: every vertex). Queries from a non-serving source still
    /// answer correctly — they always take the engine path.
    ///
    /// Duplicates are dropped (first occurrence wins).
    ///
    /// # Panics
    ///
    /// [`SnapshotBuilder::build`] panics on out-of-range sources.
    pub fn sources(mut self, sources: impl IntoIterator<Item = Vertex>) -> Self {
        self.sources = Some(sources.into_iter().collect());
        self
    }

    /// Tags the snapshot with an application-chosen version number
    /// (default 0). Readers see it via [`OracleSnapshot::version`] —
    /// the concurrency suite uses it to prove every answer is
    /// internally consistent with exactly one published epoch, and the
    /// churn pipeline stamps it with the journal sequence the snapshot
    /// folds in.
    pub fn version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Bakes a fault set into the snapshot: every canonical tree is
    /// computed in `G \ faults`, and queries answer against
    /// `G \ (faults ∪ F_query)`. This is how the churn pipeline serves
    /// the *current* fault state — wire queries keep passing only their
    /// own incremental faults.
    ///
    /// Edges are validated by [`SnapshotBuilder::try_build`]
    /// ([`BuildError::BaseFaultOutOfRange`]). The snapshot stores tree
    /// rows only, so every row it holds is computed in `G \ faults`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultSet, SearchScratch};
    /// use rsp_oracle::OracleSnapshot;
    ///
    /// let g = generators::cycle(5);
    /// let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
    /// let e = g.edge_between(0, 1).unwrap();
    /// let snap = OracleSnapshot::builder(&scheme)
    ///     .base_faults(FaultSet::single(e))
    ///     .build();
    /// let mut scratch = SearchScratch::with_capacity(g.n());
    /// // A fault-free *query* still routes around the baked-in fault.
    /// let view = snap.query(0, &FaultSet::empty(), &mut scratch);
    /// assert_eq!(view.dist(1), Some(4));
    /// ```
    pub fn base_faults(mut self, faults: FaultSet) -> Self {
        self.base_faults = faults;
        self
    }

    /// Compiles the snapshot: one exact SPT per serving source in
    /// `G \ base_faults`, stored as a tree row. Nothing else is
    /// compiled.
    ///
    /// # Panics
    ///
    /// Panics if a serving source or base fault edge is out of range or
    /// the graph has `u32::MAX` or more vertices/edges. Control planes
    /// fed untrusted configuration should use
    /// [`SnapshotBuilder::try_build`] instead.
    pub fn build(self) -> OracleSnapshot<C> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible twin of [`SnapshotBuilder::build`]: validates the
    /// configuration against the graph and returns a [`BuildError`]
    /// instead of panicking.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::generators;
    /// use rsp_oracle::{BuildError, OracleSnapshot};
    ///
    /// let g = generators::petersen();
    /// let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
    /// let err = OracleSnapshot::builder(&scheme).sources([99]).try_build();
    /// assert_eq!(err.unwrap_err(), BuildError::SourceOutOfRange { source: 99, n: 10 });
    /// ```
    pub fn try_build(self) -> Result<OracleSnapshot<C>, BuildError> {
        let scheme = self.scheme.clone();
        let g = scheme.graph();
        let n = g.n();
        if n >= NONE as usize || g.m() >= NONE as usize {
            return Err(BuildError::GraphTooLarge { n, m: g.m() });
        }
        if let Some(edge) = self.base_faults.iter().find(|&e| e >= g.m()) {
            return Err(BuildError::BaseFaultOutOfRange { edge, m: g.m() });
        }

        let requested: Vec<Vertex> = self.sources.unwrap_or_else(|| g.vertices().collect());
        let mut source_row = vec![NONE; n];
        let mut sources = Vec::with_capacity(requested.len());
        for &s in &requested {
            if s >= n {
                return Err(BuildError::SourceOutOfRange { source: s, n });
            }
            if source_row[s] == NONE {
                source_row[s] = sources.len() as u32;
                sources.push(s);
            }
        }

        let mut rows = Vec::with_capacity(sources.len());
        let mut scratch = SearchScratch::<C>::with_capacity(n);
        for &s in &sources {
            scheme.spt_into(s, &self.base_faults, &mut scratch);
            rows.push(TreeRow::from_search(g, &scratch));
        }

        Ok(OracleSnapshot {
            scheme,
            version: self.version,
            base_faults: self.base_faults,
            sources,
            source_row,
            rows,
        })
    }
}

impl<C: PathCost + 'static> OracleSnapshot<C> {
    /// Starts building a snapshot from a compiled tiebreaking scheme.
    ///
    /// The scheme is cloned into the snapshot, so the snapshot outlives
    /// the builder's borrow and can be shipped across threads.
    pub fn builder(scheme: &ExactScheme<C>) -> SnapshotBuilder<'_, C> {
        SnapshotBuilder::new(scheme)
    }

    /// The underlying fault-free graph `G`.
    pub fn graph(&self) -> &Graph {
        self.scheme.graph()
    }

    /// The compiled tiebreaking scheme the snapshot serves.
    pub fn scheme(&self) -> &ExactScheme<C> {
        &self.scheme
    }

    /// The application-chosen version tag (see
    /// [`SnapshotBuilder::version`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The fault set baked into every canonical tree (see
    /// [`SnapshotBuilder::base_faults`]); empty for plain snapshots.
    /// Queries answer against `G \ (base_faults ∪ F_query)`.
    pub fn base_faults(&self) -> &FaultSet {
        &self.base_faults
    }

    /// The serving sources, in the order their tree rows are stored.
    pub fn sources(&self) -> &[Vertex] {
        &self.sources
    }

    /// `true` iff `s` has a precomputed canonical tree in this snapshot.
    pub fn serves(&self, s: Vertex) -> bool {
        self.row_of(s).is_some()
    }

    pub(crate) fn row_of(&self, s: Vertex) -> Option<usize> {
        let row = *self.source_row.get(s)?;
        (row != NONE).then_some(row as usize)
    }

    /// Replaces `s`'s tree row with a freshly recomputed one (the
    /// scrubber's heal splice); every other row keeps its storage.
    /// Returns `false` if `s` has no row.
    pub(crate) fn replace_row(&mut self, s: Vertex, row: TreeRow<C>) -> bool {
        match self.row_of(s) {
            Some(i) => {
                self.rows[i] = row;
                true
            }
            None => false,
        }
    }

    /// `true` iff some fault edge lies on `row`'s canonical tree (the
    /// condition under which the precomputed answer cannot be used).
    ///
    /// An edge `e = (u, v)` is a tree edge iff it is the parent edge of
    /// `u` or of `v` — an `O(|F|)` check against the flat arrays, no
    /// per-source edge bitmap needed. Out-of-range ids cannot be tree
    /// edges (and the engines ignore them too).
    fn faults_touch_row(&self, row: usize, faults: &FaultSet) -> bool {
        let g = self.scheme.graph();
        let r = &self.rows[row];
        let parent_edge_is = |v, e| r.cell(v).is_some_and(|c| c.parent_edge() == e as u32);
        faults.iter().any(|e| {
            e < g.m() && {
                let (u, v) = g.endpoints(e);
                parent_edge_is(u, e) || parent_edge_is(v, e)
            }
        })
    }

    /// `true` iff both snapshots serve `s` **and their tree rows for
    /// `s` are the same physical storage**: the same base and the same
    /// cell list, by `Arc` pointer equality. The delta builder
    /// ([`crate::delta`]) shares rows a change did not touch this way.
    ///
    /// Independently built snapshots never share rows, even when their
    /// cells are equal; this is a storage predicate, not a value
    /// comparison. The delta test suite uses it to prove "delta commit"
    /// means "patched", not "silently rebuilt".
    pub fn shares_row_storage(&self, other: &OracleSnapshot<C>, s: Vertex) -> bool {
        self.row_pair(other, s).is_some_and(|(a, b)| a.same_storage(b))
    }

    /// `true` iff both snapshots serve `s` and their tree rows for `s`
    /// read the **same base arrays** (`Arc` pointer equality), whatever
    /// their cell lists. A row a delta commit patched keeps its
    /// predecessor's base and differs only in its list, unless the list
    /// outgrew its share of the row and was folded into a fresh base.
    pub fn shares_row_base(&self, other: &OracleSnapshot<C>, s: Vertex) -> bool {
        self.row_pair(other, s).is_some_and(|(a, b)| a.same_base(b))
    }

    /// How many cells of `s`'s tree row its cell list replaces (0 for a
    /// row no delta commit touched since its base was built), or `None`
    /// if `s` has no row.
    pub fn patched_cells(&self, s: Vertex) -> Option<usize> {
        Some(self.rows[self.row_of(s)?].list().len())
    }

    fn row_pair<'s>(
        &'s self,
        other: &'s OracleSnapshot<C>,
        s: Vertex,
    ) -> Option<(&'s TreeRow<C>, &'s TreeRow<C>)> {
        Some((&self.rows[self.row_of(s)?], &other.rows[other.row_of(s)?]))
    }

    /// The row at index `row` (delta-builder seam).
    pub(crate) fn row(&self, row: usize) -> &TreeRow<C> {
        &self.rows[row]
    }

    /// Mutable access to the row at index `row` (delta-builder seam).
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut TreeRow<C> {
        &mut self.rows[row]
    }

    /// Re-stamps the version tag (delta-builder seam).
    pub(crate) fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Re-bases the baked-in fault set (delta-builder seam; the caller
    /// has already re-derived every affected row for the new set).
    pub(crate) fn set_base_faults(&mut self, faults: FaultSet) {
        self.base_faults = faults;
    }

    /// The precomputed fault-free canonical tree rooted at `s`, or
    /// `None` if `s` is not a serving source. Zero-cost: the view
    /// borrows the flat arrays.
    pub fn baseline(&self, s: Vertex) -> Option<TreeView<'_, C>> {
        let row = self.row_of(s)?;
        Some(TreeView { inner: ViewInner::Baseline { snap: self, row, source: s } })
    }

    /// Answers the `(s, · , F)` query: the canonical selected tree from
    /// `s` in `G \ (base_faults ∪ F)`, as a borrowed [`TreeView`].
    ///
    /// **Fast path** (no traversal, no allocation): if `s` is a serving
    /// source and no fault edge lies on its canonical tree, the
    /// precomputed tree *is* the answer — removing non-tree edges
    /// changes no selected shortest path (the unique minimum-cost paths
    /// survive and nothing cheaper appears). **Engine path** otherwise:
    /// an exact search in `G* \ (base ∪ F)` inside `scratch`,
    /// allocation-free once the scratch is warm (snapshots with
    /// non-empty [`OracleSnapshot::base_faults`] allocate one temporary
    /// union set on this path). Both paths return answers
    /// byte-identical to [`rsp_core::Rpts::tree_from_with`].
    ///
    /// # Panics
    ///
    /// Panics if `s` or a fault edge id is out of range. Serving
    /// boundaries handling untrusted wire input should use
    /// [`OracleSnapshot::try_query`] instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultSet, SearchScratch};
    /// use rsp_oracle::OracleSnapshot;
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    /// let snap = OracleSnapshot::builder(&scheme).build();
    /// let mut scratch = SearchScratch::with_capacity(g.n());
    ///
    /// // Fail an edge on the selected 0 → 15 route: the query re-routes
    /// // (engine path) but the distance in the 4×4 grid is unchanged.
    /// let view = snap.query(0, &FaultSet::empty(), &mut scratch);
    /// let (u, v) = view.path_to(15).unwrap().steps().next().unwrap();
    /// let first_hop = g.edge_between(u, v).unwrap();
    /// let view = snap.query(0, &FaultSet::single(first_hop), &mut scratch);
    /// assert!(!view.from_baseline());
    /// assert_eq!(view.dist(15), Some(6));
    /// ```
    pub fn query<'q>(
        &'q self,
        s: Vertex,
        faults: &FaultSet,
        scratch: &'q mut SearchScratch<C>,
    ) -> TreeView<'q, C> {
        self.try_query(s, faults, scratch).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible twin of [`OracleSnapshot::query`]: a malformed
    /// query — out-of-range source, out-of-range edge id in the fault
    /// list — returns a [`QueryError`] instead of panicking, so one bad
    /// wire frame cannot take down a serving thread.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultSet, SearchScratch};
    /// use rsp_oracle::{OracleSnapshot, QueryError};
    ///
    /// let g = generators::petersen(); // 10 vertices, 15 edges
    /// let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
    /// let snap = OracleSnapshot::builder(&scheme).build();
    /// let mut scratch = SearchScratch::with_capacity(g.n());
    ///
    /// let err = snap.try_query(42, &FaultSet::empty(), &mut scratch).map(|_| ());
    /// assert_eq!(err.unwrap_err(), QueryError::SourceOutOfRange { source: 42, n: 10 });
    /// let err = snap.try_query(0, &FaultSet::single(15), &mut scratch).map(|_| ());
    /// assert_eq!(err.unwrap_err(), QueryError::FaultOutOfRange { edge: 15, m: 15 });
    /// assert!(snap.try_query(0, &FaultSet::single(14), &mut scratch).is_ok());
    /// ```
    pub fn try_query<'q>(
        &'q self,
        s: Vertex,
        faults: &FaultSet,
        scratch: &'q mut SearchScratch<C>,
    ) -> Result<TreeView<'q, C>, QueryError> {
        let g = self.scheme.graph();
        if s >= g.n() {
            return Err(QueryError::SourceOutOfRange { source: s, n: g.n() });
        }
        if let Some(edge) = faults.iter().find(|&e| e >= g.m()) {
            return Err(QueryError::FaultOutOfRange { edge, m: g.m() });
        }
        if let Some(row) = self.row_of(s) {
            if !self.faults_touch_row(row, faults) {
                return Ok(TreeView { inner: ViewInner::Baseline { snap: self, row, source: s } });
            }
        }
        let effective = self.effective_faults(faults);
        rsp_graph::dijkstra_into(g, s, &effective, self.scheme.directed_costs(), scratch);
        Ok(TreeView { inner: ViewInner::Searched { scratch } })
    }

    /// [`OracleSnapshot::try_query`] from a **raw wire edge-id list**:
    /// normalizes (sorts, deduplicates) the ids into `faults_buf` via
    /// [`FaultSet::set_from`], then validates and answers. The reusable
    /// buffer keeps the path allocation-free once warm; see
    /// [`crate::OracleReader::try_query_edges`] for the per-thread
    /// serving wrapper that owns one.
    pub fn try_query_edges<'q>(
        &'q self,
        s: Vertex,
        edges: &[EdgeId],
        faults_buf: &mut FaultSet,
        scratch: &'q mut SearchScratch<C>,
    ) -> Result<TreeView<'q, C>, QueryError> {
        faults_buf.set_from(edges.iter().copied());
        // `faults_buf` is only read (never stored) by the query; reborrow
        // immutably so the returned view can borrow `scratch` alone.
        self.try_query(s, &*faults_buf, scratch)
    }

    /// The faults the engine path must honor: the per-query set alone,
    /// or its union with the baked-in base faults.
    fn effective_faults<'f>(&self, faults: &'f FaultSet) -> Cow<'f, FaultSet> {
        if self.base_faults.is_empty() {
            Cow::Borrowed(faults)
        } else {
            let mut all = self.base_faults.clone();
            for e in faults.iter() {
                all.insert(e);
            }
            Cow::Owned(all)
        }
    }

    /// Fault-injection seam: deliberately flips one cell of a reachable
    /// non-source vertex in `s`'s tree row, so a row audit against the
    /// engine MUST flag the row. The damage goes where the cell is
    /// stored, never into shared storage: into a fresh copy of the cell
    /// list when the list replaces a reachable non-source cell (the
    /// first such), else into a fresh copy of the base at the first
    /// reachable non-source vertex. Returns the damaged vertex, or
    /// `None` if `s` has no row or no corruptible cell. The churn
    /// pipeline's injection probe and
    /// [`crate::churn::inject::corrupt_published_row`] call this — it is
    /// how the test harness proves the cross-check gate and the
    /// scrubber work.
    pub(crate) fn corrupt_cell(&mut self, s: Vertex, kind: CellCorruption) -> Option<Vertex> {
        let i = self.row_of(s)?;
        let row = &mut self.rows[i];
        let corruptible = |v: Vertex| v != s && row.cell(v).is_some_and(|c| c.reached().is_some());
        let victim = (row.list().iter().map(|c| c.v as Vertex).find(|&v| corruptible(v)))
            .or_else(|| (0..row.n()).find(|&v| corruptible(v)))?;
        let mut cell = row.cell(victim).expect("victim is in range").to_cell();
        match kind {
            CellCorruption::Hop => cell.hops += 1,
            CellCorruption::Parent => cell.parent_edge = NONE,
            CellCorruption::Cost => cell.cost.set_zero(),
        }
        row.overwrite(victim, cell);
        Some(victim)
    }

    /// The one row audit behind the churn commit gate and the scrubber:
    /// compares each target's row cell by cell (hops, parents, exact
    /// costs) against a fresh [`ExactScheme::spt_into`] run on the
    /// snapshot's own base faults — the engine the build uses — and
    /// returns every corrupt row, in target order. Non-serving targets
    /// are skipped before any search. A truth row is built only for a
    /// row that mismatches, so a clean audit allocates nothing beyond
    /// one search scratch.
    pub(crate) fn audit_rows(&self, targets: &[Vertex]) -> Vec<CorruptRow<C>> {
        let g = self.scheme.graph();
        let mut run = SearchScratch::<C>::new();
        let mut corrupt = Vec::new();
        for &source in targets {
            let Some(row) = self.row_of(source).map(|r| &self.rows[r]) else { continue };
            self.scheme.spt_into(source, &self.base_faults, &mut run);
            let first_bad = g.vertices().find(|&v| {
                let c = row.cell(v).expect("a row covers every vertex");
                let hops = c.reached();
                let cost = hops.is_some().then(|| c.cost());
                hops != run.hops(v) || c.parent(g, v) != run.parent(v) || cost != run.cost(v)
            });
            if let Some(first_bad) = first_bad {
                let truth = TreeRow::from_search(g, &run);
                corrupt.push(CorruptRow { source, first_bad, truth });
            }
        }
        corrupt
    }
}

/// One row [`OracleSnapshot::audit_rows`] found corrupt.
pub(crate) struct CorruptRow<C> {
    /// The source whose row disagrees with the engine.
    pub(crate) source: Vertex,
    /// The first vertex (in id order) whose cell disagrees.
    pub(crate) first_bad: Vertex,
    /// The engine's row for `source`: the targeted repair's payload.
    pub(crate) truth: TreeRow<C>,
}

/// How a [`TreeView`] answer was produced.
enum ViewInner<'q, C> {
    /// Borrowed straight from the snapshot's flat baseline arrays.
    Baseline { snap: &'q OracleSnapshot<C>, row: usize, source: Vertex },
    /// Computed by the exact engine into the caller's scratch.
    Searched { scratch: &'q SearchScratch<C> },
}

/// One query's answer: the selected tree `π(s, · | F)`, borrowed — from
/// the snapshot's precomputed arrays or from the caller's scratch —
/// so reading distances, costs, and parents allocates nothing.
///
/// [`TreeView::path_to`] materializes an owned [`Path`] and is the one
/// allocating accessor; hot paths should read [`TreeView::parent`] /
/// [`TreeView::dist`] / [`TreeView::cost`] instead.
pub struct TreeView<'q, C> {
    inner: ViewInner<'q, C>,
}

impl<C: PathCost + 'static> TreeView<'_, C> {
    /// The query's source vertex `s`.
    pub fn source(&self) -> Vertex {
        match &self.inner {
            ViewInner::Baseline { source, .. } => *source,
            ViewInner::Searched { scratch } => scratch.source(),
        }
    }

    /// `true` iff this answer came from the precomputed baseline tree
    /// (the zero-traversal fast path).
    pub fn from_baseline(&self) -> bool {
        matches!(self.inner, ViewInner::Baseline { .. })
    }

    /// `true` iff `t` is reachable from the source in `G \ F`.
    #[inline]
    pub fn reached(&self, t: Vertex) -> bool {
        match &self.inner {
            ViewInner::Baseline { snap, row, .. } => {
                snap.rows[*row].cell(t).is_some_and(|c| c.reached().is_some())
            }
            ViewInner::Searched { scratch } => scratch.reached(t),
        }
    }

    /// Hop count (= unweighted distance `dist_{G\F}(s, t)`, since
    /// selected paths are shortest) of the selected path to `t`, or
    /// `None` if unreachable.
    #[inline]
    pub fn dist(&self, t: Vertex) -> Option<u32> {
        match &self.inner {
            ViewInner::Baseline { snap, row, .. } => snap.rows[*row].cell(t)?.reached(),
            ViewInner::Searched { scratch } => scratch.hops(t),
        }
    }

    /// Exact perturbed cost of the selected path to `t`, or `None` if
    /// unreachable.
    #[inline]
    pub fn cost(&self, t: Vertex) -> Option<&C> {
        match &self.inner {
            ViewInner::Baseline { snap, row, .. } => {
                snap.rows[*row].cell(t).filter(|c| c.reached().is_some()).map(CellRef::cost)
            }
            ViewInner::Searched { scratch } => scratch.cost(t),
        }
    }

    /// Parent of `t` in the selected tree as `(vertex, edge id)`, or
    /// `None` for the source and unreachable vertices. This is the
    /// routing next hop *toward the source* — the MPLS-table view.
    #[inline]
    pub fn parent(&self, t: Vertex) -> Option<(Vertex, EdgeId)> {
        match &self.inner {
            ViewInner::Baseline { snap, row, .. } => snap.rows[*row].parent(snap.graph(), t),
            ViewInner::Searched { scratch } => scratch.parent(t),
        }
    }

    /// The selected path `π(s, t | F)`, or `None` if `t` is unreachable.
    ///
    /// Allocates the returned [`Path`] — use the zero-allocation
    /// accessors on the hot path and this for result materialization.
    /// Never panics: a damaged baseline row whose parent chain from `t`
    /// breaks, or never reaches the source within `n` steps, answers
    /// `None`.
    pub fn path_to(&self, t: Vertex) -> Option<Path> {
        match &self.inner {
            ViewInner::Baseline { snap, source, .. } => {
                if !self.reached(t) {
                    return None;
                }
                let mut verts = vec![t];
                let mut cur = t;
                for _ in 0..snap.graph().n() {
                    if cur == *source {
                        verts.reverse();
                        return Some(Path::new(verts));
                    }
                    let (p, _) = self.parent(cur)?;
                    verts.push(p);
                    cur = p;
                }
                None
            }
            ViewInner::Searched { scratch } => scratch.path_to(t),
        }
    }
}

//! Reusable search state: the zero-allocation query engine.
//!
//! Every experiment in the paper's evaluation is a loop over thousands of
//! `(source, fault set)` shortest-path queries, and the cost of allocating
//! (and zero-initializing) fresh `O(n)` state per query dominates once the
//! per-query work is small. [`SearchScratch`] amortizes that away:
//!
//! * **generation stamping** — every per-vertex slot carries the epoch of
//!   the query that last wrote it, so "resetting" the scratch between
//!   queries is a single counter bump, not an `O(n)` clear;
//! * **a dirty list** — the vertices a query actually touched, letting
//!   result extraction ([`SelectedTree::tree_edges`],
//!   [`SelectedTree::reachable_count`]) skip the unreached part of the graph;
//! * **one flat lazy heap** for every cost type — `std`'s [`BinaryHeap`]
//!   of inline `(cost, vertex)` entries: no per-vertex heap-position
//!   bookkeeping, no indirection on comparisons, candidates returned by
//!   value ([`EdgeCostSource::compute`]). Improved keys are re-pushed and
//!   stale entries skipped at pop, so vertices settle in `(cost, vertex
//!   id)` order — the order of the [`crate::reference`] specification —
//!   and results are byte-identical to it.
//!
//! The entry points are [`bfs_into`] and [`dijkstra_into`]; the classic
//! [`crate::bfs`] / [`crate::dijkstra`] are thin wrappers that allocate one
//! scratch and run the `_into` variant (`bfs` then copies an owned tree
//! out, `dijkstra` returns the scratch itself). Hot loops hold one scratch
//! per concurrent tree and read results straight from it.
//!
//! # Examples
//!
//! ```
//! use rsp_graph::{dijkstra_into, generators, FaultSet, SearchScratch};
//!
//! let g = generators::grid(4, 4);
//! let mut scratch = SearchScratch::<u64>::with_capacity(g.n());
//! for e in 0..g.m() {
//!     // One query per single-edge fault; no per-query allocation.
//!     dijkstra_into(&g, 0, &FaultSet::single(e), |_, _, _| 1u64, &mut scratch);
//!     assert!(scratch.cost(15).is_some(), "grid minus one edge stays connected");
//! }
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use rsp_arith::PathCost;

use crate::fault::FaultSet;
use crate::graph::{EdgeId, Graph, Vertex};
use crate::tree::SelectedTree;

/// Supplies directed edge costs to [`dijkstra_into`] as `base + w(e, from
/// → to)`, returned by value.
///
/// Any `FnMut(EdgeId, Vertex, Vertex) -> C` closure is an `EdgeCostSource`
/// via the blanket impl, which keeps the classic [`crate::dijkstra`]
/// signature working unchanged; [`DirectedCosts`] borrows per-direction
/// cost tables instead.
pub trait EdgeCostSource<C: PathCost> {
    /// Returns `base + w(e, from → to)`.
    fn compute(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex) -> C;
}

impl<C: PathCost, F: FnMut(EdgeId, Vertex, Vertex) -> C> EdgeCostSource<C> for F {
    #[inline]
    fn compute(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex) -> C {
        base.plus(&self(e, from, to))
    }
}

/// Per-direction edge costs held as two parallel slices, indexed by
/// [`EdgeId`]: `fwd[e]` is the cost of traversing `e` from its canonical
/// lower endpoint to the higher, `bwd[e]` the reverse.
///
/// This is the zero-clone [`EdgeCostSource`] used by the exact tiebreaking
/// schemes: relaxations borrow the stored cost instead of cloning it.
///
/// # Examples
///
/// ```
/// use rsp_graph::{dijkstra_into, generators, DirectedCosts, FaultSet, SearchScratch};
///
/// let g = generators::cycle(4);
/// let fwd = vec![10u64; g.m()];
/// let bwd = vec![10u64; g.m()];
/// let mut scratch = SearchScratch::new();
/// dijkstra_into(&g, 0, &FaultSet::empty(), DirectedCosts::new(&fwd, &bwd), &mut scratch);
/// assert_eq!(scratch.cost(2), Some(&20));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DirectedCosts<'a, C> {
    fwd: &'a [C],
    bwd: &'a [C],
}

impl<'a, C: PathCost> DirectedCosts<'a, C> {
    /// Wraps per-direction cost slices (one entry per edge).
    pub fn new(fwd: &'a [C], bwd: &'a [C]) -> Self {
        assert_eq!(fwd.len(), bwd.len(), "one forward and one backward cost per edge");
        DirectedCosts { fwd, bwd }
    }
}

impl<C: PathCost> EdgeCostSource<C> for DirectedCosts<'_, C> {
    #[inline]
    fn compute(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex) -> C {
        // Endpoints are canonicalized `u < v`, so the traversal direction is
        // recoverable from the endpoint order alone.
        base.plus(if from < to { &self.fwd[e] } else { &self.bwd[e] })
    }
}

/// Reusable single-source search state for [`bfs_into`] and
/// [`dijkstra_into`].
///
/// One scratch holds the complete result of its most recent query — costs,
/// hop counts, parent pointers, tie flag — readable through the accessor
/// methods and [`SelectedTree`] without materializing an owned tree.
/// Reusing the scratch across queries skips all `O(n)` allocation and
/// clearing: only the vertices the previous query touched are ever
/// rewritten.
///
/// The cost type parameter defaults to `u32` for unweighted (BFS-only) use.
///
/// # Examples
///
/// ```
/// use rsp_graph::{bfs_into, generators, FaultSet, SearchScratch, SelectedTree};
///
/// let g = generators::cycle(6);
/// let mut scratch = SearchScratch::<u32>::new();
/// bfs_into(&g, 0, &FaultSet::empty(), &mut scratch);
/// assert_eq!(scratch.dist(3), Some(3));
///
/// // Back-to-back reuse: earlier results are invisible to the new query.
/// let cut = g.edge_between(0, 1).unwrap();
/// bfs_into(&g, 0, &FaultSet::single(cut), &mut scratch);
/// assert_eq!(scratch.dist(1), Some(5), "re-routed the long way around");
/// ```
#[derive(Clone, Debug)]
pub struct SearchScratch<C = u32> {
    /// Query generation; a per-vertex slot is valid iff `stamp[v] == epoch`.
    pub(crate) epoch: u32,
    /// Vertex count of the most recent query's graph.
    pub(crate) n: usize,
    pub(crate) source: Vertex,
    /// Whether the most recent query was weighted (`dijkstra_into`).
    pub(crate) weighted: bool,
    pub(crate) ties: bool,
    pub(crate) stamp: Vec<u32>,
    /// Tentative/final exact cost per vertex (weighted queries only).
    pub(crate) key: Vec<C>,
    /// Parent `(vertex, edge)` in stored-width `u32` ids; valid iff stamped
    /// and not the source. Half the bytes of the old `(usize, usize)`
    /// layout — parent writes are on every relaxation's hot path.
    pub(crate) parent: Vec<(u32, u32)>,
    pub(crate) hops: Vec<u32>,
    /// Flat lazy min-heap of inline `(cost, vertex)` entries, vertex ids
    /// stored as `u32` so a `(u32, u32)` entry is a single 8-byte word.
    /// Improved keys are pushed as fresh entries; stale entries are
    /// skipped at pop. This is `std`'s binary heap on purpose: its unsafe
    /// hole-based sifts beat anything expressible under this crate's
    /// `#![forbid(unsafe_code)]` by ~40% on out-of-cache graphs (measured
    /// against a safe 4-ary heap).
    pub(crate) lazy: BinaryHeap<Reverse<(C, u32)>>,
    /// BFS frontier ring buffer (stored-width ids).
    pub(crate) queue: VecDeque<u32>,
    /// Dirty list: vertices reached by the current query, in reach order
    /// (stored-width ids).
    pub(crate) touched: Vec<u32>,
}

impl<C: PathCost> SearchScratch<C> {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A scratch pre-sized for graphs with up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = SearchScratch {
            epoch: 0,
            n: 0,
            source: 0,
            weighted: false,
            ties: false,
            stamp: Vec::new(),
            key: Vec::new(),
            parent: Vec::new(),
            hops: Vec::new(),
            lazy: BinaryHeap::with_capacity(n),
            queue: VecDeque::with_capacity(n),
            touched: Vec::with_capacity(n),
        };
        s.grow(n);
        s
    }

    fn grow(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.key.resize_with(n, C::zero);
            self.parent.resize(n, (0, 0));
            self.hops.resize(n, 0);
        }
    }

    /// Opens a new query generation. All previous per-vertex state becomes
    /// invisible in `O(1)` (amortized: a full clear happens only when the
    /// 32-bit epoch wraps, once per ~4 billion queries).
    pub(crate) fn begin(&mut self, n: usize, source: Vertex, weighted: bool) {
        assert!(n < u32::MAX as usize, "graph too large for the scratch's u32 vertex ids");
        self.grow(n);
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.n = n;
        self.source = source;
        self.weighted = weighted;
        self.ties = false;
        self.touched.clear();
        self.lazy.clear();
        self.queue.clear();
    }

    /// `true` iff the most recent query reached `v`.
    #[inline]
    pub fn reached(&self, v: Vertex) -> bool {
        v < self.n && self.stamp[v] == self.epoch
    }

    /// Exact cost of the selected source-to-`v` path, or `None` if `v` is
    /// unreachable. Meaningful after [`dijkstra_into`] only; BFS queries
    /// report `None` for every vertex.
    #[inline]
    pub fn cost(&self, v: Vertex) -> Option<&C> {
        if self.weighted && self.reached(v) {
            Some(&self.key[v])
        } else {
            None
        }
    }

    /// Hop count of the selected source-to-`v` path, or `None` if
    /// unreachable. For BFS queries this is the unweighted distance.
    #[inline]
    pub fn hops(&self, v: Vertex) -> Option<u32> {
        if self.reached(v) {
            Some(self.hops[v])
        } else {
            None
        }
    }

    /// `true` iff the most recent weighted query saw two equal-cost ways to
    /// reach some vertex (the runtime witness that a tiebreaking weight
    /// function failed to be tie-free).
    pub fn ties_detected(&self) -> bool {
        self.ties
    }
}

/// A finished query is its selected tree; the edge listing and the count
/// walk the dirty list instead of `0..n`. [`SelectedTree::dist`] is the
/// hop count, the unweighted distance after a [`bfs_into`] query.
impl<C: PathCost> SelectedTree for SearchScratch<C> {
    #[inline]
    fn source(&self) -> Vertex {
        self.source
    }

    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn dist(&self, v: Vertex) -> Option<u32> {
        self.hops(v)
    }

    #[inline]
    fn parent(&self, v: Vertex) -> Option<(Vertex, EdgeId)> {
        if v != self.source && self.reached(v) {
            let (p, e) = self.parent[v];
            Some((p as usize, e as usize))
        } else {
            None
        }
    }

    fn tree_edges(&self) -> Box<dyn Iterator<Item = EdgeId> + '_> {
        let source = self.source as u32;
        Box::new(
            self.touched
                .iter()
                .filter(move |&&v| v != source)
                .map(|&v| self.parent[v as usize].1 as usize),
        )
    }

    fn reachable_count(&self) -> usize {
        self.touched.len()
    }
}

impl<C: PathCost> Default for SearchScratch<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs BFS from `source` in `g \ faults` into `scratch`, allocation-free
/// once the scratch is warm.
///
/// Identical traversal (and therefore identical trees) to [`crate::bfs`]:
/// neighbors are visited in increasing vertex id, ties broken by first
/// discovery. Results are read from the scratch.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
pub fn bfs_into<C: PathCost>(
    g: &Graph,
    source: Vertex,
    faults: &FaultSet,
    scratch: &mut SearchScratch<C>,
) {
    assert!(source < g.n(), "bfs source {source} out of range");
    scratch.begin(g.n(), source, false);
    let epoch = scratch.epoch;
    scratch.stamp[source] = epoch;
    scratch.hops[source] = 0;
    scratch.touched.push(source as u32);
    scratch.queue.push_back(source as u32);
    while let Some(u) = scratch.queue.pop_front() {
        let u = u as usize;
        let du = scratch.hops[u];
        for (v, e) in g.neighbors(u) {
            if faults.contains(e) || scratch.stamp[v] == epoch {
                continue;
            }
            scratch.stamp[v] = epoch;
            scratch.hops[v] = du + 1;
            scratch.parent[v] = (u as u32, e as u32);
            scratch.touched.push(v as u32);
            scratch.queue.push_back(v as u32);
        }
    }
}

/// Runs exact-cost Dijkstra from `source` in `g \ faults` into `scratch`,
/// allocation-free once the scratch is warm (for register-copy costs).
///
/// Semantics match [`crate::dijkstra`] exactly — same trees, costs, hop
/// counts, and tie detection. Vertices settle in `(cost, vertex id)` order
/// off the flat lazy heap, the order of the [`crate::reference`]
/// specification, so even on inputs with genuine ties the selected tree is
/// identical. Costs must be non-negative.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
pub fn dijkstra_into<C, F>(
    g: &Graph,
    source: Vertex,
    faults: &FaultSet,
    mut costs: F,
    scratch: &mut SearchScratch<C>,
) where
    C: PathCost,
    F: EdgeCostSource<C>,
{
    assert!(source < g.n(), "dijkstra source {source} out of range");
    scratch.begin(g.n(), source, true);
    let SearchScratch { epoch, stamp, key, parent, hops, lazy, touched, ties, .. } = scratch;
    let epoch = *epoch;
    stamp[source] = epoch;
    key[source].set_zero();
    hops[source] = 0;
    touched.push(source as u32);
    lazy.push(Reverse((key[source].clone(), source as u32)));

    while let Some(Reverse((c, u))) = lazy.pop() {
        let u = u as usize;
        if key[u] != c {
            // Stale entry: u was re-pushed with a better key (and that
            // entry either settled u already or still precedes this one).
            continue;
        }
        for (v, e) in g.neighbors(u) {
            if faults.contains(e) {
                continue;
            }
            let cand = costs.compute(&c, e, u, v);
            if stamp[v] != epoch {
                stamp[v] = epoch;
                key[v].clone_from(&cand);
                parent[v] = (u as u32, e as u32);
                hops[v] = hops[u] + 1;
                touched.push(v as u32);
                lazy.push(Reverse((cand, v as u32)));
                continue;
            }
            // A strictly better route pushes a fresh entry (the old one
            // goes stale), an equal-cost route is a tie whether v is open
            // or settled, and a worse route is ignored. A strictly better
            // route into a settled vertex cannot occur with non-negative
            // costs.
            match cand.cmp(&key[v]) {
                Ordering::Less => {
                    key[v].clone_from(&cand);
                    parent[v] = (u as u32, e as u32);
                    hops[v] = hops[u] + 1;
                    lazy.push(Reverse((cand, v as u32)));
                }
                Ordering::Equal => *ties = true,
                Ordering::Greater => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::dijkstra::dijkstra;
    use crate::generators;

    fn assert_same_bfs(g: &Graph, s: Vertex, faults: &FaultSet, scratch: &mut SearchScratch<u32>) {
        let fresh = bfs(g, s, faults);
        bfs_into(g, s, faults, scratch);
        for v in g.vertices() {
            assert_eq!(scratch.dist(v), fresh.dist(v), "dist({v})");
            assert_eq!(scratch.parent(v), fresh.parent(v), "parent({v})");
        }
        assert_eq!(scratch.to_bfs_tree().reachable_count(), fresh.reachable_count());
    }

    #[test]
    fn bfs_into_matches_bfs_under_reuse() {
        let mut scratch = SearchScratch::new();
        let g = generators::grid(4, 5);
        for s in [0, 7, 19] {
            for e in [None, Some(0), Some(5)] {
                let faults = e.map(FaultSet::single).unwrap_or_default();
                assert_same_bfs(&g, s, &faults, &mut scratch);
            }
        }
        // Switch to a different (smaller) graph with the same scratch.
        let h = generators::cycle(5);
        assert_same_bfs(&h, 3, &FaultSet::empty(), &mut scratch);
    }

    #[test]
    fn dijkstra_into_matches_dijkstra_under_reuse() {
        let g = generators::grid(4, 4);
        let mut scratch = SearchScratch::<u64>::new();
        for s in [0, 5, 15] {
            for e in 0..3 {
                let faults = FaultSet::single(e);
                let fresh = dijkstra(&g, s, &faults, |e, _, _| 100 + e as u64);
                dijkstra_into(&g, s, &faults, |e, _, _| 100 + e as u64, &mut scratch);
                for v in g.vertices() {
                    assert_eq!(scratch.cost(v), fresh.cost(v));
                    assert_eq!(scratch.hops(v), fresh.hops(v));
                    assert_eq!(scratch.parent(v), fresh.parent(v));
                }
                assert_eq!(scratch.ties_detected(), fresh.ties_detected());
            }
        }
    }

    #[test]
    fn decrease_key_reroutes_through_cheaper_parent() {
        // Diamond where the first discovery of vertex 3 is later improved:
        // 0-1 (1), 0-2 (10), 1-3 (100), 2-3 (1) ⇒ best is 0→1→3 at 101
        // versus 0→2→3 at 11; the engine must re-push 3 at the lower key
        // after settling 2 and skip the stale entry.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let w = |e: EdgeId| [1u64, 10, 100, 1][e];
        let mut scratch = SearchScratch::<u64>::new();
        dijkstra_into(&g, 0, &FaultSet::empty(), |e, _, _| w(e), &mut scratch);
        assert_eq!(scratch.cost(3), Some(&11));
        assert_eq!(scratch.path_to(3).unwrap().vertices(), &[0, 2, 3]);
        assert_eq!(scratch.hops(3), Some(2));
        assert!(!scratch.ties_detected());
    }

    #[test]
    fn directed_costs_orientation() {
        // Path 0-1-2 with cheap canonical (low→high) traversal and
        // expensive reverse traversal: walking away from 0 uses fwd,
        // walking toward 0 uses bwd.
        let g = generators::path_graph(3);
        let fwd = vec![10u64; g.m()];
        let bwd = vec![1000u64; g.m()];
        let mut scratch = SearchScratch::new();
        dijkstra_into(&g, 0, &FaultSet::empty(), DirectedCosts::new(&fwd, &bwd), &mut scratch);
        assert_eq!(scratch.cost(2), Some(&20), "two forward hops");
        dijkstra_into(&g, 2, &FaultSet::empty(), DirectedCosts::new(&fwd, &bwd), &mut scratch);
        assert_eq!(scratch.cost(0), Some(&2000), "two backward hops");
    }

    #[test]
    fn stale_state_is_invisible_across_queries() {
        let g = generators::path_graph(6);
        let mut scratch = SearchScratch::<u64>::new();
        dijkstra_into(&g, 0, &FaultSet::empty(), |_, _, _| 1u64, &mut scratch);
        assert_eq!(scratch.cost(5), Some(&5));
        // Cut the path: the unreachable side must read as unreached even
        // though its slots still hold the previous query's values.
        let cut = g.edge_between(2, 3).unwrap();
        dijkstra_into(&g, 0, &FaultSet::single(cut), |_, _, _| 1u64, &mut scratch);
        assert_eq!(scratch.cost(5), None);
        assert_eq!(scratch.hops(4), None);
        assert!(scratch.path_to(3).is_none());
        assert_eq!(scratch.reachable_count(), 3);
    }

    #[test]
    fn accessors_before_any_query_are_empty() {
        let scratch = SearchScratch::<u64>::new();
        assert!(!scratch.reached(0));
        assert_eq!(scratch.cost(0), None);
        assert_eq!(scratch.dist(0), None);
        assert!(scratch.path_to(0).is_none());
        assert_eq!(scratch.reachable_count(), 0);
        assert_eq!(scratch.tree_edges().count(), 0);
    }

    #[test]
    fn tree_edges_come_from_dirty_list() {
        let g = generators::complete(6);
        let mut scratch = SearchScratch::<u32>::new();
        bfs_into(&g, 2, &FaultSet::empty(), &mut scratch);
        let edges: Vec<EdgeId> = scratch.tree_edges().collect();
        assert_eq!(edges.len(), 5);
        let tree = scratch.to_bfs_tree();
        let mut expected: Vec<EdgeId> = tree.tree_edges().collect();
        let mut got = edges;
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn bigint_costs_accumulate_in_place() {
        use rsp_arith::BigInt;
        let g = generators::grid(3, 3);
        let mut scratch = SearchScratch::<BigInt>::new();
        let fwd: Vec<BigInt> =
            (0..g.m()).map(|e| BigInt::pow2(80) + BigInt::from(e as i64)).collect();
        let bwd: Vec<BigInt> =
            fwd.iter().map(|f| (BigInt::pow2(81) + BigInt::pow2(81)) - f.clone()).collect();
        for s in g.vertices() {
            dijkstra_into(&g, s, &FaultSet::empty(), DirectedCosts::new(&fwd, &bwd), &mut scratch);
            let fresh = dijkstra(&g, s, &FaultSet::empty(), |e, from, to| {
                if from < to {
                    fwd[e].clone()
                } else {
                    bwd[e].clone()
                }
            });
            for v in g.vertices() {
                assert_eq!(scratch.cost(v), fresh.cost(v), "source {s} vertex {v}");
            }
        }
    }
}

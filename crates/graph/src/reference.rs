//! The pre-migration Vec-of-Vec reference engine: the differential oracle
//! the CSR core is pinned against.
//!
//! Before the `u32` CSR migration, `Graph` adjacency was the textbook
//! `Vec<Vec<(Vertex, EdgeId)>>` and every query allocated fresh `O(n)`
//! state with a lazy-deletion `BinaryHeap<Reverse<(C, Vertex)>>`. That
//! engine is deliberately preserved here — naive, allocating, `usize` ids
//! throughout — as an executable specification: simple enough to audit by
//! eye, and byte-identical in semantics (distances, costs, parents, hop
//! counts, settle order, and tie flags) to the production engines in
//! [`crate::bfs_into`] / [`crate::dijkstra_into`] and everything layered
//! above them.
//!
//! The differential suites (`tests/csr_equivalence.rs` here, plus the
//! scheme- and oracle-level suites in `rsp_core` / `rsp_oracle`) drive the
//! CSR engine and this reference through identical query streams on every
//! generator family and assert cell-identical results. Production code
//! should never call into this module — it exists to make engine bugs
//! loudly visible, not to be fast.
//!
//! # Examples
//!
//! ```
//! use rsp_graph::reference::{ref_dijkstra, RefGraph};
//! use rsp_graph::{dijkstra_into, generators, FaultSet, SearchScratch, SelectedTree};
//!
//! let g = generators::grid(3, 3);
//! let r = RefGraph::from_graph(&g);
//! let faults = FaultSet::single(0);
//! let spec = ref_dijkstra(&r, 0, &faults, |e, _, _| 10u64 + e as u64);
//! let mut scratch = SearchScratch::<u64>::new();
//! dijkstra_into(&g, 0, &faults, |e, _, _| 10u64 + e as u64, &mut scratch);
//! for v in g.vertices() {
//!     assert_eq!(scratch.cost(v), spec.cost[v].as_ref());
//!     assert_eq!(scratch.parent(v), spec.parent[v]);
//! }
//! assert_eq!(scratch.ties_detected(), spec.ties);
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rsp_arith::PathCost;

use crate::fault::FaultSet;
use crate::graph::{EdgeId, Graph, Vertex};

/// Vec-of-Vec adjacency: the pre-migration `Graph` representation.
///
/// Built from a CSR [`Graph`] by copying each vertex's neighbor slice in
/// its stored order, so the reference engines examine edges in exactly the
/// order the CSR engines do — a prerequisite for byte-identical parents
/// and tie flags.
#[derive(Clone, Debug)]
pub struct RefGraph {
    /// `adj[u]` lists `(neighbor, edge id)` pairs, sorted by neighbor.
    adj: Vec<Vec<(Vertex, EdgeId)>>,
}

impl RefGraph {
    /// Copies a CSR graph into Vec-of-Vec form.
    pub fn from_graph(g: &Graph) -> Self {
        RefGraph { adj: (0..g.n()).map(|u| g.neighbors(u).collect()).collect() }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// The `(neighbor, edge id)` pairs of `u`, sorted by neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.n()`.
    pub fn neighbors(&self, u: Vertex) -> &[(Vertex, EdgeId)] {
        &self.adj[u]
    }
}

/// An owned shortest-path-tree result from the reference engines, every
/// field freshly allocated per query (the pre-migration memory shape).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefTree<C> {
    /// The query's source vertex.
    pub source: Vertex,
    /// Exact cost per vertex ([`ref_dijkstra`]); all `None` after
    /// [`ref_bfs`].
    pub cost: Vec<Option<C>>,
    /// Hop count per vertex, meaningful where reached. After [`ref_bfs`]
    /// this is the unweighted distance.
    pub hops: Vec<u32>,
    /// Parent `(vertex, edge id)` per vertex; `None` for the source and
    /// unreached vertices.
    pub parent: Vec<Option<(Vertex, EdgeId)>>,
    /// Whether two equal-cost routes into any vertex were observed
    /// (always `false` after [`ref_bfs`]).
    pub ties: bool,
    /// Vertices in settle order (BFS: dequeue order; Dijkstra: pop order
    /// with stale entries skipped).
    pub settle_order: Vec<Vertex>,
}

impl<C> RefTree<C> {
    /// `true` iff the query reached `v`.
    pub fn reached(&self, v: Vertex) -> bool {
        v == self.source || self.parent.get(v).is_some_and(|p| p.is_some())
    }

    /// Number of vertices the query reached (including the source).
    pub fn reachable_count(&self) -> usize {
        self.settle_order.len()
    }
}

/// Breadth-first search on the reference adjacency: the specification for
/// [`crate::bfs`] / [`crate::bfs_into`].
///
/// # Panics
///
/// Panics if `source >= g.n()`.
pub fn ref_bfs(g: &RefGraph, source: Vertex, faults: &FaultSet) -> RefTree<u32> {
    let n = g.n();
    assert!(source < n, "bfs source {source} out of range");
    let mut seen = vec![false; n];
    let mut hops = vec![0u32; n];
    let mut parent: Vec<Option<(Vertex, EdgeId)>> = vec![None; n];
    let mut settle_order = Vec::new();
    let mut queue = VecDeque::new();
    seen[source] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        settle_order.push(u);
        for &(v, e) in g.neighbors(u) {
            if faults.contains(e) || seen[v] {
                continue;
            }
            seen[v] = true;
            hops[v] = hops[u] + 1;
            parent[v] = Some((u, e));
            queue.push_back(v);
        }
    }
    RefTree { source, cost: vec![None; n], hops, parent, ties: false, settle_order }
}

/// Lazy-deletion Dijkstra on the reference adjacency: the specification
/// for [`crate::dijkstra`] / [`crate::dijkstra_into`] under **both** heap
/// policies.
///
/// A `BinaryHeap<Reverse<(C, Vertex)>>` orders entries `(cost, vertex id)`
/// lexicographically, so vertices settle in exactly the `(cost, id)` order
/// the production engines realize; an equal-cost route into an open *or*
/// settled vertex sets the tie flag, matching their detection precisely.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
pub fn ref_dijkstra<C, F>(
    g: &RefGraph,
    source: Vertex,
    faults: &FaultSet,
    mut edge_cost: F,
) -> RefTree<C>
where
    C: PathCost,
    F: FnMut(EdgeId, Vertex, Vertex) -> C,
{
    let n = g.n();
    assert!(source < n, "dijkstra source {source} out of range");
    let mut best: Vec<Option<C>> = vec![None; n];
    let mut hops = vec![0u32; n];
    let mut parent: Vec<Option<(Vertex, EdgeId)>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut settle_order = Vec::new();
    let mut ties = false;
    let mut heap: BinaryHeap<Reverse<(C, Vertex)>> = BinaryHeap::new();
    best[source] = Some(C::zero());
    heap.push(Reverse((C::zero(), source)));
    while let Some(Reverse((cost_u, u))) = heap.pop() {
        if settled[u] || best[u].as_ref() != Some(&cost_u) {
            continue; // stale entry superseded by a better key
        }
        settled[u] = true;
        settle_order.push(u);
        for &(v, e) in g.neighbors(u) {
            if faults.contains(e) {
                continue;
            }
            let cand = cost_u.plus(&edge_cost(e, u, v));
            match &best[v] {
                Some(cur) if *cur < cand => {}
                Some(cur) if *cur == cand => ties = true,
                _ => {
                    best[v] = Some(cand.clone());
                    parent[v] = Some((u, e));
                    hops[v] = hops[u] + 1;
                    heap.push(Reverse((cand, v)));
                }
            }
        }
    }
    RefTree { source, cost: best, hops, parent, ties, settle_order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ref_bfs_on_cycle() {
        let g = generators::cycle(6);
        let r = RefGraph::from_graph(&g);
        let t = ref_bfs(&r, 0, &FaultSet::empty());
        assert_eq!(t.hops[3], 3);
        assert_eq!(t.reachable_count(), 6);
        assert!(!t.ties);
        let cut = g.edge_between(0, 1).unwrap();
        let t = ref_bfs(&r, 0, &FaultSet::single(cut));
        assert_eq!(t.hops[1], 5, "re-routed the long way");
    }

    #[test]
    fn ref_dijkstra_decrease_key_shape() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let r = RefGraph::from_graph(&g);
        let w = |e: EdgeId| [1u64, 10, 100, 1][e];
        let t = ref_dijkstra(&r, 0, &FaultSet::empty(), |e, _, _| w(e));
        assert_eq!(t.cost[3], Some(11));
        assert_eq!(t.parent[3], Some((2, 3)));
        assert_eq!(t.hops[3], 2);
        assert!(!t.ties);
    }

    #[test]
    fn ref_dijkstra_flags_ties() {
        let g = generators::grid(3, 3);
        let r = RefGraph::from_graph(&g);
        let t = ref_dijkstra(&r, 0, &FaultSet::empty(), |_, _, _| 10u64);
        assert!(t.ties, "uniform grid costs tie everywhere");
    }

    #[test]
    fn reached_accounts_source_and_unreached() {
        let g = generators::path_graph(4);
        let r = RefGraph::from_graph(&g);
        let cut = g.edge_between(1, 2).unwrap();
        let t = ref_bfs(&r, 0, &FaultSet::single(cut));
        assert!(t.reached(0) && t.reached(1));
        assert!(!t.reached(2) && !t.reached(3));
        assert_eq!(t.reachable_count(), 2);
    }
}

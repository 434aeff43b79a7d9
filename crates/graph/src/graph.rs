//! The core undirected, unweighted graph type in CSR form.

use crate::builder::{GraphBuilder, GraphError};

/// A vertex identifier: an index in `0..n`.
///
/// The *API* type is `usize` (indexing-friendly, zero-cost to produce from
/// the stored ids); the *storage* type is `u32` — see [`Graph`] and
/// [`MAX_VERTICES`].
pub type Vertex = usize;

/// An edge identifier: an index in `0..m`, stable across the graph's life.
///
/// Fault sets ([`crate::FaultSet`]) and tiebreaking weight functions are both
/// keyed by `EdgeId`, so that "the weight of edge `e`" and "edge `e` failed"
/// refer to the same object. Like [`Vertex`], the API type is `usize` while
/// the stored width is `u32` (see [`MAX_EDGES`]).
pub type EdgeId = usize;

/// Maximum number of vertices a [`Graph`] can hold: `u32::MAX - 1`.
///
/// Vertex ids are stored as `u32` throughout the hot path (CSR targets,
/// parent pointers, heap entries), and `u32::MAX` is reserved as the
/// universal "no vertex / settled / unreached" sentinel (the search
/// scratch's settled marker, the oracle snapshot's empty-cell marker, …),
/// so the largest usable id is `u32::MAX - 1` and the largest vertex count
/// is `u32::MAX - 1` ids `0..=u32::MAX-2`... i.e. `n <= u32::MAX - 1`.
/// [`GraphBuilder::try_new`] rejects larger `n` with a typed
/// [`GraphError::TooManyVertices`] instead of truncating.
pub const MAX_VERTICES: usize = (u32::MAX - 1) as usize;

/// Maximum number of edges a [`Graph`] can hold: `(u32::MAX - 1) / 2`.
///
/// Each edge occupies two CSR adjacency slots and the CSR offsets are
/// stored as `u32`, so `2m` must fit in a `u32`; edge ids additionally
/// reserve `u32::MAX` as a sentinel (the "no parent edge" of a tree
/// cell, [`crate::repair::NONE`]). [`GraphBuilder::add_edge`] rejects further edges with a typed
/// [`GraphError::TooManyEdges`].
pub const MAX_EDGES: usize = ((u32::MAX - 1) / 2) as usize;

/// A compact undirected, unweighted simple graph.
///
/// Stored in CSR (compressed sparse row) form as flat struct-of-arrays
/// with **`u32` ids**: for each vertex a contiguous slice of
/// (neighbor, incident edge id) pairs, sorted by neighbor. Edge endpoints
/// are canonicalized as `(u, v)` with `u < v`; an [`EdgeId`] is an index
/// into the canonical edge list. The narrow id width halves the memory
/// bandwidth of every adjacency scan relative to `usize` storage — on a
/// million-vertex graph the difference between an in-cache and an
/// out-of-cache traversal — while the public API keeps `usize` ids
/// (zero-extension is free). `n` is capped at [`MAX_VERTICES`] and `m` at
/// [`MAX_EDGES`]; construction reports overflow as typed [`GraphError`]s.
///
/// The graph is immutable after construction (via [`GraphBuilder`] or
/// [`Graph::from_edges`]); edge *faults* are expressed as views through
/// [`crate::FaultSet`] arguments to the traversal routines rather than by
/// mutating the graph, matching the paper's `G \ F` notation.
///
/// # Examples
///
/// ```
/// use rsp_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(0), 2);
/// assert!(g.edge_between(0, 2).is_none());
/// # Ok::<(), rsp_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    /// Canonical endpoints, `edges[e] = (u, v)` with `u < v`.
    edges: Vec<(u32, u32)>,
    /// CSR offsets, length `n + 1`; `2m` fits in `u32` by [`MAX_EDGES`].
    offsets: Vec<u32>,
    /// CSR neighbor targets, length `2m`, sorted within each vertex slice.
    targets: Vec<u32>,
    /// Edge id of each adjacency slot, parallel to `targets`.
    incident: Vec<u32>,
}

impl Graph {
    /// Builds a graph with `n` vertices from an edge iterator.
    ///
    /// Endpoints may appear in either order; they are canonicalized.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on out-of-range endpoints, self-loops,
    /// duplicate edges, or a vertex/edge count beyond [`MAX_VERTICES`] /
    /// [`MAX_EDGES`].
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_graph::Graph;
    /// let g = Graph::from_edges(3, [(2, 0), (0, 1)])?;
    /// assert_eq!(g.endpoints(0), (0, 2)); // canonicalized, ids in input order
    /// # Ok::<(), rsp_graph::GraphError>(())
    /// ```
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (Vertex, Vertex)>,
    ) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::try_new(n)?;
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Internal constructor used by [`GraphBuilder::build`]; inputs must be
    /// pre-validated (canonical, deduplicated, in-range, within the
    /// [`MAX_VERTICES`] / [`MAX_EDGES`] caps).
    pub(crate) fn from_canonical_edges(n: usize, edges: Vec<(u32, u32)>) -> Self {
        let m = edges.len();
        debug_assert!(n <= MAX_VERTICES && m <= MAX_EDGES);
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; 2 * m];
        let mut incident = vec![0u32; 2 * m];
        for (e, &(u, v)) in edges.iter().enumerate() {
            let e = e as u32;
            targets[cursor[u as usize] as usize] = v;
            incident[cursor[u as usize] as usize] = e;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            incident[cursor[v as usize] as usize] = e;
            cursor[v as usize] += 1;
        }
        // Sort each adjacency slice by neighbor for binary-searchable lookups.
        for u in 0..n {
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            let mut pairs: Vec<(u32, u32)> =
                targets[lo..hi].iter().copied().zip(incident[lo..hi].iter().copied()).collect();
            pairs.sort_unstable();
            for (i, (t, e)) in pairs.into_iter().enumerate() {
                targets[lo + i] = t;
                incident[lo + i] = e;
            }
        }
        Graph { n, edges, offsets, targets, incident }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Bytes of heap memory held by the CSR arrays (offsets, targets,
    /// incident edge ids, and the canonical edge list) — the number the
    /// `u32` migration halves relative to `usize` storage.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.targets.as_slice())
            + std::mem::size_of_val(self.incident.as_slice())
            + std::mem::size_of_val(self.edges.as_slice())
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.n()`.
    #[inline]
    pub fn degree(&self, u: Vertex) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Canonical endpoints `(u, v)` with `u < v` of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= self.m()`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (Vertex, Vertex) {
        let (u, v) = self.edges[e];
        (u as usize, v as usize)
    }

    /// Given edge `e` and one endpoint `u`, returns the other endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `u` is not an endpoint of `e`.
    pub fn other_endpoint(&self, e: EdgeId, u: Vertex) -> Vertex {
        let (a, b) = self.endpoints(e);
        if u == a {
            b
        } else {
            assert_eq!(u, b, "vertex {u} is not an endpoint of edge {e}");
            a
        }
    }

    /// Iterates over `(neighbor, edge id)` pairs of `u`, sorted by neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.n()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_graph::Graph;
    /// let g = Graph::from_edges(3, [(0, 1), (0, 2)])?;
    /// let nbrs: Vec<_> = g.neighbors(0).map(|(v, _)| v).collect();
    /// assert_eq!(nbrs, vec![1, 2]);
    /// # Ok::<(), rsp_graph::GraphError>(())
    /// ```
    #[inline]
    pub fn neighbors(&self, u: Vertex) -> impl Iterator<Item = (Vertex, EdgeId)> + '_ {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .zip(self.incident[lo..hi].iter())
            .map(|(&v, &e)| (v as usize, e as usize))
    }

    /// Looks up the edge between `u` and `v`, if present.
    ///
    /// Runs in `O(log deg(u))`.
    pub fn edge_between(&self, u: Vertex, v: Vertex) -> Option<EdgeId> {
        if u >= self.n || v >= self.n || u == v {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let lo = self.offsets[a] as usize;
        let hi = self.offsets[a + 1] as usize;
        let slice = &self.targets[lo..hi];
        slice.binary_search(&(b as u32)).ok().map(|i| self.incident[lo + i] as usize)
    }

    /// Returns `true` iff an edge between `u` and `v` exists.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Iterates over all edges as `(edge id, u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Vertex, Vertex)> + '_ {
        self.edges.iter().enumerate().map(|(e, &(u, v))| (e, u as usize, v as usize))
    }

    /// Iterates over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> {
        0..self.n
    }

    /// Returns the union of this graph's edge set with another edge-id set,
    /// as a new graph over the same vertex set.
    ///
    /// Used to materialize preserver subgraphs: `H ⊆ G` given by edge ids.
    ///
    /// # Panics
    ///
    /// Panics if any edge id is out of range.
    pub fn edge_subgraph(&self, keep: impl IntoIterator<Item = EdgeId>) -> Graph {
        let mut seen = vec![false; self.m()];
        let mut edges = Vec::new();
        for e in keep {
            if !seen[e] {
                seen[e] = true;
                edges.push(self.edges[e]);
            }
        }
        edges.sort_unstable();
        Graph::from_canonical_edges(self.n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_construction() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn canonicalizes_endpoints() {
        let g = Graph::from_edges(3, [(2, 1)]).unwrap();
        assert_eq!(g.endpoints(0), (1, 2));
    }

    #[test]
    fn edge_between_present_and_absent() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.edge_between(1, 0), Some(0));
        assert_eq!(g.edge_between(2, 1), Some(1));
        assert_eq!(g.edge_between(0, 2), None);
        assert_eq!(g.edge_between(0, 0), None);
        assert_eq!(g.edge_between(0, 99), None);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        let nbrs: Vec<_> = g.neighbors(2).map(|(v, _)| v).collect();
        assert_eq!(nbrs, vec![0, 1, 3, 4]);
    }

    #[test]
    fn other_endpoint() {
        let g = Graph::from_edges(3, [(0, 2)]).unwrap();
        assert_eq!(g.other_endpoint(0, 0), 2);
        assert_eq!(g.other_endpoint(0, 2), 0);
    }

    #[test]
    #[should_panic]
    fn other_endpoint_wrong_vertex_panics() {
        let g = Graph::from_edges(3, [(0, 2)]).unwrap();
        let _ = g.other_endpoint(0, 1);
    }

    #[test]
    fn edge_subgraph_dedupes() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let h = g.edge_subgraph([1, 1, 2]);
        assert_eq!(h.n(), 4);
        assert_eq!(h.m(), 2);
        assert!(h.has_edge(1, 2) && h.has_edge(2, 3) && !h.has_edge(0, 1));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = Graph::from_edges(5, [(0, 1)]).unwrap();
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(4).count(), 0);
    }

    #[test]
    fn memory_bytes_counts_u32_arrays() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        // offsets: 5 u32, targets + incident: 6 u32 each, edges: 3×(u32,u32).
        assert_eq!(g.memory_bytes(), (5 + 6 + 6) * 4 + 3 * 8);
    }
}

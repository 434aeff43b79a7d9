//! Parent-pointer trees: one read surface ([`SelectedTree`]) and the
//! cut/subtree helpers.
//!
//! A shortest-path tree stored as per-vertex parent pointers (the form
//! `rsp_oracle`'s snapshot rows take) has no child lists, but the
//! incremental delta builder needs the opposite traversal: given a
//! failed tree edge, collect the **subtree hanging below it** — the
//! exact set of vertices whose stored path used the edge and therefore
//! must be recomputed (everything else is provably unchanged).
//!
//! [`SubtreeScratch::collect_subtree`] does this with work proportional
//! to the detached subtree's degree sum, not to `n`: a BFS over the
//! graph adjacency that admits a neighbor exactly when its parent
//! pointer points back along the connecting edge. [`tree_edge_child`]
//! is the companion cut test: is this edge on the tree at all, and if
//! so which endpoint is the child (the subtree root)?

use crate::bfs::BfsTree;
use crate::graph::{EdgeId, Graph, Vertex};
use crate::path::Path;

/// Read access to one selected shortest-path tree `π(s, · | F)` where it
/// is stored: an owned [`BfsTree`], a finished [`crate::SearchScratch`],
/// a sweep's [`crate::SweepView`] (the repair kernel's view) or
/// `rsp_oracle`'s `TreeView` (a snapshot row or a reader's search).
///
/// Implementors supply the root, the vertex count, and per-vertex
/// distances and parents; the trait supplies the rest once. Every
/// per-vertex read answers `None` for an out-of-range `v` (`v ≥ n`)
/// instead of panicking, so readers can pass untrusted targets. It is
/// object safe: `rsp_core`'s `Rpts::for_each_tree` lends each tree as
/// `&dyn SelectedTree`, and only a caller that keeps one copies it
/// ([`SelectedTree::to_bfs_tree`]).
///
/// # Examples
///
/// ```
/// use rsp_graph::{bfs, dijkstra, generators, FaultSet, SelectedTree};
///
/// // One reader for an owned tree and a finished search alike.
/// fn edges_and_reach(tree: &dyn SelectedTree) -> (usize, usize) {
///     (tree.tree_edges().count(), tree.reachable_count())
/// }
///
/// let g = generators::path_graph(4);
/// let owned = bfs(&g, 0, &FaultSet::empty());
/// let scratch = dijkstra(&g, 0, &FaultSet::empty(), |_, _, _| 1u64);
/// assert_eq!(edges_and_reach(&owned), (3, 4));
/// assert_eq!(edges_and_reach(&scratch), (3, 4));
/// assert_eq!(scratch.path_to(3), owned.path_to(3));
/// ```
pub trait SelectedTree {
    /// The tree's root.
    fn source(&self) -> Vertex;

    /// Vertex count of the tree's graph, the bound of every walk.
    fn n(&self) -> usize;

    /// Hop count of the selected root-to-`v` path, or `None` if `v` is
    /// unreachable or out of range: the unweighted distance `dist_{G\F}`
    /// for a BFS tree and for a tiebreaking-weight tree, whose
    /// perturbations stay within a hop class.
    fn dist(&self, v: Vertex) -> Option<u32>;

    /// Parent of `v` in the tree as `(vertex, edge id)`, or `None` for
    /// the root, unreachable vertices and out-of-range `v`.
    fn parent(&self, v: Vertex) -> Option<(Vertex, EdgeId)>;

    /// The root-to-`v` tree path, or `None` if `v` is unreachable or out
    /// of range. The walk takes at most `n` steps and also answers `None`
    /// when the parent chain breaks or cycles before reaching the root.
    fn path_to(&self, v: Vertex) -> Option<Path> {
        let hops = self.dist(v)? as usize;
        let (n, source) = (self.n(), self.source());
        let (mut verts, mut cur) = (Vec::with_capacity(hops.min(n) + 1), v);
        verts.push(cur);
        for _ in 0..n {
            if cur == source {
                verts.reverse();
                return Some(Path::new(verts));
            }
            cur = self.parent(cur)?.0;
            verts.push(cur);
        }
        None
    }

    /// All tree edge ids, one per reachable non-root vertex.
    fn tree_edges(&self) -> Box<dyn Iterator<Item = EdgeId> + '_> {
        Box::new((0..self.n()).filter_map(|v| self.parent(v).map(|(_, e)| e)))
    }

    /// Number of reachable vertices, the root included.
    fn reachable_count(&self) -> usize {
        (0..self.n()).filter(|&v| self.dist(v).is_some()).count()
    }

    /// Copies the tree into an owned [`BfsTree`]: the one copy, for
    /// callers that keep a tree past the next query into its scratch.
    fn to_bfs_tree(&self) -> BfsTree {
        let n = self.n();
        BfsTree::from_parts(
            self.source(),
            (0..n).map(|v| self.dist(v)).collect(),
            (0..n).map(|v| self.parent(v)).collect(),
        )
    }
}

/// If `e` is a tree edge of the parent-pointer tree described by
/// `parent`, returns the **child** endpoint — the root of the subtree
/// that detaches when `e` fails. Returns `None` when `e` is not on the
/// tree (failing it then changes nothing).
///
/// `parent(v)` must return `v`'s tree parent as `(vertex, edge id)`, or
/// `None` for the tree's root and unreachable vertices.
///
/// # Examples
///
/// ```
/// use rsp_graph::{bfs, generators, tree_edge_child, FaultSet, SelectedTree};
///
/// let g = generators::path_graph(4); // 0 - 1 - 2 - 3
/// let tree = bfs(&g, 0, &FaultSet::empty());
/// let e = g.edge_between(1, 2).unwrap();
/// // In the BFS tree from 0, vertex 2's parent is 1 via `e`:
/// assert_eq!(tree_edge_child(&g, e, |v| tree.parent(v)), Some(2));
/// ```
pub fn tree_edge_child(
    g: &Graph,
    e: EdgeId,
    mut parent: impl FnMut(Vertex) -> Option<(Vertex, EdgeId)>,
) -> Option<Vertex> {
    if e >= g.m() {
        return None;
    }
    let (u, v) = g.endpoints(e);
    if parent(u) == Some((v, e)) {
        Some(u)
    } else if parent(v) == Some((u, e)) {
        Some(v)
    } else {
        None
    }
}

/// Reusable state for [`SubtreeScratch::collect_subtree`]: an
/// epoch-stamped membership mark, so repeated collections on the same
/// graph are allocation-free and reset in O(1).
#[derive(Clone, Debug, Default)]
pub struct SubtreeScratch {
    mark: Vec<u32>,
    epoch: u32,
}

impl SubtreeScratch {
    /// An empty scratch; arrays grow on first use.
    pub fn new() -> Self {
        SubtreeScratch::default()
    }

    /// A scratch pre-sized for graphs of up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        SubtreeScratch { mark: vec![0; n], epoch: 0 }
    }

    /// Collects into `out` every vertex of the subtree rooted at `root`
    /// in the parent-pointer tree described by `parent` — `root` first,
    /// then its descendants in BFS order.
    ///
    /// `parent(v)` must return `v`'s tree parent as `(vertex, edge
    /// id)`, or `None` for the tree's root and unreachable vertices.
    /// The traversal walks the graph adjacency and admits a neighbor
    /// `x` of an admitted `w` exactly when `parent(x) == (w, edge)`,
    /// so its cost is the degree sum of the collected subtree — the
    /// "proportional to the change" bound the delta builder relies on.
    ///
    /// `out` is cleared first. After the call,
    /// [`SubtreeScratch::contains`] answers membership for this
    /// collection until the next one.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_graph::{bfs, generators, FaultSet, SelectedTree, SubtreeScratch};
    ///
    /// let g = generators::star(5); // center 0, leaves 1..=5
    /// let tree = bfs(&g, 0, &FaultSet::empty());
    /// let mut scratch = SubtreeScratch::with_capacity(g.n());
    /// let mut out = Vec::new();
    /// // The subtree under leaf 3 is just {3}...
    /// scratch.collect_subtree(&g, 3, |v| tree.parent(v), &mut out);
    /// assert_eq!(out, vec![3]);
    /// assert!(scratch.contains(3) && !scratch.contains(0));
    /// // ...while the subtree under the center is the whole star.
    /// scratch.collect_subtree(&g, 0, |v| tree.parent(v), &mut out);
    /// assert_eq!(out.len(), g.n());
    /// ```
    pub fn collect_subtree(
        &mut self,
        g: &Graph,
        root: Vertex,
        mut parent: impl FnMut(Vertex) -> Option<(Vertex, EdgeId)>,
        out: &mut Vec<Vertex>,
    ) {
        if self.mark.len() < g.n() {
            self.mark.resize(g.n(), self.epoch);
        }
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.mark.fill(0);
            1
        });
        out.clear();
        out.push(root);
        self.mark[root] = self.epoch;
        let mut i = 0;
        while i < out.len() {
            let w = out[i];
            i += 1;
            for (x, e) in g.neighbors(w) {
                if self.mark[x] != self.epoch && parent(x) == Some((w, e)) {
                    self.mark[x] = self.epoch;
                    out.push(x);
                }
            }
        }
    }

    /// `true` iff `v` was admitted by the most recent
    /// [`SubtreeScratch::collect_subtree`] call.
    pub fn contains(&self, v: Vertex) -> bool {
        self.mark.get(v).is_some_and(|&m| m == self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::fault::FaultSet;
    use crate::generators;

    #[test]
    fn path_graph_subtree_is_suffix() {
        let g = generators::path_graph(6);
        let tree = bfs(&g, 0, &FaultSet::empty());
        let mut scratch = SubtreeScratch::new();
        let mut out = Vec::new();
        scratch.collect_subtree(&g, 3, |v| tree.parent(v), &mut out);
        assert_eq!(out, vec![3, 4, 5]);
        for v in 0..3 {
            assert!(!scratch.contains(v));
        }
        for v in 3..6 {
            assert!(scratch.contains(v));
        }
    }

    #[test]
    fn non_tree_edge_has_no_child() {
        let g = generators::cycle(5);
        let tree = bfs(&g, 0, &FaultSet::empty());
        // Exactly one cycle edge is off the BFS tree (the one closing
        // the cycle); every other edge has a well-defined child.
        let mut off_tree = 0;
        for e in 0..g.m() {
            match tree_edge_child(&g, e, |v| tree.parent(v)) {
                Some(child) => {
                    let (u, v) = g.endpoints(e);
                    assert!(child == u || child == v);
                    assert_eq!(tree.parent(child).map(|(_, pe)| pe), Some(e));
                }
                None => off_tree += 1,
            }
        }
        assert_eq!(off_tree, 1);
        // Out-of-range ids are never tree edges.
        assert_eq!(tree_edge_child(&g, g.m(), |v| tree.parent(v)), None);
    }

    #[test]
    fn subtree_matches_parent_chain_membership() {
        let g = generators::grid(5, 5);
        let tree = bfs(&g, 0, &FaultSet::empty());
        let mut scratch = SubtreeScratch::with_capacity(g.n());
        let mut out = Vec::new();
        for root in g.vertices() {
            scratch.collect_subtree(&g, root, |v| tree.parent(v), &mut out);
            // Ground truth: x is in root's subtree iff walking x's
            // parent chain reaches root.
            for x in g.vertices() {
                let mut cur = Some(x);
                let mut hit = false;
                while let Some(c) = cur {
                    if c == root {
                        hit = true;
                        break;
                    }
                    cur = tree.parent(c).map(|(p, _)| p);
                }
                assert_eq!(out.contains(&x), hit, "root {root}, x {x}");
                assert_eq!(scratch.contains(x), hit);
            }
        }
    }

    #[test]
    fn scratch_grows_and_reuses() {
        let mut scratch = SubtreeScratch::new();
        let mut out = Vec::new();
        let small = generators::path_graph(3);
        let t_small = bfs(&small, 0, &FaultSet::empty());
        scratch.collect_subtree(&small, 1, |v| t_small.parent(v), &mut out);
        assert_eq!(out, vec![1, 2]);
        let big = generators::grid(4, 4);
        let t_big = bfs(&big, 0, &FaultSet::empty());
        scratch.collect_subtree(&big, 0, |v| t_big.parent(v), &mut out);
        assert_eq!(out.len(), big.n());
    }
}

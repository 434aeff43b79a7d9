//! Breadth-first search honoring fault sets.
//!
//! BFS in `G \ F` is the unweighted ground truth: every experiment that
//! verifies a preserver, spanner, label, or replacement path compares
//! against distances computed here.

use crate::fault::FaultSet;
use crate::graph::{EdgeId, Graph, Vertex};
use crate::scratch::{bfs_into, SearchScratch};
use crate::tree::SelectedTree;

/// The result of a BFS from a single source: a shortest-path (BFS) tree,
/// owned. Read it through [`SelectedTree`].
///
/// # Examples
///
/// ```
/// use rsp_graph::{bfs, generators, FaultSet, SelectedTree};
///
/// let g = generators::path_graph(4); // 0 - 1 - 2 - 3
/// let t = bfs(&g, 0, &FaultSet::empty());
/// assert_eq!(t.dist(3), Some(3));
/// assert_eq!(t.path_to(3).unwrap().vertices(), &[0, 1, 2, 3]);
///
/// let cut = FaultSet::single(g.edge_between(1, 2).unwrap());
/// let t = bfs(&g, 0, &cut);
/// assert_eq!(t.dist(3), None); // disconnected
/// ```
#[derive(Clone, Debug)]
pub struct BfsTree {
    source: Vertex,
    dist: Vec<Option<u32>>,
    parent: Vec<Option<(Vertex, EdgeId)>>,
}

impl BfsTree {
    /// Assembles a tree from raw parts.
    ///
    /// Used by higher layers (e.g. tiebreaking schemes) to expose weighted
    /// shortest-path trees through the unweighted tree interface. Callers
    /// must supply consistent parts: `parent[v].is_some()` exactly for
    /// reachable non-source vertices, and `dist` consistent with parents.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ or the source has a parent.
    pub fn from_parts(
        source: Vertex,
        dist: Vec<Option<u32>>,
        parent: Vec<Option<(Vertex, EdgeId)>>,
    ) -> Self {
        assert_eq!(dist.len(), parent.len(), "mismatched tree part lengths");
        assert!(parent[source].is_none(), "the source has no parent");
        BfsTree { source, dist, parent }
    }

    /// The eccentricity of the source: max distance to a reachable vertex.
    pub fn eccentricity(&self) -> u32 {
        self.dist.iter().filter_map(|d| *d).max().unwrap_or(0)
    }
}

impl SelectedTree for BfsTree {
    fn source(&self) -> Vertex {
        self.source
    }

    fn n(&self) -> usize {
        self.dist.len()
    }

    #[inline]
    fn dist(&self, v: Vertex) -> Option<u32> {
        self.dist.get(v).copied().flatten()
    }

    #[inline]
    fn parent(&self, v: Vertex) -> Option<(Vertex, EdgeId)> {
        self.parent.get(v).copied().flatten()
    }
}

/// Runs BFS from `source` in `g \ faults`.
///
/// Ties between equal-length paths are broken by neighbor order (lowest
/// vertex id first), which makes this a *consistent but arbitrary*
/// tiebreaking scheme — exactly the kind Figure 1 of the paper shows can
/// fail restoration-by-concatenation. The restorable schemes live in
/// `rsp-core`.
///
/// This is the allocate-once wrapper over the scratch-based engine; loops
/// issuing many BFS queries should hold a [`crate::SearchScratch`] and call
/// [`crate::bfs_into`] directly.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
pub fn bfs(g: &Graph, source: Vertex, faults: &FaultSet) -> BfsTree {
    let mut scratch = SearchScratch::<u32>::with_capacity(g.n());
    bfs_into(g, source, faults, &mut scratch);
    scratch.to_bfs_tree()
}

/// Runs BFS from every vertex, returning one tree per source.
///
/// `O(n·(n + m))`; used by verifiers and small-scale ground truth, not by
/// the algorithms under test.
pub fn bfs_all_pairs(g: &Graph, faults: &FaultSet) -> Vec<BfsTree> {
    g.vertices().map(|s| bfs(g, s, faults)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_cycle() {
        let g = generators::cycle(6);
        let t = bfs(&g, 0, &FaultSet::empty());
        assert_eq!(t.dist(3), Some(3));
        assert_eq!(t.dist(5), Some(1));
        assert_eq!(t.eccentricity(), 3);
        assert_eq!(t.reachable_count(), 6);
    }

    #[test]
    fn path_reconstruction() {
        let g = generators::grid(3, 3);
        let t = bfs(&g, 0, &FaultSet::empty());
        let p = t.path_to(8).unwrap();
        assert_eq!(p.hops(), 4);
        assert!(p.is_valid_in(&g));
        assert_eq!(p.source(), 0);
        assert_eq!(p.target(), 8);
    }

    #[test]
    fn faults_reroute() {
        let g = generators::cycle(5);
        let e = g.edge_between(0, 1).unwrap();
        let t = bfs(&g, 0, &FaultSet::single(e));
        assert_eq!(t.dist(1), Some(4));
        assert!(t.path_to(1).unwrap().avoids(&g, &FaultSet::single(e)));
    }

    #[test]
    fn unreachable_after_cut() {
        let g = generators::path_graph(4);
        let e = g.edge_between(1, 2).unwrap();
        let t = bfs(&g, 0, &FaultSet::single(e));
        assert_eq!(t.dist(2), None);
        assert!(t.path_to(2).is_none());
        assert_eq!(t.reachable_count(), 2);
    }

    #[test]
    fn tree_edges_count() {
        let g = generators::complete(5);
        let t = bfs(&g, 2, &FaultSet::empty());
        assert_eq!(t.tree_edges().count(), 4);
    }

    #[test]
    fn all_pairs_symmetric() {
        let g = generators::petersen();
        let trees = bfs_all_pairs(&g, &FaultSet::empty());
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(trees[u].dist(v), trees[v].dist(u));
            }
        }
    }

    #[test]
    fn source_has_no_parent() {
        let g = generators::path_graph(3);
        let t = bfs(&g, 1, &FaultSet::empty());
        assert!(t.parent(1).is_none());
        assert_eq!(t.parent(0).map(|(p, _)| p), Some(1));
    }

    #[test]
    fn cyclic_parents_answer_none_and_list_finitely() {
        // `from_parts` trusts its caller: here 2 and 3 are each other's
        // parent, a chain that never reaches the source.
        let dist = vec![Some(0), Some(1), Some(2), Some(3)];
        let parent = vec![None, Some((0, 0)), Some((3, 2)), Some((2, 2))];
        let t = BfsTree::from_parts(0, dist, parent);
        assert_eq!(t.path_to(1).unwrap().vertices(), &[0, 1]);
        assert!(t.path_to(2).is_none());
        assert!(t.path_to(3).is_none());
        assert_eq!(t.tree_edges().count(), 3);
    }
}

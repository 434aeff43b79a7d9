//! The sourcewise setting: replacement paths for all pairs in `{s} × V`.
//!
//! Section 1.1 recounts the history: Chechik–Cohen introduced the
//! sourcewise problem and gave an `Õ(m√n + n²)` algorithm that is
//! BMM-conditionally optimal. This module provides the combinatorial
//! `O(n·(n + m))` construction that the subsetwise Algorithm 1 is
//! measured against at `S = {s}` scale: one BFS per *tree edge* of the
//! selected SPT (only tree-edge failures can change any `{s} × V`
//! distance, by stability), with answers stored per tree edge.

use std::collections::HashMap;

use rsp_core::RandomGridAtw;
use rsp_graph::{bfs, EdgeId, FaultSet, Graph, SelectedTree, Vertex};

/// All `{s} × V` replacement distances: `dist_{G\{e}}(s, t)` for every
/// target `t` and every edge `e`.
///
/// # Examples
///
/// ```
/// use rsp_replacement::SourcewiseReplacementPaths;
/// use rsp_graph::generators;
///
/// let g = generators::cycle(6);
/// let rp = SourcewiseReplacementPaths::build(&g, 0, 7);
/// // Any failure on the canonical 0⇝3 path reroutes to 3 hops the
/// // other way.
/// for (e, _, _) in g.edges() {
///     assert!(rp.dist_after_fault(3, e) == Some(3));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SourcewiseReplacementPaths {
    source: Vertex,
    /// Fault-free distances from the source.
    base: Vec<Option<u32>>,
    /// Per selected-tree edge: the full `{s} × V` distance vector in
    /// `G \ {e}`.
    per_tree_edge: HashMap<EdgeId, Vec<Option<u32>>>,
    /// For each target, the tree edges on its selected path (so queries
    /// know whether a fault is relevant).
    path_edges: Vec<Vec<EdgeId>>,
}

impl SourcewiseReplacementPaths {
    /// Builds the structure: one restorable-scheme SPT plus one BFS per
    /// tree edge — `O(n·(n + m))`.
    pub fn build(g: &Graph, source: Vertex, seed: u64) -> Self {
        assert!(source < g.n(), "source out of range");
        let scheme = RandomGridAtw::theorem20(g, seed).into_scheme();
        let empty = FaultSet::empty();
        let spt = scheme.spt(source, &empty);
        let base: Vec<Option<u32>> = g.vertices().map(|v| spt.hops(v)).collect();
        let path_edges: Vec<Vec<EdgeId>> = g
            .vertices()
            .map(|t| {
                spt.path_to(t)
                    .map_or(Vec::new(), |p| p.edge_ids(g).expect("selected paths are valid"))
            })
            .collect();
        let tree_edges: Vec<EdgeId> = spt.tree_edges().collect();
        let per_tree_edge = tree_edges
            .into_iter()
            .map(|e| {
                let tree = bfs(g, source, &FaultSet::single(e));
                (e, g.vertices().map(|v| tree.dist(v)).collect())
            })
            .collect();
        SourcewiseReplacementPaths { source, base, per_tree_edge, path_edges }
    }

    /// The source vertex.
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// Fault-free distance to `t`.
    pub fn base_dist(&self, t: Vertex) -> Option<u32> {
        self.base[t]
    }

    /// `dist_{G\{e}}(s, t)` for **any** edge `e`.
    ///
    /// Off-path faults cannot change the selected path (stability), so
    /// the base distance is returned; tree-edge faults on the path are
    /// answered from the precomputed BFS.
    pub fn dist_after_fault(&self, t: Vertex, e: EdgeId) -> Option<u32> {
        if !self.path_edges[t].contains(&e) {
            return self.base[t];
        }
        self.per_tree_edge.get(&e).expect("path edges are tree edges")[t]
    }

    /// Number of stored distance vectors (= selected tree edges).
    pub fn vectors_stored(&self) -> usize {
        self.per_tree_edge.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_graph::generators;

    #[test]
    fn matches_bfs_truth_for_all_targets_and_edges() {
        let g = generators::connected_gnm(18, 40, 3);
        let rp = SourcewiseReplacementPaths::build(&g, 0, 9);
        for (e, _, _) in g.edges() {
            let truth = bfs(&g, 0, &FaultSet::single(e));
            for t in g.vertices() {
                assert_eq!(rp.dist_after_fault(t, e), truth.dist(t), "t={t} e={e}");
            }
        }
    }

    #[test]
    fn storage_is_one_vector_per_tree_edge() {
        let g = generators::complete(8);
        let rp = SourcewiseReplacementPaths::build(&g, 0, 1);
        assert_eq!(rp.vectors_stored(), g.n() - 1);
    }

    #[test]
    fn disconnection_reported() {
        let g = generators::path_graph(5);
        let rp = SourcewiseReplacementPaths::build(&g, 0, 2);
        let e = g.edge_between(2, 3).unwrap();
        assert_eq!(rp.dist_after_fault(4, e), None);
        assert_eq!(rp.dist_after_fault(2, e), Some(2));
        assert_eq!(rp.base_dist(4), Some(4));
    }

    #[test]
    fn off_path_faults_keep_base_distance() {
        let g = generators::grid(3, 4);
        let rp = SourcewiseReplacementPaths::build(&g, 0, 4);
        // A corner-incident edge far from vertex 1's path.
        let far = g.edge_between(10, 11).unwrap();
        assert_eq!(rp.dist_after_fault(1, far), rp.base_dist(1));
    }

    #[test]
    fn source_distance_is_zero_under_any_fault() {
        let g = generators::cycle(5);
        let rp = SourcewiseReplacementPaths::build(&g, 2, 5);
        for (e, _, _) in g.edges() {
            assert_eq!(rp.dist_after_fault(2, e), Some(0));
        }
    }
}

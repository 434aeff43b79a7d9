//! The arbitrary-but-consistent baseline scheme: BFS with neighbor-order
//! tiebreaking.
//!
//! This is the scheme a routing table built from a textbook BFS (or
//! Floyd–Warshall) implicitly commits to. It is a perfectly legitimate
//! replacement-path tiebreaking scheme — consistent per fault set — but it
//! is **not restorable**: Figure 1 of the paper illustrates how its
//! canonical `π(s, x)` can use the failing edge even when a tied
//! alternative avoids it. Experiment E1 quantifies how often that actually
//! happens.

use std::ops::ControlFlow;

use rsp_graph::{bfs, bfs_into, BfsTree, FaultSet, Graph, SelectedTree, Vertex};

use crate::scheme::{Rpts, RptsScratch};

/// Neighbor visit order for the baseline BFS scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BfsOrder {
    /// Visit neighbors in increasing vertex id (the usual arbitrary choice).
    #[default]
    Ascending,
    /// Visit neighbors in decreasing vertex id.
    Descending,
}

/// BFS with deterministic neighbor-order tiebreaking: the "naive routing
/// table" baseline of experiment E1.
///
/// # Examples
///
/// ```
/// use rsp_core::{BfsScheme, BfsOrder, Rpts};
/// use rsp_graph::{generators, FaultSet};
///
/// let g = generators::cycle(4);
/// let scheme = BfsScheme::new(&g, BfsOrder::Ascending);
/// let p = scheme.path(1, 3, &FaultSet::empty()).unwrap();
/// assert_eq!(p.hops(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct BfsScheme {
    graph: Graph,
    order: BfsOrder,
    /// Vertex relabeling for Descending order (BFS visits sorted adjacency,
    /// so descending is realized by flipping ids).
    flip: bool,
}

impl BfsScheme {
    /// Creates the baseline scheme over `g`.
    pub fn new(g: &Graph, order: BfsOrder) -> Self {
        BfsScheme { graph: g.clone(), order, flip: order == BfsOrder::Descending }
    }

    /// The neighbor order in use.
    pub fn order(&self) -> BfsOrder {
        self.order
    }
}

impl Rpts for BfsScheme {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn tree_from(&self, s: Vertex, faults: &FaultSet) -> BfsTree {
        if !self.flip {
            return bfs(&self.graph, s, faults);
        }
        // Descending neighbor order == ascending order on flipped ids.
        // Build the flipped graph lazily per call; the baseline is only
        // used on small experimental inputs.
        let n = self.graph.n();
        let flip = |v: Vertex| n - 1 - v;
        let flipped = Graph::from_edges(n, self.graph.edges().map(|(_, u, v)| (flip(u), flip(v))))
            .expect("flipping preserves validity");
        let flipped_faults = FaultSet::from_edges(faults.iter().map(|e| {
            let (u, v) = self.graph.endpoints(e);
            flipped.edge_between(flip(u), flip(v)).expect("edge exists in flipped graph")
        }));
        let tree = bfs(&flipped, flip(s), &flipped_faults);
        // Translate the tree back to original ids.
        let mut dist = vec![None; n];
        let mut parent = vec![None; n];
        for v in 0..n {
            dist[flip(v)] = tree.dist(v);
            if let Some((p, _)) = tree.parent(v) {
                let e = self
                    .graph
                    .edge_between(flip(v), flip(p))
                    .expect("tree edges exist in the original graph");
                parent[flip(v)] = Some((flip(p), e));
            }
        }
        BfsTree::from_parts(s, dist, parent)
    }

    fn tree_from_with(&self, s: Vertex, faults: &FaultSet, scratch: &mut RptsScratch) -> BfsTree {
        if self.flip {
            // The descending order rebuilds a flipped graph per call anyway;
            // scratch reuse would be noise. Take the cold path.
            return self.tree_from(s, faults);
        }
        // Every RptsScratch carries unweighted BFS state; no payload needed.
        let sc = scratch.bfs_scratch();
        bfs_into(&self.graph, s, faults, sc);
        sc.to_bfs_tree()
    }

    /// Lends each ascending-order tree where [`bfs_into`] left it, in
    /// the scratch's BFS state; the descending order lends the tree its
    /// flipped search translated back.
    fn for_each_tree(
        &self,
        sources: &[Vertex],
        fault_sets: &[FaultSet],
        scratch: &mut RptsScratch,
        visitor: &mut dyn FnMut(usize, usize, &dyn SelectedTree) -> ControlFlow<()>,
    ) {
        for (si, &s) in sources.iter().enumerate() {
            for (fi, faults) in fault_sets.iter().enumerate() {
                let flow = if self.flip {
                    visitor(si, fi, &self.tree_from(s, faults))
                } else {
                    let sc = scratch.bfs_scratch();
                    bfs_into(&self.graph, s, faults, sc);
                    visitor(si, fi, &*sc)
                };
                if flow.is_break() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_graph::generators;

    #[test]
    fn ascending_prefers_low_ids() {
        // C4: two tied 2-hop paths 1→0→3 and 1→2→3; ascending picks via 0.
        let g = generators::cycle(4);
        let s = BfsScheme::new(&g, BfsOrder::Ascending);
        let p = s.path(1, 3, &FaultSet::empty()).unwrap();
        assert_eq!(p.vertices(), &[1, 0, 3]);
    }

    #[test]
    fn descending_prefers_high_ids() {
        let g = generators::cycle(4);
        let s = BfsScheme::new(&g, BfsOrder::Descending);
        let p = s.path(1, 3, &FaultSet::empty()).unwrap();
        assert_eq!(p.vertices(), &[1, 2, 3]);
    }

    #[test]
    fn distances_correct_in_both_orders() {
        let g = generators::grid(3, 4);
        for order in [BfsOrder::Ascending, BfsOrder::Descending] {
            let s = BfsScheme::new(&g, order);
            for src in g.vertices() {
                let tree = s.tree_from(src, &FaultSet::empty());
                let truth = bfs(&g, src, &FaultSet::empty());
                for t in g.vertices() {
                    assert_eq!(tree.dist(t), truth.dist(t));
                }
            }
        }
    }

    #[test]
    fn scratch_queries_match_allocating_queries() {
        let g = generators::grid(3, 3);
        for order in [BfsOrder::Ascending, BfsOrder::Descending] {
            let s = BfsScheme::new(&g, order);
            let mut scratch = s.new_scratch();
            for src in g.vertices() {
                let with = s.tree_from_with(src, &FaultSet::single(0), &mut scratch);
                let plain = s.tree_from(src, &FaultSet::single(0));
                for t in g.vertices() {
                    assert_eq!(with.dist(t), plain.dist(t));
                    assert_eq!(with.parent(t), plain.parent(t));
                }
            }
        }
    }

    #[test]
    fn for_each_tree_lends_the_per_query_trees() {
        let g = generators::grid(3, 3);
        let sources = [0, 4, 8];
        let faults: Vec<FaultSet> = (0..4).map(FaultSet::single).collect();
        for order in [BfsOrder::Ascending, BfsOrder::Descending] {
            let s = BfsScheme::new(&g, order);
            let mut scratch = s.new_scratch();
            let mut visited = 0;
            s.for_each_tree(&sources, &faults, &mut scratch, &mut |si, fi, tree| {
                let plain = s.tree_from(sources[si], &faults[fi]);
                for t in g.vertices() {
                    assert_eq!(tree.dist(t), plain.dist(t), "{order:?}");
                    assert_eq!(tree.parent(t), plain.parent(t), "{order:?}");
                }
                visited += 1;
                if visited == 7 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!(visited, 7, "{order:?}: the visitor's break stops the sweep");
        }
    }

    #[test]
    fn respects_faults() {
        let g = generators::cycle(5);
        let e = g.edge_between(0, 1).unwrap();
        for order in [BfsOrder::Ascending, BfsOrder::Descending] {
            let s = BfsScheme::new(&g, order);
            let p = s.path(0, 1, &FaultSet::single(e)).unwrap();
            assert_eq!(p.hops(), 4);
        }
    }
}

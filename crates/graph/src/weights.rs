//! Positive integer edge weights, for the weighted restoration lemma
//! (Theorem 11) and its applications.
//!
//! The main results of the paper are for unweighted graphs, but the
//! weighted restoration lemma holds for undirected graphs with positive
//! weights, and the single-pair replacement path machinery extends to
//! them. Weights live *beside* the graph (a parallel vector keyed by
//! [`EdgeId`]) so the unweighted substrate stays untouched.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{EdgeId, Graph, Vertex};
use crate::{dijkstra, FaultSet, SearchScratch};

/// Positive integer weights for every edge of a graph.
///
/// # Examples
///
/// ```
/// use rsp_graph::{generators, EdgeWeights};
///
/// let g = generators::cycle(4);
/// let w = EdgeWeights::uniform(&g, 5);
/// assert_eq!(w.get(0), 5);
/// assert_eq!(w.total(), 20);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeWeights {
    w: Vec<u64>,
}

impl EdgeWeights {
    /// Wraps explicit weights; one per edge, all positive.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `g.m()` or any weight is zero.
    pub fn new(g: &Graph, w: Vec<u64>) -> Self {
        assert_eq!(w.len(), g.m(), "one weight per edge");
        assert!(w.iter().all(|&x| x > 0), "weights must be positive");
        EdgeWeights { w }
    }

    /// Every edge gets weight `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0`.
    pub fn uniform(g: &Graph, value: u64) -> Self {
        assert!(value > 0, "weights must be positive");
        EdgeWeights { w: vec![value; g.m()] }
    }

    /// Uniform random weights in `1..=max`.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    pub fn random(g: &Graph, max: u64, seed: u64) -> Self {
        assert!(max > 0, "weights must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        EdgeWeights { w: (0..g.m()).map(|_| rng.random_range(1..=max)).collect() }
    }

    /// The weight of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn get(&self, e: EdgeId) -> u64 {
        self.w[e]
    }

    /// Number of weighted edges.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// `true` iff the graph had no edges.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.w.iter().sum()
    }

    /// The largest weight.
    pub fn max(&self) -> u64 {
        self.w.iter().copied().max().unwrap_or(0)
    }

    /// The weighted length of a path, or `None` if invalid in `g`.
    pub fn path_weight(&self, g: &Graph, p: &crate::Path) -> Option<u64> {
        let mut total = 0u64;
        for (u, v) in p.steps() {
            total += self.get(g.edge_between(u, v)?);
        }
        Some(total)
    }
}

/// Weighted single-source shortest paths in `g \ faults` (plain Dijkstra;
/// ties possible — use this for ground-truth *distances*, and the
/// perturbed machinery when canonical unique paths are needed).
pub fn weighted_sssp(
    g: &Graph,
    weights: &EdgeWeights,
    source: Vertex,
    faults: &FaultSet,
) -> SearchScratch<u64> {
    dijkstra(g, source, faults, |e, _, _| weights.get(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::SelectedTree;

    #[test]
    fn uniform_weights_scale_bfs() {
        let g = generators::grid(3, 3);
        let w = EdgeWeights::uniform(&g, 7);
        let spt = weighted_sssp(&g, &w, 0, &FaultSet::empty());
        let bfs = crate::bfs(&g, 0, &FaultSet::empty());
        for v in g.vertices() {
            assert_eq!(spt.cost(v).copied(), bfs.dist(v).map(|d| 7 * d as u64));
        }
    }

    #[test]
    fn weighted_route_prefers_light_detour() {
        // Triangle with a heavy direct edge: the 2-hop detour wins.
        let g = Graph::from_edges(3, [(0, 2), (0, 1), (1, 2)]).unwrap();
        let heavy = g.edge_between(0, 2).unwrap();
        let mut w = vec![1u64; 3];
        w[heavy] = 10;
        let w = EdgeWeights::new(&g, w);
        let spt = weighted_sssp(&g, &w, 0, &FaultSet::empty());
        assert_eq!(spt.cost(2), Some(&2));
        assert_eq!(spt.path_to(2).unwrap().vertices(), &[0, 1, 2]);
    }

    #[test]
    fn faults_respected() {
        let g = generators::cycle(4);
        let w = EdgeWeights::random(&g, 9, 3);
        let e = g.edge_between(0, 1).unwrap();
        let spt = weighted_sssp(&g, &w, 0, &FaultSet::single(e));
        let detour = w.get(g.edge_between(0, 3).unwrap())
            + w.get(g.edge_between(2, 3).unwrap())
            + w.get(g.edge_between(1, 2).unwrap());
        assert_eq!(spt.cost(1), Some(&detour));
    }

    #[test]
    fn path_weight_accumulates() {
        let g = generators::path_graph(4);
        let w = EdgeWeights::new(&g, vec![2, 3, 4]);
        let p = crate::Path::new(vec![0, 1, 2, 3]);
        assert_eq!(w.path_weight(&g, &p), Some(9));
        assert_eq!(w.path_weight(&g, &crate::Path::new(vec![0, 2])), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let g = generators::cycle(3);
        let _ = EdgeWeights::new(&g, vec![1, 0, 1]);
    }

    #[test]
    fn determinism_by_seed() {
        let g = generators::complete(6);
        assert_eq!(EdgeWeights::random(&g, 100, 5), EdgeWeights::random(&g, 100, 5));
        assert_ne!(EdgeWeights::random(&g, 100, 5), EdgeWeights::random(&g, 100, 6));
    }
}

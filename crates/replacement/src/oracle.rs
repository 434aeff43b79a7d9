//! A single-fault distance sensitivity oracle built from Algorithm 1.
//!
//! Section 4.3 of the paper relates fault-tolerant labels to *distance
//! sensitivity oracles* (Weimann–Yuster, van den Brand–Saranurak): global
//! structures answering `dist_{G\{e}}(s, t)` queries. This is the direct
//! construction the restorable machinery yields: run subset-rp over
//! `S = V` and store, per pair, the per-path-edge replacement distances.
//! Space `O(n²·ℓ̄)` entries (ℓ̄ = average path length), query `O(log ℓ)`.
//! It is the all-pairs ground-truth structure the labeling scheme is
//! measured against in the benches.

use std::collections::HashMap;

use rsp_graph::{EdgeId, Graph, Vertex};

use crate::subset_rp::subset_replacement_paths;

/// An all-pairs, single-fault exact distance oracle.
///
/// # Examples
///
/// ```
/// use rsp_replacement::SingleFaultOracle;
/// use rsp_graph::generators;
///
/// let g = generators::cycle(6);
/// let oracle = SingleFaultOracle::build(&g, 7);
/// // Any cycle edge failure reroutes the 0⇝3 distance to 3 hops.
/// for (e, _, _) in g.edges() {
///     assert_eq!(oracle.query(0, 3, e), Some(3));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SingleFaultOracle {
    n: usize,
    /// Per unordered pair: fault-free distance and per-path-edge entries.
    pairs: HashMap<(Vertex, Vertex), PairData>,
}

#[derive(Clone, Debug)]
struct PairData {
    base: u32,
    /// Sorted by edge id for binary-search queries.
    entries: Vec<(EdgeId, Option<u32>)>,
}

impl SingleFaultOracle {
    /// Builds the oracle over all vertex pairs. `O(n·m + n²·n)` time via
    /// Algorithm 1 with `S = V`; the underlying `O(n²)` tree queries run
    /// through Algorithm 1's reused search scratches, so the build
    /// allocates per *pair result*, not per query.
    pub fn build(g: &Graph, seed: u64) -> Self {
        let sources: Vec<Vertex> = g.vertices().collect();
        let rp = subset_replacement_paths(g, &sources, seed);
        let pairs = rp
            .iter()
            .map(|p| {
                let (s, t) = p.pair();
                let mut entries: Vec<(EdgeId, Option<u32>)> =
                    p.entries().iter().map(|e| (e.edge, e.dist)).collect();
                entries.sort_unstable_by_key(|&(e, _)| e);
                ((s.min(t), s.max(t)), PairData { base: p.base_dist(), entries })
            })
            .collect();
        SingleFaultOracle { n: g.n(), pairs }
    }

    /// `dist_{G\{e}}(s, t)`; `None` if the failure (or the graph)
    /// disconnects the pair.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn query(&self, s: Vertex, t: Vertex, e: EdgeId) -> Option<u32> {
        assert!(s < self.n && t < self.n, "query pair out of range");
        if s == t {
            return Some(0);
        }
        let data = self.pairs.get(&(s.min(t), s.max(t)))?;
        match data.entries.binary_search_by_key(&e, |&(id, _)| id) {
            Ok(i) => data.entries[i].1,
            Err(_) => Some(data.base), // off-path faults leave the distance
        }
    }

    /// Fault-free distance, `None` if disconnected.
    pub fn base_dist(&self, s: Vertex, t: Vertex) -> Option<u32> {
        if s == t {
            return Some(0);
        }
        self.pairs.get(&(s.min(t), s.max(t))).map(|d| d.base)
    }

    /// Total stored `(pair, edge)` entries — the space objective.
    pub fn entry_count(&self) -> usize {
        self.pairs.values().map(|d| d.entries.len()).sum()
    }

    /// Number of connected pairs served.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_graph::SelectedTree;
    use rsp_graph::{bfs, generators, FaultSet};

    #[test]
    fn oracle_matches_bfs_truth_everywhere() {
        let g = generators::connected_gnm(16, 34, 3);
        let oracle = SingleFaultOracle::build(&g, 9);
        for (e, _, _) in g.edges() {
            let fs = FaultSet::single(e);
            for s in g.vertices() {
                let truth = bfs(&g, s, &fs);
                for t in g.vertices() {
                    assert_eq!(oracle.query(s, t, e), truth.dist(t), "({s},{t}) e={e}");
                }
            }
        }
    }

    #[test]
    fn disconnected_pairs_and_bridges() {
        let g = generators::path_graph(4);
        let oracle = SingleFaultOracle::build(&g, 1);
        let bridge = g.edge_between(1, 2).unwrap();
        assert_eq!(oracle.query(0, 3, bridge), None);
        assert_eq!(oracle.query(0, 1, bridge), Some(1));
        assert_eq!(oracle.base_dist(0, 3), Some(3));
    }

    #[test]
    fn space_accounting() {
        let g = generators::cycle(8);
        let oracle = SingleFaultOracle::build(&g, 2);
        assert_eq!(oracle.pair_count(), 8 * 7 / 2);
        // Each pair stores one entry per selected path edge.
        assert!(oracle.entry_count() >= oracle.pair_count());
    }

    #[test]
    fn trivial_queries() {
        let g = generators::cycle(5);
        let oracle = SingleFaultOracle::build(&g, 4);
        assert_eq!(oracle.query(2, 2, 0), Some(0));
        assert_eq!(oracle.base_dist(3, 3), Some(0));
    }
}

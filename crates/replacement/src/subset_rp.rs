//! Algorithm 1 of the paper: subset replacement paths via restorable
//! tiebreaking (Theorem 29).
//!
//! The algorithm computes one shortest-path tree per source under a
//! 1-restorable tiebreaking scheme, then solves each pair `(s₁, s₂)` on
//! the union `T_{s₁} ∪ T_{s₂}` — a graph with only `O(n)` edges. The
//! correctness hinge is restorability: for any failing edge `e` there is a
//! midpoint `x` with `π(s₁, x) ∪ π(s₂, x)` a replacement shortest path,
//! and both halves live inside the two trees. Runtime
//! `O(σm) + Õ(σ²n)` versus `O(σ²m)` for the per-pair baseline.

use std::collections::HashMap;

use rsp_core::RandomGridAtw;
use rsp_graph::{parallel_indexed, EdgeId, FaultSet, Graph, Path, SearchScratch, Vertex};

use crate::single_pair::{
    single_pair_replacement_paths_with, ReplacementEntry, ReplacementScratch, SinglePairResult,
};

/// Replacement-path answers for one source pair.
#[derive(Clone, Debug)]
pub struct PairReplacements {
    s: Vertex,
    t: Vertex,
    result: SinglePairResult,
}

impl PairReplacements {
    /// Wraps a single-pair result for the pair `(s, t)`.
    pub(crate) fn new(s: Vertex, t: Vertex, result: SinglePairResult) -> Self {
        PairReplacements { s, t, result }
    }

    /// The pair, in the order it was computed.
    pub fn pair(&self) -> (Vertex, Vertex) {
        (self.s, self.t)
    }

    /// Fault-free distance.
    pub fn base_dist(&self) -> u32 {
        self.result.base_dist()
    }

    /// The selected shortest path between the pair.
    pub fn path(&self) -> &Path {
        self.result.path()
    }

    /// Per-path-edge replacement distances.
    pub fn entries(&self) -> &[ReplacementEntry] {
        self.result.entries()
    }

    /// The underlying single-pair result.
    pub fn result(&self) -> &SinglePairResult {
        &self.result
    }
}

/// Output of [`subset_replacement_paths`]: answers for all unordered
/// source pairs.
#[derive(Clone, Debug)]
pub struct SubsetRpResult {
    pairs: HashMap<(Vertex, Vertex), PairReplacements>,
}

impl SubsetRpResult {
    pub(crate) fn from_pairs(pairs: Vec<PairReplacements>) -> Self {
        SubsetRpResult {
            pairs: pairs
                .into_iter()
                .map(|p| {
                    let (s, t) = p.pair();
                    ((s.min(t), s.max(t)), p)
                })
                .collect(),
        }
    }

    /// Answers for the pair `{s, t}` (order-insensitive); `None` if the
    /// pair was disconnected or not requested.
    pub fn pair(&self, s: Vertex, t: Vertex) -> Option<&PairReplacements> {
        self.pairs.get(&(s.min(t), s.max(t)))
    }

    /// Number of connected pairs answered.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Iterates over all answered pairs.
    pub fn iter(&self) -> impl Iterator<Item = &PairReplacements> {
        self.pairs.values()
    }

    /// `dist_{G\{e}}(s, t)` for any edge `e`: the stored entry for edges on
    /// the pair's selected path, the base distance otherwise. `None` means
    /// the failure disconnects the pair (or the pair was never connected).
    pub fn dist_after_fault(&self, s: Vertex, t: Vertex, e: EdgeId) -> Option<u32> {
        self.pair(s, t)?.result().dist_after_fault(e)
    }
}

/// **Algorithm 1**: solves subset-rp for all pairs of `sources` in
/// `O(σm) + Õ(σ²n)` (Theorem 29).
///
/// `seed` drives the restorable tiebreaking perturbation and the per-pair
/// sub-perturbations; all seeds give correct output.
///
/// # Panics
///
/// Panics if any source is out of range.
///
/// # Examples
///
/// ```
/// use rsp_replacement::subset_replacement_paths;
/// use rsp_graph::generators;
///
/// let g = generators::cycle(8);
/// let r = subset_replacement_paths(&g, &[0, 4], 1);
/// // Any single edge failure on the 0⇝4 path reroutes the long way: 4 hops.
/// let pair = r.pair(0, 4).unwrap();
/// assert!(pair.entries().iter().all(|e| e.dist == Some(4)));
/// ```
pub fn subset_replacement_paths(g: &Graph, sources: &[Vertex], seed: u64) -> SubsetRpResult {
    subset_replacement_paths_par(g, sources, seed, 1)
}

/// [`subset_replacement_paths`] with both phases fanned out over a worker
/// pool: the per-source SPT builds run through
/// [`rsp_graph::parallel_indexed`] with one [`SearchScratch`] per worker,
/// and the `O(σ²)` per-pair sub-instances are distributed across workers,
/// each holding its own [`ReplacementScratch`].
///
/// Output is identical to the sequential form for every worker count
/// (`workers = 1` runs inline on the calling thread).
///
/// # Panics
///
/// Panics if any source is out of range.
pub fn subset_replacement_paths_par(
    g: &Graph,
    sources: &[Vertex],
    seed: u64,
    workers: usize,
) -> SubsetRpResult {
    for &s in sources {
        assert!(s < g.n(), "source {s} out of range");
    }
    // Step 1–3 of Algorithm 1: restorable scheme + one outgoing SPT per
    // source, fanned out over the worker pool (one search scratch each).
    let scheme = RandomGridAtw::theorem20(g, seed).into_scheme();
    let tree_edges: Vec<Vec<EdgeId>> = parallel_indexed(
        sources.len(),
        workers,
        |_| SearchScratch::with_capacity(g.n()),
        |scratch, i| {
            scheme.spt_into(sources[i], &FaultSet::empty(), scratch);
            scratch.tree_edges().collect()
        },
    );

    // Step 4–5: per pair, solve on the union of the two trees. Pairs are
    // independent, so they fan out too — one ReplacementScratch per worker
    // reused across that worker's sub-instances.
    let index_pairs: Vec<(usize, usize)> = (0..sources.len())
        .flat_map(|i| ((i + 1)..sources.len()).map(move |j| (i, j)))
        .filter(|&(i, j)| sources[i] != sources[j])
        .collect();
    let pairs = parallel_indexed(
        index_pairs.len(),
        workers,
        |_| ReplacementScratch::with_capacity(g.n()),
        |pair_scratch, p| {
            let (i, j) = index_pairs[p];
            let (s, t) = (sources[i], sources[j]);
            let union: Vec<EdgeId> =
                tree_edges[i].iter().chain(tree_edges[j].iter()).copied().collect();
            let u_graph = g.edge_subgraph(union);
            let pair_seed = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + (i * 101 + j) as u64);
            let sub = single_pair_replacement_paths_with(&u_graph, s, t, pair_seed, pair_scratch)?;
            // Translate edge ids from the union graph back to G.
            let entries = sub
                .entries()
                .iter()
                .map(|entry| {
                    let (a, b) = u_graph.endpoints(entry.edge);
                    let edge = g.edge_between(a, b).expect("union edges come from G");
                    ReplacementEntry { edge, dist: entry.dist }
                })
                .collect();
            let result = SinglePairResult::from_parts(s, t, sub.path().clone(), entries);
            Some(PairReplacements::new(s, t, result))
        },
    );
    SubsetRpResult::from_pairs(pairs.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::naive_subset_rp;
    use rsp_graph::generators;

    /// Cross-checks Algorithm 1 against the naive recomputation: for every
    /// pair, every edge of Algorithm 1's selected path must get the true
    /// replacement distance.
    fn check_against_naive(g: &Graph, sources: &[Vertex], seed: u64) {
        let fast = subset_replacement_paths(g, sources, seed);
        for (i, &s) in sources.iter().enumerate() {
            for &t in &sources[i + 1..] {
                let pair = fast.pair(s, t).expect("connected test graphs");
                // Base distance must be the true distance.
                let truth0 = rsp_graph::bfs(g, s, &rsp_graph::FaultSet::empty()).dist(t).unwrap();
                assert_eq!(pair.base_dist(), truth0, "pair ({s},{t})");
                // Path edges carry true replacement distances.
                for entry in pair.entries() {
                    let truth =
                        rsp_graph::bfs(g, s, &rsp_graph::FaultSet::single(entry.edge)).dist(t);
                    assert_eq!(entry.dist, truth, "pair ({s},{t}) edge {}", entry.edge);
                }
            }
        }
    }

    #[test]
    fn algorithm1_matches_truth_on_cycle() {
        let g = generators::cycle(9);
        check_against_naive(&g, &[0, 3, 6], 1);
    }

    #[test]
    fn algorithm1_matches_truth_on_grid() {
        let g = generators::grid(4, 5);
        check_against_naive(&g, &[0, 4, 15, 19], 2);
    }

    #[test]
    fn algorithm1_matches_truth_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::connected_gnm(30, 70, seed);
            check_against_naive(&g, &[0, 7, 14, 21, 28], seed + 50);
        }
    }

    #[test]
    fn algorithm1_matches_truth_on_hypercube() {
        let g = generators::hypercube(4);
        check_against_naive(&g, &[0, 5, 10, 15], 9);
    }

    #[test]
    fn agrees_with_naive_subset_api() {
        let g = generators::petersen();
        let sources = [0, 2, 6, 9];
        let fast = subset_replacement_paths(&g, &sources, 4);
        let naive = naive_subset_rp(&g, &sources);
        assert_eq!(fast.pair_count(), naive.pair_count());
        for p in fast.iter() {
            let (s, t) = p.pair();
            assert_eq!(p.base_dist(), naive.pair(s, t).unwrap().base_dist());
        }
    }

    #[test]
    fn parallel_matches_sequential_for_all_worker_counts() {
        let g = generators::connected_gnm(24, 52, 11);
        let sources = [0, 5, 11, 17, 23];
        let seq = subset_replacement_paths(&g, &sources, 6);
        for workers in [2, 8] {
            let par = subset_replacement_paths_par(&g, &sources, 6, workers);
            assert_eq!(par.pair_count(), seq.pair_count(), "workers={workers}");
            for p in seq.iter() {
                let (s, t) = p.pair();
                let q = par.pair(s, t).expect("same pairs answered");
                assert_eq!(q.path(), p.path(), "workers={workers} pair ({s},{t})");
                assert_eq!(q.entries(), p.entries(), "workers={workers} pair ({s},{t})");
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_absent() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let r = subset_replacement_paths(&g, &[0, 2, 4], 1);
        assert!(r.pair(0, 2).is_none());
        assert!(r.pair(2, 4).is_some());
        assert_eq!(r.pair_count(), 1);
    }

    #[test]
    fn bridge_faults_reported_as_disconnecting() {
        let g = generators::barbell(3, 2);
        let sources = [0, 6];
        let r = subset_replacement_paths(&g, &sources, 2);
        let pair = r.pair(0, 6).unwrap();
        assert!(
            pair.entries().iter().any(|e| e.dist.is_none()),
            "bridge edges disconnect the barbell"
        );
        check_against_naive(&g, &sources, 2);
    }

    #[test]
    fn query_off_path_edges() {
        let g = generators::grid(3, 3);
        let r = subset_replacement_paths(&g, &[0, 8], 3);
        let pair = r.pair(0, 8).unwrap();
        let on_path = pair.path().edge_ids(&g).unwrap();
        for (e, _, _) in g.edges() {
            if !on_path.contains(&e) {
                assert_eq!(r.dist_after_fault(0, 8, e), Some(pair.base_dist()));
            }
        }
    }

    use rsp_graph::Graph;
}

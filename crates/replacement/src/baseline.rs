//! Baseline replacement path algorithms, used as ground truth in tests and
//! as comparison points in the benches (experiment E4).

use rsp_graph::{bfs_into, FaultSet, Graph, Path, SearchScratch, SelectedTree, Vertex};

use crate::single_pair::{ReplacementEntry, SinglePairResult};
use crate::subset_rp::{PairReplacements, SubsetRpResult};

/// Naive single-pair replacement paths: one full BFS per failing path edge.
///
/// `O(ℓ·(n + m))` for a length-`ℓ` path — the quadratic-ish baseline the
/// near-linear algorithm is measured against. The caller supplies the
/// shortest path whose edges fail (so that fast and naive results are
/// comparable edge-for-edge).
///
/// # Panics
///
/// Panics if `path` is not a valid `s ⇝ t` path in `g`.
pub fn naive_single_pair(g: &Graph, s: Vertex, t: Vertex, path: Path) -> SinglePairResult {
    let mut scratch = SearchScratch::<u32>::with_capacity(g.n());
    naive_single_pair_with(g, s, t, path, &mut scratch)
}

/// [`naive_single_pair`] reusing one BFS scratch across all probed edges
/// (and across calls).
///
/// One fault set is allocated up front and re-pointed per failing edge via
/// [`FaultSet::replace_single`], so the per-edge loop allocates nothing
/// beyond the result entries.
///
/// # Panics
///
/// Panics if `path` is not a valid `s ⇝ t` path in `g`.
pub fn naive_single_pair_with(
    g: &Graph,
    s: Vertex,
    t: Vertex,
    path: Path,
    scratch: &mut SearchScratch<u32>,
) -> SinglePairResult {
    assert!(path.is_valid_in(g), "baseline needs a valid path");
    assert_eq!(path.source(), s, "path must start at s");
    assert_eq!(path.target(), t, "path must end at t");
    let mut faults = FaultSet::empty();
    let entries = path
        .edge_ids(g)
        .expect("valid path resolves to edges")
        .into_iter()
        .map(|edge| {
            faults.replace_single(edge);
            bfs_into(g, s, &faults, scratch);
            ReplacementEntry { edge, dist: scratch.dist(t) }
        })
        .collect();
    SinglePairResult::from_parts(s, t, path, entries)
}

/// Naive subset-rp: for every source pair, a BFS-selected path and one BFS
/// per failing path edge. `O(σ²·n·(n + m))` in the worst case.
pub fn naive_subset_rp(g: &Graph, sources: &[Vertex]) -> SubsetRpResult {
    let empty = FaultSet::empty();
    let mut scratch = SearchScratch::<u32>::with_capacity(g.n());
    let mut pairs = Vec::new();
    for (i, &s) in sources.iter().enumerate() {
        bfs_into(g, s, &empty, &mut scratch);
        let tree = scratch.to_bfs_tree();
        for &t in &sources[i + 1..] {
            let Some(path) = tree.path_to(t) else { continue };
            let result = naive_single_pair_with(g, s, t, path, &mut scratch);
            pairs.push(PairReplacements::new(s, t, result));
        }
    }
    SubsetRpResult::from_pairs(pairs)
}

/// Per-pair baseline: the near-linear single-pair algorithm run on the
/// **full graph** for every pair — `O(σ²·m)` instead of Algorithm 1's
/// `O(σm) + Õ(σ²n)`. This is the crossover the paper's Theorem 3 improves
/// on for dense graphs.
pub fn per_pair_subset_rp(g: &Graph, sources: &[Vertex], seed: u64) -> SubsetRpResult {
    let mut scratch = crate::single_pair::ReplacementScratch::with_capacity(g.n());
    let mut pairs = Vec::new();
    for (i, &s) in sources.iter().enumerate() {
        for (j, &t) in sources.iter().enumerate().skip(i + 1) {
            let pair_seed = seed ^ ((i as u64) << 32) ^ j as u64;
            if let Some(result) = crate::single_pair::single_pair_replacement_paths_with(
                g,
                s,
                t,
                pair_seed,
                &mut scratch,
            ) {
                pairs.push(PairReplacements::new(s, t, result));
            }
        }
    }
    SubsetRpResult::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_graph::{bfs, generators};

    #[test]
    fn naive_single_pair_on_cycle() {
        let g = generators::cycle(6);
        let path = bfs(&g, 0, &FaultSet::empty()).path_to(3).unwrap();
        let r = naive_single_pair(&g, 0, 3, path);
        assert_eq!(r.entries().len(), 3);
        for e in r.entries() {
            assert_eq!(e.dist, Some(3), "reroute the other way around");
        }
    }

    #[test]
    fn naive_subset_covers_all_pairs() {
        let g = generators::petersen();
        let r = naive_subset_rp(&g, &[0, 3, 7]);
        assert_eq!(r.pair_count(), 3);
        assert!(r.pair(0, 3).is_some());
        assert!(r.pair(3, 0).is_some(), "pairs are unordered");
        assert!(r.pair(0, 9).is_none());
    }

    #[test]
    fn per_pair_matches_naive() {
        let g = generators::connected_gnm(18, 40, 5);
        let sources = [0, 5, 9, 17];
        let naive = naive_subset_rp(&g, &sources);
        let fast = per_pair_subset_rp(&g, &sources, 11);
        for (i, &s) in sources.iter().enumerate() {
            for &t in &sources[i + 1..] {
                let a = naive.pair(s, t).unwrap();
                let b = fast.pair(s, t).unwrap();
                assert_eq!(a.base_dist(), b.base_dist());
                // Distances must agree on every edge both consider.
                for entry in b.entries() {
                    assert_eq!(
                        entry.dist,
                        a.result().dist_after_fault(entry.edge),
                        "pair ({s},{t}) edge {}",
                        entry.edge
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "valid path")]
    fn invalid_path_rejected() {
        let g = generators::cycle(4);
        let bogus = Path::new(vec![0, 2]);
        let _ = naive_single_pair(&g, 0, 2, bogus);
    }
}

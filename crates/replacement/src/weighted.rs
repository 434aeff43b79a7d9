//! The weighted restoration lemma (Theorem 11) and weighted single-pair
//! replacement paths.
//!
//! For undirected graphs with positive weights, the restoration lemma
//! takes a weaker but *tiebreaking-insensitive* form: for any failing
//! edge there is an edge `(u, v)` such that **any** shortest paths
//! `π(s, u)`, `π(v, t)` make `π(s, u) ∘ (u, v) ∘ π(v, t)` a replacement
//! shortest path. This module:
//!
//! * empirically verifies Theorem 11 instance-by-instance
//!   ([`verify_weighted_restoration_lemma`]);
//! * implements the weighted single-pair replacement path algorithm the
//!   paper's Theorem 28 proof sketch describes (candidate per edge,
//!   interval of covered failures, union-find sweep), which is also the
//!   engine behind Algorithm 1's per-pair black box.
//!
//! Shortest paths are made unique by scaled perturbation: edge `e` costs
//! `w(e)·S + r(e)` with `r(e)` uniform in `[0, S/n)`, so weight classes
//! never mix and the branch-index interval argument carries over
//! verbatim from the unweighted case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_graph::{
    dijkstra, EdgeId, EdgeWeights, FaultSet, Graph, Path, SearchScratch, SelectedTree, Vertex,
};

use crate::unionfind::NextFree;

/// Scale factor: perturbations live strictly below one weight unit.
fn scale_for(g: &Graph) -> u128 {
    (g.n() as u128 + 2) * (1 << 20)
}

/// Perturbed costs making weighted shortest paths unique.
fn perturbed_costs(g: &Graph, weights: &EdgeWeights, seed: u64) -> Vec<u128> {
    let s = scale_for(g);
    let per_edge_max = s / (g.n() as u128 + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..g.m())
        .map(|e| weights.get(e) as u128 * s + rng.random_range(0..per_edge_max.max(1)))
        .collect()
}

fn spt_with(g: &Graph, costs: &[u128], source: Vertex, faults: &FaultSet) -> SearchScratch<u128> {
    dijkstra(g, source, faults, |e, _, _| costs[e])
}

/// Recovers the true weighted distance from a scaled perturbed cost.
fn unscale(g: &Graph, cost: u128) -> u64 {
    (cost / scale_for(g)) as u64
}

/// Replacement distance for one failing edge of the selected weighted
/// path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightedEntry {
    /// The failing path edge.
    pub edge: EdgeId,
    /// `dist^w_{G\{edge}}(s, t)` in weight units, `None` if disconnected.
    pub dist: Option<u64>,
}

/// Output of [`weighted_single_pair`].
#[derive(Clone, Debug)]
pub struct WeightedSinglePair {
    path: Path,
    base: u64,
    entries: Vec<WeightedEntry>,
}

impl WeightedSinglePair {
    /// The selected (unique, perturbed) weighted shortest path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fault-free weighted distance.
    pub fn base_dist(&self) -> u64 {
        self.base
    }

    /// One entry per path edge, in path order.
    pub fn entries(&self) -> &[WeightedEntry] {
        &self.entries
    }
}

/// Weighted single-pair replacement paths: `dist^w_{G\{e}}(s, t)` for
/// every edge `e` on a weighted shortest `s ⇝ t` path.
///
/// Returns `None` if `t` is unreachable. `O(m log m)` after two
/// shortest-path trees.
///
/// # Panics
///
/// Panics if `s` or `t` is out of range.
pub fn weighted_single_pair(
    g: &Graph,
    weights: &EdgeWeights,
    s: Vertex,
    t: Vertex,
    seed: u64,
) -> Option<WeightedSinglePair> {
    assert!(s < g.n() && t < g.n(), "pair out of range");
    if s == t {
        return Some(WeightedSinglePair { path: Path::trivial(s), base: 0, entries: Vec::new() });
    }
    let costs = perturbed_costs(g, weights, seed);
    let empty = FaultSet::empty();
    let spt_s = spt_with(g, &costs, s, &empty);
    let spt_t = spt_with(g, &costs, t, &empty);
    let path = spt_s.path_to(t)?;
    let base = unscale(g, *spt_s.cost(t).expect("reachable"));
    let verts = path.vertices();
    let ell = path.hops();

    let mut pos = vec![usize::MAX; g.n()];
    for (i, &v) in verts.iter().enumerate() {
        pos[v] = i;
    }
    let path_edges: Vec<EdgeId> = path.edge_ids(g).expect("valid path");
    let mut is_path_edge = vec![false; g.m()];
    for &e in &path_edges {
        is_path_edge[e] = true;
    }

    // Branch indices: identical argument to the unweighted case — unique
    // shortest paths make sp(s, v_j) the path prefix.
    let a = branch(g, &spt_s, &pos);
    let b = branch(g, &spt_t, &pos);

    struct Cand {
        cost: u128,
        lo: usize,
        hi: usize,
    }
    let mut cands = Vec::new();
    for (e, x, y) in g.edges() {
        if is_path_edge[e] {
            continue;
        }
        for (u, v) in [(x, y), (y, x)] {
            let (Some(du), Some(dv)) = (spt_s.cost(u), spt_t.cost(v)) else { continue };
            let (Some(au), Some(bv)) = (a[u], b[v]) else { continue };
            let (lo, hi) = (au + 1, bv);
            if lo > hi {
                continue;
            }
            cands.push(Cand { cost: du + costs[e] + dv, lo, hi });
        }
    }
    cands.sort_by_key(|c| c.cost);

    let mut answers: Vec<Option<u64>> = vec![None; ell];
    let mut free = NextFree::new(ell);
    let mut remaining = ell;
    'sweep: for c in &cands {
        let mut i = free.find(c.lo - 1);
        while let Some(slot) = i {
            if slot > c.hi - 1 {
                break;
            }
            answers[slot] = Some(unscale(g, c.cost));
            free.mark(slot);
            remaining -= 1;
            if remaining == 0 {
                break 'sweep;
            }
            i = free.find(slot);
        }
    }

    let entries = path_edges
        .iter()
        .zip(&answers)
        .map(|(&edge, &dist)| WeightedEntry { edge, dist })
        .collect();
    Some(WeightedSinglePair { path, base, entries })
}

fn branch(g: &Graph, spt: &SearchScratch<u128>, pos: &[usize]) -> Vec<Option<usize>> {
    let mut order: Vec<Vertex> = g.vertices().filter(|&v| spt.cost(v).is_some()).collect();
    order.sort_by_key(|&v| spt.hops(v).expect("reachable"));
    let mut out = vec![None; g.n()];
    for v in order {
        out[v] = if pos[v] != usize::MAX {
            Some(pos[v])
        } else {
            let (p, _) = spt.parent(v).expect("reachable non-root");
            out[p]
        };
    }
    out
}

/// Outcome of an empirical Theorem 11 check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestorationLemmaStats {
    /// `(s, t, e)` instances with a surviving replacement path.
    pub instances: usize,
    /// Instances witnessed by some middle edge `(u, v)` (must equal
    /// `instances` — Theorem 11 is a theorem).
    pub witnessed: usize,
}

/// Verifies the weighted restoration lemma (Theorem 11) instance by
/// instance: for every pair in `pairs` and every edge on the selected
/// weighted shortest path, some middle edge `(u, v)` must satisfy
/// `d(s,u) + w(u,v) + d(v,t) = dist^w_{G\{e}}(s, t)` with both side
/// paths avoiding `e`.
pub fn verify_weighted_restoration_lemma(
    g: &Graph,
    weights: &EdgeWeights,
    pairs: &[(Vertex, Vertex)],
    seed: u64,
) -> RestorationLemmaStats {
    let costs = perturbed_costs(g, weights, seed);
    let mut stats = RestorationLemmaStats::default();
    for &(s, t) in pairs {
        let empty = FaultSet::empty();
        let spt_s = spt_with(g, &costs, s, &empty);
        let spt_t = spt_with(g, &costs, t, &empty);
        let Some(path) = spt_s.path_to(t) else { continue };
        for &e in &path.edge_ids(g).expect("valid") {
            let faults = FaultSet::single(e);
            let truth = rsp_graph::weighted_sssp(g, weights, s, &faults);
            let Some(&replacement) = truth.cost(t) else { continue };
            stats.instances += 1;
            // Scan middle edges for a witness.
            let witnessed = g.edges().any(|(mid, x, y)| {
                if mid == e {
                    return false;
                }
                [(x, y), (y, x)].into_iter().any(|(u, v)| {
                    let (Some(ps), Some(pt)) = (spt_s.path_to(u), spt_t.path_to(v)) else {
                        return false;
                    };
                    if ps.uses_edge(g, e) || pt.uses_edge(g, e) {
                        return false;
                    }
                    let len = weights.path_weight(g, &ps).expect("valid")
                        + weights.get(mid)
                        + weights.path_weight(g, &pt).expect("valid");
                    len == replacement
                })
            });
            if witnessed {
                stats.witnessed += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_graph::{generators, weighted_sssp};

    fn check_against_naive(g: &Graph, weights: &EdgeWeights, s: Vertex, t: Vertex, seed: u64) {
        let fast = weighted_single_pair(g, weights, s, t, seed).expect("connected");
        // Base distance sanity.
        let truth0 = weighted_sssp(g, weights, s, &FaultSet::empty());
        assert_eq!(Some(&fast.base_dist()), truth0.cost(t));
        for entry in fast.entries() {
            let truth = weighted_sssp(g, weights, s, &FaultSet::single(entry.edge));
            assert_eq!(entry.dist, truth.cost(t).copied(), "edge {}", entry.edge);
        }
    }

    #[test]
    fn matches_naive_on_weighted_cycle() {
        let g = generators::cycle(8);
        let w = EdgeWeights::random(&g, 10, 1);
        check_against_naive(&g, &w, 0, 4, 2);
    }

    #[test]
    fn matches_naive_on_weighted_grids_and_random() {
        let g = generators::grid(4, 4);
        let w = EdgeWeights::random(&g, 20, 3);
        for (s, t) in [(0, 15), (3, 12)] {
            check_against_naive(&g, &w, s, t, 4);
        }
        for seed in 0..4 {
            let g = generators::connected_gnm(22, 50, seed);
            let w = EdgeWeights::random(&g, 50, seed + 9);
            check_against_naive(&g, &w, 0, 21, seed + 20);
        }
    }

    #[test]
    fn unit_weights_agree_with_unweighted_algorithm() {
        let g = generators::connected_gnm(20, 45, 7);
        let w = EdgeWeights::uniform(&g, 1);
        let weighted = weighted_single_pair(&g, &w, 0, 19, 5).unwrap();
        let unweighted = crate::single_pair::single_pair_replacement_paths(&g, 0, 19, 5).unwrap();
        assert_eq!(weighted.base_dist(), unweighted.base_dist() as u64);
        // Paths may differ (different perturbations) but distances agree
        // edge-for-edge where the paths coincide.
        for entry in weighted.entries() {
            let via_unweighted = unweighted.dist_after_fault(entry.edge);
            if weighted.path() == unweighted.path() {
                assert_eq!(entry.dist, via_unweighted.map(u64::from));
            }
        }
    }

    #[test]
    fn bridges_disconnect() {
        let g = generators::path_graph(5);
        let w = EdgeWeights::random(&g, 5, 2);
        let fast = weighted_single_pair(&g, &w, 0, 4, 3).unwrap();
        assert!(fast.entries().iter().all(|e| e.dist.is_none()));
    }

    #[test]
    fn theorem11_holds_empirically() {
        for seed in 0..4 {
            let g = generators::connected_gnm(14, 30, seed);
            let w = EdgeWeights::random(&g, 8, seed + 1);
            let pairs = [(0, 13), (3, 9), (6, 12)];
            let stats = verify_weighted_restoration_lemma(&g, &w, &pairs, seed + 2);
            assert!(stats.instances > 0, "seed {seed} produced no instances");
            assert_eq!(
                stats.witnessed, stats.instances,
                "Theorem 11 must witness every instance (seed {seed})"
            );
        }
    }

    #[test]
    fn trivial_pair() {
        let g = generators::cycle(4);
        let w = EdgeWeights::uniform(&g, 2);
        let r = weighted_single_pair(&g, &w, 1, 1, 0).unwrap();
        assert_eq!(r.base_dist(), 0);
        assert!(r.entries().is_empty());
    }
}

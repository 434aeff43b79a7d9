//! The near-linear single-pair replacement path algorithm (Theorem 28).
//!
//! For a pair `(s, t)`, the algorithm must report `dist_{G\{e}}(s, t)` for
//! every edge `e` on a shortest `s ⇝ t` path. Structure:
//!
//! 1. Perturb edge weights with a restorable ATW function so all shortest
//!    paths are unique, and compute the two trees `T_s`, `T_t`.
//! 2. Let `π(s, t) = v_0 … v_ℓ` be the (unique) selected path. Because
//!    shortest paths are unique, `T_s` restricted to path vertices is the
//!    path prefix, so every vertex `u` hangs off a well-defined *branch
//!    index* `a(u)`: the deepest path vertex on `u`'s tree path. The path
//!    edges used by `sp(s, u)` are exactly `e_1 … e_{a(u)}`; symmetrically
//!    `sp(v, t)` uses `e_{b(v)+1} … e_ℓ`.
//! 3. Each *non-path* edge `(u, v)` (in both orientations) yields a
//!    candidate replacement path `sp(s, u) ∘ (u, v) ∘ sp(v, t)` of length
//!    `d(s,u) + 1 + d(v,t)`, valid exactly for failing edges
//!    `e_i` with `a(u) < i ≤ b(v)` — a contiguous interval. (Path edges
//!    yield no useful candidates: their interval is empty once the edge
//!    itself is excluded.)
//! 4. Sort candidates by length and sweep with the [`crate::NextFree`]
//!    union-find: each failing position receives the first (= shortest)
//!    candidate that covers it. Completeness is the weighted restoration
//!    lemma (Theorem 11 in the paper).

use rsp_arith::PathCost;
use rsp_core::RandomGridAtw;
use rsp_graph::{DirectedCosts, EdgeId, Graph, Path, SearchScratch, SelectedTree, Vertex};

use crate::unionfind::NextFree;

/// Reusable search state for repeated single-pair replacement-path
/// computations (two shortest-path trees per pair).
///
/// Algorithm 1 and the all-pairs oracle run the single-pair routine once
/// per source pair — `O(σ²)` to `O(n²)` times — so all per-pair buffers
/// are hoisted here and reused across
/// [`single_pair_replacement_paths_with`] calls: the two Dijkstra
/// scratches *and* the two `O(m)` perturbed cost vectors (regenerated in
/// place per pair via [`RandomGridAtw::theorem20_costs_into`], never
/// reallocated).
#[derive(Debug, Default)]
pub struct ReplacementScratch {
    /// Scratch for the tree rooted at the pair's source.
    from_s: SearchScratch<u128>,
    /// Scratch for the tree rooted at the pair's target.
    from_t: SearchScratch<u128>,
    /// Perturbed forward (canonical-direction) edge costs.
    fwd: Vec<u128>,
    /// Perturbed backward edge costs.
    bwd: Vec<u128>,
}

impl ReplacementScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for graphs with up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        ReplacementScratch {
            from_s: SearchScratch::with_capacity(n),
            from_t: SearchScratch::with_capacity(n),
            fwd: Vec::new(),
            bwd: Vec::new(),
        }
    }
}

/// Replacement distance for one failing edge of the selected path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplacementEntry {
    /// The failing path edge.
    pub edge: EdgeId,
    /// `dist_{G\{edge}}(s, t)`, or `None` if the failure disconnects the
    /// pair.
    pub dist: Option<u32>,
}

/// Output of the single-pair replacement path computation.
#[derive(Clone, Debug)]
pub struct SinglePairResult {
    s: Vertex,
    t: Vertex,
    path: Path,
    entries: Vec<ReplacementEntry>,
}

impl SinglePairResult {
    /// Assembles a result from parts (used by the baselines and by
    /// Algorithm 1's edge-id translation).
    pub(crate) fn from_parts(
        s: Vertex,
        t: Vertex,
        path: Path,
        entries: Vec<ReplacementEntry>,
    ) -> Self {
        SinglePairResult { s, t, path, entries }
    }

    /// The source.
    pub fn s(&self) -> Vertex {
        self.s
    }

    /// The target.
    pub fn t(&self) -> Vertex {
        self.t
    }

    /// The selected shortest `s ⇝ t` path whose edges are the failure
    /// points.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fault-free distance.
    pub fn base_dist(&self) -> u32 {
        self.path.hops() as u32
    }

    /// One entry per path edge, in path order.
    pub fn entries(&self) -> &[ReplacementEntry] {
        &self.entries
    }

    /// Replacement distance if `e` fails: the per-edge entry for path
    /// edges, the unchanged base distance otherwise (failing an off-path
    /// edge cannot lengthen the selected path).
    pub fn dist_after_fault(&self, e: EdgeId) -> Option<u32> {
        match self.entries.iter().find(|r| r.edge == e) {
            Some(entry) => entry.dist,
            None => Some(self.base_dist()),
        }
    }
}

/// Runs the single-pair algorithm on `g` for the pair `(s, t)`.
///
/// Returns `None` if `t` is unreachable from `s` (there is no path whose
/// edges could fail). For `s == t` returns a trivial result with no
/// entries.
///
/// `seed` drives the internal weight perturbation; any seed yields correct
/// output (ties are broken, not distances changed).
///
/// # Panics
///
/// Panics if `s` or `t` is out of range.
pub fn single_pair_replacement_paths(
    g: &Graph,
    s: Vertex,
    t: Vertex,
    seed: u64,
) -> Option<SinglePairResult> {
    let mut scratch = ReplacementScratch::with_capacity(g.n());
    single_pair_replacement_paths_with(g, s, t, seed, &mut scratch)
}

/// [`single_pair_replacement_paths`] reusing a [`ReplacementScratch`]
/// across calls — the form the `O(σ²)`-pair callers (Algorithm 1, the
/// all-pairs oracle) loop over.
///
/// # Panics
///
/// Panics if `s` or `t` is out of range.
pub fn single_pair_replacement_paths_with(
    g: &Graph,
    s: Vertex,
    t: Vertex,
    seed: u64,
    scratch: &mut ReplacementScratch,
) -> Option<SinglePairResult> {
    assert!(s < g.n() && t < g.n(), "pair out of range");
    if s == t {
        return Some(SinglePairResult { s, t, path: Path::trivial(s), entries: Vec::new() });
    }
    // Regenerate the Theorem 20 perturbation into the scratch-held cost
    // buffers: same weights as building an `ExactScheme`, none of the
    // per-pair allocations (see ReplacementScratch docs).
    RandomGridAtw::theorem20_costs_into(g, seed, &mut scratch.fwd, &mut scratch.bwd);
    let costs = DirectedCosts::new(&scratch.fwd, &scratch.bwd);
    let empty = rsp_graph::FaultSet::empty();
    rsp_graph::dijkstra_into(g, s, &empty, costs, &mut scratch.from_s);
    rsp_graph::dijkstra_into(g, t, &empty, costs, &mut scratch.from_t);
    let (spt_s, spt_t) = (&scratch.from_s, &scratch.from_t);
    let path = spt_s.path_to(t)?;
    let verts = path.vertices();
    let ell = path.hops(); // path edges are e_1 … e_ℓ at positions 1..=ℓ

    // Position of each path vertex, and the path's edge ids.
    let mut pos = vec![usize::MAX; g.n()];
    for (i, &v) in verts.iter().enumerate() {
        pos[v] = i;
    }
    let path_edges: Vec<EdgeId> = path.edge_ids(g).expect("selected path is valid");
    let mut is_path_edge = vec![false; g.m()];
    for &e in &path_edges {
        is_path_edge[e] = true;
    }

    // Branch indices. a[u]: path edges of sp(s, u) are e_1 … e_{a[u]}.
    // Unique shortest paths make sp(s, v_j) the path prefix, so a[v_j] = j
    // and a[u] = a[parent(u)] otherwise. Process in hop order so parents
    // come first.
    let a = branch_indices(g, spt_s, &pos);
    // b[v]: path edges of sp(t, v) are e_{b[v]+1} … e_ℓ; b[v_j] = j.
    let b = branch_indices(g, spt_t, &pos);

    // Candidates from non-path edges, both orientations.
    struct Candidate {
        len: u32,
        lo: usize,
        hi: usize,
    }
    let mut candidates = Vec::new();
    for (e, x, y) in g.edges() {
        if is_path_edge[e] {
            continue;
        }
        for (u, v) in [(x, y), (y, x)] {
            let (Some(du), Some(dv)) = (spt_s.hops(u), spt_t.hops(v)) else {
                continue;
            };
            let (Some(au), Some(bv)) = (a[u], b[v]) else { continue };
            // Valid for failing e_i with a(u) < i ≤ b(v).
            let lo = au + 1;
            let hi = bv;
            if lo > hi {
                continue;
            }
            candidates.push(Candidate { len: du + 1 + dv, lo, hi });
        }
    }
    candidates.sort_by_key(|c| c.len);

    // Sweep: positions 1..=ℓ map to union-find slots 0..ℓ.
    let mut answers: Vec<Option<u32>> = vec![None; ell];
    let mut free = NextFree::new(ell);
    let mut remaining = ell;
    'sweep: for c in &candidates {
        let mut i = free.find(c.lo - 1);
        while let Some(slot) = i {
            if slot > c.hi - 1 {
                break;
            }
            answers[slot] = Some(c.len);
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
        .map(|(&edge, &dist)| ReplacementEntry { edge, dist })
        .collect();
    Some(SinglePairResult { s, t, path, entries })
}

/// Computes branch indices against a tree: `Some(j)` when the deepest path
/// vertex on the tree path to `u` is `v_j`, `None` for unreachable `u`.
fn branch_indices<C: PathCost>(
    g: &Graph,
    spt: &SearchScratch<C>,
    pos: &[usize],
) -> Vec<Option<usize>> {
    let n = g.n();
    let mut order: Vec<Vertex> = (0..n).filter(|&v| spt.hops(v).is_some()).collect();
    order.sort_by_key(|&v| spt.hops(v).expect("filtered reachable"));
    let mut out: Vec<Option<usize>> = vec![None; n];
    for v in order {
        out[v] = if pos[v] != usize::MAX {
            Some(pos[v])
        } else {
            let (p, _) = spt.parent(v).expect("non-root reachable vertex has a parent");
            out[p]
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::naive_single_pair;
    use rsp_graph::generators;

    fn check_against_naive(g: &Graph, s: Vertex, t: Vertex, seed: u64) {
        let fast = single_pair_replacement_paths(g, s, t, seed).unwrap();
        let naive = naive_single_pair(g, s, t, fast.path().clone());
        assert_eq!(fast.entries().len(), naive.entries().len());
        for (f, n) in fast.entries().iter().zip(naive.entries()) {
            assert_eq!(f.edge, n.edge);
            assert_eq!(f.dist, n.dist, "edge {} of pair ({s},{t})", f.edge);
        }
    }

    #[test]
    fn matches_naive_on_cycle() {
        let g = generators::cycle(8);
        check_against_naive(&g, 0, 4, 1);
        check_against_naive(&g, 1, 2, 2);
    }

    #[test]
    fn matches_naive_on_grid() {
        let g = generators::grid(4, 4);
        for (s, t) in [(0, 15), (3, 12), (5, 10), (0, 1)] {
            check_against_naive(&g, s, t, 7);
        }
    }

    #[test]
    fn matches_naive_on_petersen_and_hypercube() {
        let g = generators::petersen();
        for (s, t) in [(0, 7), (2, 8), (4, 5)] {
            check_against_naive(&g, s, t, 3);
        }
        let h = generators::hypercube(4);
        for (s, t) in [(0, 15), (1, 14), (3, 5)] {
            check_against_naive(&h, s, t, 4);
        }
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::connected_gnm(24, 40, seed);
            for (s, t) in [(0, 23), (5, 17), (11, 2)] {
                check_against_naive(&g, s, t, seed + 100);
            }
        }
    }

    #[test]
    fn bridge_failure_disconnects() {
        let g = generators::path_graph(5);
        let r = single_pair_replacement_paths(&g, 0, 4, 1).unwrap();
        assert_eq!(r.entries().len(), 4);
        for e in r.entries() {
            assert_eq!(e.dist, None, "every path edge is a bridge");
        }
    }

    #[test]
    fn barbell_bridge_vs_clique_edges() {
        let g = generators::barbell(4, 1);
        let r = single_pair_replacement_paths(&g, 0, 7, 5).unwrap();
        let naive = naive_single_pair(&g, 0, 7, r.path().clone());
        assert_eq!(
            r.entries().iter().map(|e| e.dist).collect::<Vec<_>>(),
            naive.entries().iter().map(|e| e.dist).collect::<Vec<_>>()
        );
        // The bridge edge must be among the disconnecting ones.
        assert!(r.entries().iter().any(|e| e.dist.is_none()));
    }

    #[test]
    fn trivial_pair() {
        let g = generators::cycle(4);
        let r = single_pair_replacement_paths(&g, 2, 2, 0).unwrap();
        assert_eq!(r.base_dist(), 0);
        assert!(r.entries().is_empty());
    }

    #[test]
    fn unreachable_pair_is_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(single_pair_replacement_paths(&g, 0, 3, 0).is_none());
    }

    #[test]
    fn off_path_fault_keeps_base_distance() {
        let g = generators::grid(3, 3);
        let r = single_pair_replacement_paths(&g, 0, 8, 9).unwrap();
        let on_path: Vec<EdgeId> = r.path().edge_ids(&g).unwrap();
        for (e, _, _) in g.edges() {
            if !on_path.contains(&e) {
                assert_eq!(r.dist_after_fault(e), Some(r.base_dist()));
            }
        }
    }

    #[test]
    fn seeds_agree_on_distances() {
        // Different perturbations may pick different canonical paths, but
        // the replacement *distances* for shared path edges must agree
        // with the naive recomputation regardless of seed.
        let g = generators::connected_gnm(20, 45, 3);
        for seed in [10, 20, 30] {
            check_against_naive(&g, 0, 19, seed);
        }
    }

    use rsp_graph::Graph;
}

//! Randomized antisymmetric tiebreaking weight functions: the uniform grid
//! of Theorem 20 and the isolation-lemma grid of Corollary 22.
//!
//! Both constructions sample, for each edge `(u, v)` with `u < v`, a value
//! `r(u, v)` uniformly from a symmetric grid `{ i/(2nK) : i ∈ [−K, K] }`
//! and set `r(v, u) := −r(u, v)`. The perturbed weight of a directed edge
//! is `1 + r`; multiplying through by the scale `2nK` gives the exact
//! integer cost `2nK + i`, which is what we store. A path of `h` hops then
//! has cost `h·2nK + Σi`, and since `|Σi| ≤ (n−1)·K < nK`, hop classes
//! never mix — no non-shortest path of `G \ F` can become shortest in
//! `G* \ F`, exactly the argument of Theorem 20.
//!
//! The two constructors differ only in the grid half-width `K`:
//!
//! * [`RandomGridAtw::theorem20`] uses a huge fixed `K = 2^60`, standing in
//!   for the real-valued interval of the paper (see DESIGN.md substitution
//!   1: a fine grid with *exact* comparison preserves the probability-1
//!   uniqueness argument up to a `≤ m·(n²)/K` collision probability, which
//!   at `K = 2^60` is negligible for any graph that fits in memory);
//! * [`RandomGridAtw::corollary22`] uses `K = W = n^{f+4+c}` per the
//!   isolation lemma, giving the paper's `O(f log n)` bits per weight and
//!   failure probability `≤ 1/n^c` — this is the bit-complexity-optimal
//!   variant. `W` is clamped to `2^62` so costs fit `u128`; the clamp only
//!   binds where `O(f log n) > 62`, i.e. where the paper's bound already
//!   exceeds a machine word.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_graph::Graph;

use crate::scheme::ExactScheme;

/// Grid half-width of the Theorem 20 stand-in (see
/// [`RandomGridAtw::theorem20`]).
const THEOREM20_HALF_WIDTH: u128 = 1 << 60;

/// The scaled unit weight `2nK`, with the overflow guard every
/// construction path shares.
///
/// # Panics
///
/// Panics if path costs could overflow `u128`.
fn scaled_unit(g: &Graph, half_width: u128) -> u128 {
    let n = g.n().max(1) as u128;
    let unit = 2 * n * half_width;
    let max_path_cost = n * (unit + half_width);
    assert!(max_path_cost < u128::MAX / 2, "graph too large for u128 scaled costs");
    unit
}

/// The grid sampler: one numerator in `[−K, K]` per edge. The single
/// definition of the sampling order, so every construction path derives
/// the identical weight function from the same seed.
fn sample_numerators(m: usize, half_width: u128, seed: u64) -> impl Iterator<Item = i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lo = -(half_width as i64);
    let hi = half_width as i64;
    (0..m).map(move |_| rng.random_range(lo..=hi))
}

/// Exact per-direction costs `(unit + i, unit − i)` of one sampled
/// numerator — the scaled form of `1 ± r(u, v)`.
#[inline]
fn directed_costs_of(unit: u128, i: i64) -> (u128, u128) {
    ((unit as i128 + i as i128) as u128, (unit as i128 - i as i128) as u128)
}

/// A randomized antisymmetric `f`-fault tiebreaking weight function on a
/// symmetric integer grid.
///
/// See the module docs for the construction. Convert to a usable scheme
/// with [`RandomGridAtw::into_scheme`].
///
/// # Examples
///
/// ```
/// use rsp_core::{RandomGridAtw, Rpts};
/// use rsp_graph::{generators, FaultSet};
///
/// let g = generators::grid(3, 3);
/// let atw = RandomGridAtw::corollary22(&g, 1, 1, 42);
/// assert!(atw.bits_per_weight() <= 64);
/// let scheme = atw.into_scheme();
/// assert!(scheme.is_antisymmetric());
/// let spt = scheme.spt(0, &FaultSet::empty());
/// assert!(!spt.ties_detected()); // unique shortest paths in G*
/// ```
#[derive(Clone, Debug)]
pub struct RandomGridAtw {
    graph: Graph,
    /// Sampled grid numerators, one per canonical edge, in `[−K, K]`.
    r: Vec<i64>,
    /// Grid half-width `K`.
    half_width: u128,
    /// Scaled unit weight `2nK`.
    unit: u128,
}

impl RandomGridAtw {
    /// Samples with an explicit grid half-width `K`.
    ///
    /// # Panics
    ///
    /// Panics if `half_width` is zero or exceeds `2^62`, or if the graph is
    /// so large that path costs could overflow `u128`
    /// (`n · 2(n+1)K ≥ 2^127`, unreachable for realistic inputs).
    pub fn with_half_width(g: &Graph, half_width: u128, seed: u64) -> Self {
        assert!(half_width > 0, "grid half-width must be positive");
        assert!(half_width <= 1 << 62, "grid half-width must fit the i64 sampler");
        let unit = scaled_unit(g, half_width);
        let r = sample_numerators(g.m(), half_width, seed).collect();
        RandomGridAtw { graph: g.clone(), r, half_width, unit }
    }

    /// The Theorem 20 stand-in: a fine fixed grid of half-width `2^60`.
    ///
    /// With exact integer comparison, two tied-in-`G\F` paths collide in
    /// `G*` only if their perturbation sums coincide — probability
    /// `≤ (n−1)/2^61` per comparison, negligible at any feasible scale.
    pub fn theorem20(g: &Graph, seed: u64) -> Self {
        Self::with_half_width(g, THEOREM20_HALF_WIDTH, seed)
    }

    /// The Corollary 22 construction: grid half-width `W = n^{f+4+c}`,
    /// giving `O(f log n)` bits per weight and tie probability `≤ 1/n^c`.
    ///
    /// `W` is clamped to `2^62` (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn corollary22(g: &Graph, f: u32, c: u32, seed: u64) -> Self {
        assert!(g.n() > 0, "graph must be nonempty");
        let n = g.n() as u128;
        let cap: u128 = 1 << 62;
        let mut w: u128 = 1;
        for _ in 0..(f + 4 + c) {
            w = w.saturating_mul(n);
            if w >= cap {
                w = cap;
                break;
            }
        }
        Self::with_half_width(g, w.max(2), seed)
    }

    /// The sampled numerator `i` of `r(u, v) = i/(2nK)` for the canonical
    /// orientation of edge `e`.
    pub fn numerator(&self, e: rsp_graph::EdgeId) -> i64 {
        self.r[e]
    }

    /// Grid half-width `K` (the isolation lemma's `W`).
    pub fn half_width(&self) -> u128 {
        self.half_width
    }

    /// Bits needed to store one weight: `⌈log₂(2K + 1)⌉`.
    ///
    /// For [`RandomGridAtw::corollary22`] this is the paper's `O(f log n)`.
    pub fn bits_per_weight(&self) -> usize {
        (128 - (2 * self.half_width + 1).leading_zeros()) as usize
    }

    /// An upper bound on the probability that *some* pair/fault-set has a
    /// tie, per the isolation lemma union bound: `|E| / W`.
    pub fn tie_probability_bound(&self) -> f64 {
        self.graph.m() as f64 / self.half_width as f64
    }

    /// Materializes the induced replacement-path tiebreaking scheme
    /// (Theorem 19): `π(s, t | F)` = the unique minimum-cost path in
    /// `G* \ F`.
    pub fn into_scheme(self) -> ExactScheme<u128> {
        let bits = self.bits_per_weight();
        let unit = self.unit;
        let mut fwd: Vec<u128> = Vec::with_capacity(self.r.len());
        let mut bwd: Vec<u128> = Vec::with_capacity(self.r.len());
        for &i in &self.r {
            let (f, b) = directed_costs_of(unit, i);
            fwd.push(f);
            bwd.push(b);
        }
        ExactScheme::from_costs(self.graph, fwd, bwd, unit, bits)
    }

    /// Samples the [`RandomGridAtw::theorem20`] grid for `g` and writes
    /// the induced exact per-direction costs directly into `fwd` / `bwd`
    /// (cleared and refilled), returning the scaled unit weight.
    ///
    /// The allocation-free companion of
    /// `RandomGridAtw::theorem20(g, seed).into_scheme()`: it produces
    /// byte-identical cost vectors but skips the graph clone, the numerator
    /// vector, and the two fresh cost allocations — callers that rebuild a
    /// scheme per sub-instance (Algorithm 1's inner loop rebuilds one per
    /// source pair) hold the two buffers in their scratch and feed them
    /// straight to [`rsp_graph::DirectedCosts`].
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{dijkstra_into, generators, DirectedCosts, FaultSet, SearchScratch};
    ///
    /// let g = generators::grid(3, 3);
    /// let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    /// let mut scratch = SearchScratch::<u128>::with_capacity(g.n());
    /// for seed in 0..4 {
    ///     // One perturbed SPT per seed; the buffers are reused throughout.
    ///     RandomGridAtw::theorem20_costs_into(&g, seed, &mut fwd, &mut bwd);
    ///     dijkstra_into(&g, 0, &FaultSet::empty(), DirectedCosts::new(&fwd, &bwd), &mut scratch);
    ///     assert!(!scratch.ties_detected(), "Theorem 20 weights are tie-free");
    /// }
    /// ```
    pub fn theorem20_costs_into(
        g: &Graph,
        seed: u64,
        fwd: &mut Vec<u128>,
        bwd: &mut Vec<u128>,
    ) -> u128 {
        let unit = scaled_unit(g, THEOREM20_HALF_WIDTH);
        fwd.clear();
        bwd.clear();
        fwd.reserve(g.m());
        bwd.reserve(g.m());
        // Same sampler, same order, same cost mapping as
        // `theorem20(g, seed).into_scheme()` — shared code, not a copy.
        for i in sample_numerators(g.m(), THEOREM20_HALF_WIDTH, seed) {
            let (f, b) = directed_costs_of(unit, i);
            fwd.push(f);
            bwd.push(b);
        }
        unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Rpts;
    use rsp_graph::{bfs, generators, FaultSet, SelectedTree};

    #[test]
    fn antisymmetric_by_construction() {
        let g = generators::petersen();
        let s = RandomGridAtw::theorem20(&g, 1).into_scheme();
        assert!(s.is_antisymmetric());
    }

    #[test]
    fn perturbed_paths_are_shortest() {
        // Hop counts of the perturbed SPT must equal BFS distances, in the
        // fault-free graph and under every single fault.
        let g = generators::grid(4, 4);
        let s = RandomGridAtw::theorem20(&g, 2).into_scheme();
        let mut fault_sets = vec![FaultSet::empty()];
        fault_sets.extend(g.edges().map(|(e, _, _)| FaultSet::single(e)));
        for faults in &fault_sets {
            for src in g.vertices() {
                let tree = s.tree_from(src, faults);
                let truth = bfs(&g, src, faults);
                for t in g.vertices() {
                    assert_eq!(tree.dist(t), truth.dist(t));
                }
            }
        }
    }

    #[test]
    fn no_ties_on_tie_heavy_graphs() {
        // Grids and hypercubes have huge numbers of tied shortest paths;
        // the perturbation must separate all of them.
        for g in [generators::grid(5, 5), generators::hypercube(4)] {
            let s = RandomGridAtw::theorem20(&g, 3).into_scheme();
            for src in g.vertices() {
                assert!(!s.spt(src, &FaultSet::empty()).ties_detected());
            }
        }
    }

    #[test]
    fn corollary22_bits_scale_with_f() {
        let g = generators::grid(4, 4);
        let b1 = RandomGridAtw::corollary22(&g, 1, 1, 0).bits_per_weight();
        let b3 = RandomGridAtw::corollary22(&g, 3, 1, 0).bits_per_weight();
        assert!(b1 < b3, "more faults need more bits ({b1} vs {b3})");
        assert!(b3 <= 64);
    }

    #[test]
    fn tie_probability_bound_small() {
        let g = generators::grid(4, 4);
        let atw = RandomGridAtw::corollary22(&g, 1, 2, 0);
        assert!(atw.tie_probability_bound() < 1e-3);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::petersen();
        let a = RandomGridAtw::theorem20(&g, 9);
        let b = RandomGridAtw::theorem20(&g, 9);
        assert_eq!(a.r, b.r);
        let c = RandomGridAtw::theorem20(&g, 10);
        assert_ne!(a.r, c.r);
    }

    #[test]
    fn theorem20_costs_into_matches_into_scheme() {
        let g = generators::grid(4, 3);
        for seed in [0, 7, 99] {
            let scheme = RandomGridAtw::theorem20(&g, seed).into_scheme();
            let (mut fwd, mut bwd) = (vec![1u128; 3], vec![2u128; 3]); // stale contents
            let unit = RandomGridAtw::theorem20_costs_into(&g, seed, &mut fwd, &mut bwd);
            assert_eq!(unit, *scheme.unit());
            assert_eq!(fwd.len(), g.m());
            for (e, u, v) in g.edges() {
                assert_eq!(fwd[e], scheme.edge_cost(e, u, v), "seed {seed} edge {e} fwd");
                assert_eq!(bwd[e], scheme.edge_cost(e, v, u), "seed {seed} edge {e} bwd");
            }
        }
    }

    #[test]
    fn numerators_within_grid() {
        let g = generators::complete(6);
        let atw = RandomGridAtw::with_half_width(&g, 100, 5);
        for e in 0..g.m() {
            assert!(atw.numerator(e).unsigned_abs() as u128 <= 100);
        }
        assert_eq!(atw.half_width(), 100);
    }
}

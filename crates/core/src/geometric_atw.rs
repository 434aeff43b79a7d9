//! The deterministic geometric tiebreaking weight function of Theorem 23.
//!
//! Edges are numbered `i ∈ {1, …, |E|}` and edge `i = (u, v)` receives
//! weight `r(u, v) = sign(u − v) · C^{−i} / (2n)` for a constant `C ≥ 4`.
//! Because the weights decay geometrically, the smallest-indexed edge in
//! the symmetric difference of two paths dominates every later
//! contribution, so no two distinct paths can tie — deterministically, for
//! every fault set, i.e. the function is `f`-tiebreaking for every `f`.
//!
//! The price is bit complexity: weights need `O(|E|)` bits (the paper's
//! Theorem 23), so the scheme runs on exact [`BigInt`] arithmetic. After
//! clearing denominators (multiplying by `2n·C^{|E|}`) the scaled cost of
//! traversing edge `i` in its positive direction is the integer
//! `2n·C^{|E|} + C^{|E|−i}`. We fix `C = 4` so that all powers are powers
//! of two and the dominance condition `C ≥ 4` (needed for
//! `C^{−i} > 2·Σ_{j>i} C^{−j}`) holds with room to spare.

use rsp_arith::BigInt;
use rsp_graph::Graph;

use crate::scheme::ExactScheme;

/// The deterministic geometric ATW function (Theorem 23).
///
/// # Examples
///
/// ```
/// use rsp_core::GeometricAtw;
/// use rsp_graph::{generators, FaultSet};
///
/// let g = generators::cycle(4);
/// let scheme = GeometricAtw::new(&g).into_scheme();
/// assert!(scheme.is_antisymmetric());
/// // Even cycles are all ties; the geometric weights break every one,
/// // with no randomness involved.
/// for s in 0..4 {
///     assert!(!scheme.spt(s, &FaultSet::empty()).ties_detected());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct GeometricAtw {
    graph: Graph,
}

/// The geometric base `C`; must be `≥ 4` for the dominance argument, and a
/// power of two so that scaled weights are cheap shifts.
const BASE_LOG2: u32 = 2; // C = 4

impl GeometricAtw {
    /// Creates the deterministic weight function for `g`.
    ///
    /// Edge `i` (1-based, in edge-id order) gets `r = sign(u−v)·4^{−i}/(2n)`.
    pub fn new(g: &Graph) -> Self {
        GeometricAtw { graph: g.clone() }
    }

    /// Bits needed per scaled weight: `Θ(|E|)` (here exactly
    /// `2|E| + ⌈log₂ 2n⌉ + O(1)`).
    pub fn bits_per_weight(&self) -> usize {
        let m = self.graph.m() as u32;
        let n_bits = usize::BITS - self.graph.n().leading_zeros();
        (2 * m + 1) as usize + n_bits as usize + 1
    }

    /// Materializes the induced scheme on exact big-integer costs.
    ///
    /// The scaled unit weight is `2n·4^m`; edge `i`'s perturbation is
    /// `±4^{m−i}` with sign `sign(u − v)` on the canonical `u → v`
    /// direction (negative, since canonical edges have `u < v`).
    pub fn into_scheme(self) -> ExactScheme<BigInt> {
        let g = self.graph;
        let n = g.n().max(1) as u64;
        let m = g.m() as u32;
        let unit = BigInt::pow2(2 * m + 1) * n; // 2n·4^m
        let mut fwd = Vec::with_capacity(g.m());
        let mut bwd = Vec::with_capacity(g.m());
        for (idx, _, _) in g.edges() {
            let i = idx as u32 + 1; // 1-based edge numbering per the paper

            // perturb = 4^{m−i}; the canonical orientation u → v has
            // u < v, so sign(u − v) = −1 on the forward direction.
            let perturb = BigInt::pow2(BASE_LOG2 * (m - i));
            fwd.push(&unit + &(-perturb.clone()));
            bwd.push(&unit + &perturb);
        }
        let bits = 2 * m as usize + 1 + (64 - n.leading_zeros() as usize) + 1;
        ExactScheme::from_costs(g, fwd, bwd, unit, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Rpts;
    use rsp_graph::{bfs, generators, FaultSet, SelectedTree};

    #[test]
    fn antisymmetric() {
        let g = generators::grid(3, 3);
        assert!(GeometricAtw::new(&g).into_scheme().is_antisymmetric());
    }

    #[test]
    fn deterministic_no_ties_everywhere() {
        // Unlike the random scheme there is no failure probability at all:
        // check every source and every single-edge fault on a tie-heavy
        // graph.
        let g = generators::grid(3, 4);
        let s = GeometricAtw::new(&g).into_scheme();
        let mut fault_sets = vec![FaultSet::empty()];
        fault_sets.extend(g.edges().map(|(e, _, _)| FaultSet::single(e)));
        for faults in &fault_sets {
            for src in g.vertices() {
                assert!(!s.spt(src, faults).ties_detected());
            }
        }
    }

    #[test]
    fn hop_counts_match_bfs() {
        let g = generators::hypercube(3);
        let s = GeometricAtw::new(&g).into_scheme();
        for src in g.vertices() {
            let tree = s.tree_from(src, &FaultSet::empty());
            let truth = bfs(&g, src, &FaultSet::empty());
            for t in g.vertices() {
                assert_eq!(tree.dist(t), truth.dist(t));
            }
        }
    }

    #[test]
    fn reproducible_without_seed() {
        let g = generators::petersen();
        let a = GeometricAtw::new(&g).into_scheme();
        let b = GeometricAtw::new(&g).into_scheme();
        let fa = a.path(0, 7, &FaultSet::empty());
        let fb = b.path(0, 7, &FaultSet::empty());
        assert_eq!(fa, fb);
    }

    #[test]
    fn bits_grow_linearly_in_m() {
        let small = GeometricAtw::new(&generators::cycle(4)).bits_per_weight();
        let large = GeometricAtw::new(&generators::cycle(40)).bits_per_weight();
        assert!(large > 10 * small / 2, "expected Θ(m) growth: {small} vs {large}");
    }
}

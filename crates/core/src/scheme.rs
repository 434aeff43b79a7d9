//! Replacement-path tiebreaking schemes (Definition 15) and the
//! weight-induced scheme of Theorem 19.

use std::any::Any;
use std::fmt;
use std::ops::ControlFlow;

use rsp_arith::{HopDivisor, PathCost};
use rsp_graph::{
    BfsTree, DirectedCosts, EdgeId, FaultSet, Graph, Path, SearchScratch, SelectedTree,
    SweepScratch, Vertex,
};

/// The scratch payload of the exact (weight-induced) schemes: one
/// single-query scratch for the `_with` methods plus the sweep state of
/// [`Rpts::for_each_tree`], which stays empty until the first sweep over
/// several fault sets.
struct ExactPayload<C> {
    single: SearchScratch<C>,
    sweep: SweepScratch<C>,
}

/// Opaque reusable search state for repeated scheme queries.
///
/// Obtained from [`Rpts::new_scratch`] and threaded through the `_with`
/// query methods ([`Rpts::tree_from_with`], [`Rpts::dist_with`],
/// [`Rpts::path_with`]); hot loops allocate one and reuse it across
/// thousands of `(source, fault set)` queries. The payload is
/// scheme-specific (the exact schemes store a
/// [`rsp_graph::SearchScratch`] over their cost type), hence the type
/// erasure: callers generic over [`Rpts`] need not know the cost type.
///
/// A scratch from one scheme may be handed to another; a payload type
/// mismatch is not an error — the query simply falls back to the
/// allocating path.
pub struct RptsScratch {
    payload: Option<Box<dyn Any>>,
    /// Unweighted ground-truth BFS state, shared by every consumer
    /// (restoration needs `dist_{G\F}` alongside the scheme's own trees).
    bfs: rsp_graph::SearchScratch<u32>,
}

impl RptsScratch {
    /// A scratch for schemes without buffer reuse (the trait default).
    pub fn unsupported() -> Self {
        RptsScratch { payload: None, bfs: rsp_graph::SearchScratch::new() }
    }

    /// Wraps a concrete scratch payload.
    pub fn from_value<T: Any>(value: T) -> Self {
        RptsScratch { payload: Some(Box::new(value)), bfs: rsp_graph::SearchScratch::new() }
    }

    /// The payload, if it has type `T`.
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.payload.as_mut()?.downcast_mut()
    }

    /// Reusable state for ground-truth (unweighted) BFS queries issued
    /// next to the scheme's own trees — e.g. the `dist_{G\F}(s, t)` target
    /// every restoration attempt starts from.
    pub fn bfs_scratch(&mut self) -> &mut rsp_graph::SearchScratch<u32> {
        &mut self.bfs
    }
}

impl fmt::Debug for RptsScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.payload {
            Some(_) => write!(f, "RptsScratch(..)"),
            None => write!(f, "RptsScratch(unsupported)"),
        }
    }
}

/// An `f`-replacement-path tiebreaking scheme (Definition 15): a function
/// `π(s, t | F)` selecting one shortest `s ⇝ t` path in `G \ F` per ordered
/// pair and fault set.
///
/// Implementations in this workspace are all *tree-structured*: for a fixed
/// source and fault set the selected paths to all targets form a tree, so
/// the primary operation is [`Rpts::tree_from`] and `π(s, t | F)` is the
/// tree path. (This holds automatically for weight-induced schemes, whose
/// selected paths are unique shortest paths in `G* \ F`, and for the
/// BFS-order baseline.)
///
/// Note that `π(s, · | F)` and `π(t, · | F)` are **independent selections**
/// — the asymmetry that Theorem 2 shows is essential for restorability.
pub trait Rpts {
    /// The underlying fault-free graph `G`.
    fn graph(&self) -> &Graph;

    /// The selected shortest-path tree `π(s, · | F)` in `G \ F`.
    fn tree_from(&self, s: Vertex, faults: &FaultSet) -> BfsTree;

    /// The selected path `π(s, t | F)`, or `None` if `t` is unreachable
    /// in `G \ F`.
    ///
    /// The default computes a full tree; callers iterating over many targets
    /// for one `(s, F)` should call [`Rpts::tree_from`] once instead.
    fn path(&self, s: Vertex, t: Vertex, faults: &FaultSet) -> Option<Path> {
        self.tree_from(s, faults).path_to(t)
    }

    /// Unweighted distance of the selected path (equals `dist_{G\F}(s, t)`
    /// for a valid scheme).
    fn dist(&self, s: Vertex, t: Vertex, faults: &FaultSet) -> Option<u32> {
        self.tree_from(s, faults).dist(t)
    }

    /// Allocates reusable search state for this scheme's `_with` queries.
    ///
    /// The default supports no reuse; schemes backed by the scratch-based
    /// query engine override it. One scratch serves any number of
    /// consecutive queries against the same scheme.
    fn new_scratch(&self) -> RptsScratch {
        RptsScratch::unsupported()
    }

    /// [`Rpts::tree_from`], reusing `scratch`'s buffers across calls.
    ///
    /// Behavior is identical to `tree_from`; only the allocation profile
    /// differs. The default ignores the scratch.
    fn tree_from_with(&self, s: Vertex, faults: &FaultSet, scratch: &mut RptsScratch) -> BfsTree {
        let _ = scratch;
        self.tree_from(s, faults)
    }

    /// [`Rpts::dist`], reusing `scratch`'s buffers across calls: the
    /// distance is read from the tree [`Rpts::for_each_tree`] lends.
    fn dist_with(
        &self,
        s: Vertex,
        t: Vertex,
        faults: &FaultSet,
        scratch: &mut RptsScratch,
    ) -> Option<u32> {
        let mut dist = None;
        self.for_each_tree(&[s], std::slice::from_ref(faults), scratch, &mut |_, _, tree| {
            dist = tree.dist(t);
            ControlFlow::Break(())
        });
        dist
    }

    /// [`Rpts::path`], reusing `scratch`'s buffers across calls: the path
    /// is read from the tree [`Rpts::for_each_tree`] lends.
    fn path_with(
        &self,
        s: Vertex,
        t: Vertex,
        faults: &FaultSet,
        scratch: &mut RptsScratch,
    ) -> Option<Path> {
        let mut path = None;
        self.for_each_tree(&[s], std::slice::from_ref(faults), scratch, &mut |_, _, tree| {
            path = tree.path_to(t);
            ControlFlow::Break(())
        });
        path
    }

    /// Computes the selected tree for every query in `sources ×
    /// fault_sets`, invoking `visitor` once per query in source-major
    /// order (`(0, 0), (0, 1), …, (1, 0), …`). A visitor returning
    /// [`ControlFlow::Break`] stops the sweep immediately; remaining
    /// queries are never computed (how the verifiers and restoration
    /// searches exit early).
    ///
    /// The visitor borrows each tree where the search left it, as a
    /// [`SelectedTree`] valid for the duration of the call; a caller that
    /// keeps a tree copies it with [`SelectedTree::to_bfs_tree`].
    ///
    /// The batched entry point behind the verifiers, restoration sweeps,
    /// and preserver builds. The default loops over
    /// [`Rpts::tree_from_with`] and lends each owned tree; the exact
    /// schemes override it with [`rsp_graph::dijkstra_sweep`]: one
    /// fault-free tree per source, each fault set then applied edge by
    /// edge by the repair kernel, with a search wherever a tie leaves the
    /// tree unforced, and each query lent as the sweep's view. A sweep
    /// over a single fault set has no base tree to share, so it searches
    /// per query and lends the search scratch. Either way the trees
    /// visited are identical to per-query [`Rpts::tree_from`] calls.
    fn for_each_tree(
        &self,
        sources: &[Vertex],
        fault_sets: &[FaultSet],
        scratch: &mut RptsScratch,
        visitor: &mut dyn FnMut(usize, usize, &dyn SelectedTree) -> ControlFlow<()>,
    ) {
        for (si, &s) in sources.iter().enumerate() {
            for (fi, faults) in fault_sets.iter().enumerate() {
                let tree = self.tree_from_with(s, faults, scratch);
                if visitor(si, fi, &tree).is_break() {
                    return;
                }
            }
        }
    }
}

/// The scheme induced by exact per-direction edge costs in `G*` — the
/// weight-generated RPTS of Theorem 19.
///
/// Holds the graph plus, for every edge `e = (u, v)` (canonical `u < v`),
/// the exact scaled costs of traversing `u → v` (`fwd`) and `v → u`
/// (`bwd`). For an antisymmetric tiebreaking weight function these satisfy
/// `fwd[e] + bwd[e] = 2·unit` where `unit` is the scaled weight of an
/// unperturbed edge.
///
/// Constructed by [`crate::RandomGridAtw`] and [`crate::GeometricAtw`], or
/// directly via [`ExactScheme::from_costs`] (used by the lower-bound
/// machinery, which needs a specific *bad* weight function).
#[derive(Clone, Debug)]
pub struct ExactScheme<C> {
    graph: Graph,
    fwd: Vec<C>,
    bwd: Vec<C>,
    unit: C,
    bits_per_weight: usize,
    /// Certified at construction; `None` when perturbations can add up
    /// to a unit edge.
    hops: Option<HopDivisor<C>>,
}

impl<C: PathCost + 'static> ExactScheme<C> {
    /// Builds a scheme from explicit per-direction edge costs.
    ///
    /// `unit` is the scaled cost of an unperturbed unit edge and
    /// `bits_per_weight` the storage the perturbations need (reported by
    /// experiment E10). The hop bound is certified here, once, in `O(m)`
    /// (see [`ExactScheme::hop_divisor`]).
    ///
    /// # Panics
    ///
    /// Panics if the cost vectors are not of length `g.m()`.
    pub fn from_costs(
        graph: Graph,
        fwd: Vec<C>,
        bwd: Vec<C>,
        unit: C,
        bits_per_weight: usize,
    ) -> Self {
        assert_eq!(fwd.len(), graph.m(), "one forward cost per edge");
        assert_eq!(bwd.len(), graph.m(), "one backward cost per edge");
        let hops = HopDivisor::certify(graph.n(), &unit, fwd.iter().chain(&bwd));
        ExactScheme { graph, fwd, bwd, unit, bits_per_weight, hops }
    }

    /// The exact cost of traversing edge `e` from `from` to its other
    /// endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `e`.
    pub fn edge_cost(&self, e: EdgeId, from: Vertex, to: Vertex) -> C {
        let (u, v) = self.graph.endpoints(e);
        if (from, to) == (u, v) {
            self.fwd[e].clone()
        } else {
            assert_eq!((from, to), (v, u), "({from}, {to}) does not match edge {e}");
            self.bwd[e].clone()
        }
    }

    /// The scaled cost of one unperturbed unit edge.
    pub fn unit(&self) -> &C {
        &self.unit
    }

    /// The divisor that reads a selected path's hop count off its exact
    /// cost, or `None` when the perturbations of some simple path could
    /// add up to a whole unit edge (`L + U ≥ unit`, see
    /// [`HopDivisor`]). Every ATW construction in this crate is
    /// certified; stores of exact costs (`rsp_oracle` snapshots) refuse
    /// a scheme that is not.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultSet};
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
    /// let hops = scheme.hop_divisor().expect("Theorem 20 keeps hop classes apart");
    /// let tree = scheme.spt(0, &FaultSet::empty());
    /// assert_eq!(hops.hops(tree.cost(15).unwrap()), 6);
    /// ```
    pub fn hop_divisor(&self) -> Option<&HopDivisor<C>> {
        self.hops.as_ref()
    }

    /// Bits needed to store one perturbation value (experiment E10).
    pub fn bits_per_weight(&self) -> usize {
        self.bits_per_weight
    }

    /// Checks the antisymmetry invariant `fwd[e] + bwd[e] = 2·unit` on
    /// every edge.
    pub fn is_antisymmetric(&self) -> bool {
        let two_units = self.unit.plus(&self.unit);
        (0..self.graph.m()).all(|e| self.fwd[e].plus(&self.bwd[e]) == two_units)
    }

    /// The full weighted shortest-path tree from `s` in `G* \ F`, as the
    /// finished search that found it.
    ///
    /// For a valid tiebreaking weight function
    /// [`SearchScratch::ties_detected`] is `false` and the tree's paths are
    /// the unique minimum-cost — hence canonical — shortest paths.
    ///
    /// Allocates a fresh scratch per call; loops should use
    /// [`ExactScheme::spt_into`].
    pub fn spt(&self, s: Vertex, faults: &FaultSet) -> SearchScratch<C> {
        let mut scratch = SearchScratch::with_capacity(self.graph.n());
        self.spt_into(s, faults, &mut scratch);
        scratch
    }

    /// A fresh scratch payload; its sweep state grows on first use.
    fn payload(&self) -> ExactPayload<C> {
        ExactPayload {
            single: SearchScratch::with_capacity(self.graph.n()),
            sweep: SweepScratch::new(),
        }
    }

    /// Runs the SPT query from `s` in `G* \ F` into a reusable scratch.
    ///
    /// The clone-free hot path: stored per-direction costs are borrowed
    /// straight into the relaxation (no [`ExactScheme::edge_cost`] clone),
    /// and results — costs, hops, parents, paths, tree edges — are read
    /// directly from the scratch without materializing a tree. Every cost
    /// type runs on the scratch's one lazy heap.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::{GeometricAtw, Rpts};
    /// use rsp_graph::{generators, FaultSet, SearchScratch};
    /// use rsp_arith::BigInt;
    ///
    /// let g = generators::grid(3, 3);
    /// let scheme = GeometricAtw::new(&g).into_scheme();
    /// let mut scratch = SearchScratch::<BigInt>::with_capacity(g.n());
    /// for e in 0..g.m() {
    ///     scheme.spt_into(0, &FaultSet::single(e), &mut scratch);
    ///     assert!(!scratch.ties_detected(), "Theorem 23 weights are tie-free");
    /// }
    /// ```
    pub fn spt_into(&self, s: Vertex, faults: &FaultSet, scratch: &mut SearchScratch<C>) {
        rsp_graph::dijkstra_into(&self.graph, s, faults, self.directed_costs(), scratch);
    }

    /// The scheme's stored per-direction costs as a borrowing
    /// [`rsp_graph::EdgeCostSource`], ready to hand to the raw query
    /// engine ([`rsp_graph::dijkstra_into`], [`rsp_graph::dijkstra_sweep`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::ops::ControlFlow;
    /// use rsp_core::{RandomGridAtw, Rpts};
    /// use rsp_graph::{dijkstra_sweep, generators, FaultSet, SweepScratch};
    ///
    /// let g = generators::grid(3, 3);
    /// let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
    /// let sources: Vec<usize> = g.vertices().collect();
    /// let faults: Vec<FaultSet> = (0..g.m()).map(FaultSet::single).collect();
    /// // One selected tree per (source, fault) query, in one sweep.
    /// let mut sweep = SweepScratch::new();
    /// let mut hops = Vec::new();
    /// dijkstra_sweep(
    ///     scheme.graph(),
    ///     &sources,
    ///     &faults,
    ///     scheme.directed_costs(),
    ///     &mut sweep,
    ///     |_s, _f, tree| {
    ///         hops.push(tree.hops(8));
    ///         ControlFlow::Continue(())
    ///     },
    /// );
    /// assert_eq!(hops.len(), sources.len() * faults.len());
    /// assert!(hops.iter().all(|h| h.is_some()), "grid survives one fault");
    /// // Theorem 20 weights are tie-free: the kernel answers queries.
    /// assert!(sweep.stats().repaired > 0);
    /// ```
    pub fn directed_costs(&self) -> DirectedCosts<'_, C> {
        DirectedCosts::new(&self.fwd, &self.bwd)
    }

    /// The exact cost of an explicit path under this scheme's weights.
    ///
    /// Returns `None` if the path is not valid in the graph.
    pub fn cost_of_path(&self, p: &Path) -> Option<C> {
        let mut total = C::zero();
        for (u, v) in p.steps() {
            let e = self.graph.edge_between(u, v)?;
            total = total.plus(&self.edge_cost(e, u, v));
        }
        Some(total)
    }

    /// The reverse-table path `π̄(s, t | F) := reverse(π(t, s | F))`.
    ///
    /// The MPLS deployment sketched in Section 1 carries two routing
    /// tables: one for `π` and one for its reverse. This accessor is the
    /// second table.
    pub fn reverse_path(&self, s: Vertex, t: Vertex, faults: &FaultSet) -> Option<Path> {
        self.path(t, s, faults).map(|p| p.reversed())
    }
}

impl<C: PathCost + 'static> Rpts for ExactScheme<C> {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn tree_from(&self, s: Vertex, faults: &FaultSet) -> BfsTree {
        self.spt(s, faults).to_bfs_tree()
    }

    fn new_scratch(&self) -> RptsScratch {
        RptsScratch::from_value(self.payload())
    }

    fn tree_from_with(&self, s: Vertex, faults: &FaultSet, scratch: &mut RptsScratch) -> BfsTree {
        match scratch.downcast_mut::<ExactPayload<C>>() {
            Some(p) => {
                self.spt_into(s, faults, &mut p.single);
                p.single.to_bfs_tree()
            }
            None => self.tree_from(s, faults),
        }
    }

    fn for_each_tree(
        &self,
        sources: &[Vertex],
        fault_sets: &[FaultSet],
        scratch: &mut RptsScratch,
        visitor: &mut dyn FnMut(usize, usize, &dyn SelectedTree) -> ControlFlow<()>,
    ) {
        let mut own = None;
        let p = match scratch.downcast_mut::<ExactPayload<C>>() {
            Some(p) => p,
            None => own.insert(self.payload()),
        };
        if fault_sets.len() > 1 {
            rsp_graph::dijkstra_sweep(
                &self.graph,
                sources,
                fault_sets,
                self.directed_costs(),
                &mut p.sweep,
                |si, fi, tree| visitor(si, fi, &tree),
            );
            return;
        }
        // One fault set leaves nothing to share: the sweep would pay for a
        // fault-free base run before its only query.
        for (si, &s) in sources.iter().enumerate() {
            for (fi, faults) in fault_sets.iter().enumerate() {
                self.spt_into(s, faults, &mut p.single);
                if visitor(si, fi, &p.single).is_break() {
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

    /// A hand-built antisymmetric scheme on the 4-cycle: unit 1000, scaled
    /// perturbations +1/-1 alternating so paths are unique.
    fn tiny_scheme() -> ExactScheme<u128> {
        let g = generators::cycle(4);
        let m = g.m();
        let fwd: Vec<u128> = (0..m).map(|e| 1000 + (e as u128 % 3) + 1).collect();
        let bwd: Vec<u128> = fwd.iter().map(|f| 2000 - f).collect();
        ExactScheme::from_costs(g, fwd, bwd, 1000, 2)
    }

    #[test]
    fn antisymmetry_invariant() {
        assert!(tiny_scheme().is_antisymmetric());
    }

    #[test]
    fn antisymmetry_violation_detected() {
        let g = generators::cycle(3);
        let s = ExactScheme::from_costs(g, vec![10u64, 10, 10], vec![10u64, 10, 11], 10u64, 1);
        assert!(!s.is_antisymmetric());
    }

    #[test]
    fn edge_cost_orientation() {
        let s = tiny_scheme();
        let (u, v) = s.graph().endpoints(0);
        let f = s.edge_cost(0, u, v);
        let b = s.edge_cost(0, v, u);
        assert_eq!(f + b, 2000);
    }

    #[test]
    fn cost_of_path_matches_spt() {
        let s = tiny_scheme();
        let spt = s.spt(0, &FaultSet::empty());
        for t in s.graph().vertices() {
            let p = spt.path_to(t).unwrap();
            assert_eq!(s.cost_of_path(&p).as_ref(), spt.cost(t));
        }
    }

    #[test]
    fn cost_of_invalid_path_is_none() {
        let s = tiny_scheme();
        assert!(s.cost_of_path(&Path::new(vec![0, 2])).is_none());
    }

    #[test]
    fn reverse_path_reverses() {
        let s = tiny_scheme();
        let p = s.path(0, 2, &FaultSet::empty()).unwrap();
        let q = s.reverse_path(2, 0, &FaultSet::empty()).unwrap();
        assert_eq!(p.reversed(), q);
    }

    #[test]
    fn scratch_queries_match_allocating_queries() {
        let s = tiny_scheme();
        let g = s.graph().clone();
        let mut scratch = s.new_scratch();
        let fault_sets = [FaultSet::empty(), FaultSet::single(0), FaultSet::from_edges([1, 2])];
        for faults in &fault_sets {
            for src in g.vertices() {
                let with = s.tree_from_with(src, faults, &mut scratch);
                let plain = s.tree_from(src, faults);
                for t in g.vertices() {
                    assert_eq!(with.dist(t), plain.dist(t));
                    assert_eq!(with.parent(t), plain.parent(t));
                    assert_eq!(s.dist_with(src, t, faults, &mut scratch), s.dist(src, t, faults));
                    assert_eq!(s.path_with(src, t, faults, &mut scratch), s.path(src, t, faults));
                }
            }
        }
    }

    #[test]
    fn spt_into_matches_spt() {
        let s = tiny_scheme();
        let mut scratch = rsp_graph::SearchScratch::<u128>::new();
        for src in s.graph().vertices() {
            s.spt_into(src, &FaultSet::single(1), &mut scratch);
            let fresh = s.spt(src, &FaultSet::single(1));
            for t in s.graph().vertices() {
                assert_eq!(scratch.cost(t), fresh.cost(t));
                assert_eq!(scratch.hops(t), fresh.hops(t));
            }
            assert_eq!(scratch.ties_detected(), fresh.ties_detected());
        }
    }

    #[test]
    fn for_each_tree_matches_per_query_trees() {
        let s = tiny_scheme();
        let g = s.graph().clone();
        let sources: Vec<Vertex> = g.vertices().collect();
        let fault_sets: Vec<FaultSet> = std::iter::once(FaultSet::empty())
            .chain((0..g.m()).map(FaultSet::single))
            .chain([FaultSet::from_edges([0, 2])])
            .collect();
        let mut scratch = s.new_scratch();
        // The sweep (several fault sets) and the per-query loop (one set,
        // here a single fault) must both visit the per-query trees.
        for fault_sets in [&fault_sets[..], &fault_sets[1..2]] {
            let mut visited = 0usize;
            s.for_each_tree(&sources, fault_sets, &mut scratch, &mut |si, fi, tree| {
                visited += 1;
                let plain = s.tree_from(sources[si], &fault_sets[fi]);
                for t in g.vertices() {
                    assert_eq!(tree.dist(t), plain.dist(t), "s{si} f{fi} dist({t})");
                    assert_eq!(tree.parent(t), plain.parent(t), "s{si} f{fi} parent({t})");
                }
                ControlFlow::Continue(())
            });
            assert_eq!(visited, sources.len() * fault_sets.len());
        }

        // The unsupported-scratch fallback visits the same trees.
        let mut none = RptsScratch::unsupported();
        let mut fallback = 0usize;
        s.for_each_tree(&sources, &fault_sets, &mut none, &mut |si, fi, tree| {
            fallback += 1;
            assert_eq!(tree.dist(sources[si]), Some(0), "f{fi} roots at its source");
            ControlFlow::Continue(())
        });
        assert_eq!(fallback, sources.len() * fault_sets.len());
    }

    #[test]
    fn for_each_tree_on_a_tied_scheme_matches_per_query_trees() {
        // Uniform costs tie on every grid cell: the sweep searches every
        // query and still visits the per-query trees.
        let g = generators::grid(3, 3);
        let s = ExactScheme::from_costs(g.clone(), vec![10u64; g.m()], vec![10u64; g.m()], 10, 0);
        let sources: Vec<Vertex> = g.vertices().collect();
        let fault_sets: Vec<FaultSet> = (0..g.m()).map(FaultSet::single).collect();
        let mut visited = 0usize;
        s.for_each_tree(&sources, &fault_sets, &mut s.new_scratch(), &mut |si, fi, tree| {
            visited += 1;
            let plain = s.tree_from(sources[si], &fault_sets[fi]);
            for t in g.vertices() {
                assert_eq!(tree.parent(t), plain.parent(t), "s{si} f{fi} parent({t})");
            }
            ControlFlow::Continue(())
        });
        assert_eq!(visited, sources.len() * fault_sets.len());
    }

    #[test]
    fn foreign_scratch_falls_back_to_allocating_path() {
        let s = tiny_scheme();
        // A payload of the wrong type: queries must still answer correctly.
        let mut wrong = RptsScratch::from_value(42u8);
        assert_eq!(
            s.dist_with(0, 2, &FaultSet::empty(), &mut wrong),
            s.dist(0, 2, &FaultSet::empty())
        );
        let mut none = RptsScratch::unsupported();
        let tree = s.tree_from_with(0, &FaultSet::empty(), &mut none);
        assert_eq!(tree.dist(2), s.dist(0, 2, &FaultSet::empty()));
    }

    #[test]
    fn tree_from_is_bfs_consistent() {
        let s = tiny_scheme();
        let tree = s.tree_from(1, &FaultSet::empty());
        for t in s.graph().vertices() {
            assert_eq!(
                tree.dist(t),
                rsp_graph::bfs(s.graph(), 1, &FaultSet::empty()).dist(t),
                "perturbed shortest paths must stay shortest"
            );
        }
    }
}

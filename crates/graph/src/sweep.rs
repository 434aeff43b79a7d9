//! Offline `sources × fault_sets` sweeps over the repair kernel.
//!
//! The paper's experiments — and any Theorem 2-style restoration — loop
//! over `sources × fault_sets` shortest-path queries. [`dijkstra_sweep`]
//! runs one fault-free [`dijkstra_into`] per source and answers each
//! fault set by applying its edges one at a time with the repair kernel
//! ([`crate::repair`]), each against the tree the previous ones left. On
//! a tie-free base every cell outside a detached subtree is provably
//! unchanged, so a query costs the subtrees its faults detach, not a
//! search. A query falls back to `dijkstra_into(s, F)` when the base run
//! flagged a tie or the kernel refused one; [`SweepStats`] counts both
//! routes.
//!
//! Every answer equals per-query [`dijkstra_into`] in costs, hop counts,
//! parents and reachable count (`tests/sweep_properties.rs`).
//!
//! # Examples
//!
//! Sweep every single-edge fault from two sources:
//!
//! ```
//! use rsp_graph::{dijkstra_sweep, generators, FaultSet, SelectedTree, SweepScratch};
//!
//! let g = generators::grid(4, 4);
//! let faults: Vec<FaultSet> = (0..g.m()).map(FaultSet::single).collect();
//! let cost = |e: usize, u: usize, v: usize| 100u64 + 3 * e as u64 + u64::from(u < v);
//! let mut scratch = SweepScratch::new();
//! let mut reachable = 0usize;
//! dijkstra_sweep(&g, &[0, 15], &faults, cost, &mut scratch, |_s, _f, tree| {
//!     reachable += tree.reachable_count();
//!     std::ops::ControlFlow::Continue(())
//! });
//! // A 4×4 grid stays connected under any single fault.
//! assert_eq!(reachable, 2 * g.m() * g.n());
//! ```

use std::fmt;
use std::ops::ControlFlow;

use rsp_arith::PathCost;

use crate::fault::FaultSet;
use crate::graph::{EdgeId, Graph, Vertex};
use crate::repair::{RepairScratch, RepairView, NONE};
use crate::scratch::{dijkstra_into, EdgeCostSource, SearchScratch};
use crate::tree::SelectedTree;

/// How a sweep's queries were answered; read it via
/// [`SweepScratch::stats`]. Counts accumulate across sweeps on the same
/// scratch; [`SweepScratch::reset_stats`] zeroes them.
///
/// # Examples
///
/// Costs whose perturbations sum uniquely (a unit dominating distinct
/// powers of two, as Theorem 20's weights do w.h.p.) repair queries;
/// uniform costs tie at the base, so every query searches:
///
/// ```
/// use std::ops::ControlFlow;
/// use rsp_graph::{dijkstra_sweep, generators, FaultSet, SweepScratch};
///
/// let g = generators::grid(5, 5);
/// let faults: Vec<FaultSet> = (0..g.m()).map(FaultSet::single).collect();
/// let mut scratch = SweepScratch::new();
/// let distinct = |e: usize, _: usize, _: usize| (1u64 << 50) + (1 << e);
/// dijkstra_sweep(&g, &[0, 24], &faults, distinct, &mut scratch, |_, _, _| ControlFlow::Continue(()));
/// let stats = *scratch.stats();
/// assert_eq!(stats.queries(), 2 * faults.len());
/// assert!(stats.repaired > 0);
///
/// scratch.reset_stats();
/// dijkstra_sweep(&g, &[0], &faults, |_, _, _| 1u64, &mut scratch, |_, _, _| ControlFlow::Continue(()));
/// assert_eq!((scratch.stats().repaired, scratch.stats().searched), (0, faults.len()));
/// println!("{stats}"); // one-line human-readable summary
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Queries answered by the repair kernel over the source's base run.
    pub repaired: usize,
    /// Queries answered by a search of `G \ F`: the base run flagged a
    /// tie, or the kernel refused one.
    pub searched: usize,
}

impl SweepStats {
    /// Total queries answered.
    pub fn queries(&self) -> usize {
        self.repaired + self.searched
    }
}

impl fmt::Display for SweepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SweepStats { repaired, searched } = self;
        write!(f, "{} queries: {repaired} repaired, {searched} searched", self.queries())
    }
}

/// Reusable state for [`dijkstra_sweep`]: the source's base run, the
/// fallback search, the repair kernel and the stats. Buffers grow on
/// first use; one scratch serves any number of sweeps, sources and
/// graphs.
#[derive(Clone, Debug)]
pub struct SweepScratch<C> {
    base: SearchScratch<C>,
    search: SearchScratch<C>,
    kernel: RepairScratch<C>,
    /// The fault set's edges applied so far.
    prefix: FaultSet,
    stats: SweepStats,
}

impl<C: PathCost> Default for SweepScratch<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: PathCost> SweepScratch<C> {
    /// An empty sweep scratch; buffers grow on first use.
    pub fn new() -> Self {
        SweepScratch {
            base: SearchScratch::new(),
            search: SearchScratch::new(),
            kernel: RepairScratch::new(),
            prefix: FaultSet::empty(),
            stats: SweepStats::default(),
        }
    }

    /// How queries have been answered so far (cumulative across sweeps).
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }

    /// Zeroes the [`SweepScratch::stats`] counters.
    pub fn reset_stats(&mut self) {
        self.stats = SweepStats::default();
    }
}

/// One answered sweep query, borrowed from the sweep's scratch: valid for
/// the duration of the visitor call. It is the repair kernel's view
/// ([`RepairScratch::over`]) over the tree a search left: the source's
/// base run when the query was repaired, the fallback search (under an
/// empty overlay) otherwise. Read the tree through [`SelectedTree`]; copy
/// it out with [`SelectedTree::to_bfs_tree`] only to keep it past the
/// call.
pub type SweepView<'a, C> = RepairView<'a, C, SearchScratch<C>>;

/// The edge listing walks the searched tree's reached list instead of
/// `0..n`. Repairs only remove edges, so a vertex the search did not
/// reach stays unreached, and the reachable count is the search's less
/// the cells the kernel cleared.
impl<C: PathCost> SelectedTree for SweepView<'_, C> {
    fn source(&self) -> Vertex {
        self.base.source()
    }

    fn n(&self) -> usize {
        self.g.n()
    }

    fn dist(&self, v: Vertex) -> Option<u32> {
        self.hops(v)
    }

    fn parent(&self, v: Vertex) -> Option<(Vertex, EdgeId)> {
        RepairView::parent(self, v)
    }

    fn tree_edges(&self) -> Box<dyn Iterator<Item = EdgeId> + '_> {
        Box::new(self.base.touched.iter().filter_map(|&v| self.parent(v as usize).map(|(_, e)| e)))
    }

    fn reachable_count(&self) -> usize {
        let lost =
            self.kernel.written().filter(|&(v, c)| c.hops == NONE && self.base.reached(v as usize));
        self.base.reachable_count() - lost.count()
    }
}

/// Forwards an [`EdgeCostSource`] by mutable reference, so one cost
/// source serves the base run, the fallback searches and the kernel.
struct ByRef<'a, T>(&'a mut T);

impl<C: PathCost, T: EdgeCostSource<C>> EdgeCostSource<C> for ByRef<'_, T> {
    #[inline]
    fn compute(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex) -> C {
        self.0.compute(base, e, from, to)
    }
}

/// Answers every query in `sources × fault_sets`: one fault-free base
/// run per source, then each fault set's edges applied one at a time by
/// the repair kernel ([`crate::repair`], which has the exactness
/// argument), falling back to a search of `G \ F` when the base run
/// flagged a tie or the kernel refused one.
///
/// `visitor` is called once per query, in source-major order, with the
/// source index, the fault-set index and a [`SweepView`] of that query's
/// selected tree — identical to running [`dijkstra_into`] per query.
/// Returning [`ControlFlow::Break`] stops the sweep; remaining queries
/// are never computed.
///
/// `costs` must be a pure function of its arguments; it serves the base
/// runs, the repairs and the fallback searches.
///
/// # Examples
///
/// One source, every single-edge fault, reading one target's exact cost
/// per query:
///
/// ```
/// use std::ops::ControlFlow;
/// use rsp_graph::{dijkstra_sweep, generators, FaultSet, SweepScratch};
///
/// let g = generators::cycle(6);
/// let faults: Vec<FaultSet> = (0..g.m()).map(FaultSet::single).collect();
/// let mut scratch = SweepScratch::new();
/// let mut costs_to_3 = Vec::new();
/// dijkstra_sweep(
///     &g,
///     &[0],
///     &faults,
///     |_e: usize, _u: usize, _v: usize| 10u64,
///     &mut scratch,
///     |_si, _fi, tree| {
///         costs_to_3.push(tree.cost(3).copied());
///         ControlFlow::Continue(())
///     },
/// );
/// // The cycle stays connected under any one fault: 0 → 3 always costs
/// // 3 hops one way or 3 the other (uniform weight 10).
/// assert_eq!(costs_to_3, vec![Some(30); g.m()]);
/// ```
///
/// # Panics
///
/// Panics if any source is out of range.
pub fn dijkstra_sweep<C, F, V>(
    g: &Graph,
    sources: &[Vertex],
    fault_sets: &[FaultSet],
    mut costs: F,
    scratch: &mut SweepScratch<C>,
    mut visitor: V,
) where
    C: PathCost,
    F: EdgeCostSource<C>,
    V: FnMut(usize, usize, SweepView<'_, C>) -> ControlFlow<()>,
{
    let SweepScratch { base, search, kernel, prefix, stats } = scratch;
    for (si, &s) in sources.iter().enumerate() {
        dijkstra_into(g, s, &FaultSet::empty(), ByRef(&mut costs), base);
        let tied = base.ties_detected();
        for (fi, faults) in fault_sets.iter().enumerate() {
            let tree = if !tied && repair(g, base, faults, &mut costs, kernel, prefix) {
                stats.repaired += 1;
                &*base
            } else {
                stats.searched += 1;
                kernel.begin(g.n());
                dijkstra_into(g, s, faults, ByRef(&mut costs), search);
                &*search
            };
            if visitor(si, fi, kernel.over(g, tree)).is_break() {
                return;
            }
        }
    }
}

/// Applies `faults` to the base tree one edge at a time, each against
/// the growing prefix of applied edges. `false` iff the kernel refused.
fn repair<C: PathCost>(
    g: &Graph,
    base: &SearchScratch<C>,
    faults: &FaultSet,
    costs: &mut impl EdgeCostSource<C>,
    kernel: &mut RepairScratch<C>,
    prefix: &mut FaultSet,
) -> bool {
    kernel.begin(g.n());
    prefix.set_from([]);
    faults.iter().all(|e| {
        prefix.insert(e);
        kernel.arrival(g, base, e, prefix, costs).is_ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::pool::parallel_indexed;
    use crate::scratch::DirectedCosts;

    /// All single faults plus the empty set plus some doubles, in an order
    /// that interleaves near-source and far-from-source faults.
    fn mixed_fault_sets(g: &Graph) -> Vec<FaultSet> {
        let mut fs = vec![FaultSet::empty()];
        fs.extend((0..g.m()).rev().map(FaultSet::single));
        for e in 0..g.m().saturating_sub(1) {
            fs.push(FaultSet::from_edges([e, g.m() - 1 - e / 2]));
        }
        fs
    }

    fn assert_view_equals<C: PathCost>(
        g: &Graph,
        sweep: &SweepView<'_, C>,
        single: &SearchScratch<C>,
        ctx: &str,
    ) {
        for v in g.vertices() {
            assert_eq!(sweep.cost(v), single.cost(v), "{ctx}: cost({v})");
            assert_eq!(sweep.hops(v), single.hops(v), "{ctx}: hops({v})");
            assert_eq!(sweep.parent(v), single.parent(v), "{ctx}: parent({v})");
        }
        assert_eq!(sweep.reachable_count(), single.reachable_count(), "{ctx}: reached");
    }

    #[test]
    fn sweep_matches_single_queries() {
        let g = generators::grid(4, 4);
        let fault_sets = mixed_fault_sets(&g);
        let sources: Vec<Vertex> = vec![0, 5, 15];
        let cost = |e: EdgeId, u: Vertex, v: Vertex| (1u64 << 40) + (1 << e) + u64::from(u < v);
        let mut sweep = SweepScratch::<u64>::new();
        let mut single = SearchScratch::<u64>::new();
        dijkstra_sweep(&g, &sources, &fault_sets, cost, &mut sweep, |si, fi, view| {
            dijkstra_into(&g, sources[si], &fault_sets[fi], cost, &mut single);
            assert_view_equals(&g, &view, &single, &format!("s{si} f{fi}"));
            ControlFlow::Continue(())
        });
        assert_eq!(sweep.stats().queries(), sources.len() * fault_sets.len());
        assert!(sweep.stats().repaired > 0, "tie-free costs are repaired");
    }

    #[test]
    fn tied_base_searches_like_single_queries() {
        // Uniform costs on a tie-rich grid: every base run ties, so every
        // query falls back and picks the single-query engine's tree.
        let g = generators::grid(3, 3);
        let fault_sets = mixed_fault_sets(&g);
        let sources = [0, 4];
        let mut sweep = SweepScratch::<u64>::new();
        let mut single = SearchScratch::<u64>::new();
        let uniform = |_: EdgeId, _: Vertex, _: Vertex| 10u64;
        dijkstra_sweep(&g, &sources, &fault_sets, uniform, &mut sweep, |si, fi, view| {
            dijkstra_into(&g, sources[si], &fault_sets[fi], uniform, &mut single);
            assert_view_equals(&g, &view, &single, &format!("s{si} f{fi}"));
            ControlFlow::Continue(())
        });
        let stats = *sweep.stats();
        assert_eq!((stats.repaired, stats.searched), (0, sources.len() * fault_sets.len()));
    }

    #[test]
    fn directed_costs_sweep_matches() {
        let g = generators::grid(4, 3);
        let fwd: Vec<u128> = (0..g.m()).map(|e| 10_000 + e as u128).collect();
        let bwd: Vec<u128> = fwd.iter().map(|f| 20_000 - f).collect();
        let fault_sets = mixed_fault_sets(&g);
        let mut sweep = SweepScratch::<u128>::new();
        let mut single = SearchScratch::<u128>::new();
        let sources: Vec<Vertex> = g.vertices().collect();
        let costs = DirectedCosts::new(&fwd, &bwd);
        dijkstra_sweep(&g, &sources, &fault_sets, costs, &mut sweep, |si, fi, view| {
            dijkstra_into(&g, sources[si], &fault_sets[fi], costs, &mut single);
            assert_view_equals(&g, &view, &single, &format!("dc s{si} f{fi}"));
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn parallel_sweeps_match_sequential_for_all_worker_counts() {
        // One sweep scratch per worker, one source per job: every worker
        // count reproduces the sequential sweep over all sources.
        let g = generators::grid(4, 4);
        let fault_sets = mixed_fault_sets(&g);
        let sources: Vec<Vertex> = g.vertices().collect();
        let cost = |e: EdgeId, _: Vertex, _: Vertex| 100u64 + e as u64;
        let cell = |t: &SweepView<'_, u64>| (t.cost(15).copied(), t.hops(15), t.parent(15));
        let mut sequential = vec![Vec::new(); sources.len()];
        dijkstra_sweep(&g, &sources, &fault_sets, cost, &mut SweepScratch::new(), |si, _, t| {
            sequential[si].push(cell(&t));
            ControlFlow::Continue(())
        });
        for workers in [1, 2, 8] {
            let par = parallel_indexed(
                sources.len(),
                workers,
                |_| SweepScratch::<u64>::new(),
                |sweep, i| {
                    let mut row = Vec::with_capacity(fault_sets.len());
                    dijkstra_sweep(&g, &sources[i..=i], &fault_sets, cost, sweep, |_, _, t| {
                        row.push(cell(&t));
                        ControlFlow::Continue(())
                    });
                    row
                },
            );
            assert_eq!(par, sequential, "workers = {workers}");
        }
    }

    #[test]
    fn sweep_survives_source_and_graph_switches() {
        // The base run and overlay of one source must never leak into the
        // next source's (or next graph's) answers.
        let mut sweep = SweepScratch::<u64>::new();
        let mut single = SearchScratch::<u64>::new();
        for g in [generators::grid(8, 8), generators::cycle(40), generators::grid(3, 3)] {
            let fault_sets = mixed_fault_sets(&g);
            let sources: Vec<Vertex> = vec![0, g.n() - 1];
            let cost = |e: EdgeId, _: Vertex, _: Vertex| 90u64 + e as u64 % 11;
            dijkstra_sweep(&g, &sources, &fault_sets, cost, &mut sweep, |si, fi, view| {
                dijkstra_into(&g, sources[si], &fault_sets[fi], cost, &mut single);
                assert_view_equals(&g, &view, &single, &format!("switch s{si} f{fi}"));
                ControlFlow::Continue(())
            });
        }
    }
}

//! Batched multi-fault queries: shared search prefixes across fault sets.
//!
//! The paper's experiments — and any production use of Theorem 2-style
//! restoration — are loops over `sources × fault_sets` shortest-path
//! queries. Running each query from scratch repeats work: two queries from
//! the same source whose fault sets are **not touched by the early search
//! frontier** proceed identically until the first faulted edge is examined.
//! This module exploits that:
//!
//! * [`BatchScratch`] owns a *baseline* (fault-free) run per source,
//!   instrumented with the settle order and, per edge, the settle step at
//!   which the edge is first examined;
//! * for each fault set `F`, the *prefix length* `k = min_{e ∈ F}
//!   first_examined(e)` bounds how many settle steps of the baseline are
//!   provably identical in `G \ F`; the query **resumes** from that prefix
//!   instead of starting over;
//! * the baseline is additionally **checkpointed** at a few geometric
//!   settle depths (`n/8`, `n/4`, `n/2`, `3n/4`): the open-frontier state
//!   — tentative keys and the live heap entries — is snapshotted mid-run.
//!   A resume without a checkpoint must rebuild the step-`k` frontier by
//!   replaying every prefix relaxation (`O(prefix edges)`); with the
//!   deepest checkpoint at depth `d ≤ k`, the frontier starts from the
//!   snapshot and only the `d..k` suffix is replayed — `O(frontier +
//!   suffix edges)`. Capture is unconditional: checkpointed resume is the
//!   batch path measured faster than per-query search on dense graphs
//!   (`BENCH_5`), while replay-only resume was not;
//! * fault sets the baseline never examines (`k` = the whole settle order)
//!   are answered by the baseline directly, with **zero** additional
//!   traversal — the common case for local faults far from the source;
//! * [`BatchStats`] counts how each query was answered (baseline /
//!   checkpoint / replay / full search) and how many relaxations the
//!   replay path re-executed, so prefix-sharing efficacy is measurable.
//!
//! Results are **byte-identical** to the single-query engine
//! ([`crate::dijkstra_into`]): same costs, hop counts, parents, settle
//! order, and tie detection (the property suite in
//! `tests/batch_properties.rs` asserts this exhaustively).
//!
//! The engine serves `rsp_core`'s `ExactScheme::for_each_tree` on sweeps
//! over two or more fault sets (the verifiers, the restoration sweeps and
//! the preserver builds). To fan
//! sources out over workers, run [`crate::parallel_indexed`] with one
//! scratch per worker.
//!
//! # Examples
//!
//! Batch over every single-edge fault, reading results per query:
//!
//! ```
//! use rsp_graph::{dijkstra_batch, generators, BatchScratch, FaultSet};
//!
//! let g = generators::grid(4, 4);
//! let faults: Vec<FaultSet> = (0..g.m()).map(FaultSet::single).collect();
//! let cost = |e: usize, _u: usize, _v: usize| 100u64 + e as u64;
//! let mut scratch = BatchScratch::<u64>::with_capacity(g.n());
//! let mut reachable = 0usize;
//! dijkstra_batch(&g, &[0, 15], &faults, cost, &mut scratch, |_s, _f, result| {
//!     reachable += result.reachable_count();
//!     std::ops::ControlFlow::Continue(())
//! });
//! // A 4×4 grid stays connected under any single fault.
//! assert_eq!(reachable, 2 * g.m() * g.n());
//! ```

use std::cmp::Reverse;
use std::fmt;
use std::ops::ControlFlow;

use rsp_arith::PathCost;

use crate::fault::FaultSet;
use crate::graph::{EdgeId, Graph, Vertex};
use crate::scratch::{
    dijkstra_into, dijkstra_run, dijkstra_seed, relax, EdgeCostSource, NoObserver, SearchObserver,
    SearchScratch, OPEN, SETTLED,
};

/// Checkpoints shallower than this many settle steps are not worth the
/// snapshot: the replay resume already handles tiny prefixes in-cache.
const MIN_CHECKPOINT_DEPTH: usize = 8;

/// Forwards an [`EdgeCostSource`] by mutable reference, so one cost source
/// instance can serve every query of a batch.
struct ByRef<'a, T>(&'a mut T);

impl<C: PathCost, T: EdgeCostSource<C>> EdgeCostSource<C> for ByRef<'_, T> {
    #[inline]
    fn compute(&mut self, base: &C, e: EdgeId, from: Vertex, to: Vertex) -> C {
        self.0.compute(base, e, from, to)
    }
}

/// Records the baseline run's settle order and per-step tie flag.
struct Recorder<'a> {
    settle_order: &'a mut Vec<u32>,
    /// `ties_prefix[j]`: cumulative tie flag after `j` settle steps.
    ties_prefix: &'a mut Vec<bool>,
}

impl SearchObserver for Recorder<'_> {
    #[inline]
    fn popped(&mut self, v: Vertex) {
        self.settle_order.push(v as u32);
    }

    #[inline]
    fn relaxed(&mut self, ties: bool) {
        self.ties_prefix.push(ties);
    }
}

/// Counters describing how a batch's queries were answered; read them via
/// [`BatchScratch::stats`] after [`dijkstra_batch`].
///
/// Counts accumulate across batch calls on the same scratch (so a bench
/// can total over iterations); [`BatchScratch::reset_stats`] zeroes them.
///
/// # Examples
///
/// Every query is answered by exactly one route, so the four route
/// counters always partition `queries`:
///
/// ```
/// use std::ops::ControlFlow;
/// use rsp_graph::{dijkstra_batch, generators, BatchScratch, FaultSet};
///
/// let g = generators::grid(5, 5);
/// let faults: Vec<FaultSet> = (0..g.m()).map(FaultSet::single).collect();
/// let cost = |e: usize, _: usize, _: usize| 100u64 + e as u64;
/// let mut scratch = BatchScratch::<u64>::new();
/// dijkstra_batch(&g, &[0, 24], &faults, cost, &mut scratch, |_, _, _| ControlFlow::Continue(()));
/// let stats = scratch.stats();
/// assert_eq!(stats.queries, 2 * faults.len());
/// assert_eq!(
///     stats.queries,
///     stats.baseline_answered + stats.checkpoint_resumed + stats.prefix_resumed
///         + stats.full_searches,
/// );
/// assert_eq!(stats.reused(), stats.queries - stats.full_searches);
/// println!("{stats}"); // one-line human-readable summary
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Total queries answered.
    pub queries: usize,
    /// Queries whose fault set the baseline never examined: answered by
    /// the baseline run outright, zero additional traversal.
    pub baseline_answered: usize,
    /// Queries resumed by restoring a mid-run checkpoint and continuing
    /// the search.
    pub checkpoint_resumed: usize,
    /// Queries resumed by copying the settled prefix and replaying its
    /// frontier relaxations (no checkpoint at or before the divergence
    /// step).
    pub prefix_resumed: usize,
    /// Queries with a fault incident to the source's first settle step:
    /// nothing to reuse, full search from scratch.
    pub full_searches: usize,
    /// Edge relaxations re-executed by the replay path (the work
    /// checkpointed resume exists to avoid).
    pub replayed_relaxations: usize,
    /// Checkpoints captured during baseline runs.
    pub checkpoints_captured: usize,
}

impl BatchStats {
    /// Queries that reused at least the full baseline or a prefix of it
    /// (everything except full searches).
    pub fn reused(&self) -> usize {
        self.queries - self.full_searches
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries: {} baseline, {} checkpoint-resumed, {} replay-resumed, \
             {} full; {} relaxations replayed, {} checkpoints captured",
            self.queries,
            self.baseline_answered,
            self.checkpoint_resumed,
            self.prefix_resumed,
            self.full_searches,
            self.replayed_relaxations,
            self.checkpoints_captured,
        )
    }
}

/// A snapshot of the baseline's *open frontier* after `depth` settle
/// steps: everything a resume needs to rebuild the search state at a later
/// step without replaying the relaxations of the first `depth` settles
/// (settled state is copied from the baseline's final arrays instead).
#[derive(Clone, Debug)]
struct Checkpoint<C> {
    /// Settle steps completed when the snapshot was taken.
    depth: usize,
    /// `(vertex, tentative key, parent, hops)` per discovered-but-open
    /// vertex, in discovery order (stored-width `u32` ids, matching the
    /// scratch arrays they snapshot).
    open: Vec<(u32, C, (u32, u32), u32)>,
    /// Live heap entries: one `(tentative key, vertex)` per open vertex.
    lazy: Vec<(C, u32)>,
}

/// Reusable state for one source's multi-fault query batch.
///
/// Holds the instrumented fault-free baseline run plus a second
/// [`SearchScratch`] that faulted queries resume into. One `BatchScratch`
/// serves any number of [`dijkstra_batch`] calls (and any number of
/// sources within a call — the baseline is rebuilt per source).
#[derive(Clone, Debug)]
pub struct BatchScratch<C> {
    /// The fault-free run for the current source.
    baseline: SearchScratch<C>,
    /// Target scratch for resumed (faulted) queries.
    resume: SearchScratch<C>,
    /// Baseline settle (heap pop) order, stored-width ids.
    settle_order: Vec<u32>,
    /// Cumulative tie flag after each settle step; `ties_prefix[0] = false`.
    ties_prefix: Vec<bool>,
    /// Per edge: the settle step at which the baseline first examines it,
    /// or `u32::MAX` if it never does.
    first_examined: Vec<u32>,
    /// Mid-run baseline snapshots for the current source, ascending by
    /// depth.
    checkpoints: Vec<Checkpoint<C>>,
    /// How queries have been answered so far (cumulative).
    stats: BatchStats,
}

impl<C: PathCost> Default for BatchScratch<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: PathCost> BatchScratch<C> {
    /// An empty batch scratch; buffers grow on first use.
    pub fn new() -> Self {
        BatchScratch {
            baseline: SearchScratch::new(),
            resume: SearchScratch::new(),
            settle_order: Vec::new(),
            ties_prefix: Vec::new(),
            first_examined: Vec::new(),
            checkpoints: Vec::new(),
            stats: BatchStats::default(),
        }
    }

    /// A batch scratch pre-sized for graphs with up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        BatchScratch {
            baseline: SearchScratch::with_capacity(n),
            resume: SearchScratch::with_capacity(n),
            settle_order: Vec::with_capacity(n),
            ties_prefix: Vec::with_capacity(n + 1),
            first_examined: Vec::new(),
            checkpoints: Vec::new(),
            stats: BatchStats::default(),
        }
    }

    /// How queries have been answered so far (cumulative across batch
    /// calls on this scratch).
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }

    /// Zeroes the [`BatchScratch::stats`] counters.
    pub fn reset_stats(&mut self) {
        self.stats = BatchStats::default();
    }

    /// The settle depths worth checkpointing for an `n`-vertex graph:
    /// geometric (`n/8`, `n/4`, `n/2`) plus a late `3n/4` snapshot,
    /// ascending, deduplicated, and deep enough to beat the replay path.
    ///
    /// The `3n/4` depth was added when the dense `G(n, m ≈ n^1.5)`
    /// `query_batch` family landed (PR 5): replay costs `O(suffix
    /// edges)`, so on a degree-24 graph the `n/2..k` suffixes of
    /// deep-diverging queries dominated the resume — a late snapshot
    /// halves the worst suffix for one more `O(frontier)` capture.
    /// Degree-4 grids measure the same within noise (suffixes there are
    /// cheap either way).
    fn checkpoint_depths(n: usize) -> impl Iterator<Item = usize> {
        let mut prev = 0usize;
        [n / 8, n / 4, n / 2, 3 * n / 4].into_iter().filter(move |&d| {
            let take = d >= MIN_CHECKPOINT_DEPTH && d > prev;
            if take {
                prev = d;
            }
            take
        })
    }

    /// Resets the per-source instrumentation ahead of a baseline run.
    fn begin_source(&mut self) {
        self.settle_order.clear();
        self.ties_prefix.clear();
        self.ties_prefix.push(false);
        self.checkpoints.clear();
    }

    /// Snapshots the baseline's current search state as a checkpoint at
    /// `depth` settle steps.
    fn capture_checkpoint(&mut self, depth: usize) {
        let base = &self.baseline;
        self.checkpoints.push(Checkpoint {
            depth,
            // Only the open frontier: a resume copies settled state from
            // the baseline's final arrays, never from a snapshot, so
            // settled records would be dead weight (`O(frontier)` clones
            // per checkpoint, not `O(discovered)`).
            open: base
                .touched
                .iter()
                .filter(|&&v| base.heap_pos[v as usize] != SETTLED)
                .map(|&v| {
                    let vi = v as usize;
                    (v, base.key[vi].clone(), base.parent[vi], base.hops[vi])
                })
                .collect(),
            // Live entries only (the one whose cost matches the current
            // tentative key, per open vertex): stale entries would be
            // skipped at pop anyway, and cloning them would make the
            // snapshot O(relaxations so far) instead of O(frontier).
            lazy: base
                .lazy
                .iter()
                .filter(|Reverse((c, v))| c == &base.key[*v as usize])
                .map(|Reverse(entry)| entry.clone())
                .collect(),
        });
        self.stats.checkpoints_captured += 1;
    }

    /// Derives `first_examined` from the recorded settle order.
    fn index_edges(&mut self, g: &Graph) {
        self.first_examined.clear();
        self.first_examined.resize(g.m(), u32::MAX);
        for (step, &u) in self.settle_order.iter().enumerate() {
            for (_, e) in g.neighbors(u as usize) {
                if self.first_examined[e] == u32::MAX {
                    self.first_examined[e] = step as u32;
                }
            }
        }
    }

    /// Number of baseline settle steps provably unaffected by `faults`:
    /// the earliest step at which any faulted edge is examined (or the
    /// full settle count if none ever is).
    fn prefix_len(&self, faults: &FaultSet) -> usize {
        let mut k = self.settle_order.len();
        for e in faults.iter() {
            if let Some(&step) = self.first_examined.get(e) {
                k = k.min(step as usize);
            }
        }
        k
    }

    /// Resumes a Dijkstra query against `faults` that diverges from the
    /// baseline at settle step `k`, picking the cheapest sound route:
    ///
    /// 1. `k = 0` (fault incident to the source's first step): full
    ///    search, nothing to reuse;
    /// 2. otherwise the `k` settled vertices are copied verbatim, and the
    ///    heap frontier at step `k` is rebuilt by replaying the prefix's
    ///    relaxations toward *open* vertices in original settle order.
    ///    With a checkpoint at depth `d ≤ k`, the frontier *starts from
    ///    the snapshot* — open tentative state and heap as of step `d` —
    ///    and only the `d..k` suffix is replayed: `O(prefix copy +
    ///    frontier + suffix edges)` instead of `O(prefix copy + prefix
    ///    edges)`. Without one, the replay covers `0..k`.
    ///
    /// Either way the search then continues with `faults` active.
    fn resume_dijkstra<F: EdgeCostSource<C>>(
        &mut self,
        g: &Graph,
        faults: &FaultSet,
        mut costs: F,
        k: usize,
    ) {
        if k == 0 {
            // A faulted edge is incident to the source: nothing to reuse.
            self.stats.full_searches += 1;
            dijkstra_into(g, self.baseline.source, faults, costs, &mut self.resume);
            return;
        }
        let ci = self.checkpoints.iter().rposition(|cp| cp.depth <= k);
        match ci {
            Some(_) => self.stats.checkpoint_resumed += 1,
            None => self.stats.prefix_resumed += 1,
        }
        let base = &self.baseline;
        let out = &mut self.resume;
        out.begin(g.n(), base.source, true);
        out.ties = self.ties_prefix[k];
        let epoch = out.epoch;
        for &v in &self.settle_order[..k] {
            let vi = v as usize;
            out.stamp[vi] = epoch;
            out.key[vi].clone_from(&base.key[vi]);
            out.hops[vi] = base.hops[vi];
            out.parent[vi] = base.parent[vi];
            out.heap_pos[vi] = SETTLED;
            out.touched.push(v);
        }
        // Seed the open frontier from the deepest usable checkpoint: its
        // records restore every vertex that was discovered-but-open at
        // depth `d` and is still open at step `k` (records of vertices
        // settled by `k` are recognizable by their fresh stamp and
        // skipped — the settled copy above is already their final state).
        // Checkpoint heap entries of settled vertices are dropped the
        // same way; the rebuilt heap realizes the same `(key, id)` order,
        // which is all pop order depends on.
        let mut replay_from = 0usize;
        if let Some(ci) = ci {
            let cp = &self.checkpoints[ci];
            replay_from = cp.depth;
            for &(v, ref key, parent, hops) in &cp.open {
                let vi = v as usize;
                if out.stamp[vi] == epoch {
                    continue;
                }
                out.stamp[vi] = epoch;
                out.key[vi].clone_from(key);
                out.parent[vi] = parent;
                out.hops[vi] = hops;
                out.heap_pos[vi] = OPEN;
                out.touched.push(v);
            }
            out.lazy.extend(
                cp.lazy
                    .iter()
                    .filter(|entry| {
                        let vi = entry.1 as usize;
                        out.stamp[vi] == epoch && out.heap_pos[vi] != SETTLED
                    })
                    .map(|entry| Reverse(entry.clone())),
            );
        }
        // Replay the `replay_from..k` relaxations toward open vertices,
        // in the original order, completing tentative keys and the heap.
        // Edges between two settled-prefix vertices are fully resolved
        // (any tie they produced is in `ties_prefix[k]`) and are skipped
        // — re-relaxing them against *final* keys would flag spurious
        // ties on prefix tree edges. No faulted edge is examined here:
        // each has `first_examined ≥ k`, so neither endpoint settled
        // before step `k`.
        let SearchScratch { stamp, key, parent, hops, heap_pos, lazy, touched, ties, .. } = out;
        let mut replayed = 0usize;
        for &u in &self.settle_order[replay_from..k] {
            let u = u as usize;
            for (v, e) in g.neighbors(u) {
                if stamp[v] == epoch && heap_pos[v] == SETTLED {
                    continue;
                }
                debug_assert!(!faults.contains(e), "faulted edge inside shared prefix");
                replayed += 1;
                let cand = costs.compute(&key[u], e, u, v);
                relax(
                    u, v, e, epoch, cand, stamp, key, parent, hops, lazy, heap_pos, touched, ties,
                );
            }
        }
        self.stats.replayed_relaxations += replayed;
        dijkstra_run(g, faults, costs, out, &mut NoObserver, usize::MAX);
    }
}

/// Runs exact-cost Dijkstra for every query in `sources × fault_sets`,
/// sharing the settled search prefix between fault sets that agree on the
/// early frontier.
///
/// `visitor` is called once per query, in source-major order, with the
/// source index, fault-set index, and the scratch holding that query's
/// complete result (costs, hops, parents, tie flag). Results are
/// byte-identical to running [`crate::dijkstra_into`] per query; the view
/// is only valid for the duration of the callback. Returning
/// [`ControlFlow::Break`] stops the batch immediately (remaining queries
/// are never computed).
///
/// `costs` must be a pure function of its arguments (the same requirement
/// every repeated-query caller already relies on); it is consulted both for
/// the baseline run and for each resumed query.
///
/// # Examples
///
/// One source, every single-edge fault, reading one target's exact cost
/// per query:
///
/// ```
/// use std::ops::ControlFlow;
/// use rsp_graph::{dijkstra_batch, generators, BatchScratch, FaultSet};
///
/// let g = generators::cycle(6);
/// let faults: Vec<FaultSet> = (0..g.m()).map(FaultSet::single).collect();
/// let mut scratch = BatchScratch::<u64>::with_capacity(g.n());
/// let mut costs_to_3 = Vec::new();
/// dijkstra_batch(
///     &g,
///     &[0],
///     &faults,
///     |_e: usize, _u: usize, _v: usize| 10u64,
///     &mut scratch,
///     |_si, _fi, result| {
///         costs_to_3.push(result.cost(3).copied());
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
pub fn dijkstra_batch<C, F, V>(
    g: &Graph,
    sources: &[Vertex],
    fault_sets: &[FaultSet],
    mut costs: F,
    scratch: &mut BatchScratch<C>,
    mut visitor: V,
) where
    C: PathCost,
    F: EdgeCostSource<C>,
    V: FnMut(usize, usize, &SearchScratch<C>) -> ControlFlow<()>,
{
    let no_faults = FaultSet::empty();
    for (si, &s) in sources.iter().enumerate() {
        scratch.begin_source();
        // Run the instrumented baseline in segments, pausing at each
        // checkpoint depth to snapshot the paused search state. The final
        // segment drains the heap; if the graph is exhausted before a
        // depth is reached, the remaining depths are simply not captured.
        dijkstra_seed(g, s, &mut scratch.baseline);
        for d in BatchScratch::<C>::checkpoint_depths(g.n()) {
            let settled = scratch.settle_order.len();
            let BatchScratch { baseline, settle_order, ties_prefix, .. } = scratch;
            let mut rec = Recorder { settle_order, ties_prefix };
            dijkstra_run(g, &no_faults, ByRef(&mut costs), baseline, &mut rec, d - settled);
            if scratch.settle_order.len() < d {
                break;
            }
            scratch.capture_checkpoint(d);
        }
        {
            let BatchScratch { baseline, settle_order, ties_prefix, .. } = scratch;
            let mut rec = Recorder { settle_order, ties_prefix };
            dijkstra_run(g, &no_faults, ByRef(&mut costs), baseline, &mut rec, usize::MAX);
        }
        scratch.index_edges(g);
        for (fi, faults) in fault_sets.iter().enumerate() {
            let k = scratch.prefix_len(faults);
            scratch.stats.queries += 1;
            let flow = if k >= scratch.settle_order.len() {
                scratch.stats.baseline_answered += 1;
                visitor(si, fi, &scratch.baseline)
            } else {
                scratch.resume_dijkstra(g, faults, ByRef(&mut costs), k);
                visitor(si, fi, &scratch.resume)
            };
            if flow.is_break() {
                return;
            }
        }
    }
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

    /// Per-edge, per-direction `u64` costs close enough to collide now and
    /// then, so tie flags are part of every comparison.
    fn cost(e: EdgeId, u: Vertex, v: Vertex) -> u64 {
        500 + (e as u64 % 5) + u64::from(u < v)
    }

    fn assert_scratches_equal<C: PathCost>(
        g: &Graph,
        batch: &SearchScratch<C>,
        single: &SearchScratch<C>,
        ctx: &str,
    ) {
        for v in g.vertices() {
            assert_eq!(batch.cost(v), single.cost(v), "{ctx}: cost({v})");
            assert_eq!(batch.hops(v), single.hops(v), "{ctx}: hops({v})");
            assert_eq!(batch.parent(v), single.parent(v), "{ctx}: parent({v})");
        }
        assert_eq!(batch.ties_detected(), single.ties_detected(), "{ctx}: ties");
        assert_eq!(batch.reachable_count(), single.reachable_count(), "{ctx}: reached");
    }

    #[test]
    fn dijkstra_batch_matches_single_queries() {
        let g = generators::grid(4, 4);
        let fault_sets = mixed_fault_sets(&g);
        let sources: Vec<Vertex> = vec![0, 5, 15];
        let cost = |e: EdgeId, u: Vertex, v: Vertex| 1_000u64 + (e as u64 % 7) + u64::from(u < v);
        let mut batch = BatchScratch::<u64>::new();
        let mut single = SearchScratch::<u64>::new();
        dijkstra_batch(&g, &sources, &fault_sets, cost, &mut batch, |si, fi, result| {
            dijkstra_into(&g, sources[si], &fault_sets[fi], cost, &mut single);
            assert_scratches_equal(&g, result, &single, &format!("dij s{si} f{fi}"));
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn dijkstra_batch_detects_ties_like_single_queries() {
        // Uniform costs on a tie-rich grid: both engines must flag ties
        // identically for every fault set.
        let g = generators::grid(3, 3);
        let fault_sets = mixed_fault_sets(&g);
        let mut batch = BatchScratch::<u64>::new();
        let mut single = SearchScratch::<u64>::new();
        dijkstra_batch(
            &g,
            &[0, 4],
            &fault_sets,
            |_, _, _| 10u64,
            &mut batch,
            |si, fi, result| {
                dijkstra_into(&g, [0, 4][si], &fault_sets[fi], |_, _, _| 10u64, &mut single);
                assert_eq!(result.ties_detected(), single.ties_detected(), "s{si} f{fi}");
                assert!(result.ties_detected(), "uniform grid costs tie everywhere");
                ControlFlow::Continue(())
            },
        );
    }

    #[test]
    fn source_incident_fault_resumes_from_scratch() {
        // Every edge at vertex 0 is examined at settle step 0, forcing the
        // k = 0 path.
        let g = generators::star(6);
        let fault_sets: Vec<FaultSet> = (0..g.m()).map(FaultSet::single).collect();
        let mut batch = BatchScratch::<u64>::new();
        let mut single = SearchScratch::<u64>::new();
        dijkstra_batch(
            &g,
            &[0],
            &fault_sets,
            |e, _, _| 5u64 + e as u64,
            &mut batch,
            |_, fi, r| {
                dijkstra_into(&g, 0, &fault_sets[fi], |e, _, _| 5u64 + e as u64, &mut single);
                assert_scratches_equal(&g, r, &single, &format!("star f{fi}"));
                assert_eq!(r.cost(fi + 1), None, "cut leaf is unreachable");
                ControlFlow::Continue(())
            },
        );
    }

    #[test]
    fn disconnecting_faults_are_exact() {
        let g = generators::path_graph(8);
        let fault_sets = mixed_fault_sets(&g);
        let mut batch = BatchScratch::<u64>::new();
        let mut single = SearchScratch::<u64>::new();
        dijkstra_batch(&g, &[0, 3, 7], &fault_sets, cost, &mut batch, |si, fi, result| {
            dijkstra_into(&g, [0, 3, 7][si], &fault_sets[fi], cost, &mut single);
            assert_scratches_equal(&g, result, &single, &format!("path s{si} f{fi}"));
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn directed_costs_batch_matches() {
        let g = generators::grid(4, 3);
        let fwd: Vec<u128> = (0..g.m()).map(|e| 10_000 + e as u128).collect();
        let bwd: Vec<u128> = fwd.iter().map(|f| 20_000 - f).collect();
        let fault_sets = mixed_fault_sets(&g);
        let mut batch = BatchScratch::<u128>::new();
        let mut single = SearchScratch::<u128>::new();
        let sources: Vec<Vertex> = g.vertices().collect();
        dijkstra_batch(
            &g,
            &sources,
            &fault_sets,
            DirectedCosts::new(&fwd, &bwd),
            &mut batch,
            |si, fi, result| {
                dijkstra_into(
                    &g,
                    sources[si],
                    &fault_sets[fi],
                    DirectedCosts::new(&fwd, &bwd),
                    &mut single,
                );
                assert_scratches_equal(&g, result, &single, &format!("dc s{si} f{fi}"));
                ControlFlow::Continue(())
            },
        );
    }

    #[test]
    fn parallel_matches_sequential_for_all_worker_counts() {
        // One batch scratch per worker, one source per job: every worker
        // count reproduces the sequential batch over all sources.
        let g = generators::grid(4, 4);
        let fault_sets = mixed_fault_sets(&g);
        let sources: Vec<Vertex> = g.vertices().collect();
        let cost = |e: EdgeId, _: Vertex, _: Vertex| 100u64 + e as u64;
        let cell = |r: &SearchScratch<u64>| (r.cost(15).copied(), r.hops(15), r.ties_detected());
        let mut sequential = vec![Vec::new(); sources.len()];
        dijkstra_batch(&g, &sources, &fault_sets, cost, &mut BatchScratch::new(), |si, _, r| {
            sequential[si].push(cell(r));
            ControlFlow::Continue(())
        });
        for workers in [1, 2, 8] {
            let par = parallel_indexed(
                sources.len(),
                workers,
                |_| BatchScratch::<u64>::with_capacity(g.n()),
                |batch, i| {
                    let mut row = Vec::with_capacity(fault_sets.len());
                    dijkstra_batch(&g, &sources[i..=i], &fault_sets, cost, batch, |_, _, r| {
                        row.push(cell(r));
                        ControlFlow::Continue(())
                    });
                    row
                },
            );
            assert_eq!(par, sequential, "workers = {workers}");
        }
    }

    #[test]
    fn batch_scratch_survives_graph_switches() {
        let mut batch = BatchScratch::<u64>::new();
        for g in [generators::grid(5, 5), generators::cycle(4), generators::complete(7)] {
            let fault_sets = mixed_fault_sets(&g);
            let mut single = SearchScratch::<u64>::new();
            dijkstra_batch(&g, &[0], &fault_sets, cost, &mut batch, |_, fi, result| {
                dijkstra_into(&g, 0, &fault_sets[fi], cost, &mut single);
                assert_scratches_equal(&g, result, &single, &format!("switch f{fi}"));
                ControlFlow::Continue(())
            });
        }
    }

    #[test]
    fn break_stops_the_batch() {
        let g = generators::grid(3, 3);
        let fault_sets = mixed_fault_sets(&g);
        let mut batch = BatchScratch::<u64>::new();
        let mut seen = 0usize;
        dijkstra_batch(&g, &[0, 4], &fault_sets, cost, &mut batch, |si, fi, _| {
            seen += 1;
            if (si, fi) == (0, 2) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 3, "queries after the break must never run");
        assert_eq!(batch.stats().queries, 3);
    }

    #[test]
    fn checkpoint_modes_agree_with_each_other_and_single_queries() {
        // 16×4 grid (n = 64): depths 8, 16, 32, 48 all capture. One batch
        // answers queries by every route — the baseline outright, a
        // restored checkpoint, a replay from step 0 (divergence before the
        // first checkpoint), and a full search (source-incident fault) —
        // and every route must produce the single-query engine's result.
        let g = generators::grid(16, 4);
        let fault_sets = mixed_fault_sets(&g);
        let sources: Vec<Vertex> = vec![0, 31, 63];
        let mut single = SearchScratch::<u64>::new();
        let mut batch = BatchScratch::<u64>::new();
        dijkstra_batch(&g, &sources, &fault_sets, cost, &mut batch, |si, fi, result| {
            dijkstra_into(&g, sources[si], &fault_sets[fi], cost, &mut single);
            assert_scratches_equal(&g, result, &single, &format!("s{si} f{fi}"));
            ControlFlow::Continue(())
        });
        let stats = batch.stats();
        assert_eq!(stats.queries, sources.len() * fault_sets.len());
        assert_eq!(
            stats.queries,
            stats.baseline_answered
                + stats.checkpoint_resumed
                + stats.prefix_resumed
                + stats.full_searches,
            "every query is counted exactly once"
        );
        assert_eq!(stats.checkpoints_captured, 4 * sources.len());
        assert!(stats.baseline_answered > 0, "the empty set is answered by the baseline");
        assert!(stats.checkpoint_resumed > 0, "deep faults restore checkpoints");
        assert!(stats.prefix_resumed > 0, "shallow faults replay from step 0");
        assert!(stats.full_searches > 0, "source-incident faults search from scratch");
        assert!(stats.replayed_relaxations > 0);
    }

    #[test]
    fn bigint_checkpoints_restore_on_small_graphs() {
        use rsp_arith::BigInt;
        let g = generators::grid(6, 6);
        let fwd: Vec<BigInt> =
            (0..g.m()).map(|e| BigInt::pow2(70) + BigInt::from(e as i64)).collect();
        let bwd: Vec<BigInt> =
            fwd.iter().map(|f| (BigInt::pow2(71) + BigInt::pow2(71)) - f.clone()).collect();
        let fault_sets = mixed_fault_sets(&g);
        let mut single = SearchScratch::<BigInt>::new();

        // A 36-vertex BigInt workload: checkpoints snapshot and restore
        // heavyweight costs too, byte-identical to single queries.
        let mut batch = BatchScratch::<BigInt>::new();
        dijkstra_batch(
            &g,
            &[0],
            &fault_sets,
            DirectedCosts::new(&fwd, &bwd),
            &mut batch,
            |_, fi, result| {
                dijkstra_into(&g, 0, &fault_sets[fi], DirectedCosts::new(&fwd, &bwd), &mut single);
                assert_scratches_equal(&g, result, &single, &format!("f{fi}"));
                ControlFlow::Continue(())
            },
        );
        assert!(batch.stats().checkpoints_captured > 0);
        assert!(batch.stats().checkpoint_resumed > 0);
    }

    #[test]
    fn stats_count_queries_and_reset() {
        let g = generators::grid(4, 4);
        let fault_sets = mixed_fault_sets(&g);
        let mut batch = BatchScratch::<u64>::new();
        dijkstra_batch(&g, &[0, 15], &fault_sets, cost, &mut batch, |_, _, _| {
            ControlFlow::Continue(())
        });
        let stats = batch.stats().clone();
        assert_eq!(stats.queries, 2 * fault_sets.len());
        assert_eq!(
            stats.queries,
            stats.baseline_answered
                + stats.checkpoint_resumed
                + stats.prefix_resumed
                + stats.full_searches
        );
        assert_eq!(stats.checkpoints_captured, 2 * 2, "n = 16: depths 8 and 12, per source");
        assert_eq!(stats.reused(), stats.queries - stats.full_searches);
        assert!(!format!("{stats}").is_empty());

        batch.reset_stats();
        assert_eq!(batch.stats(), &BatchStats::default());
    }

    #[test]
    fn checkpoints_survive_source_and_graph_switches() {
        // Checkpoints captured for one source must never leak into the
        // next source's (or next graph's) resumes.
        let mut batch = BatchScratch::<u64>::new();
        let mut single = SearchScratch::<u64>::new();
        for g in [generators::grid(8, 8), generators::cycle(40), generators::grid(3, 3)] {
            let fault_sets = mixed_fault_sets(&g);
            let sources: Vec<Vertex> = vec![0, g.n() - 1];
            let cost = |e: EdgeId, _: Vertex, _: Vertex| 90u64 + e as u64 % 11;
            dijkstra_batch(&g, &sources, &fault_sets, cost, &mut batch, |si, fi, result| {
                dijkstra_into(&g, sources[si], &fault_sets[fi], cost, &mut single);
                assert_scratches_equal(&g, result, &single, &format!("switch s{si} f{fi}"));
                ControlFlow::Continue(())
            });
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let g = generators::cycle(4);
        let mut batch = BatchScratch::<u64>::new();
        let mut calls = 0;
        let mut count = |_: usize, _: usize, _: &SearchScratch<u64>| {
            calls += 1;
            ControlFlow::Continue(())
        };
        dijkstra_batch(&g, &[], &[FaultSet::empty()], cost, &mut batch, &mut count);
        dijkstra_batch(&g, &[0], &[], cost, &mut batch, &mut count);
        assert_eq!(calls, 0);
        assert_eq!(batch.stats().queries, 0);
    }
}

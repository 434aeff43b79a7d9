//! Preserver construction by replacement-path overlay (Theorems 26 and 31).
//!
//! The `O(n^f)` stability-driven fault-set enumeration behind
//! [`ft_bfs_structure`] runs either sequentially (one explicit stack) or
//! on the work-stealing frontier executor
//! ([`rsp_graph::parallel_frontier`]): enumeration items are
//! `(source, fault set)` pairs, newly discovered fault sets are
//! deduplicated through a sharded concurrent visited set
//! ([`rsp_graph::ShardedSet`]) and pushed onto the shared frontier, and
//! each worker runs its tree queries against a private
//! [`rsp_core::RptsScratch`]. Results are identical for every worker
//! count; [`EnumerationStats`] reports the enumerated / deduplicated /
//! stolen counts. See `docs/ARCHITECTURE.md` (repo root) for the
//! pipeline-level story.

use std::collections::HashSet;
use std::fmt;
use std::ops::ControlFlow;

use rsp_core::{Rpts, RptsScratch};
use rsp_graph::{parallel_frontier, EdgeId, FaultSet, Graph, ShardedSet, Vertex};

/// A preserver: a subset of `G`'s edges, plus build statistics.
///
/// The subgraph view is materialized on demand by [`Preserver::subgraph`];
/// edge ids refer to the *original* graph throughout.
#[derive(Clone, Debug)]
pub struct Preserver {
    n: usize,
    edges: Vec<EdgeId>,
    trees_computed: usize,
}

impl Preserver {
    fn new(n: usize, edges: HashSet<EdgeId>, trees_computed: usize) -> Self {
        let mut edges: Vec<EdgeId> = edges.into_iter().collect();
        edges.sort_unstable();
        Preserver { n, edges, trees_computed }
    }

    /// Number of edges in the preserver — the size objective all of
    /// Section 4.1's bounds are about.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The preserver's edge ids (in the original graph), sorted.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Returns `true` iff edge `e` of the original graph is kept.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges.binary_search(&e).is_ok()
    }

    /// Materializes the preserver as a standalone graph over the same
    /// vertex set (edge ids are renumbered; use [`Preserver::edges`] for
    /// original ids).
    pub fn subgraph(&self, g: &Graph) -> Graph {
        assert_eq!(g.n(), self.n, "preserver belongs to a different graph");
        g.edge_subgraph(self.edges.iter().copied())
    }

    /// Number of shortest-path trees computed during the build (a proxy
    /// for construction cost; the fault-set enumeration is exponential in
    /// `f`, as the paper notes the naive runtime is `n^{O(f)}`).
    pub fn trees_computed(&self) -> usize {
        self.trees_computed
    }
}

/// Overlays the selected replacement paths `π(s, t | F)` for an explicit
/// collection of `(source, fault set)` queries, keeping every tree edge.
///
/// This is the raw primitive behind all preserver constructions; it is
/// public because the lower-bound experiment needs overlay over a
/// *specific* fault-set family rather than all `|F| ≤ f`.
///
/// For each `(s, F)` pair the full selected tree is overlaid (every tree
/// edge lies on `π(s, v | F)` for some `v`, and conversely).
///
/// Queries are grouped by source and issued through the batched
/// [`Rpts::for_each_tree`] engine, so fault sets sharing a source also
/// share its fault-free tree, each repaired from it by the repair kernel
/// (the overlay is a set union — query order cannot affect the result).
pub fn overlay_paths<S: Rpts>(
    scheme: &S,
    queries: impl IntoIterator<Item = (Vertex, FaultSet)>,
) -> Preserver {
    let mut edges = HashSet::new();
    let mut trees = 0;
    let mut scratch = scheme.new_scratch();
    // Group by source, preserving first-appearance order of sources.
    let mut order: Vec<Vertex> = Vec::new();
    let mut by_source: Vec<Vec<FaultSet>> = Vec::new();
    for (s, faults) in queries {
        match order.iter().position(|&v| v == s) {
            Some(i) => by_source[i].push(faults),
            None => {
                order.push(s);
                by_source.push(vec![faults]);
            }
        }
    }
    for (i, &s) in order.iter().enumerate() {
        scheme.for_each_tree(&[s], &by_source[i], &mut scratch, &mut |_, _, tree| {
            trees += 1;
            edges.extend(tree.tree_edges());
            ControlFlow::Continue(())
        });
    }
    Preserver::new(scheme.graph().n(), edges, trees)
}

/// Execution counters from one frontier-driven enumeration
/// ([`ft_bfs_structure_frontier`] / [`ft_sv_preserver_frontier`]).
///
/// The defining invariant — each relevant fault set is visited **exactly
/// once** — is observable as `enumerated == deduped`: every item admitted
/// past the visited set was expanded, and nothing was expanded twice (the
/// property suite in `tests/frontier_properties.rs` asserts this under
/// deliberately contended worker counts).
///
/// # Examples
///
/// ```
/// use rsp_core::RandomGridAtw;
/// use rsp_preserver::ft_bfs_structure_frontier;
/// use rsp_graph::generators;
///
/// let g = generators::petersen();
/// let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
/// let (p, stats) = ft_bfs_structure_frontier(&scheme, 0, 2, 4);
/// assert_eq!(stats.enumerated, stats.deduped, "each fault set visited once");
/// assert_eq!(stats.enumerated, p.trees_computed());
/// assert!(stats.duplicates > 0, "{{e, e'}} is discovered in both edge orders");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumerationStats {
    /// `(source, fault set)` items expanded (trees computed).
    pub enumerated: usize,
    /// Items admitted by the concurrent visited set (first discovery).
    pub deduped: usize,
    /// Discoveries rejected as already visited or in flight — the same
    /// fault set reached along a different tree-edge path.
    pub duplicates: usize,
    /// Items a worker claimed from another worker's deque
    /// (work-stealing events; 0 on the single-worker inline path).
    pub stolen: usize,
}

impl fmt::Display for EnumerationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault sets enumerated ({} admitted, {} duplicate discoveries), {} stolen",
            self.enumerated, self.deduped, self.duplicates, self.stolen
        )
    }
}

/// Per-worker accumulator for the frontier-driven builds: one scheme
/// scratch (never crosses threads), the worker's share of the overlay,
/// and its execution counters.
struct OverlayWorker {
    scratch: RptsScratch,
    edges: HashSet<EdgeId>,
    trees: usize,
    duplicates: usize,
}

impl OverlayWorker {
    fn new<S: Rpts + ?Sized>(scheme: &S) -> Self {
        OverlayWorker {
            scratch: scheme.new_scratch(),
            edges: HashSet::new(),
            trees: 0,
            duplicates: 0,
        }
    }
}

/// The shared frontier engine: expands every seed `(s, F)` — and, below
/// depth `f`, every `(s, F ∪ {e})` for tree edges `e` of the selected
/// tree, deduplicated through `visited` — across `workers` work-stealing
/// workers, overlaying every computed tree.
///
/// The result is a pure function of the *set* of items expanded (a union
/// of tree edges plus commutative counters), and the expanded set is the
/// closure of the seeds under a deterministic growth rule, so the outcome
/// is identical for every worker count and schedule.
fn overlay_frontier<S: Rpts + Sync>(
    scheme: &S,
    seeds: Vec<(Vertex, FaultSet)>,
    f: usize,
    workers: usize,
) -> (Preserver, EnumerationStats) {
    let visited: ShardedSet<(Vertex, FaultSet)> = ShardedSet::new(workers);
    let mut seed_duplicates = 0usize;
    let seeds: Vec<(Vertex, FaultSet)> = seeds
        .into_iter()
        .filter(|(s, faults)| {
            let fresh = visited.insert((*s, faults.clone()));
            seed_duplicates += usize::from(!fresh);
            fresh
        })
        .collect();
    let (folds, fstats) = parallel_frontier(
        seeds,
        workers,
        |_| OverlayWorker::new(scheme),
        |worker, (s, faults), push| {
            let tree = scheme.tree_from_with(s, &faults, &mut worker.scratch);
            worker.trees += 1;
            let expand = faults.len() < f;
            for e in tree.tree_edges() {
                worker.edges.insert(e);
                if expand {
                    let child = faults.with(e);
                    if visited.insert((s, child.clone())) {
                        push((s, child));
                    } else {
                        worker.duplicates += 1;
                    }
                }
            }
        },
        |worker| (worker.edges, worker.trees, worker.duplicates),
    );
    let mut edges = HashSet::new();
    let mut trees = 0usize;
    let mut duplicates = seed_duplicates;
    for (worker_edges, worker_trees, worker_duplicates) in folds {
        edges.extend(worker_edges);
        trees += worker_trees;
        duplicates += worker_duplicates;
    }
    let stats = EnumerationStats {
        enumerated: trees,
        deduped: visited.len(),
        duplicates,
        stolen: fstats.stolen,
    };
    (Preserver::new(scheme.graph().n(), edges, trees), stats)
}

/// [`overlay_paths`] with queries fanned out over the work-stealing
/// worker pool (one scheme scratch per worker, dynamic claiming — tree
/// query costs vary with the fault set's distance from the source).
///
/// The overlay is a set union, so the result is identical to the
/// sequential form for every worker count.
///
/// # Examples
///
/// ```
/// use rsp_core::RandomGridAtw;
/// use rsp_preserver::{overlay_paths, overlay_paths_par};
/// use rsp_graph::{generators, FaultSet};
///
/// let g = generators::grid(3, 3);
/// let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
/// let queries: Vec<_> = (0..g.m()).map(|e| (0, FaultSet::single(e))).collect();
/// let par = overlay_paths_par(&scheme, queries.iter().cloned(), 4);
/// let seq = overlay_paths(&scheme, queries);
/// assert_eq!(par.edges(), seq.edges());
/// ```
pub fn overlay_paths_par<S: Rpts + Sync>(
    scheme: &S,
    queries: impl IntoIterator<Item = (Vertex, FaultSet)>,
    workers: usize,
) -> Preserver {
    let queries: Vec<(Vertex, FaultSet)> = queries.into_iter().collect();
    let (folds, _) = parallel_frontier(
        queries,
        workers,
        |_| OverlayWorker::new(scheme),
        |worker, (s, faults), _push| {
            // A fixed query list — an overlay counts every query's tree
            // (duplicates included, matching `overlay_paths`), so there
            // is no dedup and the frontier never grows.
            worker
                .edges
                .extend(scheme.tree_from_with(s, &faults, &mut worker.scratch).tree_edges());
            worker.trees += 1;
        },
        |worker| (worker.edges, worker.trees),
    );
    let mut edges = HashSet::new();
    let mut trees = 0usize;
    for (worker_edges, worker_trees) in folds {
        edges.extend(worker_edges);
        trees += worker_trees;
    }
    Preserver::new(scheme.graph().n(), edges, trees)
}

/// The `f`-FT `{s} × V` preserver (FT-BFS structure) by overlay of all
/// replacement paths under `≤ f` faults (Theorem 26 with `|S| = 1`).
///
/// Relevant fault sets are enumerated via stability: starting from `∅`,
/// a fault set only ever grows by an edge of the *current* selected tree.
/// Any `π(s, v | F)` with arbitrary `|F| ≤ f` equals `π(s, v | R)` for
/// some enumerated `R ⊆ F` (repeatedly discard faults off the selected
/// path), so the overlay is a true preserver — `O(n^f)` trees in the
/// worst case, as the paper notes.
pub fn ft_bfs_structure<S: Rpts>(scheme: &S, s: Vertex, f: usize) -> Preserver {
    ft_bfs_structure_with(scheme, s, f, &mut scheme.new_scratch())
}

/// [`ft_bfs_structure`] reusing scheme search state across its `O(n^f)`
/// tree queries (and across calls — [`ft_sv_preserver`] passes one scratch
/// through every source).
pub fn ft_bfs_structure_with<S: Rpts>(
    scheme: &S,
    s: Vertex,
    f: usize,
    scratch: &mut rsp_core::RptsScratch,
) -> Preserver {
    let mut edges = HashSet::new();
    let mut visited: HashSet<FaultSet> = HashSet::new();
    let mut stack = vec![FaultSet::empty()];
    let mut trees = 0;
    while let Some(faults) = stack.pop() {
        if !visited.insert(faults.clone()) {
            continue;
        }
        let tree = scheme.tree_from_with(s, &faults, scratch);
        trees += 1;
        let tree_edges: Vec<EdgeId> = tree.tree_edges().collect();
        edges.extend(tree_edges.iter().copied());
        if faults.len() < f {
            for &e in &tree_edges {
                stack.push(faults.with(e));
            }
        }
    }
    Preserver::new(scheme.graph().n(), edges, trees)
}

/// [`ft_bfs_structure`] with the fault-set enumeration itself run on the
/// work-stealing frontier ([`rsp_graph::parallel_frontier`]) — the
/// parallel axis *inside* one source, where the sequential build spends
/// `O(n^f)` tree queries.
///
/// Newly discovered fault sets are admitted through a sharded concurrent
/// visited set and pushed onto the shared frontier; idle workers steal
/// them and run tree queries against private scheme scratches. The set of
/// fault sets expanded is the closure of `{∅}` under "grow by an edge of
/// the current selected tree", which is worker-count- and
/// schedule-independent, so the preserver (and its tree count) is
/// identical to the sequential build's. Returns the preserver plus
/// [`EnumerationStats`] (`enumerated == deduped` certifies exactly-once
/// expansion).
pub fn ft_bfs_structure_frontier<S: Rpts + Sync>(
    scheme: &S,
    s: Vertex,
    f: usize,
    workers: usize,
) -> (Preserver, EnumerationStats) {
    overlay_frontier(scheme, vec![(s, FaultSet::empty())], f, workers)
}

/// The `f`-FT `S × V` preserver of Theorem 26: the union of per-source
/// FT-BFS structures. Size `O(n^{2−1/2^f} |S|^{1/2^f})` when the scheme is
/// consistent and stable.
pub fn ft_sv_preserver<S: Rpts>(scheme: &S, sources: &[Vertex], f: usize) -> Preserver {
    let mut edges = HashSet::new();
    let mut trees = 0;
    let mut scratch = scheme.new_scratch();
    for &s in sources {
        let p = ft_bfs_structure_with(scheme, s, f, &mut scratch);
        trees += p.trees_computed();
        edges.extend(p.edges().iter().copied());
    }
    Preserver::new(scheme.graph().n(), edges, trees)
}

/// [`ft_sv_preserver`] on the work-stealing frontier, composing **both**
/// parallel axes of Theorem 26 under one worker budget: the seed items
/// `(s, ∅)` fan the enumeration out over sources, and every fault set a
/// tree discovers joins the same shared frontier — so a lone
/// heavy-enumeration source (tree counts differ by orders of magnitude
/// between sources) is carved up by work stealing instead of serializing
/// the tail, and `|S| < workers` no longer idles the surplus workers.
///
/// The preserver is a set union over a worker-count-independent item
/// closure, so the result is identical to the sequential form for every
/// worker count. Returns the enumeration stats alongside.
///
/// One deliberate divergence from [`ft_sv_preserver`]: **duplicate
/// sources collapse**. The seed dedup admits each distinct `(s, ∅)`
/// once, so a repeated source contributes its trees once, where the
/// sequential loop re-enumerates it per occurrence (a fresh visited set
/// per call). The edge set is unaffected — only
/// [`Preserver::trees_computed`] (and the stats) differ, and only on
/// degenerate inputs with repeated sources.
pub fn ft_sv_preserver_frontier<S: Rpts + Sync>(
    scheme: &S,
    sources: &[Vertex],
    f: usize,
    workers: usize,
) -> (Preserver, EnumerationStats) {
    let seeds = sources.iter().map(|&s| (s, FaultSet::empty())).collect();
    overlay_frontier(scheme, seeds, f, workers)
}

/// [`ft_sv_preserver`] with the FT-BFS builds fanned out over a worker
/// pool — [`ft_sv_preserver_frontier`] minus the stats return.
///
/// Both the per-source axis and the fault-set enumeration *inside* each
/// source run on the shared work-stealing frontier (before PR 5 only
/// sources were parallel; a single-source `f ≥ 2` build serialized). The
/// preserver is identical to the sequential form for every worker count
/// — with distinct sources, tree counts included; repeated sources
/// collapse to one enumeration each (see
/// [`ft_sv_preserver_frontier`]), which the sequential build instead
/// re-enumerates, so only `trees_computed` can differ and only on that
/// degenerate input.
///
/// # Examples
///
/// ```
/// use rsp_core::RandomGridAtw;
/// use rsp_preserver::{ft_sv_preserver, ft_sv_preserver_par};
/// use rsp_graph::generators;
///
/// let g = generators::grid(3, 4);
/// let scheme = RandomGridAtw::theorem20(&g, 9).into_scheme();
/// let par = ft_sv_preserver_par(&scheme, &[0, 11], 1, 4);
/// let seq = ft_sv_preserver(&scheme, &[0, 11], 1);
/// assert_eq!(par.edges(), seq.edges());
/// assert_eq!(par.trees_computed(), seq.trees_computed());
/// ```
pub fn ft_sv_preserver_par<S: Rpts + Sync>(
    scheme: &S,
    sources: &[Vertex],
    f: usize,
    workers: usize,
) -> Preserver {
    ft_sv_preserver_frontier(scheme, sources, f, workers).0
}

/// The `f_total`-FT `S × S` preserver of Theorem 31, built as an
/// `(f_total − 1)`-FT `S × V` preserver under a restorable scheme.
///
/// Restorability supplies the extra fault: for `|F| ≤ f_total` there are
/// `x` and `F′ ⊊ F` with `π(s, x | F′) ∪ π(t, x | F′)` a replacement
/// path, and both halves are already overlaid (|F′| ≤ f_total − 1).
///
/// # Panics
///
/// Panics if `f_total == 0` (a 0-FT preserver is just the union of SPTs;
/// use [`ft_sv_preserver`] with `f = 0`).
pub fn ft_subset_preserver<S: Rpts>(scheme: &S, sources: &[Vertex], f_total: usize) -> Preserver {
    assert!(f_total >= 1, "subset preservers tolerate at least one fault");
    ft_sv_preserver(scheme, sources, f_total - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_preserver, PairSet};
    use rsp_core::{verify::all_fault_sets, RandomGridAtw};
    use rsp_graph::generators;

    #[test]
    fn zero_fault_structure_is_a_tree() {
        let g = generators::connected_gnm(20, 45, 1);
        let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
        let p = ft_bfs_structure(&scheme, 0, 0);
        assert_eq!(p.edge_count(), g.n() - 1, "one SPT = spanning tree");
        assert_eq!(p.trees_computed(), 1);
    }

    #[test]
    fn one_fault_structure_preserves_sv_distances() {
        let g = generators::connected_gnm(16, 34, 2);
        let scheme = RandomGridAtw::theorem20(&g, 2).into_scheme();
        let p = ft_bfs_structure(&scheme, 0, 1);
        let singles = all_fault_sets(g.m(), 1);
        verify_preserver(&g, &p, &PairSet::sourcewise(vec![0], g.n()), &singles).unwrap();
    }

    #[test]
    fn two_fault_structure_preserves_sv_distances() {
        let g = generators::connected_gnm(12, 22, 3);
        let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
        let p = ft_bfs_structure(&scheme, 0, 2);
        let doubles = all_fault_sets(g.m(), 2);
        verify_preserver(&g, &p, &PairSet::sourcewise(vec![0], g.n()), &doubles).unwrap();
    }

    #[test]
    fn subset_preserver_one_fault_is_union_of_trees() {
        let g = generators::connected_gnm(25, 60, 4);
        let scheme = RandomGridAtw::theorem20(&g, 4).into_scheme();
        let sources = vec![0, 5, 10];
        let p = ft_subset_preserver(&scheme, &sources, 1);
        assert!(p.edge_count() <= sources.len() * (g.n() - 1), "|S| SPTs");
        let singles = all_fault_sets(g.m(), 1);
        verify_preserver(&g, &p, &PairSet::subset(sources), &singles).unwrap();
    }

    #[test]
    fn subset_preserver_two_faults() {
        // Theorem 31 with f_total = 2: overlay of 1-FT {s}×V preservers
        // must preserve S×S distances under any TWO faults.
        let g = generators::connected_gnm(12, 24, 5);
        let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
        let sources = vec![0, 4, 8];
        let p = ft_subset_preserver(&scheme, &sources, 2);
        let doubles = all_fault_sets(g.m(), 2);
        verify_preserver(&g, &p, &PairSet::subset(sources), &doubles).unwrap();
    }

    #[test]
    fn overlay_paths_counts_trees() {
        let g = generators::cycle(6);
        let scheme = RandomGridAtw::theorem20(&g, 6).into_scheme();
        let p = overlay_paths(
            &scheme,
            [(0, FaultSet::empty()), (0, FaultSet::single(0)), (3, FaultSet::empty())],
        );
        assert_eq!(p.trees_computed(), 3);
        assert!(p.edge_count() >= g.n() - 1);
    }

    #[test]
    fn parallel_preserver_matches_sequential() {
        let g = generators::connected_gnm(18, 40, 6);
        let scheme = RandomGridAtw::theorem20(&g, 6).into_scheme();
        let sources = vec![0, 4, 9, 13, 17];
        let seq = ft_sv_preserver(&scheme, &sources, 1);
        for workers in [1, 2, 8] {
            let par = ft_sv_preserver_par(&scheme, &sources, 1, workers);
            assert_eq!(par.edges(), seq.edges(), "workers={workers}");
            assert_eq!(par.trees_computed(), seq.trees_computed(), "workers={workers}");
        }
    }

    #[test]
    fn frontier_single_source_matches_sequential_up_to_f2() {
        let g = generators::connected_gnm(14, 30, 11);
        let scheme = RandomGridAtw::theorem20(&g, 11).into_scheme();
        for f in [0usize, 1, 2] {
            let seq = ft_bfs_structure(&scheme, 3, f);
            for workers in [1, 2, 8] {
                let (par, stats) = ft_bfs_structure_frontier(&scheme, 3, f, workers);
                assert_eq!(par.edges(), seq.edges(), "f={f} workers={workers}");
                assert_eq!(par.trees_computed(), seq.trees_computed(), "f={f} workers={workers}");
                assert_eq!(stats.enumerated, stats.deduped, "f={f} workers={workers}: once each");
                assert_eq!(stats.enumerated, seq.trees_computed(), "f={f} workers={workers}");
            }
        }
    }

    #[test]
    fn frontier_stats_account_for_every_discovery() {
        // f = 2 on a dense-ish graph: plenty of duplicate discoveries
        // (the same {e1, e2} is reached via both orders), so the stats
        // must reconcile: admissions + rejections = total discoveries,
        // and every admission is expanded exactly once.
        let g = generators::connected_gnm(12, 26, 13);
        let scheme = RandomGridAtw::theorem20(&g, 13).into_scheme();
        let (p, stats) = ft_bfs_structure_frontier(&scheme, 0, 2, 4);
        assert_eq!(stats.enumerated, stats.deduped);
        assert_eq!(stats.enumerated, p.trees_computed());
        assert!(stats.duplicates > 0, "two-fault sets are discovered in both edge orders");
        assert!(!format!("{stats}").is_empty());
    }

    #[test]
    fn frontier_multi_source_shares_one_budget() {
        let g = generators::connected_gnm(16, 34, 15);
        let scheme = RandomGridAtw::theorem20(&g, 15).into_scheme();
        let sources = vec![0, 7, 15];
        let seq = ft_sv_preserver(&scheme, &sources, 2);
        for workers in [1, 2, 8] {
            let (par, stats) = ft_sv_preserver_frontier(&scheme, &sources, 2, workers);
            assert_eq!(par.edges(), seq.edges(), "workers={workers}");
            assert_eq!(par.trees_computed(), seq.trees_computed(), "workers={workers}");
            assert_eq!(stats.enumerated, stats.deduped, "workers={workers}");
        }
        // Duplicate sources collapse: the seed dedup admits each once.
        let (dup, dup_stats) = ft_sv_preserver_frontier(&scheme, &[0, 0, 7], 1, 2);
        let (uniq, uniq_stats) = ft_sv_preserver_frontier(&scheme, &[0, 7], 1, 2);
        assert_eq!(dup.edges(), uniq.edges());
        assert_eq!(dup_stats.enumerated, uniq_stats.enumerated);
        assert_eq!(dup_stats.duplicates, uniq_stats.duplicates + 1);
    }

    #[test]
    fn parallel_overlay_matches_sequential() {
        let g = generators::petersen();
        let scheme = RandomGridAtw::theorem20(&g, 2).into_scheme();
        let queries: Vec<(Vertex, FaultSet)> = (0..g.n())
            .flat_map(|s| (0..4).map(move |e| (s, FaultSet::single(e))))
            .chain([(0, FaultSet::empty()), (3, FaultSet::from_edges([1, 8]))])
            .collect();
        let seq = overlay_paths(&scheme, queries.iter().cloned());
        for workers in [1, 2, 8] {
            let par = overlay_paths_par(&scheme, queries.iter().cloned(), workers);
            assert_eq!(par.edges(), seq.edges(), "workers={workers}");
            assert_eq!(par.trees_computed(), seq.trees_computed(), "workers={workers}");
        }
    }

    #[test]
    fn preserver_edges_are_sorted_and_queryable() {
        let g = generators::petersen();
        let scheme = RandomGridAtw::theorem20(&g, 8).into_scheme();
        let p = ft_bfs_structure(&scheme, 0, 1);
        let edges = p.edges();
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        for &e in edges {
            assert!(p.contains(e));
        }
        assert!(p.edge_count() < g.m(), "preserver should be sparser than G");
    }

    #[test]
    fn subgraph_roundtrip() {
        let g = generators::grid(3, 4);
        let scheme = RandomGridAtw::theorem20(&g, 9).into_scheme();
        let p = ft_bfs_structure(&scheme, 0, 1);
        let h = p.subgraph(&g);
        assert_eq!(h.n(), g.n());
        assert_eq!(h.m(), p.edge_count());
    }

    #[test]
    fn deeper_f_means_more_edges() {
        let g = generators::connected_gnm(14, 40, 7);
        let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
        let p0 = ft_bfs_structure(&scheme, 0, 0).edge_count();
        let p1 = ft_bfs_structure(&scheme, 0, 1).edge_count();
        let p2 = ft_bfs_structure(&scheme, 0, 2).edge_count();
        assert!(p0 <= p1 && p1 <= p2);
        assert!(p1 > p0, "one fault must add replacement paths on this graph");
    }
}

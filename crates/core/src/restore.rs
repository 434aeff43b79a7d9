//! Restoration by concatenation: rebuilding replacement paths from stored
//! selected paths, the operation the restoration lemma is about.
//!
//! Given a scheme `π` and a fault set `F`, a replacement `s ⇝ t` path is
//! sought of the form `π(s, x | F′) ∘ reverse(π(t, x | F′))` for some
//! midpoint `x` and proper fault subset `F′ ⊊ F` (Definition 17). For an
//! `f`-restorable scheme this *always* succeeds; for an arbitrary scheme it
//! can fail — that gap is the paper's subject, quantified by
//! [`restoration_stats`] (experiment E1).

use std::ops::ControlFlow;

use rsp_graph::{bfs_into, connected_pair, parallel_indexed, BfsTree, FaultSet, Path, Vertex};

use crate::scheme::{Rpts, RptsScratch};

/// Attempts to restore a shortest `s ⇝ t` replacement path avoiding `F` by
/// concatenating two selected paths (Definition 17).
///
/// Scans proper fault subsets `F′ ⊊ F` in increasing size and midpoints
/// `x`; returns the first concatenation `π(s, x | F′) ∘ reverse(π(t, x |
/// F′))` that avoids all of `F` and has exactly the replacement-path
/// length `dist_{G\F}(s, t)`. Returns `None` if either no `s ⇝ t` path
/// survives in `G \ F`, or the scheme fails to be restorable on this
/// instance.
///
/// For `s == t` the trivial path is returned.
///
/// # Examples
///
/// ```
/// use rsp_core::{RandomGridAtw, restore_by_concatenation};
/// use rsp_graph::{generators, FaultSet};
///
/// let g = generators::petersen();
/// let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
/// let e = g.edge_between(0, 1).unwrap();
/// let p = restore_by_concatenation(&scheme, 0, 1, &FaultSet::single(e)).unwrap();
/// assert!(p.avoids(&g, &FaultSet::single(e)));
/// assert_eq!(p.hops(), 4); // girth-5 reroute around the failed edge
/// ```
pub fn restore_by_concatenation<S: Rpts>(
    scheme: &S,
    s: Vertex,
    t: Vertex,
    faults: &FaultSet,
) -> Option<Path> {
    let mut scratch = scheme.new_scratch();
    restore_by_concatenation_with(scheme, s, t, faults, &mut scratch)
}

/// [`restore_by_concatenation`] reusing scheme search state across calls.
///
/// Restoration sweeps (experiment E1, [`restoration_stats`], the
/// restorability verifier) issue one attempt per `(s, t, F)` instance;
/// passing one [`Rpts::new_scratch`] allocation through all of them keeps
/// the underlying tree queries allocation-free.
pub fn restore_by_concatenation_with<S: Rpts>(
    scheme: &S,
    s: Vertex,
    t: Vertex,
    faults: &FaultSet,
    scratch: &mut RptsScratch,
) -> Option<Path> {
    let g = scheme.graph();
    if s == t {
        return Some(Path::trivial(s));
    }
    if faults.is_empty() {
        // Nothing failed: the selected path is its own restoration.
        return scheme.path_with(s, t, faults, scratch);
    }
    let target_dist = {
        let truth = scratch.bfs_scratch();
        bfs_into(g, s, faults, truth);
        truth.dist(t)?
    };

    // Order proper subsets by size: stability usually makes small subsets
    // succeed, and the f = 1 case then needs only the non-faulty tables.
    let mut subsets: Vec<FaultSet> = faults.proper_subsets().collect();
    subsets.sort_by_key(|f| f.len());

    // One batched sweep: all subset trees from `s` arrive first (repaired
    // from one fault-free tree when there are several subsets — see
    // `Rpts::for_each_tree`), then the trees from `t`. As each `t` tree lands, its subset is complete, so
    // the midpoint scan runs immediately and a success breaks the sweep
    // before the remaining `t` trees are computed.
    let mut trees_s: Vec<Option<BfsTree>> = (0..subsets.len()).map(|_| None).collect();
    let mut restored: Option<Path> = None;
    scheme.for_each_tree(&[s, t], &subsets, scratch, &mut |si, fi, tree| {
        if si == 0 {
            trees_s[fi] = Some(tree);
            return ControlFlow::Continue(());
        }
        let tree_s = trees_s[fi].as_ref().expect("s trees precede t trees");
        let tree_t = &tree;
        for x in g.vertices() {
            let (Some(ps), Some(pt)) = (tree_s.path_to(x), tree_t.path_to(x)) else {
                continue;
            };
            if ps.hops() + pt.hops() != target_dist as usize {
                continue;
            }
            if !ps.avoids(g, faults) || !pt.avoids(g, faults) {
                continue;
            }
            let joined = ps.join_at(&pt).expect("both paths end at x");
            debug_assert!(joined.is_valid_in(g));
            restored = Some(joined);
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    });
    restored
}

/// The single-fault fast path: restoration using only the *non-faulty*
/// routing tables (`F′ = ∅`), the exact MPLS scenario of Section 1.
///
/// Equivalent to [`restore_by_concatenation`] with `|F| = 1`, but computes
/// the two trees once with no subset scan.
pub fn restore_single_fault<S: Rpts>(
    scheme: &S,
    s: Vertex,
    t: Vertex,
    failed_edge: rsp_graph::EdgeId,
) -> Option<Path> {
    let mut scratch = scheme.new_scratch();
    restore_single_fault_with(scheme, s, t, failed_edge, &mut scratch)
}

/// [`restore_single_fault`] reusing scheme search state across calls.
pub fn restore_single_fault_with<S: Rpts>(
    scheme: &S,
    s: Vertex,
    t: Vertex,
    failed_edge: rsp_graph::EdgeId,
    scratch: &mut RptsScratch,
) -> Option<Path> {
    let g = scheme.graph();
    let faults = FaultSet::single(failed_edge);
    if s == t {
        return Some(Path::trivial(s));
    }
    let target_dist = {
        let truth = scratch.bfs_scratch();
        bfs_into(g, s, &faults, truth);
        truth.dist(t)?
    };
    let empty = [FaultSet::empty()];
    let mut pair: [Option<BfsTree>; 2] = [None, None];
    scheme.for_each_tree(&[s, t], &empty, scratch, &mut |si, _, tree| {
        pair[si] = Some(tree);
        ControlFlow::Continue(())
    });
    let [Some(tree_s), Some(tree_t)] = pair else { unreachable!("both roots visited") };
    for x in g.vertices() {
        let (Some(ps), Some(pt)) = (tree_s.path_to(x), tree_t.path_to(x)) else {
            continue;
        };
        if ps.hops() + pt.hops() != target_dist as usize {
            continue;
        }
        if !ps.avoids(g, &faults) || !pt.avoids(g, &faults) {
            continue;
        }
        return ps.join_at(&pt);
    }
    None
}

/// Aggregate outcome of restoration attempts over many instances
/// (experiment E1: the Figure 1 phenomenon, quantified).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestorationStats {
    /// Instances where an `s ⇝ t` path survives in `G \ F`.
    pub attempted: usize,
    /// Instances restored by concatenation of selected paths.
    pub restored: usize,
    /// Instances where no midpoint/subset concatenation works.
    pub failed: usize,
    /// Failing instances, as `(s, t, fault set)`, capped at 32 entries.
    pub failures: Vec<(Vertex, Vertex, FaultSet)>,
}

impl RestorationStats {
    /// Fraction of attempted instances that could not be restored.
    pub fn failure_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Runs [`restore_by_concatenation`] over every ordered pair and every
/// single-edge fault, tallying successes and failures.
///
/// For a restorable scheme the failure count is provably zero (Theorem 19);
/// for the BFS baseline it is typically positive already on small graphs —
/// that contrast is experiment E1.
pub fn restoration_stats<S: Rpts>(scheme: &S) -> RestorationStats {
    let g = scheme.graph();
    let mut stats = RestorationStats::default();
    let mut scratch = scheme.new_scratch();
    let mut faults = FaultSet::empty();
    for (e, _, _) in g.edges() {
        faults.replace_single(e);
        for s in g.vertices() {
            for t in g.vertices() {
                if s == t || !connected_pair(g, s, t, &faults) {
                    continue;
                }
                stats.attempted += 1;
                match restore_by_concatenation_with(scheme, s, t, &faults, &mut scratch) {
                    Some(_) => stats.restored += 1,
                    None => {
                        stats.failed += 1;
                        if stats.failures.len() < 32 {
                            stats.failures.push((s, t, faults.clone()));
                        }
                    }
                }
            }
        }
    }
    stats
}

/// [`restoration_stats`] with single-edge faults fanned out over a worker
/// pool (one scheme scratch per worker).
///
/// Tallies are merged in edge order, so the aggregate (and the ≤ 32
/// recorded failures) is identical to the sequential sweep for every
/// worker count.
pub fn restoration_stats_par<S: Rpts + Sync>(scheme: &S, workers: usize) -> RestorationStats {
    let g = scheme.graph();
    let per_edge = parallel_indexed(
        g.m(),
        workers,
        |_| scheme.new_scratch(),
        |scratch, e| {
            let faults = FaultSet::single(e);
            let mut stats = RestorationStats::default();
            for s in g.vertices() {
                for t in g.vertices() {
                    if s == t || !connected_pair(g, s, t, &faults) {
                        continue;
                    }
                    stats.attempted += 1;
                    match restore_by_concatenation_with(scheme, s, t, &faults, scratch) {
                        Some(_) => stats.restored += 1,
                        None => {
                            stats.failed += 1;
                            if stats.failures.len() < 32 {
                                stats.failures.push((s, t, faults.clone()));
                            }
                        }
                    }
                }
            }
            stats
        },
    );
    let mut total = RestorationStats::default();
    for stats in per_edge {
        total.attempted += stats.attempted;
        total.restored += stats.restored;
        total.failed += stats.failed;
        for failure in stats.failures {
            if total.failures.len() < 32 {
                total.failures.push(failure);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{BfsOrder, BfsScheme};
    use crate::random_atw::RandomGridAtw;
    use rsp_graph::{bfs, generators};

    #[test]
    fn restores_across_single_faults_on_cycle() {
        let g = generators::cycle(6);
        let scheme = RandomGridAtw::theorem20(&g, 11).into_scheme();
        for (e, _, _) in g.edges() {
            for s in g.vertices() {
                for t in g.vertices() {
                    let p = restore_by_concatenation(&scheme, s, t, &FaultSet::single(e))
                        .expect("cycle minus an edge stays connected");
                    assert!(p.avoids(&g, &FaultSet::single(e)));
                    let truth = bfs(&g, s, &FaultSet::single(e)).dist(t).unwrap();
                    assert_eq!(p.hops() as u32, truth);
                }
            }
        }
    }

    #[test]
    fn single_fault_fast_path_agrees() {
        let g = generators::petersen();
        let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
        for (e, _, _) in g.edges().take(5) {
            for s in [0, 3, 7] {
                for t in [1, 5, 9] {
                    let a = restore_single_fault(&scheme, s, t, e).map(|p| p.hops());
                    let b = restore_by_concatenation(&scheme, s, t, &FaultSet::single(e))
                        .map(|p| p.hops());
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn disconnection_returns_none() {
        let g = generators::path_graph(4);
        let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
        let e = g.edge_between(1, 2).unwrap();
        assert!(restore_by_concatenation(&scheme, 0, 3, &FaultSet::single(e)).is_none());
    }

    #[test]
    fn trivial_pair_restores() {
        let g = generators::cycle(4);
        let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
        let p = restore_by_concatenation(&scheme, 2, 2, &FaultSet::single(0)).unwrap();
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn two_fault_restoration_uses_proper_subsets() {
        // On a 6-cycle with two failed edges the survivors still connect
        // some pairs; restoration must find F' among {}, {e1}, {e2}.
        let g = generators::cycle(6);
        let scheme = RandomGridAtw::theorem20(&g, 17).into_scheme();
        let e1 = g.edge_between(0, 1).unwrap();
        let e2 = g.edge_between(3, 4).unwrap();
        let faults = FaultSet::from_edges([e1, e2]);
        // 1,2,3 remain mutually connected; 4,5,0 likewise.
        for (s, t) in [(1, 3), (2, 1), (4, 0), (5, 4)] {
            let p = restore_by_concatenation(&scheme, s, t, &faults).unwrap();
            assert!(p.avoids(&g, &faults));
            assert_eq!(p.hops() as u32, bfs(&g, s, &faults).dist(t).unwrap());
        }
        // Cross-component pairs fail cleanly.
        assert!(restore_by_concatenation(&scheme, 1, 4, &faults).is_none());
    }

    #[test]
    fn stats_zero_failures_for_atw_scheme() {
        let g = generators::cycle(4);
        let scheme = RandomGridAtw::theorem20(&g, 23).into_scheme();
        let stats = restoration_stats(&scheme);
        assert!(stats.attempted > 0);
        assert_eq!(stats.failed, 0, "ATW schemes are provably 1-restorable");
        assert_eq!(stats.failure_rate(), 0.0);
    }

    #[test]
    fn parallel_stats_match_sequential() {
        for (g, seed) in [(generators::cycle(5), 3u64), (generators::grid(3, 3), 4)] {
            let scheme = RandomGridAtw::theorem20(&g, seed).into_scheme();
            let seq = restoration_stats(&scheme);
            for workers in [1, 2, 8] {
                assert_eq!(restoration_stats_par(&scheme, workers), seq, "workers={workers}");
            }
        }
        // Failure recording must also be deterministic across worker counts.
        let g = generators::grid(3, 3);
        let naive = BfsScheme::new(&g, BfsOrder::Ascending);
        let seq = restoration_stats(&naive);
        assert!(seq.failed > 0);
        for workers in [2, 8] {
            assert_eq!(restoration_stats_par(&naive, workers), seq, "workers={workers}");
        }
    }

    #[test]
    fn naive_scheme_fails_somewhere() {
        // The Figure 1 phenomenon: the BFS baseline is not restorable.
        // The 4-cycle alone does not defeat BFS-order (its failure needs
        // symmetric selections), but tie-rich grids do.
        let g = generators::grid(3, 3);
        let scheme = BfsScheme::new(&g, BfsOrder::Ascending);
        let stats = restoration_stats(&scheme);
        assert!(
            stats.failed > 0,
            "expected the naive scheme to fail on a tie-rich grid: {stats:?}"
        );
    }
}

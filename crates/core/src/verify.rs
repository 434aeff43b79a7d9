//! Property verifiers for replacement-path tiebreaking schemes.
//!
//! These check, instance by instance, the three properties Theorem 19
//! guarantees for weight-induced schemes — consistency (Definition 14),
//! stability (Definition 16), and `f`-restorability (Definition 17) — plus
//! the unique-shortest-path property of the weight function itself
//! (Definition 18). They power experiment E2 and the property tests across
//! the workspace.

use std::error::Error;
use std::fmt;
use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_graph::{
    bfs_into, connected_pair, parallel_indexed, BfsTree, FaultSet, Path, SearchScratch,
    SelectedTree, Vertex,
};

use crate::restore::restore_by_concatenation_with;
use crate::scheme::Rpts;

/// A witness that a scheme violates one of the paper's properties.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// `π(u, v | F)` is not the contiguous subpath of `π(s, t | F)`
    /// between `u` and `v` (Definition 14).
    Inconsistent {
        /// Endpoints of the outer path.
        s: Vertex,
        /// Endpoints of the outer path.
        t: Vertex,
        /// Endpoints of the inner pair.
        u: Vertex,
        /// Endpoints of the inner pair.
        v: Vertex,
        /// The fault set under which the violation occurred.
        faults: FaultSet,
    },
    /// `π(s, t | F) ≠ π(s, t | F ∪ {e})` although `e ∉ π(s, t | F)`
    /// (Definition 16).
    Unstable {
        /// Path endpoints.
        s: Vertex,
        /// Path endpoints.
        t: Vertex,
        /// The base fault set.
        faults: FaultSet,
        /// The added fault not on the selected path.
        extra: rsp_graph::EdgeId,
    },
    /// No midpoint/subset concatenation restores `(s, t)` under `F`
    /// (Definition 17).
    NotRestorable {
        /// Pair that could not be restored.
        s: Vertex,
        /// Pair that could not be restored.
        t: Vertex,
        /// The fault set.
        faults: FaultSet,
    },
    /// The selected path is not a shortest path of `G \ F`, or a tie was
    /// observed (Definition 18's requirements on the weight function).
    NotShortest {
        /// Pair whose selected path is wrong.
        s: Vertex,
        /// Pair whose selected path is wrong.
        t: Vertex,
        /// The fault set.
        faults: FaultSet,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Inconsistent { s, t, u, v, faults } => write!(
                f,
                "inconsistent: π({u}, {v} | {faults}) is not a subpath of π({s}, {t} | {faults})"
            ),
            Violation::Unstable { s, t, faults, extra } => write!(
                f,
                "unstable: π({s}, {t} | {faults}) changed when unrelated edge {extra} failed"
            ),
            Violation::NotRestorable { s, t, faults } => {
                write!(f, "not restorable: pair ({s}, {t}) under faults {faults}")
            }
            Violation::NotShortest { s, t, faults } => {
                write!(f, "selected path for ({s}, {t}) under {faults} is not shortest")
            }
        }
    }
}

impl Error for Violation {}

/// Checks symmetry (Definition 13) under one fault set: `π(s, t | F)` must
/// equal `π(t, s | F)` as an undirected path, for all pairs.
///
/// ATW-induced schemes are deliberately *asymmetric* (that is the point of
/// Theorem 2), so this returns the number of asymmetric pairs rather than
/// an error: `0` means the scheme is symmetric under `faults`.
pub fn count_asymmetric_pairs<S: Rpts>(scheme: &S, faults: &FaultSet) -> usize {
    let g = scheme.graph();
    let mut scratch = scheme.new_scratch();
    let trees = all_source_trees(scheme, faults, &mut scratch);
    let mut count = 0;
    for s in g.vertices() {
        for t in (s + 1)..g.n() {
            let fwd = trees[s].path_to(t);
            let bwd = trees[t].path_to(s).map(|p| p.reversed());
            if fwd != bwd {
                count += 1;
            }
        }
    }
    count
}

/// All selected trees `π(s, · | F)` for `s` over the whole vertex set,
/// computed through [`Rpts::for_each_tree`] (one fault set, so one plain
/// search per source).
fn all_source_trees<S: Rpts>(
    scheme: &S,
    faults: &FaultSet,
    scratch: &mut crate::RptsScratch,
) -> Vec<BfsTree> {
    let g = scheme.graph();
    let sources: Vec<Vertex> = g.vertices().collect();
    let mut trees: Vec<Option<BfsTree>> = (0..g.n()).map(|_| None).collect();
    scheme.for_each_tree(&sources, std::slice::from_ref(faults), scratch, &mut |si, _, tree| {
        trees[si] = Some(tree.to_bfs_tree());
        ControlFlow::Continue(())
    });
    trees.into_iter().map(|t| t.expect("one tree per source")).collect()
}

/// Checks that every selected path is a shortest path of `G \ F`, for each
/// given fault set.
///
/// Queries go through the batched [`Rpts::for_each_tree`] engine; trees
/// for one source are computed for all fault sets together, each repaired
/// from the source's fault-free tree by the repair kernel where the
/// weights leave it forced (see `rsp_graph::dijkstra_sweep`).
///
/// # Errors
///
/// Returns a [`Violation::NotShortest`] if any selected path is too long
/// (which one is unspecified when several exist).
pub fn verify_shortest<S: Rpts>(scheme: &S, fault_sets: &[FaultSet]) -> Result<(), Violation> {
    let g = scheme.graph();
    let mut scratch = scheme.new_scratch();
    let sources: Vec<Vertex> = g.vertices().collect();
    let mut truth = SearchScratch::<u32>::with_capacity(g.n());
    let mut violation: Option<Violation> = None;
    scheme.for_each_tree(&sources, fault_sets, &mut scratch, &mut |si, fi, tree| {
        let s = sources[si];
        let faults = &fault_sets[fi];
        bfs_into(g, s, faults, &mut truth);
        for t in g.vertices() {
            if tree.dist(t) != truth.dist(t) {
                violation = Some(Violation::NotShortest { s, t, faults: faults.clone() });
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    });
    violation.map_or(Ok(()), Err)
}

/// [`verify_shortest`] with fault sets fanned out over a worker pool (one
/// scheme scratch per worker).
///
/// Checks the same instances; like the sequential form, *which* violation
/// is reported when several exist is unspecified.
///
/// # Errors
///
/// Returns a [`Violation::NotShortest`] if any selected path is too long.
pub fn verify_shortest_par<S: Rpts + Sync>(
    scheme: &S,
    fault_sets: &[FaultSet],
    workers: usize,
) -> Result<(), Violation> {
    let g = scheme.graph();
    let first = parallel_indexed(
        fault_sets.len(),
        workers,
        |_| (scheme.new_scratch(), SearchScratch::<u32>::with_capacity(g.n())),
        |(scratch, truth), i| {
            let faults = &fault_sets[i];
            for s in g.vertices() {
                let tree = scheme.tree_from_with(s, faults, scratch);
                bfs_into(g, s, faults, truth);
                for t in g.vertices() {
                    if tree.dist(t) != truth.dist(t) {
                        return Some(Violation::NotShortest { s, t, faults: faults.clone() });
                    }
                }
            }
            None
        },
    );
    first.into_iter().flatten().next().map_or(Ok(()), Err)
}

/// Exhaustively checks consistency (Definition 14) under one fault set:
/// for all `s, t` and all `u` preceding `v` on `π(s, t | F)`, the selected
/// `π(u, v | F)` must be the contiguous subpath.
///
/// `O(n² · len³)` — intended for the small graphs of the test suite; use
/// [`verify_consistency_sampled`] at scale.
///
/// # Errors
///
/// Returns the first [`Violation::Inconsistent`] found.
pub fn verify_consistency<S: Rpts>(scheme: &S, faults: &FaultSet) -> Result<(), Violation> {
    let g = scheme.graph();
    let mut scratch = scheme.new_scratch();
    let trees = all_source_trees(scheme, faults, &mut scratch);
    for s in g.vertices() {
        for t in g.vertices() {
            let Some(p) = trees[s].path_to(t) else { continue };
            check_path_consistency(scheme, &p, &trees, s, t, faults)?;
        }
    }
    Ok(())
}

fn check_path_consistency<S: Rpts>(
    _scheme: &S,
    p: &Path,
    trees: &[rsp_graph::BfsTree],
    s: Vertex,
    t: Vertex,
    faults: &FaultSet,
) -> Result<(), Violation> {
    let verts = p.vertices();
    for i in 0..verts.len() {
        for j in (i + 1)..verts.len() {
            let (u, v) = (verts[i], verts[j]);
            let inner = trees[u].path_to(v).expect("subpath endpoints are connected");
            if inner.vertices() != &verts[i..=j] {
                return Err(Violation::Inconsistent { s, t, u, v, faults: faults.clone() });
            }
        }
    }
    Ok(())
}

/// Randomly sampled consistency check for larger graphs.
///
/// Samples `samples` ordered pairs and checks all subpairs of each
/// selected path.
///
/// # Errors
///
/// Returns the first [`Violation::Inconsistent`] found.
pub fn verify_consistency_sampled<S: Rpts>(
    scheme: &S,
    faults: &FaultSet,
    samples: usize,
    seed: u64,
) -> Result<(), Violation> {
    let g = scheme.graph();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = scheme.new_scratch();
    for _ in 0..samples {
        let s = rng.random_range(0..g.n());
        let t = rng.random_range(0..g.n());
        let Some(p) = scheme.path_with(s, t, faults, &mut scratch) else { continue };
        let verts = p.vertices().to_vec();
        // Check each subpair against its own tree (computing only the
        // trees we need).
        for i in 0..verts.len() {
            let tree_u = scheme.tree_from_with(verts[i], faults, &mut scratch);
            for j in (i + 1)..verts.len() {
                let inner = tree_u.path_to(verts[j]).expect("connected");
                if inner.vertices() != &verts[i..=j] {
                    return Err(Violation::Inconsistent {
                        s,
                        t,
                        u: verts[i],
                        v: verts[j],
                        faults: faults.clone(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Checks stability (Definition 16): for each base fault set `F` with
/// `|F| ≤ f − 1` drawn from `fault_sets` and each extra edge `e ∉
/// π(s, t | F)`, the selection must not change when `e` fails.
///
/// Exhaustive over pairs; the extra edge ranges over all non-path edges.
/// Per source, the `F ∪ {e}` trees for all extra edges are computed as one
/// [`Rpts::for_each_tree`] batch — each extra-edge tree is computed once
/// and checked against every target, rather than once per `(t, e)` pair.
///
/// # Errors
///
/// Returns a [`Violation::Unstable`] if any selection changes (which one
/// is unspecified when several exist).
pub fn verify_stability<S: Rpts>(scheme: &S, fault_sets: &[FaultSet]) -> Result<(), Violation> {
    let g = scheme.graph();
    let mut scratch = scheme.new_scratch();
    for faults in fault_sets {
        let extras: Vec<rsp_graph::EdgeId> =
            g.edges().map(|(e, _, _)| e).filter(|&e| !faults.contains(e)).collect();
        let bigger: Vec<FaultSet> = extras.iter().map(|&e| faults.with(e)).collect();
        for s in g.vertices() {
            let tree = scheme.tree_from_with(s, faults, &mut scratch);
            // Base paths are shared by every extra-edge check: extract each
            // once, not once per extra edge.
            let base_paths: Vec<Option<Path>> = g.vertices().map(|t| tree.path_to(t)).collect();
            let mut violation: Option<Violation> = None;
            scheme.for_each_tree(&[s], &bigger, &mut scratch, &mut |_, fi, tree2| {
                let e = extras[fi];
                for t in g.vertices() {
                    let Some(p) = &base_paths[t] else { continue };
                    if p.uses_edge(g, e) {
                        continue;
                    }
                    if tree2.path_to(t).as_ref() != Some(p) {
                        violation =
                            Some(Violation::Unstable { s, t, faults: faults.clone(), extra: e });
                        return ControlFlow::Break(());
                    }
                }
                ControlFlow::Continue(())
            });
            if let Some(v) = violation {
                return Err(v);
            }
        }
    }
    Ok(())
}

/// Exhaustively checks `f`-restorability (Definition 17) for all ordered
/// pairs and all fault sets of size exactly `f` drawn from `fault_sets`.
///
/// # Errors
///
/// Returns the first [`Violation::NotRestorable`] found.
pub fn verify_restorability<S: Rpts>(scheme: &S, fault_sets: &[FaultSet]) -> Result<(), Violation> {
    let g = scheme.graph();
    let mut scratch = scheme.new_scratch();
    for faults in fault_sets {
        if faults.is_empty() {
            continue;
        }
        for s in g.vertices() {
            for t in g.vertices() {
                if s == t || !connected_pair(g, s, t, faults) {
                    continue;
                }
                if restore_by_concatenation_with(scheme, s, t, faults, &mut scratch).is_none() {
                    return Err(Violation::NotRestorable { s, t, faults: faults.clone() });
                }
            }
        }
    }
    Ok(())
}

/// [`verify_restorability`] with fault sets fanned out over a worker pool
/// (one scheme scratch per worker).
///
/// Every `(s, t, F)` instance checked by the sequential form is checked
/// here; the violation reported (if any) is the sequential form's — the
/// one for the earliest fault set in `fault_sets` order.
///
/// # Errors
///
/// Returns a [`Violation::NotRestorable`] if any instance cannot be
/// restored.
pub fn verify_restorability_par<S: Rpts + Sync>(
    scheme: &S,
    fault_sets: &[FaultSet],
    workers: usize,
) -> Result<(), Violation> {
    let g = scheme.graph();
    let first = parallel_indexed(
        fault_sets.len(),
        workers,
        |_| scheme.new_scratch(),
        |scratch, i| {
            let faults = &fault_sets[i];
            if faults.is_empty() {
                return None;
            }
            for s in g.vertices() {
                for t in g.vertices() {
                    if s == t || !connected_pair(g, s, t, faults) {
                        continue;
                    }
                    if restore_by_concatenation_with(scheme, s, t, faults, scratch).is_none() {
                        return Some(Violation::NotRestorable { s, t, faults: faults.clone() });
                    }
                }
            }
            None
        },
    );
    first.into_iter().flatten().next().map_or(Ok(()), Err)
}

/// All fault sets of size exactly `k` over the graph's edges.
///
/// Combinatorial — intended for the small exhaustive experiments
/// (`k ≤ 3`, small `m`).
pub fn all_fault_sets(m: usize, k: usize) -> Vec<FaultSet> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(start: usize, m: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<FaultSet>) {
        if cur.len() == k {
            out.push(FaultSet::from_edges(cur.iter().copied()));
            return;
        }
        for e in start..m {
            cur.push(e);
            rec(e + 1, m, k, cur, out);
            cur.pop();
        }
    }
    rec(0, m, k, &mut cur, &mut out);
    out
}

/// `count` random fault sets of size `k`, for sampled verification at scale.
pub fn sample_fault_sets(m: usize, k: usize, count: usize, seed: u64) -> Vec<FaultSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut edges = Vec::with_capacity(k);
            while edges.len() < k.min(m) {
                let e = rng.random_range(0..m);
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
            FaultSet::from_edges(edges)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometric_atw::GeometricAtw;
    use crate::random_atw::RandomGridAtw;
    use rsp_graph::generators;

    #[test]
    fn all_fault_sets_counts() {
        assert_eq!(all_fault_sets(5, 1).len(), 5);
        assert_eq!(all_fault_sets(5, 2).len(), 10);
        assert_eq!(all_fault_sets(5, 3).len(), 10);
        assert_eq!(all_fault_sets(3, 0), vec![FaultSet::empty()]);
    }

    #[test]
    fn sampled_fault_sets_have_right_size() {
        for f in sample_fault_sets(20, 3, 10, 1) {
            assert_eq!(f.len(), 3);
        }
    }

    #[test]
    fn atw_scheme_passes_everything_on_c4() {
        // Theorem 19 end-to-end on the Theorem 37 counterexample graph.
        let g = generators::cycle(4);
        let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
        let singles = all_fault_sets(g.m(), 1);
        let mut with_empty = vec![FaultSet::empty()];
        with_empty.extend(singles.clone());

        verify_shortest(&scheme, &with_empty).unwrap();
        verify_consistency(&scheme, &FaultSet::empty()).unwrap();
        for f in &singles {
            verify_consistency(&scheme, f).unwrap();
        }
        verify_stability(&scheme, &[FaultSet::empty()]).unwrap();
        verify_restorability(&scheme, &singles).unwrap();
    }

    #[test]
    fn geometric_scheme_passes_on_grid() {
        let g = generators::grid(3, 3);
        let scheme = GeometricAtw::new(&g).into_scheme();
        verify_shortest(&scheme, &[FaultSet::empty()]).unwrap();
        verify_consistency(&scheme, &FaultSet::empty()).unwrap();
        verify_stability(&scheme, &[FaultSet::empty()]).unwrap();
        verify_restorability(&scheme, &all_fault_sets(g.m(), 1)).unwrap();
    }

    #[test]
    fn parallel_verifiers_agree_with_sequential() {
        let g = generators::grid(3, 3);
        let scheme = RandomGridAtw::theorem20(&g, 8).into_scheme();
        let singles = all_fault_sets(g.m(), 1);
        for workers in [1, 2, 8] {
            assert!(verify_shortest_par(&scheme, &singles, workers).is_ok(), "w={workers}");
            assert!(verify_restorability_par(&scheme, &singles, workers).is_ok(), "w={workers}");
        }
        // A non-restorable scheme must fail in parallel too, reporting the
        // earliest failing fault set.
        let naive = crate::naive::BfsScheme::new(&g, crate::naive::BfsOrder::Ascending);
        let seq = verify_restorability(&naive, &singles).unwrap_err();
        for workers in [1, 2, 8] {
            let par = verify_restorability_par(&naive, &singles, workers).unwrap_err();
            assert_eq!(par, seq, "w={workers}");
        }
    }

    #[test]
    fn two_fault_restorability_small() {
        let g = generators::cycle(5);
        let scheme = RandomGridAtw::theorem20(&g, 6).into_scheme();
        verify_restorability(&scheme, &all_fault_sets(g.m(), 2)).unwrap();
    }

    #[test]
    fn violation_display() {
        let v = Violation::NotRestorable { s: 1, t: 2, faults: FaultSet::single(3) };
        assert_eq!(v.to_string(), "not restorable: pair (1, 2) under faults {3}");
    }

    #[test]
    fn atw_schemes_are_genuinely_asymmetric_on_tie_rich_graphs() {
        // Theorem 2's whole point: the selection uses its freedom to pick
        // different s⇝t and t⇝s paths. On a grid the perturbation almost
        // surely exercises that freedom somewhere.
        let g = rsp_graph::generators::grid(4, 4);
        let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
        assert!(count_asymmetric_pairs(&scheme, &FaultSet::empty()) > 0);
    }

    #[test]
    fn unique_paths_graphs_are_symmetric() {
        // With unique shortest paths there is no freedom: forward and
        // backward selections coincide.
        let g = rsp_graph::generators::path_graph(6);
        let scheme = RandomGridAtw::theorem20(&g, 4).into_scheme();
        assert_eq!(count_asymmetric_pairs(&scheme, &FaultSet::empty()), 0);
    }
}

//! Theorem 37 machinery: exhaustive search over *symmetric* tiebreaking
//! schemes.
//!
//! Afek et al. observed — and Appendix A of the paper proves — that no
//! tiebreaking scheme can be simultaneously **symmetric** and
//! **1-restorable**, already on the 4-cycle. This module reproduces that
//! impossibility *constructively*: it enumerates every symmetric scheme on
//! a (small) input graph and checks 1-restorability of each. On `C4` the
//! search space is exactly four schemes and all four fail (experiment E3);
//! the asymmetric ATW schemes of this crate succeed on the same graph,
//! which is the content of Theorem 2.

use std::collections::HashMap;

use rsp_graph::{bfs, connected_pair, FaultSet, Graph, Path, SelectedTree, Vertex};

/// Enumerates **all** shortest `s ⇝ t` paths in `g \ faults`, up to `cap`
/// paths.
///
/// Returns `None` if more than `cap` shortest paths exist (the enumeration
/// is inherently exponential; the exhaustive experiments run on tiny
/// graphs). Returns `Some(vec![])` if `t` is unreachable.
///
/// # Examples
///
/// ```
/// use rsp_core::c4::all_shortest_paths;
/// use rsp_graph::{generators, FaultSet};
///
/// let g = generators::cycle(4);
/// let paths = all_shortest_paths(&g, 0, 2, &FaultSet::empty(), 16).unwrap();
/// assert_eq!(paths.len(), 2); // both ways around
/// ```
pub fn all_shortest_paths(
    g: &Graph,
    s: Vertex,
    t: Vertex,
    faults: &FaultSet,
    cap: usize,
) -> Option<Vec<Path>> {
    let from_t = bfs(g, t, faults);
    let Some(d) = from_t.dist(s) else {
        return Some(Vec::new());
    };
    let mut out = Vec::new();
    let mut prefix = vec![s];
    // DFS along strictly distance-decreasing (toward t) edges.
    fn rec(
        g: &Graph,
        faults: &FaultSet,
        from_t: &rsp_graph::BfsTree,
        t: Vertex,
        prefix: &mut Vec<Vertex>,
        out: &mut Vec<Path>,
        cap: usize,
    ) -> bool {
        let u = *prefix.last().expect("nonempty prefix");
        if u == t {
            if out.len() == cap {
                return false;
            }
            out.push(Path::new(prefix.clone()));
            return true;
        }
        let du = from_t.dist(u).expect("on a shortest path");
        for (v, e) in g.neighbors(u) {
            if faults.contains(e) {
                continue;
            }
            if from_t.dist(v) == Some(du - 1) {
                prefix.push(v);
                let ok = rec(g, faults, from_t, t, prefix, out, cap);
                prefix.pop();
                if !ok {
                    return false;
                }
            }
        }
        true
    }
    let _ = d;
    if rec(g, faults, &from_t, t, &mut prefix, &mut out, cap) {
        Some(out)
    } else {
        None
    }
}

/// A symmetric tiebreaking scheme: one undirected shortest path per
/// unordered pair (Definition 13 with `π(s, t) = π(t, s)`).
///
/// Paths are stored oriented from the smaller to the larger endpoint.
#[derive(Clone, Debug)]
pub struct SymmetricScheme {
    paths: HashMap<(Vertex, Vertex), Path>,
}

impl SymmetricScheme {
    /// The selected path between `s` and `t`, oriented `s → t`.
    ///
    /// Returns the trivial path when `s == t`, `None` if the pair is not
    /// in the scheme (disconnected).
    pub fn path(&self, s: Vertex, t: Vertex) -> Option<Path> {
        if s == t {
            return Some(Path::trivial(s));
        }
        let key = (s.min(t), s.max(t));
        let p = self.paths.get(&key)?;
        Some(if p.source() == s { p.clone() } else { p.reversed() })
    }

    /// Number of pairs with a selected path.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the scheme selects no paths (empty or edgeless graph).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// Checks 1-restorability of a symmetric scheme: for every pair `(s, t)`
/// and failing edge `e` with `s, t` still connected in `G \ e`, some
/// midpoint `x` must give selected paths `π(s,x)`, `π(t,x)` that both
/// avoid `e` and concatenate to a replacement shortest path.
pub fn is_symmetric_scheme_1_restorable(g: &Graph, scheme: &SymmetricScheme) -> bool {
    for (e, _, _) in g.edges() {
        let faults = FaultSet::single(e);
        for s in g.vertices() {
            for t in (s + 1)..g.n() {
                if !connected_pair(g, s, t, &faults) {
                    continue;
                }
                let target = bfs(g, s, &faults).dist(t).expect("connected");
                let ok = g.vertices().any(|x| {
                    let (Some(ps), Some(pt)) = (scheme.path(s, x), scheme.path(t, x)) else {
                        return false;
                    };
                    ps.hops() + pt.hops() == target as usize
                        && ps.avoids(g, &faults)
                        && pt.avoids(g, &faults)
                });
                if !ok {
                    return false;
                }
            }
        }
    }
    true
}

/// Outcome of the exhaustive symmetric-scheme search (experiment E3).
#[derive(Clone, Debug)]
pub struct SymmetricSearch {
    /// Total symmetric schemes enumerated.
    pub schemes_tried: usize,
    /// A 1-restorable symmetric scheme, if any exists.
    pub witness: Option<SymmetricScheme>,
}

/// Exhaustively searches all symmetric tiebreaking schemes of `g` for a
/// 1-restorable one.
///
/// Returns `None` (in `witness`) if no symmetric scheme is 1-restorable —
/// on `C4` this reproduces Theorem 37. The product of per-pair path counts
/// must not exceed `scheme_cap` and no pair may have more than `path_cap`
/// shortest paths, else `Err` is returned with the offending size.
///
/// # Errors
///
/// Returns the estimated search-space size if it exceeds the caps.
pub fn search_symmetric_1_restorable(
    g: &Graph,
    path_cap: usize,
    scheme_cap: usize,
) -> Result<SymmetricSearch, usize> {
    let empty = FaultSet::empty();
    let mut pairs: Vec<((Vertex, Vertex), Vec<Path>)> = Vec::new();
    let mut total: usize = 1;
    for s in g.vertices() {
        for t in (s + 1)..g.n() {
            let choices = all_shortest_paths(g, s, t, &empty, path_cap).ok_or(usize::MAX)?;
            if choices.is_empty() {
                continue; // disconnected pair: nothing to select
            }
            total = total.saturating_mul(choices.len());
            if total > scheme_cap {
                return Err(total);
            }
            pairs.push(((s, t), choices));
        }
    }

    // Odometer over the per-pair choices.
    let mut idx = vec![0usize; pairs.len()];
    let mut tried = 0;
    loop {
        tried += 1;
        let scheme = SymmetricScheme {
            paths: pairs
                .iter()
                .zip(&idx)
                .map(|((key, choices), &i)| (*key, choices[i].clone()))
                .collect(),
        };
        if is_symmetric_scheme_1_restorable(g, &scheme) {
            return Ok(SymmetricSearch { schemes_tried: tried, witness: Some(scheme) });
        }
        // Advance the odometer.
        let mut pos = 0;
        loop {
            if pos == pairs.len() {
                return Ok(SymmetricSearch { schemes_tried: tried, witness: None });
            }
            idx[pos] += 1;
            if idx[pos] < pairs[pos].1.len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_graph::generators;

    #[test]
    fn enumerates_tied_paths_on_c4() {
        let g = generators::cycle(4);
        let paths = all_shortest_paths(&g, 1, 3, &FaultSet::empty(), 10).unwrap();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.hops(), 2);
            assert!(p.is_valid_in(&g));
        }
    }

    #[test]
    fn enumeration_cap_respected() {
        // 3x3 grid corner-to-corner has 6 shortest paths; cap below that.
        let g = generators::grid(3, 3);
        assert!(all_shortest_paths(&g, 0, 8, &FaultSet::empty(), 5).is_none());
        let all = all_shortest_paths(&g, 0, 8, &FaultSet::empty(), 100).unwrap();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn unreachable_pair_has_no_paths() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let paths = all_shortest_paths(&g, 0, 2, &FaultSet::empty(), 4).unwrap();
        assert!(paths.is_empty());
    }

    #[test]
    fn theorem37_no_symmetric_restorable_scheme_on_c4() {
        let g = generators::cycle(4);
        let res = search_symmetric_1_restorable(&g, 16, 10_000).unwrap();
        assert_eq!(res.schemes_tried, 4, "C4 has exactly 4 symmetric schemes");
        assert!(res.witness.is_none(), "Theorem 37: all symmetric schemes fail");
    }

    #[test]
    fn asymmetric_atw_scheme_succeeds_on_c4() {
        // The other half of the story: Theorem 2's asymmetric selection is
        // 1-restorable on the same graph.
        use crate::random_atw::RandomGridAtw;
        use crate::verify::{all_fault_sets, verify_restorability};
        let g = generators::cycle(4);
        let scheme = RandomGridAtw::theorem20(&g, 77).into_scheme();
        verify_restorability(&scheme, &all_fault_sets(g.m(), 1)).unwrap();
    }

    #[test]
    fn trees_trivially_admit_symmetric_schemes() {
        // On a tree there are no ties and no replacement paths: the unique
        // scheme is vacuously 1-restorable.
        let g = generators::path_graph(4);
        let res = search_symmetric_1_restorable(&g, 4, 100).unwrap();
        assert!(res.witness.is_some());
    }

    #[test]
    fn odd_cycles_admit_symmetric_schemes() {
        // C5 has unique shortest paths; the symmetric scheme restores fine.
        let g = generators::cycle(5);
        let res = search_symmetric_1_restorable(&g, 4, 100).unwrap();
        assert!(res.witness.is_some(), "odd cycles have no ties to break");
    }

    #[test]
    fn search_cap_errors_out() {
        let g = generators::grid(3, 3);
        assert!(search_symmetric_1_restorable(&g, 100, 10).is_err());
    }

    use rsp_graph::Graph;
}

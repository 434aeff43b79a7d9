//! Ground-truth verification of preservers (Definition 4).

use std::error::Error;
use std::fmt;

use rsp_graph::{bfs, FaultSet, Graph, SelectedTree, Vertex};

use crate::ft_bfs::Preserver;

/// The pair family a preserver must serve.
#[derive(Clone, Debug)]
pub enum PairSet {
    /// `S × V`: every source against every vertex (FT-BFS / sourcewise).
    Sourcewise {
        /// The sources `S`.
        sources: Vec<Vertex>,
        /// `|V|` of the host graph.
        n: usize,
    },
    /// `S × S`: all pairs within the subset.
    Subset {
        /// The subset `S`.
        sources: Vec<Vertex>,
    },
    /// An explicit list of ordered pairs.
    Pairs(Vec<(Vertex, Vertex)>),
}

impl PairSet {
    /// `S × V` pairs.
    pub fn sourcewise(sources: Vec<Vertex>, n: usize) -> Self {
        PairSet::Sourcewise { sources, n }
    }

    /// `S × S` pairs.
    pub fn subset(sources: Vec<Vertex>) -> Self {
        PairSet::Subset { sources }
    }

    fn sources(&self) -> Vec<Vertex> {
        match self {
            PairSet::Sourcewise { sources, .. } | PairSet::Subset { sources } => sources.clone(),
            PairSet::Pairs(pairs) => {
                let mut s: Vec<Vertex> = pairs.iter().map(|&(a, _)| a).collect();
                s.sort_unstable();
                s.dedup();
                s
            }
        }
    }

    fn targets_for(&self, s: Vertex) -> Vec<Vertex> {
        match self {
            PairSet::Sourcewise { n, .. } => (0..*n).collect(),
            PairSet::Subset { sources } => sources.clone(),
            PairSet::Pairs(pairs) => {
                pairs.iter().filter(|&&(a, _)| a == s).map(|&(_, b)| b).collect()
            }
        }
    }
}

/// A distance the preserver failed to preserve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreserverViolation {
    /// The source of the violated pair.
    pub s: Vertex,
    /// The target of the violated pair.
    pub t: Vertex,
    /// The fault set under which distances diverge.
    pub faults: FaultSet,
    /// `dist_{G\F}(s, t)`.
    pub expected: Option<u32>,
    /// `dist_{H\F}(s, t)`.
    pub got: Option<u32>,
}

impl fmt::Display for PreserverViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "preserver violates pair ({}, {}) under faults {}: expected {:?}, got {:?}",
            self.s, self.t, self.faults, self.expected, self.got
        )
    }
}

impl Error for PreserverViolation {}

/// Checks `dist_{H\F}(s, t) = dist_{G\F}(s, t)` for every pair of `pairs`
/// and every fault set in `fault_sets` (given as edge ids of `G`).
///
/// # Errors
///
/// Returns the first [`PreserverViolation`] found.
pub fn verify_preserver(
    g: &Graph,
    preserver: &Preserver,
    pairs: &PairSet,
    fault_sets: &[FaultSet],
) -> Result<(), PreserverViolation> {
    let h = preserver.subgraph(g);
    for faults in fault_sets {
        // Translate fault edge ids from G to H (absent edges are no-ops).
        let h_faults: FaultSet = faults
            .iter()
            .filter_map(|e| {
                let (u, v) = g.endpoints(e);
                h.edge_between(u, v)
            })
            .collect();
        for s in pairs.sources() {
            let truth = bfs(g, s, faults);
            let ours = bfs(&h, s, &h_faults);
            for t in pairs.targets_for(s) {
                if truth.dist(t) != ours.dist(t) {
                    return Err(PreserverViolation {
                        s,
                        t,
                        faults: faults.clone(),
                        expected: truth.dist(t),
                        got: ours.dist(t),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Convenience: verifies and returns the number of `(pair, fault set)`
/// combinations checked.
pub fn verify_preserver_counting(
    g: &Graph,
    preserver: &Preserver,
    pairs: &PairSet,
    fault_sets: &[FaultSet],
) -> Result<usize, PreserverViolation> {
    verify_preserver(g, preserver, pairs, fault_sets)?;
    let pair_count: usize = pairs.sources().iter().map(|&s| pairs.targets_for(s).len()).sum();
    Ok(pair_count * fault_sets.len())
}

/// Translates an edge-id set of `G` into the matching [`FaultSet`] of a
/// subgraph `h` (edges not present in `h` are dropped).
pub fn translate_faults(g: &Graph, h: &Graph, faults: &FaultSet) -> FaultSet {
    faults
        .iter()
        .filter_map(|e| {
            let (u, v) = g.endpoints(e);
            h.edge_between(u, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft_bfs::{ft_bfs_structure, overlay_paths};
    use rsp_core::RandomGridAtw;
    use rsp_graph::generators;

    #[test]
    fn detects_a_bad_preserver() {
        // A single SPT is NOT a 1-FT preserver on a cycle: failing a tree
        // edge must be caught.
        let g = generators::cycle(6);
        let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
        let p = overlay_paths(&scheme, [(0, FaultSet::empty())]);
        let singles: Vec<FaultSet> = g.edges().map(|(e, _, _)| FaultSet::single(e)).collect();
        let err =
            verify_preserver(&g, &p, &PairSet::sourcewise(vec![0], g.n()), &singles).unwrap_err();
        assert_eq!(err.faults.len(), 1);
        assert!(err.expected.is_some());
        let msg = err.to_string();
        assert!(msg.contains("preserver violates"));
    }

    #[test]
    fn accepts_a_good_preserver() {
        let g = generators::cycle(6);
        let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
        let p = ft_bfs_structure(&scheme, 0, 1);
        let singles: Vec<FaultSet> = g.edges().map(|(e, _, _)| FaultSet::single(e)).collect();
        let checked =
            verify_preserver_counting(&g, &p, &PairSet::sourcewise(vec![0], g.n()), &singles)
                .unwrap();
        assert_eq!(checked, 6 * 6);
    }

    #[test]
    fn pairs_variant() {
        let g = generators::grid(3, 3);
        let scheme = RandomGridAtw::theorem20(&g, 2).into_scheme();
        let p = ft_bfs_structure(&scheme, 0, 1);
        let singles: Vec<FaultSet> = g.edges().map(|(e, _, _)| FaultSet::single(e)).collect();
        verify_preserver(&g, &p, &PairSet::Pairs(vec![(0, 8), (0, 4)]), &singles).unwrap();
    }

    #[test]
    fn translate_faults_drops_absent_edges() {
        let g = generators::cycle(5);
        let h = g.edge_subgraph([0, 1]);
        let f = translate_faults(&g, &h, &FaultSet::from_edges([0, 4]));
        assert_eq!(f.len(), 1, "edge 4 is not in the subgraph");
    }
}

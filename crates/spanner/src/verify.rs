//! Ground-truth verification of additive stretch under faults.

use std::error::Error;
use std::fmt;

use rsp_graph::{bfs, FaultSet, Graph, SelectedTree, Vertex};

use crate::clustering::Spanner;

/// A pair whose spanner distance exceeds the allowed additive stretch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StretchViolation {
    /// The violated pair.
    pub s: Vertex,
    /// The violated pair.
    pub t: Vertex,
    /// The fault set under which the stretch broke.
    pub faults: FaultSet,
    /// `dist_{G\F}(s, t)`.
    pub graph_dist: Option<u32>,
    /// `dist_{H\F}(s, t)`.
    pub spanner_dist: Option<u32>,
}

impl fmt::Display for StretchViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stretch violation for ({}, {}) under {}: graph {:?}, spanner {:?}",
            self.s, self.t, self.faults, self.graph_dist, self.spanner_dist
        )
    }
}

impl Error for StretchViolation {}

/// Checks `dist_{H\F}(s, t) ≤ dist_{G\F}(s, t) + stretch` for **all**
/// vertex pairs and every fault set in `fault_sets`.
///
/// Pairs disconnected in `G \ F` must also be disconnected in `H \ F`
/// (vacuous, since `H ⊆ G`), and connected pairs must stay connected in
/// the spanner.
///
/// # Errors
///
/// Returns the first [`StretchViolation`] found.
pub fn verify_spanner_stretch(
    g: &Graph,
    spanner: &Spanner,
    stretch: u32,
    fault_sets: &[FaultSet],
) -> Result<(), StretchViolation> {
    let h = spanner.subgraph(g);
    for faults in fault_sets {
        let h_faults: FaultSet = faults
            .iter()
            .filter_map(|e| {
                let (u, v) = g.endpoints(e);
                h.edge_between(u, v)
            })
            .collect();
        for s in g.vertices() {
            let truth = bfs(g, s, faults);
            let ours = bfs(&h, s, &h_faults);
            for t in g.vertices() {
                let ok = match (truth.dist(t), ours.dist(t)) {
                    (None, None) => true,
                    (Some(d), Some(d2)) => d2 <= d + stretch,
                    (None, Some(_)) => false, // impossible: H ⊆ G
                    (Some(_), None) => false, // spanner disconnected the pair
                };
                if !ok {
                    return Err(StretchViolation {
                        s,
                        t,
                        faults: faults.clone(),
                        graph_dist: truth.dist(t),
                        spanner_dist: ours.dist(t),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::ft_additive_spanner;
    use rsp_core::RandomGridAtw;
    use rsp_graph::generators;

    #[test]
    fn fault_free_spanner_distances_bounded() {
        let g = generators::connected_gnm(30, 120, 3);
        let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
        let sp = ft_additive_spanner(&scheme, 6, 1, 4);
        verify_spanner_stretch(&g, &sp, 4, &[FaultSet::empty()]).unwrap();
    }

    #[test]
    fn zero_stretch_fails_when_edges_dropped() {
        // A proper spanner (strictly sparser) cannot have +0 stretch
        // everywhere unless it is a preserver of all pairs; on a dense
        // graph with few centers some pair must stretch.
        let n = 40;
        let g = generators::connected_gnm(n, n * (n - 1) / 3, 5);
        let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
        let sp = ft_additive_spanner(&scheme, 3, 1, 6);
        if sp.edge_count() < g.m() {
            let res = verify_spanner_stretch(&g, &sp, 0, &[FaultSet::empty()]);
            // +0 may occasionally hold by luck; +4 must always hold.
            verify_spanner_stretch(&g, &sp, 4, &[FaultSet::empty()]).unwrap();
            if let Err(v) = res {
                assert!(v.spanner_dist.unwrap() > v.graph_dist.unwrap());
            }
        }
    }

    #[test]
    fn violation_display() {
        let v = StretchViolation {
            s: 0,
            t: 1,
            faults: FaultSet::empty(),
            graph_dist: Some(2),
            spanner_dist: Some(9),
        };
        assert!(v.to_string().contains("stretch violation"));
    }
}

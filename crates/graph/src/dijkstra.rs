//! Exact-cost Dijkstra, generic over [`PathCost`].
//!
//! The tiebreaking constructions of the paper replace each unit edge weight
//! with `1 + r(u, v)` where `r` is a tiny antisymmetric perturbation, then
//! rely on shortest paths in the reweighted directed graph `G*` being
//! *unique*. Uniqueness is a statement about exact arithmetic, so this
//! Dijkstra is generic over the exact cost type: scaled `u128` integers for
//! the randomized schemes, [`rsp_arith::BigInt`] for the deterministic
//! geometric scheme.

use rsp_arith::PathCost;

use crate::fault::FaultSet;
use crate::graph::{EdgeId, Graph, Vertex};
use crate::scratch::{dijkstra_into, SearchScratch};
use crate::spt::WeightedSpt;

/// Runs Dijkstra from `source` in `g \ faults` with per-direction edge costs
/// supplied by `edge_cost(edge id, from, to)`.
///
/// Costs must be non-negative (guaranteed by the tiebreaking constructions,
/// whose perturbations satisfy `|r| < 1/(2n)` after scaling). The returned
/// tree records, per vertex: the exact minimum cost, the hop count of the
/// minimum-cost path, and the parent pointer; it also records whether any
/// equal-cost tie was observed (see [`WeightedSpt::ties_detected`]).
///
/// The asymmetry of the paper's weight functions is expressed through the
/// `(from, to)` arguments: `edge_cost(e, u, v)` and `edge_cost(e, v, u)`
/// generally differ (they average to the unit weight).
///
/// This is the allocate-once convenience wrapper around the scratch-based
/// engine ([`crate::dijkstra_into`]): it builds one fresh
/// [`crate::SearchScratch`], runs the lazy-heap search, and materializes
/// an owned tree. Loops issuing many queries should hold a
/// scratch and call [`crate::dijkstra_into`] directly.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
///
/// # Examples
///
/// ```
/// use rsp_graph::{dijkstra, generators, FaultSet};
///
/// // Uniform cost 1 per edge: plain BFS distances.
/// let g = generators::cycle(6);
/// let spt = dijkstra(&g, 0, &FaultSet::empty(), |_, _, _| 1u64);
/// assert_eq!(spt.cost(3), Some(&3));
/// assert!(spt.ties_detected()); // two equal ways around the cycle
/// ```
pub fn dijkstra<C, F>(g: &Graph, source: Vertex, faults: &FaultSet, edge_cost: F) -> WeightedSpt<C>
where
    C: PathCost,
    F: FnMut(EdgeId, Vertex, Vertex) -> C,
{
    let mut scratch = SearchScratch::with_capacity(g.n());
    dijkstra_into(g, source, faults, edge_cost, &mut scratch);
    scratch.to_weighted_spt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::generators;

    #[test]
    fn unit_costs_match_bfs() {
        let g = generators::grid(4, 5);
        let faults = FaultSet::empty();
        let spt = dijkstra(&g, 0, &faults, |_, _, _| 1u64);
        let tree = bfs(&g, 0, &faults);
        for v in g.vertices() {
            assert_eq!(spt.cost(v).copied(), tree.dist(v).map(u64::from));
            assert_eq!(spt.hops(v), tree.dist(v));
        }
    }

    #[test]
    fn respects_faults() {
        let g = generators::cycle(5);
        let e = g.edge_between(0, 4).unwrap();
        let spt = dijkstra(&g, 0, &FaultSet::single(e), |_, _, _| 1u64);
        assert_eq!(spt.cost(4), Some(&4));
    }

    #[test]
    fn unreachable_is_none() {
        let g = generators::path_graph(4);
        let e = g.edge_between(1, 2).unwrap();
        let spt = dijkstra(&g, 3, &FaultSet::single(e), |_, _, _| 1u64);
        assert!(spt.cost(0).is_none());
        assert!(spt.path_to(0).is_none());
        assert_eq!(spt.reachable_count(), 2);
    }

    #[test]
    fn asymmetric_costs_pick_cheap_direction() {
        // Square 0-1-2-3-0. Going 0→1→2 costs 10+10, going 0→3→2 costs
        // 12+12; make the 0→1 direction expensive so the other way wins.
        let g = generators::cycle(4);
        let e01 = g.edge_between(0, 1).unwrap();
        let spt =
            dijkstra(
                &g,
                0,
                &FaultSet::empty(),
                |e, from, _to| {
                    if e == e01 && from == 0 {
                        100u64
                    } else {
                        10u64
                    }
                },
            );
        assert_eq!(spt.path_to(2).unwrap().vertices(), &[0, 3, 2]);
        assert_eq!(spt.cost(2), Some(&20));
    }

    #[test]
    fn tie_detection_positive_and_negative() {
        // Even cycle: two equal-cost routes to the antipode → tie.
        let g = generators::cycle(4);
        let spt = dijkstra(&g, 0, &FaultSet::empty(), |_, _, _| 7u64);
        assert!(spt.ties_detected());

        // Perturb one direction slightly: tie disappears.
        let e01 = g.edge_between(0, 1).unwrap();
        let spt = dijkstra(&g, 0, &FaultSet::empty(), |e, from, _| {
            if e == e01 && from == 0 {
                7_000_001u64
            } else {
                7_000_000u64
            }
        });
        assert!(!spt.ties_detected());
        assert_eq!(spt.path_to(2).unwrap().vertices(), &[0, 3, 2]);
    }

    #[test]
    fn bigint_costs_work() {
        use rsp_arith::BigInt;
        let g = generators::path_graph(4);
        let spt = dijkstra(&g, 0, &FaultSet::empty(), |_, _, _| BigInt::pow2(100));
        assert_eq!(spt.cost(3), Some(&(BigInt::pow2(100) * 3u64)));
        assert_eq!(spt.hops(3), Some(3));
    }

    #[test]
    fn hops_track_minimum_cost_path() {
        // Costs where the min-cost path is NOT the min-hop path: a direct
        // edge with huge cost vs a two-hop detour with small cost.
        let g = crate::Graph::from_edges(3, [(0, 2), (0, 1), (1, 2)]).unwrap();
        let direct = g.edge_between(0, 2).unwrap();
        let spt =
            dijkstra(&g, 0, &FaultSet::empty(), |e, _, _| if e == direct { 100u64 } else { 1u64 });
        assert_eq!(spt.hops(2), Some(2));
        assert_eq!(spt.cost(2), Some(&2));
    }
}

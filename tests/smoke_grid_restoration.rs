//! PR-1 smoke test: the end-to-end story the README sells, on one grid.
//!
//! Build a grid graph, construct a Theorem-20 restorable tiebreaking
//! scheme, kill one edge, and check that the restored path (a) exists,
//! (b) avoids the fault, and (c) is exactly as short as a from-scratch
//! Dijkstra/BFS on the faulted graph says it can be.

use restorable_tiebreaking::core::{restore_single_fault, RandomGridAtw, Rpts};
use restorable_tiebreaking::graph::{bfs, dijkstra, generators, FaultSet};
use rsp_graph::SelectedTree;

#[test]
fn grid_restoration_matches_dijkstra_on_faulted_graph() {
    let g = generators::grid(5, 5);
    let scheme = RandomGridAtw::theorem20(&g, 2024).into_scheme();
    let (s, t) = (0, g.n() - 1);

    // Kill the first edge of the selected s⇝t route, the worst case for a
    // router: the stored path itself is now unusable.
    let selected = scheme.path(s, t, &FaultSet::empty()).expect("grid is connected");
    let first_hop = selected.vertices()[1];
    let failed = g.edge_between(s, first_hop).expect("first hop is an edge");
    let faults = FaultSet::single(failed);

    let restored = restore_single_fault(&scheme, s, t, failed)
        .expect("grid stays connected after one edge fault");
    assert!(restored.avoids(&g, &faults), "restored path must avoid the fault");
    assert!(restored.is_valid_in(&g));

    // Exactly optimal, by two independent ground truths on G \ F.
    let bfs_dist = bfs(&g, s, &faults).dist(t).expect("still connected");
    assert_eq!(restored.hops() as u32, bfs_dist, "restored path must be shortest");
    let spt = dijkstra(&g, s, &faults, |_, _, _| 1u64);
    assert_eq!(Some(&(restored.hops() as u64)), spt.cost(t), "BFS and Dijkstra agree");
}

#[test]
fn grid_restoration_every_single_edge_fault() {
    // Smaller grid, exhaustive over faults: restoration never fails and
    // never returns a non-shortest path.
    let g = generators::grid(4, 4);
    let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
    let (s, t) = (0, g.n() - 1);
    for (e, _, _) in g.edges() {
        let faults = FaultSet::single(e);
        let truth = bfs(&g, s, &faults).dist(t);
        let restored = restore_single_fault(&scheme, s, t, e);
        match (truth, &restored) {
            (Some(d), Some(p)) => {
                assert!(p.avoids(&g, &faults));
                assert_eq!(p.hops() as u32, d);
            }
            (None, None) => {}
            (truth, restored) => {
                panic!("restoration and BFS disagree on edge {e}: {truth:?} vs {restored:?}")
            }
        }
    }
}

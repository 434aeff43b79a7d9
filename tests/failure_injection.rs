//! Failure-injection tests: adversarial fault patterns — bridges,
//! cut-heavy topologies, repeated faults, and disconnection cascades —
//! against every layer.

use restorable_tiebreaking::core::{restore_by_concatenation, RandomGridAtw, Rpts};
use restorable_tiebreaking::graph::{bfs, components, generators, is_connected_avoiding, FaultSet};
use restorable_tiebreaking::labeling::build_labeling;
use restorable_tiebreaking::preserver::{ft_subset_preserver, verify_preserver, PairSet};
use restorable_tiebreaking::replacement::subset_replacement_paths;
use rsp_graph::SelectedTree;

/// Barbells: every bridge edge is a cut edge; fault handling must report
/// disconnection, never a wrong distance.
#[test]
fn barbell_bridge_cascade() {
    let g = generators::barbell(5, 3);
    let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
    let bridge_edges: Vec<_> = g
        .edges()
        .filter(|&(e, _, _)| !is_connected_avoiding(&g, &FaultSet::single(e)))
        .map(|(e, _, _)| e)
        .collect();
    assert_eq!(bridge_edges.len(), 3, "barbell(5, 3) has exactly 3 bridge edges");
    for &e in &bridge_edges {
        let faults = FaultSet::single(e);
        // Restoration across the cut must return None; within a side it
        // must succeed.
        assert!(restore_by_concatenation(&scheme, 0, g.n() - 1, &faults).is_none());
        let comp = components(&g, &faults);
        for s in g.vertices() {
            for t in g.vertices() {
                let restored = restore_by_concatenation(&scheme, s, t, &faults);
                assert_eq!(restored.is_some(), comp[s] == comp[t], "({s},{t}) e={e}");
            }
        }
    }
}

/// Failing every edge incident to one vertex isolates it; all layers must
/// agree on the resulting distances.
#[test]
fn vertex_isolation() {
    let g = generators::petersen();
    let victim = 0;
    let faults: FaultSet = g.neighbors(victim).map(|(_, e)| e).collect();
    assert_eq!(faults.len(), 3);
    let truth = bfs(&g, 5, &faults);
    assert_eq!(truth.dist(victim), None, "victim is isolated");

    // Subset-rp over the surviving part still answers exactly.
    let rp = subset_replacement_paths(&g, &[5, 7, 9], 3);
    for p in rp.iter() {
        let (s, t) = p.pair();
        for entry in p.entries() {
            assert_eq!(entry.dist, bfs(&g, s, &FaultSet::single(entry.edge)).dist(t));
        }
    }
}

/// Repeatedly failing edges of a cycle until it becomes a path: the
/// 2-fault preserver built in advance keeps answering for its pairs.
#[test]
fn progressive_cycle_degradation() {
    let g = generators::cycle(10);
    let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
    let sources = vec![0, 5];
    let preserver = ft_subset_preserver(&scheme, &sources, 2);
    // All 2-subsets of cycle edges.
    let all_pairs = rsp_core::verify::all_fault_sets(g.m(), 2);
    verify_preserver(&g, &preserver, &PairSet::subset(sources), &all_pairs).unwrap();
}

/// Labels queried with fault descriptions that include edges absent from
/// both preservers (decoding must not choke on unknown endpoints).
#[test]
fn labels_with_irrelevant_faults() {
    let g = generators::connected_gnm(18, 40, 9);
    let scheme = RandomGridAtw::theorem20(&g, 9).into_scheme();
    let labeling = build_labeling(&scheme, 0);
    for (e, u, v) in g.edges() {
        let truth = bfs(&g, 0, &FaultSet::single(e));
        for t in g.vertices() {
            // The fault is passed as endpoints; whether those endpoints
            // appear in the decoded union is the decoder's problem.
            assert_eq!(labeling.query(0, t, &[(u, v)]), truth.dist(t));
            // Reversed orientation must behave identically.
            assert_eq!(labeling.query(0, t, &[(v, u)]), truth.dist(t));
        }
    }
}

/// Stars: failing a spoke isolates exactly one leaf; everything else is
/// unaffected.
#[test]
fn star_spoke_failures() {
    let g = generators::star(12);
    let scheme = RandomGridAtw::theorem20(&g, 4).into_scheme();
    for (e, _, v) in g.edges() {
        let faults = FaultSet::single(e);
        for t in 1..g.n() {
            let r = restore_by_concatenation(&scheme, 0, t, &faults);
            if t == v {
                assert!(r.is_none(), "leaf {v} must be isolated");
            } else {
                assert_eq!(r.unwrap().hops(), 1);
            }
        }
    }
}

/// The empty fault set is always legal and yields original distances.
#[test]
fn empty_fault_set_everywhere() {
    let g = generators::grid(3, 4);
    let scheme = RandomGridAtw::theorem20(&g, 2).into_scheme();
    let truth = bfs(&g, 0, &FaultSet::empty());
    for t in g.vertices() {
        let p = restore_by_concatenation(&scheme, 0, t, &FaultSet::empty()).unwrap();
        assert_eq!(p.hops() as u32, truth.dist(t).unwrap());
        assert_eq!(
            scheme.path(0, t, &FaultSet::empty()).unwrap().hops() as u32,
            truth.dist(t).unwrap()
        );
    }
}

//! End-to-end pipeline: one tiebreaking scheme drives every application
//! layer — replacement paths, preservers, spanners, labels — and all
//! answers agree with BFS ground truth.

use restorable_tiebreaking::core::{verify::sample_fault_sets, RandomGridAtw, Rpts};
use restorable_tiebreaking::graph::{bfs, generators, FaultSet};
use restorable_tiebreaking::labeling::build_labeling;
use restorable_tiebreaking::preserver::{ft_subset_preserver, verify_preserver, PairSet};
use restorable_tiebreaking::replacement::subset_replacement_paths;
use restorable_tiebreaking::spanner::{ft_additive_spanner, verify_spanner_stretch};
use rsp_graph::SelectedTree;

#[test]
fn one_scheme_serves_every_layer() {
    let g = generators::connected_gnm(28, 70, 1234);
    let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
    let sources = vec![0, 9, 18, 27];

    // Layer 1: subset replacement paths agree with BFS truth.
    let rp = subset_replacement_paths(&g, &sources, 9);
    for p in rp.iter() {
        let (s, t) = p.pair();
        for entry in p.entries() {
            let truth = bfs(&g, s, &FaultSet::single(entry.edge)).dist(t);
            assert_eq!(entry.dist, truth);
        }
    }

    // Layer 2: the 1-FT subset preserver preserves those same distances.
    let preserver = ft_subset_preserver(&scheme, &sources, 1);
    let singles: Vec<FaultSet> = g.edges().map(|(e, _, _)| FaultSet::single(e)).collect();
    verify_preserver(&g, &preserver, &PairSet::subset(sources.clone()), &singles).unwrap();

    // Layer 3: the spanner keeps everyone within +4.
    let spanner = ft_additive_spanner(&scheme, 5, 1, 3);
    verify_spanner_stretch(&g, &spanner, 4, &singles).unwrap();

    // Layer 4: labels answer the same queries from bitstrings alone.
    let labeling = build_labeling(&scheme, 0);
    for (e, u, v) in g.edges().take(20) {
        let fs = FaultSet::single(e);
        for &s in &sources {
            for &t in &sources {
                assert_eq!(labeling.query(s, t, &[(u, v)]), bfs(&g, s, &fs).dist(t));
            }
        }
    }
}

#[test]
fn preserver_is_sparser_but_equivalent_for_its_pairs() {
    let g = generators::connected_gnm(40, 160, 55);
    let scheme = RandomGridAtw::theorem20(&g, 2).into_scheme();
    let sources = vec![0, 13, 26, 39];
    let preserver = ft_subset_preserver(&scheme, &sources, 2);
    assert!(preserver.edge_count() < g.m(), "must drop edges on a dense graph");
    let fault_sets = sample_fault_sets(g.m(), 2, 30, 77);
    verify_preserver(&g, &preserver, &PairSet::subset(sources), &fault_sets).unwrap();
}

#[test]
fn replacement_paths_live_inside_the_preserver() {
    // The structural fact behind Theorem 31: every replacement path that
    // Algorithm 1 reports can be realized inside the subset preserver.
    let g = generators::connected_gnm(24, 60, 8);
    let scheme = RandomGridAtw::theorem20(&g, 8).into_scheme();
    let sources = vec![0, 8, 16];
    let preserver = ft_subset_preserver(&scheme, &sources, 1);
    let h = preserver.subgraph(&g);
    let rp = subset_replacement_paths(&g, &sources, 21);
    for p in rp.iter() {
        let (s, t) = p.pair();
        for entry in p.entries() {
            let (u, v) = g.endpoints(entry.edge);
            let h_faults: FaultSet = h.edge_between(u, v).into_iter().collect();
            let via_h = bfs(&h, s, &h_faults).dist(t);
            assert_eq!(via_h, entry.dist, "preserver must realize dist for ({s},{t})");
        }
    }
}

#[test]
fn scheme_trees_are_bfs_trees_under_every_single_fault() {
    let g = generators::grid(4, 5);
    let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
    for (e, _, _) in g.edges() {
        let fs = FaultSet::single(e);
        for s in [0, 7, 19] {
            let tree = scheme.tree_from(s, &fs);
            let truth = bfs(&g, s, &fs);
            for v in g.vertices() {
                assert_eq!(tree.dist(v), truth.dist(v));
            }
        }
    }
}

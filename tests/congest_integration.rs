//! Distributed-vs-centralized equivalence: the CONGEST constructions must
//! compute exactly the objects their centralized counterparts do.

use restorable_tiebreaking::congest::{
    distributed_1ft_subset_preserver, distributed_ft_spanner, distributed_spt, scheduled_multi_spt,
};
use restorable_tiebreaking::core::RandomGridAtw;
use restorable_tiebreaking::graph::{bfs, diameter, generators, FaultSet};
use rsp_graph::SelectedTree;

#[test]
fn distributed_spt_equals_centralized_everywhere() {
    for seed in 0..3 {
        let g = generators::connected_gnm(35, 90, seed);
        let scheme = RandomGridAtw::theorem20(&g, seed + 5).into_scheme();
        for source in [0, 17, 34] {
            let dist = distributed_spt(&g, &scheme, source).unwrap();
            let cent = scheme.spt(source, &FaultSet::empty());
            for v in g.vertices() {
                assert_eq!(dist.dist[v].as_ref(), cent.cost(v));
                if v != source {
                    assert_eq!(dist.parent[v], cent.parent(v).map(|(p, _)| p));
                }
            }
        }
    }
}

#[test]
fn scheduled_instances_survive_congestion() {
    // Heavy congestion: many sources on a small graph. Queueing delays
    // skew the waves; the distance-vector corrections must still converge
    // to the exact centralized trees.
    let g = generators::grid(5, 5);
    let scheme = RandomGridAtw::theorem20(&g, 9).into_scheme();
    let sources: Vec<usize> = (0..12).map(|i| i * 2).collect();
    let result = scheduled_multi_spt(&g, &scheme, &sources, 31).unwrap();
    for (i, &s) in sources.iter().enumerate() {
        let cent = scheme.spt(s, &FaultSet::empty());
        for v in g.vertices() {
            assert_eq!(result.parents[i][v], cent.parent(v).map(|(p, _)| p));
        }
    }
}

#[test]
fn distributed_preserver_equals_centralized_union_of_trees() {
    let g = generators::connected_gnm(30, 75, 4);
    let sources = [0, 10, 20];
    let seed = 17;
    let dist = distributed_1ft_subset_preserver(&g, &sources, seed).unwrap();
    // The centralized 1-FT S×S preserver under the same weights is the
    // union of the same SPTs.
    let scheme = RandomGridAtw::theorem20(&g, seed).into_scheme();
    let mut central: Vec<usize> = sources
        .iter()
        .flat_map(|&s| scheme.spt(s, &FaultSet::empty()).tree_edges().collect::<Vec<_>>())
        .collect();
    central.sort_unstable();
    central.dedup();
    assert_eq!(dist.edges, central, "identical edge sets, bit for bit");
}

#[test]
fn distributed_spanner_stretch_and_rounds() {
    let g = generators::torus(5, 6);
    let sp = distributed_ft_spanner(&g, 6, 3).unwrap();
    let d = diameter(&g) as usize;
    assert!(sp.stats.rounds <= 20 * (d + 6), "round sanity");
    let h = g.edge_subgraph(sp.edges.iter().copied());
    for (e, u, v) in g.edges() {
        let gf = FaultSet::single(e);
        let hf: FaultSet = h.edge_between(u, v).into_iter().collect();
        for s in g.vertices() {
            let truth = bfs(&g, s, &gf);
            let ours = bfs(&h, s, &hf);
            for t in g.vertices() {
                match (truth.dist(t), ours.dist(t)) {
                    (Some(a), Some(b)) => assert!(b <= a + 4),
                    (None, None) => {}
                    other => panic!("connectivity mismatch {other:?}"),
                }
            }
        }
    }
}

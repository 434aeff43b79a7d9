//! Property-based cross-checks on random graphs: the paper's guarantees
//! must hold for *every* seed, graph, and fault, not just the unit-test
//! instances.

use proptest::prelude::*;
use restorable_tiebreaking::core::{restore_by_concatenation, GeometricAtw, RandomGridAtw, Rpts};
use restorable_tiebreaking::graph::{bfs, connected_pair, generators, FaultSet};
use restorable_tiebreaking::labeling::build_labeling;
use restorable_tiebreaking::replacement::subset_replacement_paths;
use rsp_graph::SelectedTree;

/// Strategy: a connected random graph with 6..=18 vertices and a density
/// knob, plus a scheme seed.
fn graph_params() -> impl Strategy<Value = (usize, usize, u64, u64)> {
    (6usize..=18, 0usize..=3, any::<u64>(), any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 2 as a property: every (s, t, e) with a surviving path is
    /// restorable by concatenation under the ATW scheme.
    #[test]
    fn atw_scheme_is_1_restorable((n, density, gseed, wseed) in graph_params()) {
        let m = (n - 1) + density * n / 2;
        let g = generators::connected_gnm(n, m.min(n * (n - 1) / 2), gseed);
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        for (e, _, _) in g.edges() {
            let faults = FaultSet::single(e);
            for s in g.vertices() {
                for t in g.vertices() {
                    if !connected_pair(&g, s, t, &faults) {
                        continue;
                    }
                    let p = restore_by_concatenation(&scheme, s, t, &faults)
                        .expect("Theorem 2 restoration");
                    prop_assert_eq!(
                        p.hops() as u32,
                        bfs(&g, s, &faults).dist(t).expect("connected"),
                        "replacement must be shortest"
                    );
                }
            }
        }
    }

    /// Perturbed trees are BFS trees: hop distances survive perturbation
    /// under every single fault (the Definition 18 requirement).
    #[test]
    fn perturbed_distances_are_exact((n, density, gseed, wseed) in graph_params()) {
        let m = (n - 1) + density * n / 2;
        let g = generators::connected_gnm(n, m.min(n * (n - 1) / 2), gseed);
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let mut fault_sets = vec![FaultSet::empty()];
        fault_sets.extend(g.edges().map(|(e, _, _)| FaultSet::single(e)));
        for fs in &fault_sets {
            for s in g.vertices() {
                let tree = scheme.tree_from(s, fs);
                let truth = bfs(&g, s, fs);
                for v in g.vertices() {
                    prop_assert_eq!(tree.dist(v), truth.dist(v));
                }
            }
        }
    }

    /// Algorithm 1 equals BFS recomputation on every reported entry.
    #[test]
    fn subset_rp_matches_truth((n, density, gseed, wseed) in graph_params()) {
        let m = (n - 1) + density * n / 2;
        let g = generators::connected_gnm(n, m.min(n * (n - 1) / 2), gseed);
        let sources: Vec<usize> = vec![0, n / 2, n - 1];
        let result = subset_replacement_paths(&g, &sources, wseed);
        for p in result.iter() {
            let (s, t) = p.pair();
            prop_assert_eq!(
                p.base_dist(),
                bfs(&g, s, &FaultSet::empty()).dist(t).expect("connected")
            );
            for entry in p.entries() {
                let truth = bfs(&g, s, &FaultSet::single(entry.edge)).dist(t);
                prop_assert_eq!(entry.dist, truth);
            }
        }
    }

    /// Labels recover exact distances for every single fault.
    #[test]
    fn labels_are_exact((n, density, gseed, wseed) in graph_params()) {
        let m = (n - 1) + density * n / 2;
        let g = generators::connected_gnm(n, m.min(n * (n - 1) / 2), gseed);
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let labeling = build_labeling(&scheme, 0);
        let (s, t) = (0, n - 1);
        for (e, u, v) in g.edges() {
            prop_assert_eq!(
                labeling.query(s, t, &[(u, v)]),
                bfs(&g, s, &FaultSet::single(e)).dist(t)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The deterministic geometric scheme agrees with ground truth too
    /// (fewer cases: BigInt Dijkstra on every fault is pricier).
    #[test]
    fn geometric_scheme_is_exact((n, gseed) in (5usize..=10, any::<u64>())) {
        let g = generators::connected_gnm(n, (n - 1) + n / 2, gseed);
        let scheme = GeometricAtw::new(&g).into_scheme();
        for (e, _, _) in g.edges() {
            let fs = FaultSet::single(e);
            let tree = scheme.tree_from(0, &fs);
            let truth = bfs(&g, 0, &fs);
            for v in g.vertices() {
                prop_assert_eq!(tree.dist(v), truth.dist(v));
            }
            prop_assert!(!scheme.spt(0, &fs).ties_detected(), "determinism: no ties ever");
        }
    }
}

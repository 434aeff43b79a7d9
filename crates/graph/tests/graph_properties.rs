//! Property tests for the graph substrate: CSR invariants, BFS/Dijkstra
//! agreement, and generator contracts.

use proptest::prelude::*;
use rsp_graph::{
    bfs, dijkstra, generators, is_connected, EdgeWeights, FaultSet, Graph, Path, SelectedTree,
};

fn gnm_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (3usize..=24, 0usize..=3, any::<u64>()).prop_map(|(n, density, seed)| {
        let extra = density * n / 2;
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        (n, m, seed)
    })
}

proptest! {
    /// CSR structural invariants: degree sums, symmetric adjacency,
    /// sorted neighbor lists, consistent edge lookups.
    #[test]
    fn csr_invariants((n, m, seed) in gnm_params()) {
        let g = generators::connected_gnm(n, m, seed);
        prop_assert_eq!(g.n(), n);
        prop_assert_eq!(g.m(), m);
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * m, "handshake lemma");
        for u in g.vertices() {
            let nbrs: Vec<_> = g.neighbors(u).collect();
            prop_assert!(nbrs.windows(2).all(|w| w[0].0 < w[1].0), "sorted adjacency");
            for (v, e) in nbrs {
                prop_assert_eq!(g.edge_between(u, v), Some(e));
                prop_assert_eq!(g.edge_between(v, u), Some(e), "symmetry");
                prop_assert_eq!(g.other_endpoint(e, u), v);
            }
        }
    }

    /// BFS and unit-cost Dijkstra agree everywhere, with and without
    /// faults.
    #[test]
    fn bfs_equals_unit_dijkstra((n, m, seed) in gnm_params(), fault in any::<prop::sample::Index>()) {
        let g = generators::connected_gnm(n, m, seed);
        let e = fault.index(g.m());
        for faults in [FaultSet::empty(), FaultSet::single(e)] {
            let tree = bfs(&g, 0, &faults);
            let spt = dijkstra(&g, 0, &faults, |_, _, _| 1u64);
            for v in g.vertices() {
                prop_assert_eq!(tree.dist(v).map(u64::from), spt.cost(v).copied());
            }
        }
    }

    /// BFS tree paths are valid shortest paths.
    #[test]
    fn bfs_paths_are_valid((n, m, seed) in gnm_params()) {
        let g = generators::connected_gnm(n, m, seed);
        let tree = bfs(&g, 0, &FaultSet::empty());
        for v in g.vertices() {
            let p = tree.path_to(v).expect("connected");
            prop_assert!(p.is_valid_in(&g));
            prop_assert!(p.is_simple());
            prop_assert_eq!(p.hops() as u32, tree.dist(v).expect("connected"));
        }
    }

    /// Edge-list serialization round-trips.
    #[test]
    fn io_round_trip((n, m, seed) in gnm_params()) {
        let g = generators::connected_gnm(n, m, seed);
        let s = rsp_graph::to_edge_list_string(&g);
        prop_assert_eq!(rsp_graph::from_edge_list_str(&s).expect("round trip"), g);
    }

    /// connected_gnm delivers its contract: connected, exact m, simple.
    #[test]
    fn generator_contract((n, m, seed) in gnm_params()) {
        let g = generators::connected_gnm(n, m, seed);
        prop_assert!(is_connected(&g));
        let mut seen = std::collections::HashSet::new();
        for (_, u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(seen.insert((u, v)), "no duplicate edges");
        }
    }

    /// Path joins: join_at produces a walk with matched endpoints.
    #[test]
    fn join_at_endpoints((n, m, seed) in gnm_params(), a in any::<prop::sample::Index>(), b in any::<prop::sample::Index>()) {
        let g = generators::connected_gnm(n, m, seed);
        let (s, t) = (a.index(n), b.index(n));
        let x = n / 2;
        let ps = bfs(&g, s, &FaultSet::empty()).path_to(x).expect("connected");
        let pt = bfs(&g, t, &FaultSet::empty()).path_to(x).expect("connected");
        let joined = ps.join_at(&pt).expect("shared midpoint");
        prop_assert_eq!(joined.source(), s);
        prop_assert_eq!(joined.target(), t);
        prop_assert!(joined.is_valid_in(&g));
        prop_assert_eq!(joined.hops(), ps.hops() + pt.hops());
    }

    /// Weighted SSSP lower-bounds hop distance times min weight and
    /// upper-bounds it times max weight.
    #[test]
    fn weighted_sssp_sandwich((n, m, seed) in gnm_params(), wseed in any::<u64>()) {
        let g = generators::connected_gnm(n, m, seed);
        let w = EdgeWeights::random(&g, 9, wseed);
        let spt = rsp_graph::weighted_sssp(&g, &w, 0, &FaultSet::empty());
        let tree = bfs(&g, 0, &FaultSet::empty());
        for v in g.vertices() {
            let hops = tree.dist(v).expect("connected") as u64;
            let cost = *spt.cost(v).expect("connected");
            prop_assert!(cost >= hops, "min weight is 1");
            prop_assert!(cost <= hops * 9 + 9 * n as u64, "bounded by max weight");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FaultSet algebra: with/without/contains/subset laws.
    #[test]
    fn fault_set_algebra(edges in prop::collection::vec(0usize..40, 0..8), extra in 0usize..40) {
        let f = FaultSet::from_edges(edges.iter().copied());
        prop_assert_eq!(f.contains(extra), edges.contains(&extra));
        let g = f.with(extra);
        prop_assert!(g.contains(extra));
        prop_assert!(f.is_subset_of(&g));
        prop_assert_eq!(g.without(extra).contains(extra), false);
        // proper_subsets: count and strictness.
        if f.len() <= 6 {
            let subs: Vec<_> = f.proper_subsets().collect();
            prop_assert_eq!(subs.len(), (1usize << f.len()) - 1);
            for s in subs {
                prop_assert!(s.is_subset_of(&f));
                prop_assert!(s != f);
            }
        }
    }

    /// Path reversal and display invariants.
    #[test]
    fn path_reversal(verts in prop::collection::vec(0usize..50, 1..10)) {
        let p = Path::new(verts.clone());
        prop_assert_eq!(p.reversed().reversed(), p.clone());
        prop_assert_eq!(p.reversed().hops(), p.hops());
        prop_assert_eq!(p.reversed().source(), p.target());
    }
}

#[test]
fn graph_from_edges_rejects_invalid() {
    assert!(Graph::from_edges(3, [(0, 0)]).is_err());
    assert!(Graph::from_edges(3, [(0, 4)]).is_err());
    assert!(Graph::from_edges(3, [(0, 1), (1, 0)]).is_err());
}

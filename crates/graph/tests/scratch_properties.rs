//! Property tests for the reusable search scratch: `bfs_into` /
//! `dijkstra_into` with a *reused* [`SearchScratch`] must be
//! indistinguishable — trees, costs, hops, ties — from the allocating
//! `bfs` / `dijkstra`, including across back-to-back queries where stale
//! state from one query could leak into the next.

use proptest::prelude::*;
use rsp_arith::BigInt;
use rsp_graph::{
    bfs, bfs_into, dijkstra, dijkstra_into, generators, BfsTree, DirectedCosts, FaultSet, Graph,
    SearchScratch, SelectedTree,
};

fn gnm_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (3usize..=24, 0usize..=3, any::<u64>()).prop_map(|(n, density, seed)| {
        let extra = density * n / 2;
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        (n, m, seed)
    })
}

/// A `(source, fault set)` query plan over a given graph.
fn queries(
    g: &Graph,
    picks: &[(prop::sample::Index, prop::sample::Index)],
) -> Vec<(usize, FaultSet)> {
    picks
        .iter()
        .enumerate()
        .map(|(i, (sv, ev))| {
            let s = sv.index(g.n());
            let faults = match i % 3 {
                0 => FaultSet::empty(),
                1 => FaultSet::single(ev.index(g.m())),
                _ => FaultSet::from_edges([ev.index(g.m()), (ev.index(g.m()) + 1) % g.m()]),
            };
            (s, faults)
        })
        .collect()
}

fn assert_bfs_identical(g: &Graph, fresh: &BfsTree, scratch: &SearchScratch<u32>) {
    for v in g.vertices() {
        assert_eq!(scratch.dist(v), fresh.dist(v), "dist({v})");
        assert_eq!(scratch.parent(v), fresh.parent(v), "parent({v})");
        assert_eq!(
            scratch.path_to(v).map(|p| p.vertices().to_vec()),
            fresh.path_to(v).map(|p| p.vertices().to_vec()),
            "path_to({v})"
        );
    }
    let tree = scratch.to_bfs_tree();
    assert_eq!(tree.reachable_count(), fresh.reachable_count());
    assert_eq!(tree.eccentricity(), fresh.eccentricity());
}

fn assert_spt_identical<C: rsp_arith::PathCost>(
    g: &Graph,
    fresh: &SearchScratch<C>,
    scratch: &SearchScratch<C>,
) {
    for v in g.vertices() {
        assert_eq!(scratch.cost(v), fresh.cost(v), "cost({v})");
        assert_eq!(scratch.hops(v), fresh.hops(v), "hops({v})");
        assert_eq!(scratch.parent(v), fresh.parent(v), "parent({v})");
    }
    assert_eq!(scratch.ties_detected(), fresh.ties_detected(), "ties flag");
    assert_eq!(scratch.reachable_count(), fresh.reachable_count());
}

proptest! {
    /// Reused-scratch BFS equals allocating BFS on every query of a random
    /// back-to-back plan (stale-state isolation included: each comparison
    /// happens after the scratch served all previous queries).
    #[test]
    fn bfs_into_reused_equals_bfs(
        (n, m, seed) in gnm_params(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..7),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let mut scratch = SearchScratch::<u32>::new();
        for (s, faults) in queries(&g, &picks) {
            bfs_into(&g, s, &faults, &mut scratch);
            let fresh = bfs(&g, s, &faults);
            assert_bfs_identical(&g, &fresh, &scratch);
        }
    }

    /// Reused-scratch Dijkstra equals allocating Dijkstra — u64 costs with
    /// per-edge, per-direction variation.
    #[test]
    fn dijkstra_into_reused_equals_dijkstra_u64(
        (n, m, seed) in gnm_params(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..7),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let cost = |e: usize, from: usize, to: usize| {
            1_000_000u64 + (e as u64 * 17) % 1000 + if from < to { 3 } else { 5 }
        };
        let mut scratch = SearchScratch::<u64>::new();
        for (s, faults) in queries(&g, &picks) {
            dijkstra_into(&g, s, &faults, cost, &mut scratch);
            let fresh = dijkstra(&g, s, &faults, cost);
            assert_spt_identical(&g, &fresh, &scratch);
        }
    }

    /// Reused-scratch Dijkstra equals allocating Dijkstra — u128 costs via
    /// the borrowed-slice `DirectedCosts` source (the exact-scheme path).
    #[test]
    fn dijkstra_into_reused_equals_dijkstra_u128(
        (n, m, seed) in gnm_params(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..5),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let unit = 1u128 << 40;
        let fwd: Vec<u128> = (0..g.m()).map(|e| unit + (e as u128 * 7919) % 1024).collect();
        let bwd: Vec<u128> = fwd.iter().map(|f| 2 * unit - f).collect();
        let mut scratch = SearchScratch::<u128>::new();
        for (s, faults) in queries(&g, &picks) {
            dijkstra_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut scratch);
            let fresh = dijkstra(&g, s, &faults, |e, from, to| {
                if from < to { fwd[e] } else { bwd[e] }
            });
            assert_spt_identical(&g, &fresh, &scratch);
        }
    }

    /// Unit-cost reused Dijkstra agrees with BFS distances (ties galore:
    /// the scratch engine must pick the same trees as the allocating
    /// engine even when costs collide).
    #[test]
    fn unit_cost_dijkstra_into_matches_bfs(
        (n, m, seed) in gnm_params(),
        fault in any::<prop::sample::Index>(),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let e = fault.index(g.m());
        let mut scratch = SearchScratch::<u64>::new();
        for faults in [FaultSet::empty(), FaultSet::single(e)] {
            dijkstra_into(&g, 0, &faults, |_, _, _| 1u64, &mut scratch);
            let fresh = dijkstra(&g, 0, &faults, |_, _, _| 1u64);
            assert_spt_identical(&g, &fresh, &scratch);
            let tree = bfs(&g, 0, &faults);
            for v in g.vertices() {
                // Parent choices may differ (FIFO vs settle order breaks
                // ties differently); distances must not.
                prop_assert_eq!(scratch.hops(v), tree.dist(v));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// BigInt workload: limb buffers are reused across queries, so stale
    /// high limbs from a wide query must never contaminate a later query.
    #[test]
    fn dijkstra_into_reused_equals_dijkstra_bigint(
        (n, m, seed) in gnm_params(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..4),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        // Alternate wide and narrow weights between queries to stress
        // buffer reuse: query i uses weights around 2^(200/(i+1)).
        let mut scratch = SearchScratch::<BigInt>::new();
        for (i, (s, faults)) in queries(&g, &picks).into_iter().enumerate() {
            let shift = (200 / (i + 1)) as u32;
            let unit = BigInt::pow2(shift);
            let fwd: Vec<BigInt> =
                (0..g.m()).map(|e| &unit + &BigInt::from_i128(e as i128 % 97)).collect();
            let bwd: Vec<BigInt> =
                fwd.iter().map(|f| &(&unit + &unit) + &(-f.clone())).collect();
            dijkstra_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut scratch);
            let fresh = dijkstra(&g, s, &faults, |e, from, to| {
                if from < to { fwd[e].clone() } else { bwd[e].clone() }
            });
            assert_spt_identical(&g, &fresh, &scratch);
        }
    }

    /// One scratch serving graphs of different sizes back to back: results
    /// must always match a fresh run on the current graph.
    #[test]
    fn scratch_survives_graph_switches(
        (n1, m1, s1) in gnm_params(),
        (n2, m2, s2) in gnm_params(),
    ) {
        let big = generators::connected_gnm(n1.max(n2), m1.max(m2), s1);
        let small = generators::connected_gnm(n1.min(n2), m1.min(m2), s2);
        let mut scratch = SearchScratch::<u32>::new();
        for g in [&big, &small, &big, &small] {
            bfs_into(g, g.n() - 1, &FaultSet::empty(), &mut scratch);
            let fresh = bfs(g, g.n() - 1, &FaultSet::empty());
            assert_bfs_identical(g, &fresh, &scratch);
        }
    }
}

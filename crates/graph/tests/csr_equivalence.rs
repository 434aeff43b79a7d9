//! CSR-core differential suite: every production engine — `bfs_into` /
//! `dijkstra_into` for `u64`, `u128` and `BigInt` costs, `dijkstra_sweep`
//! over both of its routes and every cost type, and the `parallel_indexed`
//! fan-out over sources at 1/2/8 workers — must be cell-identical (costs,
//! hop counts, parents, reachable counts, and the single-query engine's
//! tie flags) to the pre-migration Vec-of-Vec reference engine preserved in
//! [`rsp_graph::reference`], on every generator family the workloads use:
//! `G(n,m)`, grids, hypercubes, preferential attachment, Watts–Strogatz,
//! and the ISP core/edge hierarchy.

use std::ops::ControlFlow;

use proptest::prelude::*;
use rsp_arith::{BigInt, PathCost};
use rsp_graph::reference::{ref_bfs, ref_dijkstra, RefGraph, RefTree};
use rsp_graph::{
    bfs_into, dijkstra_into, dijkstra_sweep, gen, generators, parallel_indexed, DirectedCosts,
    FaultSet, Graph, SearchScratch, SweepScratch, Vertex,
};

/// One graph drawn from the six generator families the differential suite
/// covers. `n` and `seed` steer every family; the structured families
/// (grid, hypercube) use `n` for shape only, keeping their tie-rich
/// symmetry intact.
fn family_graph() -> impl Strategy<Value = Graph> {
    (0u8..6, 10usize..=28, any::<u64>()).prop_map(|(fam, n, seed)| match fam {
        0 => {
            let m = (2 * n - 1).min(n * (n - 1) / 2);
            generators::connected_gnm(n, m, seed)
        }
        1 => generators::grid(3, n / 3),
        2 => generators::hypercube(4),
        3 => gen::preferential_attachment(n, 2, seed),
        4 => gen::watts_strogatz(n, 4, 0.2, seed),
        _ => gen::isp_hierarchy(5 + n / 4, n, seed),
    })
}

/// A `(source, fault set)` query plan: empty, single, and double fault
/// sets interleaved, shared by the CSR engine and the reference.
fn queries(
    g: &Graph,
    picks: &[(prop::sample::Index, prop::sample::Index)],
) -> Vec<(Vertex, FaultSet)> {
    picks
        .iter()
        .enumerate()
        .map(|(i, (sv, ev))| {
            let s = sv.index(g.n());
            let e = ev.index(g.m());
            let faults = match i % 3 {
                0 => FaultSet::empty(),
                1 => FaultSet::single(e),
                _ => FaultSet::from_edges([e, (e + g.m() / 2) % g.m()]),
            };
            (s, faults)
        })
        .collect()
}

fn assert_bfs_matches(g: &Graph, got: &SearchScratch<u32>, spec: &RefTree<u32>) {
    for v in g.vertices() {
        assert_eq!(got.dist(v), spec.reached(v).then_some(spec.hops[v]), "dist({v})");
        assert_eq!(got.parent(v), spec.parent[v], "parent({v})");
    }
    assert_eq!(got.reachable_count(), spec.reachable_count(), "reachable count");
}

fn assert_dijkstra_matches<C: PathCost>(g: &Graph, got: &SearchScratch<C>, spec: &RefTree<C>) {
    for v in g.vertices() {
        assert_eq!(got.cost(v), spec.cost[v].as_ref(), "cost({v})");
        assert_eq!(got.hops(v), spec.reached(v).then_some(spec.hops[v]), "hops({v})");
        assert_eq!(got.parent(v), spec.parent[v], "parent({v})");
    }
    assert_eq!(got.ties_detected(), spec.ties, "ties flag");
    assert_eq!(got.reachable_count(), spec.reachable_count(), "reachable count");
}

/// u64 costs with per-edge and per-direction variation.
fn u64_cost(e: usize, from: Vertex, to: Vertex) -> u64 {
    1_000_000 + (e as u64 * 17) % 1000 + u64::from(from < to) * 3
}

/// Runs `dijkstra_sweep` and asserts every cell equals the reference
/// matrix, whichever route (repaired, searched) answered it.
fn sweep_equals_reference<C: PathCost>(
    g: &Graph,
    srcs: &[Vertex],
    fs: &[FaultSet],
    cost: impl Fn(usize, Vertex, Vertex) -> C + Copy,
) {
    let r = RefGraph::from_graph(g);
    let spec: Vec<Vec<RefTree<C>>> =
        srcs.iter().map(|&s| fs.iter().map(|f| ref_dijkstra(&r, s, f, cost)).collect()).collect();
    let mut sweep = SweepScratch::<C>::new();
    dijkstra_sweep(g, srcs, fs, cost, &mut sweep, |si, fi, tree| {
        let spec = &spec[si][fi];
        for v in g.vertices() {
            assert_eq!(tree.cost(v), spec.cost[v].as_ref(), "cost({v})");
            assert_eq!(tree.hops(v), spec.reached(v).then_some(spec.hops[v]), "hops({v})");
            assert_eq!(tree.parent(v), spec.parent[v], "parent({v})");
        }
        assert_eq!(tree.reachable_count(), spec.reachable_count(), "reachable count");
        ControlFlow::Continue(())
    });
    assert_eq!(sweep.stats().queries(), srcs.len() * fs.len());
}

proptest! {
    /// `bfs_into` equals the reference BFS on every family, with the
    /// scratch reused across the whole query plan.
    #[test]
    fn bfs_equals_reference_on_every_family(
        g in family_graph(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..7),
    ) {
        let r = RefGraph::from_graph(&g);
        let mut scratch = SearchScratch::<u32>::new();
        for (s, faults) in queries(&g, &picks) {
            bfs_into(&g, s, &faults, &mut scratch);
            assert_bfs_matches(&g, &scratch, &ref_bfs(&r, s, &faults));
        }
    }

    /// The engine with u64 costs equals the reference lazy heap.
    #[test]
    fn dijkstra_inline_key_equals_reference(
        g in family_graph(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..7),
    ) {
        let r = RefGraph::from_graph(&g);
        let mut scratch = SearchScratch::<u64>::new();
        for (s, faults) in queries(&g, &picks) {
            dijkstra_into(&g, s, &faults, u64_cost, &mut scratch);
            assert_dijkstra_matches(&g, &scratch, &ref_dijkstra(&r, s, &faults, u64_cost));
        }
    }

    /// The engine with heap-allocated `BigInt` costs equals the same
    /// reference.
    #[test]
    fn dijkstra_bigint_equals_reference(
        g in family_graph(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..5),
    ) {
        let r = RefGraph::from_graph(&g);
        let cost = |e: usize, from: Vertex, to: Vertex| {
            BigInt::from(1_000_000i64 + (e as i64 * 17) % 1000 + i64::from(from < to) * 3)
        };
        let mut scratch = SearchScratch::<BigInt>::new();
        for (s, faults) in queries(&g, &picks) {
            dijkstra_into(&g, s, &faults, cost, &mut scratch);
            assert_dijkstra_matches(&g, &scratch, &ref_dijkstra(&r, s, &faults, cost));
        }
    }

    /// The borrowed-slice `DirectedCosts` source (the exact-scheme u128
    /// path) equals a closure reading the same tables in the reference.
    #[test]
    fn dijkstra_directed_costs_equals_reference(
        g in family_graph(),
        picks in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..5),
    ) {
        let r = RefGraph::from_graph(&g);
        let unit = 1u128 << 40;
        let fwd: Vec<u128> = (0..g.m()).map(|e| unit + (e as u128 * 7919) % 1024).collect();
        let bwd: Vec<u128> = fwd.iter().map(|f| 2 * unit - f).collect();
        let mut scratch = SearchScratch::<u128>::new();
        for (s, faults) in queries(&g, &picks) {
            dijkstra_into(&g, s, &faults, DirectedCosts::new(&fwd, &bwd), &mut scratch);
            let spec = ref_dijkstra(&r, s, &faults, |e, from, to| {
                if from < to { fwd[e] } else { bwd[e] }
            });
            assert_dijkstra_matches(&g, &scratch, &spec);
        }
    }

    /// `dijkstra_sweep` — both routes (repaired over the base run, and
    /// searched where a tie leaves the tree unforced), for `u64` and
    /// `BigInt` costs — equals the reference on every cell of the
    /// `sources × fault_sets` plan. Near-colliding costs exercise both
    /// routes; `BigInt` covers the kernel's heap-allocated costs.
    #[test]
    fn sweep_equals_reference_under_all_routes_and_costs(
        g in family_graph(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let fs: Vec<FaultSet> = fault_picks
            .iter()
            .enumerate()
            .map(|(i, pick)| {
                let e = pick.index(g.m());
                match i % 3 {
                    0 => FaultSet::single(e),
                    1 => FaultSet::from_edges([e, (e + g.m() / 2) % g.m()]),
                    _ => FaultSet::empty(),
                }
            })
            .collect();
        let srcs: Vec<Vertex> = source_picks.iter().map(|p| p.index(g.n())).collect();
        let cost = |e: usize, from: Vertex, to: Vertex| {
            1_000u64 + (e as u64 * 17) % 3 + u64::from(from < to)
        };
        sweep_equals_reference(&g, &srcs, &fs, cost);
        sweep_equals_reference(&g, &srcs, &fs, |e, from, to| BigInt::from(cost(e, from, to) as i64));
    }

    /// `parallel_indexed` over sources at 1, 2, and 8 workers (one
    /// scratch per worker, one `dijkstra_into` / `bfs_into` per query)
    /// equals the reference matrix.
    #[test]
    fn parallel_fan_out_equals_reference(
        g in family_graph(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..5),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let r = RefGraph::from_graph(&g);
        let fs: Vec<FaultSet> =
            fault_picks.iter().map(|p| FaultSet::single(p.index(g.m()))).collect();
        let srcs: Vec<Vertex> = source_picks.iter().map(|p| p.index(g.n())).collect();

        type Cells<C> = (Vec<Option<C>>, Vec<Option<(Vertex, usize)>>, bool, usize);
        let dijkstra_spec: Vec<Vec<Cells<u64>>> = srcs
            .iter()
            .map(|&s| {
                fs.iter()
                    .map(|f| {
                        let t = ref_dijkstra(&r, s, f, u64_cost);
                        (t.cost.clone(), t.parent.clone(), t.ties, t.reachable_count())
                    })
                    .collect()
            })
            .collect();
        for workers in [1usize, 2, 8] {
            let par = parallel_indexed(
                srcs.len(),
                workers,
                |_| SearchScratch::<u64>::new(),
                |s, i| {
                    fs.iter()
                        .map(|f| {
                            dijkstra_into(&g, srcs[i], f, u64_cost, s);
                            (
                                g.vertices().map(|v| s.cost(v).copied()).collect::<Vec<_>>(),
                                g.vertices().map(|v| s.parent(v)).collect::<Vec<_>>(),
                                s.ties_detected(),
                                s.reachable_count(),
                            )
                        })
                        .collect::<Vec<_>>()
                },
            );
            prop_assert_eq!(&par, &dijkstra_spec, "dijkstra workers={}", workers);
        }

        let bfs_spec: Vec<Vec<_>> = srcs
            .iter()
            .map(|&s| {
                fs.iter()
                    .map(|f| {
                        let t = ref_bfs(&r, s, f);
                        let dist: Vec<Option<u32>> =
                            g.vertices().map(|v| t.reached(v).then_some(t.hops[v])).collect();
                        (dist, t.parent.clone())
                    })
                    .collect()
            })
            .collect();
        for workers in [1usize, 2, 8] {
            let par = parallel_indexed(
                srcs.len(),
                workers,
                |_| SearchScratch::<u32>::new(),
                |s, i| {
                    fs.iter()
                        .map(|f| {
                            bfs_into(&g, srcs[i], f, s);
                            (
                                g.vertices().map(|v| s.dist(v)).collect::<Vec<_>>(),
                                g.vertices().map(|v| s.parent(v)).collect::<Vec<_>>(),
                            )
                        })
                        .collect::<Vec<_>>()
                },
            );
            prop_assert_eq!(&par, &bfs_spec, "bfs workers={}", workers);
        }
    }
}

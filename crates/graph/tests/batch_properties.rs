//! Property tests for the batch query engine: `dijkstra_batch` (prefix
//! sharing and checkpointed resume), also fanned out over sources with
//! `parallel_indexed`, must be byte-for-byte indistinguishable —
//! distances, costs, parents, tie flags — from running the single-query
//! engine once per `(source, fault set)`, for fault sets in arbitrary
//! order and for worker counts 1, 2, and 8.

use std::ops::ControlFlow;

use proptest::prelude::*;
use rsp_graph::{
    bfs_into, dijkstra_batch, dijkstra_into, generators, parallel_indexed, BatchScratch,
    DirectedCosts, FaultSet, Graph, SearchScratch, Vertex,
};

fn gnm_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (3usize..=24, 0usize..=3, any::<u64>()).prop_map(|(n, density, seed)| {
        let extra = density * n / 2;
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        (n, m, seed)
    })
}

/// Fault sets in arbitrary order: empty, singles, and doubles interleaved
/// however the picks land — the batch engine must not care whether
/// near-source faults precede or follow far ones.
fn fault_sets(g: &Graph, picks: &[prop::sample::Index]) -> Vec<FaultSet> {
    picks
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
        .collect()
}

fn sources(g: &Graph, picks: &[prop::sample::Index]) -> Vec<Vertex> {
    picks.iter().map(|p| p.index(g.n())).collect()
}

/// Everything observable about one query result, materialized for
/// cross-engine and cross-worker-count comparison.
type Snapshot<C> = (Vec<Option<(C, u32)>>, Vec<Option<(Vertex, usize)>>, bool, usize);

fn snapshot<C: rsp_arith::PathCost>(g: &Graph, s: &SearchScratch<C>) -> Snapshot<C> {
    (
        g.vertices().map(|v| s.cost(v).map(|c| (c.clone(), s.hops(v).unwrap()))).collect(),
        g.vertices().map(|v| s.parent(v)).collect(),
        s.ties_detected(),
        s.reachable_count(),
    )
}

/// The BFS analogue of [`Snapshot`]: per-vertex distances and parents.
type BfsSnapshot = (Vec<Option<u32>>, Vec<Option<(Vertex, usize)>>);

fn bfs_snapshot(g: &Graph, s: &SearchScratch<u32>) -> BfsSnapshot {
    (g.vertices().map(|v| s.dist(v)).collect(), g.vertices().map(|v| s.parent(v)).collect())
}

/// Runs `dijkstra_batch` once, asserting every cell equals a per-query
/// `dijkstra_into` and the stats account for every query. Needs a
/// connected graph with `n ≥ 16`, so that at least the `n/2` checkpoint
/// depth is capturable.
fn resume_routes_equal_single_queries<C: rsp_arith::PathCost>(
    g: &Graph,
    srcs: &[Vertex],
    fs: &[FaultSet],
    cost: impl Fn(usize, Vertex, Vertex) -> C + Copy,
) {
    let mut single = SearchScratch::<C>::new();
    let mut batch = BatchScratch::<C>::new();
    dijkstra_batch(g, srcs, fs, cost, &mut batch, |si, fi, result| {
        dijkstra_into(g, srcs[si], &fs[fi], cost, &mut single);
        assert_eq!(snapshot(g, result), snapshot(g, &single), "s{si} f{fi}");
        ControlFlow::Continue(())
    });
    let stats = batch.stats();
    assert_eq!(stats.queries, srcs.len() * fs.len());
    assert_eq!(
        stats.queries,
        stats.baseline_answered
            + stats.checkpoint_resumed
            + stats.prefix_resumed
            + stats.full_searches,
        "query accounting"
    );
    assert!(stats.checkpoints_captured >= srcs.len());
}

proptest! {
    /// `dijkstra_batch` equals per-query `dijkstra_into` — u64 costs with
    /// per-edge, per-direction variation.
    #[test]
    fn dijkstra_batch_equals_single_queries_u64(
        (n, m, seed) in gnm_params(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..8),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let fs = fault_sets(&g, &fault_picks);
        let srcs = sources(&g, &source_picks);
        let cost = |e: usize, from: usize, to: usize| {
            1_000_000u64 + (e as u64 * 17) % 1000 + if from < to { 3 } else { 5 }
        };
        let mut batch = BatchScratch::<u64>::new();
        let mut single = SearchScratch::<u64>::new();
        dijkstra_batch(&g, &srcs, &fs, cost, &mut batch, |si, fi, result| {
            dijkstra_into(&g, srcs[si], &fs[fi], cost, &mut single);
            assert_eq!(snapshot(&g, result), snapshot(&g, &single), "s{si} f{fi}");
            ControlFlow::Continue(())
        });
    }

    /// Unit costs collide everywhere: prefix sharing must reproduce the
    /// exact tie flags and tree choices of the single-query engine.
    #[test]
    fn dijkstra_batch_ties_equal_single_queries(
        (n, m, seed) in gnm_params(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let fs = fault_sets(&g, &fault_picks);
        let mut batch = BatchScratch::<u64>::new();
        let mut single = SearchScratch::<u64>::new();
        let srcs: Vec<Vertex> = vec![0, g.n() - 1];
        dijkstra_batch(&g, &srcs, &fs, |_, _, _| 1u64, &mut batch, |si, fi, result| {
            dijkstra_into(&g, srcs[si], &fs[fi], |_, _, _| 1u64, &mut single);
            assert_eq!(snapshot(&g, result), snapshot(&g, &single), "s{si} f{fi}");
            ControlFlow::Continue(())
        });
    }

    /// The u128 `DirectedCosts` path (the exact-scheme workload) through
    /// the batch engine.
    #[test]
    fn dijkstra_batch_equals_single_queries_u128(
        (n, m, seed) in gnm_params(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let unit = 1u128 << 40;
        let fwd: Vec<u128> = (0..g.m()).map(|e| unit + (e as u128 * 7919) % 1024).collect();
        let bwd: Vec<u128> = fwd.iter().map(|f| 2 * unit - f).collect();
        let fs = fault_sets(&g, &fault_picks);
        let srcs = sources(&g, &source_picks);
        let mut batch = BatchScratch::<u128>::new();
        let mut single = SearchScratch::<u128>::new();
        dijkstra_batch(&g, &srcs, &fs, DirectedCosts::new(&fwd, &bwd), &mut batch, |si, fi, r| {
            dijkstra_into(&g, srcs[si], &fs[fi], DirectedCosts::new(&fwd, &bwd), &mut single);
            assert_eq!(snapshot(&g, r), snapshot(&g, &single), "s{si} f{fi}");
            ControlFlow::Continue(())
        });
    }

    /// Checkpointed resume (and the replay resume of queries diverging
    /// before the first checkpoint) is byte-identical to the single-query
    /// engine — for `u64` and `BigInt` costs — for arbitrary graphs,
    /// fault-set orders, and sources. Graphs are drawn large enough that
    /// the batch genuinely captures (depth `n/2 ≥ 8`), and near-colliding
    /// costs make tie flags part of the comparison.
    #[test]
    fn checkpointed_resume_equals_single_queries(
        n in 16usize..=48,
        density in 0usize..=3,
        seed in any::<u64>(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..8),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let m = (n - 1 + density * n / 2).min(n * (n - 1) / 2);
        let g = generators::connected_gnm(n, m, seed);
        let fs = fault_sets(&g, &fault_picks);
        let srcs = sources(&g, &source_picks);
        let cost = |e: usize, from: usize, to: usize| {
            1_000u64 + (e as u64 * 17) % 3 + u64::from(from < to)
        };
        resume_routes_equal_single_queries(&g, &srcs, &fs, cost);
        resume_routes_equal_single_queries(&g, &srcs, &fs, |e, from, to| {
            rsp_arith::BigInt::from(cost(e, from, to) as i64)
        });
    }

    /// Sources fanned out over `parallel_indexed` (one scratch per worker)
    /// produce identical result matrices at 1, 2, and 8 workers — and all
    /// match the sequential single-query engine: `dijkstra_batch` per
    /// source for the weighted engine, `bfs_into` per query for BFS.
    #[test]
    fn parallel_fan_out_is_worker_count_invariant(
        (n, m, seed) in gnm_params(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let fs = fault_sets(&g, &fault_picks);
        let srcs = sources(&g, &source_picks);
        let cost = |e: usize, from: usize, to: usize| {
            1_000u64 + (e as u64 % 13) + u64::from(from < to)
        };

        // Sequential reference, one single-query run per cell.
        let mut single = SearchScratch::<u64>::new();
        let reference: Vec<Vec<Snapshot<u64>>> = srcs
            .iter()
            .map(|&s| {
                fs.iter()
                    .map(|f| {
                        dijkstra_into(&g, s, f, cost, &mut single);
                        snapshot(&g, &single)
                    })
                    .collect()
            })
            .collect();

        for workers in [1usize, 2, 8] {
            let par = parallel_indexed(
                srcs.len(),
                workers,
                |_| BatchScratch::<u64>::new(),
                |batch, i| {
                    let mut row = Vec::with_capacity(fs.len());
                    dijkstra_batch(&g, &srcs[i..=i], &fs, cost, batch, |_, _, r| {
                        row.push(snapshot(&g, r));
                        ControlFlow::Continue(())
                    });
                    row
                },
            );
            prop_assert_eq!(&par, &reference, "dijkstra workers={}", workers);
        }

        let mut bfs_single = SearchScratch::<u32>::new();
        let bfs_reference: Vec<Vec<_>> = srcs
            .iter()
            .map(|&s| {
                fs.iter()
                    .map(|f| {
                        bfs_into(&g, s, f, &mut bfs_single);
                        bfs_snapshot(&g, &bfs_single)
                    })
                    .collect()
            })
            .collect();
        for workers in [1usize, 2, 8] {
            let par = parallel_indexed(
                srcs.len(),
                workers,
                |_| SearchScratch::<u32>::new(),
                |scratch, i| {
                    fs.iter()
                        .map(|f| {
                            bfs_into(&g, srcs[i], f, scratch);
                            bfs_snapshot(&g, scratch)
                        })
                        .collect::<Vec<_>>()
                },
            );
            prop_assert_eq!(&par, &bfs_reference, "bfs workers={}", workers);
        }
    }
}

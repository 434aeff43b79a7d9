//! Multi-fault sweep benchmarks: the per-query engine (one reused
//! `SearchScratch`, one full search per `(source, fault set)` query)
//! versus the sweep (`dijkstra_sweep`: one fault-free base run per
//! source, then each fault set applied edge by edge by the repair
//! kernel, searching only where a tie leaves the tree unforced).
//!
//! The workload mirrors the restorability/preserver access pattern: every
//! sweep is `sources × (∅ + fault sets)` under Theorem 20 perturbed
//! `u128` costs. Four weighted families cover both regimes:
//!
//! * **singles** spread across the edge set (`8x33` groups) on a tie-rich
//!   grid and on a dense `G(n, m ≈ n^1.5)` — the PR 3 baseline workload,
//!   directly diffable against `BENCH_3.json`;
//! * **clustered `f = 2, 3` sets** (`f2`/`f3` groups) — the Bodwin–Wang
//!   (arXiv:2309.07964) multi-fault trade-off regime: each set's edges sit
//!   in one small neighborhood, applied one at a time by the kernel.
//!
//! Each family times two rows: `per_query` is the reused-scratch
//! single-query engine (`query_engine`'s `inline_reuse` rows) and
//! `batched` the sweep. The row names predate the sweep (they timed the
//! prefix-sharing batch engine it replaced) and are kept so runs stay
//! diffable with `BENCH_26.json`. After the timed rows each family
//! prints its [`rsp_graph::SweepStats`]: how many queries the kernel
//! repaired and how many fell back to a search.
//!
//! Append results to the repo's `BENCH_<n>.json` trajectory with:
//!
//! ```sh
//! CRITERION_JSON_PATH="$PWD/BENCH_4.json" \
//!   cargo bench -p rsp_bench --bench query_batch
//! ```

use std::ops::ControlFlow;

use criterion::{criterion_group, criterion_main, Criterion};
use rsp_core::RandomGridAtw;
use rsp_graph::{
    dijkstra_sweep, generators, FaultSet, Graph, SearchScratch, SelectedTree, SweepScratch, Vertex,
};

/// `∅` plus `queries` single faults spread across the edge set: most
/// detach small subtrees of any given source's tree.
fn fault_batch(g: &Graph, queries: usize) -> Vec<FaultSet> {
    std::iter::once(FaultSet::empty())
        .chain((0..queries).map(|i| FaultSet::single(i * g.m() / queries)))
        .collect()
}

/// `∅` plus `count` clustered `f`-edge fault sets, each clustered around a
/// center vertex spread across the graph: a correlated failure (a router
/// and its uplinks) rather than `f` independent ones. Deterministic so
/// runs are diffable.
fn clustered_fault_batch(g: &Graph, f: usize, count: usize) -> Vec<FaultSet> {
    std::iter::once(FaultSet::empty())
        .chain((0..count).map(|i| {
            let center = i * g.n() / count;
            // Grow the cluster outward from the center in discovery
            // order until it holds f distinct edges.
            let mut edges: Vec<usize> = Vec::with_capacity(f);
            let mut cluster = vec![center];
            let mut next = 0;
            while edges.len() < f && next < cluster.len() {
                let u = cluster[next];
                next += 1;
                for (v, e) in g.neighbors(u) {
                    if edges.len() >= f {
                        break;
                    }
                    if !edges.contains(&e) {
                        edges.push(e);
                        cluster.push(v);
                    }
                }
            }
            FaultSet::from_edges(edges)
        }))
        .collect()
}

/// One weighted group: `per_query` vs `batched` (the sweep), then a
/// stats print for the sweep.
fn bench_weighted_family(
    c: &mut Criterion,
    label: &str,
    g: &Graph,
    sources: &[Vertex],
    faults: &[FaultSet],
) {
    let scheme = RandomGridAtw::theorem20(g, 42).into_scheme();

    let mut group = c.benchmark_group(label);
    let mut single = SearchScratch::<u128>::with_capacity(g.n());
    group.bench_function("per_query", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for &s in sources {
                for f in faults {
                    scheme.spt_into(s, f, &mut single);
                    reached += single.reachable_count();
                }
            }
            reached
        })
    });
    let mut sweep = SweepScratch::<u128>::new();
    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            dijkstra_sweep(g, sources, faults, scheme.directed_costs(), &mut sweep, |_, _, t| {
                reached += t.reachable_count();
                ControlFlow::Continue(())
            });
            reached
        })
    });
    group.finish();

    // One clean pass so the printed stats describe a single sweep, not an
    // iteration-count multiple.
    sweep.reset_stats();
    dijkstra_sweep(g, sources, faults, scheme.directed_costs(), &mut sweep, |_, _, _| {
        ControlFlow::Continue(())
    });
    println!("{label}/batched stats: {}", sweep.stats());
}

fn bench_weighted(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let sources: Vec<Vertex> = (0..8).map(|i| i * g.n() / 8).collect();
    let faults = fault_batch(&g, 32);
    bench_weighted_family(c, "query_batch/u128_grid16x16_8x33", &g, &sources, &faults);
}

/// The ROADMAP dense workload: `G(n, m ≈ n^1.5)`, where a search scans
/// degree-24 adjacency lists and a repair only the detached subtrees'.
fn bench_weighted_dense(c: &mut Criterion) {
    // n = 144, m = 144^1.5 = 1728: average degree 24 on as many vertices
    // as the bench budget allows at sample_size 20.
    let g = generators::connected_gnm(144, 1728, 7);
    let sources: Vec<Vertex> = (0..8).map(|i| i * g.n() / 8).collect();
    let faults = fault_batch(&g, 32);
    bench_weighted_family(c, "query_batch/u128_gnm144_1728_8x33", &g, &sources, &faults);
}

/// The Bodwin–Wang multi-fault regime: clustered `f = 2, 3` fault sets.
fn bench_weighted_multifault(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let sources: Vec<Vertex> = (0..8).map(|i| i * g.n() / 8).collect();
    for f in [2usize, 3] {
        let faults = clustered_fault_batch(&g, f, 16);
        let label = format!("query_batch/u128_grid16x16_f{f}_8x17");
        bench_weighted_family(c, &label, &g, &sources, &faults);
    }
}

fn config() -> Criterion {
    Criterion::default().sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_weighted, bench_weighted_dense, bench_weighted_multifault
}
criterion_main!(benches);

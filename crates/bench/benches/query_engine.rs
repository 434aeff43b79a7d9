//! Query-engine microbenchmarks: the allocating reference Dijkstra versus
//! the scratch engine, fresh-scratch and reused-scratch, across the three
//! cost types the tiebreaking schemes use (`u64`, `u128`, `BigInt`) plus
//! the unweighted BFS layer.
//!
//! Each iteration replays a fixed batch of `(source, single-fault)` queries
//! — the access pattern of the restorability, preserver, and replacement
//! experiments. Three engines are compared per workload:
//!
//! * `reference_alloc` — [`rsp_graph::reference::ref_dijkstra`], the
//!   executable specification the differential suites pin the engine to:
//!   fresh `O(n)` vectors per query over a Vec-of-Vec adjacency (built
//!   once, outside the timed loop) and a `BinaryHeap<Reverse<(C,
//!   Vertex)>>` that clones every relaxed cost into the heap;
//! * `scratch_fresh` — the scratch engine through the allocating wrappers
//!   (one fresh `SearchScratch` per query);
//! * `inline_reuse` — the scratch engine with one `SearchScratch` reused
//!   across the whole batch (the intended hot-loop shape).
//!
//! A `u64_gnm20k_80k` group measures the engine on a graph whose cost
//! array outgrows cache.

use criterion::{criterion_group, criterion_main, Criterion};
use rsp_arith::PathCost;
use rsp_core::{ExactScheme, GeometricAtw, RandomGridAtw, Rpts};
use rsp_graph::reference::{ref_dijkstra, RefGraph};
use rsp_graph::{
    bfs, bfs_into, dijkstra, dijkstra_into, gen, generators, EdgeId, FaultSet, Graph,
    SearchScratch, SelectedTree, Vertex,
};

/// Single-fault queries spread across the edge set, all from source 0.
fn fault_batch(g: &Graph, queries: usize) -> Vec<FaultSet> {
    (0..queries).map(|i| FaultSet::single(i * g.m() / queries)).collect()
}

/// One `reference_alloc` iteration: the reference engine over every fault
/// set, returning the total reached-vertex count.
fn reference_batch<C, F>(r: &RefGraph, faults: &[FaultSet], edge_cost: F) -> usize
where
    C: PathCost,
    F: Fn(EdgeId, Vertex, Vertex) -> C + Copy,
{
    faults.iter().map(|f| ref_dijkstra(r, 0, f, edge_cost).reachable_count()).sum()
}

/// Benchmarks the three engines over a scheme's exact costs.
fn bench_scheme_engines<C: PathCost + 'static>(
    c: &mut Criterion,
    label: &str,
    scheme: &ExactScheme<C>,
    queries: usize,
) {
    let g = scheme.graph().clone();
    let faults = fault_batch(&g, queries);
    let r = RefGraph::from_graph(&g);

    let mut group = c.benchmark_group(label);
    group.bench_function("reference_alloc", |b| {
        b.iter(|| reference_batch(&r, &faults, |e, u, v| scheme.edge_cost(e, u, v)))
    });
    group.bench_function("scratch_fresh", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                reached += scheme.spt(0, f).reachable_count();
            }
            reached
        })
    });
    let mut scratch = SearchScratch::<C>::with_capacity(g.n());
    group.bench_function("inline_reuse", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                scheme.spt_into(0, f, &mut scratch);
                reached += scratch.reachable_count();
            }
            reached
        })
    });
    group.finish();
}

/// u64 costs on a grid: closure-supplied weights, no scheme overhead.
fn bench_u64_grid(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let faults = fault_batch(&g, 8);
    let cost = |e: EdgeId, from: Vertex, to: Vertex| {
        1_000_000u64 + (e as u64 % 251) + u64::from(from < to)
    };

    let r = RefGraph::from_graph(&g);

    let mut group = c.benchmark_group("query_engine/u64_grid16x16");
    group.bench_function("reference_alloc", |b| b.iter(|| reference_batch(&r, &faults, cost)));
    group.bench_function("scratch_fresh", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                reached += dijkstra(&g, 0, f, cost).reachable_count();
            }
            reached
        })
    });
    let mut inline = SearchScratch::<u64>::with_capacity(g.n());
    group.bench_function("inline_reuse", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                dijkstra_into(&g, 0, f, cost, &mut inline);
                reached += inline.reachable_count();
            }
            reached
        })
    });
    group.finish();
}

/// u64 costs on a 20k-vertex G(n,m): the cost and stamp arrays outgrow
/// cache.
fn bench_u64_large(c: &mut Criterion) {
    let g = generators::connected_gnm(20_000, 80_000, 11);
    let faults = fault_batch(&g, 4);
    let cost = |e: EdgeId, from: Vertex, to: Vertex| {
        1_000_000u64 + (e as u64 % 251) + u64::from(from < to)
    };

    let r = RefGraph::from_graph(&g);

    let mut group = c.benchmark_group("query_engine/u64_gnm20k_80k");
    group.bench_function("reference_alloc", |b| b.iter(|| reference_batch(&r, &faults, cost)));
    let mut inline = SearchScratch::<u64>::with_capacity(g.n());
    group.bench_function("inline_reuse", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                dijkstra_into(&g, 0, f, cost, &mut inline);
                reached += inline.reachable_count();
            }
            reached
        })
    });
    group.finish();
}

/// u128 costs: the Theorem 20 randomized scheme on a random graph.
fn bench_u128_random(c: &mut Criterion) {
    let g = generators::connected_gnm(300, 1200, 7);
    let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
    bench_scheme_engines(c, "query_engine/u128_gnm300", &scheme, 8);
}

/// BigInt costs: the Theorem 23 deterministic geometric scheme — the
/// workload where heap clones and per-edge allocations hurt most.
fn bench_bigint_grid(c: &mut Criterion) {
    let g = generators::grid(10, 10);
    let scheme = GeometricAtw::new(&g).into_scheme();
    bench_scheme_engines(c, "query_engine/bigint_grid10x10", &scheme, 8);
}

/// The vertex count for the scaling group: `RSP_SCALING_N` if set (CI
/// smoke pins `10_000`), else the BENCH_10 default of `100_000`. Go to
/// `1_000_000` for the full scaling sweep — the group names embed `n`,
/// so trajectory rows at different scales never collide.
fn scaling_n() -> usize {
    std::env::var("RSP_SCALING_N").ok().and_then(|s| s.parse().ok()).unwrap_or(100_000)
}

/// The CSR scaling group: the query engine at `n = 10^5`–`10^6` on the
/// three Internet-shaped families (`rsp_graph::gen`), u64 costs — the
/// workload the flat `u32` CSR layout exists for. Per family: reused-
/// scratch BFS and Dijkstra, two single-fault queries per
/// iteration from source 0. Each family prints an `n`/`m`/CSR-footprint
/// provenance line so recorded JSON rows can cite the memory story.
fn bench_scaling(c: &mut Criterion) {
    let n = scaling_n();
    let cost = |e: EdgeId, from: Vertex, to: Vertex| {
        1_000_000u64 + (e as u64 % 251) + u64::from(from < to)
    };
    let families: [(&str, Graph); 3] = [
        ("pa", gen::preferential_attachment(n, 3, 42)),
        ("ws", gen::watts_strogatz(n, 6, 0.05, 42)),
        ("isp", gen::isp_hierarchy(n / 10, n - n / 10, 42)),
    ];
    for (family, g) in families {
        println!(
            "scaling/{family}: n={} m={} csr_bytes={} ({:.1} B/edge-slot)",
            g.n(),
            g.m(),
            g.memory_bytes(),
            g.memory_bytes() as f64 / (2 * g.m()) as f64,
        );
        let faults = fault_batch(&g, 2);
        let mut group = c.benchmark_group(format!("query_engine/scaling_{family}_n{n}"));
        let mut bfs_scratch = SearchScratch::<u32>::with_capacity(g.n());
        group.bench_function("bfs_scratch", |b| {
            b.iter(|| {
                let mut reached = 0usize;
                for f in &faults {
                    bfs_into(&g, 0, f, &mut bfs_scratch);
                    reached += bfs_scratch.reachable_count();
                }
                reached
            })
        });
        let mut inline = SearchScratch::<u64>::with_capacity(g.n());
        group.bench_function("inline_reuse", |b| {
            b.iter(|| {
                let mut reached = 0usize;
                for f in &faults {
                    dijkstra_into(&g, 0, f, cost, &mut inline);
                    reached += inline.reachable_count();
                }
                reached
            })
        });
        group.finish();
    }
}

/// The unweighted layer: allocating BFS versus reused-scratch BFS.
fn bench_bfs(c: &mut Criterion) {
    let g = generators::connected_gnm(400, 1600, 3);
    let faults = fault_batch(&g, 16);

    let mut group = c.benchmark_group("query_engine/bfs_gnm400");
    group.bench_function("alloc", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                reached += bfs(&g, 0, f).reachable_count();
            }
            reached
        })
    });
    let mut scratch = SearchScratch::<u32>::with_capacity(g.n());
    group.bench_function("scratch_reuse", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for f in &faults {
                bfs_into(&g, 0, f, &mut scratch);
                reached += scratch.reachable_count();
            }
            reached
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_u64_grid, bench_u64_large, bench_u128_random, bench_bigint_grid, bench_bfs,
        bench_scaling
}
criterion_main!(benches);

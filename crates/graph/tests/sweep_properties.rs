//! Property tests for the repair kernel (`rsp_graph::repair`) and the
//! sweep over it (`dijkstra_sweep`): every sweep answer — repaired or
//! searched, also fanned out over sources with `parallel_indexed` — must
//! equal running the single-query engine once per `(source, fault set)`
//! in costs, hop counts, parents and reachable count, for fault sets in
//! arbitrary order, f = 1..3, every generator family, and worker counts
//! 1, 2 and 8.

use std::ops::ControlFlow;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_arith::PathCost;
use rsp_graph::reference::{ref_dijkstra, RefGraph};
use rsp_graph::repair::{RepairScratch, Tie};
use rsp_graph::{
    dijkstra_into, dijkstra_sweep, gen, generators, parallel_indexed, tree_edge_child, FaultSet,
    Graph, SearchScratch, SweepScratch, SweepStats, SweepView, Vertex,
};

fn gnm_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (3usize..=24, 0usize..=3, any::<u64>()).prop_map(|(n, density, seed)| {
        let extra = density * n / 2;
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        (n, m, seed)
    })
}

/// Fault sets in arbitrary order: empty, singles, and doubles interleaved
/// however the picks land.
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

/// Everything observable about one query's tree, materialized for
/// cross-engine and cross-worker-count comparison.
type Snapshot<C> = (Vec<Option<(C, u32)>>, Vec<Option<(Vertex, usize)>>, usize);

fn snapshot<C: PathCost>(g: &Graph, s: &SearchScratch<C>) -> Snapshot<C> {
    (
        g.vertices().map(|v| s.cost(v).map(|c| (c.clone(), s.hops(v).unwrap()))).collect(),
        g.vertices().map(|v| s.parent(v)).collect(),
        s.reachable_count(),
    )
}

fn view_snapshot<C: PathCost>(g: &Graph, t: &SweepView<'_, C>) -> Snapshot<C> {
    (
        g.vertices().map(|v| t.cost(v).map(|c| (c.clone(), t.hops(v).unwrap()))).collect(),
        g.vertices().map(|v| t.parent(v)).collect(),
        t.reachable_count(),
    )
}

/// Runs one sweep, asserting every answer equals a per-query
/// `dijkstra_into` and the reference engine, and the stats account for
/// every query.
fn sweep_equals_single_queries<C: PathCost>(
    g: &Graph,
    srcs: &[Vertex],
    fs: &[FaultSet],
    cost: impl Fn(usize, Vertex, Vertex) -> C + Copy,
) -> SweepStats {
    let r = RefGraph::from_graph(g);
    let mut single = SearchScratch::<C>::new();
    let mut sweep = SweepScratch::<C>::new();
    dijkstra_sweep(g, srcs, fs, cost, &mut sweep, |si, fi, tree| {
        let got = view_snapshot(g, &tree);
        dijkstra_into(g, srcs[si], &fs[fi], cost, &mut single);
        assert_eq!(got, snapshot(g, &single), "s{si} f{fi}");
        let spec = ref_dijkstra(&r, srcs[si], &fs[fi], cost);
        let spec_cells = g.vertices().map(|v| spec.cost[v].clone().map(|c| (c, spec.hops[v])));
        assert_eq!(got.0, spec_cells.collect::<Vec<_>>(), "s{si} f{fi}: reference costs");
        assert_eq!(got.1, spec.parent, "s{si} f{fi}: reference parents");
        assert_eq!(got.2, spec.reachable_count(), "s{si} f{fi}: reference reach");
        ControlFlow::Continue(())
    });
    assert_eq!(sweep.stats().queries(), srcs.len() * fs.len(), "query accounting");
    *sweep.stats()
}

/// [`sweep_equals_single_queries`] one source at a time, also asserting
/// that a source whose base run ties never repairs. Returns the total.
fn sweep_per_source<C: PathCost>(
    g: &Graph,
    srcs: &[Vertex],
    fs: &[FaultSet],
    cost: impl Fn(usize, Vertex, Vertex) -> C + Copy,
) -> SweepStats {
    let mut total = SweepStats::default();
    let mut base = SearchScratch::<C>::new();
    for &s in srcs {
        let stats = sweep_equals_single_queries(g, &[s], fs, cost);
        dijkstra_into(g, s, &FaultSet::empty(), cost, &mut base);
        if base.ties_detected() {
            assert_eq!(stats.repaired, 0, "source {s}: a tied base always falls back");
        }
        total.repaired += stats.repaired;
        total.searched += stats.searched;
    }
    total
}

/// Per-direction costs as Theorem 20 draws them: `unit ± i` with `i`
/// uniform in `[-K, K]`, `K = 2^60`, `unit = 2nK`, so hop classes never
/// mix and distinct paths tie with negligible probability.
fn theorem20_costs(g: &Graph, seed: u64) -> (Vec<u128>, Vec<u128>) {
    let half_width = 1i128 << 60;
    let unit = 2 * g.n() as i128 * half_width;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..g.m())
        .map(|_| {
            let i = rng.random_range(-(half_width as i64)..=half_width as i64) as i128;
            ((unit + i) as u128, (unit - i) as u128)
        })
        .unzip()
}

/// One graph from every `generators` and `gen` family, sized by `n`.
fn family(fam: usize, n: usize, seed: u64) -> Graph {
    match fam {
        0 => generators::path_graph(n),
        1 => generators::cycle(n),
        2 => generators::complete(n / 2 + 2),
        3 => generators::complete_bipartite(3, n / 2),
        4 => generators::star(n),
        5 => generators::grid(3, n / 3),
        6 => generators::torus(3, n / 3 + 1),
        7 => generators::hypercube(4),
        8 => generators::petersen(),
        9 => generators::barbell(n / 3, 2),
        10 => generators::gnp(n, 0.3, seed),
        11 => generators::random_tree(n, seed),
        12 => generators::connected_gnm(n, 2 * n, seed),
        13 => generators::near_regular(n, 4, seed),
        14 => gen::preferential_attachment(n, 2, seed),
        15 => gen::watts_strogatz(n, 4, 0.2, seed),
        _ => gen::isp_hierarchy(4 + n / 4, n, seed),
    }
}

proptest! {
    /// `dijkstra_sweep` equals per-query `dijkstra_into` — u64 costs with
    /// per-edge, per-direction variation.
    #[test]
    fn dijkstra_sweep_equals_single_queries_u64(
        (n, m, seed) in gnm_params(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..8),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let cost = |e: usize, from: usize, to: usize| {
            1_000_000u64 + (e as u64 * 17) % 1000 + if from < to { 3 } else { 5 }
        };
        let (srcs, fs) = (sources(&g, &source_picks), fault_sets(&g, &fault_picks));
        sweep_equals_single_queries(&g, &srcs, &fs, cost);
    }

    /// Unit costs collide wherever the graph has a cycle: a source whose
    /// base run ties searches every query, reproducing the single-query
    /// engine's tree choices.
    #[test]
    fn tied_sweeps_equal_single_queries(
        (n, m, seed) in gnm_params(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let fs = fault_sets(&g, &fault_picks);
        sweep_per_source(&g, &[0, g.n() - 1], &fs, |_, _, _| 1u64);
    }

    /// Antisymmetric u128 costs (the exact-scheme workload's shape)
    /// through the sweep.
    #[test]
    fn dijkstra_sweep_equals_single_queries_u128(
        (n, m, seed) in gnm_params(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
    ) {
        let g = generators::connected_gnm(n, m, seed);
        let unit = 1u128 << 40;
        let fwd: Vec<u128> = (0..g.m()).map(|e| unit + (e as u128 * 7919) % 1024).collect();
        let cost = |e: usize, from: Vertex, to: Vertex| if from < to { fwd[e] } else { 2 * unit - fwd[e] };
        sweep_equals_single_queries(&g, &sources(&g, &source_picks), &fault_sets(&g, &fault_picks), cost);
    }

    /// Every `generators` and `gen` family at f = 1..3: Theorem 20 `u128`
    /// costs and tie-rich `u64` costs both equal `dijkstra_into` and the
    /// reference engine on every query; Theorem 20 costs are answered by
    /// the kernel, and a source whose base ties always falls back.
    #[test]
    fn sweep_equals_engine_and_reference_on_every_family(
        fam in 0usize..17,
        n in 6usize..=20,
        seed in any::<u64>(),
        f in 1usize..=3,
        picks in prop::collection::vec(any::<prop::sample::Index>(), 3..16),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
    ) {
        let g = family(fam, n, seed);
        prop_assume!(g.m() > 0);
        let fs: Vec<FaultSet> =
            picks.chunks(f).map(|c| FaultSet::from_edges(c.iter().map(|p| p.index(g.m())))).collect();
        let srcs = sources(&g, &source_picks);

        let (fwd, bwd) = theorem20_costs(&g, seed);
        let stats = sweep_per_source(&g, &srcs, &fs, |e, from, to| {
            if from < to { fwd[e] } else { bwd[e] }
        });
        prop_assert!(stats.repaired > 0, "Theorem 20 costs are tie-free");
        prop_assert_eq!(stats.searched, 0, "Theorem 20 costs never refuse");

        sweep_per_source(&g, &srcs, &fs, |e, from, to| 10u64 + (e as u64 % 3) + u64::from(from < to));
    }

    /// Sources fanned out over `parallel_indexed` (one scratch per worker)
    /// produce identical result matrices at 1, 2, and 8 workers, and all
    /// match the sequential single-query engine.
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
                |_| SweepScratch::<u64>::new(),
                |sweep, i| {
                    let mut row = Vec::with_capacity(fs.len());
                    dijkstra_sweep(&g, &srcs[i..=i], &fs, cost, sweep, |_, _, t| {
                        row.push(view_snapshot(&g, &t));
                        ControlFlow::Continue(())
                    });
                    row
                },
            );
            prop_assert_eq!(&par, &reference, "workers={}", workers);
        }
    }
}

/// All single faults plus the empty set plus some doubles, in an order
/// that interleaves near-source and far-from-source faults.
fn mixed_fault_sets(g: &Graph) -> Vec<FaultSet> {
    let mut fs = vec![FaultSet::empty()];
    fs.extend((0..g.m()).rev().map(FaultSet::single));
    for e in 0..g.m().saturating_sub(1) {
        fs.push(FaultSet::from_edges([e, g.m() - 1 - e / 2]));
    }
    fs
}

/// Distinct per-edge, per-direction costs: tie-free on small graphs, so
/// the kernel answers.
fn cost(e: usize, u: Vertex, v: Vertex) -> u64 {
    10_000 + 37 * e as u64 + u64::from(u < v)
}

#[test]
fn disconnecting_faults_are_exact() {
    let g = generators::path_graph(8);
    let stats = sweep_equals_single_queries(&g, &[0, 3, 7], &mixed_fault_sets(&g), cost);
    assert_eq!(stats.searched, 0, "a path has no ties");
}

#[test]
fn source_incident_faults_are_exact() {
    // A fault at the source detaches a subtree the kernel re-seeds from
    // the source itself; on the star it cuts a leaf off.
    let star = generators::star(6);
    let singles: Vec<FaultSet> = (0..star.m()).map(FaultSet::single).collect();
    let stats = sweep_equals_single_queries(&star, &[0], &singles, cost);
    assert_eq!(stats.repaired, singles.len());
    let grid = generators::grid(4, 4);
    let at_source: Vec<FaultSet> = grid.neighbors(0).map(|(_, e)| FaultSet::single(e)).collect();
    assert_eq!(sweep_equals_single_queries(&grid, &[0], &at_source, cost).searched, 0);
}

#[test]
fn out_of_range_fault_edges_change_nothing() {
    // Like `dijkstra_into`, the sweep ignores edge ids the graph lacks.
    let g = generators::grid(3, 3);
    let fs = [FaultSet::single(g.m() + 5), FaultSet::from_edges([0, g.m()])];
    assert_eq!(sweep_equals_single_queries(&g, &[0, 8], &fs, cost).searched, 0);
}

#[test]
fn bigint_sweeps_equal_single_queries() {
    // Distinct powers of two under a dominating unit: tie-free, so the
    // kernel adopts and compares heap-allocated costs.
    let g = generators::grid(6, 6);
    let big = |e: usize, _: Vertex, _: Vertex| {
        rsp_arith::BigInt::pow2(70) + rsp_arith::BigInt::pow2(e as u32)
    };
    let stats = sweep_equals_single_queries(&g, &[0, 35], &mixed_fault_sets(&g), big);
    assert_eq!(stats.searched, 0);
}

#[test]
fn sweep_scratch_survives_graph_switches() {
    // Base runs and overlays of one source or graph must never leak into
    // the next source's (or the next graph's) answers.
    let mut sweep = SweepScratch::<u64>::new();
    let mut single = SearchScratch::<u64>::new();
    for g in [generators::grid(5, 5), generators::cycle(4), generators::complete(7)] {
        let fs = mixed_fault_sets(&g);
        let srcs = [0, g.n() - 1];
        dijkstra_sweep(&g, &srcs, &fs, cost, &mut sweep, |si, fi, t| {
            dijkstra_into(&g, srcs[si], &fs[fi], cost, &mut single);
            assert_eq!(view_snapshot(&g, &t), snapshot(&g, &single), "s{si} f{fi}");
            ControlFlow::Continue(())
        });
    }
    assert!(sweep.stats().repaired > 0);
}

#[test]
fn break_stops_the_sweep() {
    let g = generators::grid(3, 3);
    let fs = mixed_fault_sets(&g);
    let mut sweep = SweepScratch::<u64>::new();
    let mut seen = 0usize;
    dijkstra_sweep(&g, &[0, 4], &fs, cost, &mut sweep, |si, fi, _| {
        seen += 1;
        if (si, fi) == (0, 2) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    assert_eq!(seen, 3, "queries after the break must never run");
    assert_eq!(sweep.stats().queries(), 3);
}

#[test]
fn stats_count_queries_and_reset() {
    let g = generators::grid(4, 4);
    let fs = mixed_fault_sets(&g);
    let mut sweep = SweepScratch::<u64>::new();
    dijkstra_sweep(&g, &[0, 15], &fs, cost, &mut sweep, |_, _, _| ControlFlow::Continue(()));
    let stats = *sweep.stats();
    assert_eq!(stats.queries(), 2 * fs.len());
    assert_eq!(stats.searched, 0, "tie-free costs are repaired");
    assert!(format!("{stats}").contains("repaired"));
    sweep.reset_stats();
    assert_eq!(sweep.stats(), &SweepStats::default());
}

#[test]
fn empty_inputs_are_fine() {
    let g = generators::cycle(4);
    let mut sweep = SweepScratch::<u64>::new();
    let mut calls = 0;
    let mut count = |_: usize, _: usize, _: SweepView<'_, u64>| {
        calls += 1;
        ControlFlow::Continue(())
    };
    dijkstra_sweep(&g, &[], &[FaultSet::empty()], cost, &mut sweep, &mut count);
    dijkstra_sweep(&g, &[0], &[], cost, &mut sweep, &mut count);
    assert_eq!(calls, 0);
    assert_eq!(sweep.stats().queries(), 0);
}

#[test]
fn kernel_repair_restores_the_fault_free_tree() {
    let g = generators::grid(4, 4);
    let mut cut = SearchScratch::new();
    let mut fresh = SearchScratch::new();
    dijkstra_into(&g, 0, &FaultSet::empty(), cost, &mut fresh);
    let mut kernel = RepairScratch::new();
    let mut costs = cost;
    for e in 0..g.m() {
        dijkstra_into(&g, 0, &FaultSet::single(e), cost, &mut cut);
        kernel.begin(g.n());
        kernel.repair(&g, &cut, e, &FaultSet::empty(), &mut costs).unwrap();
        for v in g.vertices() {
            assert_eq!(kernel.cost(&cut, v), fresh.cost(v), "e{e} cost({v})");
            assert_eq!(kernel.parent(&g, &cut, v), fresh.parent(v), "e{e} parent({v})");
        }
    }
}

#[test]
fn kernel_steps_that_change_nothing_write_nothing() {
    let g = generators::cycle(6);
    let mut base = SearchScratch::new();
    dijkstra_into(&g, 0, &FaultSet::empty(), cost, &mut base);
    let off = (0..g.m()).find(|&e| tree_edge_child(&g, e, |v| base.parent(v)).is_none());
    let off = off.expect("one cycle edge is off the tree");
    let mut kernel = RepairScratch::new();
    let mut costs = cost;
    kernel.begin(g.n());
    assert_eq!(kernel.arrival(&g, &base, off, &FaultSet::single(off), &mut costs), Ok(false));
    assert_eq!(kernel.repair(&g, &base, off, &FaultSet::empty(), &mut costs), Ok(false));
    assert_eq!(kernel.cells().count(), 0);

    // A disconnecting arrival leaves the detached subtree unreachable.
    let g = generators::path_graph(5);
    dijkstra_into(&g, 0, &FaultSet::empty(), cost, &mut base);
    let e = g.edge_between(2, 3).unwrap();
    kernel.begin(g.n());
    assert_eq!(kernel.arrival(&g, &base, e, &FaultSet::single(e), &mut costs), Ok(true));
    assert_eq!((kernel.hops(&base, 2), kernel.hops(&base, 3)), (Some(2), None));
    assert_eq!(kernel.cells().map(|(v, _)| v).collect::<Vec<_>>(), vec![3, 4]);
}

#[test]
fn kernel_refuses_equal_candidates() {
    // Unit costs on a 4-cycle: with 0-1 cut, vertex 2 costs 2 via 3;
    // restoring 0-1 offers it a second cost-2 route via 1.
    let g = generators::cycle(4);
    let mut unit = |_: usize, _: Vertex, _: Vertex| 1u64;
    let e01 = g.edge_between(0, 1).unwrap();
    let mut cut = SearchScratch::new();
    dijkstra_into(&g, 0, &FaultSet::single(e01), unit, &mut cut);
    let mut kernel = RepairScratch::new();
    kernel.begin(g.n());
    assert_eq!(kernel.repair(&g, &cut, e01, &FaultSet::empty(), &mut unit), Err(Tie));
}

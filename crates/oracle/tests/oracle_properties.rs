//! Oracle-vs-engine property tests: every answer the serving layer
//! produces — fast path or engine path, through a snapshot directly or
//! through an epoch-swapped reader — must be byte-identical to the raw
//! engines: `ExactScheme::spt_into` / `Rpts::tree_from_with` per query,
//! and `dijkstra_sweep` over the full `sources × fault_sets` plan.

use std::ops::ControlFlow;

use proptest::prelude::*;
use rsp_core::{ExactScheme, RandomGridAtw, Rpts};
use rsp_graph::{
    dijkstra_sweep, generators, FaultSet, Graph, SearchScratch, SweepScratch, SweepView, Vertex,
};
use rsp_oracle::{Oracle, OracleSnapshot, TreeView};

fn gnm_params() -> impl Strategy<Value = (usize, usize, u64, u64)> {
    (3usize..=20, 0usize..=3, any::<u64>(), any::<u64>()).prop_map(|(n, density, gseed, wseed)| {
        let extra = density * n / 2;
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        (n, m, gseed, wseed)
    })
}

/// Raw edge-id lists as they might arrive at the serving boundary:
/// unsorted, with duplicates.
fn raw_fault_lists(g: &Graph, picks: &[prop::sample::Index]) -> Vec<Vec<usize>> {
    picks
        .iter()
        .enumerate()
        .map(|(i, pick)| {
            let e = pick.index(g.m());
            let other = (e + g.m() / 2) % g.m();
            match i % 4 {
                0 => vec![e],
                1 => vec![other, e, other], // duplicate, unsorted
                2 => vec![e, e, e],         // pure duplicates
                _ => vec![],
            }
        })
        .collect()
}

/// Everything observable about one `TreeView`, materialized.
type ViewData = (Vec<Option<u32>>, Vec<Option<(Vertex, usize)>>, Vec<Option<u128>>);

fn view_data(g: &Graph, view: &TreeView<'_, u128>) -> ViewData {
    (
        g.vertices().map(|v| view.dist(v)).collect(),
        g.vertices().map(|v| view.parent(v)).collect(),
        g.vertices().map(|v| view.cost(v).cloned()).collect(),
    )
}

fn engine_data(g: &Graph, s: &SearchScratch<u128>) -> ViewData {
    (
        g.vertices().map(|v| s.hops(v)).collect(),
        g.vertices().map(|v| s.parent(v)).collect(),
        g.vertices().map(|v| s.cost(v).cloned()).collect(),
    )
}

fn sweep_data(g: &Graph, t: &SweepView<'_, u128>) -> ViewData {
    (
        g.vertices().map(|v| t.hops(v)).collect(),
        g.vertices().map(|v| t.parent(v)).collect(),
        g.vertices().map(|v| t.cost(v).cloned()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot queries — whichever path answers them — equal a fresh
    /// engine run and the `Rpts::tree_from_with` tree, for every source
    /// and for raw duplicate-laden fault input normalized at the
    /// boundary.
    #[test]
    fn snapshot_query_equals_engines(
        (n, m, gseed, wseed) in gnm_params(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let g = generators::connected_gnm(n, m, gseed);
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let snap = OracleSnapshot::builder(&scheme).build();
        let mut scratch = SearchScratch::with_capacity(g.n());
        let mut engine = SearchScratch::with_capacity(g.n());
        let mut rpts_scratch = scheme.new_scratch();

        for raw in raw_fault_lists(&g, &fault_picks) {
            let faults = FaultSet::from_edges(raw.iter().copied());
            for pick in &source_picks {
                let s = pick.index(g.n());
                let got = view_data(&g, &snap.query(s, &faults, &mut scratch));
                scheme.spt_into(s, &faults, &mut engine);
                prop_assert_eq!(&got, &engine_data(&g, &engine), "engine s{} {}", s, faults);

                // And the Rpts-trait view of the same answer.
                let tree = scheme.tree_from_with(s, &faults, &mut rpts_scratch);
                for v in g.vertices() {
                    prop_assert_eq!(got.0[v], tree.dist(v), "dist s{} v{}", s, v);
                    prop_assert_eq!(got.1[v], tree.parent(v), "parent s{} v{}", s, v);
                }
            }
        }
    }

    /// The full `sources × fault_sets` plan through `dijkstra_sweep`
    /// matches the oracle cell by cell — the sweep's pin against the
    /// serving layer.
    #[test]
    fn snapshot_query_equals_dijkstra_sweep(
        (n, m, gseed, wseed) in gnm_params(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..5),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
    ) {
        let g = generators::connected_gnm(n, m, gseed);
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let snap = OracleSnapshot::builder(&scheme).build();
        let fs: Vec<FaultSet> = raw_fault_lists(&g, &fault_picks)
            .iter()
            .map(|raw| FaultSet::from_edges(raw.iter().copied()))
            .collect();
        let srcs: Vec<Vertex> = source_picks.iter().map(|p| p.index(g.n())).collect();

        let mut scratch = SearchScratch::with_capacity(g.n());
        let mut sweep = SweepScratch::<u128>::new();
        dijkstra_sweep(&g, &srcs, &fs, scheme.directed_costs(), &mut sweep, |si, fi, tree| {
            let got = view_data(&g, &snap.query(srcs[si], &fs[fi], &mut scratch));
            assert_eq!(got, sweep_data(&g, &tree), "s{si} f{fi}");
            ControlFlow::Continue(())
        });
    }

    /// Faults off the canonical tree take the zero-traversal fast path;
    /// faults on it take the engine path. Both paths already proved
    /// equal to the engines above — here we pin that the *routing
    /// between paths* is what the docs claim.
    #[test]
    fn fast_path_taken_exactly_off_tree(
        (n, m, gseed, wseed) in gnm_params(),
        source_pick in any::<prop::sample::Index>(),
    ) {
        let g = generators::connected_gnm(n, m, gseed);
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let snap = OracleSnapshot::builder(&scheme).build();
        let s = source_pick.index(g.n());
        let baseline = snap.baseline(s).expect("all vertices served by default");
        let on_tree: Vec<bool> = (0..g.m())
            .map(|e| {
                let (u, v) = g.endpoints(e);
                baseline.parent(u).is_some_and(|(_, pe)| pe == e)
                    || baseline.parent(v).is_some_and(|(_, pe)| pe == e)
            })
            .collect();
        let mut scratch = SearchScratch::with_capacity(g.n());
        for (e, &on) in on_tree.iter().enumerate() {
            let view = snap.query(s, &FaultSet::single(e), &mut scratch);
            prop_assert_eq!(view.from_baseline(), !on, "s{} e{}", s, e);
        }
        // Fault-free queries are always pure lookups.
        prop_assert!(snap.query(s, &FaultSet::empty(), &mut scratch).from_baseline());
    }

    /// Snapshots restricted to a source subset still answer correctly
    /// from non-serving sources (engine path), and `serves` reports the
    /// subset faithfully.
    #[test]
    fn restricted_sources_still_answer_everywhere(
        (n, m, gseed, wseed) in gnm_params(),
        served_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
        fault_pick in any::<prop::sample::Index>(),
    ) {
        let g = generators::connected_gnm(n, m, gseed);
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        // Duplicates in the serving list are deliberate: first wins.
        let served: Vec<Vertex> =
            served_picks.iter().flat_map(|p| [p.index(g.n()); 2]).collect();
        let snap = OracleSnapshot::builder(&scheme).sources(served.clone()).build();
        prop_assert_eq!(snap.sources().len(), {
            let mut uniq = served.clone();
            uniq.sort_unstable();
            uniq.dedup();
            uniq.len()
        });

        let faults = FaultSet::single(fault_pick.index(g.m()));
        let mut scratch = SearchScratch::with_capacity(g.n());
        let mut engine = SearchScratch::with_capacity(g.n());
        for s in g.vertices() {
            prop_assert_eq!(snap.serves(s), served.contains(&s), "serves {}", s);
            let got = view_data(&g, &snap.query(s, &faults, &mut scratch));
            scheme.spt_into(s, &faults, &mut engine);
            prop_assert_eq!(got, engine_data(&g, &engine), "s{}", s);
            if !snap.serves(s) {
                prop_assert!(snap.baseline(s).is_none());
            }
        }
    }

    /// The oracle-boundary regression from the satellite list: duplicate
    /// edge ids in raw wire input answer identically to the normalized
    /// fault set, through `OracleReader::query_edges`.
    #[test]
    fn reader_normalizes_duplicate_fault_input(
        (n, m, gseed, wseed) in gnm_params(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
        source_pick in any::<prop::sample::Index>(),
    ) {
        let g = generators::connected_gnm(n, m, gseed);
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let oracle = Oracle::build(&scheme);
        let mut reader = oracle.reader();
        let s = source_pick.index(g.n());
        for raw in raw_fault_lists(&g, &fault_picks) {
            let normalized = FaultSet::from_edges(raw.iter().copied());
            let via_raw = view_data(&g, &reader.query_edges(s, &raw));
            let via_set = view_data(&g, &reader.query(s, &normalized));
            prop_assert_eq!(via_raw, via_set, "raw {:?}", raw);
        }
    }
}

/// `ExactScheme` costs scaled by a constant keep the same trees and hop
/// distances — the invariant the concurrency suite leans on to detect
/// cross-epoch mixing. Pinned here single-threadedly so a failure there
/// means a real torn read, not a broken invariant.
#[test]
fn scaled_costs_keep_trees_and_scale_costs() {
    let g = generators::grid(5, 4);
    let unit = 1u128 << 40;
    let fwd: Vec<u128> = (0..g.m()).map(|e| unit + (e as u128 * 7919) % 1024).collect();
    let bwd: Vec<u128> = fwd.iter().map(|f| 2 * unit - f).collect();
    let base = ExactScheme::from_costs(g.clone(), fwd.clone(), bwd.clone(), unit, 10);
    let snap1 = OracleSnapshot::builder(&base).version(1).build();

    let k = 3u128;
    let scaled = ExactScheme::from_costs(
        g.clone(),
        fwd.iter().map(|c| c * k).collect(),
        bwd.iter().map(|c| c * k).collect(),
        unit * k,
        10,
    );
    let snapk = OracleSnapshot::builder(&scaled).version(3).build();

    let mut scratch = SearchScratch::with_capacity(g.n());
    let faults = FaultSet::single(0);
    for s in g.vertices() {
        let b = {
            let view = snap1.query(s, &faults, &mut scratch);
            view_data(&g, &view)
        };
        let v = {
            let view = snapk.query(s, &faults, &mut scratch);
            view_data(&g, &view)
        };
        assert_eq!(b.0, v.0, "hop distances are scale-invariant (s{s})");
        assert_eq!(b.1, v.1, "tree parents are scale-invariant (s{s})");
        for t in g.vertices() {
            assert_eq!(v.2[t], b.2[t].map(|c| c * k), "costs scale by k (s{s} t{t})");
        }
    }
}

/// Out-of-range targets are a client error, never a panic: both the
/// baseline view (flat rows) and the engine view (search scratch) answer
/// "unreached" for any `t ≥ n`, including `usize::MAX`.
#[test]
fn hostile_target_ids_never_panic_on_any_view() {
    let g = generators::grid(4, 4);
    let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    let snap = OracleSnapshot::builder(&scheme).build();
    let mut scratch = SearchScratch::with_capacity(g.n());
    let n = g.n();
    let hostile = [n, n + 7, usize::MAX];

    let tree_edge = {
        let view = snap.query(0, &FaultSet::empty(), &mut scratch);
        assert!(view.from_baseline());
        for t in hostile {
            assert!(!view.reached(t), "baseline t = {t}");
            assert_eq!(view.dist(t), None, "baseline t = {t}");
            assert_eq!(view.cost(t), None, "baseline t = {t}");
            assert_eq!(view.parent(t), None, "baseline t = {t}");
            assert_eq!(view.path_to(t), None, "baseline t = {t}");
        }
        view.parent(n - 1).expect("the far corner has a parent").1
    };

    let view = snap.query(0, &FaultSet::single(tree_edge), &mut scratch);
    assert!(!view.from_baseline(), "a fault on the tree takes the engine path");
    for t in hostile {
        assert!(!view.reached(t), "engine t = {t}");
        assert_eq!(view.dist(t), None, "engine t = {t}");
        assert_eq!(view.cost(t), None, "engine t = {t}");
        assert_eq!(view.parent(t), None, "engine t = {t}");
        assert_eq!(view.path_to(t), None, "engine t = {t}");
    }
}

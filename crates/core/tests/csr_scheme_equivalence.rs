//! Scheme-level CSR differential suite: the exact-scheme query paths —
//! `ExactScheme::spt_into` over the CSR core and the `Rpts::tree_from_with`
//! trait view — must be cell-identical to the pre-migration Vec-of-Vec
//! reference engine reading the same antisymmetric weight tables, on the
//! Internet-shaped generator families; and Theorem 20 must stay what it
//! claims — tie-free — on every one of those families.

use proptest::prelude::*;
use rsp_core::{RandomGridAtw, Rpts};
use rsp_graph::reference::{ref_dijkstra, RefGraph};
use rsp_graph::{
    gen, generators, EdgeCostSource, FaultSet, Graph, SearchScratch, SelectedTree, Vertex,
};

/// One graph per Internet-shaped family, plus the `G(n, m)` control.
fn family_graph() -> impl Strategy<Value = Graph> {
    (0u8..4, 10usize..=24, any::<u64>()).prop_map(|(fam, n, seed)| match fam {
        0 => generators::connected_gnm(n, (2 * n - 1).min(n * (n - 1) / 2), seed),
        1 => gen::preferential_attachment(n, 2, seed),
        2 => gen::watts_strogatz(n, 4, 0.2, seed),
        _ => gen::isp_hierarchy(5 + n / 4, n, seed),
    })
}

fn fault_plan(g: &Graph, picks: &[prop::sample::Index]) -> Vec<FaultSet> {
    picks
        .iter()
        .enumerate()
        .map(|(i, pick)| {
            let e = pick.index(g.m());
            match i % 3 {
                0 => FaultSet::empty(),
                1 => FaultSet::single(e),
                _ => FaultSet::from_edges([e, (e + g.m() / 2) % g.m()]),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `spt_into` over the CSR core equals the reference engine reading
    /// the scheme's own directed cost tables — costs, hops, parents, tie
    /// flags — and `tree_from_with` agrees with both.
    #[test]
    fn scheme_queries_equal_reference(
        g in family_graph(),
        wseed in any::<u64>(),
        fault_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..5),
        source_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
    ) {
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let r = RefGraph::from_graph(&g);
        let mut engine = SearchScratch::with_capacity(g.n());
        let mut rpts_scratch = scheme.new_scratch();
        for faults in fault_plan(&g, &fault_picks) {
            for pick in &source_picks {
                let s = pick.index(g.n());
                scheme.spt_into(s, &faults, &mut engine);
                let mut dc = scheme.directed_costs();
                let spec = ref_dijkstra(&r, s, &faults, |e: usize, from: Vertex, to: Vertex| {
                    dc.compute(&0u128, e, from, to)
                });
                for v in g.vertices() {
                    prop_assert_eq!(engine.cost(v), spec.cost[v].as_ref(), "cost s{} v{}", s, v);
                    prop_assert_eq!(
                        engine.hops(v),
                        spec.reached(v).then_some(spec.hops[v]),
                        "hops s{} v{}", s, v
                    );
                    prop_assert_eq!(engine.parent(v), spec.parent[v], "parent s{} v{}", s, v);
                }
                prop_assert_eq!(engine.ties_detected(), spec.ties, "ties s{}", s);

                let tree = scheme.tree_from_with(s, &faults, &mut rpts_scratch);
                for v in g.vertices() {
                    prop_assert_eq!(
                        tree.dist(v),
                        spec.reached(v).then_some(spec.hops[v]),
                        "tree dist s{} v{}", s, v
                    );
                    prop_assert_eq!(tree.parent(v), spec.parent[v], "tree parent s{} v{}", s, v);
                }
            }
        }
    }

    /// Theorem 20 on the Internet-shaped families: the randomized grid
    /// scheme stays tie-free from every source, with and without faults —
    /// the property the whole perturbation exists to provide, now pinned
    /// on scale-free, small-world, and hierarchical topologies too.
    #[test]
    fn theorem20_is_tie_free_on_gen_families(
        g in family_graph(),
        wseed in any::<u64>(),
        fault_pick in any::<prop::sample::Index>(),
    ) {
        let scheme = RandomGridAtw::theorem20(&g, wseed).into_scheme();
        let faults = FaultSet::single(fault_pick.index(g.m()));
        let mut engine = SearchScratch::with_capacity(g.n());
        for s in g.vertices() {
            scheme.spt_into(s, &FaultSet::empty(), &mut engine);
            prop_assert!(!engine.ties_detected(), "tie from source {} (no faults)", s);
            scheme.spt_into(s, &faults, &mut engine);
            prop_assert!(!engine.ties_detected(), "tie from source {} under {}", s, &faults);
        }
    }
}

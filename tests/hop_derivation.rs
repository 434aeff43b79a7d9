//! The hop-derivation contract behind 20-byte snapshot cells. A snapshot
//! stores each cell's parent edge and exact cost only, and reads the hop
//! count off the cost with the scheme's certified `HopDivisor`
//! (`⌊(cost + L) / unit⌋`). Every weight function of the workspace must
//! certify, and its derived hop counts must equal the engine's on every
//! generator family; a weight function whose perturbations can add up to
//! a whole unit edge is refused at build time, never served.

use proptest::prelude::*;
use rsp_arith::PathCost;
use rsp_core::{ExactScheme, GeometricAtw, RandomGridAtw, Rpts};
use rsp_graph::{dijkstra_into, gen, generators, FaultSet, Graph, SearchScratch};
use rsp_oracle::churn::ChurnPipeline;
use rsp_oracle::{BuildError, OracleSnapshot};
use rsp_preserver::lower_bound::build_lower_bound_graph;

/// One graph per generator family, the `G(n, m)` control, and a path:
/// the family whose long selected paths sum the most drift.
fn family_graph() -> impl Strategy<Value = Graph> {
    (0u8..5, 10usize..=20, any::<u64>()).prop_map(|(fam, n, seed)| match fam {
        0 => generators::connected_gnm(n, (2 * n - 1).min(n * (n - 1) / 2), seed),
        1 => gen::preferential_attachment(n, 2, seed),
        2 => gen::watts_strogatz(n, 4, 0.2, seed),
        3 => gen::isp_hierarchy(5 + n / 4, n, seed),
        _ => generators::path_graph(n),
    })
}

/// The oracle suites' test scheme (`oracle_properties`,
/// `serving_concurrency`): unit `2^40·k`, forward drift below `1,024·k`
/// and the mirrored backward drift.
fn scaled_test_scheme(g: &Graph, k: u128) -> ExactScheme<u128> {
    let unit = 1u128 << 40;
    let fwd: Vec<u128> = (0..g.m()).map(|e| unit + (e as u128 * 7919) % 1024).collect();
    let bwd: Vec<u128> = fwd.iter().map(|f| 2 * unit - f).collect();
    ExactScheme::from_costs(
        g.clone(),
        fwd.iter().map(|c| c * k).collect(),
        bwd.iter().map(|c| c * k).collect(),
        unit * k,
        10,
    )
}

/// `lower_bound::bad_scheme`'s shape on any graph: unit `n(λ+1) + 1`
/// and drift only upward, within a few units of `λ` on every edge, so a
/// selected path of more than `n / 2` hops drifts past half a unit and
/// rounding to the nearest multiple would answer one hop too many.
fn positive_drift_scheme(g: &Graph, seed: u64) -> ExactScheme<u128> {
    let lambda = 1000u128;
    let scale = g.n() as u128 * (lambda + 1) + 1;
    let drift = |e: usize, salt: u64| {
        let h = (e as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
        scale + lambda - u128::from(h % 8)
    };
    let fwd = (0..g.m()).map(|e| drift(e, seed)).collect();
    let bwd = (0..g.m()).map(|e| drift(e, !seed)).collect();
    ExactScheme::from_costs(g.clone(), fwd, bwd, scale, 11)
}

/// Builds `scheme`'s all-vertex snapshot over `base_faults` and checks
/// every served cell: the baseline view's derived hop count equals
/// `dijkstra_into`'s on `G* \ base_faults`, and the certified divisor
/// reads every reached cost back to its hop count.
fn assert_derived_hops_match<C: PathCost + 'static>(
    scheme: &ExactScheme<C>,
    base_faults: &FaultSet,
    what: &str,
) {
    let hops = scheme.hop_divisor().unwrap_or_else(|| panic!("{what}: hop bound not certified"));
    let snap = OracleSnapshot::builder(scheme)
        .base_faults(base_faults.clone())
        .try_build()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let g = scheme.graph();
    let mut run = SearchScratch::with_capacity(g.n());
    for s in g.vertices() {
        dijkstra_into(g, s, base_faults, scheme.directed_costs(), &mut run);
        let view = snap.baseline(s).expect("all-vertex snapshot");
        for v in g.vertices() {
            assert_eq!(view.dist(v), run.hops(v), "{what}: dist({s}, {v})");
            assert_eq!(run.cost(v).map(|c| hops.hops(c)), run.hops(v), "{what}: hops({s}, {v})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Derived hop counts equal the engine's for every weight function
    /// that builds snapshots: Theorem 20, Corollary 22, Theorem 23's
    /// geometric weights, the all-upward drift of `bad_scheme`'s shape,
    /// and the oracle suites' scaled test schemes, on every family, with
    /// and without base faults.
    #[test]
    fn derived_hops_equal_the_engine_for_every_scheme(
        g in family_graph(),
        wseed in any::<u64>(),
        fault_pick in any::<prop::sample::Index>(),
    ) {
        let faults = [FaultSet::empty(), FaultSet::single(fault_pick.index(g.m()))];
        for f in &faults {
            let t20 = RandomGridAtw::theorem20(&g, wseed).into_scheme();
            assert_derived_hops_match(&t20, f, "theorem20");
            let c22 = RandomGridAtw::corollary22(&g, 2, 1, wseed).into_scheme();
            assert_derived_hops_match(&c22, f, "corollary22");
            assert_derived_hops_match(&GeometricAtw::new(&g).into_scheme(), f, "geometric");
            assert_derived_hops_match(&positive_drift_scheme(&g, wseed), f, "positive drift");
            for k in [1, 3] {
                assert_derived_hops_match(&scaled_test_scheme(&g, k), f, "scaled test scheme");
            }
        }
    }
}

/// `lower_bound::bad_scheme` itself: symmetric, drift only upward.
#[test]
fn derived_hops_equal_the_engine_for_the_lower_bound_scheme() {
    for (f, d, x) in [(1, 3, 4), (1, 5, 6), (2, 3, 2)] {
        let lb = build_lower_bound_graph(f, d, x);
        let scheme = lb.bad_scheme();
        assert_eq!(scheme.hop_divisor().map(|h| *h.lower()), Some(0), "no downward drift");
        for faults in lb.fault_family() {
            assert_derived_hops_match(&scheme, &faults, "bad_scheme");
        }
    }
}

/// A weight function whose perturbations can add up to a unit edge
/// (`L + U ≥ unit`) gets [`BuildError::HopsNotDerivable`] from both
/// fallible entry points; one unit of drift less builds and serves
/// exact hop counts.
#[test]
fn uncertified_schemes_are_refused_with_a_build_error() {
    // 9 vertices: L + U = 8 · (a + b) against unit 800.
    let g = generators::grid(3, 3);
    let scheme = |a: u128, b: u128| {
        let unit = 800u128;
        let fwd = (0..g.m()).map(|e| if e % 2 == 0 { unit + b } else { unit - a }).collect();
        let bwd = (0..g.m()).map(|e| if e % 2 == 0 { unit - a } else { unit + b }).collect();
        ExactScheme::from_costs(g.clone(), fwd, bwd, unit, 8)
    };

    for (a, b) in [(50, 50), (0, 100), (100, 0), (30, 300)] {
        let bad = scheme(a, b);
        assert!(bad.hop_divisor().is_none(), "({a}, {b})");
        assert_eq!(
            OracleSnapshot::builder(&bad).try_build().err(),
            Some(BuildError::HopsNotDerivable),
            "try_build ({a}, {b})"
        );
        assert_eq!(
            ChurnPipeline::new(&bad).err(),
            Some(BuildError::HopsNotDerivable),
            "ChurnPipeline::new ({a}, {b})"
        );
    }

    let good = scheme(49, 50);
    assert_eq!(good.hop_divisor().map(|h| *h.lower()), Some(8 * 49));
    assert!(ChurnPipeline::new(&good).is_ok());
    assert_derived_hops_match(&good, &FaultSet::empty(), "(49, 50)");
    assert_derived_hops_match(&good, &FaultSet::single(0), "(49, 50) minus edge 0");
}

//! The delta-vs-rebuild differential battery (ISSUE 8).
//!
//! Contract under test: a churn pipeline publishes, at every epoch,
//! snapshots **cell-by-cell identical** to a fresh full build on the
//! same fault set; the delta-built cells are pinned against
//! `tree_from_with` and `spt_into` fanned out over `parallel_indexed`
//! (workers 1/2/8) directly; untouched rows are **Arc-pointer shared**
//! with the predecessor (so "delta" can't silently mean "rebuild"); and a flaky
//! delta builder always heals via the full-rebuild fallback with the
//! reason visible in `ChurnHealth`.

use proptest::prelude::*;
use rsp_core::{RandomGridAtw, Rpts};
use rsp_graph::{
    gen, generators, parallel_indexed, tree_edge_child, FaultEvent, FaultSet, FaultState, Graph,
    SearchScratch, SubtreeScratch,
};
use rsp_oracle::churn::inject::{
    flaky_delta_builder, random_trace_with, verify_converged, TraceOptions,
};
use rsp_oracle::churn::ChurnPipeline;
use rsp_oracle::delta::{DeltaBuilder, DeltaError, MATERIALIZE_SHARE};
use rsp_oracle::OracleSnapshot;

type Scheme = rsp_core::ExactScheme<u128>;

fn scheme_for(g: &Graph, wseed: u64) -> Scheme {
    RandomGridAtw::theorem20(g, wseed).into_scheme()
}

/// The reference every delta epoch is held to: a from-scratch build on
/// the same fault set.
fn full_build(scheme: &Scheme, state: &FaultState) -> OracleSnapshot<u128> {
    OracleSnapshot::builder(scheme).base_faults(state.faults().clone()).build()
}

/// Cell-by-cell snapshot equality: every source row, every vertex,
/// hops + parent pointer + exact cost.
fn assert_cells_identical(g: &Graph, a: &OracleSnapshot<u128>, b: &OracleSnapshot<u128>) {
    assert_eq!(a.base_faults(), b.base_faults(), "base fault sets diverged");
    for s in g.vertices() {
        let (ra, rb) = (a.baseline(s).unwrap(), b.baseline(s).unwrap());
        for v in g.vertices() {
            assert_eq!(ra.dist(v), rb.dist(v), "dist s{s} v{v}");
            assert_eq!(ra.parent(v), rb.parent(v), "parent s{s} v{v}");
            assert_eq!(ra.cost(v), rb.cost(v), "cost s{s} v{v}");
        }
    }
}

fn independent_fold(g: &Graph, journal: &[FaultEvent]) -> FaultSet {
    let mut state = FaultState::for_graph(g);
    for &ev in journal {
        state.apply(ev).expect("journaled events re-apply cleanly in order");
    }
    state.faults().clone()
}

// ---------------------------------------------------------------------
// Deterministic scenarios
// ---------------------------------------------------------------------

/// Single-event epochs on the grid: every commit is served by the delta
/// builder, and every published snapshot equals `tree_from_with` and
/// `spt_into` fanned out over `parallel_indexed` at workers 1, 2, and 8 —
/// cell for cell.
#[test]
fn delta_epochs_pin_against_engines_at_workers_1_2_8() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();

    let trace =
        random_trace_with(&g, 12, 0xd1f5_0001, TraceOptions { burst: 0.3, ..Default::default() });
    let mut rpts_scratch = scheme.new_scratch();
    for &ev in &trace {
        pipeline.ingest(ev).unwrap();
        let report = pipeline.commit().unwrap();
        assert!(report.published);
        assert!(report.delta, "single-event epochs must be served by the delta builder");

        let snapshot = pipeline.published_snapshot();
        let faults = snapshot.base_faults().clone();
        // Pin against the canonical per-query engine...
        for s in g.vertices() {
            let tree = scheme.tree_from_with(s, &faults, &mut rpts_scratch);
            let row = snapshot.baseline(s).unwrap();
            for v in g.vertices() {
                assert_eq!(row.dist(v), tree.dist(v), "tree_from_with dist s{s} v{v}");
                assert_eq!(row.parent(v), tree.parent(v), "tree_from_with parent s{s} v{v}");
            }
        }
        // ...and against the exact engine fanned out at several widths.
        for workers in [1usize, 2, 8] {
            let rows = parallel_indexed(
                g.n(),
                workers,
                |_| SearchScratch::with_capacity(g.n()),
                |run, s| {
                    scheme.spt_into(s, &faults, run);
                    let row = snapshot.baseline(s).unwrap();
                    g.vertices().all(|v| {
                        row.dist(v) == run.hops(v)
                            && row.parent(v) == run.parent(v)
                            && row.cost(v) == run.cost(v)
                    })
                },
            );
            assert!(
                rows.iter().all(|&ok| ok),
                "delta snapshot disagrees with spt_into at {workers} workers"
            );
        }
    }
    let health = pipeline.health();
    assert_eq!(health.delta_commits, trace.len() as u64);
    assert_eq!(health.full_rebuilds, 0);
    verify_converged(&pipeline).unwrap();
}

/// Row sharing: after a single-fault delta commit, every
/// source row whose tree did not use the failed edge is **pointer**-shared
/// with the predecessor snapshot, and at least one row is freshly built.
#[test]
fn untouched_rows_share_storage_with_predecessor() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    let prev = pipeline.published_snapshot();

    let e = g.edge_between(0, 1).unwrap();
    pipeline.ingest(FaultEvent::Arrive(e)).unwrap();
    let report = pipeline.commit().unwrap();
    assert!(report.delta);
    let snap = pipeline.published_snapshot();

    let mut shared = 0usize;
    let mut patched = 0usize;
    for s in g.vertices() {
        let prev_row = prev.baseline(s).unwrap();
        let on_tree = tree_edge_child(&g, e, |v| prev_row.parent(v)).is_some();
        if on_tree {
            patched += 1;
            assert!(
                !snap.shares_row_storage(&prev, s),
                "source {s}'s tree used the failed edge; its row must be rebuilt"
            );
        } else {
            shared += 1;
            assert!(
                snap.shares_row_storage(&prev, s),
                "source {s}'s tree avoids the failed edge; its row must be shared"
            );
        }
    }
    assert!(patched > 0, "edge (0,1) is a tree edge of source 0's row at minimum");
    assert!(shared > 0, "a single fault must leave most grid rows untouched");

    // A full build never shares storage — the predicate has teeth, not
    // just vacuous truth.
    let rb_snap = OracleSnapshot::builder(&scheme).base_faults(FaultSet::single(e)).build();
    assert!(g.vertices().all(|s| !rb_snap.shares_row_storage(&prev, s)));
    assert_cells_identical(&g, &snap, &rb_snap);
}

/// Cells, not rows: one arrival on a fresh snapshot gives every row
/// whose tree used the failed edge a cell list over the predecessor's
/// **own base** — one cell per detached vertex, since each one's cost
/// strictly rises or it becomes unreachable — and folds exactly the
/// lists longer than `n / MATERIALIZE_SHARE` into fresh bases.
#[test]
fn single_arrival_patches_lists_over_shared_bases() {
    let g = generators::grid(8, 8);
    let scheme = scheme_for(&g, 42);
    let prev = OracleSnapshot::builder(&scheme).version(1).build();
    let cap = g.n() / MATERIALIZE_SHARE;

    let e = g.edge_between(27, 28).unwrap();
    let (snap, stats) = DeltaBuilder::new(&prev).version(2).build(&FaultSet::single(e)).unwrap();
    assert_cells_identical(
        &g,
        &snap,
        &OracleSnapshot::builder(&scheme).base_faults(FaultSet::single(e)).build(),
    );

    let mut subtree = SubtreeScratch::with_capacity(g.n());
    let mut detached = Vec::new();
    let (mut listed, mut materialized, mut untouched) = (0, 0, 0);
    for s in g.vertices() {
        let row = prev.baseline(s).unwrap();
        let Some(child) = tree_edge_child(&g, e, |v| row.parent(v)) else {
            untouched += 1;
            assert!(snap.shares_row_storage(&prev, s), "source {s}: off-tree row is shared");
            assert_eq!(snap.patched_cells(s), Some(0));
            continue;
        };
        subtree.collect_subtree(&g, child, |v| row.parent(v), &mut detached);
        assert!(!snap.shares_row_storage(&prev, s), "source {s}: on-tree row is patched");
        if detached.len() <= cap {
            listed += 1;
            assert!(snap.shares_row_base(&prev, s), "source {s}: a patched row keeps its base");
            assert_eq!(snap.patched_cells(s), Some(detached.len()), "source {s}");
        } else {
            materialized += 1;
            assert!(!snap.shares_row_base(&prev, s), "source {s}: a long list gets a fresh base");
            assert_eq!(snap.patched_cells(s), Some(0), "source {s}");
        }
    }
    assert!(listed > 0 && materialized > 0 && untouched > 0, "{listed}/{materialized}/{untouched}");
    assert_eq!(stats.rows_shared, untouched);
    assert_eq!(stats.rows_patched, listed + materialized);
    assert_eq!(stats.rows_materialized, materialized);
}

/// Long churn on every generator family — lists patched over lists,
/// cells patched back to their base values, lists folded into fresh
/// bases — stays cell-identical to a full build at every epoch.
#[test]
fn patch_lists_match_full_build_on_every_family() {
    let families = [
        ("preferential_attachment", gen::preferential_attachment(40, 2, 3)),
        ("watts_strogatz", gen::watts_strogatz(40, 4, 0.2, 5)),
        ("isp_hierarchy", gen::isp_hierarchy(8, 32, 7)),
        ("grid", generators::grid(6, 6)),
    ];
    for (name, g) in families {
        let scheme = scheme_for(&g, 0x11f7);
        let opts = TraceOptions { burst: 0.2, max_faults: Some(6), ..Default::default() };
        let trace = random_trace_with(&g, 240, 0xce11, opts);
        let mut snap = OracleSnapshot::builder(&scheme).build();
        let mut state = FaultState::for_graph(&g);
        let (mut epochs, mut declined, mut materialized, mut longest) = (0, 0, 0, 0);
        let mut i = 0;
        while i < trace.len() {
            let batch = 1 + (i * 5 + 1) % 3;
            for &ev in &trace[i..(i + batch).min(trace.len())] {
                state.apply(ev).unwrap();
            }
            i += batch;
            epochs += 1;
            let faults = state.faults().clone();
            let full = OracleSnapshot::builder(&scheme).base_faults(faults.clone()).build();
            snap = match DeltaBuilder::new(&snap).build(&faults) {
                Ok((next, stats)) => {
                    materialized += stats.rows_materialized;
                    assert_cells_identical(&g, &next, &full);
                    next
                }
                Err(DeltaError::Unsupported(_)) => {
                    declined += 1;
                    full
                }
                Err(err) => panic!("{name}: epoch {epochs}: {err}"),
            };
            let listed = g.vertices().filter_map(|s| snap.patched_cells(s)).max().unwrap();
            longest = longest.max(listed);
        }
        assert!(declined * 10 <= epochs, "{name}: {declined} of {epochs} epochs declined");
        assert!(longest > 0, "{name}: some row must carry a cell list");
        assert!(materialized > 0, "{name}: some list must cross n / MATERIALIZE_SHARE");
    }
}

/// Disconnection: two faults on a cycle cut off an arc of vertices.
/// The delta patch must leave exactly the same unreached cells as the
/// full rebuild — and repair must resurrect them identically.
#[test]
fn disconnecting_faults_and_repairs_match_rebuild() {
    let g = generators::cycle(8);
    let scheme = scheme_for(&g, 7);
    let mut delta = ChurnPipeline::new(&scheme).unwrap();
    let mut state = FaultState::for_graph(&g);

    let e0 = g.edge_between(0, 1).unwrap();
    let e4 = g.edge_between(4, 5).unwrap();
    let events = [
        FaultEvent::Arrive(e0), // cycle becomes a path
        FaultEvent::Arrive(e4), // path splits: vertices 1..=4 unreachable from 0's side
        FaultEvent::Repair(e0), // reconnect
        FaultEvent::Repair(e4), // back to the full cycle
    ];
    for ev in events {
        delta.ingest(ev).unwrap();
        state.apply(ev).unwrap();
        assert!(delta.commit().unwrap().delta);
        assert_cells_identical(&g, &delta.published_snapshot(), &full_build(&scheme, &state));
    }
    // The middle epoch really did disconnect something (test has teeth):
    // asserted via a fresh build at that fault set.
    let cut = OracleSnapshot::<u128>::builder(&scheme)
        .base_faults(FaultSet::from_edges([e0, e4]))
        .build();
    assert_eq!(cut.baseline(0).unwrap().dist(2), None);
    verify_converged(&delta).unwrap();
}

/// 1k-event soak: long delta chains (patch-of-patch-of-patch...) never
/// drift. The converged pipeline equals the independent journal fold and
/// the engines, and deltas served the overwhelming majority of epochs.
#[test]
fn soak_1k_events_converges_and_deltas_dominate() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();

    let trace = random_trace_with(
        &g,
        1000,
        0x50a4_1234,
        TraceOptions { burst: 0.2, max_faults: Some(4), ..Default::default() },
    );
    assert_eq!(trace.len(), 1000);
    // Commit in small irregular batches so epochs see 1..=4 events.
    let mut i = 0usize;
    while i < trace.len() {
        let batch = 1 + (i * 7 + 3) % 4;
        for ev in &trace[i..(i + batch).min(trace.len())] {
            pipeline.ingest(*ev).unwrap();
        }
        i += batch;
        pipeline.commit().unwrap();
    }
    verify_converged(&pipeline).unwrap();
    assert_eq!(
        pipeline.published_snapshot().base_faults(),
        &independent_fold(&g, pipeline.journal())
    );

    let health = pipeline.health();
    assert_eq!(health.published_seq, 1000);
    assert_eq!(health.full_rebuilds, 0, "no commit fell back to a full build");
    assert!(
        health.delta_commits * 10 >= health.commits * 9,
        "deltas must dominate: {} delta of {} commits ({} fallbacks: {:?})",
        health.delta_commits,
        health.commits,
        health.delta_fallbacks,
        health.last_delta_fallback
    );
}

/// A panicking delta builder fails the delta rung and the pipeline heals
/// via the from-scratch full rung — reason recorded, sticky.
#[test]
fn flaky_delta_panic_heals_via_full_build() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    pipeline.set_build_probe(Some(flaky_delta_builder(1, 0)));

    pipeline.ingest(FaultEvent::Arrive(0)).unwrap();
    let report = pipeline.commit().unwrap();
    assert!(report.published);
    assert!(!report.delta, "the publish came from the fallback full build");
    assert_eq!(report.attempts, 2, "delta attempt + full-build attempt");
    let health = pipeline.health();
    assert_eq!(health.delta_fallbacks, 1);
    assert!(health.last_delta_fallback.as_deref().unwrap().contains("panicked"));
    verify_converged(&pipeline).unwrap();

    // Probe exhausted: the next commit goes back to serving deltas, and
    // the fallback reason stays visible (sticky) for operators.
    pipeline.ingest(FaultEvent::Arrive(1)).unwrap();
    let report = pipeline.commit().unwrap();
    assert!(report.delta);
    assert_eq!(report.attempts, 1);
    let health = pipeline.health();
    assert_eq!(health.delta_commits, 1);
    assert_eq!(health.delta_fallbacks, 1);
    assert!(health.last_delta_fallback.is_some(), "fallback reason is sticky");
    verify_converged(&pipeline).unwrap();
}

/// A delta patch whose output is corrupted is rejected by the sampled
/// cross-check — the gate gates deltas exactly as it gates rebuilds.
#[test]
fn cross_check_rejects_corrupted_delta() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    let epoch_before = pipeline.oracle().epoch();
    pipeline.set_build_probe(Some(flaky_delta_builder(0, 1)));

    pipeline.ingest(FaultEvent::Arrive(0)).unwrap();
    let report = pipeline.commit().unwrap();
    assert!(report.published);
    assert!(!report.delta);
    assert_eq!(report.attempts, 2, "corrupt delta rejected, full build published");
    assert_eq!(pipeline.oracle().epoch(), epoch_before + 1, "the corrupt snapshot never published");
    let health = pipeline.health();
    assert_eq!(health.delta_fallbacks, 1);
    assert!(health.last_delta_fallback.as_deref().unwrap().contains("cross-check mismatch"));
    verify_converged(&pipeline).unwrap();
}

// ---------------------------------------------------------------------
// Property tests: the differential battery proper
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// THE delta-vs-rebuild equality property: random valid churn traces
    /// (arrivals + repairs + dense same-edge bursts, f ≤ 3) through a
    /// pipeline, committed in irregular batches — every published
    /// snapshot is cell-by-cell identical to a fresh full build on the
    /// same fault set.
    #[test]
    fn delta_and_rebuild_pipelines_publish_identical_snapshots(
        wseed in any::<u64>(),
        tseed in any::<u64>(),
        burst_pct in 0u32..50,
        batch_stride in 1usize..5,
    ) {
        let g = generators::grid(4, 4);
        let scheme = scheme_for(&g, wseed);
        let mut delta = ChurnPipeline::new(&scheme).unwrap();
        let mut state = FaultState::for_graph(&g);

        let opts = TraceOptions {
            burst: f64::from(burst_pct) / 100.0,
            max_faults: Some(3),
            ..Default::default()
        };
        let trace = random_trace_with(&g, 30, tseed, opts);
        for chunk in trace.chunks(batch_stride) {
            for &ev in chunk {
                delta.ingest(ev).unwrap();
                state.apply(ev).unwrap();
            }
            let dr = delta.commit().unwrap();
            prop_assert!(dr.published);
            prop_assert_eq!(dr.seq, delta.accepted_seq());
            assert_cells_identical(&g, &delta.published_snapshot(), &full_build(&scheme, &state));
        }
        verify_converged(&delta).unwrap();
        let health = delta.health();
        prop_assert!(
            health.delta_commits > 0,
            "a 30-event trace must see at least one delta commit ({:?})",
            health.last_delta_fallback
        );
    }

    /// Same property on irregular sparse graphs (connected G(n, m)) —
    /// no grid structure to hide behind, repairs of cut edges included.
    #[test]
    fn delta_equivalence_on_random_graphs(
        (n, gseed, wseed) in (6usize..=14, any::<u64>(), any::<u64>()),
        tseed in any::<u64>(),
    ) {
        let m = (n + n / 2).min(n * (n - 1) / 2);
        let g = generators::connected_gnm(n, m, gseed);
        let scheme = scheme_for(&g, wseed);
        let mut delta = ChurnPipeline::new(&scheme).unwrap();
        let mut state = FaultState::for_graph(&g);

        let opts = TraceOptions { burst: 0.25, max_faults: Some(3), ..Default::default() };
        for &ev in &random_trace_with(&g, 20, tseed, opts) {
            delta.ingest(ev).unwrap();
            state.apply(ev).unwrap();
            delta.commit().unwrap();
            assert_cells_identical(&g, &delta.published_snapshot(), &full_build(&scheme, &state));
        }
        verify_converged(&delta).unwrap();
    }
}

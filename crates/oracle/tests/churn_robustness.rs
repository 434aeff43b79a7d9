//! Churn-pipeline robustness: hostile wire input, injected build
//! failures, degraded serving, escalation, and deterministic recovery.
//!
//! The contract under test (ISSUE 7): whatever the fault-event stream
//! does — byte garbage, duplicates, repairs of healthy edges, reorders,
//! drops — and whatever the builder does — panics, corrupted output —
//! the pipeline never panics, never publishes a snapshot disagreeing
//! with the exact engines on the accepted-event fault state, and keeps
//! serving the last good snapshot whenever it cannot publish a new one.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rsp_core::{RandomGridAtw, Rpts};
use rsp_graph::{generators, FaultEvent, FaultSet, FaultState, Graph};
use rsp_oracle::churn::inject::{
    corrupt_published_row, flaky_builder, random_trace, random_trace_with, verify_converged,
    verify_published, CellCorruption, InjectionPlan, StreamInjector, TraceOptions,
};
use rsp_oracle::churn::{
    BuildContext, BuildFailure, BuildFault, BuildStage, ChurnConfig, ChurnPipeline,
};

type Scheme = rsp_core::ExactScheme<u128>;

fn scheme_for(g: &Graph, wseed: u64) -> Scheme {
    RandomGridAtw::theorem20(g, wseed).into_scheme()
}

/// An independent fold of the journal — deliberately *not* via the
/// pipeline's own state — for cross-validating what "accepted" means.
fn independent_fold(g: &Graph, journal: &[FaultEvent]) -> FaultSet {
    let mut state = FaultState::for_graph(g);
    for &ev in journal {
        state.apply(ev).expect("journaled events re-apply cleanly in order");
    }
    state.faults().clone()
}

// ---------------------------------------------------------------------
// Deterministic integration scenarios
// ---------------------------------------------------------------------

/// The full attack: a valid trace mangled by the hostile injector, fed
/// as raw bytes, committed, and verified cell-for-cell — including a
/// `tree_from_with` comparison on the accepted-event fault state.
#[test]
fn hostile_wire_stream_converges_to_accepted_state() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    let mut reader = pipeline.reader();

    let trace = random_trace(&g, 60, 0xdead_beef);
    let mut injector = StreamInjector::new(InjectionPlan::hostile(0xdead_beef));
    let frames = injector.perturb(&trace);
    let mut accepted = 0u64;
    for frame in &frames {
        if pipeline.ingest_wire(frame).is_ok() {
            accepted += 1;
        }
    }
    // The hostile mix must actually have quarantined something, or the
    // test lost its teeth.
    assert!(pipeline.quarantined().len() > 5, "injection produced no quarantines");
    assert_eq!(accepted, pipeline.journal().len() as u64);

    let report = pipeline.commit().unwrap();
    assert!(report.published);
    verify_converged(&pipeline).unwrap();

    // The published base faults are exactly the independent fold of the
    // journal, and the served tree equals `tree_from_with` on it.
    let folded = independent_fold(&g, pipeline.journal());
    let snapshot = pipeline.published_snapshot();
    assert_eq!(snapshot.base_faults(), &folded);
    let mut rpts_scratch = scheme.new_scratch();
    for s in g.vertices() {
        let tree = scheme.tree_from_with(s, &folded, &mut rpts_scratch);
        let view = reader.query(s, &FaultSet::empty());
        for v in g.vertices() {
            assert_eq!(view.dist(v), tree.dist(v), "dist s{s} v{v}");
            assert_eq!(view.parent(v), tree.parent(v), "parent s{s} v{v}");
        }
    }
}

/// Builder panics on both rungs of the ladder: the commit stalls,
/// readers keep answering from the last good snapshot, health reports
/// the degradation honestly — and the next healthy commit heals.
#[test]
fn stalled_commit_serves_last_good_snapshot_and_recovers() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    let mut reader = pipeline.reader();
    let healthy_answer = reader.query(0, &FaultSet::empty()).dist(15);
    let epoch_before = pipeline.oracle().epoch();

    // Delta patch and full build, both panicking.
    pipeline.set_build_probe(Some(flaky_builder(2, 0)));
    let e = g.edge_between(0, 1).unwrap();
    pipeline.ingest(FaultEvent::Arrive(e)).unwrap();
    let stalled = pipeline.commit().unwrap_err();
    assert_eq!(stalled.attempts, 2);
    assert!(matches!(stalled.last_failure, BuildFailure::Panicked(_)));

    // Degraded serving: same epoch, same answers, staleness exposed.
    assert_eq!(pipeline.oracle().epoch(), epoch_before);
    assert!(!reader.refresh(), "no new epoch was published");
    assert_eq!(reader.query(0, &FaultSet::empty()).dist(15), healthy_answer);
    let health = pipeline.health();
    assert!(health.degraded);
    assert_eq!(health.pending_events, 1);
    assert_eq!(health.consecutive_failures, 2);
    assert_eq!(health.full_rebuilds, 1);
    assert!(health.last_failure.unwrap().contains("panicked"));

    // The probe is exhausted: the next commit cycle publishes and heals.
    let report = pipeline.commit().unwrap();
    assert!(report.published);
    assert_eq!(pipeline.oracle().epoch(), epoch_before + 1);
    verify_converged(&pipeline).unwrap();
    assert_eq!(reader.query(0, &FaultSet::empty()).dist(1), Some(3), "routes around the fault");
}

/// The cross-check gate: a build whose output is corrupted must be
/// rejected before publication — the mismatching snapshot never reaches
/// readers, and the next rung publishes a correct one.
#[test]
fn cross_check_rejects_corrupted_snapshot() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    let epoch_before = pipeline.oracle().epoch();

    pipeline.set_build_probe(Some(flaky_builder(0, 1)));
    pipeline.ingest(FaultEvent::Arrive(0)).unwrap();
    let report = pipeline.commit().unwrap();
    assert!(!report.delta, "the full rung published");
    assert_eq!(report.attempts, 2, "the delta rung was rejected by the cross-check");
    assert!(report.published);
    // Exactly one publish happened: the corrupt snapshot was discarded,
    // not swapped in and replaced.
    assert_eq!(pipeline.oracle().epoch(), epoch_before + 1);
    verify_converged(&pipeline).unwrap();
}

/// The commit ladder, pinned: a probe failing every rung sees each
/// stage exactly once, in escalation order — no retries, no sleeps —
/// and the stall's attempt and failure counts equal the rungs that ran.
#[test]
fn commit_ladder_runs_each_rung_once() {
    let g = generators::grid(3, 3);
    let scheme = scheme_for(&g, 7);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    pipeline.set_build_probe(Some(Box::new(move |ctx: &BuildContext| {
        sink.lock().unwrap().push(ctx.stage);
        BuildFault::Panic
    })));
    pipeline.ingest(FaultEvent::Arrive(0)).unwrap();
    let stalled = pipeline.commit().unwrap_err();
    assert_eq!(*seen.lock().unwrap(), [BuildStage::Delta, BuildStage::Full]);
    assert_eq!(stalled.attempts, 2);
    let health = pipeline.health();
    assert_eq!(health.consecutive_failures, 2);
    assert_eq!(health.full_rebuilds, 1);
    assert_eq!(health.full_rebuilds, health.delta_fallbacks);
}

/// Crash recovery: replaying the journal reconstructs a pipeline whose
/// fault state, published sequence, and snapshot cells are identical.
#[test]
fn journal_replay_is_deterministic() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut original = ChurnPipeline::new(&scheme).unwrap();
    let trace = random_trace(&g, 40, 0x0bad_5eed);
    let mut injector = StreamInjector::new(InjectionPlan::hostile(0x0bad_5eed));
    for frame in injector.perturb(&trace) {
        let _ = original.ingest_wire(&frame);
    }
    original.commit().unwrap();

    let recovered =
        ChurnPipeline::replay(&scheme, original.journal(), ChurnConfig::default()).unwrap();
    assert_eq!(recovered.fault_state(), original.fault_state());
    assert_eq!(recovered.health().published_seq, original.health().published_seq);
    assert_eq!(
        recovered.published_snapshot().base_faults(),
        original.published_snapshot().base_faults()
    );
    verify_converged(&recovered).unwrap();
    // Cell-for-cell equality of the two served snapshots.
    let (a, b) = (original.published_snapshot(), recovered.published_snapshot());
    for s in g.vertices() {
        let (ra, rb) = (a.baseline(s).unwrap(), b.baseline(s).unwrap());
        for v in g.vertices() {
            assert_eq!(ra.dist(v), rb.dist(v));
            assert_eq!(ra.parent(v), rb.parent(v));
            assert_eq!(ra.cost(v), rb.cost(v));
        }
    }
}

/// Every quarantine carries the right reason code, and quarantined
/// events leave the fault state untouched.
#[test]
fn quarantine_reason_codes() {
    let g = generators::petersen(); // 15 edges
    let scheme = scheme_for(&g, 7);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();

    assert_eq!(pipeline.ingest(FaultEvent::Arrive(3)).unwrap(), 1);
    let dup = pipeline.ingest(FaultEvent::Arrive(3)).unwrap_err();
    assert_eq!(dup.code(), "duplicate-arrival");
    let oor = pipeline.ingest(FaultEvent::Arrive(15)).unwrap_err();
    assert_eq!(oor.code(), "edge-out-of-range");
    let ghost = pipeline.ingest(FaultEvent::Repair(4)).unwrap_err();
    assert_eq!(ghost.code(), "repair-without-fault");
    let short = pipeline.ingest_wire(&[0x01, 0x00]).unwrap_err();
    assert_eq!(short.code(), "bad-length");
    let tag = pipeline.ingest_wire(&[0xff; 9]).unwrap_err();
    assert_eq!(tag.code(), "bad-tag");
    let huge = FaultEvent::Arrive(0).encode();
    let mut overflow = huge;
    overflow[1..].copy_from_slice(&u64::MAX.to_le_bytes());
    let code = pipeline.ingest_wire(&overflow).unwrap_err().code();
    assert!(code == "edge-overflow" || code == "edge-out-of-range");

    // One accepted event, five-plus quarantined; state only holds edge 3.
    assert_eq!(pipeline.journal().len(), 1);
    assert!(pipeline.quarantined().len() >= 5);
    assert_eq!(pipeline.fault_state().faults(), &FaultSet::single(3));
    pipeline.commit().unwrap();
    verify_converged(&pipeline).unwrap();
}

/// Regression (ISSUE 8): a dense same-edge burst — arrive, repair,
/// arrive of one edge — folded inside a **single** commit window. The
/// plain generator never produced this interleaving, so nothing
/// exercised a batch whose net effect re-faults an edge the same batch
/// repaired. The committed snapshot must fold the *final* state (edge
/// faulted) and match the engines cell-for-cell.
#[test]
fn same_edge_arrive_repair_arrive_in_one_batch() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();

    let e = g.edge_between(0, 1).unwrap();
    pipeline.ingest(FaultEvent::Arrive(e)).unwrap();
    pipeline.ingest(FaultEvent::Repair(e)).unwrap();
    pipeline.ingest(FaultEvent::Arrive(e)).unwrap();
    let report = pipeline.commit().unwrap();
    assert!(report.published);
    assert_eq!(report.seq, 3, "all three burst events fold into one epoch");
    assert!(pipeline.published_snapshot().base_faults().contains(e));
    verify_converged(&pipeline).unwrap();

    // And the opposite net effect — burst ending in a repair — lands
    // back on the fault-free state in one batch too.
    pipeline.ingest(FaultEvent::Repair(e)).unwrap();
    pipeline.ingest(FaultEvent::Arrive(e)).unwrap();
    pipeline.ingest(FaultEvent::Repair(e)).unwrap();
    pipeline.commit().unwrap();
    assert!(pipeline.published_snapshot().base_faults().is_empty());
    verify_converged(&pipeline).unwrap();
}

/// An empty commit is a no-op: no build, no epoch bump.
#[test]
fn idle_commit_is_a_noop() {
    let g = generators::grid(3, 3);
    let scheme = scheme_for(&g, 7);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    let epoch = pipeline.oracle().epoch();
    let report = pipeline.commit().unwrap();
    assert!(!report.published);
    assert_eq!(report.attempts, 0);
    assert_eq!(pipeline.oracle().epoch(), epoch);
}

// ---------------------------------------------------------------------
// Property tests: arbitrary hostile input never panics, never corrupts
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary byte garbage on the wire: every frame is either
    /// accepted (it decoded to an admissible event) or quarantined;
    /// nothing panics; the committed snapshot matches the engines on
    /// whatever was accepted.
    #[test]
    fn byte_garbage_never_panics_and_converges(
        wseed in any::<u64>(),
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 0..40),
    ) {
        let g = generators::grid(3, 3);
        let scheme = scheme_for(&g, wseed);
        let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
        for frame in &frames {
            let _ = pipeline.ingest_wire(frame);
        }
        prop_assert_eq!(
            pipeline.journal().len() + pipeline.quarantined().len(),
            frames.len(),
            "every frame is accounted for"
        );
        pipeline.commit().unwrap();
        verify_converged(&pipeline).unwrap();
        prop_assert_eq!(
            pipeline.published_snapshot().base_faults(),
            &independent_fold(&g, pipeline.journal())
        );
    }

    /// Hostile *decoded* event lists — duplicate arrivals, repairs of
    /// healthy edges, ids at and beyond `m` — never panic, and the
    /// published snapshot folds exactly the accepted prefix order.
    #[test]
    fn hostile_event_lists_never_panic_and_converge(
        (n, gseed, wseed) in (4usize..=12, any::<u64>(), any::<u64>()),
        raw in prop::collection::vec((any::<bool>(), 0usize..40), 0..60),
    ) {
        let m = (n - 1 + n / 2).min(n * (n - 1) / 2);
        let g = generators::connected_gnm(n, m, gseed);
        let scheme = scheme_for(&g, wseed);
        let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
        for &(arrive, edge) in &raw {
            let ev = if arrive { FaultEvent::Arrive(edge) } else { FaultEvent::Repair(edge) };
            let _ = pipeline.ingest(ev);
        }
        pipeline.commit().unwrap();
        verify_converged(&pipeline).unwrap();
        prop_assert_eq!(
            pipeline.published_snapshot().base_faults(),
            &independent_fold(&g, pipeline.journal())
        );
        // Out-of-range ids never entered the journal.
        prop_assert!(pipeline.journal().iter().all(|ev| ev.edge() < g.m()));
    }

    /// Bursty traces stay valid (every event admissible in order, the
    /// fault cap held at every prefix) and survive the hostile wire
    /// injector: the pipeline converges on whatever was accepted, dense
    /// same-edge repair bursts included.
    #[test]
    fn bursty_hostile_streams_converge(
        wseed in any::<u64>(),
        tseed in any::<u64>(),
        burst_pct in 10u32..=60,
    ) {
        let g = generators::grid(3, 3);
        let opts = TraceOptions {
            burst: f64::from(burst_pct) / 100.0,
            max_faults: Some(3),
            ..TraceOptions::default()
        };
        let trace = random_trace_with(&g, 40, tseed, opts);
        let mut state = FaultState::for_graph(&g);
        for ev in &trace {
            state.apply(*ev).expect("bursty trace events validate in order");
            prop_assert!(state.len() <= 3, "fault cap violated");
        }
        let scheme = scheme_for(&g, wseed);
        let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
        let mut injector = StreamInjector::new(InjectionPlan::hostile(tseed));
        for frame in injector.perturb(&trace) {
            let _ = pipeline.ingest_wire(&frame);
        }
        pipeline.commit().unwrap();
        verify_converged(&pipeline).unwrap();
        prop_assert_eq!(
            pipeline.published_snapshot().base_faults(),
            &independent_fold(&g, pipeline.journal())
        );
    }

    /// Injected builder panics at arbitrary points never tear state:
    /// once the probe is exhausted the pipeline always converges, and
    /// the panic count shows up in health, not in a crash.
    #[test]
    fn injected_build_panics_always_heal(
        wseed in any::<u64>(),
        tseed in any::<u64>(),
        panics in 0u32..6,
        corrupts in 0u32..3,
    ) {
        let g = generators::grid(3, 3);
        let scheme = scheme_for(&g, wseed);
        let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
        for ev in random_trace(&g, 10, tseed) {
            pipeline.ingest(ev).unwrap();
        }
        pipeline.set_build_probe(Some(flaky_builder(panics, corrupts)));
        // Every failed commit consumes at least one injected fault per
        // rung it ran, so `panics + corrupts + 1` commits always reach a
        // clean build.
        let cycles = panics + corrupts + 1;
        prop_assert!(
            (0..cycles).any(|_| pipeline.commit().is_ok()),
            "no commit published within {} cycles", cycles
        );
        verify_converged(&pipeline).unwrap();
    }
}

/// The `verify_published` helper itself is honest: it must *fail* on a
/// deliberately corrupted snapshot (guards against a vacuous verifier).
#[test]
fn verifier_detects_corruption() {
    let g = generators::grid(3, 3);
    let scheme = scheme_for(&g, 7);
    let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    // Damage the published snapshot behind the gate's back.
    let mut damaged = ChurnPipeline::new(&scheme).unwrap();
    damaged.ingest(FaultEvent::Arrive(0)).unwrap();
    damaged.commit().unwrap();
    corrupt_published_row(damaged.oracle(), 4, CellCorruption::Hop).unwrap();
    assert!(verify_published(&damaged).is_err(), "corruption must be visible to the verifier");
    // And the checked pipeline rejects the same corruption (sanity): the
    // corrupted delta rung fails, the full rung publishes.
    pipeline.set_build_probe(Some(flaky_builder(0, 1)));
    pipeline.ingest(FaultEvent::Arrive(0)).unwrap();
    let report = pipeline.commit().unwrap();
    assert_eq!(report.attempts, 2);
    verify_published(&pipeline).unwrap();
}

//! Churn control-plane benchmarks: fault-event ingestion throughput,
//! publish latency for a from-scratch build vs. a delta commit, and the
//! full injection-convergence cycle.
//!
//! Four regimes, mirroring `rsp_oracle::churn`'s contract:
//!
//! * `ingest_events_hostile` — wire-frame ingestion through decode →
//!   validate → journal/quarantine, fed the seeded hostile mix (drops,
//!   duplicates, reorders, corruptions). One iteration ingests the whole
//!   pre-perturbed frame batch, so events/sec is
//!   `FRAMES / mean`; the untimed events/sec line after the timed rows
//!   reports it directly, with the accept/quarantine split.
//! * `commit_rebuild` — the same single-fault epoch as `commit_delta`,
//!   built from scratch with `SnapshotBuilder` and published with
//!   `Oracle::publish`: the cost of a full snapshot recompilation plus
//!   the epoch swap. These rows time no pipeline, so they include no
//!   cross-check gate and no `catch_unwind`.
//! * `commit_delta` — one pending event, one pipeline commit: the
//!   `DeltaBuilder` patches the published snapshot (detached-subtree
//!   reattach / decrease wave, untouched rows shared), the 4-row
//!   cross-check gate audits it, and the epoch swap publishes it. The
//!   `commit_long_trace_*` rows replay a bursty multi-fault trace and
//!   its inverse (repairs ↔ arrivals, reversed) so every iteration
//!   lands back on the initial state — long patch-of-patch chains, one
//!   publish per event.
//! * `injection_convergence` — the end-to-end harness cycle on a
//!   smaller grid: perturb a valid trace, ingest every delivered frame,
//!   commit, and verify full convergence (published snapshot equal to a
//!   fresh engine run on the accepted fault state, every cell).
//! * `recover_genesis` vs `recover_checkpoint` — restart cost from a
//!   durable journal byte stream: the genesis stream re-validates every
//!   accepted event of a long trace, the compacted stream folds one
//!   checkpoint frame and replays only the short tail. Both land on the
//!   identical state (asserted untimed after the rows); the gap is what
//!   `ChurnPipeline::checkpoint`/`compact` buy a long deployment at
//!   restart.
//! * `scrub_tick_clean` — one budgeted audit tick of the background
//!   integrity scrubber on a clean snapshot (the steady-state overhead:
//!   one `spt_into` search per audited row, zero publishes).
//!   An untimed `serve_scrub_off` / `serve_scrub_on` pair then reports
//!   reader p50/p99 query latency with a scrubber thread hammering
//!   audits concurrently — the contention cost of continuous scrubbing.
//!
//! After the timed rows the bench prints the delta pipeline's commit
//! split from `ChurnHealth` (delta commits, fallbacks, last fallback
//! reason), so a silently degraded delta arm is visible in the log.
//!
//! Append results to the repo's `BENCH_<n>.json` trajectory with:
//!
//! ```sh
//! CRITERION_JSON_PATH="$PWD/BENCH_9.json" \
//!   cargo bench -p rsp_bench --bench oracle_churn
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rsp_core::{ExactScheme, RandomGridAtw};
use rsp_graph::{generators, FaultEvent, FaultSet, FaultState, Graph};
use rsp_oracle::churn::inject::{
    random_trace, random_trace_with, verify_converged, InjectionPlan, StreamInjector, TraceOptions,
};
use rsp_oracle::churn::{ChurnConfig, ChurnPipeline};
use rsp_oracle::scrub::{ScrubConfig, Scrubber};
use rsp_oracle::{Oracle, OracleSnapshot};

/// Events in the hostile ingestion batch (before drops/duplicates).
const TRACE_LEN: usize = 512;

/// Events in the long-trace commit chains (each iteration replays the
/// trace plus its inverse: `2 × LONG_TRACE` single-event commits).
const LONG_TRACE: usize = 32;

/// The inverse of a valid trace: reversed, arrivals and repairs
/// swapped. Replaying `trace` then `inverse(trace)` returns the fault
/// state to where it started — the trick that lets a long-trace bench
/// iterate without unbounded state drift.
fn inverse(trace: &[FaultEvent]) -> Vec<FaultEvent> {
    trace
        .iter()
        .rev()
        .map(|ev| match *ev {
            FaultEvent::Arrive(e) => FaultEvent::Repair(e),
            FaultEvent::Repair(e) => FaultEvent::Arrive(e),
        })
        .collect()
}

/// Edge 0's toggle: repair it if `faults` holds it, else fail it.
fn toggle(faults: &FaultState) -> FaultEvent {
    if faults.faults().contains(0) {
        FaultEvent::Repair(0)
    } else {
        FaultEvent::Arrive(0)
    }
}

/// The `commit_delta` epoch: toggle edge 0, commit, return the epoch.
fn toggle_commit(pipeline: &mut ChurnPipeline<u128>) -> u64 {
    pipeline.ingest(toggle(pipeline.fault_state())).expect("toggle event is always admissible");
    let report = pipeline.commit().expect("healthy commit publishes");
    assert!(report.delta, "the delta rung must serve this epoch");
    report.epoch
}

/// The from-scratch arm: fold `ev`, build a full snapshot on the new
/// fault set, publish it, return the epoch.
fn rebuild_publish(
    oracle: &Oracle<u128>,
    scheme: &ExactScheme<u128>,
    state: &mut FaultState,
    ev: FaultEvent,
) -> u64 {
    state.apply(ev).expect("rebuild arm events are admissible in order");
    oracle.publish(OracleSnapshot::builder(scheme).base_faults(state.faults().clone()).build())
}

/// One commit per event over `trace` then its inverse; asserts the
/// delta arm actually served (fallbacks are allowed, silent wholesale
/// degradation is not — checked by the caller via `ChurnHealth`).
fn replay_long_trace(
    pipeline: &mut ChurnPipeline<u128>,
    trace: &[FaultEvent],
    back: &[FaultEvent],
) {
    for &ev in trace.iter().chain(back) {
        pipeline.ingest(ev).expect("long trace events are admissible in order");
        pipeline.commit().expect("healthy commit publishes");
    }
}

fn commit_rows(c: &mut Criterion, group_name: &str, g: &Graph, scheme: &ExactScheme<u128>) {
    let rebuild = Oracle::build(scheme);
    let mut rebuild_state = FaultState::for_graph(g);
    let mut delta = ChurnPipeline::new(scheme).expect("initial build");

    let long = random_trace_with(
        g,
        LONG_TRACE,
        0x1076_0001,
        TraceOptions { burst: 0.25, max_faults: Some(4), ..TraceOptions::default() },
    );
    let back = inverse(&long);

    let mut group = c.benchmark_group(group_name);
    group.bench_function("commit_rebuild", |b| {
        b.iter(|| {
            let ev = toggle(&rebuild_state);
            rebuild_publish(&rebuild, scheme, &mut rebuild_state, ev)
        })
    });
    group.bench_function("commit_delta", |b| b.iter(|| toggle_commit(&mut delta)));
    group.bench_function("commit_long_trace_rebuild", |b| {
        b.iter(|| {
            for &ev in long.iter().chain(&back) {
                rebuild_publish(&rebuild, scheme, &mut rebuild_state, ev);
            }
        })
    });
    group.bench_function("commit_long_trace_delta", |b| {
        b.iter(|| replay_long_trace(&mut delta, &long, &back))
    });
    group.finish();

    // Proof in the log that the delta arm served deltas instead of
    // silently falling back to full builds.
    let dh = delta.health();
    println!(
        "{group_name} build arms: delta pipeline {} delta of {} commits ({} fallbacks, last: {}); \
         {} from-scratch publishes",
        dh.delta_commits,
        dh.commits,
        dh.delta_fallbacks,
        dh.last_delta_fallback.as_deref().unwrap_or("none"),
        rebuild.epoch() - 1,
    );
    assert!(
        dh.delta_commits * 10 >= dh.commits * 9,
        "delta arm degraded to rebuilds: {} of {} ({:?})",
        dh.delta_commits,
        dh.commits,
        dh.last_delta_fallback
    );
}

fn bench_ingest(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    let mut pipeline = ChurnPipeline::new(&scheme).expect("fault-free build succeeds");

    let trace = random_trace(&g, TRACE_LEN, 0x1057);
    let frames = StreamInjector::new(InjectionPlan::hostile(0x1057)).perturb(&trace);
    println!(
        "oracle_churn/u128_grid16x16 hostile batch: {} events -> {} delivered frames",
        TRACE_LEN,
        frames.len()
    );

    let mut group = c.benchmark_group("oracle_churn/u128_grid16x16");
    group.bench_function("ingest_events_hostile", |b| {
        b.iter(|| {
            let mut accepted = 0usize;
            for frame in &frames {
                accepted += usize::from(pipeline.ingest_wire(frame).is_ok());
            }
            accepted
        })
    });
    group.finish();

    // Untimed events/sec measurement on a fresh pipeline (warm caches,
    // no accumulated quarantine): the operational throughput number.
    let mut fresh = ChurnPipeline::new(&scheme).expect("fault-free build succeeds");
    let t0 = Instant::now();
    for frame in &frames {
        let _ = fresh.ingest_wire(frame);
    }
    let secs = t0.elapsed().as_secs_f64();
    let health = fresh.health();
    println!(
        "oracle_churn/u128_grid16x16 ingest: {:.0} events/sec \
         ({} accepted, {} quarantined of {} frames)",
        frames.len() as f64 / secs,
        health.accepted_seq,
        health.quarantined_total,
        frames.len()
    );
}

fn bench_commit_grid(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    commit_rows(c, "oracle_churn/u128_grid16x16", &g, &scheme);
}

fn bench_commit_gnm(c: &mut Criterion) {
    // Dense G(n, m): 256 vertices, 2048 edges (mean degree 16) — swap
    // candidates everywhere, the delta builder's worst friend.
    let g = generators::connected_gnm(256, 2048, 0xd5e1);
    let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    commit_rows(c, "oracle_churn/u128_gnm256x2048", &g, &scheme);
}

fn bench_injection_convergence(c: &mut Criterion) {
    let g = generators::grid(8, 8);
    let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    let mut pipeline = ChurnPipeline::new(&scheme).expect("fault-free build succeeds");
    let trace = random_trace(&g, 96, 0xc0ff_ee00);
    let mut injector = StreamInjector::new(InjectionPlan::hostile(0xc0ff_ee00));

    let mut group = c.benchmark_group("oracle_churn/u128_grid8x8");
    group.bench_function("injection_convergence", |b| {
        b.iter(|| {
            for frame in injector.perturb(&trace) {
                let _ = pipeline.ingest_wire(&frame);
            }
            pipeline.commit().expect("hostile wire input never stalls a healthy builder");
            verify_converged(&pipeline).expect("published snapshot matches the engines");
        })
    });
    group.finish();

    let health = pipeline.health();
    println!(
        "oracle_churn/u128_grid8x8 injection-convergence: {} commits ({} delta, {} fallbacks), \
         {} events accepted, {} quarantined, {} full rebuilds, converged=yes",
        health.commits,
        health.delta_commits,
        health.delta_fallbacks,
        health.accepted_seq,
        health.quarantined_total,
        health.full_rebuilds
    );
}

/// Accepted events in the long recovery trace (the compacted prefix).
/// Sized so genesis replay cost dominates the one-time snapshot build
/// a recovery ends with — the regime a long-lived deployment restarts
/// in, and the gap checkpointed compaction exists to close.
const RECOVERY_TRACE: usize = 262_144;
/// Events accepted after the checkpoint (the journal tail).
const RECOVERY_TAIL: usize = 64;

fn bench_recovery(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    let trace = random_trace_with(
        &g,
        RECOVERY_TRACE + RECOVERY_TAIL,
        0x1090_0001,
        TraceOptions { burst: 0.25, max_faults: Some(8), ..TraceOptions::default() },
    );

    // Two pipelines accept the identical history; one checkpoints and
    // compacts before the tail, the other keeps genesis event frames.
    // The admission cap is raised past the trace: this bench measures
    // restart cost of a long *accepted* history, not live shedding.
    let cfg = ChurnConfig {
        max_pending_events: RECOVERY_TRACE + RECOVERY_TAIL,
        ..ChurnConfig::default()
    };
    let mut genesis =
        ChurnPipeline::with_config(&scheme, cfg.clone()).expect("fault-free build succeeds");
    let mut compacted =
        ChurnPipeline::with_config(&scheme, cfg).expect("fault-free build succeeds");
    for (i, &ev) in trace.iter().enumerate() {
        genesis.ingest(ev).expect("valid trace events are admissible");
        compacted.ingest(ev).expect("valid trace events are admissible");
        if i + 1 == RECOVERY_TRACE {
            compacted.checkpoint();
            compacted.compact();
        }
    }
    genesis.commit().expect("healthy commit publishes");
    compacted.commit().expect("healthy commit publishes");
    let genesis_bytes = genesis.export_journal();
    let checkpoint_bytes = compacted.export_journal();

    let mut group = c.benchmark_group("oracle_churn/u128_grid16x16");
    group.bench_function("recover_genesis", |b| {
        b.iter(|| {
            let (p, _) = ChurnPipeline::recover(&scheme, &genesis_bytes, ChurnConfig::default())
                .expect("a pristine genesis journal recovers");
            p.accepted_seq()
        })
    });
    group.bench_function("recover_checkpoint", |b| {
        b.iter(|| {
            let (p, _) = ChurnPipeline::recover(&scheme, &checkpoint_bytes, ChurnConfig::default())
                .expect("a pristine checkpoint journal recovers");
            p.accepted_seq()
        })
    });
    group.finish();

    // Untimed equivalence proof: both streams recover the same state.
    let (a, ra) = ChurnPipeline::recover(&scheme, &genesis_bytes, ChurnConfig::default())
        .expect("a pristine genesis journal recovers");
    let (b, rb) = ChurnPipeline::recover(&scheme, &checkpoint_bytes, ChurnConfig::default())
        .expect("a pristine checkpoint journal recovers");
    assert_eq!(a.fault_state(), b.fault_state(), "recovery paths must agree");
    assert_eq!(a.accepted_seq(), b.accepted_seq(), "recovery paths must agree");
    println!(
        "oracle_churn/u128_grid16x16 recovery: genesis {} bytes / {} events vs \
         checkpoint {} bytes (checkpoint seq {}, {} tail events), states identical",
        genesis_bytes.len(),
        ra.events,
        checkpoint_bytes.len(),
        rb.checkpoint_seq,
        rb.events,
    );
}

/// Reader queries in each untimed scrub-overhead measurement.
const SCRUB_QUERIES: usize = 20_000;

fn bench_scrub(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    let oracle = Oracle::build(&scheme);

    let mut scrubber = Scrubber::new(oracle.clone(), ScrubConfig::default());
    let mut group = c.benchmark_group("oracle_churn/u128_grid16x16");
    group.bench_function("scrub_tick_clean", |b| b.iter(|| scrubber.tick().rows_audited));
    group.finish();

    let faults = FaultSet::empty();
    let measure = |oracle: &Oracle<u128>| -> Vec<u64> {
        let mut reader = oracle.reader();
        let mut lat = Vec::with_capacity(SCRUB_QUERIES);
        for i in 0..SCRUB_QUERIES {
            let s = i % g.n();
            let t = (s * 97 + 13) % g.n();
            let t0 = Instant::now();
            let d = reader.dist(s, t, &faults);
            lat.push(t0.elapsed().as_nanos() as u64);
            assert!(s == t || d.is_some(), "grid queries always reach");
        }
        lat.sort_unstable();
        lat
    };
    let pick = |lat: &[u64], p: f64| lat[((lat.len() - 1) as f64 * p) as usize];

    let off = measure(&oracle);
    println!(
        "oracle_churn/u128_grid16x16 serve_scrub_off: p50={}ns p99={}ns ({} queries)",
        pick(&off, 0.50),
        pick(&off, 0.99),
        SCRUB_QUERIES,
    );

    // Same measurement with a scrubber thread auditing continuously —
    // the reader pays only CPU contention, never a lock (clean ticks
    // publish nothing).
    let stop = AtomicBool::new(false);
    let stop_ref = &stop;
    let bg = oracle.clone();
    let (on, audited) = std::thread::scope(|scope| {
        let ticker = scope.spawn(move || {
            let mut scrubber = Scrubber::new(bg, ScrubConfig::default());
            while !stop_ref.load(Ordering::Relaxed) {
                scrubber.tick();
            }
            scrubber.health()
        });
        let on = measure(&oracle);
        stop_ref.store(true, Ordering::Relaxed);
        let health = ticker.join().expect("scrub thread never panics");
        assert_eq!(health.corruptions_found, 0, "a clean snapshot audits clean");
        (on, health.rows_audited)
    });
    println!(
        "oracle_churn/u128_grid16x16 serve_scrub_on: p50={}ns p99={}ns \
         ({} queries, {} rows audited concurrently)",
        pick(&on, 0.50),
        pick(&on, 0.99),
        SCRUB_QUERIES,
        audited,
    );
}

fn config() -> Criterion {
    Criterion::default().sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_ingest, bench_commit_grid, bench_commit_gnm, bench_injection_convergence,
        bench_recovery, bench_scrub
}
criterion_main!(benches);

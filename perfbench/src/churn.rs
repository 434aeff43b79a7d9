//! The churn workload: one control thread folds a hostile fault-event
//! stream into a `ChurnPipeline` (ingest, commit, scrub, checkpoint and
//! compact on fixed cadences) while one reader thread serves queries,
//! closed loop and then open loop. After the timed phase the journal is
//! exported and `ChurnPipeline::recover` is timed.

use std::collections::BTreeMap;
use std::thread;

use rsp_core::{ExactScheme, RandomGridAtw};
use rsp_graph::{gen, Graph};
use rsp_oracle::churn::inject::verify_converged;
use rsp_oracle::churn::{ChurnConfig, ChurnPipeline, IngestError};
use rsp_oracle::scrub::{ScrubConfig, Scrubber};

use crate::check::reference_check;
use crate::inputs::{
    frame_stream, on_tree_share_of, pick_sources, query_pool, sub_seed, FaultLaw, Query, TreeEdges,
    GRAPH, QUERIES, SOURCES, WEIGHTS,
};
use crate::reader::{Reader, ReaderStats, Schedule, Slices};
use crate::report::{
    quantile_in, Outcome, SetupTimes, Windows, CLOSED_SHARE, MS, S, SLICES, WINDOWS,
};
use crate::stats::{median, peak_rss_mb, Clock, Histogram};
use crate::trace::{Layer, Tracer, ROOT};

/// The churn workload's fixed shape and cadences.
#[derive(Clone, Debug)]
pub struct ChurnSpec {
    /// Vertices; the pipeline compiles every vertex as a source.
    pub n: usize,
    /// Query sources (Zipf(1)), as in the serving workloads.
    pub sources: usize,
    /// Wire frames arriving per second, on a fixed schedule.
    pub frame_rate: f64,
    /// `Scrubber::tick` period.
    pub scrub_every_ms: f64,
    /// Accepted events between `checkpoint` + `compact`.
    pub checkpoint_every: u64,
    /// The reader's open-loop offered rate, queries/s.
    pub reader_qps: f64,
    /// Served answers re-checked against the reference engine.
    pub samples: usize,
}

/// Set-ups before the run (the last one serves) and after it; `setup_s`
/// is the quiet tenth of all of them, spread over the run like the
/// windows.
const SETUPS_BEFORE: usize = 2;
const SETUPS_AFTER: usize = 3;
/// Recoveries per run; `churn.recover_s` is their median.
const RECOVER_REPS: usize = 3;
const POOL: usize = 1 << 16;
/// Request-id namespace of fault events (queries use the low ids).
const EVENT_IDS: u64 = 1 << 56;

/// One ingested frame.
struct FrameRec {
    arrival: u64,
    start: u64,
    end: u64,
    /// Journal sequence if accepted.
    seq: Option<u64>,
}

/// One successful commit; the published snapshot's version is `seq`.
struct CommitRec {
    start: u64,
    end: u64,
    seq: u64,
}

/// What the control thread did.
#[derive(Default)]
struct ControlLog {
    frames: Vec<FrameRec>,
    commits: Vec<CommitRec>,
    pending: Vec<u64>,
    stalls: u64,
    shed: u64,
    quarantined: BTreeMap<&'static str, u64>,
    ticks: Vec<(u64, u64)>,
    checkpoints: Vec<(u64, u64)>,
    compactions: Vec<(u64, u64)>,
}

struct Cadence {
    start: u64,
    end: u64,
    frame_period: f64,
    scrub_period: u64,
    checkpoint_every: u64,
}

/// The single writer: ingests due frames, commits, ticks the scrubber
/// and checkpoints on their cadences, and sleeps until the next one.
fn control(
    pipeline: &mut ChurnPipeline<u128>,
    scrubber: &mut Scrubber<u128>,
    frames: &[Vec<u8>],
    clock: &Clock,
    c: &Cadence,
) -> ControlLog {
    let mut log = ControlLog::default();
    let arrival = |i: usize| c.start + (i as f64 * c.frame_period) as u64;
    let (mut next, mut next_scrub, mut since_checkpoint) = (0, c.start + c.scrub_period, 0);
    clock.wait_until(c.start);
    loop {
        let now = clock.now();
        if now >= c.end {
            break;
        }
        while next < frames.len() && arrival(next) <= now {
            let start = clock.now();
            let result = pipeline.ingest_wire(&frames[next]);
            let end = clock.now();
            let seq = match result {
                Ok(seq) => {
                    since_checkpoint += 1;
                    Some(seq)
                }
                Err(IngestError::Quarantined(reason)) => {
                    *log.quarantined.entry(reason.code()).or_insert(0) += 1;
                    None
                }
                Err(IngestError::Backpressure(_)) => {
                    log.shed += 1;
                    None
                }
            };
            log.frames.push(FrameRec { arrival: arrival(next), start, end, seq });
            next += 1;
        }
        if pipeline.pending_events() > 0 {
            log.pending.push(pipeline.pending_events());
            let start = clock.now();
            let result = pipeline.commit();
            let end = clock.now();
            match result {
                Ok(report) => log.commits.push(CommitRec { start, end, seq: report.seq }),
                Err(_) => log.stalls += 1,
            }
        }
        if clock.now() >= next_scrub {
            let start = clock.now();
            scrubber.tick();
            log.ticks.push((start, clock.now()));
            next_scrub += c.scrub_period;
        }
        if since_checkpoint >= c.checkpoint_every {
            let start = clock.now();
            pipeline.checkpoint();
            let mid = clock.now();
            pipeline.compact();
            log.checkpoints.push((start, mid));
            log.compactions.push((mid, clock.now()));
            since_checkpoint = 0;
        }
        let next_frame = if next < frames.len() { arrival(next) } else { c.end };
        clock.wait_until(next_frame.min(next_scrub).min(c.end));
    }
    log
}

/// Sorted durations (ns) of `(start, end)` pairs.
fn sorted_durations(spans: &[(u64, u64)]) -> Vec<u64> {
    let mut d: Vec<u64> = spans.iter().map(|&(a, b)| b - a).collect();
    d.sort_unstable();
    d
}

/// Builds the graph, the scheme and the pipeline (its first snapshot
/// compiles every vertex): everything before the first query can be
/// answered. Records the set-up's clock stamps.
fn set_up(
    spec: &ChurnSpec,
    seed: u64,
    clock: &Clock,
    setup: &mut SetupTimes,
    tracer: &mut Tracer,
    rep: u64,
) -> (Graph, ExactScheme<u128>, ChurnPipeline<u128>) {
    let t0 = clock.now();
    let g = gen::preferential_attachment(spec.n, 3, sub_seed(seed, GRAPH));
    let t1 = clock.now();
    let scheme = RandomGridAtw::theorem20(&g, sub_seed(seed, WEIGHTS)).into_scheme();
    let t2 = clock.now();
    let pipeline = ChurnPipeline::new(&scheme).expect("the fault-free snapshot builds");
    let t3 = clock.now();
    setup.record(tracer, rep, [t0, t1, t2, t3]);
    (g, scheme, pipeline)
}

pub fn run(spec: &ChurnSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let clock = Clock::new();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(traced);
    let mut setup = SetupTimes::default();
    let mut built = None;
    for rep in 0..SETUPS_BEFORE as u64 {
        drop(built.take());
        built = Some(set_up(spec, seed, &clock, &mut setup, &mut tracer, rep));
    }
    let (g, scheme, mut pipeline) = built.expect("at least one set-up");

    let sources = pick_sources(g.n(), spec.sources, sub_seed(seed, SOURCES));
    let trees = TreeEdges::from_snapshot(&pipeline.published_snapshot(), &sources);
    let law = FaultLaw::Uniform { min: 2, max: 3 };
    let pool: Vec<Query> =
        query_pool(g.n(), g.m(), &sources, law, &trees, POOL, sub_seed(seed, QUERIES));
    let frames = frame_stream(&g, (spec.frame_rate * seconds).ceil() as usize, seed);
    let oracle = pipeline.oracle().clone();
    let mut scrubber = Scrubber::new(oracle.clone(), ScrubConfig::default());

    let start = clock.now() + 5_000_000;
    let cadence = Cadence {
        start,
        end: start + (seconds * S) as u64,
        frame_period: S / spec.frame_rate,
        scrub_period: (spec.scrub_every_ms * MS) as u64,
        checkpoint_every: spec.checkpoint_every,
    };
    // The reader runs WINDOWS windows, each a closed-loop part then an
    // open-loop part; a traced run leaves the first half of each closed
    // part untraced, to measure what tracing costs. The control thread
    // churns throughout.
    let win = (seconds / WINDOWS as f64 * S) as u64;
    let closed = (win as f64 * CLOSED_SHARE) as u64;
    let in_open_part = |t: u64| t >= start && (t - start) % win >= closed;
    let open_total = (spec.reader_qps * seconds * (1.0 - CLOSED_SHARE)) as u64;
    let keep_every = (open_total / spec.samples.max(1) as u64).max(1);
    let (log, stats, reader_spans, windows) = thread::scope(|sc| {
        let reader = sc.spawn(|| {
            let mut reader = Reader::new(&oracle, &clock, false, 1);
            let mut windows = Windows::default();
            let mut pooled = Histogram::default();
            for w in 0..WINDOWS as u64 {
                let (w0, mid, w1) =
                    (start + w * win, start + w * win + closed, start + (w + 1) * win);
                let req = w << 44;
                clock.wait_until(w0);
                let plain_until = if traced { w0 + closed / 2 } else { mid };
                let plain = Slices::new(w0, plain_until, SLICES);
                windows.closed(&plain.rates(&[reader.closed_loop(&pool, plain, req, 1)]), false);
                if traced {
                    reader.tracer.set_on(true);
                    let part = Slices::new(plain_until, mid, SLICES);
                    let answered = reader.closed_loop(&pool, part, req | 1 << 40, 1);
                    windows.closed(&part.rates(&[answered]), true);
                }
                let count = (spec.reader_qps * (w1 - mid) as f64 / S) as u64;
                let (period, deadline) = (S / spec.reader_qps, w1 + 2 * S as u64);
                let first = (w * count) as usize;
                let schedule =
                    Schedule::new(mid, first, period, count, deadline, keep_every, req | 2 << 40);
                reader.open_loop(&pool, &schedule);
                reader.tracer.set_on(false);
                let latency = std::mem::take(&mut reader.stats.latency);
                windows.open(&latency);
                pooled.merge(&latency);
            }
            reader.stats.latency = pooled;
            let (stats, spans) = reader.finish();
            (stats, spans, windows)
        });
        let log = control(&mut pipeline, &mut scrubber, &frames, &clock, &cadence);
        let (stats, spans, windows) = reader.join().expect("reader thread panicked");
        (log, stats, spans, windows)
    });
    windows.report(&mut out);

    // Fold what is still pending, then check the served state end to end.
    let mut failed = 0;
    let mut commits_attempted = log.commits.len() as u64 + log.stalls;
    if pipeline.pending_events() > 0 {
        commits_attempted += 1;
        failed += u64::from(pipeline.commit().is_err());
    }
    let converged = verify_converged(&pipeline);
    if let Err(e) = &converged {
        out.note(format!("NOT CONVERGED: {e}"));
    }
    let mismatches = reference_check(&scheme, &stats.records);

    let e0 = clock.now();
    let journal = pipeline.export_journal();
    let e1 = clock.now();
    tracer.push(Layer::Export, e0, e1, ROOT, EVENT_IDS);
    let mut recovers = Vec::new();
    let mut recovered_equal = true;
    for rep in 0..RECOVER_REPS as u64 {
        let r0 = clock.now();
        let recovered = ChurnPipeline::recover(&scheme, &journal, ChurnConfig::default());
        let r1 = clock.now();
        tracer.push(Layer::Recover, r0, r1, ROOT, EVENT_IDS + rep);
        recovers.push((r1 - r0) as f64 / S);
        recovered_equal &= recovered.is_ok_and(|(p, _)| {
            p.fault_state() == pipeline.fault_state() && p.accepted_seq() == pipeline.accepted_seq()
        });
    }
    if !recovered_equal {
        out.note("RECOVERY MISMATCH: the recovered pipeline differs from the live one".into());
    }

    report_control(&mut out, &log, &stats, &in_open_part, &mut tracer);
    let health = pipeline.health();
    let scrub = scrubber.health();
    out.set("churn.delta_share", health.delta_commits as f64 / health.commits.max(1) as f64);
    out.set("churn.delta_fallbacks", health.delta_fallbacks as f64);
    out.set("churn.full_rebuilds", health.full_rebuilds as f64);
    out.set("scrub.rows_audited", scrub.rows_audited as f64);
    out.set("scrub.corruptions", scrub.corruptions_found as f64);
    out.set("journal.export_ms", (e1 - e0) as f64 / MS);
    out.set("journal.bytes", journal.len() as f64);
    out.set("churn.recover_s", median(&mut recovers));
    out.set("verify.checked", stats.records.len() as f64);
    out.set("verify.mismatches", mismatches as f64);

    drop((pipeline, scrubber, oracle));
    for rep in 0..SETUPS_AFTER as u64 {
        set_up(spec, seed, &clock, &mut setup, &mut tracer, SETUPS_BEFORE as u64 + rep);
    }
    setup.report(&mut out);

    let spans = vec![reader_spans, tracer.into_spans()];
    stats.report(&mut out, &spans);
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));

    out.attempted = stats.attempted() + log.frames.len() as u64 + commits_attempted;
    out.failed = failed + stats.errors + stats.abandoned + mismatches + log.stalls + log.shed;
    out.checks_passed = converged.is_ok() && recovered_equal;
    let mix: Vec<String> = log.quarantined.iter().map(|(k, v)| format!("{k}={v}")).collect();
    out.provenance = vec![
        ("n", g.n().to_string()),
        ("m", g.m().to_string()),
        ("snapshot_rows", g.n().to_string()),
        ("query_sources", sources.len().to_string()),
        ("frame_rate", spec.frame_rate.to_string()),
        ("scrub_every_ms", spec.scrub_every_ms.to_string()),
        ("checkpoint_every", spec.checkpoint_every.to_string()),
        ("reader_qps", spec.reader_qps.to_string()),
        ("fast_path_share", format!("{:.4}", stats.fast as f64 / stats.ok.max(1) as f64)),
        (
            "on_tree_share_per_query_fault",
            format!("{:.4}", on_tree_share_of(&pool, &sources, &trees)),
        ),
        (
            "delta_share",
            format!("{:.4}", health.delta_commits as f64 / health.commits.max(1) as f64),
        ),
        ("quarantine_mix", mix.join(",")),
    ];
    out.spans = spans;
    out
}

/// Sets the control-plane metrics and, on a traced run, turns the control
/// log into spans. `fault_to_serve` and `publish_to_read` cover events
/// and commits in the reader's open-loop parts (`in_open_part`), where
/// the reader's schedule, not its back-to-back speed, decides when it
/// next reads.
fn report_control(
    out: &mut Outcome,
    log: &ControlLog,
    stats: &ReaderStats,
    in_open_part: &dyn Fn(u64) -> bool,
    tracer: &mut Tracer,
) {
    let accepted = log.frames.iter().filter(|f| f.seq.is_some()).count();
    out.set("churn.frames", log.frames.len() as f64);
    out.set("churn.accepted", accepted as f64);
    out.set("churn.quarantined", log.quarantined.values().sum::<u64>() as f64);
    out.set("churn.shed", log.shed as f64);
    for (code, metric) in [
        ("bad-length", "churn.q.bad-length"),
        ("bad-tag", "churn.q.bad-tag"),
        ("edge-overflow", "churn.q.edge-overflow"),
        ("edge-out-of-range", "churn.q.edge-out-of-range"),
        ("duplicate-arrival", "churn.q.duplicate-arrival"),
        ("repair-without-fault", "churn.q.repair-without-fault"),
    ] {
        out.set(metric, log.quarantined.get(code).copied().unwrap_or(0) as f64);
    }
    let mut ingest: Vec<u64> = log.frames.iter().map(|f| f.end - f.start).collect();
    ingest.sort_unstable();
    let mut wait: Vec<u64> = log.frames.iter().map(|f| f.start - f.arrival).collect();
    wait.sort_unstable();
    out.set("churn.ingest_p50_ns", quantile_in(&ingest, 0.50, 1.0));
    out.set("churn.wait_p99_ms", quantile_in(&wait, 0.99, MS));
    let mut commit: Vec<u64> = log.commits.iter().map(|c| c.end - c.start).collect();
    commit.sort_unstable();
    out.set("churn.commits", log.commits.len() as f64);
    out.set("churn.commit_p50_ms", quantile_in(&commit, 0.50, MS));
    out.set("churn.commit_p99_ms", quantile_in(&commit, 0.99, MS));
    out.set("churn.stalls", log.stalls as f64);
    let mut pending = log.pending.clone();
    pending.sort_unstable();
    out.set("churn.pending_p99", quantile_in(&pending, 0.99, 1.0));
    let ticks = sorted_durations(&log.ticks);
    out.set("scrub.ticks", ticks.len() as f64);
    out.set("scrub.tick_p50_ms", quantile_in(&ticks, 0.50, MS));
    out.set("scrub.tick_p99_ms", quantile_in(&ticks, 0.99, MS));
    out.set("journal.checkpoint_ms", quantile_in(&sorted_durations(&log.checkpoints), 0.50, MS));
    out.set("journal.compact_ms", quantile_in(&sorted_durations(&log.compactions), 0.50, MS));

    // The reader's first answer from a snapshot folding journal seq `q`.
    let versions = &stats.versions;
    let first_read = |q: u64| {
        let i = versions.partition_point(|&(v, _)| v < q);
        versions.get(i).map(|&(_, at)| at)
    };
    let commit_of = |q: u64| {
        let i = log.commits.partition_point(|c| c.seq < q);
        log.commits.get(i)
    };
    let mut p2r = Vec::new();
    for c in log.commits.iter().filter(|c| in_open_part(c.start)) {
        if let Some(at) = first_read(c.seq) {
            p2r.push(at.saturating_sub(c.end));
            tracer.push(Layer::PublishToRead, c.end, at.max(c.end), ROOT, EVENT_IDS + c.seq);
        }
    }
    p2r.sort_unstable();
    out.set("serve.publish_to_read_p50_ms", quantile_in(&p2r, 0.50, MS));
    out.set("serve.publish_to_read_p99_ms", quantile_in(&p2r, 0.99, MS));

    // fault_to_serve = wait + ingest + queue + commit + publish_to_read,
    // per accepted event; `queue` is the time between the event's ingest
    // and the start of the commit folding it (other frames, scrub ticks,
    // checkpoints, the previous commit).
    let mut f2s = Vec::new();
    let mut queue = Vec::new();
    let mut sums = [0i128; 5];
    for (i, f) in log.frames.iter().enumerate() {
        let id = EVENT_IDS + i as u64;
        tracer.push(Layer::Wait, f.arrival, f.start, ROOT, id);
        tracer.push(Layer::Ingest, f.start, f.end, ROOT, id);
        let Some(q) = f.seq.filter(|_| in_open_part(f.arrival)) else { continue };
        let (Some(c), Some(at)) = (commit_of(q), first_read(q)) else { continue };
        tracer.push(Layer::FaultToServe, f.arrival, at, ROOT, id);
        f2s.push(at - f.arrival);
        queue.push(c.start - f.end);
        let parts = [f.start - f.arrival, f.end - f.start, c.start - f.end, c.end - c.start];
        for (s, p) in sums.iter_mut().zip(parts) {
            *s += p as i128;
        }
        sums[4] += at as i128 - c.end as i128;
    }
    for c in &log.commits {
        tracer.push(Layer::Commit, c.start, c.end, ROOT, EVENT_IDS + c.seq);
    }
    for &(a, b) in &log.ticks {
        tracer.push(Layer::ScrubTick, a, b, ROOT, 0);
    }
    for (&(a, b), &(c, d)) in log.checkpoints.iter().zip(&log.compactions) {
        tracer.push(Layer::Checkpoint, a, b, ROOT, 0);
        tracer.push(Layer::Compact, c, d, ROOT, 0);
    }
    f2s.sort_unstable();
    queue.sort_unstable();
    out.set("churn.fault_to_serve_p50_ms", quantile_in(&f2s, 0.50, MS));
    out.set("churn.fault_to_serve_p99_ms", quantile_in(&f2s, 0.99, MS));
    out.set("churn.queue_p50_ms", quantile_in(&queue, 0.50, MS));
    let k = f2s.len().max(1) as f64;
    let mean = |x: i128| x as f64 / k / MS;
    let total: i128 = sums.iter().sum();
    out.note(format!(
        "fault_to_serve over {} open-loop events: p50 {:.3} ms, p99 {:.3} ms; mean {:.3} ms = \
         wait {:.3} + ingest {:.4} + queue {:.3} + commit {:.3} + publish_to_read {:.3} \
         (queue: waiting behind other frames, scrub ticks, checkpoints and the running commit)",
        f2s.len(),
        quantile_in(&f2s, 0.50, MS),
        quantile_in(&f2s, 0.99, MS),
        mean(total),
        mean(sums[0]),
        mean(sums[1]),
        mean(sums[2]),
        mean(sums[3]),
        mean(sums[4]),
    ));
}

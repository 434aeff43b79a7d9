//! The serving workloads: two reader threads against one immutable
//! 64-source snapshot, first closed loop (throughput), then open loop at a
//! fixed offered rate (latency from each query's scheduled send).

use std::thread;

use rsp_core::{ExactScheme, RandomGridAtw};
use rsp_graph::{gen, Graph};
use rsp_oracle::{Oracle, OracleSnapshot};

use crate::check::reference_check;
use crate::inputs::{
    on_tree_share_of, pick_sources, query_pool, sub_seed, FaultLaw, Query, TreeEdges, GRAPH,
    QUERIES, SOURCES, WEIGHTS,
};
use crate::reader::{Reader, ReaderStats, Schedule, Slices};
use crate::report::{Outcome, SetupTimes, Windows, CLOSED_SHARE, S, SLICES, WINDOWS};
use crate::stats::{peak_rss_mb, Clock, Histogram};
use crate::trace::{Span, Tracer};

/// One serving workload's fixed shape.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Vertices of the preferential-attachment graph (3 edges per arrival).
    pub n: usize,
    /// Precomputed snapshot rows; queries pick them Zipf(1).
    pub sources: usize,
    pub law: FaultLaw,
    /// Open-loop offered rate over all open-loop readers, queries/s.
    /// Frozen: a fixed absolute load, not a share of whatever the build
    /// under test reaches.
    pub offered_qps: f64,
    /// Reader threads serving the open-loop stream (the closed loop always
    /// runs [`READERS`]). A reader waiting for a sub-microsecond schedule
    /// spins; two spinning readers leave no core for the rest of the
    /// system, and every wakeup elsewhere then stalls a reader for a
    /// scheduler slice, which the latency tail would report instead of the
    /// oracle's.
    pub open_readers: usize,
    /// The traced run records the spans of one request id in this many.
    pub trace_every: u64,
    /// Served answers re-checked against the reference engine.
    pub samples: usize,
}

/// Reader threads: the machine's two cores.
pub const READERS: usize = 2;
/// Queries in each reader's replayed pool.
const POOL: usize = 1 << 16;

/// Runs `body` on `readers` fresh [`Reader`]s, each on its own thread,
/// and collects what each reader observed.
fn on_readers<T: Send>(
    oracle: &Oracle<u128>,
    clock: &Clock,
    readers: usize,
    traced: bool,
    trace_every: u64,
    body: impl Fn(usize, &mut Reader<'_>) -> T + Sync,
) -> Vec<(ReaderStats, Vec<Span>, T)> {
    thread::scope(|sc| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let body = &body;
                sc.spawn(move || {
                    let mut reader = Reader::new(oracle, clock, traced, trace_every);
                    let t = body(r, &mut reader);
                    let (stats, spans) = reader.finish();
                    (stats, spans, t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader thread panicked")).collect()
    })
}

/// Closed loop for `seconds`: every reader back to back over its own pool,
/// from its entry of `cursors` on (advanced past what it issued).
/// Returns the answer rate (queries/s, all readers) of each of [`SLICES`]
/// slices.
#[allow(clippy::too_many_arguments)]
fn closed_phase(
    oracle: &Oracle<u128>,
    clock: &Clock,
    pools: &[Vec<Query>],
    cursors: &mut [usize],
    seconds: f64,
    trace_every: Option<u64>,
    req_base: u64,
    total: &mut ReaderStats,
    spans: &mut Vec<Vec<Span>>,
) -> Vec<f64> {
    // The readers start together, once their threads are up.
    let from = clock.now() + 2_000_000;
    let slices = Slices::new(from, from + (seconds * S) as u64, SLICES);
    let traced = trace_every.is_some();
    let start: &[usize] = cursors;
    let runs = on_readers(oracle, clock, READERS, traced, trace_every.unwrap_or(1), |r, reader| {
        reader.cursor = start[r];
        let answered = reader.closed_loop(&pools[r], slices, req_base + r as u64, READERS as u64);
        (answered, reader.cursor)
    });
    let mut answered = Vec::new();
    for (r, (stats, s, (a, cursor))) in runs.into_iter().enumerate() {
        cursors[r] = cursor;
        answered.push(a);
        total.absorb(stats);
        spans.push(s);
    }
    slices.rates(&answered)
}

/// Builds the graph, the scheme and the snapshot: everything before the
/// first query can be answered. Records the set-up's clock stamps.
fn set_up(
    spec: &ServeSpec,
    seed: u64,
    clock: &Clock,
    setup: &mut SetupTimes,
    tracer: &mut Tracer,
    rep: u64,
) -> (Graph, ExactScheme<u128>, Vec<usize>, Oracle<u128>) {
    let t0 = clock.now();
    let g = gen::preferential_attachment(spec.n, 3, sub_seed(seed, GRAPH));
    let t1 = clock.now();
    let scheme = RandomGridAtw::theorem20(&g, sub_seed(seed, WEIGHTS)).into_scheme();
    let t2 = clock.now();
    let sources = pick_sources(g.n(), spec.sources, sub_seed(seed, SOURCES));
    let snapshot = OracleSnapshot::builder(&scheme).sources(sources.iter().copied()).build();
    let oracle = Oracle::new(snapshot);
    let t3 = clock.now();
    setup.record(tracer, rep, [t0, t1, t2, t3]);
    (g, scheme, sources, oracle)
}

/// Runs [`WINDOWS`] windows of: a closed-loop part, then an open-loop
/// part. Every other window starts with a fresh set-up. The set-ups are
/// identical (same seed), so every window serves the same snapshot;
/// repeating the set-up spreads its samples over the run like the other
/// metrics' windows.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let clock = Clock::new();
    let mut out = Outcome::default();
    let mut main_tracer = Tracer::new(traced);
    let mut setup = SetupTimes::default();
    let mut windows = Windows::default();
    let mut total = ReaderStats::default();
    let mut spans = Vec::new();
    let mut cursors = [0usize; READERS];
    let window = seconds / WINDOWS as f64;
    let (closed, open) = (window * CLOSED_SHARE, window * (1.0 - CLOSED_SHARE));
    let readers = spec.open_readers;
    let per_window = (spec.offered_qps * open) as u64;
    let period = S / spec.offered_qps;
    let open_total = per_window * WINDOWS as u64;
    let keep_every = (open_total / spec.samples.max(1) as u64).max(1);
    let mut inputs = None;
    let mut serving = None;
    for w in 0..WINDOWS as u64 {
        if w % 2 == 0 {
            drop(serving.take());
            serving = Some(set_up(spec, seed, &clock, &mut setup, &mut main_tracer, w));
        }
        let (g, _, sources, oracle) = serving.as_ref().expect("window 0 sets up");
        let (pools, _) = inputs.get_or_insert_with(|| {
            let trees = TreeEdges::from_snapshot(&oracle.snapshot(), sources);
            let pools: Vec<Vec<Query>> = (0..READERS)
                .map(|r| {
                    let seed = sub_seed(seed, QUERIES + r as u64);
                    query_pool(g.n(), g.m(), sources, spec.law, &trees, POOL, seed)
                })
                .collect();
            let on_tree = on_tree_share_of(&pools[0], sources, &trees);
            (pools, (on_tree, trees.on_tree_share()))
        });

        // Closed loop. A traced run spends half of each closed part
        // untraced, to measure what tracing costs.
        let req = w << 44;
        let plain = if traced { closed / 2.0 } else { closed };
        let qps = closed_phase(
            oracle,
            &clock,
            pools,
            &mut cursors,
            plain,
            None,
            req,
            &mut total,
            &mut spans,
        );
        windows.closed(&qps, false);
        if traced {
            let every = Some(spec.trace_every);
            let req = req | 1 << 40;
            let tq = closed_phase(
                oracle,
                &clock,
                pools,
                &mut cursors,
                plain,
                every,
                req,
                &mut total,
                &mut spans,
            );
            windows.closed(&tq, true);
        }

        // Open loop: one arrival stream, served by the open-loop readers.
        let start = clock.now() + 2_000_000;
        let deadline = start + (2.0 * open * S) as u64 + S as u64;
        let first = (w * per_window) as usize;
        let schedule =
            Schedule::new(start, first, period, per_window, deadline, keep_every, req | 2 << 40);
        let runs = on_readers(oracle, &clock, readers, traced, spec.trace_every, |_, reader| {
            reader.open_loop(&pools[0], &schedule)
        });
        let mut latency = Histogram::default();
        for (stats, s, ()) in runs {
            latency.merge(&stats.latency);
            total.absorb(stats);
            spans.push(s);
        }
        windows.open(&latency);
    }
    spans.push(main_tracer.into_spans());
    let (g, scheme, _, oracle) = serving.expect("at least one window");
    drop(oracle);
    let (_, (on_tree, natural_on_tree)) = inputs.expect("at least one window");

    setup.report(&mut out);
    windows.report(&mut out);
    let mismatches = reference_check(&scheme, &total.records);
    out.set("verify.checked", total.records.len() as f64);
    out.set("verify.mismatches", mismatches as f64);
    total.report(&mut out, &spans);
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));

    out.attempted = total.attempted();
    out.failed = total.errors + total.abandoned + mismatches;
    out.checks_passed = true;
    let fast_share = total.fast as f64 / total.ok.max(1) as f64;
    out.provenance = vec![
        ("n", g.n().to_string()),
        ("m", g.m().to_string()),
        ("sources", spec.sources.to_string()),
        ("readers", format!("{READERS} closed loop, {readers} open loop")),
        ("fault_law", format!("{:?}", spec.law)),
        ("offered_qps", spec.offered_qps.to_string()),
        ("fast_path_share", format!("{fast_share:.4}")),
        ("on_tree_share_per_query_fault", format!("{on_tree:.4}")),
        ("on_tree_share_per_random_fault", format!("{natural_on_tree:.4}")),
    ];
    out.spans = spans;
    out
}

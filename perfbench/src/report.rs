//! The metric catalogue and the result a workload hands back.
//!
//! The two tables mirror `BENCHMARK.json`: an untraced run prints every
//! [`END_TO_END`] metric, a traced run every [`PER_LAYER`] metric (a layer
//! a workload does not exercise reads 0).

use std::collections::BTreeMap;

use crate::stats::{percentile, quantile, Histogram};
use crate::trace::{Layer, Span, Tracer, ROOT};

/// `(name, unit)` of the end-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_qps", "queries/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
];

/// `(name, unit)` of the per-layer metrics of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.graph_s", "s"),
    ("core.scheme_s", "s"),
    ("snapshot.build_s", "s"),
    ("serve.queries", "count"),
    ("serve.errors", "count"),
    ("serve.fast_share", "share"),
    ("serve.fast_p50_ns", "ns"),
    ("serve.fast_p99_ns", "ns"),
    ("engine.searches", "count"),
    ("engine.search_p50_us", "us"),
    ("engine.search_p99_us", "us"),
    ("loadgen.late_p50_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("churn.frames", "count"),
    ("churn.accepted", "count"),
    ("churn.quarantined", "count"),
    ("churn.shed", "count"),
    ("churn.q.bad-length", "count"),
    ("churn.q.bad-tag", "count"),
    ("churn.q.edge-overflow", "count"),
    ("churn.q.edge-out-of-range", "count"),
    ("churn.q.duplicate-arrival", "count"),
    ("churn.q.repair-without-fault", "count"),
    ("churn.ingest_p50_ns", "ns"),
    ("churn.wait_p99_ms", "ms"),
    ("churn.commits", "count"),
    ("churn.commit_p50_ms", "ms"),
    ("churn.commit_p99_ms", "ms"),
    ("churn.delta_share", "share"),
    ("churn.delta_fallbacks", "count"),
    ("churn.full_rebuilds", "count"),
    ("churn.stalls", "count"),
    ("churn.pending_p99", "count"),
    ("churn.fault_to_serve_p50_ms", "ms"),
    ("churn.fault_to_serve_p99_ms", "ms"),
    ("churn.queue_p50_ms", "ms"),
    ("churn.recover_s", "s"),
    ("serve.refreshes", "count"),
    ("serve.publish_to_read_p50_ms", "ms"),
    ("serve.publish_to_read_p99_ms", "ms"),
    ("scrub.ticks", "count"),
    ("scrub.tick_p50_ms", "ms"),
    ("scrub.tick_p99_ms", "ms"),
    ("scrub.rows_audited", "count"),
    ("scrub.corruptions", "count"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.compact_ms", "ms"),
    ("journal.export_ms", "ms"),
    ("journal.bytes", "bytes"),
    ("verify.checked", "count"),
    ("verify.mismatches", "count"),
    ("trace.overhead", "share"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: queries, plus frames and commits on churn.
    pub attempted: u64,
    /// Failed operations: query errors, reference mismatches, abandoned
    /// open-loop queries, stalls, shed events.
    pub failed: u64,
    /// Whole-run checks that are not single operations (convergence,
    /// recovery equivalence) all passed.
    pub checks_passed: bool,
    /// Every metric the run computed, by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Inputs and measured shares the workload hinges on.
    pub provenance: Vec<(&'static str, String)>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
    /// Spans of the traced run, one list per thread.
    pub spans: Vec<Vec<Span>>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Nanoseconds to the unit of a metric.
pub const US: f64 = 1e3;
pub const MS: f64 = 1e6;
pub const S: f64 = 1e9;

/// The repeated set-ups of one run; each metric is their quiet tenth
/// ([`QUIET`]), so slow set-ups during a burst of host load do not move
/// `setup_s`.
#[derive(Debug, Default)]
pub struct SetupTimes {
    graph: Vec<f64>,
    scheme: Vec<f64>,
    build: Vec<f64>,
    total: Vec<f64>,
}

impl SetupTimes {
    /// Records one set-up from its clock stamps: start, graph generated,
    /// scheme compiled, snapshot compiled (first query answerable).
    pub fn record(&mut self, tracer: &mut Tracer, rep: u64, [t0, t1, t2, t3]: [u64; 4]) {
        tracer.push(Layer::GenGraph, t0, t1, ROOT, rep);
        tracer.push(Layer::Scheme, t1, t2, ROOT, rep);
        tracer.push(Layer::SnapshotBuild, t2, t3, ROOT, rep);
        self.graph.push((t1 - t0) as f64 / S);
        self.scheme.push((t2 - t1) as f64 / S);
        self.build.push((t3 - t2) as f64 / S);
        self.total.push((t3 - t0) as f64 / S);
    }

    pub fn report(mut self, out: &mut Outcome) {
        out.set("setup_s", quantile(&mut self.total, QUIET));
        out.set("gen.graph_s", quantile(&mut self.graph, QUIET));
        out.set("core.scheme_s", quantile(&mut self.scheme, QUIET));
        out.set("snapshot.build_s", quantile(&mut self.build, QUIET));
    }
}

/// Windows per run; each is a closed-loop part then an open-loop part.
pub const WINDOWS: usize = 24;
/// Share of each window spent closed loop. Throughput settles on fewer
/// queries than a latency tail does, so the open loop gets the rest.
pub const CLOSED_SHARE: f64 = 0.25;
/// Slices each closed-loop part is counted in (100 ms each at
/// `--seconds 48`); `query_qps` is a quantile over all of a run's slices.
pub const SLICES: usize = 5;

/// The quantile of a run's windows (or set-ups) that an end-to-end
/// metric reports for a time, and `1 − QUIET` for a rate: the quiet
/// tenth, the figure nine tenths of the windows do no better than.
///
/// The host this benchmark was built on is shared. Its speed drifts for
/// tens of seconds at a time, and a burst of load elsewhere stalls its
/// virtual CPUs for milliseconds, which a latency tail reports whole. A
/// median over windows absorbs bursts that cover less than half of a run;
/// the quiet tenth absorbs bursts that cover up to nine tenths of it, and
/// still moves with any change to the program, which every window runs.
/// Over ten seeds, the window p99s' 25th percentile spread 0.27 (over its
/// median) and their 10th percentile 0.19.
pub const QUIET: f64 = 0.1;

/// Per-window end-to-end figures. A run alternates closed-loop and
/// open-loop windows, and each metric is the [`QUIET`] quantile of its
/// windows.
#[derive(Debug, Default)]
pub struct Windows {
    qps: Vec<f64>,
    traced_qps: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Windows {
    /// One closed-loop part's answer rates, one per slice, untraced or
    /// traced.
    pub fn closed(&mut self, rates: &[f64], traced: bool) {
        if traced { &mut self.traced_qps } else { &mut self.qps }.extend_from_slice(rates);
    }

    /// One open-loop window's latencies (ns, from the scheduled send).
    pub fn open(&mut self, latency: &Histogram) {
        self.p50.push(latency.quantile(0.50) / US);
        self.p99.push(latency.quantile(0.99) / US);
    }

    pub fn report(mut self, out: &mut Outcome) {
        let list = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
        let q = |v: &mut Vec<f64>, at: f64| quantile(v, at);
        out.note(format!(
            "closed-loop slices: {}, qps quartiles {:.1} / {:.1} / {:.1}",
            self.qps.len(),
            q(&mut self.qps, 0.25),
            q(&mut self.qps, 0.5),
            q(&mut self.qps, 0.75)
        ));
        out.note(format!("window p50 us: {}", list(&self.p50)));
        out.note(format!("window p99 us: {}", list(&self.p99)));
        let qps = quantile(&mut self.qps, 1.0 - QUIET);
        out.set("query_qps", qps);
        out.set("query_p50_us", quantile(&mut self.p50, QUIET));
        out.set("query_p99_us", quantile(&mut self.p99, QUIET));
        if !self.traced_qps.is_empty() {
            out.set("trace.overhead", 1.0 - quantile(&mut self.traced_qps, 1.0 - QUIET) / qps);
        }
    }
}

/// Sorted durations (ns) in the unit `per` (e.g. [`MS`]) at quantile `q`.
pub fn quantile_in(sorted_ns: &[u64], q: f64, per: f64) -> f64 {
    percentile(sorted_ns, q) as f64 / per
}

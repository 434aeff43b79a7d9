//! One data-plane thread: issues queries through an `OracleReader`,
//! closed loop or open loop, and keeps what the metrics need.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use rsp_oracle::{Oracle, OracleReader, TreeView};

use crate::check::Record;
use crate::inputs::Query;
use crate::report::{quantile_in, Outcome, S, US};
use crate::stats::{Clock, Histogram};
use crate::trace::{durations, Layer, Span, Tracer, ROOT};

/// One open-loop arrival stream: query `j` (request id `req_base + j`,
/// pool entry `first + j`) is due at `start + j * period_ns`. Queries not
/// sent by `deadline` are abandoned; every `keep_every`-th answer is kept
/// for the reference check.
#[derive(Debug)]
pub struct Schedule {
    pub start: u64,
    /// Pool index of the stream's first query, so successive streams of a
    /// run serve fresh queries rather than the same prefix again.
    pub first: usize,
    pub period_ns: f64,
    pub count: u64,
    pub deadline: u64,
    pub keep_every: u64,
    pub req_base: u64,
    /// The next query to claim; shared by the readers serving the stream.
    /// A plain counter that publishes no other data, so `Relaxed`.
    next: AtomicU64,
}

impl Schedule {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        start: u64,
        first: usize,
        period_ns: f64,
        count: u64,
        deadline: u64,
        keep_every: u64,
        req_base: u64,
    ) -> Self {
        Schedule {
            start,
            first,
            period_ns,
            count,
            deadline,
            keep_every,
            req_base,
            next: AtomicU64::new(0),
        }
    }
}

/// `count` equal slices of clock time from `from`: slice `k` is
/// `[from + k·len_ns, from + (k+1)·len_ns)`. A closed loop counts its
/// answers per slice, so a run's throughput is a quantile over many short
/// stretches rather than over a few long ones.
#[derive(Clone, Copy, Debug)]
pub struct Slices {
    pub from: u64,
    pub len_ns: u64,
    pub count: usize,
}

impl Slices {
    /// `count` slices covering `from..until`.
    pub fn new(from: u64, until: u64, count: usize) -> Self {
        Slices { from, len_ns: (until.saturating_sub(from) / count as u64).max(1), count }
    }

    /// The end of the last slice.
    pub fn until(&self) -> u64 {
        self.from + self.len_ns * self.count as u64
    }

    /// Credits one answer, computed over clock times `a..b`, to the slices
    /// it overlaps in proportion to the overlap. A query that straddles a
    /// slice boundary then counts partly in each, so a slice's rate is not
    /// rounded to whole answers.
    fn credit(&self, answered: &mut [f64], a: u64, b: u64) {
        let (a, b) = (a.max(self.from), b.min(self.until()));
        if b <= a {
            return;
        }
        let (first, last) = ((a - self.from) / self.len_ns, (b - 1 - self.from) / self.len_ns);
        for k in first..=last {
            let lo = a.max(self.from + k * self.len_ns);
            let hi = b.min(self.from + (k + 1) * self.len_ns);
            answered[k as usize] += (hi - lo) as f64 / (b - a) as f64;
        }
    }

    /// Answers per second in each slice, summed over the readers' counts.
    pub fn rates(&self, answered: &[Vec<f64>]) -> Vec<f64> {
        let secs = self.len_ns as f64 / S;
        (0..self.count).map(|k| answered.iter().map(|a| a[k]).sum::<f64>() / secs).collect()
    }
}

/// What one reader thread observed.
#[derive(Debug, Default)]
pub struct ReaderStats {
    /// Queries answered (`Ok`).
    pub ok: u64,
    /// Queries refused with a `QueryError`.
    pub errors: u64,
    /// Answers that came from the snapshot row (the fast path).
    pub fast: u64,
    /// `OracleReader::refresh` calls that moved to a new epoch.
    pub refreshes: u64,
    /// Open loop: scheduled send to answer read (ns).
    pub latency: Histogram,
    /// Open loop: scheduled send to actual send (ns).
    pub late: Histogram,
    /// Open loop: most queries due but not yet sent.
    pub backlog_max: u64,
    /// Open loop: queries never sent because the run overran its deadline.
    pub abandoned: u64,
    /// Served answers kept for the reference check.
    pub records: Vec<Record>,
    /// `(snapshot version, clock ns)` of the first answer read from each
    /// newly adopted snapshot.
    pub versions: Vec<(u64, u64)>,
}

impl ReaderStats {
    /// Folds another thread's or phase's observations into these.
    pub fn absorb(&mut self, other: ReaderStats) {
        self.ok += other.ok;
        self.errors += other.errors;
        self.fast += other.fast;
        self.refreshes += other.refreshes;
        self.latency.merge(&other.latency);
        self.late.merge(&other.late);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.abandoned += other.abandoned;
        self.records.extend(other.records);
        self.versions.extend(other.versions);
    }

    /// Queries issued, answered or not.
    pub fn attempted(&self) -> u64 {
        self.ok + self.errors + self.abandoned
    }

    /// Sets the reader-side layer metrics: serve, engine and load
    /// generator (service times from the traced run's spans).
    pub fn report(&self, out: &mut Outcome, spans: &[Vec<Span>]) {
        out.set("serve.queries", (self.ok + self.errors) as f64);
        out.set("serve.errors", self.errors as f64);
        out.set("serve.fast_share", self.fast as f64 / self.ok.max(1) as f64);
        let fast = durations(spans, Layer::Fast);
        out.set("serve.fast_p50_ns", quantile_in(&fast, 0.50, 1.0));
        out.set("serve.fast_p99_ns", quantile_in(&fast, 0.99, 1.0));
        out.set("engine.searches", (self.ok - self.fast) as f64);
        let engine = durations(spans, Layer::Engine);
        out.set("engine.search_p50_us", quantile_in(&engine, 0.50, US));
        out.set("engine.search_p99_us", quantile_in(&engine, 0.99, US));
        out.set("loadgen.late_p50_us", self.late.quantile(0.50) / US);
        out.set("loadgen.late_p99_us", self.late.quantile(0.99) / US);
        out.set("loadgen.backlog_max", self.backlog_max as f64);
        out.set("serve.refreshes", self.refreshes as f64);
        out.note(format!(
            "open loop, all windows pooled: {} queries, p50 {:.1} us, p99 {:.1} us from the \
             scheduled send; late p99 {:.1} us, backlog max {}, abandoned {}",
            self.latency.count(),
            self.latency.quantile(0.50) / US,
            self.latency.quantile(0.99) / US,
            self.late.quantile(0.99) / US,
            self.backlog_max,
            self.abandoned
        ));
    }
}

pub struct Reader<'a> {
    reader: OracleReader<u128>,
    clock: &'a Clock,
    n: usize,
    version: u64,
    /// Pool index of the next closed-loop query. Successive closed-loop
    /// parts continue through the pool, so a run covers many distinct
    /// queries and its figures do not hinge on one short prefix of it.
    pub cursor: usize,
    /// Queries issued so far; the traced run traces one in `trace_every`.
    issued: u64,
    trace_every: u64,
    pub tracer: Tracer,
    pub stats: ReaderStats,
}

/// Reads what a client of the oracle reads: `dist(t)`, `cost(t)` and the
/// parent chain from `t` back to the source (kept in `chain` if given).
fn read_answer(
    view: &TreeView<'_, u128>,
    t: usize,
    n: usize,
    mut chain: Option<&mut Vec<(usize, usize)>>,
) -> (Option<u32>, Option<u128>) {
    let dist = view.dist(t);
    let cost = view.cost(t).copied();
    let (mut cur, mut hops) = (t, 0usize);
    // `n` bounds the walk so a corrupt parent cycle cannot hang the run.
    while let Some((p, e)) = view.parent(cur).filter(|_| hops < n) {
        if let Some(c) = chain.as_deref_mut() {
            c.push((p, e));
        }
        cur = p;
        hops += 1;
    }
    black_box((hops, cur));
    (dist, cost)
}

impl<'a> Reader<'a> {
    pub fn new(oracle: &Oracle<u128>, clock: &'a Clock, trace: bool, trace_every: u64) -> Self {
        let reader = oracle.reader();
        let version = reader.snapshot().version();
        let n = reader.snapshot().graph().n();
        Reader {
            reader,
            clock,
            n,
            version,
            cursor: 0,
            issued: 0,
            trace_every: trace_every.max(1),
            tracer: Tracer::new(trace),
            stats: ReaderStats::default(),
        }
    }

    /// Whether the next query issued is traced.
    fn traces_next(&self) -> bool {
        self.tracer.on() && self.issued.is_multiple_of(self.trace_every)
    }

    pub fn finish(self) -> (ReaderStats, Vec<Span>) {
        (self.stats, self.tracer.into_spans())
    }

    /// Issues one query and reads its answer; returns the clock time the
    /// read finished. `keep` saves the answer for the reference check.
    pub fn issue(&mut self, q: &Query, req: u64, keep: bool) -> u64 {
        let (f, nf) = q.faults();
        let (s, t) = (q.s as usize, q.t as usize);
        let traced = self.traces_next();
        self.issued += 1;
        let (clock, n) = (self.clock, self.n);
        let t0 = clock.now();
        if self.reader.refresh() {
            self.stats.refreshes += 1;
        }
        let t1 = if traced { clock.now() } else { 0 };
        let mut chain = keep.then(Vec::new);
        let answer = self.reader.try_query_edges(s, &f[..nf]).map(|view| {
            let t2 = if traced { clock.now() } else { 0 };
            let fast = view.from_baseline();
            (fast, t2, read_answer(&view, t, n, chain.as_mut()))
        });
        let end = clock.now();

        let root = if traced { self.tracer.push(Layer::Request, t0, end, ROOT, req) } else { ROOT };
        if traced {
            self.tracer.push(Layer::Refresh, t0, t1, root, req);
        }
        match answer {
            Ok((fast, t2, (dist, cost))) => {
                self.stats.ok += 1;
                self.stats.fast += u64::from(fast);
                if traced {
                    let layer = if fast { Layer::Fast } else { Layer::Engine };
                    self.tracer.push(layer, t1, t2, root, req);
                    self.tracer.push(Layer::Read, t2, end, root, req);
                }
                if let Some(chain) = chain {
                    // The snapshot that answered: stable until the next refresh.
                    let mut faults: Vec<usize> =
                        self.reader.snapshot().base_faults().iter().collect();
                    faults.extend_from_slice(&f[..nf]);
                    self.stats.records.push(Record { s, t, faults, dist, cost, chain });
                }
            }
            Err(_) => self.stats.errors += 1,
        }
        let v = self.reader.snapshot().version();
        if v != self.version {
            self.version = v;
            self.stats.versions.push((v, end));
        }
        end
    }

    /// Back-to-back queries over `pool`, from [`Reader::cursor`] on, for
    /// the span of `slices`. Request ids are `req_base + i * req_stride`.
    /// Returns the answers in each slice ([`Slices::credit`]).
    pub fn closed_loop(
        &mut self,
        pool: &[Query],
        slices: Slices,
        req_base: u64,
        req_stride: u64,
    ) -> Vec<f64> {
        let until = slices.until();
        let mut answered = vec![0.0; slices.count];
        let mut end = self.clock.wait_until(slices.from);
        let mut i = 0usize;
        while end < until {
            let q = &pool[(self.cursor + i) % pool.len()];
            let (ok_before, start) = (self.stats.ok, end);
            end = self.issue(q, req_base + i as u64 * req_stride, false);
            if self.stats.ok > ok_before {
                slices.credit(&mut answered, start, end);
            }
            i += 1;
        }
        self.cursor = (self.cursor + i) % pool.len();
        answered
    }

    /// Open loop: claims queries off `schedule` until it runs out. Every
    /// reader given the same schedule serves the same arrival stream, as
    /// the workers of one server would: a query waits only while all of
    /// them are busy. Latency is timed from the due moment, so a stall
    /// also delays every query queued behind it.
    pub fn open_loop(&mut self, pool: &[Query], schedule: &Schedule) {
        loop {
            let j = schedule.next.fetch_add(1, Ordering::Relaxed);
            if j >= schedule.count {
                return;
            }
            let due = schedule.start + (j as f64 * schedule.period_ns) as u64;
            let now = self.clock.wait_until(due);
            if now > schedule.deadline {
                self.stats.abandoned += 1;
                continue;
            }
            let due_by_now = ((now - schedule.start) as f64 / schedule.period_ns) as u64;
            self.stats.backlog_max = self.stats.backlog_max.max(due_by_now.saturating_sub(j));
            self.stats.late.record(now - due);
            let req = schedule.req_base + j;
            if self.traces_next() {
                self.tracer.push(Layer::Late, due, now, ROOT, req);
            }
            let keep = j.is_multiple_of(schedule.keep_every.max(1));
            let end = self.issue(&pool[(schedule.first + j as usize) % pool.len()], req, keep);
            self.stats.latency.record(end - due);
        }
    }
}

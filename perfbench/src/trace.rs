//! In-memory span recording for the traced run.
//!
//! Spans are recorded in the benchmark's own code, around each call into a
//! layer's public function; the library itself carries no instrumentation.
//! Each thread owns a [`Tracer`]; spans stay in memory and are written out
//! once, after the measurement ([`write_csv`]).

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// The layer boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One query, from issue to the last read of its answer.
    Request,
    /// Open-loop lateness: scheduled send to actual send.
    Late,
    /// `OracleReader::refresh`.
    Refresh,
    /// `OracleReader::try_query_edges` answered from the snapshot row.
    Fast,
    /// `OracleReader::try_query_edges` answered by the exact engine.
    Engine,
    /// Reading `dist`, `cost` and the parent chain off the `TreeView`.
    Read,
    /// `gen::preferential_attachment`.
    GenGraph,
    /// `RandomGridAtw::theorem20(..).into_scheme()`.
    Scheme,
    /// Snapshot compile (`SnapshotBuilder::build` / `ChurnPipeline::new`).
    SnapshotBuild,
    /// A frame's scheduled arrival to its ingest call.
    Wait,
    /// `ChurnPipeline::ingest_wire`.
    Ingest,
    /// `ChurnPipeline::commit`.
    Commit,
    /// Commit end to the reader's first answer on the new epoch.
    PublishToRead,
    /// A frame's scheduled arrival to the reader's first answer on an
    /// epoch folding it.
    FaultToServe,
    /// `Scrubber::tick`.
    ScrubTick,
    /// `ChurnPipeline::checkpoint`.
    Checkpoint,
    /// `ChurnPipeline::compact`.
    Compact,
    /// `ChurnPipeline::export_journal`.
    Export,
    /// `ChurnPipeline::recover`.
    Recover,
}

impl Layer {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Late => "loadgen.late",
            Layer::Refresh => "serve.refresh",
            Layer::Fast => "serve.fast",
            Layer::Engine => "engine.search",
            Layer::Read => "serve.read",
            Layer::GenGraph => "gen.graph",
            Layer::Scheme => "core.scheme",
            Layer::SnapshotBuild => "snapshot.build",
            Layer::Wait => "churn.wait",
            Layer::Ingest => "churn.ingest",
            Layer::Commit => "churn.commit",
            Layer::PublishToRead => "serve.publish_to_read",
            Layer::FaultToServe => "fault_to_serve",
            Layer::ScrubTick => "scrub.tick",
            Layer::Checkpoint => "journal.checkpoint",
            Layer::Compact => "journal.compact",
            Layer::Export => "journal.export",
            Layer::Recover => "churn.recover",
        }
    }
}

/// One recorded interval. `parent` indexes the same thread's span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    /// Shared by the spans of one query or one fault event.
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span buffer; records nothing while off.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Records a span (when on) and returns its index for children.
    pub fn push(&mut self, layer: Layer, start: u64, end: u64, parent: u32, request: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span { layer, start, end, parent, request });
        (self.spans.len() - 1) as u32
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Sorted durations (ns) of every span of `layer`, over all threads.
pub fn durations(threads: &[Vec<Span>], layer: Layer) -> Vec<u64> {
    let mut d: Vec<u64> =
        threads.iter().flatten().filter(|s| s.layer == layer).map(Span::duration).collect();
    d.sort_unstable();
    d
}

/// Per-layer total self time (ns): each span's duration minus the part
/// its children cover. Children of one parent run on the parent's thread
/// one after another, so they never overlap.
pub fn self_times(threads: &[Vec<Span>]) -> BTreeMap<Layer, u64> {
    let mut out = BTreeMap::new();
    for spans in threads {
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.duration();
            }
        }
        for (s, c) in spans.iter().zip(&child) {
            *out.entry(s.layer).or_insert(0) += s.duration().saturating_sub(*c);
        }
    }
    out
}

/// Writes every span as CSV (`thread,id,parent,request,name,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,id,parent,request,name,start_ns,end_ns")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT { String::new() } else { s.parent.to_string() };
            writeln!(w, "{t},{i},{parent},{},{},{},{}", s.request, s.layer.name(), s.start, s.end)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.push(Layer::Request, 0, 100, ROOT, 7);
        t.push(Layer::Refresh, 0, 10, root, 7);
        t.push(Layer::Engine, 10, 80, root, 7);
        let spans = vec![t.into_spans()];
        let st = self_times(&spans);
        assert_eq!(st[&Layer::Request], 20);
        assert_eq!(st[&Layer::Engine], 70);
        assert_eq!(durations(&spans, Layer::Refresh), vec![10]);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.push(Layer::Request, 0, 1, ROOT, 0), ROOT);
        assert!(t.into_spans().is_empty());
    }
}

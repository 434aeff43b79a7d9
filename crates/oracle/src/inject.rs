//! The deterministic fault-injection harness for the churn pipeline.
//!
//! Everything here is seeded and replayable: the same seed produces the
//! same hostile stream and the same build-fault schedule, so a failing
//! robustness run reproduces exactly. The harness has three layers:
//!
//! * [`random_trace`] / [`random_trace_with`] — a *valid* event trace:
//!   arrivals and repairs that each pass validation when applied in
//!   order (the ground truth a pipeline under attack must still
//!   converge to). [`TraceOptions`] adds dense same-edge repair bursts
//!   and a concurrent-fault cap for the delta suite.
//! * [`InjectionPlan`] / [`StreamInjector`] — the wire-level attacker:
//!   drops, duplicates, reorders, and corrupts the encoded frames of a
//!   trace before they reach [`ChurnPipeline::ingest_wire`].
//! * [`flaky_builder`] / [`flaky_delta_builder`] — the build-side
//!   attackers: probes for [`ChurnPipeline::set_build_probe`] that
//!   panic the snapshot builder (or only its delta patches) or corrupt
//!   its output for the first N builds, then heal — exercising both
//!   rungs of the commit ladder: cross-check rejection, delta fallback
//!   to the full build, and the stall when both fail.
//! * [`flip_random_bit`] / [`truncate_random`] — durability attackers
//!   for serialized **journal streams** ([`ChurnPipeline::export_journal`]):
//!   a seeded single-bit flip the CRC framing must catch, and a seeded
//!   truncation the torn-tail recovery must absorb.
//! * [`corrupt_published_row`] with [`CellCorruption`] — the
//!   post-publication attacker: flips one cell (hop, parent, or cost)
//!   of a row the oracle is *currently serving*, the damage only the
//!   background scrubber ([`crate::scrub`]) can catch. The scrub suite
//!   proves that one tick detects it and heals it with one publish.
//!
//! [`verify_published`] closes the loop: whatever was injected, the
//! snapshot actually serving must agree cell-for-cell with a fresh
//! engine run on its own base fault state.
//!
//! # Examples
//!
//! A complete attack-and-converge cycle:
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_graph::generators;
//! use rsp_oracle::churn::inject::{random_trace, InjectionPlan, StreamInjector};
//! use rsp_oracle::churn::inject::verify_published;
//! use rsp_oracle::churn::ChurnPipeline;
//!
//! let g = generators::grid(4, 4);
//! let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
//! let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
//!
//! let trace = random_trace(&g, 30, 0xabcd);
//! let mut injector = StreamInjector::new(InjectionPlan::hostile(0xabcd));
//! for frame in injector.perturb(&trace) {
//!     let _ = pipeline.ingest_wire(&frame); // quarantines are expected
//! }
//! pipeline.commit().unwrap();
//! verify_published(&pipeline).unwrap();
//! ```

use rand::{rngs::StdRng, Rng, SeedableRng};
use rsp_arith::PathCost;
use rsp_core::Rpts;
use rsp_graph::{FaultEvent, FaultState, Graph, SearchScratch, Vertex};

use super::{BuildFault, BuildProbe, BuildStage, ChurnPipeline};
use crate::serve::Oracle;

/// Generates a *valid* random churn trace of `len` events: every event
/// passes validation when the trace is applied in order from a
/// fault-free start (arrivals only fault live edges, repairs only
/// faulted ones). Deterministic in `seed`.
///
/// The trace never gets stuck: when every edge is faulted it must
/// repair, when none is it must arrive.
///
/// Equivalent to [`random_trace_with`] under [`TraceOptions::default`]
/// (byte-identical traces, same seed).
///
/// # Examples
///
/// ```
/// use rsp_graph::{generators, FaultState};
/// use rsp_oracle::churn::inject::random_trace;
///
/// let g = generators::grid(3, 3);
/// let trace = random_trace(&g, 50, 7);
/// let mut state = FaultState::for_graph(&g);
/// for ev in &trace {
///     state.apply(*ev).expect("every trace event validates in order");
/// }
/// assert_eq!(trace, random_trace(&g, 50, 7), "deterministic in the seed");
/// ```
pub fn random_trace(g: &Graph, len: usize, seed: u64) -> Vec<FaultEvent> {
    random_trace_with(g, len, seed, TraceOptions::default())
}

/// Shape knobs for [`random_trace_with`]. The default is exactly
/// [`random_trace`]'s historical behavior (same RNG consumption, so the
/// same seed yields the same trace).
#[derive(Clone, Copy, Debug)]
pub struct TraceOptions {
    /// Probability a free-choice step repairs instead of arriving
    /// (default 0.4).
    pub repair_bias: f64,
    /// Probability an arrival is immediately followed by a **dense
    /// burst** on the same edge — `Repair(e)` then `Arrive(e)` appended
    /// right behind `Arrive(e)`, all inside one commit window (default
    /// 0.0). This is the same-edge arrive→repair→arrive shape a batched
    /// commit must fold correctly; plain [`random_trace`] never emits
    /// it.
    pub burst: f64,
    /// Cap on concurrently faulted edges; when reached the trace must
    /// repair. `None` means the graph's edge count (default).
    pub max_faults: Option<usize>,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions { repair_bias: 0.4, burst: 0.0, max_faults: None }
    }
}

/// [`random_trace`] with [`TraceOptions`]: repair bias, dense same-edge
/// repair bursts, and a concurrent-fault cap. Every emitted trace is
/// valid in order from a fault-free start, whatever the options.
///
/// # Examples
///
/// ```
/// use rsp_graph::{generators, FaultEvent, FaultState};
/// use rsp_oracle::churn::inject::{random_trace_with, TraceOptions};
///
/// let g = generators::grid(3, 3);
/// let opts = TraceOptions { burst: 0.5, max_faults: Some(3), ..TraceOptions::default() };
/// let trace = random_trace_with(&g, 60, 7, opts);
/// let mut state = FaultState::for_graph(&g);
/// for ev in &trace {
///     state.apply(*ev).expect("every trace event validates in order");
///     assert!(state.len() <= 3, "the fault cap holds at every prefix");
/// }
/// // Bursty traces contain the same-edge arrive -> repair -> arrive run:
/// let bursts = trace.windows(3).filter(|w| match *w {
///     [FaultEvent::Arrive(a), FaultEvent::Repair(b), FaultEvent::Arrive(c)] => {
///         a == b && b == c
///     }
///     _ => false,
/// });
/// assert!(bursts.count() > 0);
/// ```
pub fn random_trace_with(g: &Graph, len: usize, seed: u64, opts: TraceOptions) -> Vec<FaultEvent> {
    let cap = opts.max_faults.unwrap_or(g.m()).min(g.m());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = FaultState::for_graph(g);
    let mut trace = Vec::with_capacity(len);
    while trace.len() < len {
        let must_repair = state.len() >= cap;
        let must_arrive = state.is_empty();
        let repair = must_repair || (!must_arrive && rng.random_bool(opts.repair_bias));
        let ev = if repair {
            let faulted = state.faults().as_slice();
            FaultEvent::Repair(faulted[rng.random_range(0..faulted.len())])
        } else {
            let live: Vec<_> = (0..g.m()).filter(|&e| !state.faults().contains(e)).collect();
            FaultEvent::Arrive(live[rng.random_range(0..live.len())])
        };
        state.apply(ev).expect("trace generator only emits admissible events");
        trace.push(ev);
        // Dense burst: hammer the edge that just failed with
        // repair-then-re-arrive. (The `> 0.0` guard keeps the default
        // RNG consumption identical to the historical generator.)
        if opts.burst > 0.0 {
            if let FaultEvent::Arrive(e) = ev {
                if trace.len() + 2 <= len && rng.random_bool(opts.burst) {
                    for burst_ev in [FaultEvent::Repair(e), FaultEvent::Arrive(e)] {
                        state.apply(burst_ev).expect("same-edge burst is always admissible");
                        trace.push(burst_ev);
                    }
                }
            }
        }
    }
    trace
}

/// Probabilities for each wire-level perturbation a [`StreamInjector`]
/// applies, plus the seed driving them. All probabilities are per-event
/// and independent.
#[derive(Clone, Copy, Debug)]
pub struct InjectionPlan {
    /// Seed for the injector's deterministic random stream.
    pub seed: u64,
    /// Probability an event's frame is silently dropped.
    pub drop: f64,
    /// Probability an event's frame is delivered twice.
    pub duplicate: f64,
    /// Probability an event's frame is replaced by a corrupted one
    /// (truncated, bad tag, or random bytes).
    pub corrupt: f64,
    /// Probability each adjacent frame pair is swapped in the final
    /// reorder pass.
    pub reorder: f64,
}

impl InjectionPlan {
    /// A faithful wire: nothing dropped, duplicated, corrupted, or
    /// reordered (the control arm of every robustness experiment).
    pub fn clean(seed: u64) -> Self {
        InjectionPlan { seed, drop: 0.0, duplicate: 0.0, corrupt: 0.0, reorder: 0.0 }
    }

    /// The default hostile mix: 5% drops, 10% duplicates, 10%
    /// corruptions, 15% adjacent swaps.
    pub fn hostile(seed: u64) -> Self {
        InjectionPlan { seed, drop: 0.05, duplicate: 0.1, corrupt: 0.1, reorder: 0.15 }
    }
}

/// Applies an [`InjectionPlan`] to event traces, producing the byte
/// frames "the network actually delivered".
#[derive(Clone, Debug)]
pub struct StreamInjector {
    plan: InjectionPlan,
    rng: StdRng,
}

impl StreamInjector {
    /// A new injector; its random stream is seeded from the plan.
    pub fn new(plan: InjectionPlan) -> Self {
        StreamInjector { rng: StdRng::seed_from_u64(plan.seed), plan }
    }

    /// Perturbs `trace` into delivered wire frames: per event, maybe
    /// drop, maybe corrupt (replacing the clean frame), maybe
    /// duplicate; then a reorder pass swapping adjacent frames.
    ///
    /// Note a corrupted frame *replaces* the clean one — and random
    /// bytes occasionally decode to a different valid event, which is
    /// exactly the byzantine input the pipeline's validation layer (not
    /// the codec) must absorb.
    pub fn perturb(&mut self, trace: &[FaultEvent]) -> Vec<Vec<u8>> {
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(trace.len());
        for ev in trace {
            if self.rng.random_bool(self.plan.drop) {
                continue;
            }
            let frame = if self.rng.random_bool(self.plan.corrupt) {
                self.garble(ev)
            } else {
                ev.encode().to_vec()
            };
            if self.rng.random_bool(self.plan.duplicate) {
                frames.push(frame.clone());
            }
            frames.push(frame);
        }
        for i in 1..frames.len() {
            if self.rng.random_bool(self.plan.reorder) {
                frames.swap(i - 1, i);
            }
        }
        frames
    }

    /// One corrupted frame: truncation, an undefined tag byte, or fully
    /// random bytes of the correct length.
    fn garble(&mut self, ev: &FaultEvent) -> Vec<u8> {
        let clean = ev.encode();
        match self.rng.random_range(0u8..3) {
            0 => clean[..self.rng.random_range(0..clean.len())].to_vec(),
            1 => {
                let mut f = clean.to_vec();
                f[0] = self.rng.random_range(3u8..=u8::MAX);
                f
            }
            _ => (0..clean.len()).map(|_| self.rng.random_range(0u8..=u8::MAX)).collect(),
        }
    }
}

/// A build probe that fails the first `panics + corrupts` builds it
/// sees — `panics` by panicking inside the builder, then `corrupts` by
/// letting the build succeed and corrupting a cross-checked cell — and
/// then behaves. Install with [`ChurnPipeline::set_build_probe`].
///
/// The probe is consulted once per rung of the commit ladder
/// ([`super::BuildStage`]): one failure publishes from the full rung,
/// two stall the commit while the last good snapshot keeps serving.
/// The robustness suite pins both regimes.
pub fn flaky_builder(panics: u32, corrupts: u32) -> BuildProbe {
    let mut seen = 0u32;
    Box::new(move |_ctx| {
        seen += 1;
        if seen <= panics {
            BuildFault::Panic
        } else if seen <= panics + corrupts {
            BuildFault::Corrupt
        } else {
            BuildFault::None
        }
    })
}

/// A build probe that attacks only the **delta** rung
/// ([`super::BuildStage::Delta`]): the first `panics` delta builds
/// panic inside the patch, the next `corrupts` let the patch succeed
/// and corrupt a cross-checked cell; the from-scratch rungs are always
/// left alone. Install with [`ChurnPipeline::set_build_probe`].
///
/// This is how the delta suite proves the fallback ladder heals: a
/// poisoned delta fails its rung, and the pipeline publishes from the
/// untouched full rung in the same commit with the reason recorded in
/// [`super::ChurnHealth::last_delta_fallback`].
pub fn flaky_delta_builder(panics: u32, corrupts: u32) -> BuildProbe {
    let mut seen = 0u32;
    Box::new(move |ctx| {
        if ctx.stage != BuildStage::Delta {
            return BuildFault::None;
        }
        seen += 1;
        if seen <= panics {
            BuildFault::Panic
        } else if seen <= panics + corrupts {
            BuildFault::Corrupt
        } else {
            BuildFault::None
        }
    })
}

/// Asserts the pipeline's *published* snapshot agrees cell-for-cell
/// (hops, parents, exact costs, every source × every vertex) with a
/// fresh engine run on the snapshot's own base fault state. Returns the
/// first disagreeing `(source, vertex)` on failure.
///
/// This is the harness's end-of-experiment gate: after any injection
/// schedule, a converged pipeline must serve answers indistinguishable
/// from recomputing [`ExactScheme::spt_into`] from scratch.
///
/// [`ExactScheme::spt_into`]: rsp_core::ExactScheme::spt_into
pub fn verify_published<C: PathCost + 'static>(
    pipeline: &ChurnPipeline<C>,
) -> Result<(), (Vertex, Vertex)> {
    let snapshot = pipeline.published_snapshot();
    let scheme = pipeline.scheme();
    let g = scheme.graph();
    let mut scratch = SearchScratch::with_capacity(g.n());
    for s in g.vertices() {
        let row = snapshot.baseline(s).expect("default snapshots serve every vertex");
        scheme.spt_into(s, snapshot.base_faults(), &mut scratch);
        for v in g.vertices() {
            if row.dist(v) != scratch.hops(v)
                || row.parent(v) != scratch.parent(v)
                || row.cost(v) != scratch.cost(v)
            {
                return Err((s, v));
            }
        }
    }
    Ok(())
}

/// Asserts full convergence: nothing pending, not degraded, the
/// published snapshot folds exactly the pipeline's accepted fault
/// state, and [`verify_published`] passes. Returns a description of the
/// first violated condition.
pub fn verify_converged<C: PathCost + 'static>(pipeline: &ChurnPipeline<C>) -> Result<(), String> {
    let health = pipeline.health();
    if health.pending_events != 0 {
        return Err(format!("{} accepted events not yet published", health.pending_events));
    }
    if health.degraded {
        return Err(format!("pipeline degraded: {:?}", health.last_failure));
    }
    let snapshot = pipeline.published_snapshot();
    if snapshot.base_faults() != pipeline.fault_state().faults() {
        return Err("published base faults disagree with the accepted fault state".to_string());
    }
    verify_published(pipeline)
        .map_err(|(s, v)| format!("published snapshot wrong at source {s}, vertex {v}"))
}

/// Flips one seeded-random bit of `bytes` in place, returning the byte
/// offset touched (`None` on an empty stream). The single-event wire
/// codec has no checksum — this is the corruption the journal frame
/// layer's CRC32 ([`rsp_graph::journal`]) exists to catch, and the
/// recovery proptests drive it across every offset.
pub fn flip_random_bit(bytes: &mut [u8], seed: u64) -> Option<usize> {
    if bytes.is_empty() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let at = rng.random_range(0..bytes.len());
    bytes[at] ^= 1 << rng.random_range(0u32..8);
    Some(at)
}

/// Truncates `bytes` to a seeded-random proper prefix (possibly empty),
/// returning the new length — the "power failed mid-append" journal
/// tail that [`super::ChurnPipeline::recover`] must treat as a clean
/// recovery point ([`rsp_graph::journal::JournalTail::Torn`]), never an
/// error and never a panic.
pub fn truncate_random(bytes: &mut Vec<u8>, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let keep = if bytes.is_empty() { 0 } else { rng.random_range(0..bytes.len()) };
    bytes.truncate(keep);
    keep
}

/// Which cell of a tree row [`corrupt_published_row`] (and the
/// [`BuildFault::Corrupt`] build probe, with `Hop`) flips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellCorruption {
    /// Bump a reachable non-source vertex's hop count by one.
    Hop,
    /// Erase a reachable non-source vertex's parent pointer.
    Parent,
    /// Zero a reachable non-source vertex's exact path cost.
    Cost,
}

/// Corrupts one cell of source `s`'s tree row in the snapshot `oracle`
/// is **currently serving** — clone, flip, republish — and returns the
/// vertex whose cell was damaged (`None` if `s` has no row or no
/// corruptible cell). When the row carries a cell list (cells a delta
/// commit recomputed), the damage goes into a copy of that list;
/// otherwise into a copy of the row's base. Storage other snapshots
/// share is never written.
///
/// This models damage that strikes *after* every commit-time gate has
/// passed (a stray write, bad RAM): readers consume the wrong cell from
/// the fast path until the scrubber's audit catches it. The scrub suite
/// uses this probe to prove detection and repair, not luck, is what
/// keeps served answers correct.
pub fn corrupt_published_row<C: PathCost + 'static>(
    oracle: &Oracle<C>,
    s: Vertex,
    kind: CellCorruption,
) -> Option<Vertex> {
    let mut corrupted = (*oracle.snapshot()).clone();
    let victim = corrupted.corrupt_cell(s, kind)?;
    oracle.publish(corrupted);
    Some(victim)
}

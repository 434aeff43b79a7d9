//! The churn-hardened control plane: fault-event ingestion, validated
//! folding, panic-isolated recompilation, and degraded serving.
//!
//! A [`ChurnPipeline`] consumes the `fault arrives / fault repairs`
//! stream of a live network and keeps an [`Oracle`] serving through it.
//! The robustness contract — what this module exists for — is:
//!
//! * **Validation & quarantine.** Every event is validated against the
//!   graph and the stream's own state ([`rsp_graph::FaultState`]):
//!   out-of-range ids, duplicate arrivals, repairs of never-faulted
//!   edges, and undecodable wire frames are **quarantined with a typed
//!   reason** ([`QuarantineReason`]) — never applied, never a panic.
//! * **Panic-isolated publish.** Snapshot recompilation runs under
//!   [`std::panic::catch_unwind`]; a build that panics, fails
//!   validation, or is **rejected by the cross-check** (four sampled
//!   rows compared against [`rsp_core::ExactScheme::spt_into`], the
//!   engine the build itself uses) never reaches readers. The gate has
//!   no off switch.
//! * **Last-good-snapshot degraded serving.** While builds fail,
//!   readers keep answering from the last good snapshot; staleness is
//!   *exposed*, not hidden — [`ChurnHealth`] reports the pending-event
//!   count and the published epoch/sequence lag.
//! * **Delta-first commits.** The first build patches the published
//!   snapshot through [`crate::delta::DeltaBuilder`] — per-epoch work
//!   proportional to the detached subtree, untouched rows shared,
//!   patched rows a short cell list over their shared base — and still
//!   passes the same cross-check gate; any delta refusal or failure
//!   falls back to the full build with the reason recorded in
//!   [`ChurnHealth::last_delta_fallback`].
//! * **Two rungs, no retries.** Theorem 20's tie-free weights make every
//!   selected tree unique, so a build is a pure function of the scheme
//!   and the fault set: re-running one heals nothing. Each commit climbs
//!   the [`BuildStage`] ladder — delta patch, then full build — running
//!   each rung at most once and never sleeping, then reports
//!   [`ChurnStalled`].
//! * **Deterministic recovery.** The accepted-event journal is
//!   append-only; [`ChurnPipeline::replay`] reconstructs an identical
//!   pipeline from it after a crash.
//! * **Durable, bounded journal state.** Journal streams serialize
//!   through the CRC-framed codec in [`rsp_graph::journal`]
//!   ([`ChurnPipeline::export_journal`]); [`ChurnPipeline::checkpoint`]
//!   folds the accepted prefix into a [`rsp_graph::journal::JournalCheckpoint`]
//!   frame and [`ChurnPipeline::compact`] truncates the in-memory tail
//!   behind it, so journal memory stays proportional to the events
//!   since the last checkpoint, not the stream's lifetime.
//!   [`ChurnPipeline::recover`] rebuilds a pipeline from serialized
//!   bytes through [`ChurnPipeline::replay_from`], from the last
//!   checkpoint or from the genesis one — the one fold path every
//!   recovery takes — tolerating a torn final frame (truncated
//!   mid-append = clean recovery point) and refusing interior
//!   corruption with a typed
//!   [`rsp_graph::journal::JournalDecodeError`], never a panic.
//! * **Admission control.** [`ChurnConfig::max_pending_events`] caps
//!   journaled-but-uncommitted events: past it, ingestion sheds with a
//!   typed [`Backpressure`] error instead of growing state without
//!   bound behind a stalled builder ([`ChurnHealth::shed_events`]
//!   counts the sheds; replayed/recovered journals are never shed).
//!
//! The seeded fault-injection harness in [`inject`] drives all of this
//! in `crates/oracle/tests/churn_robustness.rs`: dropped, duplicated,
//! reordered, and corrupted wire streams plus builder panics at chosen
//! steps, asserting the oracle never serves an answer inconsistent with
//! its published snapshot and always converges once injection stops.
//! `crates/oracle/tests/journal_recovery.rs` drives the durability
//! layer the same way: bit-flipped and truncated journal streams,
//! recovery-equivalence proptests at every compaction point, and the
//! bounded-memory soak. See the "Durability, compaction & scrubbing"
//! chapter of `docs/ARCHITECTURE.md` for the frame format and the
//! checkpoint lifecycle.
//!
//! # Examples
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_graph::{generators, FaultEvent, FaultSet};
//! use rsp_oracle::churn::ChurnPipeline;
//!
//! let g = generators::grid(4, 4);
//! let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
//! let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
//! let mut reader = pipeline.reader();
//!
//! // An edge fails on the wire: validate, fold, recompile, publish.
//! let e = g.edge_between(0, 1).unwrap();
//! pipeline.ingest(FaultEvent::Arrive(e)).unwrap();
//! let report = pipeline.commit().unwrap();
//! assert!(report.published);
//!
//! // Readers need no new API: a fault-free wire query now routes
//! // around the failed edge baked into the published snapshot.
//! assert_eq!(reader.query(0, &FaultSet::empty()).dist(1), Some(3));
//!
//! // A duplicate arrival is quarantined, not applied and not a panic.
//! assert!(pipeline.ingest(FaultEvent::Arrive(e)).is_err());
//! assert_eq!(pipeline.quarantined().len(), 1);
//! assert_eq!(pipeline.health().pending_events, 0);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::{rngs::StdRng, Rng, SeedableRng};
use rsp_arith::PathCost;
use rsp_core::{ExactScheme, Rpts};
use rsp_graph::journal::{
    decode_journal, JournalCheckpoint, JournalDecodeError, JournalFrame, JournalTail,
};
use rsp_graph::{FaultEvent, FaultEventError, FaultState, Vertex, WireEventError};

use crate::delta::{DeltaBuilder, DeltaError, DeltaUnsupported};
use crate::serve::{Oracle, OracleReader};
use crate::snapshot::{BuildError, OracleSnapshot};

#[path = "inject.rs"]
pub mod inject;

/// Rows the commit gate audits per built snapshot.
const CROSS_CHECK_SOURCES: usize = 4;
/// Seed of the gate's row sample, mixed with the target sequence so
/// successive builds audit different rows.
const CROSS_CHECK_SEED: u64 = 0x5eed_cafe;

/// The bounds of a [`ChurnPipeline`]'s own state. The commit ladder and
/// its cross-check gate are fixed, not configured.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Admission-control cap on journaled-but-uncommitted events
    /// (default 65 536). When [`ChurnPipeline::pending_events`] reaches
    /// this cap, further events are **shed** with a typed
    /// [`IngestError::Backpressure`] — not journaled, not quarantined —
    /// so a stalled builder cannot grow pipeline state without bound.
    pub max_pending_events: usize,
    /// Upper bound on the retained quarantine log (default 1 024).
    /// Older [`QuarantinedEvent`]s are dropped once the log is full;
    /// [`ChurnHealth::quarantined_total`] keeps counting every
    /// quarantine regardless.
    pub max_quarantine_log: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig { max_pending_events: 65_536, max_quarantine_log: 1_024 }
    }
}

/// Why an offered event was quarantined instead of applied.
///
/// [`QuarantineReason::code`] gives the stable short form for
/// operational counters and logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The wire frame failed to decode at all.
    Wire(WireEventError),
    /// The decoded event failed graph/state validation.
    Event(FaultEventError),
}

impl QuarantineReason {
    /// A stable short reason code (`"bad-length"`, `"bad-tag"`,
    /// `"edge-overflow"`, `"edge-out-of-range"`, `"duplicate-arrival"`,
    /// `"repair-without-fault"`).
    pub fn code(&self) -> &'static str {
        match self {
            QuarantineReason::Wire(WireEventError::BadLength { .. }) => "bad-length",
            QuarantineReason::Wire(WireEventError::BadTag { .. }) => "bad-tag",
            QuarantineReason::Wire(WireEventError::EdgeOverflow { .. }) => "edge-overflow",
            QuarantineReason::Event(FaultEventError::EdgeOutOfRange { .. }) => "edge-out-of-range",
            QuarantineReason::Event(FaultEventError::AlreadyFaulted { .. }) => "duplicate-arrival",
            QuarantineReason::Event(FaultEventError::NotFaulted { .. }) => "repair-without-fault",
        }
    }
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Wire(e) => write!(f, "quarantined ({}): {e}", self.code()),
            QuarantineReason::Event(e) => write!(f, "quarantined ({}): {e}", self.code()),
        }
    }
}

impl std::error::Error for QuarantineReason {}

/// Admission-control shedding: the pipeline's pending-event cap
/// ([`ChurnConfig::max_pending_events`]) is reached, so the offered
/// event was refused outright — not journaled, not quarantined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// Journaled-but-uncommitted events at the time of the refusal.
    pub pending: u64,
    /// The configured cap that was hit.
    pub cap: usize,
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "backpressure: {} pending events at cap {}", self.pending, self.cap)
    }
}

impl std::error::Error for Backpressure {}

/// Why [`ChurnPipeline::ingest`] / [`ChurnPipeline::ingest_wire`]
/// refused an offered event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The event failed decode or validation and was quarantined with a
    /// typed reason.
    Quarantined(QuarantineReason),
    /// The pending-event cap was hit; the event was shed (see
    /// [`Backpressure`]).
    Backpressure(Backpressure),
}

impl IngestError {
    /// A stable short reason code: the quarantine code
    /// ([`QuarantineReason::code`]) or `"backpressure"`.
    pub fn code(&self) -> &'static str {
        match self {
            IngestError::Quarantined(reason) => reason.code(),
            IngestError::Backpressure(_) => "backpressure",
        }
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Quarantined(reason) => reason.fmt(f),
            IngestError::Backpressure(bp) => bp.fmt(f),
        }
    }
}

impl std::error::Error for IngestError {}

/// One quarantined event: what arrived, where in the offered stream,
/// and why it was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedEvent {
    /// 0-based position in the *offered* stream (accepted + quarantined).
    pub index: u64,
    /// The decoded event, or `None` when the frame never decoded.
    pub event: Option<FaultEvent>,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
}

/// Why one rung's snapshot build failed.
#[derive(Clone, Debug)]
pub enum BuildFailure {
    /// The builder panicked; the payload message is preserved.
    Panicked(String),
    /// The builder rejected the configuration.
    Rejected(BuildError),
    /// The built snapshot disagreed with the engine on a sampled cell —
    /// it was discarded before publication.
    CrossCheckMismatch {
        /// The sampled source whose tree row disagreed.
        source: Vertex,
        /// The vertex at which the disagreement was detected.
        target: Vertex,
    },
}

impl std::fmt::Display for BuildFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildFailure::Panicked(msg) => write!(f, "builder panicked: {msg}"),
            BuildFailure::Rejected(e) => write!(f, "builder rejected configuration: {e}"),
            BuildFailure::CrossCheckMismatch { source, target } => {
                write!(f, "cross-check mismatch at source {source}, target {target}")
            }
        }
    }
}

impl std::error::Error for BuildFailure {}

/// A [`ChurnPipeline::commit`] call whose every [`BuildStage`] failed.
/// The oracle keeps serving the last good snapshot; the next `commit`
/// climbs the ladder again.
#[derive(Clone, Debug)]
pub struct ChurnStalled {
    /// Build attempts made by this commit call: one per failed rung (a
    /// declined delta rung costs none).
    pub attempts: u32,
    /// The failure of the last rung, [`BuildStage::Full`].
    pub last_failure: BuildFailure,
}

impl std::fmt::Display for ChurnStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "churn commit stalled after {} attempts (serving last good snapshot): {}",
            self.attempts, self.last_failure
        )
    }
}

impl std::error::Error for ChurnStalled {}

/// What a successful [`ChurnPipeline::commit`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitReport {
    /// The oracle epoch now serving.
    pub epoch: u64,
    /// The journal sequence the published snapshot folds in.
    pub seq: u64,
    /// Build attempts made (0 when the pipeline was already current).
    pub attempts: u32,
    /// `true` iff the published snapshot was produced by the delta
    /// builder patching the predecessor; `false` on a publish means the
    /// from-scratch [`BuildStage::Full`] rung built it.
    pub delta: bool,
    /// `false` iff the commit was a no-op (nothing pending, not
    /// degraded), in which case no new epoch was published.
    pub published: bool,
}

/// A point-in-time health report: how fresh the serving snapshot is and
/// how the control plane has been behaving.
///
/// `degraded == true` means the last build cycle failed and readers are
/// on the **last good snapshot**; `pending_events` is the staleness —
/// how many accepted events the served snapshot does not yet fold in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnHealth {
    /// The oracle epoch readers currently refresh onto.
    pub published_epoch: u64,
    /// Journal sequence folded into the published snapshot.
    pub published_seq: u64,
    /// Journal sequence of the last accepted event.
    pub accepted_seq: u64,
    /// Journal sequence of the last event compacted out of memory (0
    /// before any [`ChurnPipeline::compact`]).
    pub compacted_seq: u64,
    /// Events currently held in the in-memory journal tail — the
    /// bounded-memory number the compaction loop keeps small.
    pub journal_tail_len: usize,
    /// `accepted_seq - published_seq`: the served snapshot's staleness
    /// in events.
    pub pending_events: u64,
    /// Events shed by admission control
    /// ([`ChurnConfig::max_pending_events`]) since construction.
    pub shed_events: u64,
    /// `true` iff the pipeline is serving a stale last-good snapshot
    /// because builds are failing.
    pub degraded: bool,
    /// Build failures since the last successful publish.
    pub consecutive_failures: u32,
    /// Total events quarantined since construction.
    pub quarantined_total: u64,
    /// Successful publishes since construction (excluding the initial).
    pub commits: u64,
    /// From-scratch builds ([`BuildStage::Full`] rungs) attempted since
    /// construction. The full rung runs exactly when the delta rung
    /// falls back, so this always equals
    /// [`ChurnHealth::delta_fallbacks`].
    pub full_rebuilds: u64,
    /// Publishes served by a delta patch of the predecessor snapshot.
    pub delta_commits: u64,
    /// Delta attempts that fell back to the from-scratch builder
    /// (unsupported shape, tie refusal, panic, or cross-check reject).
    pub delta_fallbacks: u64,
    /// Why the most recent delta fallback happened. **Sticky**: kept
    /// across later successful commits so operators can see why deltas
    /// degrade to rebuilds even after the pipeline recovers.
    pub last_delta_fallback: Option<String>,
    /// Human-readable description of the most recent build failure, if
    /// the pipeline is degraded.
    pub last_failure: Option<String>,
}

/// Which rung of the commit ladder is about to run — the escalation
/// order of [`ChurnPipeline::commit`]. Each rung runs at most once per
/// commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildStage {
    /// Patch the published snapshot with the delta builder.
    Delta,
    /// Build from scratch on the pipeline's accepted fault state.
    Full,
}

/// The injection point a [`ChurnPipeline`] probe observes: which build
/// is about to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildContext {
    /// The rung of the commit ladder about to run.
    pub stage: BuildStage,
    /// The journal sequence the build is trying to fold in.
    pub target_seq: u64,
}

/// What an injection probe does to one rung's build (see
/// [`ChurnPipeline::set_build_probe`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildFault {
    /// Let the build run normally.
    None,
    /// Panic inside the (isolated) build step.
    Panic,
    /// Let the build succeed, then corrupt one tree cell so the
    /// cross-check **must** reject the snapshot — this is how the test
    /// harness proves the cross-check gate actually gates.
    Corrupt,
}

/// A boxed fault-injection probe consulted before each build
/// (see [`ChurnPipeline::set_build_probe`] and [`inject::flaky_builder`]).
pub type BuildProbe = Box<dyn FnMut(&BuildContext) -> BuildFault + Send>;

/// The churn-hardened control plane around an [`Oracle`]: ingests fault
/// events, quarantines invalid ones, recompiles snapshots
/// panic-isolated, and publishes through the epoch swap — falling back
/// to last-good-snapshot serving when builds fail.
///
/// See the [module docs](self) for the robustness contract and an
/// end-to-end example.
pub struct ChurnPipeline<C: PathCost + 'static> {
    oracle: Oracle<C>,
    scheme: ExactScheme<C>,
    state: FaultState,
    /// The in-memory journal **tail**: accepted events *after* the last
    /// compaction point. `journal[k]` has sequence `base_seq + k + 1`.
    journal: Vec<FaultEvent>,
    /// Sequence of the last event folded into `base_state` (0 before
    /// any compaction: the tail is the whole journal).
    base_seq: u64,
    /// The fold of the compacted prefix `1..=base_seq`, exported as the
    /// checkpoint frame of [`ChurnPipeline::export_journal`].
    base_state: FaultState,
    /// Oracle epoch recorded by the compaction checkpoint (exported in
    /// [`ChurnPipeline::export_journal`]'s checkpoint frame).
    base_epoch: u64,
    /// The most recent [`ChurnPipeline::checkpoint`], if any — the
    /// point [`ChurnPipeline::compact`] truncates to.
    last_checkpoint: Option<JournalCheckpoint>,
    quarantine: Vec<QuarantinedEvent>,
    quarantined_total: u64,
    shed: u64,
    offered: u64,
    published_seq: u64,
    consecutive_failures: u32,
    commits: u64,
    delta_commits: u64,
    delta_fallbacks: u64,
    last_delta_fallback: Option<String>,
    last_failure: Option<BuildFailure>,
    config: ChurnConfig,
    probe: Option<BuildProbe>,
}

impl<C: PathCost + 'static> std::fmt::Debug for ChurnPipeline<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChurnPipeline")
            .field("state", &self.state)
            .field("journal_len", &self.journal.len())
            .field("base_seq", &self.base_seq)
            .field("quarantined", &self.quarantine.len())
            .field("published_seq", &self.published_seq)
            .field("consecutive_failures", &self.consecutive_failures)
            .finish_non_exhaustive()
    }
}

impl<C: PathCost + 'static> ChurnPipeline<C> {
    /// Builds the initial (fault-free) snapshot from `scheme`,
    /// publishes it as epoch 1, and returns the pipeline, with the
    /// default [`ChurnConfig`].
    pub fn new(scheme: &ExactScheme<C>) -> Result<Self, BuildError> {
        Self::with_config(scheme, ChurnConfig::default())
    }

    /// [`ChurnPipeline::new`] with an explicit configuration.
    pub fn with_config(scheme: &ExactScheme<C>, config: ChurnConfig) -> Result<Self, BuildError> {
        let snapshot = OracleSnapshot::builder(scheme).version(0).try_build()?;
        let oracle = Oracle::new(snapshot);
        Ok(ChurnPipeline {
            oracle,
            scheme: scheme.clone(),
            state: FaultState::new(scheme.graph().m()),
            journal: Vec::new(),
            base_seq: 0,
            base_state: FaultState::new(scheme.graph().m()),
            base_epoch: 0,
            last_checkpoint: None,
            quarantine: Vec::new(),
            quarantined_total: 0,
            shed: 0,
            offered: 0,
            published_seq: 0,
            consecutive_failures: 0,
            commits: 0,
            delta_commits: 0,
            delta_fallbacks: 0,
            last_delta_fallback: None,
            last_failure: None,
            config,
            probe: None,
        })
    }

    /// Reconstructs a pipeline from an accepted-event journal — the
    /// deterministic crash-recovery path. Every journal event is
    /// re-validated and re-applied in order, then a single snapshot
    /// folding the full journal is built and published; the result is
    /// state-identical to the pipeline that wrote the journal (same
    /// fault state, same published sequence, same snapshot cells).
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultEvent};
    /// use rsp_oracle::churn::{ChurnConfig, ChurnPipeline};
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    /// let mut a = ChurnPipeline::new(&scheme).unwrap();
    /// a.ingest(FaultEvent::Arrive(0)).unwrap();
    /// a.ingest(FaultEvent::Arrive(5)).unwrap();
    /// a.ingest(FaultEvent::Repair(0)).unwrap();
    /// a.commit().unwrap();
    ///
    /// // Crash. Recover from the journal alone:
    /// let b = ChurnPipeline::replay(&scheme, a.journal(), ChurnConfig::default()).unwrap();
    /// assert_eq!(b.fault_state(), a.fault_state());
    /// assert_eq!(b.health().published_seq, a.health().published_seq);
    /// ```
    pub fn replay(
        scheme: &ExactScheme<C>,
        journal: &[FaultEvent],
        config: ChurnConfig,
    ) -> Result<Self, ReplayError> {
        Self::replay_from(scheme, &genesis(scheme), journal, config)
    }

    /// Reconstructs a pipeline from a compaction checkpoint plus the
    /// journal tail recorded after it — recovery that skips replaying
    /// the compacted prefix event by event. The result is
    /// **state-identical to genesis replay** of the full journal (same
    /// fault state, same accepted sequence, same snapshot cells); the
    /// recovery-equivalence proptests pin this at every compaction
    /// point.
    ///
    /// The checkpoint is validated against the scheme's graph before
    /// anything is applied: a wrong edge count or an impossible
    /// `seq == 0` non-empty state is a typed [`ReplayError`], never a
    /// panic.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultEvent};
    /// use rsp_oracle::churn::{ChurnConfig, ChurnPipeline};
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    /// let mut a = ChurnPipeline::new(&scheme).unwrap();
    /// a.ingest(FaultEvent::Arrive(0)).unwrap();
    /// a.commit().unwrap();
    ///
    /// // Checkpoint, compact, keep churning: memory holds only the tail.
    /// let ckpt = a.checkpoint();
    /// a.compact();
    /// a.ingest(FaultEvent::Arrive(5)).unwrap();
    /// a.commit().unwrap();
    /// assert_eq!(a.journal().len(), 1, "the compacted prefix left memory");
    ///
    /// // Crash. Recover from the checkpoint + tail alone:
    /// let b = ChurnPipeline::replay_from(&scheme, &ckpt, a.journal(), ChurnConfig::default())
    ///     .unwrap();
    /// assert_eq!(b.fault_state(), a.fault_state());
    /// assert_eq!(b.accepted_seq(), a.accepted_seq());
    /// ```
    pub fn replay_from(
        scheme: &ExactScheme<C>,
        checkpoint: &JournalCheckpoint,
        tail: &[FaultEvent],
        config: ChurnConfig,
    ) -> Result<Self, ReplayError> {
        let graph_m = scheme.graph().m();
        if checkpoint.state.edge_count() != graph_m {
            return Err(ReplayError::CheckpointMismatch {
                checkpoint_m: checkpoint.state.edge_count(),
                graph_m,
            });
        }
        if checkpoint.seq == 0 && !checkpoint.state.is_empty() {
            return Err(ReplayError::CheckpointInconsistent { faults: checkpoint.state.len() });
        }
        let mut pipeline = Self::with_config(scheme, config).map_err(ReplayError::Build)?;
        pipeline.state = checkpoint.state.clone();
        pipeline.base_state = checkpoint.state.clone();
        pipeline.base_seq = checkpoint.seq;
        pipeline.base_epoch = checkpoint.epoch;
        // Recovery replays bypass admission control: re-validating an
        // accepted journal must never be shed by the live cap.
        for (i, &ev) in tail.iter().enumerate() {
            pipeline.ingest_validated(ev).map_err(|reason| ReplayError::Rejected {
                seq: checkpoint.seq + i as u64 + 1,
                reason,
            })?;
        }
        pipeline.commit().map_err(ReplayError::Stalled)?;
        Ok(pipeline)
    }

    /// Recovers a pipeline from a durable journal **byte stream** (the
    /// [`ChurnPipeline::export_journal`] format): decode every CRC-framed
    /// entry, fold from the *last* checkpoint frame (genesis when there
    /// is none), and replay the events after it.
    ///
    /// A **torn tail** — the stream's final frame cut short by a crash
    /// mid-write — is tolerated as a clean recovery point and reported
    /// in [`RecoveryReport::torn_tail_at`]. Interior corruption (a
    /// checksum-failing, unknown-kind, or undecodable frame with more
    /// frames after it) is a typed [`RecoverError`], never a panic and
    /// never a silently wrong state.
    pub fn recover(
        scheme: &ExactScheme<C>,
        bytes: &[u8],
        config: ChurnConfig,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let decoded = decode_journal(bytes).map_err(RecoverError::Decode)?;
        let torn_tail_at = match decoded.tail {
            JournalTail::Torn { offset } => Some(offset),
            JournalTail::Clean => None,
        };
        let frames = decoded.frames.len();
        let mut checkpoint = genesis(scheme);
        let mut tail: Vec<FaultEvent> = Vec::new();
        for frame in decoded.frames {
            match frame {
                JournalFrame::Checkpoint(c) => {
                    checkpoint = c;
                    tail.clear();
                }
                JournalFrame::Event(ev) => tail.push(ev),
            }
        }
        let report = RecoveryReport {
            frames,
            events: tail.len(),
            checkpoint_seq: checkpoint.seq,
            torn_tail_at,
        };
        let pipeline =
            Self::replay_from(scheme, &checkpoint, &tail, config).map_err(RecoverError::Replay)?;
        Ok((pipeline, report))
    }

    /// Records a compaction checkpoint: the fold of every accepted
    /// event so far, at the current accepted sequence and serving
    /// epoch. The checkpoint is retained as the pipeline's latest (the
    /// point [`ChurnPipeline::compact`] truncates to) and returned for
    /// durable storage.
    ///
    /// Checkpointing captures the **accepted** state, which may be
    /// ahead of the published snapshot; recovery replays through its
    /// own commit, so the distinction cannot leak into serving.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultEvent};
    /// use rsp_oracle::churn::ChurnPipeline;
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    /// let mut pipeline = ChurnPipeline::new(&scheme).unwrap();
    /// pipeline.ingest(FaultEvent::Arrive(3)).unwrap();
    /// pipeline.commit().unwrap();
    ///
    /// let ckpt = pipeline.checkpoint();
    /// assert_eq!(ckpt.seq, 1);
    /// assert_eq!(ckpt.state.faults().as_slice(), &[3]);
    ///
    /// // Compaction drops the checkpointed prefix from memory.
    /// assert_eq!(pipeline.compact(), 1);
    /// assert!(pipeline.journal().is_empty());
    /// assert_eq!(pipeline.journal_base_seq(), 1);
    /// ```
    pub fn checkpoint(&mut self) -> JournalCheckpoint {
        let ckpt = JournalCheckpoint {
            seq: self.accepted_seq(),
            epoch: self.oracle.epoch(),
            state: self.state.clone(),
        };
        self.last_checkpoint = Some(ckpt.clone());
        ckpt
    }

    /// Truncates the in-memory journal prefix covered by the latest
    /// [`ChurnPipeline::checkpoint`], re-basing the tail on the
    /// checkpoint's folded state. Returns the number of events dropped
    /// from memory (0 when no checkpoint is newer than the last
    /// compaction).
    ///
    /// This is what keeps journal memory `O(events since checkpoint)`
    /// under unbounded churn: a `checkpoint(); compact();` loop bounds
    /// the tail at the checkpoint cadence, and
    /// [`ChurnHealth::journal_tail_len`] exposes the bound holding.
    pub fn compact(&mut self) -> u64 {
        let Some(ckpt) = self.last_checkpoint.clone() else { return 0 };
        if ckpt.seq <= self.base_seq {
            return 0;
        }
        let dropped = (ckpt.seq - self.base_seq) as usize;
        self.journal.drain(..dropped);
        self.base_seq = ckpt.seq;
        self.base_state = ckpt.state;
        self.base_epoch = ckpt.epoch;
        dropped as u64
    }

    /// Serializes the journal as a durable CRC-framed byte stream: a
    /// checkpoint frame for the compacted prefix (when one exists),
    /// then one event frame per tail event. Feed the bytes to
    /// [`ChurnPipeline::recover`] after a crash; a stream torn mid-write
    /// still recovers everything before the tear.
    pub fn export_journal(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if self.base_seq > 0 {
            JournalFrame::Checkpoint(JournalCheckpoint {
                seq: self.base_seq,
                epoch: self.base_epoch,
                state: self.base_state.clone(),
            })
            .encode_into(&mut out);
        }
        for &ev in &self.journal {
            JournalFrame::Event(ev).encode_into(&mut out);
        }
        out
    }

    /// The serving handle. Clone it for control-plane sharing; call
    /// [`Oracle::reader`] (or [`ChurnPipeline::reader`]) per data-plane
    /// thread.
    pub fn oracle(&self) -> &Oracle<C> {
        &self.oracle
    }

    /// A new per-thread data-plane reader on the pipeline's oracle.
    pub fn reader(&self) -> OracleReader<C> {
        self.oracle.reader()
    }

    /// The compiled scheme snapshots are built from.
    pub fn scheme(&self) -> &ExactScheme<C> {
        &self.scheme
    }

    /// The current accepted fault state (may be ahead of what the
    /// published snapshot folds in — see [`ChurnHealth::pending_events`]).
    pub fn fault_state(&self) -> &FaultState {
        &self.state
    }

    /// The in-memory accepted-event journal **tail**: events after the
    /// last compaction point. `journal()[k]` is the event with sequence
    /// number [`ChurnPipeline::journal_base_seq`]` + k + 1`. Before any
    /// [`ChurnPipeline::compact`] the tail is the whole journal and can
    /// be fed to [`ChurnPipeline::replay`]; after one, recover with
    /// [`ChurnPipeline::replay_from`] or the byte-stream
    /// [`ChurnPipeline::recover`].
    pub fn journal(&self) -> &[FaultEvent] {
        &self.journal
    }

    /// Sequence of the last event compacted out of the in-memory
    /// journal (0 before any compaction).
    pub fn journal_base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Sequence of the last accepted event (compacted prefix + tail).
    pub fn accepted_seq(&self) -> u64 {
        self.base_seq + self.journal.len() as u64
    }

    /// The retained quarantine log, in offered order — the most recent
    /// [`ChurnConfig::max_quarantine_log`] entries
    /// ([`ChurnHealth::quarantined_total`] counts every quarantine,
    /// including dropped ones).
    pub fn quarantined(&self) -> &[QuarantinedEvent] {
        &self.quarantine
    }

    /// An owned handle to the currently published (last good) snapshot.
    pub fn published_snapshot(&self) -> Arc<OracleSnapshot<C>> {
        self.oracle.snapshot()
    }

    /// Accepted events not yet folded into the published snapshot.
    pub fn pending_events(&self) -> u64 {
        self.accepted_seq() - self.published_seq
    }

    /// Offers one event to the pipeline. Valid events are journaled and
    /// folded into the pending fault state (returning their journal
    /// sequence number); invalid ones are quarantined with a reason and
    /// change nothing; events past the pending cap are shed with
    /// [`IngestError::Backpressure`]. **Never panics**, whatever the
    /// event.
    ///
    /// Ingestion does not rebuild; call [`ChurnPipeline::commit`] to
    /// publish the pending state (batching many events per commit is
    /// the intended usage under heavy churn).
    pub fn ingest(&mut self, ev: FaultEvent) -> Result<u64, IngestError> {
        self.admit().map_err(IngestError::Backpressure)?;
        self.ingest_validated(ev).map_err(IngestError::Quarantined)
    }

    /// [`ChurnPipeline::ingest`] from a raw wire frame
    /// ([`FaultEvent::decode`]): undecodable bytes are quarantined with
    /// a [`QuarantineReason::Wire`] reason, and the backpressure check
    /// runs *before* the decode so a stalled pipeline does no per-frame
    /// work. **Never panics**, whatever the bytes — the robustness
    /// suite feeds this arbitrary garbage.
    pub fn ingest_wire(&mut self, frame: &[u8]) -> Result<u64, IngestError> {
        self.admit().map_err(IngestError::Backpressure)?;
        match FaultEvent::decode(frame) {
            Ok(ev) => self.ingest_validated(ev).map_err(IngestError::Quarantined),
            Err(e) => {
                let index = self.offered;
                self.offered += 1;
                let reason = QuarantineReason::Wire(e);
                self.push_quarantined(QuarantinedEvent { index, event: None, reason });
                Err(IngestError::Quarantined(reason))
            }
        }
    }

    /// The admission-control gate: sheds the offered event when the
    /// pending-event cap is reached.
    fn admit(&mut self) -> Result<(), Backpressure> {
        let pending = self.pending_events();
        if pending >= self.config.max_pending_events as u64 {
            self.offered += 1;
            self.shed += 1;
            return Err(Backpressure { pending, cap: self.config.max_pending_events });
        }
        Ok(())
    }

    /// Validation + journal/quarantine, with admission control already
    /// passed (recovery replay enters here: re-validating a journal must
    /// never be shed by the live-traffic cap).
    fn ingest_validated(&mut self, ev: FaultEvent) -> Result<u64, QuarantineReason> {
        let index = self.offered;
        self.offered += 1;
        match self.state.apply(ev) {
            Ok(()) => {
                self.journal.push(ev);
                Ok(self.accepted_seq())
            }
            Err(e) => {
                let reason = QuarantineReason::Event(e);
                self.push_quarantined(QuarantinedEvent { index, event: Some(ev), reason });
                Err(reason)
            }
        }
    }

    /// Appends to the bounded quarantine log, dropping the oldest entry
    /// once [`ChurnConfig::max_quarantine_log`] is reached. The total
    /// counter keeps every quarantine.
    fn push_quarantined(&mut self, q: QuarantinedEvent) {
        self.quarantined_total += 1;
        if self.config.max_quarantine_log == 0 {
            return;
        }
        while self.quarantine.len() >= self.config.max_quarantine_log {
            self.quarantine.remove(0);
        }
        self.quarantine.push(q);
    }

    /// Recompiles a snapshot folding every accepted event and publishes
    /// it through the epoch swap. No-op when already current.
    ///
    /// A commit climbs the [`BuildStage`] ladder, running each rung at
    /// most once and never sleeping — a build is a pure function of the
    /// scheme and the fault set, so re-running a failed one would fail
    /// the same way:
    ///
    /// 1. [`BuildStage::Delta`] patches the published snapshot. A
    ///    structural refusal ([`crate::delta::DeltaUnsupported`]) costs
    ///    no attempt and counts no failure; either way the fallback's
    ///    reason lands in [`ChurnHealth::last_delta_fallback`].
    /// 2. [`BuildStage::Full`] builds from scratch on the accepted fault
    ///    state.
    ///
    /// Both rungs are **panic-isolated** and **cross-checked** against
    /// the engine on sampled sources; a failed rung leaves the last good
    /// snapshot serving. If both fail, `commit` returns [`ChurnStalled`]
    /// — readers are still serving the last good snapshot,
    /// [`ChurnPipeline::health`] reports the staleness, and the next
    /// `commit` climbs the ladder again.
    pub fn commit(&mut self) -> Result<CommitReport, ChurnStalled> {
        let target_seq = self.accepted_seq();
        if target_seq == self.published_seq && self.consecutive_failures == 0 {
            return Ok(CommitReport {
                epoch: self.oracle.epoch(),
                seq: target_seq,
                attempts: 0,
                delta: false,
                published: false,
            });
        }

        let mut attempts = 0;
        for stage in [BuildStage::Delta, BuildStage::Full] {
            let err = match self.build_stage(stage, target_seq) {
                Ok(snapshot) => {
                    return Ok(self.publish_built(snapshot, target_seq, attempts + 1, stage))
                }
                Err(err) => err,
            };
            if stage == BuildStage::Delta {
                self.delta_fallbacks += 1;
                self.last_delta_fallback = Some(match &err {
                    RungError::Declined(u) => format!("delta unsupported: {u}"),
                    RungError::Failed(failure) => failure.to_string(),
                });
            }
            if let RungError::Failed(failure) = err {
                attempts += 1;
                self.consecutive_failures += 1;
                self.last_failure = Some(failure);
            }
        }
        let last_failure = self.last_failure.clone().expect("the last rung never declines");
        Err(ChurnStalled { attempts, last_failure })
    }

    /// How fresh the serving snapshot is and how the control plane has
    /// been behaving. Cheap; call it from monitoring loops.
    pub fn health(&self) -> ChurnHealth {
        let accepted_seq = self.accepted_seq();
        ChurnHealth {
            published_epoch: self.oracle.epoch(),
            published_seq: self.published_seq,
            accepted_seq,
            compacted_seq: self.base_seq,
            journal_tail_len: self.journal.len(),
            pending_events: accepted_seq - self.published_seq,
            shed_events: self.shed,
            degraded: self.consecutive_failures > 0,
            consecutive_failures: self.consecutive_failures,
            quarantined_total: self.quarantined_total,
            commits: self.commits,
            full_rebuilds: self.delta_fallbacks,
            delta_commits: self.delta_commits,
            delta_fallbacks: self.delta_fallbacks,
            last_delta_fallback: self.last_delta_fallback.clone(),
            last_failure: self.last_failure.as_ref().map(|f| f.to_string()),
        }
    }

    /// Installs a fault-injection probe consulted once before every
    /// rung of the commit ladder (see [`BuildStage`] and [`BuildFault`]);
    /// `None` clears it. This is the harness seam [`inject`] uses to
    /// panic the builder at chosen steps and to prove the cross-check
    /// rejects corrupted snapshots.
    pub fn set_build_probe(&mut self, probe: Option<BuildProbe>) {
        self.probe = probe;
    }

    /// Runs one rung of the commit ladder: consults the probe once and
    /// hands the rung's builder to the shared panic-isolated,
    /// cross-checked [`build_and_check`] step.
    fn build_stage(
        &mut self,
        stage: BuildStage,
        target_seq: u64,
    ) -> Result<OracleSnapshot<C>, RungError> {
        let ctx = BuildContext { stage, target_seq };
        let injected = self.probe.as_mut().map_or(BuildFault::None, |p| p(&ctx));
        let faults = self.state.faults().clone();
        build_and_check(injected, target_seq, || match stage {
            BuildStage::Delta => {
                match DeltaBuilder::new(&self.oracle.snapshot()).version(target_seq).build(&faults)
                {
                    Ok((snapshot, _stats)) => Ok(snapshot),
                    Err(DeltaError::Unsupported(u)) => Err(RungError::Declined(u)),
                    Err(DeltaError::Build(e)) => Err(BuildFailure::Rejected(e).into()),
                }
            }
            BuildStage::Full => OracleSnapshot::builder(&self.scheme)
                .base_faults(faults)
                .version(target_seq)
                .try_build()
                .map_err(|e| BuildFailure::Rejected(e).into()),
        })
    }

    fn publish_built(
        &mut self,
        snapshot: OracleSnapshot<C>,
        target_seq: u64,
        attempts: u32,
        stage: BuildStage,
    ) -> CommitReport {
        let epoch = self.oracle.publish(snapshot);
        self.published_seq = target_seq;
        self.consecutive_failures = 0;
        self.last_failure = None;
        self.commits += 1;
        let delta = stage == BuildStage::Delta;
        if delta {
            self.delta_commits += 1;
        }
        CommitReport { epoch, seq: target_seq, attempts, delta, published: true }
    }
}

/// Errors from [`ChurnPipeline::replay`] / [`ChurnPipeline::replay_from`].
#[derive(Clone, Debug)]
pub enum ReplayError {
    /// The initial snapshot build failed.
    Build(BuildError),
    /// A journal event failed validation — the journal is not an
    /// accepted-event journal of this scheme's graph.
    Rejected {
        /// 1-based sequence of the rejected event.
        seq: u64,
        /// Why it was rejected.
        reason: QuarantineReason,
    },
    /// The checkpoint was folded over a different graph: its edge count
    /// disagrees with the scheme's.
    CheckpointMismatch {
        /// The checkpoint state's edge count.
        checkpoint_m: usize,
        /// The scheme graph's edge count.
        graph_m: usize,
    },
    /// The checkpoint claims a non-empty fault state at sequence 0 — no
    /// accepted-event journal can produce that.
    CheckpointInconsistent {
        /// The impossible fault count.
        faults: usize,
    },
    /// The recovery commit stalled (the pipeline is returned to a
    /// serving state only on success, so this aborts recovery).
    Stalled(ChurnStalled),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Build(e) => write!(f, "replay: initial build failed: {e}"),
            ReplayError::Rejected { seq, reason } => {
                write!(f, "replay: journal event {seq} rejected: {reason}")
            }
            ReplayError::CheckpointMismatch { checkpoint_m, graph_m } => {
                write!(
                    f,
                    "replay: checkpoint folded over {checkpoint_m} edges, graph has {graph_m}"
                )
            }
            ReplayError::CheckpointInconsistent { faults } => {
                write!(f, "replay: checkpoint claims {faults} faults at sequence 0")
            }
            ReplayError::Stalled(e) => write!(f, "replay: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Errors from [`ChurnPipeline::recover`].
#[derive(Clone, Debug)]
pub enum RecoverError {
    /// The byte stream has interior corruption (a fully-present frame
    /// that fails its checksum or does not decode).
    Decode(JournalDecodeError),
    /// The decoded frames did not replay into a serving pipeline.
    Replay(ReplayError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Decode(e) => write!(f, "recover: {e}"),
            RecoverError::Replay(e) => write!(f, "recover: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// What [`ChurnPipeline::recover`] found in the byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames decoded cleanly (checkpoints + events).
    pub frames: usize,
    /// Events replayed after the effective checkpoint.
    pub events: usize,
    /// Sequence of the checkpoint recovery started from (0 = genesis).
    pub checkpoint_seq: u64,
    /// Byte offset of a torn final frame, when the stream was cut
    /// mid-write (`None` for a clean tail).
    pub torn_tail_at: Option<usize>,
}

/// Why one rung produced no snapshot: the delta builder's structural
/// refusal (no attempt spent, no failure counted) or a real failure.
enum RungError {
    Declined(DeltaUnsupported),
    Failed(BuildFailure),
}

impl From<BuildFailure> for RungError {
    fn from(failure: BuildFailure) -> Self {
        RungError::Failed(failure)
    }
}

/// The one panic-isolated build step every rung runs: the injected
/// panic, `build`, the injected corruption, then the sampled
/// cross-check — so a delta patch passes exactly the gate a rebuild
/// does and a wrong patch can never out-publish one.
fn build_and_check<C: PathCost + 'static>(
    injected: BuildFault,
    version: u64,
    build: impl FnOnce() -> Result<OracleSnapshot<C>, RungError>,
) -> Result<OracleSnapshot<C>, RungError> {
    // AssertUnwindSafe: `build` only reads pipeline state and constructs
    // owned data, so a panic at any point leaves nothing observable
    // half-mutated.
    catch_unwind(AssertUnwindSafe(|| {
        if injected == BuildFault::Panic {
            panic!("injected builder panic (target seq {version})");
        }
        let mut snapshot = build()?;
        let samples = cross_check_sample(snapshot.sources(), version);
        if injected == BuildFault::Corrupt {
            // Corrupt a row the cross-check will visit, so the gate is
            // exercised, not bypassed.
            snapshot
                .corrupt_cell(samples.first().copied().unwrap_or(0), inject::CellCorruption::Hop);
        }
        match snapshot.audit_rows(&samples).first() {
            Some(bad) => {
                Err(BuildFailure::CrossCheckMismatch { source: bad.source, target: bad.first_bad }
                    .into())
            }
            None => Ok(snapshot),
        }
    }))
    .unwrap_or_else(|payload| Err(BuildFailure::Panicked(panic_message(payload.as_ref())).into()))
}

/// The deterministic cross-check sample for a build targeting
/// `version`: distinct serving sources drawn from a seeded generator,
/// fresh per version so successive builds audit different rows.
fn cross_check_sample(sources: &[Vertex], version: u64) -> Vec<Vertex> {
    let k = CROSS_CHECK_SOURCES.min(sources.len());
    let mut rng =
        StdRng::seed_from_u64(CROSS_CHECK_SEED ^ version.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut picked: Vec<Vertex> = Vec::with_capacity(k);
    while picked.len() < k {
        let v = sources[rng.random_range(0..sources.len())];
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
}

/// The genesis checkpoint of `scheme`'s graph: nothing accepted, no
/// faults. Recovery from a journal without a checkpoint frame starts
/// here.
fn genesis<C: PathCost + 'static>(scheme: &ExactScheme<C>) -> JournalCheckpoint {
    JournalCheckpoint { seq: 0, epoch: 0, state: FaultState::new(scheme.graph().m()) }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

//! The background integrity scrubber: continuous cell-level audit of
//! the *published* snapshot, with quarantine, targeted repair, and
//! full-rebuild escalation.
//!
//! The churn pipeline's commit-time cross-check samples a handful of
//! sources per build — a corruption that slips past the sample (or
//! strikes *after* publication: a stray write, a cosmic bit flip in a
//! long-lived deployment) would otherwise be served forever with
//! nothing downstream to catch it. A [`Scrubber`] closes that window:
//!
//! * **Budgeted audit.** Each [`Scrubber::tick`] re-verifies
//!   [`ScrubConfig::rows_per_tick`] source rows of the currently
//!   published snapshot **cell by cell** (hops, parents, exact costs)
//!   against a fresh [`rsp_graph::dijkstra_batch`] run on the
//!   snapshot's own base fault state — the same row audit the commit
//!   gate runs on its sample, but sweeping *every* row over successive
//!   ticks (a wrapping cursor; [`ScrubHealth::complete_passes`] counts
//!   full sweeps).
//! * **Quarantine before repair.** A corrupt row is immediately fenced
//!   off: the scrubber publishes a clone with the row marked
//!   quarantined, and [`crate::OracleSnapshot::try_query`] answers that
//!   source through the engine fallback — recomputed from the graph,
//!   so *correct* — until the row is healed. Detection is never
//!   silent and never a panic.
//! * **Repair ladder.** Quarantined rows are then healed: a **targeted
//!   repair** splices the freshly computed truth row back in
//!   (copy-on-write — untouched rows stay shared) and re-verifies it;
//!   if that is sabotaged or fails, the scrubber **escalates to a full
//!   rebuild** from the scheme; if even that fails, the quarantined
//!   snapshot stays published — degraded (slow path for that source)
//!   but correct, and retried next tick.
//! * **Health reporting.** [`ScrubHealth`] exposes rows audited,
//!   corruptions found and healed, escalations, current quarantine
//!   count, and completed passes — staleness and damage are surfaced,
//!   never hidden, mirroring [`crate::churn::ChurnHealth`].
//!
//! The scrubber is a *writer*: it publishes quarantine and repair
//! epochs through the same [`Oracle`] handle the control plane uses.
//! Run it on the control-plane thread, interleaving ticks with churn
//! commits — the workspace-wide single-writer discipline. Readers need
//! nothing new: quarantine is absorbed by the existing
//! [`crate::OracleSnapshot::try_query`] fallback seam. A full-rebuild
//! escalation recompiles from the scheme and therefore drops optional
//! label/preserver artifacts, exactly like the churn pipeline's own
//! rebuilds — churn deployments ship artifacts from a separate
//! fault-free snapshot (see [`crate::SnapshotBuilder::base_faults`]).
//!
//! # Examples
//!
//! A clean snapshot audits clean; a corrupted cell is caught, fenced,
//! and healed:
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_graph::generators;
//! use rsp_oracle::scrub::{ScrubConfig, Scrubber};
//! use rsp_oracle::Oracle;
//!
//! let g = generators::grid(4, 4);
//! let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
//! let oracle = Oracle::build(&scheme);
//!
//! let mut scrubber = Scrubber::new(oracle.clone(), ScrubConfig::default());
//! // Sweep the whole snapshot: 16 rows, 4 per tick.
//! for _ in 0..4 {
//!     let tick = scrubber.tick();
//!     assert_eq!(tick.corrupt_rows, 0, "a fresh snapshot audits clean");
//! }
//! let health = scrubber.health();
//! assert_eq!(health.rows_audited, 16);
//! assert_eq!(health.complete_passes, 1);
//! assert_eq!(health.corruptions_found, 0);
//! ```

use rsp_arith::PathCost;
use rsp_graph::Vertex;

use crate::serve::Oracle;
use crate::snapshot::OracleSnapshot;

/// Tuning knobs for a [`Scrubber`].
#[derive(Clone, Copy, Debug)]
pub struct ScrubConfig {
    /// Source rows audited per [`Scrubber::tick`] (default 4). The
    /// audit budget — one `dijkstra_batch` run over this many sources
    /// per tick, amortizing a full sweep over
    /// `ceil(sources / rows_per_tick)` ticks. `0` is clamped to 1.
    pub rows_per_tick: usize,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig { rows_per_tick: 4 }
    }
}

/// Which rung of the repair ladder the scrubber is about to run —
/// the argument of a [`ScrubProbe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScrubStage {
    /// Splice the freshly computed truth rows into a clone of the
    /// published snapshot (copy-on-write; untouched rows stay shared).
    TargetedRepair,
    /// Recompile the whole snapshot from the scheme — the escalation
    /// when targeted repair fails.
    FullRebuild,
}

/// A deterministic saboteur for the repair ladder, installed with
/// [`Scrubber::set_probe`]: return `true` to make that stage fail
/// (the stage is skipped, as if its output had not verified). This is
/// how the robustness suite proves each rung — targeted repair, the
/// full-rebuild escalation, and the degraded-but-correct terminal
/// state — independently, instead of only ever exercising the first.
pub type ScrubProbe = Box<dyn FnMut(ScrubStage) -> bool + Send>;

/// Aggregate scrubber telemetry — the integrity counterpart of
/// [`crate::churn::ChurnHealth`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubHealth {
    /// Total rows audited cell-by-cell across all ticks.
    pub rows_audited: u64,
    /// Corrupt rows detected (each counted once per detection, not per
    /// retry of an already-quarantined row).
    pub corruptions_found: u64,
    /// Corrupt rows healed (by targeted repair or rebuild escalation).
    pub corruptions_healed: u64,
    /// Times the ladder escalated to a full rebuild.
    pub escalations: u64,
    /// Rows quarantined in the currently published snapshot: nonzero
    /// only while detected corruption awaits a successful heal (those
    /// sources serve through the engine fallback — slow but correct).
    pub quarantined_now: usize,
    /// Complete sweeps of every serving source finished so far.
    pub complete_passes: u64,
}

/// What one [`Scrubber::tick`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubTick {
    /// Rows audited this tick (cursor budget plus quarantine retries).
    pub rows_audited: usize,
    /// Rows found corrupt this tick (newly detected or still-corrupt
    /// quarantined rows being retried).
    pub corrupt_rows: usize,
    /// Corrupt rows healed this tick.
    pub healed_rows: usize,
    /// `true` iff the ladder escalated to a full rebuild this tick.
    pub escalated: bool,
    /// `true` iff this tick completed a full sweep of the sources.
    pub completed_pass: bool,
}

/// The background integrity auditor — see the [module docs](self) for
/// the audit/quarantine/repair contract and the single-writer rule.
pub struct Scrubber<C: PathCost> {
    oracle: Oracle<C>,
    config: ScrubConfig,
    /// Next row index to audit (wraps over the snapshot's sources).
    cursor: usize,
    probe: Option<ScrubProbe>,
    rows_audited: u64,
    corruptions_found: u64,
    corruptions_healed: u64,
    escalations: u64,
    complete_passes: u64,
}

impl<C: PathCost> std::fmt::Debug for Scrubber<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scrubber")
            .field("config", &self.config)
            .field("cursor", &self.cursor)
            .field("rows_audited", &self.rows_audited)
            .field("corruptions_found", &self.corruptions_found)
            .field("corruptions_healed", &self.corruptions_healed)
            .finish_non_exhaustive()
    }
}

impl<C: PathCost + 'static> Scrubber<C> {
    /// A scrubber auditing (and, on corruption, republishing through)
    /// `oracle`. Clone the handle out of a [`crate::churn::ChurnPipeline`]
    /// with [`crate::churn::ChurnPipeline::oracle`] to scrub a churn
    /// deployment.
    pub fn new(oracle: Oracle<C>, config: ScrubConfig) -> Self {
        Scrubber {
            oracle,
            config,
            cursor: 0,
            probe: None,
            rows_audited: 0,
            corruptions_found: 0,
            corruptions_healed: 0,
            escalations: 0,
            complete_passes: 0,
        }
    }

    /// Installs (or clears) the repair-ladder saboteur — test
    /// instrumentation, see [`ScrubProbe`].
    pub fn set_probe(&mut self, probe: Option<ScrubProbe>) {
        self.probe = probe;
    }

    /// Aggregate telemetry; `quarantined_now` is read from the
    /// currently published snapshot.
    pub fn health(&self) -> ScrubHealth {
        ScrubHealth {
            rows_audited: self.rows_audited,
            corruptions_found: self.corruptions_found,
            corruptions_healed: self.corruptions_healed,
            escalations: self.escalations,
            quarantined_now: self.oracle.snapshot().quarantined_rows(),
            complete_passes: self.complete_passes,
        }
    }

    /// One audit step: re-verify the next [`ScrubConfig::rows_per_tick`]
    /// rows of the published snapshot (plus any rows still quarantined
    /// from earlier ticks) cell-by-cell against the exact batch engine,
    /// quarantine what disagrees, and run the repair ladder. Returns
    /// what happened; cumulative counters via [`Scrubber::health`].
    ///
    /// Cheap when clean: one `dijkstra_batch` over the audited sources,
    /// zero publishes. On corruption it publishes at most twice (the
    /// quarantine epoch, then the healed epoch).
    pub fn tick(&mut self) -> ScrubTick {
        let snap = self.oracle.snapshot();
        let sources = snap.sources();
        if sources.is_empty() {
            return ScrubTick { completed_pass: true, ..ScrubTick::default() };
        }

        // Audit set: every still-quarantined row first (heal retries),
        // then the cursor's budget of fresh rows.
        let mut targets: Vec<Vertex> =
            sources.iter().copied().filter(|&s| snap.is_quarantined(s)).collect();
        let budget = self.config.rows_per_tick.max(1).min(sources.len());
        self.cursor %= sources.len();
        for i in 0..budget {
            let s = sources[(self.cursor + i) % sources.len()];
            if !targets.contains(&s) {
                targets.push(s);
            }
        }
        let completed_pass = self.cursor + budget >= sources.len();
        self.cursor = (self.cursor + budget) % sources.len();
        if completed_pass {
            self.complete_passes += 1;
        }
        self.rows_audited += targets.len() as u64;

        let corrupt = snap.audit_rows(&targets);
        let mut tick = ScrubTick {
            rows_audited: targets.len(),
            corrupt_rows: corrupt.len(),
            completed_pass,
            ..ScrubTick::default()
        };
        if corrupt.is_empty() {
            return tick;
        }
        let newly_found = corrupt.iter().filter(|c| !snap.is_quarantined(c.source)).count() as u64;
        self.corruptions_found += newly_found;

        // Fence first: readers must stop serving the corrupt cells
        // before any repair work runs.
        let mut fenced = (*snap).clone();
        for c in &corrupt {
            fenced.set_row_quarantined(c.source, true);
        }
        self.oracle.publish(fenced.clone());

        // Rung 1: targeted repair — splice the truth rows in.
        if !self.sabotaged(ScrubStage::TargetedRepair) {
            let mut healed = fenced.clone();
            for c in corrupt {
                healed.replace_row(c.source, c.truth);
            }
            if healed.audit_rows(&targets).is_empty() {
                self.oracle.publish(healed);
                self.corruptions_healed += tick.corrupt_rows as u64;
                tick.healed_rows = tick.corrupt_rows;
                return tick;
            }
        }

        // Rung 2: full rebuild from the scheme (drops optional derived
        // artifacts, like every from-scratch churn rebuild).
        tick.escalated = true;
        self.escalations += 1;
        if !self.sabotaged(ScrubStage::FullRebuild) {
            let rebuilt = OracleSnapshot::builder(snap.scheme())
                .base_faults(snap.base_faults().clone())
                .version(snap.version())
                .try_build();
            if let Ok(rebuilt) = rebuilt {
                self.oracle.publish(rebuilt);
                self.corruptions_healed += tick.corrupt_rows as u64;
                tick.healed_rows = tick.corrupt_rows;
                return tick;
            }
        }

        // Terminal rung: the quarantined snapshot stays published —
        // those sources answer through the engine fallback (correct,
        // just slow) and the heal is retried next tick.
        tick
    }

    /// `true` iff the installed probe sabotages `stage`.
    fn sabotaged(&mut self, stage: ScrubStage) -> bool {
        self.probe.as_mut().is_some_and(|p| p(stage))
    }
}

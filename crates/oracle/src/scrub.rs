//! The background integrity scrubber: continuous cell-level audit of
//! the *published* snapshot, healing every corrupt row it finds in one
//! splice and one publish.
//!
//! The churn pipeline's commit-time cross-check samples a handful of
//! sources per build — a corruption that slips past the sample (or
//! strikes *after* publication: a stray write, a cosmic bit flip in a
//! long-lived deployment) would otherwise be served forever with
//! nothing downstream to catch it. A [`Scrubber`] closes that window:
//!
//! * **Budgeted audit.** Each [`Scrubber::tick`] re-verifies
//!   [`ScrubConfig::rows_per_tick`] source rows of the currently
//!   published snapshot **cell by cell** (reachability, parents, exact
//!   costs, which fix the hop counts)
//!   against a fresh [`rsp_core::ExactScheme::spt_into`] run per row on
//!   the snapshot's own base fault state — the engine the build uses,
//!   and the same row audit the commit
//!   gate runs on its sample, but sweeping *every* row over successive
//!   ticks (a wrapping cursor; [`ScrubHealth::complete_passes`] counts
//!   full sweeps).
//! * **Heal in the same tick.** The audit already yields each corrupt
//!   row's truth row. Theorem 20 tiebreaking selects exactly one path
//!   per `(s, t)` pair, so that truth row is the *only* correct row and
//!   splicing it in cannot fail: the tick splices every truth row into
//!   one clone of the published snapshot and publishes it once. A
//!   healed row gets a fresh base and an empty cell list, whether the
//!   damage sat in its base or in the cells a delta commit listed over
//!   it; untouched rows keep their base and list. Every corruption found
//!   is healed in the tick that finds it, so a published snapshot never
//!   carries a known-corrupt row and a later delta commit patches from
//!   clean rows.
//! * **Health reporting.** [`ScrubHealth`] exposes rows audited,
//!   corruptions found (and so healed), and completed passes — damage
//!   is surfaced, never hidden, mirroring [`crate::churn::ChurnHealth`].
//!
//! The scrubber is a *writer*: it publishes healed epochs through the
//! same [`Oracle`] handle the control plane uses. Run it on the
//! control-plane thread, interleaving ticks with churn commits — the
//! workspace-wide single-writer discipline. Readers need nothing new:
//! they pick up the healed epoch on their next refresh.
//!
//! # Examples
//!
//! A clean snapshot audits clean; a corrupted cell is caught and healed
//! in one tick and one publish:
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_graph::generators;
//! use rsp_oracle::churn::inject::{corrupt_published_row, CellCorruption};
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
//!
//! // Damage a cell of source 1's published row (the cursor is back at
//! // row 0, so the next tick audits rows 0..4).
//! corrupt_published_row(&oracle, 1, CellCorruption::Hop).unwrap();
//! let epoch = oracle.epoch();
//! let tick = scrubber.tick();
//! assert_eq!(tick.corrupt_rows, 1, "the damaged row is caught");
//! assert_eq!(oracle.epoch(), epoch + 1, "healed with one publish");
//! // The next full pass, row 1 included, audits clean.
//! for _ in 0..4 {
//!     assert_eq!(scrubber.tick().corrupt_rows, 0, "the heal stuck");
//! }
//! ```

use rsp_arith::PathCost;

use crate::serve::Oracle;

/// Tuning knobs for a [`Scrubber`].
#[derive(Clone, Copy, Debug)]
pub struct ScrubConfig {
    /// Source rows audited per [`Scrubber::tick`] (default 4). The
    /// audit budget — one `spt_into` search per audited row, so a tick
    /// costs this many searches and a full sweep is amortized over
    /// `ceil(sources / rows_per_tick)` ticks. `0` is clamped to 1.
    pub rows_per_tick: usize,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig { rows_per_tick: 4 }
    }
}

/// Aggregate scrubber telemetry — the integrity counterpart of
/// [`crate::churn::ChurnHealth`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubHealth {
    /// Total rows audited cell-by-cell across all ticks.
    pub rows_audited: u64,
    /// Corrupt rows detected. Each is healed in the tick that finds it,
    /// so this is also the number of rows healed.
    pub corruptions_found: u64,
    /// Complete sweeps of every serving source finished so far.
    pub complete_passes: u64,
}

/// What one [`Scrubber::tick`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubTick {
    /// Rows audited this tick (the cursor's budget).
    pub rows_audited: usize,
    /// Rows found corrupt — and healed — this tick.
    pub corrupt_rows: usize,
    /// `true` iff this tick completed a full sweep of the sources.
    pub completed_pass: bool,
}

/// The background integrity auditor — see the [module docs](self) for
/// the audit-and-heal contract and the single-writer rule.
pub struct Scrubber<C: PathCost> {
    oracle: Oracle<C>,
    config: ScrubConfig,
    /// Next row index to audit (wraps over the snapshot's sources).
    cursor: usize,
    rows_audited: u64,
    corruptions_found: u64,
    complete_passes: u64,
}

impl<C: PathCost> std::fmt::Debug for Scrubber<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scrubber")
            .field("config", &self.config)
            .field("cursor", &self.cursor)
            .field("rows_audited", &self.rows_audited)
            .field("corruptions_found", &self.corruptions_found)
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
            rows_audited: 0,
            corruptions_found: 0,
            complete_passes: 0,
        }
    }

    /// Aggregate telemetry.
    pub fn health(&self) -> ScrubHealth {
        ScrubHealth {
            rows_audited: self.rows_audited,
            corruptions_found: self.corruptions_found,
            complete_passes: self.complete_passes,
        }
    }

    /// One audit step: re-verify the next [`ScrubConfig::rows_per_tick`]
    /// rows of the published snapshot cell-by-cell against the exact
    /// engine and heal every row that disagrees. Returns what
    /// happened; cumulative counters via [`Scrubber::health`].
    ///
    /// Cheap when clean: one `spt_into` search per audited row, zero
    /// publishes. On corruption it splices every truth row into
    /// one clone of the snapshot and publishes exactly once.
    pub fn tick(&mut self) -> ScrubTick {
        let snap = self.oracle.snapshot();
        let sources = snap.sources();
        if sources.is_empty() {
            return ScrubTick { completed_pass: true, ..ScrubTick::default() };
        }

        let budget = self.config.rows_per_tick.max(1).min(sources.len());
        self.cursor %= sources.len();
        let targets: Vec<_> =
            (0..budget).map(|i| sources[(self.cursor + i) % sources.len()]).collect();
        let completed_pass = self.cursor + budget >= sources.len();
        self.cursor = (self.cursor + budget) % sources.len();
        if completed_pass {
            self.complete_passes += 1;
        }
        self.rows_audited += budget as u64;

        let corrupt = snap.audit_rows(&targets);
        let tick = ScrubTick { rows_audited: budget, corrupt_rows: corrupt.len(), completed_pass };
        if corrupt.is_empty() {
            return tick;
        }
        self.corruptions_found += corrupt.len() as u64;

        let mut healed = (*snap).clone();
        for c in corrupt {
            healed.replace_row(c.source, c.truth);
        }
        self.oracle.publish(healed);
        tick
    }
}

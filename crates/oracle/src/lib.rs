//! # `rsp_oracle` — the lock-free routing-oracle serving layer
//!
//! Every other crate in this workspace is a *compiler*: it turns a graph
//! into tiebreaking schemes ([`rsp_core`]), preservers (`rsp_preserver`),
//! or fault labels (`rsp_labeling`). This crate is the *server*: it
//! freezes a scheme's selected trees — tree rows only, nothing else —
//! into an immutable [`OracleSnapshot`] and answers `(s, t, F)` queries
//! from any number of threads with **zero locks and zero allocation on
//! the hot path**, while a control-plane writer publishes new snapshot
//! epochs under load without ever blocking a reader.
//!
//! The design is the classic router split (RIB/FIB):
//!
//! * **Control plane** — [`SnapshotBuilder`] compiles a
//!   [`rsp_core::ExactScheme`] into flat struct-of-arrays canonical
//!   trees (parent edge, hop count and cost per cell). Expensive,
//!   allocating, single-threaded — and entirely off the read path.
//! * **Publication** — [`Oracle::publish`] swaps the current snapshot
//!   `Arc` and bumps an epoch counter; in-flight readers keep the old
//!   epoch alive until they next refresh, then it drops.
//! * **Data plane** — each serving thread holds an [`OracleReader`]:
//!   per-query cost is one atomic epoch load, an `O(|F|)` check whether
//!   the faults touch the precomputed tree, and either a flat-array
//!   lookup (fast path) or an exact engine run in the reader's own warm
//!   scratch (slow path). Both are byte-identical to
//!   [`rsp_core::Rpts::tree_from_with`], proptest-pinned.
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_graph::{generators, FaultSet};
//! use rsp_oracle::Oracle;
//!
//! let g = generators::grid(4, 4);
//! let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
//!
//! // Control plane: compile + publish. Data plane: per-thread readers.
//! let oracle = Oracle::build(&scheme);
//! let mut reader = oracle.reader();
//! assert_eq!(reader.dist(0, 15, &FaultSet::single(0)), Some(6));
//! ```
//!
//! Under *churn* — live fault arrive/repair streams — the [`churn`]
//! module hardens this loop: [`churn::ChurnPipeline`] validates and
//! quarantines hostile events, recompiles snapshots panic-isolated and
//! cross-checked, escalating once from delta patch to full build (no
//! retries, no sleeps), and keeps readers on the last
//! good snapshot when builds fail (staleness exposed via
//! [`churn::ChurnHealth`], never hidden). A seeded injection harness
//! ([`churn::inject`]) drives drops, duplicates, reorders, corruptions,
//! and builder panics deterministically in the robustness suite.
//!
//! Long-lived deployments get *durability and self-audit* on top:
//! journal streams serialize through the CRC-framed codec in
//! [`rsp_graph::journal`], [`churn::ChurnPipeline::checkpoint`] /
//! [`churn::ChurnPipeline::compact`] bound journal memory,
//! [`churn::ChurnPipeline::recover`] restarts from bytes (tolerating a
//! torn tail, refusing interior corruption with a typed error), and the
//! background [`scrub::Scrubber`] continuously re-verifies published
//! rows cell-by-cell against the exact engine, splicing each corrupt
//! row's truth row into one clone of the snapshot and publishing it once
//! ([`scrub::ScrubHealth`]).
//!
//! See the "Serving layer", "Churn pipeline & degraded modes", and
//! "Durability, compaction & scrubbing" chapters of
//! `docs/ARCHITECTURE.md` for the control/data-plane diagram, the
//! snapshot lifecycle (build → publish → retire), the event-ingestion
//! state machine, the journal frame format and checkpoint lifecycle,
//! the scrubber's audit-and-heal tick, and guidance on `Oracle` vs the
//! raw engines.
//!
//! ## Paper cross-reference
//!
//! | Construct | Paper (Bodwin–Parter, PODC 2021) |
//! |---|---|
//! | Canonical tree rows in [`OracleSnapshot`] | the scheme's selected SPTs `π(s, ·)` |
//! | Fast path "faults miss the tree" | restoration: surviving selected paths stay selected |
//! | not in snapshots; built by the `rsp_preserver` crate | Theorem 26 `S × V` preserver |
//! | not in snapshots; built by the `rsp_labeling` crate | Theorem 30 distance labeling |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod churn;
pub mod delta;
pub mod scrub;
mod serve;
mod snapshot;

pub use serve::{Oracle, OracleReader};
pub use snapshot::{BuildError, OracleSnapshot, QueryError, SnapshotBuilder, TreeView};

//! Restorable shortest path tiebreaking for edge-faulty graphs.
//!
//! This crate implements the primary contribution of Bodwin & Parter,
//! *Restorable Shortest Path Tiebreaking for Edge-Faulty Graphs* (PODC
//! 2021): selecting **one** shortest path per *ordered* vertex pair so that
//! replacement paths under edge failures can always be rebuilt by
//! concatenating two selected paths (Theorem 2).
//!
//! # The construction
//!
//! An **antisymmetric tiebreaking weight (ATW) function** (Definition 18)
//! assigns each directed edge a tiny perturbation `r(u, v) = −r(v, u)`; the
//! reweighted graph `G*` has edge weights `1 + r(u, v)` and — when `r` is
//! `f`-fault tiebreaking — *unique* shortest paths in every `G* \ F`. The
//! induced replacement-path tiebreaking scheme `π(s, t | F)` is then
//! simultaneously **consistent** (Definition 14), **stable** (Definition 16)
//! and **f-restorable** (Definition 17) — Theorem 19.
//!
//! Three ATW constructions are provided, mirroring the paper:
//!
//! * [`RandomGridAtw::theorem20`] — fine uniform grid standing in for the
//!   real-valued `[−ε, ε]` sampling of Theorem 20 (exact integer arithmetic
//!   replaces the real-RAM model);
//! * [`RandomGridAtw::corollary22`] — the isolation-lemma grid of
//!   Corollary 22, with `O(f log n)` bits per weight;
//! * [`GeometricAtw`] (Theorem 23) — deterministic weights
//!   `sign(u−v)·C^{−i}/(2n)` with `O(|E|)` bits per weight, on exact
//!   [`rsp_arith::BigInt`] arithmetic.
//!
//! # What restorability buys
//!
//! [`restore_by_concatenation`] rebuilds a replacement path for any fault
//! set from the *already stored* paths — the MPLS-style recovery the paper
//! is motivated by. With an arbitrary consistent scheme (e.g.
//! [`BfsScheme`]) this fails on real instances (Figure 1 of the paper);
//! with a restorable scheme it always succeeds, which
//! [`verify::verify_restorability`] checks exhaustively.
//!
//! The impossibility half (Theorem 37: no *symmetric* scheme can be
//! 1-restorable, already on the 4-cycle) is reproduced in the [`c4`] module
//! by exhaustive enumeration of all symmetric schemes.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the guide-level
//! workspace architecture: the crate layering, the three-level query
//! engine (scratch -> repair kernel and sweep -> pool/frontier), the preserver
//! enumeration pipeline, and the serving layer (its "Serving layer"
//! chapter — `rsp_oracle` compiles an [`ExactScheme`] into immutable
//! snapshots served lock-free; prefer it over driving [`Rpts`] queries
//! directly when answering live fault queries).
//!
//! # Paper cross-reference
//!
//! | Module / item | Paper (PAPER.md) |
//! |---|---|
//! | [`Rpts`] | Definition 15: replacement-path tiebreaking scheme `π(s, t \| F)` |
//! | [`Rpts::for_each_tree`] | batched query plane for the Section 3–4 sweeps (one fault-free tree per source, each fault set applied by the repair kernel via `rsp_graph::dijkstra_sweep` when a sweep has several fault sets; per-query search for one) |
//! | [`ExactScheme`] | Theorem 19: the weight-induced consistent/stable/restorable scheme |
//! | [`RandomGridAtw::theorem20`] | Theorem 20 (real sampling → exact fine grid) |
//! | [`RandomGridAtw::corollary22`] | Corollary 22, isolation-lemma grid, `O(f log n)` bits |
//! | [`GeometricAtw`] | Theorem 23 deterministic weights, `O(\|E\|)` bits |
//! | [`restore_by_concatenation`], [`restore_single_fault`] | Theorem 2 / Definition 17 restoration; Section 1's MPLS splice |
//! | [`restoration_stats`], [`restoration_stats_par`] | experiment E1: Figure 1 quantified |
//! | [`verify`] | Definitions 13, 14, 16, 17, 18 checked instance-by-instance |
//! | [`c4`] | Theorem 37 impossibility on the 4-cycle |
//! | [`BfsScheme`] | the non-restorable baseline of Figure 1 |
//!
//! # Examples
//!
//! ```
//! use rsp_core::{RandomGridAtw, Rpts, restore_by_concatenation};
//! use rsp_graph::{generators, FaultSet};
//!
//! // Build a restorable scheme on the 4-cycle of Theorem 37.
//! let g = generators::cycle(4);
//! let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
//!
//! // Fail any edge: restoration by concatenation always succeeds.
//! for (e, _, _) in scheme.graph().edges() {
//!     for s in scheme.graph().vertices() {
//!         for t in scheme.graph().vertices() {
//!             let restored = restore_by_concatenation(&scheme, s, t, &FaultSet::single(e));
//!             assert!(restored.is_some());
//!         }
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod c4;
mod geometric_atw;
mod naive;
mod random_atw;
mod restore;
mod scheme;
pub mod verify;

pub use geometric_atw::GeometricAtw;
pub use naive::{BfsOrder, BfsScheme};
pub use random_atw::RandomGridAtw;
pub use restore::{
    restoration_stats, restoration_stats_par, restore_by_concatenation,
    restore_by_concatenation_with, restore_single_fault, restore_single_fault_with,
    RestorationStats,
};
pub use scheme::{ExactScheme, Rpts, RptsScratch};

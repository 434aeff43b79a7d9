//! Experiment harness for the Bodwin–Parter reproduction.
//!
//! Each experiment in [`experiments`] regenerates one figure or headline
//! claim of the paper (see DESIGN.md's experiment index and
//! EXPERIMENTS.md for recorded outcomes). The binary
//! `experiments` runs them from the command line:
//!
//! ```text
//! cargo run -p rsp_bench --release --bin experiments -- all
//! cargo run -p rsp_bench --release --bin experiments -- e1 e6
//! ```
//!
//! The Criterion benches under `benches/` time the individual algorithms
//! on fixed workloads; the experiment binary is about *shapes* (who wins,
//! by what factor, with what exponent), the benches about wall-clock.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the guide-level
//! workspace architecture: the crate layering, the three-level query
//! engine (scratch -> batch/checkpoint -> pool/frontier), and the
//! preserver enumeration pipeline.
//!
//! # Paper cross-reference
//!
//! | Module / bench | Paper (PAPER.md) |
//! |---|---|
//! | [`experiments`] | one module per figure/claim (E1 = Figure 1, E2 = Theorem 19's properties, …; see DESIGN.md) |
//! | [`workloads`], [`reporting`] | shared graph workloads and the text/CSV report sink |
//! | `benches/atw`, `benches/restorability` | Theorems 19–23 construction and verification cost |
//! | `benches/subset_rp` | Algorithm 1 (Theorem 29) vs the per-pair baseline |
//! | `benches/preserver`, `benches/lower_bound` | Theorems 26/27/31 build sizes and times |
//! | `benches/spanner`, `benches/labeling`, `benches/congest` | Sections 4.3–4.5 constructions |
//! | `benches/query_engine` | the scratch engine vs the reference engine (`BENCH_2.json` trajectory) |
//! | `benches/query_batch` | the repair-kernel sweep against per-query search (`BENCH_3.json` trajectory) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod reporting;
pub mod workloads;

//! Restorable shortest path tiebreaking for edge-faulty graphs — a full
//! Rust reproduction of Bodwin & Parter (PODC 2021).
//!
//! This facade crate re-exports the workspace so downstream users can
//! depend on one crate:
//!
//! * [`arith`] — exact arithmetic ([`arith::BigInt`], path costs);
//! * [`graph`] — CSR graphs, BFS, exact-weight Dijkstra, fault sets,
//!   routing tables, generators, and the query engine: reusable
//!   [`graph::SearchScratch`] state, `sources × fault_sets` sweeps that
//!   repair each source's fault-free tree per fault set
//!   ([`graph::dijkstra_sweep`], over the [`graph::repair`] kernel that
//!   also patches the oracle's delta commits), and worker-pool fan-out
//!   ([`graph::parallel_indexed`]);
//! * [`core`] — **the paper's contribution**: antisymmetric tiebreaking
//!   weight functions (Theorems 20, 23, Corollary 22), the induced
//!   consistent/stable/restorable schemes (Theorem 19), restoration by
//!   concatenation (Theorem 2), and the Theorem 37 impossibility search;
//! * [`replacement`] — single-pair replacement paths (Theorem 28) and
//!   subset-rp Algorithm 1 (Theorem 3);
//! * [`preserver`] — fault-tolerant distance preservers (Theorems 26,
//!   31) and the Theorem 27 lower-bound family (Figures 2–3);
//! * [`spanner`] — fault-tolerant +4 additive spanners (Lemma 32,
//!   Theorem 7);
//! * [`labeling`] — fault-tolerant exact distance labels (Theorem 10);
//! * [`oracle`] — **the recommended serving API**: immutable compiled
//!   routing snapshots ([`oracle::OracleSnapshot`]) served lock-free to
//!   any number of reader threads through epoch-swapped
//!   [`oracle::Oracle`] / [`oracle::OracleReader`] handles — use this,
//!   not the raw engines, when answering live `(s, t, F)` queries;
//! * [`congest`] — the CONGEST simulator and distributed constructions
//!   (Lemma 34, Theorem 35, Lemma 36, Theorem 8, Corollary 9);
//! * [`dag`] — the Section 1.2 future-work direction: DAG substrate and
//!   the empirical DAG restoration experiments;
//! * [`mpls`] — the motivating MPLS failover application.
//!
//! Each crate's own documentation opens with a **paper cross-reference
//! table** mapping its modules to the theorems, definitions, and sections
//! of PAPER.md; `docs/ARCHITECTURE.md` at the repository root is the
//! canonical guide-level architecture — the crate layering, the
//! three-level query engine (scratch -> batch/checkpoint ->
//! pool/frontier), the preserver enumeration pipeline, and the serving
//! layer's control/data-plane split — which README.md's "Architecture"
//! section summarizes.
//!
//! # Quickstart
//!
//! ```
//! use restorable_tiebreaking::core::{RandomGridAtw, restore_single_fault};
//! use restorable_tiebreaking::graph::{generators, FaultSet};
//!
//! // 1. Build a restorable tiebreaking scheme for your network.
//! let g = generators::grid(4, 4);
//! let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
//!
//! // 2. A link fails: rebuild the shortest route from stored paths only.
//! let failed = g.edge_between(5, 6).unwrap();
//! let path = restore_single_fault(&scheme, 0, 15, failed).unwrap();
//! assert!(path.avoids(&g, &FaultSet::single(failed)));
//! ```
//!
//! # Serving queries
//!
//! To *serve* fault queries (rather than run one-off computations),
//! compile the scheme into an immutable snapshot and read it lock-free
//! — see the "Serving layer" chapter of `docs/ARCHITECTURE.md`:
//!
//! ```
//! use restorable_tiebreaking::core::RandomGridAtw;
//! use restorable_tiebreaking::graph::{generators, FaultSet};
//! use restorable_tiebreaking::oracle::Oracle;
//!
//! let g = generators::grid(4, 4);
//! let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
//! let oracle = Oracle::build(&scheme); // control plane: compile + publish
//! let mut reader = oracle.reader(); // data plane: one handle per thread
//! assert_eq!(reader.dist(0, 15, &FaultSet::single(0)), Some(6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rsp_arith as arith;
pub use rsp_congest as congest;
pub use rsp_core as core;
pub use rsp_dag as dag;
pub use rsp_graph as graph;
pub use rsp_labeling as labeling;
pub use rsp_mpls as mpls;
pub use rsp_oracle as oracle;
pub use rsp_preserver as preserver;
pub use rsp_replacement as replacement;
pub use rsp_spanner as spanner;

//! Fault-tolerant exact distance labeling (Section 4.3 of Bodwin &
//! Parter, Theorem 30).
//!
//! A distance labeling scheme assigns each vertex a short bitstring such
//! that `dist(s, t)` is recoverable from the two labels alone. The
//! fault-tolerant version here recovers `dist_{G\F}(s, t)` from the labels
//! of `s` and `t` plus a description of `F` — notably **without edge
//! labels**, unlike prior forbidden-set labelings.
//!
//! Construction (Theorem 30): the label of `v` is the bit-packed edge set
//! of an `f`-FT `{v} × V` preserver built from a consistent stable
//! restorable RPTS. Restorability makes the **union of two labels**
//! `(f+1)`-fault tolerant for the pair: the replacement path concatenates
//! a path stored in `s`'s preserver with one stored in `t`'s. Label size
//! is `O(n^{2−1/2^f} log n)` bits; for `f = 0` that is `Õ(n)`, improving
//! the `Õ(n^{3/2})` of Bilò et al. as the paper notes.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the guide-level
//! workspace architecture: the crate layering, the three-level query
//! engine (scratch -> batch/checkpoint -> pool/frontier), the preserver
//! enumeration pipeline, and the serving layer. Labels are built and
//! shipped from this crate directly; `rsp_oracle` snapshots hold tree
//! rows only.
//!
//! # Paper cross-reference
//!
//! | Module / item | Paper (PAPER.md) |
//! |---|---|
//! | [`build_labeling`], [`DistanceLabeling`] | Theorem 30: FT distance labels without edge labels |
//! | [`VertexLabel`] | one `{v} × V` preserver, bit-packed (`O(n^{2−1/2^f} log n)` bits) |
//! | [`BitReader`], [`BitWriter`] | the label encoding substrate |
//!
//! # Examples
//!
//! ```
//! use rsp_core::RandomGridAtw;
//! use rsp_labeling::build_labeling;
//! use rsp_graph::generators;
//!
//! let g = generators::petersen();
//! let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
//! let labeling = build_labeling(&scheme, 0); // supports one fault
//! // Query using ONLY the two labels and the fault description:
//! let d = labeling.query(0, 1, &[(0, 1)]);
//! assert_eq!(d, Some(4)); // Petersen girth-5 reroute
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bits;
mod scheme;

pub use bits::{BitReader, BitWriter};
pub use scheme::{build_labeling, DistanceLabeling, VertexLabel};

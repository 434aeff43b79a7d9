//! Exact arithmetic substrate for restorable shortest path tiebreaking.
//!
//! The tiebreaking schemes of Bodwin–Parter (PODC 2021) perturb the unit edge
//! weights of a graph by tiny antisymmetric amounts and then demand *unique*
//! shortest paths in the reweighted graph `G*`. Floating point cannot deliver
//! the required exactness: two distinct perturbed path weights may round to
//! the same `f64`, silently re-introducing the ties the construction exists
//! to remove. This crate therefore provides the exact numeric machinery the
//! rest of the workspace builds on:
//!
//! * [`BigInt`] — a small arbitrary-precision signed integer, sufficient for
//!   the deterministic geometric weights of Theorem 23 (which need
//!   `O(|E|)` bits per weight);
//! * [`PathCost`] — the trait abstracting "a totally ordered cost that can be
//!   accumulated along a path", implemented for the native unsigned integers
//!   (used by the randomized schemes of Theorem 20 / Corollary 22, whose
//!   scaled weights fit in `u128`) and for [`BigInt`];
//! * [`HopDivisor`] — reads a path's hop count off its exact cost, once
//!   a weight function is certified to keep hop classes apart.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the guide-level
//! workspace architecture: the crate layering, the three-level query
//! engine (scratch -> batch/checkpoint -> pool/frontier), and the
//! preserver enumeration pipeline.
//!
//! # Paper cross-reference
//!
//! | Module / item | Paper (PAPER.md) |
//! |---|---|
//! | [`PathCost`] | exact scaled-integer substitution for the paper's real-valued weights (DESIGN.md substitution 1) |
//! | `u128` impl | Theorem 20 / Corollary 22 randomized grids (`O(f log n)` bits fit a machine word) |
//! | [`BigInt`] | Theorem 23 deterministic geometric weights (`O(\|E\|)` bits per weight) |
//! | [`HopDivisor`] | Theorem 20's `h·2nK + Σi` with `\|Σi\| < nK`: hops from cost |
//!
//! # Examples
//!
//! ```
//! use rsp_arith::{BigInt, PathCost};
//!
//! let a = BigInt::from_i128(1) << 200; // 2^200
//! let b = BigInt::from_i128(-1) << 199; // -2^199
//! assert_eq!(a.clone() + b, BigInt::from_i128(1) << 199);
//! assert_eq!(u128::zero().plus(&7u128), 7u128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod cost;
mod hops;

pub use bigint::BigInt;
pub use cost::PathCost;
pub use hops::HopDivisor;

//! The [`PathCost`] abstraction: totally ordered costs accumulated along paths.
//!
//! The exact-weight Dijkstra in `rsp-graph` is generic over the cost type so
//! that the same shortest-path engine serves all three tiebreaking weight
//! constructions of the paper:
//!
//! * Theorem 20 (random grid) and Corollary 22 (isolation lemma) scale their
//!   rational weights to integers that fit in [`u128`];
//! * Theorem 23 (deterministic geometric) needs `O(|E|)`-bit integers, i.e.
//!   [`crate::BigInt`].

use crate::BigInt;

/// A totally ordered cost that can be accumulated along a path.
///
/// Implementors must form a *commutative monoid* under [`PathCost::plus`]
/// with identity [`PathCost::zero`], and the order must be translation
/// invariant (`a < b` implies `a+c < b+c`) — both hold trivially for the
/// provided integer implementations. Dijkstra additionally requires edge
/// costs to be non-negative, which the tiebreaking constructions guarantee
/// by scaling (each perturbed weight `1 + r(u,v)` is strictly positive since
/// `|r| < 1/(2n)`).
///
/// # Examples
///
/// ```
/// use rsp_arith::PathCost;
///
/// let total = u128::zero().plus(&10).plus(&32);
/// assert_eq!(total, 42);
/// ```
pub trait PathCost: Clone + Ord + std::fmt::Debug {
    /// The identity cost (an empty path).
    fn zero() -> Self;

    /// Returns the cost extended by one edge.
    ///
    /// # Panics
    ///
    /// Native integer implementations panic on overflow; callers size their
    /// weight scales so that the longest simple path cannot overflow.
    fn plus(&self, edge: &Self) -> Self;

    /// Resets `self` to [`PathCost::zero`] in place, keeping its storage.
    fn set_zero(&mut self) {
        *self = Self::zero();
    }

    /// Returns `self − other`, for `other ≤ self`.
    ///
    /// # Panics
    ///
    /// Native integer implementations panic if `other > self`.
    fn minus(&self, other: &Self) -> Self;

    /// Returns `self · k`, or `None` if the product overflows the type.
    fn checked_times(&self, k: u64) -> Option<Self>;

    /// The value as an `f64`, rounded (infinite past `f64`'s range): the
    /// quotient estimate behind [`crate::HopDivisor`].
    fn to_f64(&self) -> f64;
}

/// The [`PathCost`] impl of a native unsigned integer.
macro_rules! native_cost {
    ($t:ty) => {
        impl PathCost for $t {
            fn zero() -> Self {
                0
            }

            fn plus(&self, edge: &Self) -> Self {
                self.checked_add(*edge).expect(concat!(stringify!($t), " path cost overflow"))
            }

            fn minus(&self, other: &Self) -> Self {
                self.checked_sub(*other).expect(concat!(stringify!($t), " cost underflow"))
            }

            fn checked_times(&self, k: u64) -> Option<Self> {
                self.checked_mul(<$t>::try_from(k).ok()?)
            }

            fn to_f64(&self) -> f64 {
                *self as f64
            }
        }
    };
}

native_cost!(u32);
native_cost!(u64);
native_cost!(u128);

impl PathCost for BigInt {
    fn zero() -> Self {
        BigInt::zero()
    }

    fn plus(&self, edge: &Self) -> Self {
        self + edge
    }

    fn set_zero(&mut self) {
        self.clear_to_zero();
    }

    fn minus(&self, other: &Self) -> Self {
        self.clone() - other.clone()
    }

    fn checked_times(&self, k: u64) -> Option<Self> {
        Some(self.clone() * k)
    }

    fn to_f64(&self) -> f64 {
        BigInt::to_f64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u128_monoid() {
        assert_eq!(u128::zero().plus(&5).plus(&7), 12);
        assert_eq!(u128::zero().plus(&0), 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn u64_overflow_panics() {
        let _ = u64::MAX.plus(&1);
    }

    #[test]
    fn bigint_monoid() {
        let a = BigInt::pow2(100);
        let b = BigInt::pow2(100);
        assert_eq!(a.plus(&b), BigInt::pow2(101));
        assert_eq!(BigInt::zero().plus(&BigInt::one()), BigInt::one());
    }

    #[test]
    fn set_zero_resets_in_place() {
        let mut x = BigInt::pow2(200);
        x.set_zero();
        assert_eq!(x, BigInt::zero());
        let mut y = 42u64;
        y.set_zero();
        assert_eq!(y, 0);
    }

    #[test]
    fn order_translation_invariance_spot_check() {
        let a = 3u128;
        let b = 9u128;
        let c = 1u128 << 100;
        assert!(a < b && a.plus(&c) < b.plus(&c));
    }
}

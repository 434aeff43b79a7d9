//! Hop counts read off exact path costs.
//!
//! A tiebreaking weight function perturbs every unit edge by less than
//! a whole unit, and by so little that no simple path's perturbations
//! add up to one: Theorem 20's `h`-hop path costs `h·2nK + Σi` with
//! `|Σi| < nK`. The hop count is then a function of the cost, and a
//! store of exact costs need not keep it. [`HopDivisor`] certifies that
//! bound for a weight function once and then derives hop counts with
//! one exact division.

use crate::PathCost;

/// A certified divisor that reads a simple path's hop count off its
/// exact cost.
///
/// Write every directed weight as `unit + δ`, with `−a ≤ δ ≤ b` over
/// all of them. A simple path in an `n`-vertex graph has `h ≤ n − 1`
/// edges, so an `h`-hop path costs `h·unit + Σδ` with
/// `−L ≤ Σδ ≤ U`, where `L = (n−1)·a` and `U = (n−1)·b`. When
/// `L + U < unit`, `cost + L` lies in `[h·unit, (h+1)·unit)`, and
///
/// ```text
/// h = ⌊(cost + L) / unit⌋.
/// ```
///
/// The floor matters: a weight function whose drift is all positive
/// (`a = 0`, `U` close to `unit`) puts `cost` just short of
/// `(h+1)·unit`, where rounding to the nearest multiple would answer
/// `h + 1`.
///
/// The division is exact for every [`PathCost`]: an `f64` reciprocal of
/// `unit`, computed once, estimates the quotient to within one (it is
/// below `2^32`), and one multiplication by `unit` corrects the
/// estimate.
///
/// # Examples
///
/// ```
/// use rsp_arith::HopDivisor;
///
/// // Unit 100; weights drift by at most −3 and +5; 4 vertices, so
/// // L = 3·3 = 9 and L + U = 3·8 = 24 < 100.
/// let d = HopDivisor::certify(4, &100u64, &[97, 105, 100]).unwrap();
/// assert_eq!(d.lower(), &9);
/// assert_eq!(d.hops(&0), 0);
/// assert_eq!(d.hops(&(97 + 97 + 97)), 3);
/// assert_eq!(d.hops(&(105 + 105 + 105)), 3);
/// // Drift as large as a unit edge cannot be certified.
/// assert!(HopDivisor::certify(30, &100u64, &[97, 105]).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct HopDivisor<C> {
    unit: C,
    /// `L`: the largest total downward drift of a simple path.
    lower: C,
    /// `1 / unit`, the quotient estimate's factor.
    recip: f64,
}

impl<C: PathCost> HopDivisor<C> {
    /// Certifies the bound for an `n`-vertex graph whose directed edge
    /// weights are `weights`, in `O(|weights|)` exact operations.
    ///
    /// Returns `None` unless `L + U < unit`, and also when `n · unit`
    /// overflows `C` (then `cost + L` could overflow too).
    pub fn certify<'w>(n: usize, unit: &C, weights: impl IntoIterator<Item = &'w C>) -> Option<Self>
    where
        C: 'w,
    {
        let (mut low, mut high) = (unit, unit);
        for w in weights {
            if w < low {
                low = w;
            } else if w > high {
                high = w;
            }
        }
        let paths = u64::try_from(n.saturating_sub(1)).ok()?;
        // L + U = (n−1)·(a + b), and a + b is the whole spread.
        let spread = high.minus(low).checked_times(paths)?;
        if spread >= *unit {
            return None;
        }
        unit.checked_times(u64::try_from(n).ok()?)?;
        let lower = unit.minus(low).checked_times(paths)?;
        Some(HopDivisor { unit: unit.clone(), lower, recip: 1.0 / unit.to_f64() })
    }

    /// The unperturbed unit edge weight.
    pub fn unit(&self) -> &C {
        &self.unit
    }

    /// `L`, the largest total downward drift of a simple path: the
    /// offset added to a cost before dividing.
    pub fn lower(&self) -> &C {
        &self.lower
    }

    /// The hop count of a simple path of cost `cost` under the certified
    /// weights: `⌊(cost + L) / unit⌋`.
    ///
    /// A cost no simple path has (a damaged store) still answers, with
    /// some count below `u32::MAX`, and never panics: the sum `cost + L`,
    /// which can overflow `C` near its maximum, is never formed. With
    /// `cost = q·unit + r`, the count is `q`, plus one iff
    /// `r + L ≥ unit`; `r + L < 2·unit` fits because
    /// [`HopDivisor::certify`] proved `n·unit` fits (and `L = 0` when
    /// `n = 1`).
    #[inline]
    pub fn hops(&self, cost: &C) -> u32 {
        match self.div_rem(cost) {
            Some((q, r)) => clamp(q.saturating_add(u64::from(r.plus(&self.lower) >= self.unit))),
            None => u32::MAX - 1,
        }
    }

    /// `(⌊x / unit⌋, x mod unit)`, or `None` when the quotient is at least
    /// `u32::MAX`.
    #[inline]
    fn div_rem(&self, x: &C) -> Option<(u64, C)> {
        // Within one of the quotient while both f64s are finite.
        let q = (x.to_f64() * self.recip) as u64;
        if let Some(p) = self.unit.checked_times(q) {
            if p <= *x {
                let r = x.minus(&p);
                if r < self.unit {
                    return Some((q, r));
                }
                let r = r.minus(&self.unit);
                if r < self.unit {
                    return Some((q.saturating_add(1), r));
                }
            } else if q > 0 {
                let p = p.minus(&self.unit);
                if p <= *x {
                    return Some((q - 1, x.minus(&p)));
                }
            }
        }
        self.search(x)
    }

    /// [`HopDivisor::div_rem`] by bisection over `q < u32::MAX`: the
    /// fallback for an estimate that missed (a cost past `f64`'s range).
    #[cold]
    fn search(&self, x: &C) -> Option<(u64, C)> {
        let fits = |q: u64| self.unit.checked_times(q).is_some_and(|p| p <= *x);
        let (mut lo, mut hi) = (0u64, u64::from(u32::MAX));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let r = x.minus(&self.unit.checked_times(lo)?);
        (r < self.unit).then_some((lo, r))
    }
}

/// A quotient as a hop count, kept below the `u32::MAX` sentinel.
#[inline]
fn clamp(q: u64) -> u32 {
    q.min(u64::from(u32::MAX - 1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BigInt;

    /// Every cost of every hop count in `0..=n−1`, drifting anywhere in
    /// the certified window, reads back its hop count.
    fn check_window<C: PathCost>(d: &HopDivisor<C>, n: u64, upper: &C) {
        for h in 0..n {
            let base = d.unit().checked_times(h).unwrap();
            // Lowest: base − L (when h·unit ≥ L); highest: base + U.
            if base >= *d.lower() {
                assert_eq!(d.hops(&base.minus(d.lower())), h as u32);
            }
            assert_eq!(d.hops(&base), h as u32);
            assert_eq!(d.hops(&base.plus(upper)), h as u32);
        }
    }

    #[test]
    fn floors_every_native_type_at_both_ends_of_the_window() {
        let d = HopDivisor::certify(10, &1000u32, &[990, 1005, 1000]).unwrap();
        assert_eq!(*d.lower(), 90);
        check_window(&d, 10, &45);
        let d = HopDivisor::certify(10, &1000u64, &[990, 1005]).unwrap();
        check_window(&d, 10, &45);
        // Theorem 20 magnitudes: unit 2(n+1)·2^60 does not fit a u64.
        let k = 1u128 << 60;
        let unit = 2 * 1025 * k;
        let d = HopDivisor::certify(1024, &unit, &[unit - k, unit + k]).unwrap();
        check_window(&d, 1024, &(1023 * k));
    }

    #[test]
    fn all_positive_drift_floors_where_rounding_would_not() {
        // The lower-bound scheme's shape: unit `scale`, weights only above.
        let (n, lambda) = (20u64, 9u128);
        let scale = n as u128 * (lambda + 1) + 1;
        let d = HopDivisor::certify(n as usize, &scale, &[scale, scale + lambda]).unwrap();
        assert_eq!(*d.lower(), 0);
        let cost = 3 * scale + 19 * lambda; // 3 hops, drift past scale / 2
        assert!(19 * lambda > scale / 2);
        assert_eq!(d.hops(&cost), 3);
    }

    #[test]
    fn refuses_drift_that_adds_up_to_a_unit() {
        // (n−1)·spread = 9·(1010 − 990) = 180 ≥ 100.
        assert!(HopDivisor::certify(10, &100u64, &[99, 101, 90, 110]).is_none());
        // Exactly a unit is refused too: `cost + L` could reach (h+1)·unit.
        assert!(HopDivisor::certify(11, &100u64, &[95, 105]).is_none());
        assert!(HopDivisor::certify(11, &101u64, &[96, 106]).is_some());
        // n·unit overflowing the type is refused.
        assert!(HopDivisor::certify(1 << 20, &(u32::MAX / 2), &[u32::MAX / 2]).is_none());
        assert!(HopDivisor::certify(1, &0u32, &[]).is_none());
    }

    #[test]
    fn bigint_costs_past_f64_range_fall_back_exactly() {
        // Theorem 23 shape with 2^1100 units: to_f64 is infinite.
        let unit = BigInt::pow2(1100) * 8;
        let low = unit.minus(&BigInt::pow2(1090));
        let high = unit.plus(&BigInt::pow2(1090));
        let d = HopDivisor::certify(4, &unit, [&low, &high]).unwrap();
        check_window(&d, 4, &(BigInt::pow2(1090) * 3));
        let unit = BigInt::pow2(64) * 8;
        let d = HopDivisor::certify(4, &unit, [&unit]).unwrap();
        check_window(&d, 4, &BigInt::zero());
    }

    /// Every cost from `MAX − L − unit` to the type's maximum answers
    /// without a panic, and hop counts never decrease.
    fn check_top<C: PathCost + From<u8>>(d: &HopDivisor<C>, max: C) {
        let span = d.lower().plus(d.unit());
        let mut cost = max.minus(&span);
        let mut prev = d.hops(&cost);
        while cost < max {
            cost = cost.plus(&C::from(1));
            let h = d.hops(&cost);
            assert!(h >= prev, "hops fell from {prev} to {h}");
            prev = h;
        }
        assert_eq!(prev, d.hops(&max));
    }

    #[test]
    fn hops_never_panic_near_the_type_maximum() {
        let d = HopDivisor::certify(10, &1000u32, &[990, 1005]).unwrap();
        check_top(&d, u32::MAX);
        // Exact below the clamp (L = 90): u32::MAX = 4_294_967·1000 + 295.
        assert_eq!(d.hops(&u32::MAX), 4_294_967);
        assert_eq!(d.hops(&4_294_966_909), 4_294_966);
        assert_eq!(d.hops(&4_294_966_910), 4_294_967);
        let d = HopDivisor::certify(10, &1000u64, &[990, 1005]).unwrap();
        check_top(&d, u64::MAX);
        assert_eq!(d.hops(&u64::MAX), u32::MAX - 1);
        let d = HopDivisor::certify(10, &1000u128, &[990, 1005]).unwrap();
        check_top(&d, u128::MAX);
        // A unit past `u64` keeps the quotient below `u32::MAX`, so the
        // count is exact: MAX = (2^28 − 1)·unit + (unit − 1), plus L ≥ unit.
        let unit = 1u128 << 100;
        let d = HopDivisor::certify(10, &unit, &[unit - 7, unit + 3]).unwrap();
        assert_eq!(d.hops(&u128::MAX), 1 << 28);
        assert_eq!(d.hops(&(u128::MAX - 63)), (1 << 28) - 1);
    }

    #[test]
    fn damaged_costs_answer_below_the_sentinel() {
        let d = HopDivisor::certify(3, &10u128, &[10]).unwrap();
        assert_eq!(d.hops(&u128::MAX), u32::MAX - 1);
        assert_eq!(d.hops(&7), 0);
    }
}

//! A compact arbitrary-precision signed integer.
//!
//! The deterministic tiebreaking weight function of Theorem 23 assigns edge
//! `i` the weight `sign(u−v) · C^{−i} / (2n)`. After clearing denominators
//! (multiplying through by `2n·C^{|E|}`), an edge weight becomes the exact
//! integer `2n·C^{|E|} ± C^{|E|−i}`, which for `C = 4` needs roughly
//! `2·|E|` bits. Path weights are sums of at most `n − 1` such integers.
//! [`BigInt`] supports exactly the operations that the exact-weight Dijkstra
//! needs: addition, subtraction, comparison, shifts, multiplication by a
//! machine word, and decimal formatting for diagnostics.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Neg, Shl, Sub};

/// Sign of a [`BigInt`]: `-1`, `0`, or `+1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Sign {
    /// Strictly negative.
    Minus,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Plus,
}

/// An arbitrary-precision signed integer.
///
/// The representation is a sign plus a little-endian base-2⁶⁴ magnitude with
/// no trailing zero limbs; zero is represented by an empty magnitude. All
/// operations are exact; none allocate beyond the obvious output size.
///
/// # Examples
///
/// ```
/// use rsp_arith::BigInt;
///
/// let x = BigInt::pow2(100) * 3u64; // 3·2^100
/// let y = BigInt::pow2(100);
/// assert_eq!(x - y, BigInt::pow2(101));
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    /// Little-endian limbs; invariant: no trailing zeros, empty iff sign is Zero.
    mag: Vec<u64>,
}

impl Clone for BigInt {
    fn clone(&self) -> Self {
        BigInt { sign: self.sign, mag: self.mag.clone() }
    }

    /// Clones into existing storage, reusing `self`'s limb buffer.
    fn clone_from(&mut self, source: &Self) {
        self.sign = source.sign;
        self.mag.clone_from(&source.mag);
    }
}

impl BigInt {
    /// Returns zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arith::BigInt;
    /// assert!(BigInt::zero().is_zero());
    /// ```
    pub fn zero() -> Self {
        BigInt { sign: Sign::Zero, mag: Vec::new() }
    }

    /// Returns one.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arith::BigInt;
    /// assert_eq!(BigInt::one(), BigInt::from_i128(1));
    /// ```
    pub fn one() -> Self {
        BigInt { sign: Sign::Plus, mag: vec![1] }
    }

    /// Returns `2^k`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arith::BigInt;
    /// assert_eq!(BigInt::pow2(3), BigInt::from_i128(8));
    /// assert_eq!(BigInt::pow2(64), BigInt::from_i128(1) << 64);
    /// ```
    pub fn pow2(k: u32) -> Self {
        BigInt::one() << k as usize
    }

    /// Builds a [`BigInt`] from a native signed integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arith::BigInt;
    /// assert_eq!(BigInt::from_i128(-5).to_string(), "-5");
    /// ```
    pub fn from_i128(v: i128) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt { sign: Sign::Plus, mag: Self::mag_from_u128(v as u128) },
            Ordering::Less => {
                BigInt { sign: Sign::Minus, mag: Self::mag_from_u128(v.unsigned_abs()) }
            }
        }
    }

    /// Builds a [`BigInt`] from a native unsigned integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arith::BigInt;
    /// assert_eq!(BigInt::from_u128(u128::MAX) + BigInt::one(), BigInt::pow2(128));
    /// ```
    pub fn from_u128(v: u128) -> Self {
        if v == 0 {
            BigInt::zero()
        } else {
            BigInt { sign: Sign::Plus, mag: Self::mag_from_u128(v) }
        }
    }

    fn mag_from_u128(v: u128) -> Vec<u64> {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        if hi == 0 {
            vec![lo]
        } else {
            vec![lo, hi]
        }
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Returns the number of bits in the magnitude (`0` for zero).
    ///
    /// This is the quantity reported by the bit-complexity experiment (E10):
    /// the paper's Theorem 23 promises `O(|E|)` bits per weight.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arith::BigInt;
    /// assert_eq!(BigInt::from_i128(5).bits(), 3);
    /// assert_eq!(BigInt::zero().bits(), 0);
    /// ```
    pub fn bits(&self) -> usize {
        match self.mag.last() {
            None => 0,
            Some(top) => 64 * (self.mag.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Converts to `i128` if the value fits.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arith::BigInt;
    /// assert_eq!(BigInt::from_i128(-42).to_i128(), Some(-42));
    /// assert_eq!(BigInt::pow2(200).to_i128(), None);
    /// ```
    pub fn to_i128(&self) -> Option<i128> {
        if self.mag.len() > 2 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, limb) in self.mag.iter().enumerate() {
            v |= (*limb as u128) << (64 * i);
        }
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Plus => {
                if v <= i128::MAX as u128 {
                    Some(v as i128)
                } else {
                    None
                }
            }
            Sign::Minus => {
                if v <= i128::MAX as u128 + 1 {
                    Some((v as i128).wrapping_neg())
                } else {
                    None
                }
            }
        }
    }

    fn trim(mag: &mut Vec<u64>) {
        while mag.last() == Some(&0) {
            mag.pop();
        }
    }

    fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// In-place `out = a + b` over magnitudes, reusing `out`'s capacity.
    fn add_mag_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        out.clear();
        out.reserve(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let x = long[i];
            let y = if i < short.len() { short[i] } else { 0 };
            let (s1, c1) = x.overflowing_add(y);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
    }

    /// In-place `out = a - b` over magnitudes (requires `a >= b`), reusing
    /// `out`'s capacity.
    fn sub_mag_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        out.clear();
        out.reserve(a.len());
        let mut borrow = 0u64;
        for i in 0..a.len() {
            let y = if i < b.len() { b[i] } else { 0 };
            let (d1, b1) = a[i].overflowing_sub(y);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Self::trim(out);
    }

    /// Writes `a + b` into `out`, reusing `out`'s limb buffer.
    ///
    /// The `+` operators are this with a fresh `out`; callers that add in
    /// a loop can keep one `out` and stop allocating once its buffer has
    /// grown to the working operand width.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arith::BigInt;
    /// let mut out = BigInt::zero();
    /// BigInt::sum_into(&BigInt::pow2(100), &BigInt::pow2(100), &mut out);
    /// assert_eq!(out, BigInt::pow2(101));
    /// ```
    pub fn sum_into(a: &BigInt, b: &BigInt, out: &mut BigInt) {
        use Sign::*;
        match (a.sign, b.sign) {
            (Zero, _) => out.clone_from(b),
            (_, Zero) => out.clone_from(a),
            (sa, sb) if sa == sb => {
                Self::add_mag_into(&a.mag, &b.mag, &mut out.mag);
                out.sign = sa;
            }
            _ => match Self::cmp_mag(&a.mag, &b.mag) {
                Ordering::Equal => out.clear_to_zero(),
                Ordering::Greater => {
                    Self::sub_mag_into(&a.mag, &b.mag, &mut out.mag);
                    out.sign = if out.mag.is_empty() { Zero } else { a.sign };
                }
                Ordering::Less => {
                    Self::sub_mag_into(&b.mag, &a.mag, &mut out.mag);
                    out.sign = if out.mag.is_empty() { Zero } else { b.sign };
                }
            },
        }
    }

    /// Resets the value to zero in place, keeping the limb buffer's capacity.
    pub fn clear_to_zero(&mut self) {
        self.sign = Sign::Zero;
        self.mag.clear();
    }

    /// Divides in place by a nonzero `u64`, returning the remainder.
    /// Only used for decimal formatting; operates on the magnitude.
    fn div_rem_u64_mag(mag: &mut Vec<u64>, d: u64) -> u64 {
        debug_assert!(d != 0);
        let mut rem: u128 = 0;
        for limb in mag.iter_mut().rev() {
            let cur = (rem << 64) | *limb as u128;
            *limb = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        Self::trim(mag);
        rem as u64
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        use Sign::*;
        match (self.sign, other.sign) {
            (Zero, Zero) => Ordering::Equal,
            (Zero, Plus) | (Minus, Zero) | (Minus, Plus) => Ordering::Less,
            (Zero, Minus) | (Plus, Zero) | (Plus, Minus) => Ordering::Greater,
            (Plus, Plus) => Self::cmp_mag(&self.mag, &other.mag),
            (Minus, Minus) => Self::cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for BigInt {
    type Output = BigInt;

    fn add(self, rhs: BigInt) -> BigInt {
        &self + &rhs
    }
}

impl Add for &BigInt {
    type Output = BigInt;

    fn add(self, rhs: &BigInt) -> BigInt {
        let mut out = BigInt::zero();
        BigInt::sum_into(self, rhs, &mut out);
        out
    }
}

impl AddAssign for BigInt {
    fn add_assign(&mut self, rhs: BigInt) {
        *self = &*self + &rhs;
    }
}

impl Sub for BigInt {
    type Output = BigInt;

    fn sub(self, rhs: BigInt) -> BigInt {
        &self + &(-rhs)
    }
}

impl Neg for BigInt {
    type Output = BigInt;

    fn neg(mut self) -> BigInt {
        self.sign = match self.sign {
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        };
        self
    }
}

impl Shl<usize> for BigInt {
    type Output = BigInt;

    /// Shifts the magnitude left by `bits`; the sign is unchanged.
    fn shl(self, bits: usize) -> BigInt {
        if self.is_zero() || bits == 0 {
            return self;
        }
        let limbs = bits / 64;
        let rem = bits % 64;
        let mut mag = vec![0u64; limbs];
        if rem == 0 {
            mag.extend_from_slice(&self.mag);
        } else {
            let mut carry = 0u64;
            for &limb in &self.mag {
                mag.push((limb << rem) | carry);
                carry = limb >> (64 - rem);
            }
            if carry != 0 {
                mag.push(carry);
            }
        }
        BigInt { sign: self.sign, mag }
    }
}

impl std::ops::Mul<u64> for BigInt {
    type Output = BigInt;

    fn mul(self, rhs: u64) -> BigInt {
        if self.is_zero() || rhs == 0 {
            return BigInt::zero();
        }
        let mut mag = Vec::with_capacity(self.mag.len() + 1);
        let mut carry: u128 = 0;
        for &limb in &self.mag {
            let prod = limb as u128 * rhs as u128 + carry;
            mag.push(prod as u64);
            carry = prod >> 64;
        }
        if carry != 0 {
            mag.push(carry as u64);
        }
        BigInt { sign: self.sign, mag }
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut mag = self.mag.clone();
        while !mag.is_empty() {
            let chunk = Self::div_rem_u64_mag(&mut mag, 10_000_000_000_000_000_000);
            digits.push(chunk);
        }
        if self.sign == Sign::Minus {
            write!(f, "-")?;
        }
        let mut iter = digits.iter().rev();
        if let Some(first) = iter.next() {
            write!(f, "{first}")?;
        }
        for chunk in iter {
            write!(f, "{chunk:019}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        BigInt::from_i128(v as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_identity() {
        let z = BigInt::zero();
        assert!(z.is_zero());
        assert_eq!(&z + &BigInt::from_i128(7), BigInt::from_i128(7));
        assert_eq!(z.to_string(), "0");
        assert_eq!(z.bits(), 0);
    }

    #[test]
    fn add_sub_small() {
        for a in [-5i128, -1, 0, 1, 3, 100] {
            for b in [-7i128, -2, 0, 2, 50] {
                let got = BigInt::from_i128(a) + BigInt::from_i128(b);
                assert_eq!(got, BigInt::from_i128(a + b), "{a} + {b}");
                let got = BigInt::from_i128(a) - BigInt::from_i128(b);
                assert_eq!(got, BigInt::from_i128(a - b), "{a} - {b}");
            }
        }
    }

    #[test]
    fn carry_across_limbs() {
        let a = BigInt::from_u128(u128::MAX);
        let one = BigInt::one();
        let sum = &a + &one;
        assert_eq!(sum, BigInt::pow2(128));
        assert_eq!(sum - a, one);
    }

    #[test]
    fn ordering_matches_i128() {
        let vals = [-1000i128, -1, 0, 1, 65, 1 << 70, -(1 << 90)];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    BigInt::from_i128(a).cmp(&BigInt::from_i128(b)),
                    a.cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn shifts() {
        assert_eq!(BigInt::from_i128(3) << 2, BigInt::from_i128(12));
        assert_eq!(BigInt::from_i128(-1) << 64, BigInt::from_i128(-(1i128 << 64)));
        assert_eq!((BigInt::one() << 130).bits(), 131);
    }

    #[test]
    fn mul_u64() {
        assert_eq!(BigInt::from_i128(7) * 6u64, BigInt::from_i128(42));
        assert_eq!(BigInt::from_i128(-7) * 6u64, BigInt::from_i128(-42));
        let big = BigInt::from_u128(u128::MAX) * 2u64;
        assert_eq!(big, BigInt::pow2(129) - BigInt::from_i128(2));
    }

    #[test]
    fn display_round_trip_via_i128() {
        for v in [0i128, 1, -1, 42, -9_999_999_999_999_999_999, i128::MAX, i128::MIN + 1] {
            assert_eq!(BigInt::from_i128(v).to_string(), v.to_string());
        }
    }

    #[test]
    fn display_large() {
        // 2^128 = 340282366920938463463374607431768211456
        assert_eq!(BigInt::pow2(128).to_string(), "340282366920938463463374607431768211456");
    }

    #[test]
    fn to_i128_round_trip() {
        for v in [0i128, 5, -5, i128::MAX, i128::MIN + 1] {
            assert_eq!(BigInt::from_i128(v).to_i128(), Some(v));
        }
        assert_eq!(BigInt::pow2(127).to_i128(), None);
        assert_eq!((-BigInt::pow2(127)).to_i128(), Some(i128::MIN));
    }

    #[test]
    fn sum_into_matches_operator_all_sign_shapes() {
        let vals = [-300i128, -5, -1, 0, 1, 5, 300, 1 << 90, -(1 << 90)];
        let mut out = BigInt::zero();
        for &a in &vals {
            for &b in &vals {
                let (ba, bb) = (BigInt::from_i128(a), BigInt::from_i128(b));
                BigInt::sum_into(&ba, &bb, &mut out);
                assert_eq!(out, BigInt::from_i128(a + b), "{a} + {b}");
            }
        }
    }

    #[test]
    fn sum_into_reuses_buffer_without_reallocating() {
        let a = BigInt::pow2(1000);
        let b = BigInt::pow2(999);
        let mut out = BigInt::zero();
        BigInt::sum_into(&a, &b, &mut out);
        let cap = out.mag.capacity();
        for _ in 0..16 {
            BigInt::sum_into(&a, &b, &mut out);
        }
        assert_eq!(out.mag.capacity(), cap, "warm buffer must not regrow");
        assert_eq!(out, &a + &b);
    }

    #[test]
    fn sum_into_carry_and_cancellation() {
        let mut out = BigInt::pow2(3); // nonzero garbage to overwrite
        BigInt::sum_into(&BigInt::from_u128(u128::MAX), &BigInt::one(), &mut out);
        assert_eq!(out, BigInt::pow2(128));
        BigInt::sum_into(&BigInt::pow2(128), &-BigInt::pow2(128), &mut out);
        assert!(out.is_zero());
    }

    #[test]
    fn clear_to_zero_keeps_capacity() {
        let mut x = BigInt::pow2(512);
        let cap = x.mag.capacity();
        x.clear_to_zero();
        assert!(x.is_zero());
        assert_eq!(x.mag.capacity(), cap);
    }

    #[test]
    fn clone_from_reuses_storage() {
        let big = BigInt::pow2(640);
        let mut slot = BigInt::pow2(700);
        let cap = slot.mag.capacity();
        slot.clone_from(&big);
        assert_eq!(slot, big);
        assert!(slot.mag.capacity() >= cap - 1, "clone_from must not shrink-reallocate");
    }

    #[test]
    fn geometric_weight_dominance() {
        // The Theorem 23 argument: C^{-i} must dominate the sum of all
        // smaller weights. With C = 4 and m edges, check that
        // 4^{m-i} > 2 * sum_{j>i} 4^{m-j} exactly.
        let m = 40u32;
        for i in 0..m {
            let big = BigInt::pow2(2 * (m - i));
            let mut tail = BigInt::zero();
            for j in (i + 1)..=m {
                tail += BigInt::pow2(2 * (m - j)) * 2u64;
            }
            assert!(big > tail, "i={i}");
        }
    }
}

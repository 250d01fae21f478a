//! Ring operations, shifts and comparisons for [`Int`].

use crate::Int;
use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Shl, Sub, SubAssign};

/// Compare two magnitudes (little-endian limb vectors without trailing
/// zeros).
fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| {
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    })
}

/// `a += b` on magnitudes.
fn add_mag_assign(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry = 0u64;
    for (i, limb) in a.iter_mut().enumerate() {
        let (s1, c1) = limb.overflowing_add(carry);
        let rhs = b.get(i).copied().unwrap_or(0);
        let (s2, c2) = s1.overflowing_add(rhs);
        *limb = s2;
        carry = (c1 as u64) + (c2 as u64);
        if carry == 0 && i >= b.len() {
            return;
        }
    }
    if carry != 0 {
        a.push(carry);
    }
}

/// `a -= b` on magnitudes; requires `a >= b`.
fn sub_mag_assign(a: &mut Vec<u64>, b: &[u64]) {
    debug_assert!(cmp_mag(a, b) != Ordering::Less);
    let mut borrow = 0u64;
    for (i, limb) in a.iter_mut().enumerate() {
        let (d1, b1) = limb.overflowing_sub(borrow);
        let rhs = b.get(i).copied().unwrap_or(0);
        let (d2, b2) = d1.overflowing_sub(rhs);
        *limb = d2;
        borrow = (b1 as u64) + (b2 as u64);
        if borrow == 0 && i >= b.len() {
            break;
        }
    }
    debug_assert_eq!(borrow, 0, "magnitude subtraction underflow");
    while a.last() == Some(&0) {
        a.pop();
    }
}

/// Schoolbook magnitude product.
fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = (x as u128) * (y as u128) + (out[i + j] as u128) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = (out[k] as u128) + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

impl Int {
    /// Signed addition into `self`.
    fn add_signed(&mut self, other_neg: bool, other_mag: &[u64]) {
        if other_mag.is_empty() {
            return;
        }
        if self.neg == other_neg {
            add_mag_assign(&mut self.mag, other_mag);
        } else {
            match cmp_mag(&self.mag, other_mag) {
                Ordering::Equal => {
                    self.mag.clear();
                    self.neg = false;
                }
                Ordering::Greater => sub_mag_assign(&mut self.mag, other_mag),
                Ordering::Less => {
                    let mut m = other_mag.to_vec();
                    sub_mag_assign(&mut m, &self.mag);
                    self.mag = m;
                    self.neg = other_neg;
                }
            }
        }
        self.normalize();
    }

    /// `self * 2^k`.
    ///
    /// ```
    /// use sbif_apint::Int;
    /// assert_eq!(Int::from(-3).shl_pow2(5), Int::from(-96));
    /// ```
    pub fn shl_pow2(&self, k: u32) -> Int {
        if self.is_zero() {
            return Int::zero();
        }
        let limb_shift = (k / 64) as usize;
        let bit_shift = k % 64;
        let mut mag = vec![0u64; limb_shift];
        if bit_shift == 0 {
            mag.extend_from_slice(&self.mag);
        } else {
            let mut carry = 0u64;
            for &l in &self.mag {
                mag.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                mag.push(carry);
            }
        }
        Int::from_parts(self.neg, mag)
    }

    /// Euclidean division by a power of two: `(self >> k)` rounding toward
    /// negative infinity (arithmetic shift).
    pub fn shr_floor_pow2(&self, k: u32) -> Int {
        if self.is_zero() {
            return Int::zero();
        }
        let limb_shift = (k / 64) as usize;
        let bit_shift = k % 64;
        if limb_shift >= self.mag.len() {
            return if self.neg { Int::minus_one() } else { Int::zero() };
        }
        let mut mag: Vec<u64> = self.mag[limb_shift..].to_vec();
        let mut dropped_nonzero = self.mag[..limb_shift].iter().any(|&l| l != 0);
        if bit_shift > 0 {
            dropped_nonzero |= mag[0] & ((1u64 << bit_shift) - 1) != 0;
            for i in 0..mag.len() {
                let hi = if i + 1 < mag.len() { mag[i + 1] } else { 0 };
                mag[i] = (mag[i] >> bit_shift) | (hi << (64 - bit_shift));
            }
        }
        let mut out = Int::from_parts(self.neg, mag);
        if self.neg && dropped_nonzero {
            out += &Int::minus_one();
        }
        out
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(mut self) -> Int {
        if !self.mag.is_empty() {
            self.neg = !self.neg;
        }
        self
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        -self.clone()
    }
}

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, rhs: &Int) {
        self.add_signed(rhs.neg, &rhs.mag);
    }
}

impl AddAssign<Int> for Int {
    fn add_assign(&mut self, rhs: Int) {
        self.add_signed(rhs.neg, &rhs.mag);
    }
}

impl SubAssign<&Int> for Int {
    fn sub_assign(&mut self, rhs: &Int) {
        self.add_signed(!rhs.neg, &rhs.mag);
    }
}

impl SubAssign<Int> for Int {
    fn sub_assign(&mut self, rhs: Int) {
        self.add_signed(!rhs.neg, &rhs.mag);
    }
}

impl MulAssign<&Int> for Int {
    fn mul_assign(&mut self, rhs: &Int) {
        *self = &*self * rhs;
    }
}

impl MulAssign<Int> for Int {
    fn mul_assign(&mut self, rhs: Int) {
        *self *= &rhs;
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $assign:ident) => {
        impl $trait<&Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                let mut out = self.clone();
                out.$assign(rhs);
                out
            }
        }
        impl $trait<Int> for Int {
            type Output = Int;
            fn $method(mut self, rhs: Int) -> Int {
                self.$assign(&rhs);
                self
            }
        }
        impl $trait<&Int> for Int {
            type Output = Int;
            fn $method(mut self, rhs: &Int) -> Int {
                self.$assign(rhs);
                self
            }
        }
        impl $trait<Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                let mut out = self.clone();
                out.$assign(&rhs);
                out
            }
        }
    };
}

forward_binop!(Add, add, add_assign);
forward_binop!(Sub, sub, sub_assign);

/// `*` for every operand form. A product is always a fresh magnitude, so
/// neither operand is cloned first.
macro_rules! mul_impl {
    ($lhs:ty, $rhs:ty) => {
        impl Mul<$rhs> for $lhs {
            type Output = Int;
            fn mul(self, rhs: $rhs) -> Int {
                Int::from_parts(self.neg != rhs.neg, mul_mag(&self.mag, &rhs.mag))
            }
        }
    };
}

mul_impl!(&Int, &Int);
mul_impl!(Int, Int);
mul_impl!(Int, &Int);
mul_impl!(&Int, Int);

impl Shl<u32> for &Int {
    type Output = Int;
    fn shl(self, k: u32) -> Int {
        self.shl_pow2(k)
    }
}

impl Shl<u32> for Int {
    type Output = Int;
    fn shl(self, k: u32) -> Int {
        self.shl_pow2(k)
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Int) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Int) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => cmp_mag(&self.mag, &other.mag),
            (true, true) => cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl std::iter::Sum for Int {
    fn sum<I: Iterator<Item = Int>>(iter: I) -> Int {
        let mut acc = Int::zero();
        for x in iter {
            acc += x;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i128) -> Int {
        Int::from(v)
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(i(3) + i(4), i(7));
        assert_eq!(i(3) - i(4), i(-1));
        assert_eq!(i(-3) + i(-4), i(-7));
        assert_eq!(i(-3) - i(-4), i(1));
        assert_eq!(i(5) + i(-5), i(0));
    }

    #[test]
    fn add_carries_across_limbs() {
        let max = i(u64::MAX as i128);
        assert_eq!(&max + &Int::one(), Int::pow2(64));
        assert_eq!(Int::pow2(64) - Int::one(), max);
        assert_eq!(Int::pow2(128) - Int::pow2(64), Int::pow2(64) * max);
    }

    #[test]
    fn mul_small_and_signs() {
        assert_eq!(i(6) * i(7), i(42));
        assert_eq!(i(-6) * i(7), i(-42));
        assert_eq!(i(-6) * i(-7), i(42));
        assert_eq!(i(0) * i(-7), i(0));
        assert!(!(i(0) * i(-7)).is_negative());
    }

    #[test]
    fn mul_multi_limb() {
        let a = Int::pow2(100) + Int::from(17);
        let b = Int::pow2(90) - Int::from(5);
        let p = &a * &b;
        let expect = Int::pow2(190) - Int::pow2(100) * Int::from(5)
            + Int::pow2(90) * Int::from(17)
            - Int::from(85);
        assert_eq!(p, expect);
    }

    #[test]
    fn shl_matches_mul_pow2() {
        for k in [0u32, 1, 17, 63, 64, 70, 129] {
            assert_eq!(i(-13).shl_pow2(k), i(-13) * Int::pow2(k));
            assert_eq!((&i(13) << k), i(13) * Int::pow2(k));
        }
    }

    #[test]
    fn shr_floor_semantics() {
        assert_eq!(i(13).shr_floor_pow2(2), i(3));
        assert_eq!(i(-13).shr_floor_pow2(2), i(-4)); // floor, not trunc
        assert_eq!(i(-16).shr_floor_pow2(2), i(-4));
        assert_eq!(i(3).shr_floor_pow2(10), i(0));
        assert_eq!(i(-3).shr_floor_pow2(10), i(-1));
        assert_eq!(Int::pow2(130).shr_floor_pow2(65), Int::pow2(65));
    }

    #[test]
    fn ordering_total() {
        let mut v = vec![i(5), i(-5), i(0), Int::pow2(64), -Int::pow2(64), i(1)];
        v.sort();
        assert_eq!(
            v,
            vec![-Int::pow2(64), i(-5), i(0), i(1), i(5), Int::pow2(64)]
        );
    }

    #[test]
    fn sum_iterator() {
        let s: Int = (1..=100i64).map(Int::from).sum();
        assert_eq!(s, i(5050));
    }

    #[test]
    fn i128_roundtrip_arith_agreement() {
        // Cross-check against primitive arithmetic on a grid of values.
        let vals: Vec<i128> = vec![
            0, 1, -1, 2, -2, 63, 64, 65, -65, 1000003, -999983,
            i64::MAX as i128, i64::MIN as i128,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(Int::from(a) + Int::from(b), Int::from(a + b));
                assert_eq!(Int::from(a) - Int::from(b), Int::from(a - b));
                assert_eq!(Int::from(a) * Int::from(b), Int::from(a * b));
                assert_eq!(
                    Int::from(a).cmp(&Int::from(b)),
                    a.cmp(&b),
                    "cmp {a} {b}"
                );
            }
        }
    }
}

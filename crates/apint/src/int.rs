//! The [`Int`] type and its intrinsic operations.

/// Sign of an [`Int`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

/// An arbitrary-precision signed integer.
///
/// Stored as sign + magnitude with little-endian `u64` limbs. Invariants:
/// the magnitude has no trailing zero limbs, and zero is represented by an
/// empty magnitude with `neg == false`.
///
/// # Examples
///
/// ```
/// use sbif_apint::Int;
///
/// let x = Int::from(7) - Int::from(10);
/// assert!(x.is_negative());
/// assert_eq!(x, Int::from(-3));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Int {
    pub(crate) neg: bool,
    pub(crate) mag: Vec<u64>,
}

impl std::fmt::Debug for Int {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Int({self})")
    }
}

impl Int {
    /// The integer zero.
    ///
    /// ```
    /// use sbif_apint::Int;
    /// assert!(Int::zero().is_zero());
    /// ```
    #[inline]
    pub fn zero() -> Self {
        Int { neg: false, mag: Vec::new() }
    }

    /// The integer one.
    #[inline]
    pub fn one() -> Self {
        Int { neg: false, mag: vec![1] }
    }

    /// The integer minus one.
    #[inline]
    pub fn minus_one() -> Self {
        Int { neg: true, mag: vec![1] }
    }

    /// `2^k`.
    ///
    /// ```
    /// use sbif_apint::Int;
    /// assert_eq!(Int::pow2(10), Int::from(1024));
    /// ```
    pub fn pow2(k: u32) -> Self {
        let limb = (k / 64) as usize;
        let mut mag = vec![0u64; limb + 1];
        mag[limb] = 1u64 << (k % 64);
        Int { neg: false, mag }
    }

    /// `true` iff `self == 0`.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// `true` iff `self == 1`.
    #[inline]
    pub fn is_one(&self) -> bool {
        !self.neg && self.mag.len() == 1 && self.mag[0] == 1
    }

    /// `true` iff `self < 0`.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.neg
    }

    /// The sign of this integer.
    ///
    /// ```
    /// use sbif_apint::{Int, Sign};
    /// assert_eq!(Int::from(-5).sign(), Sign::Negative);
    /// assert_eq!(Int::zero().sign(), Sign::Zero);
    /// ```
    pub fn sign(&self) -> Sign {
        if self.mag.is_empty() {
            Sign::Zero
        } else if self.neg {
            Sign::Negative
        } else {
            Sign::Positive
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Int {
        Int { neg: false, mag: self.mag.clone() }
    }

    /// Number of bits in the magnitude (`0` for zero).
    ///
    /// ```
    /// use sbif_apint::Int;
    /// assert_eq!(Int::from(255).bit_len(), 8);
    /// assert_eq!(Int::zero().bit_len(), 0);
    /// ```
    pub fn bit_len(&self) -> u32 {
        match self.mag.last() {
            None => 0,
            Some(&top) => {
                (self.mag.len() as u32 - 1) * 64 + (64 - top.leading_zeros())
            }
        }
    }

    /// Bit `i` of the magnitude.
    pub fn magnitude_bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        limb < self.mag.len() && (self.mag[limb] >> (i % 64)) & 1 == 1
    }

    /// Restore the representation invariants after limb surgery.
    pub(crate) fn normalize(&mut self) {
        while self.mag.last() == Some(&0) {
            self.mag.pop();
        }
        if self.mag.is_empty() {
            self.neg = false;
        }
    }

    /// Construct from raw parts; normalizes.
    pub(crate) fn from_parts(neg: bool, mag: Vec<u64>) -> Int {
        let mut v = Int { neg, mag };
        v.normalize();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_normalized() {
        let z = Int::from(0);
        assert!(z.is_zero());
        assert!(!z.is_negative());
        assert!(z.mag.is_empty());
    }

    #[test]
    fn constants() {
        assert!(Int::one().is_one());
        assert!(Int::minus_one().is_negative());
        assert_eq!(Int::one() + Int::minus_one(), Int::zero());
    }

    #[test]
    fn pow2_limb_boundaries() {
        for k in [0u32, 1, 63, 64, 65, 127, 128, 200] {
            let p = Int::pow2(k);
            assert_eq!(p.bit_len(), k + 1, "k={k}");
            assert!(p.magnitude_bit(k));
            assert!(!p.magnitude_bit(k + 1));
            if k > 0 {
                assert!(!p.magnitude_bit(k - 1));
            }
        }
    }

    #[test]
    fn sign_classification() {
        assert_eq!(Int::from(42).sign(), Sign::Positive);
        assert_eq!(Int::from(-42).sign(), Sign::Negative);
        assert_eq!(Int::from(0).sign(), Sign::Zero);
        assert!(Sign::Negative < Sign::Zero && Sign::Zero < Sign::Positive);
    }

    #[test]
    fn abs_strips_sign() {
        assert_eq!(Int::from(-9).abs(), Int::from(9));
        assert_eq!(Int::from(9).abs(), Int::from(9));
        assert_eq!(Int::zero().abs(), Int::zero());
    }

    #[test]
    fn bit_len_small() {
        assert_eq!(Int::from(1).bit_len(), 1);
        assert_eq!(Int::from(2).bit_len(), 2);
        assert_eq!(Int::from(3).bit_len(), 2);
        assert_eq!(Int::from(-1024).bit_len(), 11);
    }
}

//! The [`Poly`] type: canonical pseudo-Boolean polynomials.

use crate::{Monomial, Var};
use sbif_apint::Int;
use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// One term of a polynomial: an integer coefficient times a monomial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Term {
    /// The monomial (product of distinct variables).
    pub monomial: Monomial,
    /// The non-zero integer coefficient.
    pub coeff: Int,
}

/// A pseudo-Boolean polynomial in canonical normal form.
///
/// Invariants: terms are sorted strictly increasing in the
/// degree-lexicographic monomial order and no coefficient is zero. Under
/// these invariants polynomials are canonical representations of
/// pseudo-Boolean functions, so structural equality is semantic equality.
///
/// # Examples
///
/// ```
/// use sbif_poly::{Poly, Var};
/// use sbif_apint::Int;
///
/// let x = Poly::from_var(Var(0));
/// let y = Poly::from_var(Var(1));
/// // x ∨ y  as a polynomial
/// let or = &(&x + &y) - &(&x * &y);
/// assert_eq!(or.num_terms(), 3);
/// assert_eq!(or.eval(|_| true), Int::one());
/// assert_eq!(or.eval(|_| false), Int::zero());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly {
    terms: Vec<Term>,
}

impl Poly {
    /// The zero polynomial.
    #[inline]
    pub fn zero() -> Self {
        Poly { terms: Vec::new() }
    }

    /// The constant `1`.
    #[inline]
    pub fn one() -> Self {
        Poly::constant(1)
    }

    /// A constant polynomial.
    ///
    /// ```
    /// use sbif_poly::Poly;
    /// assert!(Poly::constant(0).is_zero());
    /// ```
    pub fn constant<T: Into<Int>>(c: T) -> Self {
        let c = c.into();
        if c.is_zero() {
            Poly::zero()
        } else {
            Poly { terms: vec![Term { monomial: Monomial::one(), coeff: c }] }
        }
    }

    /// The polynomial consisting of a single variable.
    pub fn from_var(v: Var) -> Self {
        Poly { terms: vec![Term { monomial: Monomial::var(v), coeff: Int::one() }] }
    }

    /// A single term `c · m`.
    pub fn from_term(m: Monomial, c: Int) -> Self {
        if c.is_zero() {
            Poly::zero()
        } else {
            Poly { terms: vec![Term { monomial: m, coeff: c }] }
        }
    }

    /// Normalizing constructor from arbitrary (monomial, coefficient)
    /// pairs: sorts, merges equal monomials and drops zero coefficients.
    pub fn from_pairs<I: IntoIterator<Item = (Monomial, Int)>>(pairs: I) -> Self {
        let mut v: Vec<(Monomial, Int)> = pairs.into_iter().collect();
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut terms: Vec<Term> = Vec::with_capacity(v.len());
        for (m, c) in v {
            match terms.last_mut() {
                Some(last) if last.monomial == m => last.coeff += c,
                _ => {
                    if let Some(last) = terms.last() {
                        if last.coeff.is_zero() {
                            terms.pop();
                        }
                    }
                    terms.push(Term { monomial: m, coeff: c });
                }
            }
        }
        if let Some(last) = terms.last() {
            if last.coeff.is_zero() {
                terms.pop();
            }
        }
        Poly { terms }
    }

    /// `true` iff this is the zero polynomial.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of terms — the size measure used throughout the paper
    /// ("peak size of intermediate polynomials").
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Maximum monomial degree (0 for constants and zero).
    pub fn degree(&self) -> usize {
        self.terms.iter().map(|t| t.monomial.degree()).max().unwrap_or(0)
    }

    /// The terms, sorted increasing in the term order.
    #[inline]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Whether variable `v` occurs in any monomial.
    pub fn contains_var(&self, v: Var) -> bool {
        self.terms.iter().any(|t| t.monomial.contains(v))
    }

    /// The set of variables occurring in the polynomial, ascending.
    pub fn support(&self) -> Vec<Var> {
        let mut vars: Vec<Var> =
            self.terms.iter().flat_map(|t| t.monomial.vars().iter().copied()).collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// The coefficient of monomial `m` (zero if absent).
    pub fn coeff(&self, m: &Monomial) -> Int {
        match self.terms.binary_search_by(|t| t.monomial.cmp(m)) {
            Ok(i) => self.terms[i].coeff.clone(),
            Err(_) => Int::zero(),
        }
    }

    /// Removes the terms that contain `v` and returns them with `v`
    /// divided out. The kept terms stay in place and in order, and the
    /// returned quotient is canonical without sorting: removing the same
    /// variable from monomials that all contain it keeps their strict
    /// order.
    pub(crate) fn split_off_var(&mut self, v: Var) -> Poly {
        let mut quotient = Vec::new();
        self.terms.retain_mut(|t| match t.monomial.without(v) {
            Some(monomial) => {
                let coeff = std::mem::take(&mut t.coeff);
                quotient.push(Term { monomial, coeff });
                false
            }
            None => true,
        });
        Poly { terms: quotient }
    }

    /// Merge-add of two sorted term lists by move: no term is cloned.
    fn merge_add(a: Vec<Term>, b: Vec<Term>) -> Vec<Term> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            match x.monomial.cmp(&y.monomial) {
                Ordering::Less => out.extend(a.next()),
                Ordering::Greater => out.extend(b.next()),
                Ordering::Equal => {
                    if let (Some(mut t), Some(u)) = (a.next(), b.next()) {
                        t.coeff += u.coeff;
                        if !t.coeff.is_zero() {
                            out.push(t);
                        }
                    }
                }
            }
        }
        out.extend(a);
        out.extend(b);
        out
    }

    /// Multiply by a single term `c · m`.
    pub fn mul_term(&self, m: &Monomial, c: &Int) -> Poly {
        if c.is_zero() {
            return Poly::zero();
        }
        if m.is_one() {
            let terms = self
                .terms
                .iter()
                .map(|t| Term { monomial: t.monomial.clone(), coeff: &t.coeff * c })
                .collect();
            return Poly { terms };
        }
        // Multiplying by a monomial can merge previously distinct
        // monomials (idempotence), so renormalize.
        Poly::from_pairs(
            self.terms.iter().map(|t| (t.monomial.mul(m), &t.coeff * c)),
        )
    }

    /// Multiply by an integer constant.
    pub fn scale(&self, c: &Int) -> Poly {
        self.mul_term(&Monomial::one(), c)
    }

    /// Multiply by `2^k` — the common scaling in output signatures.
    pub fn shl(&self, k: u32) -> Poly {
        self.scale(&Int::pow2(k))
    }

    /// Boolean negation lifted to polynomials: `1 - p`.
    ///
    /// Correct complement only when `p` is 0/1-valued.
    pub fn complement(&self) -> Poly {
        &Poly::one() - self
    }

    /// `a ⊕ b = a + b − 2ab` (for 0/1-valued `a`, `b`).
    pub fn xor(a: &Poly, b: &Poly) -> Poly {
        let ab = a * b;
        &(a + b) - &ab.scale(&Int::from(2))
    }

    /// `a ∧ b = ab`.
    pub fn and(a: &Poly, b: &Poly) -> Poly {
        a * b
    }

    /// `a ∨ b = a + b − ab`.
    pub fn or(a: &Poly, b: &Poly) -> Poly {
        &(a + b) - &(a * b)
    }

    /// Majority of three variables: `ab + ac + bc − 2abc` — the carry
    /// polynomial of a full adder.
    pub fn majority3(a: Var, b: Var, c: Var) -> Poly {
        let ab = Monomial::from_vars([a, b]);
        let ac = Monomial::from_vars([a, c]);
        let bc = Monomial::from_vars([b, c]);
        let abc = Monomial::from_vars([a, b, c]);
        Poly::from_pairs([
            (ab, Int::one()),
            (ac, Int::one()),
            (bc, Int::one()),
            (abc, Int::from(-2)),
        ])
    }
}

impl Add<&Poly> for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        self.clone() + rhs.clone()
    }
}

impl Add<Poly> for Poly {
    type Output = Poly;
    fn add(mut self, rhs: Poly) -> Poly {
        self += rhs;
        self
    }
}

impl AddAssign<&Poly> for Poly {
    fn add_assign(&mut self, rhs: &Poly) {
        *self += rhs.clone();
    }
}

impl AddAssign<Poly> for Poly {
    fn add_assign(&mut self, rhs: Poly) {
        if !rhs.is_zero() {
            self.terms = Poly::merge_add(std::mem::take(&mut self.terms), rhs.terms);
        }
    }
}

impl Sub<&Poly> for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        self.clone() + -rhs
    }
}

impl Sub<Poly> for Poly {
    type Output = Poly;
    fn sub(self, rhs: Poly) -> Poly {
        self + -rhs
    }
}

impl SubAssign<&Poly> for Poly {
    fn sub_assign(&mut self, rhs: &Poly) {
        *self += -rhs;
    }
}

impl Neg for &Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        Poly {
            terms: self
                .terms
                .iter()
                .map(|t| Term { monomial: t.monomial.clone(), coeff: -t.coeff.clone() })
                .collect(),
        }
    }
}

impl Neg for Poly {
    type Output = Poly;
    fn neg(mut self) -> Poly {
        for t in &mut self.terms {
            t.coeff = -std::mem::take(&mut t.coeff);
        }
        self
    }
}

impl Mul<&Poly> for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        // Iterate over the smaller operand.
        let (small, big) = if self.num_terms() <= rhs.num_terms() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut acc = Poly::zero();
        for t in &small.terms {
            acc += big.mul_term(&t.monomial, &t.coeff);
        }
        acc
    }
}

impl Mul<Poly> for Poly {
    type Output = Poly;
    fn mul(self, rhs: Poly) -> Poly {
        &self * &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Poly {
        Poly::from_var(Var(i))
    }

    #[test]
    fn constants_and_zero() {
        assert!(Poly::zero().is_zero());
        assert!(Poly::constant(0).is_zero());
        assert_eq!(Poly::one().num_terms(), 1);
        assert_eq!(&Poly::constant(3) + &Poly::constant(-3), Poly::zero());
    }

    #[test]
    fn from_pairs_normalizes() {
        let m = Monomial::var(Var(0));
        let p = Poly::from_pairs([
            (m.clone(), Int::from(2)),
            (Monomial::one(), Int::from(5)),
            (m.clone(), Int::from(-2)),
        ]);
        assert_eq!(p, Poly::constant(5));
    }

    #[test]
    fn idempotence_in_products() {
        // x * x = x
        assert_eq!(&v(0) * &v(0), v(0));
        // (x + 1)(x + 1) = x² + 2x + 1 = 3x + 1
        let p = &v(0) + &Poly::one();
        let sq = &p * &p;
        let expect = &v(0).scale(&Int::from(3)) + &Poly::one();
        assert_eq!(sq, expect);
    }

    #[test]
    fn ring_axioms_on_examples() {
        let a = &v(0) + &v(1).scale(&Int::from(2));
        let b = &v(1) - &Poly::constant(4);
        let c = &(&v(2) * &v(0)) + &Poly::one();
        // commutativity
        assert_eq!(&a * &b, &b * &a);
        assert_eq!(&a + &b, &b + &a);
        // associativity
        assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        // distributivity
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        // additive inverse
        assert!((&a - &a).is_zero());
    }

    #[test]
    fn gate_polynomials() {
        // Truth-table check of the Boolean connective polynomials.
        for x in [false, true] {
            for y in [false, true] {
                let asg = |var: Var| if var == Var(0) { x } else { y };
                let a = v(0);
                let b = v(1);
                assert_eq!(Poly::and(&a, &b).eval(asg), Int::from(x && y));
                assert_eq!(Poly::or(&a, &b).eval(asg), Int::from(x || y));
                assert_eq!(Poly::xor(&a, &b).eval(asg), Int::from(x ^ y));
                assert_eq!(a.complement().eval(asg), Int::from(!x));
            }
        }
    }

    #[test]
    fn majority3_truth_table() {
        for bits in 0u8..8 {
            let asg = |var: Var| (bits >> var.0) & 1 == 1;
            let maj = Poly::majority3(Var(0), Var(1), Var(2));
            let expect = (bits.count_ones() >= 2) as i64;
            assert_eq!(maj.eval(asg), Int::from(expect), "bits={bits:03b}");
        }
    }

    #[test]
    fn coeff_lookup() {
        let p = &v(0).scale(&Int::from(7)) - &Poly::constant(3);
        assert_eq!(p.coeff(&Monomial::var(Var(0))), Int::from(7));
        assert_eq!(p.coeff(&Monomial::one()), Int::from(-3));
        assert_eq!(p.coeff(&Monomial::var(Var(9))), Int::zero());
    }

    #[test]
    fn support_and_contains() {
        let p = &(&v(3) * &v(1)) + &v(7);
        assert_eq!(p.support(), vec![Var(1), Var(3), Var(7)]);
        assert!(p.contains_var(Var(3)));
        assert!(!p.contains_var(Var(2)));
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn canonical_equality_is_semantic() {
        // (a + b)² == a + b + 2ab for binary a, b — structurally equal
        // after normalization.
        let s = &v(0) + &v(1);
        let sq = &s * &s;
        let direct = &(&v(0) + &v(1)) + &(&v(0) * &v(1)).scale(&Int::from(2));
        assert_eq!(sq, direct);
    }
}

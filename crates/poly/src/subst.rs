//! Variable substitution — the engine step of backward rewriting.

use crate::{Poly, Var};

impl Poly {
    /// Substitute polynomial `p` for variable `v` in place:
    /// `self ← self[v ← p]`.
    ///
    /// This is the single step of backward rewriting: replacing a gate
    /// output variable by the gate polynomial over its inputs. The result
    /// is renormalized (powers collapse, terms merge, zeros vanish).
    ///
    /// A step costs what it changes. The terms without `v` stay where
    /// they are, in order: a subsequence of a sorted list is sorted. The
    /// terms with `v` leave with `v` divided out, as the *quotient*, which
    /// is sorted too. Only the products `quotient · p` are built and
    /// sorted, and they are merged into the kept terms by move.
    ///
    /// # Examples
    ///
    /// ```
    /// use sbif_poly::{Poly, Var};
    ///
    /// // (2c + s)[c ← ab] = 2ab + s
    /// let mut sig = Poly::from_var(Var(0)).shl(1) + Poly::from_var(Var(1));
    /// let ab = Poly::and(&Poly::from_var(Var(2)), &Poly::from_var(Var(3)));
    /// sig.substitute(Var(0), &ab);
    /// assert_eq!(sig.num_terms(), 2);
    /// ```
    pub fn substitute(&mut self, v: Var, p: &Poly) {
        let quotient = self.split_off_var(v);
        if !quotient.is_zero() {
            *self += &quotient * p;
        }
    }

    /// Substitute a variable by another variable with polarity, in
    /// place: `v ← w` if `same_polarity`, else `v ← (1 − w)`.
    ///
    /// This is the representative replacement of SBIF (Alg. 2, lines 2–4
    /// and 6–8): all signals of an equivalence class are collapsed onto
    /// the class representative (or its complement for antivalent
    /// signals) *before* the gate polynomial is substituted.
    ///
    /// # Examples
    ///
    /// ```
    /// use sbif_poly::{Poly, Var};
    ///
    /// // the paper's Example 1: a1 + b1 − 2·a1·b1 with b1 = ¬a1 becomes 1
    /// let mut p = Poly::xor(&Poly::from_var(Var(0)), &Poly::from_var(Var(1)));
    /// p.substitute_representative(Var(1), Var(0), false);
    /// assert_eq!(p, Poly::one());
    /// ```
    pub fn substitute_representative(&mut self, v: Var, rep: Var, same_polarity: bool) {
        if v == rep {
            return;
        }
        let rep = Poly::from_var(rep);
        let image = if same_polarity { rep } else { rep.complement() };
        self.substitute(v, &image);
    }

    /// Substitute a constant for a variable, in place.
    pub fn substitute_const(&mut self, v: Var, value: bool) {
        self.substitute(v, &Poly::constant(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_apint::Int;

    fn pv(i: u32) -> Poly {
        Poly::from_var(Var(i))
    }

    /// `p[v ← q]` as a value, for chaining steps in the checks below.
    fn subst(mut p: Poly, v: Var, q: &Poly) -> Poly {
        p.substitute(v, q);
        p
    }

    fn subst_rep(mut p: Poly, v: Var, rep: Var, same_polarity: bool) -> Poly {
        p.substitute_representative(v, rep, same_polarity);
        p
    }

    fn subst_const(mut p: Poly, v: Var, value: bool) -> Poly {
        p.substitute_const(v, value);
        p
    }

    #[test]
    fn substitute_absent_var_is_identity() {
        let p = &pv(0) + &pv(1);
        assert_eq!(subst(p.clone(), Var(9), &pv(2)), p);
    }

    #[test]
    fn substitute_constant_values() {
        let p = Poly::or(&pv(0), &pv(1)); // a + b - ab
        assert_eq!(subst_const(p.clone(), Var(0), true), Poly::one());
        assert_eq!(subst_const(p, Var(0), false), pv(1));
    }

    #[test]
    fn full_adder_backward_rewriting() {
        // Fig. 1 of the paper: black part. Signals:
        //   a0=0, b0=1, c=2, h1=3 (a0⊕b0), h2=4 (a0·b0), h3=5 (h1·c),
        //   s0=6 (h1⊕c), c0=7 (h2∨h3).
        let sig = &pv(7).shl(1) + &pv(6);
        // reverse topological order: c0, s0, h3, h2, h1
        let after_c0 = subst(sig, Var(7), &Poly::or(&pv(4), &pv(5)));
        let after_s0 = subst(after_c0, Var(6), &Poly::xor(&pv(3), &pv(2)));
        let after_h3 = subst(after_s0, Var(5), &Poly::and(&pv(3), &pv(2)));
        let after_h2 = subst(after_h3, Var(4), &Poly::and(&pv(0), &pv(1)));
        let after_h1 = subst(after_h2, Var(3), &Poly::xor(&pv(0), &pv(1)));
        // Input signature: a0 + b0 + c.
        let spec = &(&pv(0) + &pv(1)) + &pv(2);
        assert_eq!(after_h1, spec);
    }

    #[test]
    fn specification_polynomial_reduces_to_zero() {
        // Same as above but starting from 2c0 + s0 - a0 - b0 - c.
        let mut sig = &(&pv(7).shl(1) + &pv(6)) - &(&(&pv(0) + &pv(1)) + &pv(2));
        sig.substitute(Var(7), &Poly::or(&pv(4), &pv(5)));
        sig.substitute(Var(6), &Poly::xor(&pv(3), &pv(2)));
        sig.substitute(Var(5), &Poly::and(&pv(3), &pv(2)));
        sig.substitute(Var(4), &Poly::and(&pv(0), &pv(1)));
        sig.substitute(Var(3), &Poly::xor(&pv(0), &pv(1)));
        assert!(sig.is_zero());
    }

    #[test]
    fn representative_substitution_same_polarity() {
        let p = &(&pv(0) * &pv(1)) + &pv(1);
        let q = subst_rep(p, Var(1), Var(0), true);
        // ab + b with b ← a gives a·a + a = 2a
        assert_eq!(q, pv(0).scale(&Int::from(2)));
    }

    #[test]
    fn representative_substitution_antivalent() {
        // Example 1 of the paper: XOR gate polynomial a + b − 2ab with
        // b = ¬a simplifies to the constant 1.
        let p = Poly::xor(&pv(0), &pv(1));
        assert_eq!(subst_rep(p, Var(1), Var(0), false), Poly::one());
        // And an AND gate a·b with b = ¬a vanishes.
        let q = Poly::and(&pv(0), &pv(1));
        assert!(subst_rep(q, Var(1), Var(0), false).is_zero());
    }

    #[test]
    fn substitution_is_homomorphic() {
        // (p + q)[v←r] == p[v←r] + q[v←r]; (p·q)[v←r] == p[v←r]·q[v←r]
        let p = &(&pv(0) * &pv(1)) + &pv(2).scale(&Int::from(3));
        let q = &pv(1) - &Poly::one();
        let r = Poly::xor(&pv(3), &pv(4));
        let (ps, qs) = (subst(p.clone(), Var(1), &r), subst(q.clone(), Var(1), &r));
        assert_eq!(subst(&p + &q, Var(1), &r), &ps + &qs);
        assert_eq!(subst(&p * &q, Var(1), &r), &ps * &qs);
    }

    #[test]
    fn rename_collision_merges_terms() {
        // 3ab + 5a with b ← a gives 8a.
        let p = &(&pv(0) * &pv(1)).scale(&Int::from(3)) + &pv(0).scale(&Int::from(5));
        assert_eq!(subst_rep(p, Var(1), Var(0), true), pv(0).scale(&Int::from(8)));
    }
}

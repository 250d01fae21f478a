//! Boolean operations, cofactors, composition, quantification — all
//! complement-edge aware.
//!
//! Negation is free (a 1-bit flip on the edge), so every connective is
//! a single [`ite`](BddManager::ite) with the *standard-triple*
//! normalization: the cache key always carries a regular `f` (via
//! `ite(¬f, g, h) = ite(f, h, g)`) and a regular `g` (via
//! `ite(f, g, h) = ¬ite(f, ¬g, ¬h)`), so the four symmetric variants of
//! every call hit the same computed-table entry.

use crate::manager::{Bdd, BddManager, VarId};

/// Computed-table operation tags.
const OP_ITE: u32 = 0;
const OP_RESTRICT: u32 = 1;

impl BddManager {
    /// If-then-else: `f ? g : h` — the universal connective.
    ///
    /// # Examples
    ///
    /// ```
    /// use sbif_bdd::BddManager;
    /// let mut m = BddManager::new();
    /// let x = m.var(0);
    /// let t = BddManager::TRUE;
    /// let e = BddManager::FALSE;
    /// assert_eq!(m.ite(x, t, e), x);
    /// ```
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        let r = self.ite_rec(f, g, h);
        self.debug_validate();
        r
    }

    fn ite_rec(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f == Self::TRUE {
            return g;
        }
        if f == Self::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == Self::TRUE && h == Self::FALSE {
            return f;
        }
        if g == Self::FALSE && h == Self::TRUE {
            return f.flip();
        }
        // Collapse branches equal (or opposite) to the selector: under
        // the then-branch f is true, under the else-branch false.
        let (mut f, mut g, mut h) = (f, g, h);
        if g == f {
            g = Self::TRUE;
        } else if g == f.flip() {
            g = Self::FALSE;
        }
        if h == f {
            h = Self::FALSE;
        } else if h == f.flip() {
            h = Self::TRUE;
        }
        if g == h {
            return g;
        }
        if g == Self::TRUE && h == Self::FALSE {
            return f;
        }
        if g == Self::FALSE && h == Self::TRUE {
            return f.flip();
        }
        // Standard triple: regular f (swap the branches), then regular g
        // (complement the result).
        if f.is_complement() {
            f = f.flip();
            std::mem::swap(&mut g, &mut h);
        }
        let parity = g.0 & 1;
        g = g.xor_complement(parity);
        h = h.xor_complement(parity);
        if let Some(r) = self.cache_get(OP_ITE, f, g, h) {
            return r.xor_complement(parity);
        }
        // Split on the top variable (minimal level among the three).
        let lf = self.level_of_node(f);
        let lg = self.level_of_node(g);
        let lh = self.level_of_node(h);
        let lvl = lf.min(lg).min(lh);
        let v = self.level2var[lvl as usize];
        let (f0, f1) = self.top_cofactors(f, v);
        let (g0, g1) = self.top_cofactors(g, v);
        let (h0, h1) = self.top_cofactors(h, v);
        let low = self.ite_rec(f0, g0, h0);
        let high = self.ite_rec(f1, g1, h1);
        let r = self.mk(v, low, high);
        self.cache_put(OP_ITE, f, g, h, r);
        r.xor_complement(parity)
    }

    /// The cofactors of `f` with respect to `v` (as semantic edges),
    /// assuming `v` is at or above `f`'s top level.
    #[inline]
    pub(crate) fn top_cofactors(&self, f: Bdd, v: VarId) -> (Bdd, Bdd) {
        if self.is_const(f) || self.nodes[f.index()].var != v {
            (f, f)
        } else {
            let parity = f.0 & 1;
            let n = &self.nodes[f.index()];
            (n.low.xor_complement(parity), n.high.xor_complement(parity))
        }
    }

    /// Negation: flips the complement attribute — O(1), allocation-free.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        f.flip()
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Self::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Self::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g.flip(), g)
    }

    /// Equivalence.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, g.flip())
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Self::TRUE)
    }

    /// `true` iff `f → g` is a tautology.
    pub fn implies_taut(&mut self, f: Bdd, g: Bdd) -> bool {
        self.implies(f, g) == Self::TRUE
    }

    /// The restriction `f[v := val]` for a variable at any level.
    pub fn restrict(&mut self, f: Bdd, v: VarId, val: bool) -> Bdd {
        if self.is_const(f) || v as usize >= self.var2level.len() {
            return f; // undeclared variables cannot occur in any node
        }
        let vl = self.level_of(v);
        if vl == u32::MAX || self.level_of_node(f) > vl {
            return f; // retired, or v cannot appear below its level
        }
        // Restriction commutes with negation: recurse on the regular
        // node so `f` and `¬f` share cache entries and result nodes.
        let parity = f.0 & 1;
        let r = self.restrict_rec(f.regular(), v, vl, val);
        self.debug_validate();
        r.xor_complement(parity)
    }

    fn restrict_rec(&mut self, f: Bdd, v: VarId, vl: u32, val: bool) -> Bdd {
        debug_assert!(!f.is_complement());
        if self.is_const(f) || self.level_of_node(f) > vl {
            return f;
        }
        let n = self.nodes[f.index()];
        if n.var == v {
            return if val { n.high } else { n.low };
        }
        let key = Bdd(v << 1 | val as u32);
        if let Some(r) = self.cache_get(OP_RESTRICT, f, key, Self::TRUE) {
            return r;
        }
        let lo = {
            let p = n.low.0 & 1;
            self.restrict_rec(n.low.regular(), v, vl, val).xor_complement(p)
        };
        let hi = self.restrict_rec(n.high, v, vl, val);
        let r = self.mk(n.var, lo, hi);
        self.cache_put(OP_RESTRICT, f, key, Self::TRUE, r);
        r
    }

    /// Functional composition `f[v := g]` — the step of the backward
    /// traversal in Sect. V: replace a gate-output variable by the BDD of
    /// the gate function.
    pub fn compose(&mut self, f: Bdd, v: VarId, g: Bdd) -> Bdd {
        if self.is_const(f) || v as usize >= self.var2level.len() {
            return f; // undeclared variables cannot occur in any node
        }
        let fl = self.level_of_node(f);
        let vl = self.level_of(v);
        if vl == u32::MAX {
            return f; // retired variables cannot occur in any node
        }
        if fl > vl {
            return f; // v cannot occur below its own level
        }
        if fl == vl && self.nodes[f.index()].var == v {
            // v is f's top variable: both cofactors are immediate.
            let (f0, f1) = self.top_cofactors(f, v);
            return self.ite(g, f1, f0);
        }
        let f1 = self.restrict(f, v, true);
        let f0 = self.restrict(f, v, false);
        self.ite(g, f1, f0)
    }

    /// Existential quantification over a single variable.
    pub fn exists(&mut self, f: Bdd, v: VarId) -> Bdd {
        let f1 = self.restrict(f, v, true);
        let f0 = self.restrict(f, v, false);
        self.or(f0, f1)
    }

    /// One satisfying assignment as `(var, value)` pairs (for variables
    /// on the path; others are free), or `None` if `f` is FALSE.
    pub fn one_sat(&self, f: Bdd) -> Option<Vec<(VarId, bool)>> {
        if f == Self::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !self.is_const(cur) {
            let parity = cur.0 & 1;
            let n = &self.nodes[cur.index()];
            let lo = n.low.xor_complement(parity);
            // Both cofactors FALSE would make the node FALSE itself,
            // impossible by reducedness — so one branch always leads on.
            if lo != Self::FALSE {
                path.push((n.var, false));
                cur = lo;
            } else {
                path.push((n.var, true));
                cur = n.high.xor_complement(parity);
            }
        }
        debug_assert_eq!(cur, Self::TRUE);
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks `got` against a truth-table oracle over `vars` variables.
    fn check_tt(m: &BddManager, got: Bdd, vars: u32, oracle: impl Fn(u32) -> bool) {
        for bits in 0..(1u32 << vars) {
            let asg = |v: VarId| (bits >> v) & 1 == 1;
            assert_eq!(m.eval(got, asg), oracle(bits), "bits={bits:b}");
        }
    }

    #[test]
    fn connectives_truth_tables() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let and = m.and(a, b);
        check_tt(&m, and, 2, |x| x & 3 == 3);
        let or = m.or(a, b);
        check_tt(&m, or, 2, |x| x & 3 != 0);
        let xor = m.xor(a, b);
        check_tt(&m, xor, 2, |x| (x ^ (x >> 1)) & 1 == 1);
        let iff = m.iff(a, b);
        check_tt(&m, iff, 2, |x| (x ^ (x >> 1)) & 1 == 0);
        let imp = m.implies(a, b);
        check_tt(&m, imp, 2, |x| x & 1 == 0 || x & 2 == 2);
        let na = m.not(a);
        check_tt(&m, na, 2, |x| x & 1 == 0);
    }

    #[test]
    fn ite_is_canonical() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        // (a ∧ b) ∨ (¬a ∧ c) built two different ways
        let ab = m.and(a, b);
        let na = m.not(a);
        let nac = m.and(na, c);
        let f1 = m.or(ab, nac);
        let f2 = m.ite(a, b, c);
        assert_eq!(f1, f2);
    }

    #[test]
    fn complement_edges_dedup_negations() {
        // De Morgan pairs share nodes: ¬(a∧b) and ¬a∨¬b must be the
        // same edge, and must not allocate beyond the a∧b cone.
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let live = m.live_nodes();
        let nab = m.not(ab);
        let na = m.not(a);
        let nb = m.not(b);
        let demorgan = m.or(na, nb);
        assert_eq!(nab, demorgan);
        assert_eq!(m.live_nodes(), live, "negations must be allocation-free");
        // xor / xnor also share all nodes.
        let x = m.xor(a, b);
        let nx = m.iff(a, b);
        assert_eq!(x.flip(), nx);
    }

    #[test]
    fn restrict_any_level() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let bc = m.and(b, c);
        let f = m.or(a, bc);
        // restrict middle variable
        let f_b1 = m.restrict(f, 1, true);
        let expect = m.or(a, c);
        assert_eq!(f_b1, expect);
        let f_b0 = m.restrict(f, 1, false);
        assert_eq!(f_b0, a);
        // restricting an absent variable is the identity
        assert_eq!(m.restrict(f, 7, true), f);
        // restriction commutes with negation
        let nf = m.not(f);
        let nf_b1 = m.restrict(nf, 1, true);
        assert_eq!(nf_b1, f_b1.flip());
    }

    #[test]
    fn compose_substitutes() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f = m.xor(a, b);
        let g = m.and(b, c);
        // f[a := b∧c] = (b∧c) ⊕ b
        let got = m.compose(f, 0, g);
        let expect = m.xor(g, b);
        assert_eq!(got, expect);
        // compose commutes with negation of the target
        let nf = m.not(f);
        let ngot = m.compose(nf, 0, g);
        assert_eq!(ngot, got.flip());
    }

    #[test]
    fn quantification() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert_eq!(m.exists(f, 0), b);
        let g = m.or(a, b);
        assert_eq!(m.exists(g, 0), BddManager::TRUE);
    }

    #[test]
    fn one_sat_paths() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let na = m.not(a);
        let f = m.and(na, b);
        let sat = m.one_sat(f).expect("satisfiable");
        let asg = |v: VarId| sat.iter().find(|&&(x, _)| x == v).map(|&(_, val)| val).unwrap_or(false);
        assert!(m.eval(f, asg));
        assert!(m.one_sat(BddManager::FALSE).is_none());
        assert_eq!(m.one_sat(BddManager::TRUE), Some(vec![]));
        // complemented roots get satisfying paths too
        let nf = m.not(f);
        let sat = m.one_sat(nf).expect("satisfiable");
        let asg = |v: VarId| sat.iter().find(|&&(x, _)| x == v).map(|&(_, val)| val).unwrap_or(false);
        assert!(m.eval(nf, asg));
    }

    #[test]
    fn tautology_checks() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        assert!(m.implies_taut(ab, a));
        assert!(!m.implies_taut(a, ab));
        assert!(m.implies_taut(BddManager::FALSE, a));
        assert!(m.implies_taut(a, BddManager::TRUE));
    }

    #[test]
    fn three_var_exhaustive_majority() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let bc = m.and(b, c);
        let t = m.or(ab, ac);
        let maj = m.or(t, bc);
        check_tt(&m, maj, 3, |x| (x & 1) + ((x >> 1) & 1) + ((x >> 2) & 1) >= 2);
    }
}

//! Structural hashing: canonical per-signal Merkle digests.
//!
//! Every signal gets a 64-bit digest `core` plus a `phase` bit, AIG
//! style: inverters are free (they flip the phase, not the core), the
//! AND/NAND/OR/NOR/ANDN family collapses onto a canonical sorted AND
//! via [`crate::canon::canon_of`], and XOR/XNOR onto a
//! canonical XOR. Two signals with equal cores compute structurally
//! identical functions of the primary inputs — equal phase means
//! equivalent, opposite phase antivalent — up to the astronomically
//! unlikely 64-bit hash collision, which is why anything that *proves*
//! from digests (the lint duplicate findings) cross-checks against
//! simulation signatures first.
//!
//! The digest of an output cone is simply the output signal's
//! `(core, phase)` pair: it identifies the whole transitive fanin
//! structure, which is the cache key ROADMAP item 3 (content-addressed
//! result cache) needs.

use crate::canon::{canon_of, CanonForm};
use sbif_netlist::{Netlist, Sig};

const INPUT_TAG: u64 = 0x9e37_79b9_7f4a_7c15;
const CONST_TAG: u64 = 0xd1b5_4a32_d192_ed03;
const AND_TAG: u64 = 0x8cb9_2ba7_2f3d_8dd7;
const XOR_TAG: u64 = 0xa24b_aed4_963e_e407;

/// The per-signal digests and the structural equivalence classes they
/// induce; see [`digests`].
#[derive(Debug, Clone)]
pub struct StrashResult {
    /// Per-signal digest core. Equal cores ⇔ structurally identical
    /// functions (modulo polarity).
    pub core: Vec<u64>,
    /// Per-signal polarity relative to the core.
    pub phase: Vec<bool>,
    /// Groups of ≥ 2 signals sharing a core, each member with its
    /// phase, ordered by first appearance — immediate structural
    /// equivalence (same phase) / antivalence (opposite phase) classes.
    pub classes: Vec<Vec<(Sig, bool)>>,
}

/// Computes canonical digests for every signal of `nl`.
///
/// Primary inputs hash their *ordinal* (position among the inputs),
/// not their dense signal index, so a cone's digest is stable under
/// renumbering of unrelated logic — the property a content-addressed
/// cache key needs.
pub fn digests(nl: &Netlist) -> StrashResult {
    let n = nl.num_signals();
    let mut core = vec![0u64; n];
    let mut phase = vec![false; n];
    let mut input_ord = 0u64;
    for s in nl.signals() {
        let (c, p) = match canon_of(nl.gate(s), |f| (core[f.index()], phase[f.index()])) {
            None => {
                let c = mix2(INPUT_TAG, input_ord);
                input_ord += 1;
                (c, false)
            }
            Some(CanonForm::Lit(l, p)) => (l, p),
            Some(CanonForm::Const(v)) => (mix2(CONST_TAG, 0), v),
            Some(CanonForm::And([(l1, p1), (l2, p2)], neg)) => {
                (mix2(mix2(mix2(AND_TAG, (l1 << 1) | p1 as u64), (l2 << 1) | p2 as u64), 0), neg)
            }
            Some(CanonForm::Xor(a, b, ph)) => (mix2(mix2(XOR_TAG, a), b), ph),
        };
        core[s.index()] = c;
        phase[s.index()] = p;
    }

    // Group by core, preserving first-appearance order.
    let mut first: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut classes: Vec<Vec<(Sig, bool)>> = Vec::new();
    let mut order: Vec<Vec<(Sig, bool)>> = Vec::new();
    for s in nl.signals() {
        let c = core[s.index()];
        match first.get(&c) {
            Some(&k) => order[k].push((s, phase[s.index()])),
            None => {
                first.insert(c, order.len());
                order.push(vec![(s, phase[s.index()])]);
            }
        }
    }
    for group in order {
        if group.len() >= 2 {
            classes.push(group);
        }
    }
    StrashResult { core, phase, classes }
}

/// SplitMix64-style combine of two words. Shared with the cache-key
/// derivation in [`crate::cachekey`], which must agree with the digest
/// mixing bit for bit.
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31) ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(b | 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::{BinOp, Gate, UnaryOp};

    #[test]
    fn commuted_gates_share_a_core() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        // Bypass builder strash so both orderings are really present.
        let g1 = nl.push_gate(Gate::Binary(BinOp::And, a, b));
        let g2 = nl.push_gate(Gate::Binary(BinOp::And, b, a));
        let g3 = nl.push_gate(Gate::Binary(BinOp::Nand, a, b));
        let r = digests(&nl);
        assert_eq!(r.core[g1.index()], r.core[g2.index()]);
        assert_eq!(r.phase[g1.index()], r.phase[g2.index()]);
        // NAND: same core, opposite phase.
        assert_eq!(r.core[g1.index()], r.core[g3.index()]);
        assert_ne!(r.phase[g1.index()], r.phase[g3.index()]);
        assert_eq!(r.classes.len(), 1);
        assert_eq!(r.classes[0], vec![(g1, false), (g2, false), (g3, true)]);
    }

    #[test]
    fn inverters_are_phase_only() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.push_gate(Gate::Binary(BinOp::Or, a, b));
        let ng = nl.push_gate(Gate::Unary(UnaryOp::Not, g));
        let nor = nl.push_gate(Gate::Binary(BinOp::Nor, b, a));
        let r = digests(&nl);
        assert_eq!(r.core[ng.index()], r.core[g.index()]);
        assert_ne!(r.phase[ng.index()], r.phase[g.index()]);
        // ¬OR(a,b) is structurally NOR(b,a).
        assert_eq!(r.core[ng.index()], r.core[nor.index()]);
        assert_eq!(r.phase[ng.index()], r.phase[nor.index()]);
    }

    #[test]
    fn digest_sees_through_de_morgan() {
        // AND(¬a, ¬b) vs NOR(a, b): identical functions, built
        // differently — one core.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let na = nl.push_gate(Gate::Unary(UnaryOp::Not, a));
        let nb = nl.push_gate(Gate::Unary(UnaryOp::Not, b));
        let g1 = nl.push_gate(Gate::Binary(BinOp::And, na, nb));
        let g2 = nl.push_gate(Gate::Binary(BinOp::Nor, a, b));
        let r = digests(&nl);
        assert_eq!(r.core[g1.index()], r.core[g2.index()]);
        assert_eq!(r.phase[g1.index()], r.phase[g2.index()]);
    }

    #[test]
    fn input_ordinal_makes_cone_digests_renumbering_stable() {
        // Same cone structure, different absolute signal indices.
        let build = |pad: usize| {
            let mut nl = Netlist::new();
            let a = nl.input("a");
            let b = nl.input("b");
            for i in 0..pad {
                let d = nl.push_gate(Gate::Binary(BinOp::Or, a, b));
                nl.set_name(d, &format!("pad{i}"));
            }
            let g = nl.push_gate(Gate::Binary(BinOp::Xor, a, b));
            let r = digests(&nl);
            (r.core[g.index()], r.phase[g.index()])
        };
        assert_eq!(build(0), build(5));
    }

    #[test]
    fn distinct_functions_get_distinct_cores() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("c");
        let g1 = nl.push_gate(Gate::Binary(BinOp::And, a, b));
        let g2 = nl.push_gate(Gate::Binary(BinOp::And, a, c));
        let g3 = nl.push_gate(Gate::Binary(BinOp::Xor, a, b));
        let r = digests(&nl);
        assert_ne!(r.core[g1.index()], r.core[g2.index()]);
        assert_ne!(r.core[g1.index()], r.core[g3.index()]);
        assert!(r.classes.is_empty());
    }
}

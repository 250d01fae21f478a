//! Lemma 2 of the paper, validated both analytically and against a real
//! gate-level adder.

use sbif::core::gatepoly::var_of;
use sbif::core::rewrite::{BackwardRewriter, RewriteConfig};
use sbif::core::spec::{adder_carry_poly, adder_overflow_poly, signed_adder_poly};
use sbif::netlist::{build::ripple_adder, Netlist, Word};
use sbif::poly::signed_word;

#[test]
fn lemma2_term_counts() {
    // |C_n| = ½(3^(n+1) − 1), |P_n| = 2·3^(n+1) − 1.
    for n in 1..=7usize {
        let c = adder_carry_poly(n);
        assert_eq!(c.num_terms(), (3usize.pow(n as u32 + 1) - 1) / 2, "C_{n}");
        let p = adder_overflow_poly(n);
        assert_eq!(p.num_terms(), 2 * 3usize.pow(n as u32 + 1) - 1, "P_{n}");
    }
}

#[test]
fn gate_level_signed_adder_rewrites_to_lemma2_polynomial() {
    // Backward rewriting of a two's-complement ripple adder, started
    // from the signed output signature, must produce exactly the A_n
    // polynomial of Lemma 2 — including the exponential overflow part.
    // (This is the Sect. III analysis: the polynomial has exponential
    // size "if we start with the polynomial Σ s_i 2^i − s_n 2^n".)
    let n = 3usize; // operand width n+1 = 4 bits
    let w = n + 1;
    let mut nl = Netlist::new();
    let a = Word::inputs(&mut nl, "a", w);
    let b = Word::inputs(&mut nl, "b", w);
    let cin = nl.input("cin");
    let (sum, _cout) = ripple_adder(&mut nl, &a, &b, cin);

    let signature = signed_word(&sum.iter().map(|&s| var_of(s)).collect::<Vec<_>>());
    let (result, stats) = BackwardRewriter::new(&nl)
        .with_config(RewriteConfig { atomic_blocks: false, ..Default::default() })
        .run(signature)
        .expect("small adder");

    // Expected: A_n over the adder's variable numbering. The spec module
    // uses its own numbering (a = 0.., b = n+1.., c = 2n+2), which by
    // construction coincides with the netlist's input order here.
    let expect = signed_adder_poly(n);
    // Rename: netlist inputs are a[0..w], b[0..w], cin at indices 0..2w;
    // the spec's variables use the same dense order, so the polynomials
    // must match verbatim.
    assert_eq!(result, expect, "gate-level A_{n} differs from Lemma 2");
    assert!(stats.peak_terms >= expect.num_terms());
}

#[test]
fn overflow_term_vanishes_with_opposite_signs() {
    // "If we know for instance that one operand is positive and the
    // other is negative, i.e. a_n = ¬b_n, then P_n vanishes."
    let n = 3usize;
    let p = adder_overflow_poly(n);
    let (a_vars, b_vars, _) = sbif::core::spec::adder_vars(n);
    let mut collapsed = p;
    collapsed.substitute_representative(b_vars[n], a_vars[n], false);
    assert!(collapsed.is_zero(), "P_n[b_n ← ¬a_n] = {collapsed}");
}

#[test]
fn a_n_evaluates_like_a_signed_adder() {
    let n = 2usize;
    let a_poly = signed_adder_poly(n);
    let w = n + 1;
    for bits in 0u32..(1 << (2 * w + 1)) {
        let asg = |v: sbif::poly::Var| (bits >> v.0) & 1 == 1;
        let ra = bits & ((1 << w) - 1);
        let rb = (bits >> w) & ((1 << w) - 1);
        let cin = (bits >> (2 * w)) & 1;
        let wrapped = (ra + rb + cin) & ((1 << w) - 1);
        let signed = if wrapped >> n & 1 == 1 {
            wrapped as i64 - (1 << w)
        } else {
            wrapped as i64
        };
        assert_eq!(a_poly.eval(asg), sbif::apint::Int::from(signed));
    }
}

#[test]
fn unsigned_signature_stays_small_signed_blows_up() {
    // The contrast behind Lemma 2: the same adder rewrites compactly
    // from the unsigned signature (with carry-out) but exponentially
    // from the signed one (without).
    for n in [3usize, 4, 5] {
        let w = n + 1;
        let mut nl = Netlist::new();
        let a = Word::inputs(&mut nl, "a", w);
        let b = Word::inputs(&mut nl, "b", w);
        let cin = nl.input("cin");
        let (sum, cout) = ripple_adder(&mut nl, &a, &b, cin);

        let mut unsigned_bits: Vec<_> = sum.iter().map(|&s| var_of(s)).collect();
        unsigned_bits.push(var_of(cout));
        let unsigned_sig = sbif::poly::unsigned_word(&unsigned_bits);
        let (_, st_u) = BackwardRewriter::new(&nl)
            .with_config(RewriteConfig { atomic_blocks: false, ..Default::default() })
            .run(unsigned_sig)
            .expect("fits");

        let signed_sig = signed_word(&sum.iter().map(|&s| var_of(s)).collect::<Vec<_>>());
        let (res_s, st_s) = BackwardRewriter::new(&nl)
            .with_config(RewriteConfig { atomic_blocks: false, ..Default::default() })
            .run(signed_sig)
            .expect("fits");

        assert!(
            st_s.peak_terms > 3 * st_u.peak_terms,
            "n={n}: signed peak {} vs unsigned {}",
            st_s.peak_terms,
            st_u.peak_terms
        );
        // The final signed polynomial has the Lemma 2 size:
        // 2(n+1) + 1 + |P_n| terms minus merges.
        assert!(res_s.num_terms() > 2 * 3usize.pow(n as u32 + 1) - 1);
    }
}

#[test]
fn poly_identity_a_plus_b_signature() {
    // Cross-check the analytic C_n against a freshly built majority
    // recursion evaluated on all inputs for n = 4.
    let n = 4usize;
    let c = adder_carry_poly(n);
    let (a_vars, b_vars, c_var) = sbif::core::spec::adder_vars(n);
    for bits in 0u32..(1 << (2 * n + 1)) {
        // pack: a value bits 0..n, b value bits n..2n, carry bit 2n
        let asg = |v: sbif::poly::Var| {
            if let Some(i) = a_vars[..n].iter().position(|&x| x == v) {
                (bits >> i) & 1 == 1
            } else if let Some(i) = b_vars[..n].iter().position(|&x| x == v) {
                (bits >> (n + i)) & 1 == 1
            } else if v == c_var {
                (bits >> (2 * n)) & 1 == 1
            } else {
                false
            }
        };
        let av = bits & ((1 << n) - 1);
        let bv = (bits >> n) & ((1 << n) - 1);
        let cv = (bits >> (2 * n)) & 1;
        let expect = (av + bv + cv) >> n;
        assert_eq!(c.eval(asg), sbif::apint::Int::from(expect));
    }
}

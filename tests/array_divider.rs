//! The truncated-row array divider: where vc1 holds *only modulo C*.
//!
//! This architecture stresses two boundaries of the paper's method:
//!
//! 1. Its final polynomial cannot be the literal 0 (the truncation is
//!    wrong outside the constraint), so the `SP₀ = 0` check of Alg. 2 is
//!    insufficient — our verifier decides `SP₀ ≡_C 0` exactly instead
//!    (support enumeration + SAT completion) and still proves vc1.
//! 2. The circuit has far fewer internal equivalences than the
//!    full-width non-restoring divider (the redundancy SBIF feeds on),
//!    so the blow-up returns at n ≈ 8 — the same "extended forward
//!    information needed" frontier the SRT experiment hits.

use sbif::core::rewrite::RewriteConfig;
use sbif::core::verify::{DividerVerifier, Vc1Outcome, VerifierConfig};
use sbif::core::VerifyError;
use sbif::netlist::build::array_divider;

#[test]
fn array_divider_divides_correctly() {
    let div = array_divider(4);
    for d in 1u64..8 {
        for r0 in 0..(d << 3) {
            let out = div.netlist.eval_u64(&[("r0", r0), ("d", d)]);
            assert_eq!(out["q"], r0 / d, "{r0}/{d}");
            assert_eq!(out["r"], r0 % d, "{r0}%{d}");
        }
    }
}

#[test]
fn vc1_proven_modulo_constraint() {
    // The final polynomial is non-zero, yet the verifier proves vc1: the
    // residual vanishes on every C-satisfying input (decided exactly).
    for n in [3usize, 4] {
        let div = array_divider(n);
        let report = DividerVerifier::new(&div).verify().expect("small widths fit");
        assert!(report.is_correct(), "n={n}: {:?}", report.vc1.outcome);
        assert_eq!(report.vc1.outcome, Vc1Outcome::Proven);
        assert!(
            report.vc1.rewrite.final_terms > 0,
            "n={n}: the truncated architecture cannot reduce to literal 0"
        );
    }
}

#[test]
fn blow_up_returns_at_medium_widths() {
    // Few internal equivalences exist to forward; the exponential comes
    // back (the second confirmation of the paper's Sect. VII outlook,
    // alongside SRT).
    let div = array_divider(8);
    let cfg = VerifierConfig {
        rewrite: RewriteConfig { max_terms: Some(300_000), ..Default::default() },
        check_vc2: false,
        ..Default::default()
    };
    let err = DividerVerifier::new(&div)
        .with_config(cfg)
        .verify()
        .expect_err("expected a blow-up");
    assert!(matches!(err, VerifyError::TermLimitExceeded { .. }));
}

#[test]
fn vc2_handles_the_array_divider() {
    let div = array_divider(6);
    let report = sbif::core::vc2::check_vc2(&div);
    assert!(report.holds);
}

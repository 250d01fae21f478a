//! The paper's future work, reproduced: SRT division (Sect. VII).
//!
//! "Our next steps will be to evaluate and extend the approach for
//! different divider designs such as SRT division […] We expect that
//! those architectures will need (possibly extended) forward
//! information."
//!
//! The experiment confirms the expectation: the flow verifies the
//! radix-2 SRT divider at small widths, but the plain
//! equivalence/antivalence forwarding of Alg. 1 is *not* enough to tame
//! its digit-selection logic — the polynomial blow-up returns at n = 6.

use sbif::core::rewrite::RewriteConfig;
use sbif::core::verify::{DividerVerifier, VerifierConfig};
use sbif::core::VerifyError;
use sbif::netlist::build::srt_divider;

#[test]
fn srt_divider_divides_correctly() {
    let div = srt_divider(4);
    for d in 1u64..8 {
        for r0 in 0..(d << 3) {
            let out = div.netlist.eval_u64(&[("r0", r0), ("d", d)]);
            assert_eq!(out["q"], r0 / d, "{r0}/{d}");
            assert_eq!(out["r"], r0 % d, "{r0}%{d}");
        }
    }
}

#[test]
fn srt_small_widths_verify() {
    for n in [3usize, 4] {
        let div = srt_divider(n);
        let report = DividerVerifier::new(&div).verify().expect("small widths fit");
        assert!(report.is_correct(), "n={n}: {:?}", report.vc1.outcome);
    }
}

#[test]
fn srt_needs_extended_forward_information() {
    // With the same budget that handles the 64-bit non-restoring divider
    // effortlessly, the 6-bit SRT divider blows up — the confirmation of
    // the paper's Sect. VII outlook. (If this test ever fails because
    // verification *succeeds*, the engine has grown the extended
    // forwarding the paper anticipated — celebrate and update it.)
    let div = srt_divider(6);
    let cfg = VerifierConfig {
        rewrite: RewriteConfig { max_terms: Some(200_000), ..Default::default() },
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
fn srt_vc2_still_works() {
    // The BDD-based remainder check does not care about the quotient
    // logic and handles SRT dividers fine.
    let div = srt_divider(5);
    let report = sbif::core::vc2::check_vc2(&div);
    assert!(report.holds);
}

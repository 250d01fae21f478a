//! Property tests for the vc2 verdict, the vc2 gauges and the
//! metrics-frame algebra.
//!
//! The BDD verdict of vc2 must agree with bounded SAT on the range
//! miter, on correct dividers and on seeded mutants alike. The vc2 BDD
//! gauges must relate the way a high-water mark relates to a final
//! state (peak dominates final, and grows with circuit size), and the
//! deterministic payload's merge must be a commutative monoid — that
//! algebra is what lets the parallel SBIF engine commit worker-local
//! frames in any order and still produce byte-identical reports (see
//! tests/trace_report.rs for the end-to-end check).

mod common;

use common::prop_check;
use sbif::cec::{vc2_sat, CecResult};
use sbif::core::vc2::check_vc2;
use sbif::fuzz::{apply, pick, Arch, FaultModel};
use sbif::netlist::build::{nonrestoring_divider, Divider};
use sbif::netlist::Sig;
use sbif::sat::Budget;
use sbif::trace::MetricsFrame;
use sbif_rng::XorShift64;

/// Whether the `(input name, value)` assignment (unlisted inputs 0)
/// satisfies the constraint `C` of `div` and violates `0 ≤ R < D`.
fn violates_vc2(div: &Divider, cex: &[(String, bool)]) -> bool {
    let nl = &div.netlist;
    let inputs: Vec<bool> = nl
        .inputs()
        .iter()
        .map(|&s| {
            let name = nl.name(s).expect("divider inputs are named");
            cex.iter().any(|(n, v)| n == name && *v)
        })
        .collect();
    let vals = nl.simulate_bool(&inputs);
    let value = |bits: &[Sig]| {
        bits.iter()
            .rev()
            .fold(0u64, |acc, s| acc << 1 | u64::from(vals[s.index()]))
    };
    let r = div.remainder.bits();
    let negative = vals[div.remainder.msb().index()];
    vals[div.constraint.index()]
        && (negative || value(&r[..r.len() - 1]) >= value(div.divisor.bits()))
}

/// Decides vc2 with the BDD weakest precondition and with one SAT query
/// on the range miter; the verdicts must agree and both
/// counterexamples must replay. Returns whether vc2 is violated.
fn vc2_engines_agree(div: &Divider, label: &str) -> bool {
    let bdd = check_vc2(div);
    assert_eq!(
        bdd.holds,
        bdd.counterexample.is_none(),
        "{label}: BDD counterexample"
    );
    if let Some(cex) = &bdd.counterexample {
        assert!(
            violates_vc2(div, cex),
            "{label}: BDD counterexample does not replay"
        );
    }
    match vc2_sat(div, Budget::new(), false).result {
        CecResult::Equivalent => assert!(bdd.holds, "{label}: SAT proves vc2, the BDD refutes it"),
        CecResult::NotEquivalent(cex) => {
            assert!(!bdd.holds, "{label}: SAT refutes vc2, the BDD proves it");
            assert!(
                violates_vc2(div, &cex),
                "{label}: SAT counterexample does not replay"
            );
        }
        CecResult::Unknown => panic!("{label}: SAT without a budget returned Unknown"),
    }
    !bdd.holds
}

#[test]
fn bdd_and_sat_agree_on_vc2_for_every_architecture() {
    for arch in Arch::all() {
        for n in 2..=4 {
            let label = format!("{arch} n={n}");
            assert!(
                !vc2_engines_agree(&arch.build(n), &label),
                "{label}: correct divider violates vc2"
            );
        }
    }
}

#[test]
fn bdd_and_sat_agree_on_vc2_for_seeded_mutants() {
    const PER_MODEL: u64 = 4;
    let (mut mutants, mut violated) = (0, 0);
    for arch in Arch::all() {
        let div = arch.build(3);
        for model in FaultModel::all() {
            for seed in 0..PER_MODEL {
                let mut rng = XorShift64::seed_from_u64(seed);
                let Some((ordinal, m)) = pick(&div, model, &mut rng) else {
                    continue;
                };
                let label = format!("{arch} n=3 {model:?} seed {seed} site #{ordinal}");
                mutants += 1;
                violated += usize::from(vc2_engines_agree(&apply(&div, &m), &label));
            }
        }
    }
    // Both verdicts must occur, or the agreement is vacuous.
    assert!(
        mutants >= 100 && violated >= 20 && violated + 20 <= mutants,
        "{violated} of {mutants} violated"
    );
}

#[test]
fn vc2_peak_nodes_dominate_final_nodes() {
    for n in [3usize, 4, 5, 6] {
        let div = nonrestoring_divider(n);
        let report = check_vc2(&div);
        assert!(report.holds, "n={n}");
        assert!(
            report.peak_nodes >= report.final_nodes,
            "n={n}: peak {} < final {}",
            report.peak_nodes,
            report.final_nodes
        );
        // The unique table indexes every live node except the single
        // unhashed terminal (complement edges leave one terminal).
        assert!(
            report.unique_entries + 1 >= report.final_nodes,
            "n={n}: unique {} + terminals < live {}",
            report.unique_entries,
            report.final_nodes
        );
    }
}

#[test]
fn vc2_peak_nodes_grow_with_the_divider() {
    // More gates -> more BDD work. Adjacent widths can swap order when
    // dynamic reordering finds a luckier variable order (n=6 peaks
    // slightly below n=5 today), so the growth claim is checked two
    // widths apart, where it holds with a wide margin.
    let peaks: Vec<usize> = [3usize, 4, 5, 6]
        .iter()
        .map(|&n| check_vc2(&nonrestoring_divider(n)).peak_nodes)
        .collect();
    for w in peaks.windows(3) {
        assert!(w[0] < w[2], "peaks not growing two widths apart: {peaks:?}");
    }
}

/// A random frame over a small key pool, so collisions between frames
/// are common (the interesting case for merge).
fn random_frame(rng: &mut XorShift64) -> MetricsFrame {
    const KEYS: [&str; 5] = ["a", "b.c", "d", "e.f.g", "h"];
    let mut f = MetricsFrame::default();
    for _ in 0..rng.below(6) {
        f.add(KEYS[rng.below(KEYS.len() as u64) as usize], rng.below(1000));
    }
    for _ in 0..rng.below(6) {
        f.gauge_max(KEYS[rng.below(KEYS.len() as u64) as usize], rng.below(1000));
    }
    f
}

#[test]
fn frame_merge_is_commutative() {
    prop_check!(
        200,
        |rng: &mut XorShift64| (random_frame(rng), random_frame(rng)),
        |(a, b): (MetricsFrame, MetricsFrame)| {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            ab == ba
        }
    );
}

#[test]
fn frame_merge_is_associative() {
    prop_check!(
        200,
        |rng: &mut XorShift64| (random_frame(rng), random_frame(rng), random_frame(rng)),
        |(a, b, c): (MetricsFrame, MetricsFrame, MetricsFrame)| {
            // (a ⊕ b) ⊕ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            left == right
        }
    );
}

#[test]
fn frame_merge_identity_is_the_empty_frame() {
    prop_check!(
        100,
        |rng: &mut XorShift64| random_frame(rng),
        |f: MetricsFrame| {
            let mut merged = f.clone();
            merged.merge(&MetricsFrame::default());
            // Note the empty frame is only a *left-absorbing* identity
            // up to registered-at-zero counters; merging it in changes
            // nothing.
            merged == f
        }
    );
}

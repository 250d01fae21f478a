//! Bounded SAT fallback for the second verification condition.
//!
//! When the governed vc2 BDD traversal exhausts its live-node budget
//! (DESIGN.md §16), the flow degrades to this check: the property
//! `C → (0 ≤ R < D)` is turned into one monolithic miter query
//! `C ∧ ¬(0 ≤ R < D)` over the divider netlist — UNSAT proves vc2 by
//! a completely different engine, a model is a genuine counterexample,
//! and a budget overrun leaves the ladder at `Inconclusive`. The
//! comparator is built from ordinary netlist gates so the existing
//! [`NetlistEncoder`] cone encoding, counterexample extraction and
//! DRAT certification all apply unchanged.

use crate::{solve_miter, CecOutcome};
use sbif_netlist::build::Divider;
use sbif_netlist::{Netlist, Sig};
use sbif_sat::Budget;

/// Appends a little-endian unsigned `a < b` ripple comparator to `nl`
/// (shorter word zero-extended), returning the comparison signal.
fn unsigned_less(nl: &mut Netlist, a: &[Sig], b: &[Sig]) -> Sig {
    let zero = nl.const0();
    let mut lt = nl.const0();
    for i in 0..a.len().max(b.len()) {
        let ai = a.get(i).copied().unwrap_or(zero);
        let bi = b.get(i).copied().unwrap_or(zero);
        // lt_i = (¬aᵢ ∧ bᵢ) ∨ ((aᵢ ⊙ bᵢ) ∧ lt_{i−1}), LSB → MSB.
        let gt_here = nl.and_not(bi, ai);
        let eq_here = nl.xnor(ai, bi);
        let keep = nl.and(eq_here, lt);
        lt = nl.or(gt_here, keep);
    }
    lt
}

/// Builds the vc2 miter `C ∧ ¬(0 ≤ R < D)` as an output named
/// `vc2_miter` on a clone of the divider netlist. `0 ≤ R` is the
/// remainder's sign bit (two's complement MSB) being 0; `R < D`
/// compares the remainder value bits against the divisor unsigned.
fn vc2_miter(div: &Divider) -> Netlist {
    let mut nl = div.netlist.clone();
    let r = div.remainder.bits();
    let sign = div.remainder.msb();
    let value = &r[..r.len() - 1];
    let lt = unsigned_less(&mut nl, value, div.divisor.bits());
    let nonneg = nl.not(sign);
    let in_range = nl.and(nonneg, lt);
    let violated = nl.not(in_range);
    let miter = nl.and(div.constraint, violated);
    nl.add_output("vc2_miter", miter);
    nl
}

/// Checks vc2 (`C → 0 ≤ R < D`) with one bounded SAT query.
/// `Equivalent` means the condition holds; `NotEquivalent` carries a
/// replayable input assignment violating it; `Unknown` means the
/// budget's conflict cap was reached or its interrupt flag (the
/// wall-clock watchdog hook) was raised. The cap is checked first, so
/// a caller tells the two apart by comparing the conflicts spent
/// against the cap. With `certify`, an UNSAT answer is replayed
/// through the independent DRAT checker (recorded in
/// [`crate::CecStats::cert`]).
pub fn vc2_sat(div: &Divider, budget: Budget, certify: bool) -> CecOutcome {
    let nl = vc2_miter(div);
    let out = nl.output("vc2_miter").expect("vc2_miter was just added");
    solve_miter(&nl, out, budget, certify)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_counterexample, CecResult};
    use sbif_netlist::build::nonrestoring_divider;
    use sbif_netlist::Word;

    #[test]
    fn correct_dividers_satisfy_vc2_by_sat() {
        for n in [2usize, 3, 4] {
            let div = nonrestoring_divider(n);
            let outcome = vc2_sat(&div, Budget::new(), false);
            assert_eq!(outcome.result, CecResult::Equivalent, "n={n}");
            assert_eq!(outcome.stats.sat_checks, 1);
        }
    }

    #[test]
    fn certified_vc2_sat_is_checked() {
        let div = nonrestoring_divider(3);
        let outcome = vc2_sat(&div, Budget::new(), true);
        assert_eq!(outcome.result, CecResult::Equivalent);
        assert_eq!(outcome.stats.cert.checked, 1);
        assert!(outcome.stats.cert.all_accepted());
        // Without certification nothing is recorded.
        let plain = vc2_sat(&div, Budget::new(), false);
        assert_eq!(plain.stats.cert, crate::CertStats::default());
    }

    #[test]
    fn corrupted_remainder_yields_replayable_counterexample() {
        let mut div = nonrestoring_divider(3);
        // Invert the remainder LSB: some constraint-satisfying input
        // must now violate 0 ≤ R < D (e.g. any input with R = 0, D = 1).
        let mut bits = div.remainder.bits().to_vec();
        bits[0] = div.netlist.not(bits[0]);
        div.remainder = Word::new(bits);
        let outcome = vc2_sat(&div, Budget::new(), false);
        match outcome.result {
            CecResult::NotEquivalent(cex) => {
                let nl = vc2_miter(&div);
                let out = nl.output("vc2_miter").expect("vc2_miter");
                assert!(replay_counterexample(&nl, &cex, out), "cex must replay");
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn tiny_budget_reports_unknown() {
        let div = nonrestoring_divider(8);
        let outcome = vc2_sat(&div, Budget::new().with_conflicts(1), false);
        assert_eq!(outcome.result, CecResult::Unknown);
    }
}

//! The plain-SAT baseline (Table II, col. 2).

use crate::{solve_miter, CecOutcome};
use sbif_netlist::Netlist;
use sbif_sat::Budget;

/// Checks that output `output` of `nl` is constant 0 with one monolithic
/// SAT query — the MiniSat flow of the paper's evaluation.
///
/// # Panics
///
/// Panics if `nl` has no output of that name.
pub fn sat_cec(nl: &Netlist, output: &str, budget: Budget) -> CecOutcome {
    let out = nl
        .output(output)
        .unwrap_or_else(|| panic!("netlist has no output named {output:?}"));
    solve_miter(nl, out, budget, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_counterexample, CecResult};
    use sbif_netlist::build::{divider_miter, miter, nonrestoring_divider, restoring_divider};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn equivalent_dividers_proven() {
        for n in [2usize, 3] {
            let a = nonrestoring_divider(n);
            let b = restoring_divider(n);
            let m = divider_miter(&a.netlist, &b.netlist, n);
            let outcome = sat_cec(&m, "miter", Budget::new());
            assert_eq!(outcome.result, CecResult::Equivalent, "n={n}");
        }
    }

    #[test]
    fn broken_divider_yields_replayable_counterexample() {
        let n = 3;
        let a = nonrestoring_divider(n);
        let mut b = restoring_divider(n).netlist;
        // Invert one quotient output.
        let q0 = b.output("q[0]").expect("q[0]");
        let inv = b.not(q0);
        let mut outs: Vec<(String, sbif_netlist::Sig)> = b.outputs().to_vec();
        for (name, s) in outs.iter_mut() {
            if name == "q[0]" {
                *s = inv;
            }
        }
        let mut rebuilt = sbif_netlist::Netlist::new();
        let map =
            sbif_netlist::build::append_netlist(&mut rebuilt, &b, |d, n| d.input(n));
        for (name, s) in &outs {
            rebuilt.add_output(name, map[s.index()]);
        }
        let m = divider_miter(&a.netlist, &rebuilt, n);
        let outcome = sat_cec(&m, "miter", Budget::new());
        match outcome.result {
            CecResult::NotEquivalent(cex) => {
                let out = m.output("miter").expect("miter");
                assert!(replay_counterexample(&m, &cex, out), "cex must replay");
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn budget_gives_unknown_on_hard_miter() {
        // An 8-bit divider miter with a 1-conflict budget cannot finish.
        let n = 8;
        let a = nonrestoring_divider(n);
        let b = restoring_divider(n);
        let m = divider_miter(&a.netlist, &b.netlist, n);
        let outcome = sat_cec(&m, "miter", Budget::new().with_conflicts(1));
        assert_eq!(outcome.result, CecResult::Unknown);
        // A raised interrupt flag (a fired watchdog) stops it too.
        let raised = Arc::new(AtomicBool::new(true));
        let outcome = sat_cec(&m, "miter", Budget::new().with_interrupt(raised));
        assert_eq!(outcome.result, CecResult::Unknown);
    }

    #[test]
    fn trivially_different_circuits() {
        let mut a = Netlist::new();
        let x = a.input("x");
        a.add_output("o", x);
        let mut b = Netlist::new();
        let x = b.input("x");
        let nx = b.not(x);
        b.add_output("o", nx);
        let m = miter(&a, &b);
        let outcome = sat_cec(&m, "miter", Budget::new());
        assert!(matches!(outcome.result, CecResult::NotEquivalent(_)));
    }
}

//! The conventional flows (Table II cols. 2–3) agree with the SCA+SBIF
//! verdicts, and the substrates agree with each other.

mod common;

#[allow(unused_imports)]
use common::random_netlist;
use sbif::cec::{sat_cec, sweep_cec, CecResult};
use sbif::govern::Watchdog;
use sbif::netlist::build::{divider_miter, miter, nonrestoring_divider, restoring_divider};
use sbif::prelude::*;
use sbif::sat::Budget;

#[test]
fn all_three_flows_agree_on_correct_dividers() {
    for n in [2usize, 3, 4] {
        let div = nonrestoring_divider(n);
        let gold = restoring_divider(n);
        let m = divider_miter(&div.netlist, &gold.netlist, n);

        let sat = sat_cec(&m, "miter", Budget::new());
        assert_eq!(sat.result, CecResult::Equivalent, "SAT n={n}");

        let sweep = sweep_cec(&m, "miter", None, Budget::new());
        assert_eq!(sweep.result, CecResult::Equivalent, "sweep n={n}");

        let report = DividerVerifier::new(&div).verify().expect("fits");
        assert!(report.is_correct(), "SCA n={n}");
    }
}

#[test]
fn sat_and_sweep_agree_on_random_miters() {
    // Random logic vs. a structurally different copy of itself.
    for seed in 0..12u64 {
        let a = random_netlist(seed, 6, 30);
        let b = random_netlist(seed + 100, 6, 30);
        let m = miter(&a, &b);
        let sat = sat_cec(&m, "miter", Budget::new());
        let sweep = sweep_cec(&m, "miter", None, Budget::new());
        match (&sat.result, &sweep.result) {
            (CecResult::Equivalent, CecResult::Equivalent) => {}
            (CecResult::NotEquivalent(_), CecResult::NotEquivalent(_)) => {}
            other => panic!("seed {seed}: verdicts disagree: {other:?}"),
        }
        // Cross-check with exhaustive simulation.
        let out = m.output("miter").expect("miter");
        let brute_diff = (0u64..64).any(|bits| {
            let inputs: Vec<bool> = (0..6).map(|i| (bits >> i) & 1 == 1).collect();
            m.simulate_bool(&inputs)[out.index()]
        });
        assert_eq!(
            matches!(sat.result, CecResult::NotEquivalent(_)),
            brute_diff,
            "seed {seed}: SAT verdict contradicts simulation"
        );
    }
}

#[test]
fn counterexamples_replay() {
    for seed in 0..6u64 {
        let a = random_netlist(seed, 5, 25);
        let b = random_netlist(seed + 1, 5, 25);
        let m = miter(&a, &b);
        let out = m.output("miter").expect("miter");
        if let CecResult::NotEquivalent(cex) = sat_cec(&m, "miter", Budget::new()).result {
            assert!(
                sbif::cec::replay_counterexample(&m, &cex, out),
                "seed {seed}: SAT counterexample does not replay"
            );
        }
        if let CecResult::NotEquivalent(cex) =
            sweep_cec(&m, "miter", None, Budget::new()).result
        {
            assert!(
                sbif::cec::replay_counterexample(&m, &cex, out),
                "seed {seed}: sweep counterexample does not replay"
            );
        }
    }
}

#[test]
fn baseline_scaling_shape() {
    // The Table II shape in miniature: plain SAT struggles earlier than
    // sweeping. With a small conflict cap, SAT fails on the 6-bit miter
    // while the sweep (helped by internal merges) still succeeds within
    // a generous wall-clock budget.
    let n = 6;
    let a = nonrestoring_divider(n);
    let b = restoring_divider(n);
    let m = divider_miter(&a.netlist, &b.netlist, n);
    let capped = sat_cec(&m, "miter", Budget::new().with_conflicts(2_000));
    assert_eq!(capped.result, CecResult::Unknown, "plain SAT under a tight cap");
    let (_watchdog, token) = Watchdog::arm(std::time::Duration::from_secs(120));
    let sweep = sweep_cec(&m, "miter", None, Budget::new().with_interrupt(token.flag()));
    assert_eq!(sweep.result, CecResult::Equivalent);
    assert!(sweep.stats.merged > 0, "sweeping must merge internal nodes");
}

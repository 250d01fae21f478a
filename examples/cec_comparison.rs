//! Compare the conventional equivalence-checking baselines against the
//! SCA+SBIF flow (the story of the paper's Table II, in miniature).
//!
//! The baselines need a *golden* divider to compare against; the
//! SCA+SBIF flow verifies against the abstract specification alone.
//!
//! Run with: `cargo run --release --example cec_comparison [max_n]`

use sbif::cec::{sat_cec, sweep_cec, CecResult};
use sbif::govern::Watchdog;
use sbif::netlist::build::{divider_miter, restoring_divider};
use sbif::prelude::*;
use sbif::sat::Budget;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let max_n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let budget = Duration::from_secs(20);
    println!("{:>3} | {:>10} | {:>10} | {:>10}", "n", "SAT", "sweep-CEC", "SCA+SBIF");
    println!("----+------------+------------+-----------");
    for n in [2usize, 3, 4, 6, 8, 12, 16].iter().copied().filter(|&n| n <= max_n) {
        let div = nonrestoring_divider(n);
        let gold = restoring_divider(n);
        let miter = divider_miter(&div.netlist, &gold.netlist, n);

        // Each baseline gets its own watchdog, which raises the
        // interrupt flag of its solver budget once `budget` has passed.
        let (_sat_watchdog, token) = Watchdog::arm(budget);
        let t = Instant::now();
        let sat_budget = Budget::new().with_interrupt(token.flag());
        let sat = match sat_cec(&miter, "miter", sat_budget).result {
            CecResult::Equivalent => format!("{:.2}s", t.elapsed().as_secs_f64()),
            CecResult::Unknown => "TO".into(),
            CecResult::NotEquivalent(_) => unreachable!("dividers are equivalent"),
        };

        let (_sweep_watchdog, token) = Watchdog::arm(budget);
        let t = Instant::now();
        let sweep_budget = Budget::new().with_interrupt(token.flag());
        let sweep = match sweep_cec(&miter, "miter", None, sweep_budget).result {
            CecResult::Equivalent => format!("{:.2}s", t.elapsed().as_secs_f64()),
            CecResult::Unknown => "TO".into(),
            CecResult::NotEquivalent(_) => unreachable!("dividers are equivalent"),
        };

        let t = Instant::now();
        let report = DividerVerifier::new(&div).verify()?;
        let sca = if report.is_correct() {
            format!("{:.2}s", t.elapsed().as_secs_f64())
        } else {
            "FAIL".into()
        };

        println!("{n:>3} | {sat:>10} | {sweep:>10} | {sca:>10}");
    }
    println!("\n(SAT and sweep-CEC check a miter against a golden restoring divider;");
    println!(" SCA+SBIF needs no golden circuit — it proves Definition 1 directly.)");
    Ok(())
}

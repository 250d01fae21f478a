//! `ledger --workload W [--seed S] [--seconds N] [--trace 0|1] [--out FILE] [--smoke]`
//!
//! Runs one workload, prints every metric by name and unit, and ends
//! with one JSON line: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 1` reports the per-layer metrics instead of the end-to-end
//! ones; `--out` also writes the canonical JSON document; `--smoke`
//! shrinks the workload to its test size.

use sbif_ledger::ledger::{run, Options};
use sbif_ledger::workloads::{workload, Profile, NAMES};
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("ledger: {why}");
    eprintln!(
        "usage: ledger --workload <{}> [--seed S] [--seconds N] [--trace 0|1] [--out FILE] [--smoke]",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut name, mut seed, mut seconds, mut trace, mut out, mut profile) =
        (None, 0u64, 25.0f64, false, None, Profile::Full);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let parsed = match (args[i].as_str(), value) {
            ("--smoke", _) => {
                profile = Profile::Smoke;
                i += 1;
                continue;
            }
            ("--workload", Some(v)) => {
                name = Some(v.to_string());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).is_ok(),
            ("--seconds", Some(v)) => v
                .parse()
                .map(|s| seconds = s)
                .is_ok_and(|()| seconds >= 0.0),
            ("--trace", Some("0")) => true,
            ("--trace", Some("1")) => {
                trace = true;
                true
            }
            ("--out", Some(v)) => {
                out = Some(v.to_string());
                true
            }
            _ => false,
        };
        if !parsed {
            return usage(&format!("bad argument {:?}", args[i]));
        }
        i += 2;
    }
    let Some(name) = name else {
        return usage("--workload is required");
    };
    let Some(workload) = workload(&name, profile) else {
        return usage(&format!("unknown workload {name:?}"));
    };
    let ledger = run(&Options {
        workload,
        seed,
        seconds,
        trace,
    });
    print!("{}", ledger.render());
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, ledger.document()) {
            eprintln!("ledger: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", ledger.result_line());
    ExitCode::SUCCESS
}

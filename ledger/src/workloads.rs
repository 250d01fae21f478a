//! The four workloads, their seeded set-up, and one timed repetition
//! with its verdict oracle.

use crate::perturb::perturb;
use crate::spans::{SpanFolder, SpanTree};
use sbif_cec::{sat_cec, CecResult};
use sbif_core::verify::{DividerVerifier, VerificationReport, VerifierConfig};
use sbif_netlist::build::{
    array_divider, divider_miter, nonrestoring_divider, restoring_divider, srt_divider, Divider,
};
use sbif_netlist::io::{read_bnet, write_bnet};
use sbif_netlist::Netlist;
use sbif_sat::{Budget, SolverStats};
use sbif_trace::{MetricsReport, Recorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["nr40-vc1", "nr24-full", "srt5-array6", "miter6-sat"];

/// Seeded variants of the miter that one `miter6-sat` repetition checks.
pub const MITER_VARIANTS: u64 = 6;

/// Divider architectures the workloads generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// [`nonrestoring_divider`].
    NonRestoring,
    /// [`srt_divider`].
    Srt,
    /// [`array_divider`].
    Array,
}

impl Arch {
    fn build(self, n: usize) -> Divider {
        match self {
            Arch::NonRestoring => nonrestoring_divider(n),
            Arch::Srt => srt_divider(n),
            Arch::Array => array_divider(n),
        }
    }

    fn label(self, n: usize) -> String {
        match self {
            Arch::NonRestoring => format!("nr{n}"),
            Arch::Srt => format!("srt{n}"),
            Arch::Array => format!("array{n}"),
        }
    }
}

/// What one repetition of a workload runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// `DividerVerifier::verify` on each divider in turn.
    Verify {
        /// The dividers, verified in this order.
        dividers: Vec<(Arch, usize)>,
        /// Check vc2 as well (`false` is `--vc1-only`).
        vc2: bool,
    },
    /// `sat_cec` on each of [`MITER_VARIANTS`] seeded variants of the
    /// constrained miter of the non-restoring and the restoring divider
    /// of width `n`.
    Miter {
        /// Divider width.
        n: usize,
    },
}

/// One workload of the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Name as `--workload` takes it.
    pub name: &'static str,
    /// What a repetition runs.
    pub target: Target,
    /// SBIF worker threads (`SbifConfig::jobs`).
    pub jobs: usize,
}

/// Input sizes: the measured workloads, or the same four workloads
/// shrunk so that the whole set runs in seconds (tests and tooling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// n = 8 / n = 8 / SRT 3 + array 3 / miters n = 4.
    Smoke,
}

/// The workload called `name`, sized for `profile`.
pub fn workload(name: &str, profile: Profile) -> Option<Workload> {
    let full = profile == Profile::Full;
    let (name, target, jobs) = match name {
        "nr40-vc1" => (
            NAMES[0],
            Target::Verify {
                dividers: vec![(Arch::NonRestoring, if full { 40 } else { 8 })],
                vc2: false,
            },
            2,
        ),
        "nr24-full" => (
            NAMES[1],
            Target::Verify {
                dividers: vec![(Arch::NonRestoring, if full { 24 } else { 8 })],
                vc2: true,
            },
            1,
        ),
        "srt5-array6" => {
            let (s, a) = if full { (5, 6) } else { (3, 3) };
            (
                NAMES[2],
                Target::Verify {
                    dividers: vec![(Arch::Srt, s), (Arch::Array, a)],
                    vc2: true,
                },
                1,
            )
        }
        "miter6-sat" => (
            NAMES[3],
            Target::Miter {
                n: if full { 6 } else { 4 },
            },
            1,
        ),
        _ => return None,
    };
    Some(Workload { name, target, jobs })
}

/// The generated, perturbed and re-read inputs of one workload.
#[derive(Debug, Clone)]
pub enum Input {
    /// Labelled dividers (`nr40`, `srt5`, …).
    Dividers(Vec<(String, Divider)>),
    /// Labelled variants of the constrained miter (`miter6v0`, …),
    /// output `"miter"`.
    Miters(Vec<(String, Netlist)>),
}

impl Input {
    /// Signals over every netlist of the input.
    pub fn signals(&self) -> usize {
        match self {
            Input::Dividers(d) => d.iter().map(|(_, d)| d.netlist.num_signals()).sum(),
            Input::Miters(m) => m.iter().map(|(_, m)| m.num_signals()).sum(),
        }
    }
}

/// Wall seconds of one set-up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Generation, perturbation and (for the miter) the miter build.
    pub build_s: f64,
    /// Parsing the BNET text back.
    pub read_s: f64,
    /// The whole set-up, BNET writing included.
    pub total_s: f64,
}

/// Generates the inputs of `w` for `seed`: each netlist is built,
/// perturbed, written as BNET and read back, and the read-back netlist
/// is what the repetitions run on. Miter variant `i` is perturbed with
/// seed `seed · MITER_VARIANTS + i`, so seed 0 includes the canonical
/// miter and no two seeds share a variant.
pub fn setup(w: &Workload, seed: u64) -> (Input, SetupTimes) {
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let round_trip = |built: Netlist, t: &mut SetupTimes| -> Netlist {
        let text = write_bnet(&built);
        let r = Instant::now();
        let parsed = read_bnet(&text).expect("a written netlist reads back");
        t.read_s += r.elapsed().as_secs_f64();
        assert_eq!(
            parsed.gates(),
            built.gates(),
            "BNET round trip is gate for gate"
        );
        parsed
    };
    let input = match &w.target {
        Target::Verify { dividers, .. } => Input::Dividers(
            dividers
                .iter()
                .map(|&(arch, n)| {
                    let b = Instant::now();
                    let div = arch.build(n);
                    let pinned: Vec<_> = div
                        .divisor
                        .iter()
                        .chain(div.remainder.iter())
                        .copied()
                        .collect();
                    let netlist = perturb(&div.netlist, seed, Some(&pinned));
                    t.build_s += b.elapsed().as_secs_f64();
                    let netlist = round_trip(netlist, &mut t);
                    (arch.label(n), Divider { netlist, ..div })
                })
                .collect(),
        ),
        Target::Miter { n } => {
            let b = Instant::now();
            let miter = divider_miter(
                &nonrestoring_divider(*n).netlist,
                &restoring_divider(*n).netlist,
                *n,
            );
            t.build_s += b.elapsed().as_secs_f64();
            Input::Miters(
                (0..MITER_VARIANTS)
                    .map(|i| {
                        let b = Instant::now();
                        let variant_seed = seed.wrapping_mul(MITER_VARIANTS).wrapping_add(i);
                        let variant = perturb(&miter, variant_seed, None);
                        t.build_s += b.elapsed().as_secs_f64();
                        (format!("miter{n}v{i}"), round_trip(variant, &mut t))
                    })
                    .collect(),
            )
        }
    };
    t.total_s = start.elapsed().as_secs_f64();
    (input, t)
}

/// What the ledger reads off one verifier or `sat_cec` call.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Reports of the verify calls, labelled by divider.
    pub reports: Vec<(String, VerificationReport)>,
    /// Solver counters of the miter calls, labelled by variant.
    pub miters: Vec<(String, SolverStats)>,
    /// Span times of the traced verify calls.
    pub spans: SpanTree,
}

/// One repetition: every call of the workload, timed from outside.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds from the in-memory netlist to the verdicts.
    pub wall_s: f64,
    /// Calls made.
    pub attempted: u64,
    /// Calls whose verdict was wrong, that errored, or that panicked,
    /// each with the reason.
    pub failures: Vec<String>,
    /// Everything the calls reported.
    pub layers: Layers,
}

impl Rep {
    /// The deterministic counters of the repetition, keyed
    /// `<label>.<counter>`: the metrics payload of each verify call, or
    /// the solver counters of each miter call.
    pub fn det(&self) -> MetricsReport {
        let mut det = MetricsReport::default();
        for (label, r) in &self.layers.reports {
            for (k, v) in &r.metrics.counters {
                det.counters.insert(format!("{label}.{k}"), *v);
            }
            for (k, v) in &r.metrics.gauges {
                det.gauges.insert(format!("{label}.{k}"), *v);
            }
        }
        for (label, s) in &self.layers.miters {
            for (k, v) in [
                ("conflicts", s.conflicts),
                ("decisions", s.decisions),
                ("propagations", s.propagations),
                ("restarts", s.restarts),
            ] {
                det.counters.insert(format!("{label}.sat.{k}"), v);
            }
        }
        det
    }
}

/// Runs one repetition of `w` on `input` with `jobs` SBIF workers. With
/// `traced`, each verify call gets a recorder with a [`SpanFolder`]
/// attached.
pub fn run_rep(w: &Workload, input: &Input, jobs: usize, traced: bool) -> Rep {
    let mut rep = Rep::default();
    match (input, &w.target) {
        (Input::Dividers(dividers), Target::Verify { vc2, .. }) => {
            let mut config = VerifierConfig::default();
            config.sbif.jobs = jobs;
            config.check_vc2 = *vc2;
            for (label, div) in dividers {
                let recorder = Recorder::new();
                let tree = traced.then(|| {
                    let (folder, tree) = SpanFolder::pair();
                    recorder.attach(Box::new(folder));
                    tree
                });
                let t = Instant::now();
                let outcome = verify_checked(div, config, recorder);
                rep.wall_s += t.elapsed().as_secs_f64();
                rep.attempted += 1;
                match outcome {
                    Ok(report) => rep.layers.reports.push((label.clone(), report)),
                    Err(why) => rep.failures.push(format!("{label}: {why}")),
                }
                if let Some(tree) = tree {
                    rep.layers
                        .spans
                        .merge(&tree.lock().expect("span tree poisoned"));
                }
            }
        }
        (Input::Miters(miters), Target::Miter { .. }) => {
            for (label, miter) in miters {
                let t = Instant::now();
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| sat_cec(miter, "miter", Budget::new())));
                rep.wall_s += t.elapsed().as_secs_f64();
                rep.attempted += 1;
                match outcome {
                    Ok(o) if o.result == CecResult::Equivalent => {
                        rep.layers.miters.push((label.clone(), o.stats.solver))
                    }
                    Ok(o) => rep.failures.push(format!("{label}: {:?}", o.result)),
                    Err(_) => rep.failures.push(format!("{label}: sat_cec panicked")),
                }
            }
        }
        _ => unreachable!("set-up builds the input its workload's target asks for"),
    }
    rep
}

/// The verdict oracle of one verify call: a generated divider is
/// correct, so anything but `Proven` — another verdict, an error, or a
/// panic — is a failure of the program under test, returned with its
/// reason rather than crashing the benchmark.
pub fn verify_checked(
    div: &Divider,
    config: VerifierConfig,
    recorder: Recorder,
) -> Result<VerificationReport, String> {
    let call = || {
        DividerVerifier::new(div)
            .with_config(config)
            .with_recorder(recorder)
            .verify()
    };
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(report)) if report.verdict.is_proven() => Ok(report),
        Ok(Ok(report)) => Err(format!("verdict {:?}", report.verdict)),
        Ok(Err(e)) => Err(format!("error: {e}")),
        Err(_) => Err("verify panicked".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::{BinOp, Gate};

    /// `div` with the operator of the binary gate feeding `q[0]` flipped
    /// (AND ↔ OR, XOR ↔ XNOR) through the public `Netlist` API.
    fn flip_quotient_gate(div: &Divider) -> Divider {
        let victim = div.quotient[0];
        let mut nl = Netlist::new();
        for s in div.netlist.signals() {
            match (div.netlist.gate(s), div.netlist.name(s)) {
                (Gate::Input, Some(name)) => nl.input(name),
                (&Gate::Binary(op, a, b), _) if s == victim => {
                    let flipped = match op {
                        BinOp::And => BinOp::Or,
                        BinOp::Or => BinOp::And,
                        BinOp::Xor => BinOp::Xnor,
                        BinOp::Xnor => BinOp::Xor,
                        BinOp::Nand => BinOp::Nor,
                        BinOp::Nor => BinOp::Nand,
                        BinOp::AndNot => BinOp::And,
                    };
                    nl.push_gate(Gate::Binary(flipped, a, b))
                }
                (g, _) => nl.push_gate(g.clone()),
            };
        }
        for (name, s) in div.netlist.outputs() {
            nl.add_output(name, *s);
        }
        Divider {
            netlist: nl,
            ..div.clone()
        }
    }

    #[test]
    fn a_broken_divider_fails_every_rep_without_crashing() {
        let w = workload("nr24-full", Profile::Smoke).unwrap();
        let (input, _) = setup(&w, 0);
        let Input::Dividers(dividers) = input else {
            panic!("verify workload")
        };
        let victim = dividers[0].1.quotient[0];
        assert!(matches!(
            dividers[0].1.netlist.gate(victim),
            Gate::Binary(..)
        ));
        let broken = Input::Dividers(
            dividers
                .iter()
                .map(|(l, d)| (l.clone(), flip_quotient_gate(d)))
                .collect(),
        );
        let reps: Vec<Rep> = (0..2).map(|_| run_rep(&w, &broken, 1, false)).collect();
        let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
        let failed = reps.iter().map(|r| r.failures.len() as u64).sum::<u64>();
        assert_eq!(attempted, 2);
        assert_eq!(failed as f64 / attempted as f64, 1.0, "fail_rate");
        assert!(
            reps[0].failures[0].contains("Refuted"),
            "{:?}",
            reps[0].failures
        );
    }

    #[test]
    fn a_panicking_call_counts_as_failed() {
        // The divisor word points past the netlist, so the smoke check
        // panics on an out-of-range index.
        let mut div = nonrestoring_divider(3);
        div.divisor = sbif_netlist::Word::new(vec![sbif_netlist::Sig(1 << 30)]);
        let why = verify_checked(&div, VerifierConfig::default(), Recorder::new())
            .expect_err("must not verify");
        assert_eq!(why, "verify panicked");
    }

    #[test]
    fn setup_is_a_function_of_the_seed() {
        let w = workload("miter6-sat", Profile::Smoke).unwrap();
        let gates = |seed| match setup(&w, seed).0 {
            Input::Miters(m) => m
                .iter()
                .map(|(_, m)| m.gates().to_vec())
                .collect::<Vec<_>>(),
            Input::Dividers(_) => unreachable!(),
        };
        assert_eq!(gates(3), gates(3));
        assert_ne!(gates(3), gates(4));
        let variants = gates(0);
        assert_eq!(variants.len() as u64, MITER_VARIANTS);
        assert_ne!(variants[0], variants[1], "variants differ");
    }
}

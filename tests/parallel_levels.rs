//! The level-barrier parallel SBIF engine, proven by a jobs sweep.
//!
//! Three layers of evidence (DESIGN.md §7):
//!
//! 1. **Jobs-sweep determinism**: the full pipeline's canonical metrics
//!    payload — and the SBIF-only classes and statistics, including
//!    every speculation counter — are byte-identical at `--jobs
//!    1/2/4/8`, on every divider architecture and under an exhausted
//!    governor budget.
//! 2. **Scheduler properties**: on random netlists, every window's
//!    fanins sit in strictly earlier levels, and the batch geometry is
//!    a level-aligned partition of the candidate set.
//! 3. **Batched-solver differential**: a [`WindowBatch`] check returns
//!    the verdict of a fresh per-window solver, and its activation
//!    guards are the only thing standing between sibling windows and
//!    cross-contamination.

mod common;

use common::random_netlist;
use sbif::core::sbif::{
    check_window_pair, divider_sim_words, forward_information, EquivClasses, LevelSchedule,
    SbifConfig, SbifHooks, SbifStats, WindowBatch,
};
use sbif::core::verify::{DividerVerifier, VerifierConfig};
use sbif::govern::Resource;
use sbif::netlist::build::{array_divider, nonrestoring_divider, srt_divider, Divider};
use sbif::netlist::{Netlist, Sig};
use sbif::sat::SolveResult;
use sbif::trace::Recorder;

const JOBS_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Everything the determinism contract covers: class representatives
/// plus the full deterministic statistics tuple (speculation included —
/// the lane schedule is a pure function of the netlist and config).
fn fingerprint(nl: &Netlist, classes: &EquivClasses, s: &SbifStats) -> String {
    let mut out = String::new();
    for sig in nl.signals() {
        let (r, p) = classes.rep(sig);
        out.push_str(&format!("{}:{}{} ", sig.0, r.0, u8::from(p)));
    }
    out.push_str(&format!(
        "| cand={} sat={} proven={} refuted={} unknown={} refine={} \
         levels={} spec={}/{} inits={} batch_checks={} \
         conflicts={} props={} stopped={:?}",
        s.candidates,
        s.sat_checks,
        s.proven,
        s.refuted,
        s.unknown,
        s.refinements,
        s.levels,
        s.spec_hits,
        s.spec_attempts,
        s.solver_inits,
        s.batch_checks,
        s.solver.conflicts,
        s.solver.propagations,
        s.stopped,
    ));
    out
}

/// SBIF-only sweep: identical fingerprint at every jobs value.
fn sweep_sbif(div: &Divider, label: &str) -> SbifStats {
    let sim = divider_sim_words(div, 23, 2);
    let mut reference: Option<(String, SbifStats)> = None;
    for jobs in JOBS_SWEEP {
        let cfg = SbifConfig { jobs, ..SbifConfig::default() };
        let (classes, stats) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            cfg,
            &SbifHooks::default(),
        );
        let fp = fingerprint(&div.netlist, &classes, &stats);
        match &reference {
            None => reference = Some((fp, stats)),
            Some((r, _)) => assert_eq!(r, &fp, "{label}: jobs={jobs} diverged"),
        }
    }
    reference.expect("sweep ran").1
}

/// Full-pipeline sweep: canonical metrics bytes identical at every jobs
/// value (this is what the verify.sh `parallel` gate re-checks in CI).
fn sweep_metrics(div: &Divider, label: &str) {
    let mut reference: Option<String> = None;
    for jobs in JOBS_SWEEP {
        let mut cfg = VerifierConfig::default();
        cfg.sbif.jobs = jobs;
        let report = DividerVerifier::new(div)
            .with_config(cfg)
            .with_recorder(Recorder::new())
            .verify()
            .unwrap_or_else(|e| panic!("{label}: jobs={jobs}: {e:?}"));
        assert!(report.is_correct(), "{label}: jobs={jobs}");
        let json = report.metrics.to_json();
        match &reference {
            None => reference = Some(json),
            Some(r) => assert!(
                r == &json,
                "{label}: jobs={jobs} metrics diverged\n--- jobs=1 ---\n{r}\n--- jobs={jobs} ---\n{json}"
            ),
        }
    }
}

#[test]
fn metrics_bytes_identical_across_jobs_nonrestoring_n8() {
    sweep_metrics(&nonrestoring_divider(8), "nonrestoring 8");
}

#[test]
fn metrics_bytes_identical_across_jobs_srt_n4() {
    sweep_metrics(&srt_divider(4), "srt 4");
}

#[test]
fn metrics_bytes_identical_across_jobs_array_n6() {
    sweep_metrics(&array_divider(6), "array 6");
}

/// The ISSUE's headline acceptance criteria, on the n = 16
/// non-restoring divider: ≥ 90% of speculative checks commit, and the
/// shared batch solvers amortize at least 10 windows per setup.
#[test]
fn nonrestoring_n16_sweep_hits_speculation_targets() {
    let stats = sweep_sbif(&nonrestoring_divider(16), "nonrestoring 16");
    assert!(stats.proven > 0);
    assert!(
        stats.spec_hits * 1000 >= stats.spec_attempts * 900,
        "speculation hit rate below 90%: {}/{}",
        stats.spec_hits,
        stats.spec_attempts
    );
    assert!(
        stats.solver_inits * 10 <= stats.batch_checks,
        "solver setup not amortized: {} inits for {} batched checks",
        stats.solver_inits,
        stats.batch_checks
    );
}

#[test]
fn sbif_sweep_identical_on_all_architectures() {
    sweep_sbif(&nonrestoring_divider(8), "nonrestoring 8");
    sweep_sbif(&srt_divider(4), "srt 4");
    sweep_sbif(&array_divider(6), "array 6");
}

/// A governed run that exhausts its conflict budget stops at the same
/// commit point — same partial classes, same ledger — for every worker
/// count, because batch solver totals are attributed at deterministic
/// batch boundaries.
#[test]
fn governed_budget_exhaustion_is_jobs_invariant() {
    let div = nonrestoring_divider(8);
    let sim = divider_sim_words(&div, 23, 2);
    let hooks = SbifHooks { conflict_budget: Some(40), ..SbifHooks::default() };
    let mut reference: Option<String> = None;
    for jobs in JOBS_SWEEP {
        let cfg = SbifConfig { jobs, ..SbifConfig::default() };
        let (classes, stats) =
            forward_information(&div.netlist, Some(div.constraint), &sim, cfg, &hooks);
        let resource = stats.stopped.map(|e| e.resource);
        assert_eq!(resource, Some(Resource::SatConflicts), "jobs={jobs}: budget must trip");
        let fp = fingerprint(&div.netlist, &classes, &stats);
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(r, &fp, "jobs={jobs}: governed run diverged"),
        }
    }
}

/// Property: in the level schedule every gate's fanins sit in strictly
/// earlier levels — the structural fact that makes level-barrier
/// speculation valid by construction (a window dispatched at level L
/// only reads committed state).
#[test]
fn prop_fanins_sit_in_strictly_earlier_levels() {
    common::prop_check!(
        32,
        |rng: &mut sbif_rng::XorShift64| {
            (rng.below(64), 2 + rng.range_usize(1, 11), 5 + rng.range_usize(0, 40))
        },
        |(seed, inputs, gates): (u64, usize, usize)| {
            let nl = random_netlist(seed, inputs, gates);
            let sched = LevelSchedule::new(&nl, 16);
            let ok = nl.signals().all(|s| {
                nl.gate(s).fanins().all(|f| sched.level(f) < sched.level(s))
            });
            ok
        }
    );
}

/// Property: the batch geometry is a level-aligned partition of the
/// candidate set — `order` is a level-major permutation inverted by
/// `pos`, batches tile `0..n` contiguously, and `level_runs` splits
/// exactly at level changes.
#[test]
fn prop_schedule_partitions_the_candidate_set() {
    common::prop_check!(
        32,
        |rng: &mut sbif_rng::XorShift64| {
            (rng.below(64), 2 + rng.range_usize(1, 11), 5 + rng.range_usize(0, 40),
             1 + rng.range_usize(0, 24))
        },
        |(seed, inputs, gates, batch): (u64, usize, usize, usize)| {
            let nl = random_netlist(seed, inputs, gates);
            let sched = LevelSchedule::new(&nl, batch);
            let n = nl.num_signals();
            let perm = sched.order().len() == n
                && sched.order().iter().enumerate().all(|(p, &s)| sched.pos()[s.index()] == p)
                && sched.order().windows(2).all(|w| {
                    (sched.level(w[0]), w[0].0) < (sched.level(w[1]), w[1].0)
                });
            let mut at = 0;
            let tiles = sched.batches().iter().all(|b| {
                let ok = b.start == at && b.end > b.start;
                at = b.end;
                let aligned = b.end >= n
                    || sched.level(sched.order()[b.end - 1])
                        < sched.level(sched.order()[b.end]);
                ok && aligned
            }) && at == n;
            let runs_split = sched.batches().iter().all(|b| {
                sched.level_runs(b.clone()).all(|r| {
                    let lv = sched.level(sched.order()[r.start]);
                    r.clone().all(|p| sched.level(sched.order()[p]) == lv)
                        && (r.end >= b.end
                            || sched.level(sched.order()[r.end]) > lv)
                })
            });
            perm && tiles && runs_split
        }
    );
}

/// Property: a [`WindowBatch`] check on the shared incremental solver
/// returns exactly the verdict of a fresh per-window solver, pair after
/// pair, as classes grow from the UNSAT answers — the differential that
/// justifies replacing fresh solvers with batched ones.
#[test]
fn prop_batched_verdicts_equal_fresh_solver_verdicts() {
    common::prop_check!(
        24,
        |rng: &mut sbif_rng::XorShift64| {
            (rng.below(1 << 20), 3 + rng.range_usize(0, 10), 10 + rng.range_usize(0, 30))
        },
        |(seed, inputs, gates): (u64, usize, usize)| {
            let nl = random_netlist(seed, inputs, gates);
            let cfg = SbifConfig::default();
            let mut classes = EquivClasses::new(nl.num_signals());
            let mut batch = WindowBatch::new(&nl, None, &cfg);
            let sigs: Vec<Sig> = nl.signals().collect();
            let mut rng = sbif_rng::XorShift64::seed_from_u64(seed ^ 0xD1FF);
            for _ in 0..12 {
                let a = sigs[rng.range_usize(0, sigs.len())];
                let b = sigs[rng.range_usize(0, sigs.len())];
                if a == b {
                    continue;
                }
                let eps = rng.below(2) == 0;
                let fresh = check_window_pair(&nl, &classes, None, a, b, eps, &cfg, None);
                let batched = batch.check(&classes, a, b, eps);
                if fresh.result != batched.result {
                    return false;
                }
                if fresh.result == SolveResult::Unsat {
                    classes.union(a, b, !eps);
                }
            }
            batch.solver_inits() <= 1
        }
    );
}

/// The activation-guard discipline is the only thing preventing
/// cross-window contamination: an unpoisoned sibling check matches the
/// fresh-solver verdict, while force-asserting the previous window's
/// guard (the `poison_last_guard` sabotage hook) flips the sibling's
/// SAT verdict to a spurious UNSAT.
#[test]
fn poisoned_sibling_guard_contaminates_poison_free_batching_does_not() {
    // a = x ∧ y, b = x ∨ y: neither equivalent nor antivalent, so both
    // the equivalence check (asserting a ≠ b) and the antivalence check
    // (asserting a = b) are satisfiable.
    let mut nl = Netlist::new();
    let x = nl.input("x");
    let y = nl.input("y");
    let a = nl.and(x, y);
    let b = nl.or(x, y);
    let o = nl.xor(a, b);
    nl.add_output("o", o);
    let cfg = SbifConfig::default();
    let classes = EquivClasses::new(nl.num_signals());

    let fresh_equiv = check_window_pair(&nl, &classes, None, a, b, true, &cfg, None);
    let fresh_antiv = check_window_pair(&nl, &classes, None, a, b, false, &cfg, None);
    assert_eq!(fresh_equiv.result, SolveResult::Sat);
    assert_eq!(fresh_antiv.result, SolveResult::Sat);

    // Guarded batching: both sibling checks on one shared solver agree
    // with the fresh verdicts.
    let mut clean = WindowBatch::new(&nl, None, &cfg);
    assert_eq!(clean.check(&classes, a, b, true).result, SolveResult::Sat);
    assert_eq!(clean.check(&classes, a, b, false).result, SolveResult::Sat);
    assert_eq!(clean.solver_inits(), 1, "both checks share one solver");

    // Sabotage: permanently assert the equivalence check's guard. Its
    // window clauses (forcing a ≠ b) now leak into the sibling, whose
    // a = b assertion becomes unsatisfiable — a spurious proof.
    let mut poisoned = WindowBatch::new(&nl, None, &cfg);
    assert_eq!(poisoned.check(&classes, a, b, true).result, SolveResult::Sat);
    poisoned.poison_last_guard();
    assert_eq!(
        poisoned.check(&classes, a, b, false).result,
        SolveResult::Unsat,
        "poisoning must contaminate — otherwise this test proves nothing"
    );
}

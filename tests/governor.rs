//! Integration tests for the resource governor (DESIGN.md §16).
//!
//! The governor's contract has two halves:
//!
//! * **Graceful degradation** — a budget-starved flow ends in a typed
//!   `Inconclusive { exhausted_at }` verdict (exit 0 at the CLI), never
//!   a hard abort, and the fallback ladder (SBIF skip → rewrite
//!   inconclusive → vc2 SAT) recovers what it can.
//! * **Determinism** — deterministic budgets (conflicts, terms, live
//!   nodes) are accounted commit-side, so the verdict, the
//!   `exhausted_at` attribution and every `govern.*` counter are
//!   byte-identical for any `--jobs` value.

use sbif::cec::{vc2_sat, CecResult};
use sbif::core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifHooks};
use sbif::core::vc2::check_vc2_governed;
use sbif::core::verify::{DividerVerifier, Vc1Outcome, VerifierConfig};
use sbif::govern::{CancelToken, Resource, Verdict};
use sbif::netlist::build::{nonrestoring_divider, srt_divider};
use sbif::sat::Budget;

/// Runs `div` under `config` and returns `(verdict, metrics_json)`.
fn run(
    div: &sbif::netlist::build::Divider,
    config: VerifierConfig,
) -> (Verdict, String) {
    let report = DividerVerifier::new(div)
        .with_config(config)
        .verify()
        .expect("governed runs degrade instead of aborting");
    (report.verdict, report.metrics.to_json())
}

#[test]
fn starved_budgets_yield_inconclusive_not_abort_and_jobs_dont_matter() {
    let div = nonrestoring_divider(5);
    let mut config = VerifierConfig::default();
    config.govern.sbif_conflicts = Some(1);
    config.govern.rewrite_terms = Some(1);

    config.sbif.jobs = 1;
    let (v1, m1) = run(&div, config);
    config.sbif.jobs = 4;
    let (v4, m4) = run(&div, config);

    // Identical Inconclusive verdicts — including the exhausted stage,
    // resource and spent amount — at any worker count.
    assert_eq!(v1, v4);
    let Verdict::Inconclusive { exhausted_at } = v1 else {
        panic!("expected Inconclusive, got {v1:?}");
    };
    assert!(exhausted_at.deterministic());
    // Byte-identical metrics, govern.* counters included.
    assert_eq!(m1, m4, "metrics must not depend on the worker count");
    assert!(m1.contains("govern."), "exhaustion must be recorded: {m1}");
}

#[test]
fn srt_n6_standard_flow_terminates_inconclusive_inside_the_budget() {
    // The acceptance scenario: the SRT divider at n = 6 blows past any
    // small term budget during backward rewriting (the architecture the
    // paper's SBIF targets); governed, the standard flow terminates
    // with a typed Inconclusive instead of a hard term-limit abort.
    let div = srt_divider(6);
    let mut config = VerifierConfig::default();
    config.govern.sbif_conflicts = Some(1);
    config.govern.rewrite_terms = Some(10);
    let report = DividerVerifier::new(&div)
        .with_config(config)
        .verify()
        .expect("the governed flow must not abort");
    let Verdict::Inconclusive { exhausted_at } = report.verdict else {
        panic!("expected Inconclusive, got {:?}", report.verdict);
    };
    assert_eq!(exhausted_at.stage, "rewrite");
    assert_eq!(exhausted_at.resource, Resource::RewriteTerms);
    assert!(exhausted_at.spent >= exhausted_at.limit);
    assert!(matches!(report.vc1.outcome, Vc1Outcome::Exhausted(_)));
    assert!(!report.cancelled, "deterministic exhaustion is not a cancellation");
    // The govern.* counters attribute the exhaustion.
    assert_eq!(report.metrics.counter("govern.rewrite_exhausted"), 1);
}

#[test]
fn vc2_node_budget_falls_back_to_sat_and_still_proves() {
    // Second rung of the ladder: an absurdly small vc2 live-node budget
    // exhausts the BDD traversal, the bounded SAT fallback takes over
    // and still proves the range property — Proven, not Inconclusive.
    let div = nonrestoring_divider(3);
    let mut config = VerifierConfig::default();
    config.govern.vc2_live_nodes = Some(1);
    let report = DividerVerifier::new(&div)
        .with_config(config)
        .verify()
        .expect("fallback flows don't abort");
    assert_eq!(report.verdict, Verdict::Proven);
    assert!(report.vc2.is_none(), "the BDD engine gave up");
    let fb = report.vc2_fallback.as_ref().expect("SAT fallback ran");
    assert_eq!(fb.holds, Some(true));
    assert_eq!(report.metrics.counter("govern.vc2_exhausted"), 1);
    assert_eq!(report.metrics.counter("govern.vc2_sat_fallback"), 1);
}

#[test]
fn ungoverned_and_governed_but_unexhausted_runs_are_byte_identical() {
    // The cache normalizes the governor out of the flow fingerprint;
    // that is only sound if a budget that never trips leaves no trace.
    let div = nonrestoring_divider(4);
    let ungoverned = run(&div, VerifierConfig::default());
    let mut roomy = VerifierConfig::default();
    roomy.govern.sbif_conflicts = Some(u64::MAX);
    roomy.govern.rewrite_terms = Some(usize::MAX);
    roomy.govern.vc2_live_nodes = Some(usize::MAX);
    let governed = run(&div, roomy);
    assert_eq!(ungoverned.0, Verdict::Proven);
    assert_eq!(governed.0, Verdict::Proven);
    assert_eq!(ungoverned.1, governed.1);
    assert!(!ungoverned.1.contains("govern."));
}

#[test]
fn watchdog_timeout_cancels_and_reports_wall_clock_inconclusive() {
    // A 1 ms watchdog fires long before SBIF on n = 6 finishes; the
    // run must come back Inconclusive on the wall clock and flagged
    // cancelled (so the flow layer never caches it).
    let div = nonrestoring_divider(6);
    let mut config = VerifierConfig::default();
    config.govern.timeout_ms = Some(1);
    let report = DividerVerifier::new(&div)
        .with_config(config)
        .verify()
        .expect("cancellation degrades, not aborts");
    let Verdict::Inconclusive { exhausted_at } = report.verdict else {
        panic!("expected Inconclusive, got {:?}", report.verdict);
    };
    assert_eq!(exhausted_at.resource, Resource::WallClock);
    assert!(!exhausted_at.deterministic());
    // The stopped stage reports the watchdog's timeout.
    assert_eq!((exhausted_at.spent, exhausted_at.limit), (1, 1));
    assert!(report.cancelled);
    assert_eq!(report.metrics.counter("govern.cancelled"), 1);
}

#[test]
fn deterministic_budgets_beat_a_raised_token_at_every_stop_site() {
    // Each stop site checks its deterministic budget before the token,
    // so a run whose budget trips reproduces even when the watchdog
    // fired too.
    let raised = CancelToken::new();
    raised.cancel();

    // SBIF's commit poll: the committed conflict ledger first.
    let div = nonrestoring_divider(4);
    let sim = divider_sim_words(&div, 23, 2);
    let hooks =
        SbifHooks { conflict_budget: Some(0), cancel: Some(raised.clone()), ..SbifHooks::default() };
    let (_, stats) =
        forward_information(&div.netlist, Some(div.constraint), &sim, SbifConfig::default(), &hooks);
    let stopped = stats.stopped.expect("the budget stops the scan");
    assert_eq!((stopped.stage, stopped.resource), ("sbif", Resource::SatConflicts));

    // The vc2 BDD traversal: the live-node cap first.
    let stopped = check_vc2_governed(&nonrestoring_divider(6), Some(1), Some(&raised))
        .expect_err("the cap stops the traversal");
    assert_eq!((stopped.stage, stopped.resource), ("vc2", Resource::BddLiveNodes));

    // The vc2 SAT fallback: the solver checks its conflict cap before
    // the flag, and the flow reads `conflicts >= cap` as the cap.
    let div = nonrestoring_divider(8);
    let fallback = |cap| {
        let budget = Budget::new().with_conflicts(cap).with_interrupt(raised.flag());
        vc2_sat(&div, budget, false)
    };
    let capped = fallback(1);
    assert_eq!(capped.result, CecResult::Unknown);
    assert!(capped.stats.solver.conflicts >= 1, "read as the cap");
    let flagged = fallback(5);
    assert_eq!(flagged.result, CecResult::Unknown);
    assert!(flagged.stats.solver.conflicts < 5, "read as the flag");
}

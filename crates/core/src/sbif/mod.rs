//! SAT Based Information Forwarding (Alg. 1 of the paper).
//!
//! Backward rewriting alone cannot see facts that only *forward*
//! propagation (from inputs to outputs) reveals — chiefly that the
//! adder/subtractor stages of a divider never overflow. SBIF forwards
//! that information as signal equivalences/antivalences:
//!
//! 1. simulate the circuit with random input vectors satisfying the
//!    input constraint `C` (candidate detection),
//! 2. for each signal, in topological order, check candidate partners
//!    with a SAT solver on *windows* of bounded depth `d_max` around both
//!    signals, with window fanins replaced by the topologically minimal
//!    representatives of their already-computed classes (information
//!    forwarding), under `C`,
//! 3. merge proven pairs into equivalence classes with polarity.
//!
//! The result feeds Alg. 2 ([`crate::rewrite`]): replacing every signal
//! by its class representative *before* substitution prevents the
//! exponential blow-up of Sect. III.

pub mod batch;
mod classes;
pub mod levels;
mod parallel;
mod sim;

pub use batch::WindowBatch;
pub use classes::EquivClasses;
pub use levels::LevelSchedule;
pub use sim::divider_sim_words;

use sbif_analysis::{canon_of, relate, CanonForm};
use sbif_cec::certify_solver_unsat;
use sbif_check::{CertOutcome, CertStats};
use sbif_govern::{CancelToken, Exhausted};
use sbif_netlist::{Netlist, Sig};
use sbif_sat::{Budget, Lit, NetlistEncoder, SolveResult, Solver, SolverStats};
use std::collections::HashSet;

/// Conflict budget per window check; exhausted checks count as "not
/// proven" (sound: fewer merges, never wrong ones).
pub const SAT_CONFLICTS: u64 = 2_000;

/// How many distinct candidate classes a signal tries before giving up
/// on it.
pub const MAX_CANDIDATES: usize = 4;

/// Configuration of Alg. 1.
#[derive(Debug, Clone, Copy)]
pub struct SbifConfig {
    /// Maximal window depth `d_max` (the paper reports depth 4 suffices
    /// for the key antivalences).
    pub window_depth: usize,
    /// Workers for the window checks. A pass keeps `min(jobs, LANES) − 1`
    /// helper threads beside the calling thread for its whole length
    /// (see [`levels::LANES`]); `1` runs on the calling thread alone.
    /// Lane `l` of every level runs on worker `l % workers`, and the
    /// commit stays sequential, so any value produces bit-identical
    /// classes and statistics (DESIGN.md §7).
    pub jobs: usize,
    /// Number of window counterexamples buffered before a refinement
    /// flush at the next level boundary: the first 64 of them are
    /// simulated as one word, which splits the candidate buckets so
    /// spurious pairs are not re-checked.
    pub cex_flush: usize,
    /// Log a DRAT proof for every window check and replay each UNSAT
    /// answer through the independent checker in `sbif-check`. A merge is
    /// only committed if its certificate is accepted; results are
    /// recorded in [`SbifStats::cert`].
    pub certify: bool,
}

impl Default for SbifConfig {
    fn default() -> Self {
        SbifConfig {
            window_depth: 4,
            jobs: 1,
            cex_flush: 64,
            certify: false,
        }
    }
}

/// Statistics of an Alg. 1 run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SbifStats {
    /// Simulation-detected candidate pairs examined.
    pub candidates: usize,
    /// SAT checks performed.
    pub sat_checks: usize,
    /// Equivalences/antivalences proven (the "#equiv" column of
    /// Table II).
    pub proven: usize,
    /// Candidates not proven: the SAT check found a counterexample
    /// *within the window*. Because window frontiers are free variables,
    /// this does not imply the signals actually differ — only that the
    /// window was too small to prove them equal.
    pub refuted: usize,
    /// Checks abandoned on the conflict budget.
    pub unknown: usize,
    /// Counterexample-driven refinements: rounds in which buffered SAT
    /// models were simulated as one word and the candidate buckets
    /// split by it.
    pub refinements: usize,
    /// Wall-clock microseconds spent inside SAT checks, summed over all
    /// worker threads.
    pub sat_micros: u128,
    /// DRAT certificate statistics over the UNSAT window checks the
    /// commit relied on (all zero unless [`SbifConfig::certify`] is set).
    pub cert: CertStats,
    /// CDCL solver effort of the scan: the lane solvers' totals, absorbed
    /// at batch boundaries in lane order, plus the commit's fresh
    /// re-checks. Every check's encoding and solver history is fixed by
    /// the lane schedule, so the totals are identical for every `jobs`
    /// value — unlike [`sat_micros`](Self::sat_micros), they belong in
    /// the deterministic metrics report.
    pub solver: SolverStats,
    /// Why a governed run stopped scanning candidates early, at stage
    /// `"sbif"`. On [`sbif_govern::Resource::SatConflicts`] the
    /// cumulative committed solver-conflict ledger
    /// ([`solver`](Self::solver)) reached its budget
    /// ([`SbifHooks::conflict_budget`]): the classes found up to the cut
    /// are sound and committed, and the record is deterministic — the
    /// ledger is accounted commit-side, so the cut happens at the same
    /// signal for every `jobs` value. On the wall clock the watchdog
    /// cancelled the scan; that is *not* reproducible, and the run must
    /// never be cached.
    pub stopped: Option<Exhausted>,
    /// Candidate decisions that actually built a window solver. Without
    /// a [`SbifPrefilter`] this equals [`sat_checks`](Self::sat_checks);
    /// the gap is the SAT work the static analysis saved.
    pub windows_solved: usize,
    /// Candidate pairs merged on a structural proof (canonical-form
    /// equality over class representatives) with no solver built.
    pub prefilter_proven: usize,
    /// Candidate pairs refuted by the shadow simulation signatures with
    /// no solver built.
    pub prefilter_refuted: usize,
    /// Topological levels of the scanned netlist — the granularity of
    /// the barrier scheduler (see [`levels::LevelSchedule`]).
    pub levels: usize,
    /// Speculative candidate checks executed by the batch runners. The
    /// batch partition and every batch's input are fixed by the schedule
    /// (never by `jobs`), so this is deterministic.
    pub spec_attempts: usize,
    /// Speculative checks the deterministic commit reused. The
    /// speculation *hit rate* is `spec_hits / spec_attempts`; the rest
    /// are attempts the commit never asked for.
    pub spec_hits: usize,
    /// Shared incremental solvers built by the batch runners — at most
    /// one per batch, so ≥ 10× fewer than
    /// [`windows_solved`](Self::windows_solved) on the divider
    /// workloads. Commit-side fresh re-checks (speculation misses) and
    /// certified checks build per-window solvers that are *not* counted
    /// here.
    pub solver_inits: usize,
    /// Window checks served by the batch runners, on their shared
    /// solvers or, under [`SbifConfig::certify`], on per-window ones
    /// (speculative side; the commit-side equivalent is
    /// [`windows_solved`](Self::windows_solved)).
    pub batch_checks: usize,
}

/// How the prefilter decided a candidate pair without a solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefiltered {
    /// Structurally proven: the two gates are the same canonical
    /// function of the same class representatives.
    Structural,
    /// Refuted by a shadow-signature mismatch; the counterexample comes
    /// from the shadow input planes.
    Signature,
}

/// Static facts that let Alg. 1 decide candidate pairs without building
/// a window solver — the bridge from `sbif-analysis` into the scan
/// (constructed in `verify.rs` from an `AnalysisDb`).
///
/// Both shortcut directions return exactly the verdict the solver would
/// have returned, so the resulting classes are the ones Alg. 1 computes:
///
/// * **structural proofs** compare the two gates' canonical forms over
///   their current class representatives and only accept relations that
///   hold clause-by-clause in the window CNF (commutativity, De Morgan,
///   same-leaf reductions, or one root aliasing the other) — cases the
///   solver refutes by a handful of unit propagations;
/// * **signature refutations** require `shadow`/`planes` to come from
///   constraint-satisfying stimulus: a mismatching plane then extends to
///   a satisfying assignment of the window CNF (class representatives
///   agree with their members on every C-satisfying input), i.e. the
///   solver would answer SAT. Unconstrained planes would still be sound
///   for the classes (refuting only skips merges) but would diverge from
///   the solver's verdicts.
#[derive(Debug, Clone, Default)]
pub struct SbifPrefilter {
    /// Shadow signatures `[signal][word]` from an independent
    /// constraint-satisfying stimulus set (disjoint from the candidate
    /// detection planes).
    pub shadow: Vec<Vec<u64>>,
    /// The input planes `[input][word]` behind `shadow`; mismatches are
    /// turned into counterexamples by reading one bit column.
    pub planes: Vec<Vec<u64>>,
}

impl SbifPrefilter {
    /// Tries to decide the candidate `(a, b, ε)` without a solver;
    /// `None` falls through to [`check_window_pair`]'s CNF encoding.
    ///
    /// Structural proofs are skipped under `certify` — a prefiltered
    /// merge carries no DRAT certificate, and a certified run promises
    /// one per merge. Signature refutations never certify (SAT answers
    /// have witnesses, not proofs) and stay active.
    fn try_decide(
        &self,
        nl: &Netlist,
        classes: &EquivClasses,
        a: Sig,
        b: Sig,
        same_polarity: bool,
        certify: bool,
    ) -> Option<WindowOutcome> {
        if !certify {
            let ca = canon_of(nl.gate(a), |s| classes.rep(s));
            let cb = canon_of(nl.gate(b), |s| classes.rep(s));
            // Forced relation a = b ^ anti, when the forms expose one.
            // Besides identical shapes, `a` may alias `b` directly: the
            // window maps `a`'s fanin to its representative, and when
            // that representative *is* `b` the CNF ties the roots
            // together (`b` is a candidate, hence earlier than `a`; the
            // reverse aliasing cannot occur).
            let anti = match (&ca, &cb) {
                (Some(x), Some(y)) => relate(x, y),
                _ => None,
            }
            .or(match ca {
                Some(CanonForm::Lit(l, p)) if l == b => Some(p),
                _ => None,
            });
            if let Some(anti) = anti {
                // ε claims equivalence, ¬ε antivalence; a mismatching
                // forced relation would mean the candidate signatures
                // contradict a fact that holds under C — impossible with
                // C-satisfying stimulus — so fall through defensively.
                if anti != same_polarity {
                    return Some(WindowOutcome {
                        result: SolveResult::Unsat,
                        cex: None,
                        cert: None,
                        solver: SolverStats::default(),
                        prefiltered: Some(Prefiltered::Structural),
                    });
                }
            }
        }
        // Shadow-signature refutation: a pure function of `(a, b, ε)`.
        let (sa, sb) = (self.shadow.get(a.index())?, self.shadow.get(b.index())?);
        for (w, (&wa, &wb)) in sa.iter().zip(sb).enumerate() {
            let mismatch = if same_polarity { wa ^ wb } else { !(wa ^ wb) };
            if mismatch != 0 {
                let k = mismatch.trailing_zeros();
                let cex = self.planes.iter().map(|p| (p[w] >> k) & 1 == 1).collect();
                return Some(WindowOutcome {
                    result: SolveResult::Sat,
                    cex: Some(cex),
                    cert: None,
                    solver: SolverStats::default(),
                    prefiltered: Some(Prefiltered::Signature),
                });
            }
        }
        None
    }
}

/// The optional hooks of an Alg. 1 run. The [`Default`] is plain
/// Alg. 1: no prefilter, no budget, no cancellation.
///
/// The budget and the cancel token are the governed-run hooks
/// (DESIGN.md §16). Both are polled at the sequential commit boundary —
/// the budget before the cancel flag, so a deterministic exhaustion
/// always wins over a racing cancellation.
#[derive(Debug, Clone, Default)]
pub struct SbifHooks {
    /// Static-analysis facts that decide candidate pairs without
    /// building a window solver. The classes are the ones the plain run
    /// computes; only [`SbifStats::windows_solved`] moves.
    pub prefilter: Option<SbifPrefilter>,
    /// Stop scanning further signals once the commit-side conflict
    /// total ([`SbifStats::solver`]) reaches this. Partial classes are
    /// always sound (fewer merges, never wrong ones).
    pub conflict_budget: Option<u64>,
    /// Cooperative cancellation (records the token's
    /// [`exhausted`](CancelToken::exhausted) in [`SbifStats::stopped`]).
    pub cancel: Option<CancelToken>,
}

/// Runs Alg. 1: partitions the signals of `nl` into equivalence classes
/// (with polarity) under the input constraint.
///
/// `constraint` is a signal of `nl` that must be assumed 1 in every SAT
/// check (pass `None` for unconstrained sweeping); `sim_words` are the
/// simulation words per input — they must satisfy the constraint (see
/// [`divider_sim_words`]). `hooks` adds the prefilter, the conflict
/// budget and the cancel token (see [`SbifHooks`]); a budget or a
/// cancellation stops the scan early and records why in
/// [`SbifStats::stopped`].
///
/// # Examples
///
/// ```
/// use sbif_core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifHooks};
/// use sbif_netlist::build::nonrestoring_divider;
///
/// let div = nonrestoring_divider(3);
/// let sim = divider_sim_words(&div, 1, 2);
/// let (classes, stats) = forward_information(
///     &div.netlist,
///     Some(div.constraint),
///     &sim,
///     SbifConfig::default(),
///     &SbifHooks::default(),
/// );
/// assert!(stats.proven > 0);
/// // The paper's key fact: each quotient bit is antivalent to the sign
/// // bit of its stage's partial remainder.
/// for (j, &sign) in div.stage_signs.iter().enumerate() {
///     let q = div.quotient[div.n - 1 - j];
///     let (rq, pq) = classes.rep(q);
///     let (rs, ps) = classes.rep(sign);
///     assert_eq!(rq, rs);
///     assert_eq!(pq, !ps);
/// }
/// ```
pub fn forward_information(
    nl: &Netlist,
    constraint: Option<Sig>,
    sim_words: &[Vec<u64>],
    cfg: SbifConfig,
    hooks: &SbifHooks,
) -> (EquivClasses, SbifStats) {
    let num_words = sim_words.first().map_or(0, |v| v.len());

    // Line 2 of Alg. 1: simulate, one word (64 patterns) at a time.
    let words: Vec<Vec<u64>> = (0..num_words)
        .map(|w| {
            let plane: Vec<u64> = sim_words.iter().map(|v| v[w]).collect();
            nl.simulate64(&plane)
        })
        .collect();

    // Lines 5–11: candidate detection and window checking, fanned out
    // over `cfg.jobs` workers with a deterministic sequential commit.
    parallel::run(nl, constraint, &words, &cfg, hooks)
}

/// One windowed SAT check (line 10 of Alg. 1):
/// `UNSAT(CNF(a ⊕ b^ε, W_a, W_b, C))`.
///
/// The windows contain the gates up to `d_max` levels behind `a` and `b`,
/// with every fanin first replaced by the representative of its class
/// (information forwarding); window frontiers are free variables, which
/// keeps UNSAT answers sound. The constraint cone is encoded over the
/// original gates.
///
/// Returns the solver verdict, for SAT verdicts the primary-input
/// counterexample, and with [`SbifConfig::certify`] the DRAT-check
/// outcome of every UNSAT verdict. The encoding is a pure function of
/// `(a, b, ε)` and the classes, and the CDCL run is deterministic
/// (conflict budget, no wall-clock cutoffs), so the verdict, the model,
/// the proof and the returned [`SolverStats`] are reproducible.
///
/// Public as the reference oracle for the batched path: a
/// [`WindowBatch`] check of the same `(a, b, ε)` over the same classes
/// must return the same verdict (the differential property suite in
/// `tests/parallel_levels.rs` enforces this on random netlists).
#[allow(clippy::too_many_arguments)]
pub fn check_window_pair(
    nl: &Netlist,
    classes: &EquivClasses,
    constraint: Option<Sig>,
    a: Sig,
    b: Sig,
    same_polarity: bool,
    cfg: &SbifConfig,
    prefilter: Option<&SbifPrefilter>,
) -> WindowOutcome {
    if let Some(outcome) =
        prefilter.and_then(|p| p.try_decide(nl, classes, a, b, same_polarity, cfg.certify))
    {
        return outcome;
    }
    let (mut solver, mut enc) = constrained_solver(nl, constraint, cfg.certify);
    let (result, cex) =
        solve_window(nl, classes, &mut solver, &mut enc, a, b, same_polarity, cfg, None);
    let cert =
        (cfg.certify && result == SolveResult::Unsat).then(|| certify_solver_unsat(&solver));
    WindowOutcome { result, cex, cert, solver: solver.stats(), prefiltered: None }
}

/// Everything one windowed SAT check produced. The parallel commit
/// reuses speculative outcomes as they are (see the `parallel` module
/// docs for why that is sound and deterministic).
#[derive(Debug, Clone)]
pub struct WindowOutcome {
    /// The solver verdict.
    pub result: SolveResult,
    /// Primary-input counterexample for SAT verdicts.
    pub cex: Option<Vec<bool>>,
    /// DRAT-check outcome for certified UNSAT verdicts.
    pub cert: Option<CertOutcome>,
    /// The solver's counters for this one check (for a [`WindowBatch`]
    /// check: the delta of the shared solver's counters).
    pub solver: SolverStats,
    /// `Some` when the prefilter answered and no solver was built.
    pub prefiltered: Option<Prefiltered>,
}

/// A solver with the cone of the constraint `C` encoded over the
/// original gates and `C` asserted, plus the encoder holding its
/// variables; with `proof`, the solver logs a DRAT proof from its first
/// clause. Every SAT question of SBIF and of the residual decision
/// starts here.
pub(crate) fn constrained_solver(
    nl: &Netlist,
    constraint: Option<Sig>,
    proof: bool,
) -> (Solver, NetlistEncoder) {
    let mut solver = Solver::new();
    if proof {
        solver.enable_proof_log();
    }
    let mut enc = NetlistEncoder::new(nl);
    if let Some(c) = constraint {
        enc.encode_cone(&mut solver, nl, c);
        let lc = enc.lit(&mut solver, c);
        solver.add_clause([lc]);
    }
    (solver, enc)
}

/// The body of every window check, on a solver that already holds `C`:
/// encodes the windows `W_a` and `W_b` of depth `d_max`, asserts
/// `a ⊕ b^ε`, solves under the conflict budget and reads the
/// primary-input counterexample of a SAT verdict.
///
/// The windows are one walk backwards from `a`, then from `b`, that
/// maps every fanin to its class representative before it emits or
/// visits it, and emits each gate once per check. With a `guard`, every
/// clause is activation-guarded and the solve assumes the guard (the
/// batched path, [`WindowBatch`]); variables are allocated unguarded
/// either way.
#[allow(clippy::too_many_arguments)]
fn solve_window(
    nl: &Netlist,
    classes: &EquivClasses,
    solver: &mut Solver,
    enc: &mut NetlistEncoder,
    a: Sig,
    b: Sig,
    same_polarity: bool,
    cfg: &SbifConfig,
    guard: Option<Lit>,
) -> (SolveResult, Option<Vec<bool>>) {
    let mut encoded: HashSet<Sig> = HashSet::new();
    // A stack: `a`'s whole window is popped before `b` is.
    let mut stack = vec![(b, 0), (a, 0)];
    while let Some((s, d)) = stack.pop() {
        if !encoded.insert(s) {
            continue;
        }
        enc.emit_gate(solver, nl, s, guard, |enc, solver, x| {
            let (r, neg) = classes.rep(x);
            let l = enc.lit(solver, r);
            if neg {
                !l
            } else {
                l
            }
        });
        if d < cfg.window_depth {
            stack.extend(nl.gate(s).fanins().map(|x| (classes.rep(x).0, d + 1)));
        }
    }
    let la = enc.lit(solver, a);
    let lb = enc.lit(solver, b);
    // Candidate equivalence: assert a ≠ b; candidate antivalence: a = b.
    let lb = if same_polarity { lb } else { !lb };
    for clause in [[la, lb], [!la, !lb]] {
        match guard {
            Some(g) => solver.add_clause_activated(g, clause),
            None => solver.add_clause(clause),
        };
    }
    let result =
        solver.solve_with(guard.as_slice(), Budget::new().with_conflicts(SAT_CONFLICTS));
    let cex = (result == SolveResult::Sat).then(|| {
        nl.inputs()
            .iter()
            .map(|&s| enc.peek_lit(s).and_then(|l| solver.model_lit(l)).unwrap_or(false))
            .collect()
    });
    (result, cex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::build::nonrestoring_divider;

    /// All class facts must hold on every valid input (soundness of the
    /// whole Alg. 1 pipeline).
    #[test]
    fn classes_are_sound_under_constraint() {
        for n in [2usize, 3, 4] {
            let div = nonrestoring_divider(n);
            let sim = divider_sim_words(&div, 3, 2);
            let (classes, _) = forward_information(
                &div.netlist,
                Some(div.constraint),
                &sim,
                SbifConfig::default(),
                &SbifHooks::default(),
            );
            // exhaustive check over valid inputs
            for dv in 1u64..(1 << (n - 1)) {
                for r0 in 0..(dv << (n - 1)) {
                    let inputs: Vec<bool> = div
                        .netlist
                        .inputs()
                        .iter()
                        .map(|&s| {
                            let name = div.netlist.name(s).expect("named");
                            let (bus, idx) = name.split_once('[').map(|(b, r)| {
                                (b, r.trim_end_matches(']').parse::<usize>().expect("idx"))
                            }).expect("bus");
                            let v = if bus == "r0" { r0 } else { dv };
                            (v >> idx) & 1 == 1
                        })
                        .collect();
                    let vals = div.netlist.simulate_bool(&inputs);
                    for s in div.netlist.signals() {
                        let (r, neg) = classes.rep(s);
                        assert_eq!(
                            vals[s.index()],
                            vals[r.index()] ^ neg,
                            "n={n} r0={r0} d={dv}: {s} vs rep {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quotient_sign_antivalences_found() {
        let div = nonrestoring_divider(5);
        let sim = divider_sim_words(&div, 11, 2);
        let (classes, stats) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
            &SbifHooks::default(),
        );
        assert!(stats.proven > 0);
        for (j, &sign) in div.stage_signs.iter().enumerate() {
            let q = div.quotient[div.n - 1 - j];
            let (rq, pq) = classes.rep(q);
            let (rs, ps) = classes.rep(sign);
            assert_eq!(rq, rs, "stage {j}: q and sign must share a class");
            assert_eq!(pq, !ps, "stage {j}: antivalent polarity");
        }
    }

    #[test]
    fn stage_controls_antivalent_to_previous_signs() {
        // ctrl_j = ¬sign_{j−1} — the fact that kills the overflow terms.
        let div = nonrestoring_divider(4);
        let sim = divider_sim_words(&div, 5, 2);
        let (classes, _) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
            &SbifHooks::default(),
        );
        // At least one non-singleton class must contain a stage sign.
        let has_sign_class = div
            .stage_signs
            .iter()
            .any(|&s| !classes.is_rep(s) || classes.classes().iter().any(|(r, _)| *r == s));
        assert!(has_sign_class);
    }

    #[test]
    fn constant_signals_collapse_onto_constants() {
        // For n = 2 the constraint forces d[0] = 1 and r0[2] = 0, so
        // those inputs join the constant classes; the representatives
        // are the constants (they are created first).
        let div = nonrestoring_divider(2);
        let sim = divider_sim_words(&div, 17, 2);
        let (classes, _) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
            &SbifHooks::default(),
        );
        let d0 = div.netlist.inputs()[2]; // r0[0], r0[1], d[0]
        assert_eq!(div.netlist.name(d0), Some("d[0]"));
        let (rep, neg) = classes.rep(d0);
        // d[0] ≡ 1 under C: merged with a constant signal.
        assert!(div.netlist.gate(rep).is_const(), "rep of d[0] must be a constant");
        let const_val = div.netlist.const_value(rep).expect("const");
        assert!(const_val ^ neg, "d[0] is 1 under C");
    }

    #[test]
    fn unconstrained_sweep_is_sound_everywhere() {
        let div = nonrestoring_divider(3);
        // Unconstrained: simulate with arbitrary input patterns.
        let ni = div.netlist.inputs().len();
        let sim: Vec<Vec<u64>> = (0..ni)
            .map(|i| vec![0x9E3779B97F4A7C15u64.rotate_left(7 * i as u32)])
            .collect();
        let (classes, _) = forward_information(
            &div.netlist,
            None,
            &sim,
            SbifConfig::default(),
            &SbifHooks::default(),
        );
        for bits in 0u64..(1 << ni) {
            let inputs: Vec<bool> = (0..ni).map(|i| (bits >> i) & 1 == 1).collect();
            let vals = div.netlist.simulate_bool(&inputs);
            for s in div.netlist.signals() {
                let (r, neg) = classes.rep(s);
                assert_eq!(vals[s.index()], vals[r.index()] ^ neg, "bits={bits:b}");
            }
        }
    }

    #[test]
    fn certified_run_checks_every_merge() {
        let div = nonrestoring_divider(3);
        let sim = divider_sim_words(&div, 7, 2);
        let plain = SbifConfig::default();
        let certified = SbifConfig { certify: true, ..plain };
        let (classes_p, stats_p) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            plain,
            &SbifHooks::default(),
        );
        let (classes_c, stats_c) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            certified,
            &SbifHooks::default(),
        );
        // Every committed merge carries exactly one accepted certificate,
        // and certification must not change what is proven.
        assert_eq!(stats_c.cert.checked as usize, stats_c.proven);
        assert!(stats_c.cert.all_accepted(), "rejected: {}", stats_c.cert.rejected);
        assert!(stats_c.cert.checked > 0);
        assert!(stats_c.cert.steps_used <= stats_c.cert.steps_logged);
        assert_eq!(stats_p.proven, stats_c.proven);
        for s in div.netlist.signals() {
            assert_eq!(classes_p.rep(s), classes_c.rep(s));
        }
        // The plain run logs nothing.
        assert_eq!(stats_p.cert, sbif_check::CertStats::default());
    }

    #[test]
    fn depth_zero_windows_prove_nothing_semantic() {
        // With d_max = 0 only the roots' own gates are encoded; the
        // quotient/sign antivalence needs at least the shared fanins, so
        // far fewer facts are provable than with depth 4.
        let div = nonrestoring_divider(4);
        let sim = divider_sim_words(&div, 9, 2);
        let shallow = SbifConfig { window_depth: 0, ..SbifConfig::default() };
        let (_, s0) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            shallow,
            &SbifHooks::default(),
        );
        let (_, s4) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
            &SbifHooks::default(),
        );
        assert!(s4.proven > s0.proven, "deeper windows must prove more ({} vs {})", s4.proven, s0.proven);
    }
}

//! The end-to-end divider verifier: SBIF + modified backward rewriting
//! for vc1, BDDs for vc2.

use crate::error::VerifyError;
use crate::rewrite::{BackwardRewriter, RewriteConfig, RewriteStats};
use crate::sbif::{
    constrained_solver, divider_sim_words, forward_information, EquivClasses, SbifConfig,
    SbifHooks, SbifPrefilter, SbifStats,
};
use crate::spec::divider_spec;
use crate::vc2::{check_vc2_governed, Vc2Report};
use sbif_analysis::{analyze, AnalysisConfig, AnalysisDb};
use sbif_apint::Int;
use sbif_cec::{certify_solver_unsat, CecResult};
use sbif_check::CertStats;
use sbif_govern::{CancelToken, Exhausted, GovernConfig, Resource, Verdict, Watchdog};
use sbif_netlist::build::Divider;
use sbif_netlist::{Sig, Word};
use sbif_trace::{MetricsReport, Recorder};
use std::time::{Duration, Instant};

/// Seed of the flow's constrained stimulus: candidate detection samples
/// it, and the smoke check, the analysis' shadow planes and the residual
/// sampling each sample a seed derived from it.
const SEED: u64 = 0xD1_71DE5;

/// Simulation words (64 patterns each) of candidate detection and of the
/// shadow planes.
const SIM_WORDS: usize = 2;

/// Configuration of the full verification flow.
#[derive(Debug, Clone, Copy)]
pub struct VerifierConfig {
    /// Alg. 1 configuration. Its [`SbifConfig::certify`] switch turns
    /// on proof logging in every SAT-answering stage of the flow: the
    /// SBIF window checks, the vc1 residual decision and the vc2 SAT
    /// fallback each replay their UNSAT answers through the independent
    /// DRAT checker, aggregated in
    /// [`VerificationReport::certificates`].
    pub sbif: SbifConfig,
    /// Backward rewriting configuration (term limit, tracing).
    pub rewrite: RewriteConfig,
    /// Skip SBIF entirely (plain backward rewriting — the failing
    /// baseline of Sect. III; expect blow-ups beyond tiny widths).
    pub use_sbif: bool,
    /// Run the cheap simulation smoke check before the symbolic flow
    /// (refutes grossly broken netlists immediately). Disable to force
    /// every refutation through backward rewriting.
    pub smoke_check: bool,
    /// Also check vc2 (`0 ≤ R < D`).
    pub check_vc2: bool,
    /// Resource governor (DESIGN.md §16). All-`None` (the default) is
    /// ungoverned: every stage behaves exactly as before, byte for
    /// byte. Setting any budget turns on graceful degradation — typed
    /// [`Exhausted`] outcomes and the engine fallback ladder instead of
    /// hard errors.
    pub govern: GovernConfig,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            sbif: SbifConfig::default(),
            rewrite: RewriteConfig { max_terms: Some(20_000_000), ..RewriteConfig::default() },
            use_sbif: true,
            smoke_check: true,
            check_vc2: true,
            govern: GovernConfig::default(),
        }
    }
}

/// Outcome of the vc1 check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vc1Outcome {
    /// The specification polynomial reduced to 0: `R⁰ = Q·D + R` holds
    /// for every input satisfying the constraint.
    Proven,
    /// The residual polynomial was non-zero and evaluating it on a
    /// valid input produced a non-zero value: the divider is buggy.
    Refuted {
        /// A dividend value witnessing the bug.
        dividend: Int,
        /// The corresponding divisor value.
        divisor: Int,
    },
    /// The residual was non-zero but no concrete counterexample was
    /// found by sampling — the method is incomplete in this direction
    /// (the paper only claims the `residual = 0 ⇒ correct` direction).
    Inconclusive {
        /// Number of terms of the residual polynomial.
        residual_terms: usize,
    },
    /// A governed budget (or the wall-clock watchdog) stopped vc1
    /// before a decision; only produced when
    /// [`VerifierConfig::govern`] is active.
    Exhausted(Exhausted),
}

/// Everything measured while checking vc1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vc1Report {
    /// Proven / refuted / inconclusive.
    pub outcome: Vc1Outcome,
    /// Alg. 1 statistics (the SBIF columns of Table II).
    pub sbif: SbifStats,
    /// Rewriting statistics (peak terms etc.).
    pub rewrite: RewriteStats,
    /// Wall-clock time of the SBIF phase.
    pub sbif_time: Duration,
    /// Wall-clock time of the rewriting phase.
    pub rewrite_time: Duration,
    /// DRAT certificates of the residual decision's UNSAT answers (all
    /// zero unless [`SbifConfig::certify`] is set; the SBIF window
    /// certificates live in [`SbifStats::cert`]).
    pub cert: CertStats,
}

/// Result of the bounded SAT fallback that decided vc2 after the BDD
/// traversal exhausted its live-node budget — the second rung of the
/// engine fallback ladder (DESIGN.md §16).
#[derive(Debug, Clone, PartialEq)]
pub struct Vc2Fallback {
    /// `Some(true)`: the miter is UNSAT, vc2 proven by SAT.
    /// `Some(false)`: a model violating `0 ≤ R < D` was found.
    /// `None`: the conflict budget ran out too (`Inconclusive`).
    pub holds: Option<bool>,
    /// Violating input assignment when `holds == Some(false)`, as
    /// `(input name, value)` pairs.
    pub counterexample: Option<Vec<(String, bool)>>,
    /// Conflicts the fallback query spent (deterministic — one
    /// single-threaded solver run).
    pub conflicts: u64,
    /// The configured conflict budget.
    pub budget: u64,
    /// DRAT certificate statistics of the fallback's UNSAT answer
    /// (populated under [`SbifConfig::certify`]).
    pub cert: CertStats,
}

/// The complete report of a divider verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// The vc1 (value equation) result.
    pub vc1: Vc1Report,
    /// The vc2 (remainder range) result, when enabled.
    pub vc2: Option<Vc2Report>,
    /// The bounded SAT fallback that took over when the governed vc2
    /// BDD traversal exhausted its live-node budget.
    pub vc2_fallback: Option<Vc2Fallback>,
    /// Wall-clock time of the vc2 phase.
    pub vc2_time: Duration,
    /// The three-valued verdict: `Proven` / `Refuted` /
    /// `Inconclusive { exhausted_at }`. Ungoverned runs never produce
    /// `Inconclusive` from a budget (only from the paper's incomplete
    /// residual-sampling direction).
    pub verdict: Verdict,
    /// `true` when the wall-clock watchdog cut any stage short. Such a
    /// run is **not reproducible** and must never be written to the
    /// result cache (DESIGN.md §16 determinism rules).
    pub cancelled: bool,
    /// The deterministic metrics payload of the run: every counter and
    /// gauge the pipeline recorded, frozen by
    /// [`Recorder::finish`]. Byte-identical (via
    /// [`MetricsReport::to_json`]) for every [`SbifConfig::jobs`] value
    /// and across machines — wall-clock and speculation-dependent
    /// numbers live in the explicit `*_time` / [`SbifStats`] fields
    /// instead.
    pub metrics: MetricsReport,
}

impl VerificationReport {
    /// `true` iff both conditions of Definition 1 were proven
    /// (`Inconclusive` is not correct, but not refuted either — check
    /// [`VerificationReport::verdict`] to distinguish).
    pub fn is_correct(&self) -> bool {
        self.verdict.is_proven()
    }

    /// All certificate statistics of the run, merged over the SBIF
    /// window checks, the vc1 residual decision and the vc2 SAT
    /// fallback.
    pub fn certificates(&self) -> CertStats {
        let mut c = self.vc1.cert;
        c.merge(self.vc1.sbif.cert);
        if let Some(f) = &self.vc2_fallback {
            c.merge(f.cert);
        }
        c
    }
}

/// The fully automatic divider verifier of the paper.
///
/// No golden circuit, no hierarchy information: the verifier works on the
/// flat gate-level netlist and the abstract specification of Definition 1.
///
/// # Examples
///
/// ```
/// use sbif_core::verify::DividerVerifier;
/// use sbif_netlist::build::nonrestoring_divider;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let divider = nonrestoring_divider(6);
/// let report = DividerVerifier::new(&divider).verify()?;
/// assert!(report.is_correct());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DividerVerifier<'a> {
    divider: &'a Divider,
    config: VerifierConfig,
    recorder: Recorder,
}

/// Checks the operand interface the flow samples its stimulus through:
/// every primary input is exactly one bit of the dividend and divisor
/// words, `n ≥ 2`, and the words are `2n−2` and `n−1` bits wide. A
/// hand-assembled [`Divider`] (the fault-injection subsystem builds them
/// wholesale) may break this and must surface as an error, not a panic.
/// A word bit that is no signal of the netlist at all is a broken
/// `Divider` value, not an interface, and panics like any out-of-range
/// [`Sig`].
fn check_interface(div: &Divider) -> Result<(), VerifyError> {
    let malformed = |msg: String| Err(VerifyError::MalformedInterface(msg));
    let (n, nl) = (div.n, &div.netlist);
    let label = |s: Sig| nl.name(s).map_or_else(|| s.to_string(), |name| format!("{name:?}"));
    let mut operand = vec![false; nl.num_signals()];
    for &s in div.dividend.iter().chain(div.divisor.iter()) {
        if !nl.gate(s).is_input() {
            return malformed(format!("operand bit {s} is no primary input"));
        }
        if std::mem::replace(&mut operand[s.index()], true) {
            return malformed(format!("primary input {} is two operand bits", label(s)));
        }
    }
    if let Some(&s) = nl.inputs().iter().find(|s| !operand[s.index()]) {
        return malformed(format!("primary input {} is in neither operand word", label(s)));
    }
    if n < 2 {
        return malformed(format!("width n = {n} is below 2"));
    }
    let words = [("dividend", &div.dividend, 2 * n - 2), ("divisor", &div.divisor, n - 1)];
    match words.into_iter().find(|(_, bits, width)| bits.len() != *width) {
        Some((word, bits, width)) => malformed(format!(
            "the {word} word has {} bits, expected {width} for n = {n}",
            bits.len()
        )),
        None => Ok(()),
    }
}

/// The unsigned value of `word` when each of its bits is `bit(signal)`.
fn word_value(word: &Word, bit: impl Fn(Sig) -> bool) -> Int {
    let mut value = Int::zero();
    for (i, &s) in word.iter().enumerate() {
        if bit(s) {
            value += Int::pow2(i as u32);
        }
    }
    value
}

/// The refutation whose operands are read through `div`'s words, each
/// bit as `bit(signal)`.
fn refuted(div: &Divider, bit: impl Fn(Sig) -> bool) -> Vc1Outcome {
    Vc1Outcome::Refuted {
        dividend: word_value(&div.dividend, &bit),
        divisor: word_value(&div.divisor, &bit),
    }
}

impl<'a> DividerVerifier<'a> {
    /// A verifier with the default configuration (SBIF on, vc2 on).
    pub fn new(divider: &'a Divider) -> Self {
        DividerVerifier {
            divider,
            config: VerifierConfig::default(),
            recorder: Recorder::new(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: VerifierConfig) -> Self {
        self.config = config;
        self
    }

    /// Uses `recorder` for the run's spans, counters and gauges — attach
    /// sinks to it beforehand to stream the events (`--trace` in the
    /// CLI). Each recorder is meant to observe one `verify()` call: the
    /// deterministic payload accumulates, so reusing one across runs
    /// sums their counters.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs the configured flow.
    ///
    /// # Errors
    ///
    /// [`VerifyError::MalformedInterface`] when the divider's operand
    /// words do not cover its primary inputs exactly, and
    /// [`VerifyError::TermLimitExceeded`] when backward rewriting blows
    /// up (expected without SBIF beyond small widths).
    pub fn verify(&self) -> Result<VerificationReport, VerifyError> {
        check_interface(self.divider)?;
        let g = self.config.govern;
        // The watchdog must stay alive for the whole run: dropping it
        // disarms.
        let (_watchdog, cancel) =
            g.timeout_ms.map(|ms| Watchdog::arm(Duration::from_millis(ms))).unzip();
        let verify_span = self.recorder.span("verify");
        let vc1 = self.vc1_governed(cancel.as_ref())?;
        let t0 = Instant::now();
        // A refuted vc1 already settles the verdict; the vc2 BDD
        // traversal can be arbitrarily expensive on a broken netlist
        // (the nice divider structure it relies on is gone), so skip
        // it. A cancelled vc1 means the watchdog already fired — vc2
        // would only return cancelled too.
        let run_vc2 = self.config.check_vc2
            && !matches!(vc1.outcome, Vc1Outcome::Refuted { .. })
            && !matches!(vc1.outcome, Vc1Outcome::Exhausted(e) if !e.deterministic());
        let mut vc2 = None;
        let mut vc2_fallback = None;
        // Why vc2 stopped without a verdict, if it did.
        let mut vc2_stopped: Option<Exhausted> = None;
        if run_vc2 {
            let span = self.recorder.span("vc2");
            match check_vc2_governed(self.divider, g.vc2_live_nodes, cancel.as_ref()) {
                Ok(report) => {
                    self.record_vc2_metrics(&report);
                    vc2 = Some(report);
                }
                Err(ex) if ex.deterministic() => {
                    // Deterministic live-node exhaustion: degrade to one
                    // bounded SAT query of the vc2 property — the next
                    // rung of the fallback ladder.
                    self.recorder.add("govern.vc2_exhausted", 1);
                    self.recorder.add("govern.vc2_live_nodes_spent", ex.spent);
                    let (fallback, stopped) = self.vc2_sat_fallback(cancel.as_ref());
                    vc2_fallback = Some(fallback);
                    vc2_stopped = stopped;
                }
                // Wall-clock cancellation mid-traversal: no fallback,
                // the whole flow is being torn down.
                Err(ex) => vc2_stopped = Some(ex),
            }
            span.close();
        }
        verify_span.close();

        let refuted = matches!(vc1.outcome, Vc1Outcome::Refuted { .. })
            || vc2.as_ref().is_some_and(|r| !r.holds)
            || vc2_fallback.as_ref().is_some_and(|f| f.holds == Some(false));
        let vc1_stopped = match vc1.outcome {
            Vc1Outcome::Exhausted(e) => Some(e),
            _ => None,
        };
        let cancelled = vc1_stopped.iter().chain(&vc2_stopped).any(|e| !e.deterministic());
        let verdict = if refuted {
            Verdict::Refuted
        } else if let Some(e) = vc1_stopped {
            Verdict::Inconclusive { exhausted_at: e }
        } else if let Vc1Outcome::Inconclusive { residual_terms } = vc1.outcome {
            // The paper's incomplete direction: a non-zero residual that
            // sampling could not refute. Not a budget exhaustion, but
            // still short of a proof.
            Verdict::Inconclusive {
                exhausted_at: Exhausted {
                    stage: "residual",
                    resource: Resource::AnalysisSteps,
                    spent: residual_terms as u64,
                    limit: 0,
                },
            }
        } else if let Some(e) = vc2_stopped {
            Verdict::Inconclusive { exhausted_at: e }
        } else {
            Verdict::Proven
        };
        if cancelled {
            // Nondeterministic by nature; cancelled runs are excluded
            // from the byte-identity contract and never cached.
            self.recorder.add("govern.cancelled", 1);
        }
        let metrics = self.recorder.finish();
        Ok(VerificationReport {
            vc1,
            vc2,
            vc2_fallback,
            vc2_time: t0.elapsed(),
            verdict,
            cancelled,
            metrics,
        })
    }

    /// The bounded SAT fallback that decides vc2 once the BDD
    /// traversal ran out of live nodes. Returns the fallback's report
    /// and, when it decided nothing, why it stopped.
    fn vc2_sat_fallback(&self, cancel: Option<&CancelToken>) -> (Vc2Fallback, Option<Exhausted>) {
        let budget =
            self.config.govern.vc2_sat_conflicts.unwrap_or(GovernConfig::DEFAULT_VC2_SAT_CONFLICTS);
        let sat_budget = sbif_sat::Budget {
            max_conflicts: Some(budget),
            interrupt: cancel.map(CancelToken::flag),
        };
        let span = self.recorder.span("vc2-sat");
        let outcome = sbif_cec::vc2_sat(self.divider, sat_budget, self.config.sbif.certify);
        span.close();
        self.recorder.add("govern.vc2_sat_fallback", 1);
        let conflicts = outcome.stats.solver.conflicts;
        let (holds, counterexample, stopped) = match outcome.result {
            CecResult::Equivalent => (Some(true), None, None),
            CecResult::NotEquivalent(cex) => (Some(false), Some(cex), None),
            CecResult::Unknown => {
                // `sbif-cec` cannot build the record. The solver checks
                // the conflict cap first, so reaching it wins the
                // attribution over a racing cancellation.
                let stop = match cancel {
                    Some(token) if conflicts < budget => token.exhausted("vc2"),
                    _ => {
                        self.recorder.add("govern.vc2_sat_exhausted", 1);
                        Exhausted {
                            stage: "vc2-sat",
                            resource: Resource::SatConflicts,
                            spent: conflicts,
                            limit: budget,
                        }
                    }
                };
                (None, None, Some(stop))
            }
        };
        let cert = outcome.stats.cert;
        (Vc2Fallback { holds, counterexample, conflicts, budget, cert }, stopped)
    }

    /// The vc1 flow proper, polling `cancel` at stage boundaries.
    fn vc1_governed(&self, cancel: Option<&CancelToken>) -> Result<Vc1Report, VerifyError> {
        let div = self.divider;
        let g = self.config.govern;
        let _vc1_span = self.recorder.span("vc1");
        let t0 = Instant::now();
        // Cheap smoke refutation: badly broken dividers (mis-wired
        // outputs, wrong operators on hot paths) violate vc1 on random
        // constrained inputs already; catching them here produces an
        // immediate counterexample instead of a polynomial blow-up.
        if self.config.smoke_check {
            let span = self.recorder.span("smoke");
            let cex = self.simulation_counterexample();
            span.close();
            if let Some(outcome) = cex {
                self.recorder.add("vc1.smoke_refuted", 1);
                return Ok(Vc1Report {
                    outcome,
                    sbif: SbifStats::default(),
                    rewrite: RewriteStats::default(),
                    sbif_time: t0.elapsed(),
                    rewrite_time: Duration::default(),
                    cert: CertStats::default(),
                });
            }
        }
        let (classes, sbif_stats) = if self.config.use_sbif {
            // Static analysis first: its facts (shadow signatures,
            // structural forms) prefilter the window checks without
            // changing the classes.
            let span = self.recorder.span("analysis");
            let db = analyze(&div.netlist, &self.analysis_config(), &self.recorder);
            span.close();
            let span = self.recorder.span("sbif");
            let sim = divider_sim_words(div, SEED, SIM_WORDS);
            // The governor's conflict budget is accounted commit-side
            // (cumulative absorbed solver conflicts), so the cut lands
            // on the same signal for every `--jobs` value. All-`None`
            // governors poll nothing and change nothing.
            let hooks = SbifHooks {
                prefilter: Some(SbifPrefilter { shadow: db.shadow, planes: db.shadow_planes }),
                conflict_budget: g.sbif_conflicts,
                cancel: cancel.cloned(),
            };
            let (c, s) = forward_information(
                &div.netlist,
                Some(div.constraint),
                &sim,
                self.config.sbif,
                &hooks,
            );
            span.close();
            (Some(c), s)
        } else {
            (None, SbifStats::default())
        };
        let sbif_time = t0.elapsed();
        if let Some(e) = sbif_stats.stopped.filter(|e| !e.deterministic()) {
            // The watchdog fired mid-scan. Deterministic budget cuts
            // fall through instead: the classes found so far are sound,
            // and rewriting continues with them — the first rung of the
            // fallback ladder.
            let report = Vc1Report {
                outcome: Vc1Outcome::Exhausted(e),
                sbif: sbif_stats,
                rewrite: RewriteStats::default(),
                sbif_time,
                rewrite_time: Duration::default(),
                cert: CertStats::default(),
            };
            self.record_vc1_metrics(&report, classes.as_ref());
            return Ok(report);
        }

        let t1 = Instant::now();
        let rewrite_span = self.recorder.span("rewrite");
        let spec = divider_spec(div);
        let mut rw_cfg = self.config.rewrite;
        if let Some(budget) = g.rewrite_terms {
            rw_cfg.max_terms = Some(rw_cfg.max_terms.map_or(budget, |m| m.min(budget)));
        }
        let mut rewriter = BackwardRewriter::new(&div.netlist).with_config(rw_cfg);
        if let Some(token) = cancel {
            rewriter = rewriter.with_interrupt(token.clone());
        }
        if let Some(c) = classes.as_ref() {
            rewriter = rewriter.with_classes(c);
        }
        let run = rewriter.run(spec);
        rewrite_span.close();
        let rewrite_time = t1.elapsed();

        let (outcome, rewrite_stats, cert) = match run {
            Ok((residual, rewrite_stats)) => {
                let (outcome, cert) = if residual.is_zero() {
                    (Vc1Outcome::Proven, CertStats::default())
                } else {
                    // SBIF classes hold under the constraint C, so the
                    // residual only needs to vanish on C-satisfying
                    // inputs. Decide that exactly when the residual's
                    // support is small; otherwise fall back to sampling.
                    let span = self.recorder.span("residual");
                    let decided = self.decide_residual(&residual);
                    span.close();
                    decided
                };
                (outcome, rewrite_stats, cert)
            }
            Err(VerifyError::TermLimitExceeded { limit, reached, steps })
                if g.rewrite_terms.is_some() =>
            {
                // Governed blow-up: a typed Inconclusive, not an abort.
                // Rewriting is single-threaded, so `reached` is
                // deterministic and cacheable.
                let stats = RewriteStats {
                    steps,
                    peak_terms: reached,
                    ..RewriteStats::default()
                };
                let e = Exhausted {
                    stage: "rewrite",
                    resource: Resource::RewriteTerms,
                    spent: reached as u64,
                    limit: limit as u64,
                };
                (Vc1Outcome::Exhausted(e), stats, CertStats::default())
            }
            Err(VerifyError::Timeout(e)) => {
                (Vc1Outcome::Exhausted(e), RewriteStats::default(), CertStats::default())
            }
            Err(e) => return Err(e),
        };
        let report = Vc1Report {
            outcome,
            sbif: sbif_stats,
            rewrite: rewrite_stats,
            sbif_time,
            rewrite_time,
            cert,
        };
        self.record_vc1_metrics(&report, classes.as_ref());
        Ok(report)
    }

    /// The analysis configuration of this run: the divider's constraint
    /// plus shadow stimulus planes from a seed disjoint from the
    /// candidate-detection planes, so prefilter refutations rest on
    /// independent evidence.
    fn analysis_config(&self) -> AnalysisConfig {
        AnalysisConfig {
            constraint: Some(self.divider.constraint),
            shadow_planes: Some(divider_sim_words(self.divider, SEED ^ 0x511A_D0E5, SIM_WORDS)),
        }
    }

    /// Runs the static-analysis pipeline this verifier's flow would use
    /// and returns the fact database — `sbif-verify --analysis-out`
    /// serializes it via [`AnalysisDb::to_json`]. Deterministic and
    /// independent of [`verify`](Self::verify) (counters go to a
    /// throwaway recorder, so a later verification is not perturbed).
    ///
    /// # Errors
    ///
    /// [`VerifyError::MalformedInterface`] when the divider's operand
    /// words do not cover its primary inputs exactly, as in
    /// [`verify`](Self::verify).
    pub fn analysis_db(&self) -> Result<AnalysisDb, VerifyError> {
        check_interface(self.divider)?;
        Ok(analyze(&self.divider.netlist, &self.analysis_config(), &Recorder::new()))
    }

    /// Records the deterministic vc1 metrics. Wall-clock numbers
    /// (`sat_micros`) are intentionally absent — they vary with the
    /// machine, and the metrics payload must not. The speculation
    /// counters *are* recorded: under the level-barrier engine the lane
    /// schedule is a pure function of `(netlist, config)`, so attempts,
    /// hits, and solver inits are byte-identical at any `--jobs`.
    fn record_vc1_metrics(&self, report: &Vc1Report, classes: Option<&EquivClasses>) {
        let r = &self.recorder;
        let s = &report.sbif;
        r.add("sbif.candidates", s.candidates as u64);
        r.add("sbif.sat_checks", s.sat_checks as u64);
        r.add("sbif.windows_solved", s.windows_solved as u64);
        r.add("analysis.prefilter_proven", s.prefilter_proven as u64);
        r.add("analysis.prefilter_refuted", s.prefilter_refuted as u64);
        r.add("sbif.proven", s.proven as u64);
        r.add("sbif.refuted", s.refuted as u64);
        r.add("sbif.unknown", s.unknown as u64);
        r.add("sbif.refinements", s.refinements as u64);
        r.add("sbif.level.count", s.levels as u64);
        r.add("sbif.level.spec_attempts", s.spec_attempts as u64);
        r.add("sbif.level.spec_hits", s.spec_hits as u64);
        if let Some(permille) = (s.spec_hits * 1000).checked_div(s.spec_attempts) {
            r.gauge_max("sbif.level.spec_hit_permille", permille as u64);
        }
        r.add("sbif.batch.solver_inits", s.solver_inits as u64);
        r.add("sbif.batch.checks", s.batch_checks as u64);
        r.add("sbif.sat.decisions", s.solver.decisions);
        r.add("sbif.sat.conflicts", s.solver.conflicts);
        r.add("sbif.sat.propagations", s.solver.propagations);
        r.add("sbif.sat.restarts", s.solver.restarts);
        r.add("sbif.sat.learnts", s.solver.learnts);
        r.add("sbif.sat.deleted", s.solver.deleted);
        // Governor counters are recorded only on exhaustion events, so
        // a governed run that never trips a budget stays byte-identical
        // to the ungoverned run (which makes normalizing the governor
        // out of the cache fingerprint sound).
        if let Some(e) = s.stopped.filter(Exhausted::deterministic) {
            r.add("govern.sbif_exhausted", 1);
            r.add("govern.sbif_conflicts_spent", e.spent);
        }
        if let Vc1Outcome::Exhausted(e) = &report.outcome {
            if e.deterministic() {
                r.add(&format!("govern.{}_exhausted", e.stage), 1);
                r.add(&format!("govern.{}_spent", e.stage), e.spent);
            }
        }
        if let Some(c) = classes {
            r.add("sbif.merges", c.num_merges() as u64);
            for (size, count) in c.size_histogram() {
                r.add(&format!("sbif.class_size.{size}"), count as u64);
            }
        }
        let w = &report.rewrite;
        r.add("rewrite.steps", w.steps as u64);
        r.add("rewrite.block_substitutions", w.block_substitutions as u64);
        r.add("rewrite.total_terms", w.total_terms);
        r.gauge_max("rewrite.peak_terms", w.peak_terms as u64);
        r.gauge_max("rewrite.final_terms", w.final_terms as u64);
        let mut cert = report.cert;
        cert.merge(s.cert);
        if cert.checked > 0 {
            r.add("cert.checked", u64::from(cert.checked));
            r.add("cert.rejected", u64::from(cert.rejected));
            r.add("cert.steps_logged", cert.steps_logged);
            r.add("cert.steps_used", cert.steps_used);
            r.add("cert.drat_bytes", cert.drat_bytes);
            // Integer permille of used steps: deterministic (no float
            // rounding in the payload), 1000 when nothing was logged.
            let permille = (cert.steps_used * 1000)
                .checked_div(cert.steps_logged)
                .unwrap_or(1000);
            r.gauge_max("cert.used_permille", permille);
        }
    }

    /// Records the deterministic vc2 metrics (BDD table sizes and the
    /// backward-traversal counters).
    fn record_vc2_metrics(&self, report: &Vc2Report) {
        let r = &self.recorder;
        r.add("vc2.composed", report.wpc_stats.composed as u64);
        r.add("vc2.reorders", report.wpc_stats.reorders as u64);
        r.gauge_max("vc2.peak_live_nodes", report.peak_nodes as u64);
        r.gauge_max("vc2.final_nodes", report.final_nodes as u64);
        r.gauge_max("vc2.unique_entries", report.unique_entries as u64);
        r.gauge_max("vc2.cache_entries", report.cache_entries as u64);
        r.gauge_max("vc2.wpc_final_size", report.wpc_stats.final_size as u64);
    }

    /// Simulates constrained random inputs and checks vc1 numerically;
    /// returns the refutation by the first violating input, if any.
    fn simulation_counterexample(&self) -> Option<Vc1Outcome> {
        let div = self.divider;
        let words = divider_sim_words(div, SEED ^ 0xFACE, 1);
        let plane: Vec<u64> = words.iter().map(|v| v[0]).collect();
        let vals = div.netlist.simulate64(&plane);
        let wbits = div.remainder.len() as u32;
        (0..64).find_map(|k| {
            let bit = |s: Sig| (vals[s.index()] >> k) & 1 == 1;
            let mut r = word_value(&div.remainder, bit);
            // two's complement sign
            if r.magnitude_bit(wbits - 1) {
                r -= Int::pow2(wbits);
            }
            let q = word_value(&div.quotient, bit);
            let d = word_value(&div.divisor, bit);
            (&(&q * &d) + &r != word_value(&div.dividend, bit)).then(|| refuted(div, bit))
        })
    }

    /// Decides whether a non-zero residual still vanishes on every input
    /// satisfying `C` (then vc1 is proven). The residual depends only on
    /// its support variables — all primary inputs after a complete run —
    /// so tabulate its value on all their assignments
    /// ([`residual_values`]); for each, in ascending order, that makes
    /// the residual non-zero, ask SAT whether it extends to a
    /// C-satisfying input.
    ///
    /// Under [`SbifConfig::certify`], each UNSAT answer (assignment
    /// does not extend to a valid input) is DRAT-checked; the returned
    /// statistics cover every such call. The incremental proof log stays
    /// valid across the calls: learnt clauses are consequences of the
    /// formula alone, and each call's refutation is closed by its own
    /// failed-assumption units.
    fn decide_residual(&self, residual: &sbif_poly::Poly) -> (Vc1Outcome, CertStats) {
        use sbif_sat::SolveResult;
        let div = self.divider;
        let mut cert = CertStats::default();
        let support = residual.support();
        let all_inputs = support.iter().all(|v| div.netlist.gate(Sig(v.0)).is_input());
        if support.len() > 16 || !all_inputs {
            return (self.find_counterexample(residual), cert);
        }
        let (mut solver, mut enc) =
            constrained_solver(&div.netlist, Some(div.constraint), self.config.sbif.certify);
        let lits: Vec<_> = support.iter().map(|v| enc.lit(&mut solver, Sig(v.0))).collect();
        for (bits, value) in residual_values(residual, &support).iter().enumerate() {
            if value.is_zero() {
                continue;
            }
            let assumptions: Vec<_> = lits
                .iter()
                .enumerate()
                .map(|(i, &l)| if (bits >> i) & 1 == 1 { l } else { !l })
                .collect();
            let result = solver.solve_assuming(&assumptions);
            if result == SolveResult::Unsat && self.config.sbif.certify {
                cert.record(&certify_solver_unsat(&solver));
            }
            if result == SolveResult::Sat {
                // A valid input on which SP ≠ 0: read it off the model.
                let bit = |s| enc.peek_lit(s).and_then(|l| solver.model_lit(l)).unwrap_or(false);
                return (refuted(div, bit), cert);
            }
        }
        // No C-satisfying input makes the residual non-zero: proven.
        (Vc1Outcome::Proven, cert)
    }

    /// Samples valid inputs and evaluates the residual polynomial; any
    /// non-zero value is a definite counterexample to vc1.
    fn find_counterexample(&self, residual: &sbif_poly::Poly) -> Vc1Outcome {
        let div = self.divider;
        let words = divider_sim_words(div, SEED ^ 0x5eed, 4);
        // Each input's stimulus by signal; other signals read 0.
        let mut stimulus = vec![None; div.netlist.num_signals()];
        for (&s, planes) in div.netlist.inputs().iter().zip(&words) {
            stimulus[s.index()] = Some(planes);
        }
        for w in 0..words.first().map_or(0, |v| v.len()) {
            for k in 0..64 {
                let bit = |s: Sig| stimulus[s.index()].is_some_and(|p| (p[w] >> k) & 1 == 1);
                if !residual.eval(|v| bit(Sig(v.0))).is_zero() {
                    return refuted(div, bit);
                }
            }
        }
        Vc1Outcome::Inconclusive { residual_terms: residual.num_terms() }
    }
}

/// The value of `residual` at every assignment of `support`, its
/// variables in ascending order: entry `bits` is the value where
/// `support[i]` takes bit `i` of `bits`.
///
/// Each term's coefficient goes to the bit mask of its variables, and
/// the subset-sum (zeta) transform then adds it into every assignment
/// that sets all of them: `k·2^(k−1)` additions for `k` variables,
/// instead of `2^k` evaluations of every term.
fn residual_values(residual: &sbif_poly::Poly, support: &[sbif_poly::Var]) -> Vec<Int> {
    let mut values = vec![Int::zero(); 1 << support.len()];
    for t in residual.terms() {
        let mask = t.monomial.vars().iter().fold(0, |mask, v| {
            mask | 1 << support.binary_search(v).expect("support covers every term")
        });
        values[mask] += &t.coeff;
    }
    for i in 0..support.len() {
        for block in values.chunks_mut(2 << i) {
            let (unset, set) = block.split_at_mut(1 << i);
            for (value, subset) in set.iter_mut().zip(unset.iter()) {
                *value += subset;
            }
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::build::nonrestoring_divider;
    use sbif_netlist::{BinOp, Gate, Netlist};
    use sbif_poly::{Monomial, Poly, Var};
    use sbif_rng::XorShift64;

    #[test]
    fn residual_table_matches_pointwise_evaluation() {
        let mut rng = XorShift64::seed_from_u64(0x7AB1E);
        for case in 0..60u32 {
            // Sparse variable indices, so table positions differ from
            // variable indices.
            let vars: Vec<Var> = (0..1 + case % 10).map(|i| Var(3 * i + 1)).collect();
            let pick = |rng: &mut XorShift64| {
                Monomial::from_vars(vars.iter().copied().filter(|_| rng.next_bool()))
            };
            let mut pairs = vec![
                (Monomial::one(), Int::from(rng.next_i64())),
                // Full degree, with a coefficient of three limbs.
                (Monomial::from_vars(vars.iter().copied()), Int::pow2(130) - Int::from(1)),
            ];
            for _ in 0..rng.below(40) {
                let m = pick(&mut rng);
                let c = Int::from(rng.next_i64()).shl_pow2(rng.below(100) as u32);
                // `c·m − c·m·x`: cancels wherever x is set, so the
                // table holds zeros next to large values.
                let x = vars[rng.range_usize(0, vars.len())];
                pairs.push((m.mul(&Monomial::var(x)), -c.clone()));
                pairs.push((m, c));
            }
            let residual = Poly::from_pairs(pairs);
            let support = residual.support();
            let values = residual_values(&residual, &support);
            assert_eq!(values.len(), 1 << support.len());
            for (bits, value) in values.iter().enumerate() {
                let at = |v: Var| support.binary_search(&v).is_ok_and(|i| bits >> i & 1 == 1);
                assert_eq!(*value, residual.eval(at), "case {case}, bits {bits:b}");
            }
        }
    }

    #[test]
    fn small_dividers_verify_end_to_end() {
        for n in [2usize, 3, 4] {
            let div = nonrestoring_divider(n);
            let report = DividerVerifier::new(&div).verify().expect("no blow-up");
            assert!(report.is_correct(), "n={n}: {:?}", report.vc1.outcome);
            if n > 2 {
                assert!(report.vc1.sbif.proven > 0, "SBIF must find classes");
            }
        }
    }

    #[test]
    fn sbif_keeps_peaks_small() {
        let n = 6;
        let div = nonrestoring_divider(n);
        let vc1_only = VerifierConfig { check_vc2: false, ..VerifierConfig::default() };
        let with = DividerVerifier::new(&div).with_config(vc1_only).verify().expect("fits").vc1;
        let without_cfg = VerifierConfig {
            use_sbif: false,
            rewrite: RewriteConfig { max_terms: Some(2_000_000), ..RewriteConfig::default() },
            ..vc1_only
        };
        let without =
            DividerVerifier::new(&div).with_config(without_cfg).verify().map(|r| r.vc1);
        let with_peak = with.rewrite.peak_terms;
        match without {
            Ok(r) => assert!(
                r.rewrite.peak_terms > 10 * with_peak,
                "no-SBIF peak {} vs SBIF peak {}",
                r.rewrite.peak_terms,
                with_peak
            ),
            Err(VerifyError::TermLimitExceeded { .. }) => {} // even better
            Err(e) => panic!("unexpected error {e}"),
        }
        assert_eq!(with.outcome, Vc1Outcome::Proven);
    }

    /// Injects a bug by flipping one gate operator and re-running the
    /// flow: the report must not claim correctness.
    fn break_gate(div: &Divider, victim: Sig) -> Option<Divider> {
        let mut broken = div.clone();
        let mut nl = Netlist::new();
        let mut map = Vec::new();
        for s in div.netlist.signals() {
            let g = div.netlist.gate(s).clone();
            let remapped = match g {
                Gate::Input => {
                    let name = div.netlist.name(s).expect("named").to_string();
                    nl.input(&name)
                }
                Gate::Const(v) => nl.push_gate(Gate::Const(v)),
                Gate::Unary(op, a) => nl.push_gate(Gate::Unary(op, map[a.index()])),
                Gate::Binary(op, a, b) => {
                    let op = if s == victim {
                        match op {
                            BinOp::And => BinOp::Or,
                            BinOp::Or => BinOp::And,
                            BinOp::Xor => BinOp::Xnor,
                            BinOp::Xnor => BinOp::Xor,
                            other => other,
                        }
                    } else {
                        op
                    };
                    nl.push_gate(Gate::Binary(op, map[a.index()], map[b.index()]))
                }
            };
            map.push(remapped);
        }
        for (name, s) in div.netlist.outputs() {
            nl.add_output(name, map[s.index()]);
        }
        broken.netlist = nl;
        broken.dividend = div.dividend.iter().map(|s| map[s.index()]).collect();
        broken.divisor = div.divisor.iter().map(|s| map[s.index()]).collect();
        broken.quotient = div.quotient.iter().map(|s| map[s.index()]).collect();
        broken.remainder = div.remainder.iter().map(|s| map[s.index()]).collect();
        broken.stage_signs = div.stage_signs.iter().map(|s| map[s.index()]).collect();
        broken.constraint = map[div.constraint.index()];
        Some(broken)
    }

    #[test]
    fn smoke_check_refutes_instantly() {
        // Swap two remainder bits: the simulation pre-check must refute
        // without entering SBIF or rewriting.
        let div = nonrestoring_divider(5);
        let mut broken = div.clone();
        let mut bits: Vec<Sig> = broken.remainder.iter().copied().collect();
        bits.swap(0, 1);
        broken.remainder = sbif_netlist::Word::new(bits);
        let report = DividerVerifier::new(&broken).verify().expect("instant");
        assert!(matches!(report.vc1.outcome, Vc1Outcome::Refuted { .. }));
        assert_eq!(report.vc1.rewrite.steps, 0, "must not reach rewriting");
        assert!(report.vc2.is_none(), "vc2 skipped after refutation");
    }

    #[test]
    fn injected_bugs_are_caught() {
        let div = nonrestoring_divider(3);
        // Flip a handful of binary gates spread over the circuit.
        let victims: Vec<Sig> = div
            .netlist
            .signals()
            .filter(|&s| matches!(div.netlist.gate(s), Gate::Binary(..)))
            .step_by(17)
            .take(6)
            .collect();
        let mut caught = 0;
        let mut checked = 0;
        for victim in victims {
            let broken = break_gate(&div, victim).expect("rebuild");
            // Skip mutants that do not change the I/O behaviour on valid
            // inputs (the flipped gate may be redundant there).
            let mut differs = false;
            'outer: for dv in 1u64..4 {
                for r0 in 0..(dv << 2) {
                    let a = div.netlist.eval_u64(&[("r0", r0), ("d", dv)]);
                    let b = broken.netlist.eval_u64(&[("r0", r0), ("d", dv)]);
                    if a["q"] != b["q"] || a["r"] != b["r"] {
                        differs = true;
                        break 'outer;
                    }
                }
            }
            if !differs {
                continue;
            }
            checked += 1;
            let report = DividerVerifier::new(&broken).verify().expect("small");
            if !report.is_correct() {
                caught += 1;
            }
        }
        assert!(checked > 0, "no behaviour-changing mutants generated");
        assert_eq!(caught, checked, "every real bug must be caught");
    }

    /// `div` with input `victim` unnamed: the netlist is copied gate for
    /// gate, so every signal keeps its index and the words stay valid.
    fn unname_input(div: &Divider, victim: Sig) -> Divider {
        let mut nl = Netlist::new();
        for s in div.netlist.signals() {
            let t = match (div.netlist.gate(s), div.netlist.name(s)) {
                (Gate::Input, Some(name)) if s != victim => nl.input(name),
                (g, name) => {
                    let t = nl.push_gate(g.clone());
                    if let (Some(name), false) = (name, g.is_input()) {
                        nl.set_name(t, name);
                    }
                    t
                }
            };
            assert_eq!(t, s, "copies keep signal indices");
        }
        for (name, s) in div.netlist.outputs() {
            nl.add_output(name, *s);
        }
        Divider { netlist: nl, ..div.clone() }
    }

    /// The flow reads its operands through the divider's words, never
    /// through input names: with one operand input renamed, or unnamed,
    /// a divider verifies with the same metrics bytes, and the symbolic
    /// refutation of a broken one names the same counterexample.
    #[test]
    fn operand_input_names_do_not_change_the_run() {
        let div = nonrestoring_divider(4);
        let mut renamed = div.clone();
        renamed.netlist.set_name(div.dividend[2], "weird");
        let unnamed = unname_input(&div, div.divisor[0]);
        assert_eq!(unnamed.netlist.name(div.divisor[0]), None);
        let metrics = |d: &Divider| {
            let report = DividerVerifier::new(d).verify().expect("well-formed");
            assert!(report.is_correct());
            report.metrics.to_json()
        };
        let original = metrics(&div);
        assert_eq!(metrics(&renamed), original);
        assert_eq!(metrics(&unnamed), original);

        let symbolic = VerifierConfig { smoke_check: false, check_vc2: false, ..Default::default() };
        let refute = |d: &Divider| {
            let broken = break_gate(d, d.quotient[1]).expect("rebuild");
            let report = DividerVerifier::new(&broken).with_config(symbolic).verify();
            report.expect("small").vc1.outcome
        };
        let outcome = refute(&div);
        assert!(matches!(outcome, Vc1Outcome::Refuted { .. }), "{outcome:?}");
        assert_eq!(refute(&renamed), outcome);
    }

    /// A divider whose words do not cover its primary inputs exactly,
    /// or have the wrong widths, is malformed: `verify()`, with and
    /// without the smoke check, and `analysis_db()` report it instead of
    /// panicking. The fault-injection campaign feeds hand-assembled
    /// dividers on purpose.
    #[test]
    fn words_that_miss_an_input_are_a_malformed_interface() {
        let div = nonrestoring_divider(3);
        let mut extra = div.clone();
        extra.netlist.input("x");
        let mut short = div.clone();
        short.divisor = Word::new(div.divisor.bits()[1..].to_vec());
        // Every input still one operand bit, but the words split wrongly.
        let mut shifted = div.clone();
        shifted.dividend = div.dividend.slice(0..3);
        let moved = div.dividend[3];
        shifted.divisor = std::iter::once(moved).chain(div.divisor.iter().copied()).collect();
        let cases = [
            (extra, "primary input \"x\" is in neither operand word"),
            (short, "primary input \"d[0]\" is in neither operand word"),
            (shifted, "the dividend word has 3 bits, expected 4 for n = 3"),
        ];
        for (broken, why) in &cases {
            for smoke_check in [true, false] {
                let cfg = VerifierConfig { smoke_check, ..VerifierConfig::default() };
                let verifier = DividerVerifier::new(broken).with_config(cfg);
                let err = verifier.verify().expect_err("malformed");
                assert!(matches!(err, VerifyError::MalformedInterface(_)), "{err}");
                assert!(err.to_string().contains(why), "{err}");
            }
            let err = DividerVerifier::new(broken).analysis_db().expect_err("malformed");
            assert!(matches!(err, VerifyError::MalformedInterface(_)), "{err}");
        }
    }

    #[test]
    fn refutation_produces_concrete_counterexample() {
        // Break a quotient gate so vc1 itself fails.
        let div = nonrestoring_divider(3);
        let q_gate = div.quotient[1];
        let broken = break_gate(&div, q_gate).expect("rebuild");
        // Force the refutation through the *symbolic* path (residual
        // decision), not the simulation smoke check.
        let report = DividerVerifier::new(&broken)
            .with_config(VerifierConfig {
                check_vc2: false,
                smoke_check: false,
                ..Default::default()
            })
            .verify()
            .expect("small");
        match &report.vc1.outcome {
            Vc1Outcome::Refuted { dividend, divisor } => {
                // The first C-satisfying assignment, in ascending order,
                // on which the residual is non-zero.
                assert_eq!((dividend, divisor), (&Int::zero(), &Int::one()));
                // Replay through simulation.
                let r0: u64 = u64::try_from(dividend).unwrap_or(0);
                let dv: u64 = u64::try_from(divisor).unwrap_or(0);
                let out = broken.netlist.eval_u64(&[("r0", r0), ("d", dv)]);
                let w = 2 * div.n - 1;
                let r_signed = {
                    let r = out["r"];
                    if r >> (w - 1) & 1 == 1 {
                        r as i64 - (1 << w)
                    } else {
                        r as i64
                    }
                };
                assert_ne!(
                    out["q"] as i64 * dv as i64 + r_signed,
                    r0 as i64,
                    "counterexample must violate vc1"
                );
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }
}

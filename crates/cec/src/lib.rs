//! Combinational equivalence checking baselines for Table II.
//!
//! The paper compares SCA+SBIF against two conventional flows, both of
//! which check a *miter* between the divider and a golden specification
//! circuit, conjoined with the input constraint `C`:
//!
//! * **Plain SAT** (Table II col. 2, MiniSat in the paper):
//!   [`sat_cec`] encodes the miter cone and asks one monolithic
//!   satisfiability query. Hard beyond ~8-bit dividers.
//! * **SAT sweeping / fraiging** (Table II col. 3, ABC's CEC in the
//!   paper): [`sweep_cec`] finds internal equivalent nodes by random
//!   simulation, proves candidate pairs with incremental SAT
//!   (counterexamples refine the simulation), merges proven pairs as
//!   equality clauses, and finally attacks the output. Works to larger
//!   widths, but "finding internal equivalent nodes in non-trivial
//!   arithmetic designs is difficult", so it too gives up eventually.
//!
//! # Examples
//!
//! ```
//! use sbif_cec::{sat_cec, CecResult};
//! use sbif_netlist::build::{divider_miter, nonrestoring_divider, restoring_divider};
//! use sbif_sat::Budget;
//!
//! let a = nonrestoring_divider(2);
//! let b = restoring_divider(2);
//! let m = divider_miter(&a.netlist, &b.netlist, 2);
//! let outcome = sat_cec(&m, "miter", Budget::new());
//! assert_eq!(outcome.result, CecResult::Equivalent);
//! ```

mod sat_cec;
mod sweep;
mod vc2_sat;

pub use sat_cec::sat_cec;
pub use sweep::sweep_cec;
pub use vc2_sat::vc2_sat;

use sbif_check::{certify_unsat, CertOutcome, CertStats, DratStep};
use sbif_netlist::{Netlist, Sig};
use sbif_sat::{Budget, NetlistEncoder, SolveResult, Solver, SolverStats};

/// Verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecResult {
    /// The miter output is constant 0: the circuits agree.
    Equivalent,
    /// A counterexample was found: input assignment driving the miter
    /// to 1, as `(input name, value)` pairs.
    NotEquivalent(Vec<(String, bool)>),
    /// The [`Budget`] ran out: its conflict cap was reached or its
    /// interrupt flag raised — the "TO" entries of Table II.
    Unknown,
}

/// Counters shared by both baselines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CecStats {
    /// SAT queries issued (1 for the plain baseline).
    pub sat_checks: usize,
    /// Internal node pairs proven equivalent and merged (sweeping only).
    pub merged: usize,
    /// Counterexamples fed back into simulation (sweeping only).
    pub refinements: usize,
    /// DRAT certificates of the UNSAT answers, when certification was
    /// requested (see [`vc2_sat`]).
    pub cert: CertStats,
    /// CDCL counters totalled over every SAT query of the check. Note
    /// that a check cut short by its interrupt flag (a wall-clock
    /// watchdog) stops at a machine-dependent point, so unlike the SBIF
    /// pipeline's [`sbif_sat::SolverStats`] aggregate these are then
    /// not reproducible — they are reported for diagnosis, not for the
    /// deterministic metrics payload.
    pub solver: SolverStats,
}

/// Outcome of an equivalence check: verdict plus statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CecOutcome {
    /// The verdict.
    pub result: CecResult,
    /// The counters.
    pub stats: CecStats,
}

/// Asks whether output `out` of `nl` can be 1, with one monolithic SAT
/// query over its cone: UNSAT is [`CecResult::Equivalent`], a model is
/// a named-input counterexample, and an exhausted `budget` is
/// [`CecResult::Unknown`]. With `certify`, an UNSAT answer is replayed
/// through the independent DRAT checker and recorded in
/// [`CecStats::cert`].
fn solve_miter(nl: &Netlist, out: Sig, budget: Budget, certify: bool) -> CecOutcome {
    let mut solver = Solver::new();
    if certify {
        solver.enable_proof_log();
    }
    let mut enc = NetlistEncoder::new(nl);
    enc.encode_cone(&mut solver, nl, out);
    let lit = enc.lit(&mut solver, out);
    let mut cert = CertStats::default();
    let result = match solver.solve_with(&[lit], budget) {
        SolveResult::Unsat => {
            if certify {
                cert.record(&certify_solver_unsat(&solver));
            }
            CecResult::Equivalent
        }
        SolveResult::Sat => CecResult::NotEquivalent(model_counterexample(nl, &solver, &enc)),
        SolveResult::Unknown => CecResult::Unknown,
    };
    CecOutcome {
        result,
        stats: CecStats { sat_checks: 1, cert, solver: solver.stats(), ..CecStats::default() },
    }
}

/// Replays the UNSAT answer of a proof-logging solver through the
/// independent DRAT checker in `sbif-check`.
///
/// The solver must have been created with `enable_proof_log()` and have
/// just returned `Unsat`; the failed-assumption subset (empty for a
/// plain refutation) closes the gap to the empty clause.
pub fn certify_solver_unsat(solver: &Solver) -> CertOutcome {
    let proof = solver.proof().expect("certify requires enable_proof_log()");
    let steps: Vec<DratStep> = proof
        .steps()
        .iter()
        .map(|e| {
            if e.delete {
                DratStep::delete(e.lits.clone())
            } else {
                DratStep::add(e.lits.clone())
            }
        })
        .collect();
    let failed: Vec<i32> =
        solver.unsat_assumptions().map(|l| l.to_dimacs() as i32).collect();
    certify_unsat(proof.formula(), &steps, &failed)
}

/// Extracts a named-input counterexample from a solver model.
pub(crate) fn model_counterexample(
    nl: &Netlist,
    solver: &Solver,
    enc: &NetlistEncoder,
) -> Vec<(String, bool)> {
    nl.inputs()
        .iter()
        .filter_map(|&s| {
            let name = nl.name(s)?.to_string();
            let val = enc.peek_lit(s).and_then(|l| solver.model_lit(l)).unwrap_or(false);
            Some((name, val))
        })
        .collect()
}

/// Replays a counterexample through simulation and returns the value of
/// `out` — used by tests to validate verdicts.
pub fn replay_counterexample(nl: &Netlist, cex: &[(String, bool)], out: Sig) -> bool {
    let inputs: Vec<bool> = nl
        .inputs()
        .iter()
        .map(|&s| {
            let name = nl.name(s).expect("inputs named");
            cex.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(false)
        })
        .collect();
    nl.simulate_bool(&inputs)[out.index()]
}

//! Batched window checking: sibling checks of one dispatch batch share
//! a single incremental SAT solver (DESIGN.md §7).
//!
//! Per-window solver construction dominated the parallel scan's cost:
//! every check re-encoded the constraint cone `C` and rebuilt solver
//! state from scratch, although sibling windows of one batch overlap
//! heavily. [`WindowBatch`] amortizes that setup:
//!
//! * the constraint cone is encoded **once**, unguarded — its clauses
//!   are identical for every check (they range over original gates, not
//!   class representatives);
//! * each check gets a fresh **activation literal** `g` guarding *all*
//!   of its window and difference clauses
//!   ([`Solver::add_clause_activated`]); the solve assumes `[g]`, and
//!   the guard is retired afterwards
//!   ([`Solver::retire_activation`]), permanently deactivating the
//!   check's clauses;
//! * learnt clauses survive between checks. Any learnt clause derived
//!   from a guarded clause carries the negated guard (assumption
//!   literals cannot be resolved away), so it is vacuously satisfiable
//!   for every sibling — only `C`-cone learnts actually constrain them,
//!   and those are sound for every check. Verdicts are therefore
//!   exactly what a fresh per-window solver would return, modulo the
//!   conflict-budget boundary (a shared solver may reach a verdict in a
//!   different number of conflicts; with the
//!   [`SAT_CONFLICTS`](super::SAT_CONFLICTS) budget
//!   of 2000 against ~1–2 conflicts per window check this is
//!   unobservable).
//!
//! Window variables are shared through one [`NetlistEncoder`], but the
//! *clauses* are re-added (guarded) per check: local merges between two
//! checks change representative mappings, so a gate's CNF from an
//! earlier check may be stale. A batched check and the per-window
//! [`check_window_pair`] run the same solve body on a solver from the
//! same builder; only the guard differs. The window walk ignores the
//! encoder's marks of the shared `C` cone exactly as on a fresh solver,
//! so window∩cone gates get guarded copies there too and the clause
//! structure (and so the verdicts) stays aligned.
//!
//! Certified checks cannot share a solver: each logs its own DRAT proof.
//! Under [`SbifConfig::certify`], [`WindowBatch::check`] therefore runs
//! every check on a fresh proof-logging solver through
//! [`check_window_pair`] and builds no shared solver at all. Such checks
//! count in [`checks`](WindowBatch::checks) and
//! [`stats`](WindowBatch::stats), not in
//! [`solver_inits`](WindowBatch::solver_inits).

use super::{
    check_window_pair, constrained_solver, solve_window, EquivClasses, SbifConfig, WindowOutcome,
};
use sbif_netlist::{Netlist, Sig};
use sbif_sat::{Lit, NetlistEncoder, Solver, SolverStats};

/// A shared incremental solver for the window checks of one dispatch
/// batch. Construction is free; the solver and the `C`-cone encoding
/// are built lazily on the first [`check`](Self::check), so batches
/// whose candidates are all prefiltered never pay for one
/// ([`solver_inits`](Self::solver_inits) stays 0).
pub struct WindowBatch<'a> {
    nl: &'a Netlist,
    constraint: Option<Sig>,
    cfg: SbifConfig,
    shared: Option<(Solver, NetlistEncoder)>,
    /// Solver totals of the certified checks, one fresh solver each.
    certified: SolverStats,
    inits: usize,
    checks: usize,
    last_guard: Option<Lit>,
}

impl<'a> WindowBatch<'a> {
    /// Creates an empty batch solver over `nl` (no solver is built until
    /// the first check).
    pub fn new(nl: &'a Netlist, constraint: Option<Sig>, cfg: &SbifConfig) -> Self {
        WindowBatch {
            nl,
            constraint,
            cfg: *cfg,
            shared: None,
            certified: SolverStats::default(),
            inits: 0,
            checks: 0,
            last_guard: None,
        }
    }

    /// One windowed SAT check `UNSAT(CNF(a ⊕ b^ε, W_a, W_b, C))` on the
    /// shared solver — same contract as the per-window
    /// [`check_window_pair`] (which it must agree with; see the
    /// [module docs](self)). Under [`SbifConfig::certify`] the check runs
    /// on a fresh proof-logging solver instead.
    ///
    /// The returned outcome's [`solver`](WindowOutcome::solver) field
    /// holds this check's *delta* of the shared counters; the batch
    /// total is available as [`stats`](Self::stats).
    pub fn check(
        &mut self,
        classes: &EquivClasses,
        a: Sig,
        b: Sig,
        same_polarity: bool,
    ) -> WindowOutcome {
        self.checks += 1;
        let (nl, constraint, cfg) = (self.nl, self.constraint, &self.cfg);
        if cfg.certify {
            let o = check_window_pair(nl, classes, constraint, a, b, same_polarity, cfg, None);
            self.certified.absorb(o.solver);
            return o;
        }
        let (solver, enc) = self.shared.get_or_insert_with(|| {
            self.inits += 1;
            constrained_solver(nl, constraint, false)
        });
        let before = solver.stats();
        let g = solver.new_activation();
        self.last_guard = Some(g);
        let (result, cex) =
            solve_window(nl, classes, solver, enc, a, b, same_polarity, cfg, Some(g));
        solver.retire_activation(g);
        WindowOutcome {
            result,
            cex,
            cert: None,
            solver: solver.stats().since(&before),
            prefiltered: None,
        }
    }

    /// How many shared solvers were actually built (0 or 1).
    pub fn solver_inits(&self) -> usize {
        self.inits
    }

    /// How many checks ran, certified ones included.
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// The cumulative counters of the shared solver and of the certified
    /// checks' solvers — the batch's contribution to the commit-side
    /// ledger (attributed per batch, not per check, so governed conflict
    /// budgets stay deterministic for any worker count).
    pub fn stats(&self) -> SolverStats {
        let mut total = self.certified;
        if let Some((solver, _)) = &self.shared {
            total.absorb(solver.stats());
        }
        total
    }

    /// Test-only sabotage hook: permanently *asserts* the last check's
    /// activation guard instead of retiring it, force-activating that
    /// check's window clauses for every later sibling. This is exactly
    /// the cross-window contamination the guard discipline rules out —
    /// the learnt-clause-reuse tests use it to show the isolation is
    /// doing real work.
    pub fn poison_last_guard(&mut self) {
        if let (Some((solver, _)), Some(g)) = (self.shared.as_mut(), self.last_guard) {
            solver.add_clause([g]);
        }
    }
}

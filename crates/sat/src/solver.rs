//! The CDCL solver.

use crate::proof::ProofLog;
use crate::{Lit, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Three-valued assignment.
const TRUE: u8 = 1;
const FALSE: u8 = 0;
const UNDEF: u8 = 2;

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; see [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict cap was reached or the interrupt flag was raised —
    /// the "TO" entries of the paper's Table II.
    Unknown,
}

/// Resource limits for a solve call: a deterministic conflict cap and
/// a cooperative interrupt flag. Both are checked at every conflict,
/// the cap first. The flag is the only clock: a wall-clock watchdog
/// (`sbif_govern::Watchdog`) raises it, and the solver never reads
/// the time itself.
///
/// # Examples
///
/// ```
/// use sbif_sat::Budget;
/// use std::sync::atomic::AtomicBool;
/// use std::sync::Arc;
///
/// let flag = Arc::new(AtomicBool::new(false));
/// let b = Budget::new().with_conflicts(10_000).with_interrupt(flag);
/// assert_eq!(b.max_conflicts, Some(10_000));
/// assert!(!b.interrupted());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Abort after this many conflicts.
    pub max_conflicts: Option<u64>,
    /// Abort once this flag is raised.
    pub interrupt: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// An unlimited budget.
    pub fn new() -> Self {
        Budget::default()
    }

    /// Limits the number of conflicts.
    pub fn with_conflicts(mut self, n: u64) -> Self {
        self.max_conflicts = Some(n);
        self
    }

    /// Stops at the first conflict after `flag` is raised.
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// `true` once the interrupt flag is raised.
    pub fn interrupted(&self) -> bool {
        self.interrupt.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

/// Counters exposed for diagnostics and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnts: u64,
    /// Learnt clauses deleted by database reductions.
    pub deleted: u64,
}

impl SolverStats {
    /// Folds another solver's counters into this aggregate. Used by the
    /// pipeline observability layer to total the effort over many
    /// short-lived solvers (one per SBIF window check); addition is
    /// commutative, so the total is independent of aggregation order.
    pub fn absorb(&mut self, other: SolverStats) {
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learnts += other.learnts;
        self.deleted += other.deleted;
    }

    /// The effort spent between an `earlier` snapshot of the same
    /// solver's counters and this one — the per-call attribution tool
    /// for a shared incremental solver (each counter is monotone, so the
    /// difference is exact; saturating arithmetic only guards against
    /// snapshots taken from a different solver).
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnts: self.learnts.saturating_sub(earlier.learnts),
            deleted: self.deleted.saturating_sub(earlier.deleted),
        }
    }
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    lbd: u32,
    deleted: bool,
}

type CRef = u32;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: CRef,
    blocker: Lit,
}

/// A CDCL SAT solver in the MiniSat lineage. See the
/// [crate docs](crate) for the feature list.
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<Option<CRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,
    heap_pos: Vec<usize>,
    phase: Vec<bool>,
    // analyze scratch
    seen: Vec<bool>,
    // state
    ok: bool,
    model: Vec<u8>,
    stats: SolverStats,
    num_learnts: usize,
    next_reduce: u64,
    reduce_interval: u64,
    // certification
    proof: Option<Box<ProofLog>>,
    final_conflict: Vec<Lit>,
}

const HEAP_ABSENT: usize = usize::MAX;

// The parallel SBIF engine constructs one solver per windowed check on
// each worker thread, so the solver must stay `Send` (and must not grow
// `Rc`/`RefCell`-style state).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Solver>();
};

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ok: true,
            next_reduce: 2000,
            reduce_interval: 300,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.heap_pos.push(HEAP_ABSENT);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_insert(v);
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of problem (non-learnt) clauses added.
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.learnt && !c.deleted).count()
    }

    /// Solver statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// `false` once the clause set has been proven unsatisfiable at the
    /// top level.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    // ----- certification ---------------------------------------------

    /// Turns on DRAT proof logging (see [`crate::proof`]). Must be
    /// enabled before any clause is added so the recorded formula is
    /// complete.
    ///
    /// # Panics
    ///
    /// Panics if clauses were already added.
    pub fn enable_proof_log(&mut self) {
        assert!(
            self.clauses.is_empty() && self.trail.is_empty(),
            "proof logging must be enabled before the first clause"
        );
        if self.proof.is_none() {
            self.proof = Some(Box::default());
        }
    }

    /// The recorded proof, if logging is enabled.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_deref()
    }

    /// After an UNSAT answer from [`solve_assuming`](Self::solve_assuming)
    /// or [`solve_with`](Self::solve_with): the final conflict clause in
    /// MiniSat's sense — a subset of the *negated* assumption literals
    /// whose conjunction with the formula is already unsatisfiable.
    ///
    /// Empty when the formula itself was refuted (no assumption needed).
    pub fn final_conflict(&self) -> &[Lit] {
        &self.final_conflict
    }

    /// The failed assumptions themselves: the subset of the last solve's
    /// assumptions that [`final_conflict`](Self::final_conflict) blames.
    pub fn unsat_assumptions(&self) -> impl Iterator<Item = Lit> + '_ {
        self.final_conflict.iter().map(|&l| !l)
    }

    // ----- assignment primitives ------------------------------------

    #[inline]
    fn lit_value(&self, l: Lit) -> u8 {
        let v = self.assign[l.var().index()];
        if v == UNDEF {
            UNDEF
        } else {
            v ^ (l.is_negated() as u8)
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<CRef>) {
        debug_assert_eq!(self.lit_value(l), UNDEF);
        let v = l.var();
        self.assign[v.index()] = !l.is_negated() as u8;
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.phase[v.index()] = !l.is_negated();
        self.trail.push(l);
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v.index()] = UNDEF;
            self.reason[v.index()] = None;
            if self.heap_pos[v.index()] == HEAP_ABSENT {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    // ----- clause management -----------------------------------------

    /// Adds a clause (an iterator of literals).
    ///
    /// May only be called between solve calls (the solver is always at
    /// decision level 0 there). Returns `false` if the clause set became
    /// trivially unsatisfiable.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut v: Vec<Lit> = lits.into_iter().collect();
        if let Some(p) = &mut self.proof {
            p.log_original(&v);
        }
        v.sort_unstable();
        v.dedup();
        // Tautology / level-0 simplification.
        let mut simplified = Vec::with_capacity(v.len());
        for (i, &l) in v.iter().enumerate() {
            if i + 1 < v.len() && v[i + 1] == !l {
                return true; // tautology: contains l and ¬l
            }
            match self.lit_value(l) {
                TRUE => return true, // already satisfied at level 0
                FALSE => continue,   // falsified at level 0: drop literal
                _ => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                self.log_refutation();
                false
            }
            1 => {
                self.enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    self.log_refutation();
                }
                self.ok
            }
            _ => {
                self.attach_clause(simplified, false, 0);
                true
            }
        }
    }

    // ----- incremental activation literals ---------------------------

    /// Allocates a fresh *activation literal* for assumption-guarded
    /// incremental solving: clauses added through
    /// [`add_clause_activated`](Self::add_clause_activated) with this
    /// literal are enforced only while it is passed as an assumption to
    /// [`solve_with`](Self::solve_with). Because learnt clauses derived
    /// from a guarded clause always contain the negated guard (an
    /// assumption literal can never be resolved away), they are vacuously
    /// satisfiable whenever the guard is not assumed — sibling problems
    /// sharing the solver can therefore reuse each other's learnt clauses
    /// without verdict contamination.
    pub fn new_activation(&mut self) -> Lit {
        Lit::pos(self.new_var())
    }

    /// Adds a clause guarded by the activation literal `act`: the solver
    /// sees `¬act ∨ lits…`, so the clause constrains the search only
    /// while `act` is assumed. Returns `false` if the clause set became
    /// trivially unsatisfiable (only possible once `act` was retired).
    pub fn add_clause_activated<I: IntoIterator<Item = Lit>>(
        &mut self,
        act: Lit,
        lits: I,
    ) -> bool {
        self.add_clause(lits.into_iter().chain(std::iter::once(!act)))
    }

    /// Permanently retires an activation literal by asserting `¬act` at
    /// the top level: every clause guarded by `act` becomes satisfied and
    /// dead weight for the remaining solves. Returns `false` if the
    /// clause set became trivially unsatisfiable.
    pub fn retire_activation(&mut self, act: Lit) -> bool {
        self.add_clause([!act])
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> CRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as CRef;
        self.watches[(!lits[0]).index()].push(Watcher { cref, blocker: lits[1] });
        self.watches[(!lits[1]).index()].push(Watcher { cref, blocker: lits[0] });
        self.clauses.push(Clause { lits, learnt, lbd, deleted: false });
        if learnt {
            self.num_learnts += 1;
            self.stats.learnts += 1;
        }
        cref
    }

    // ----- propagation -----------------------------------------------

    fn propagate(&mut self) -> Option<CRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.lit_value(w.blocker) == TRUE {
                    i += 1;
                    continue;
                }
                if self.clauses[w.cref as usize].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Make lits[1] the false watched literal ¬p.
                let false_lit = !p;
                {
                    let c = &mut self.clauses[w.cref as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[w.cref as usize].lits[0];
                if first != w.blocker && self.lit_value(first) == TRUE {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let len = self.clauses[w.cref as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[w.cref as usize].lits[k];
                    if self.lit_value(lk) != FALSE {
                        let c = &mut self.clauses[w.cref as usize];
                        c.lits.swap(1, k);
                        self.watches[(!lk).index()].push(Watcher { cref: w.cref, blocker: first });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                if self.lit_value(first) == FALSE {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(w.cref));
                i += 1;
            }
            // Replacement watches always go to other literals' lists (a
            // replacement candidate is non-false while p is true), so the
            // taken list can simply be put back.
            debug_assert!(self.watches[p.index()].is_empty());
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    // ----- conflict analysis -------------------------------------------

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v.index()] != HEAP_ABSENT {
            self.heap_up(self.heap_pos[v.index()]);
        }
    }

    /// First-UIP analysis. Returns (learnt clause, backtrack level, lbd);
    /// `learnt[0]` is the asserting literal.
    fn analyze(&mut self, confl: CRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder
        let mut path = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = confl;
        let mut to_clear: Vec<Var> = Vec::new();
        let cur_level = self.decision_level();

        loop {
            let start = usize::from(p.is_some());
            let lits: Vec<Lit> = self.clauses[cref as usize].lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] >= cur_level {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next clause to look at.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path -= 1;
            if path == 0 {
                learnt[0] = !pl;
                break;
            }
            cref = self.reason[pl.var().index()].expect("non-decision on conflict path");
            p = Some(pl);
        }

        // Cheap self-subsumption minimization: drop a literal whose
        // reason clause is entirely covered by the remaining `seen` set.
        let mut minimized: Vec<Lit> = vec![learnt[0]];
        'lits: for &q in &learnt[1..] {
            if let Some(r) = self.reason[q.var().index()] {
                for &x in &self.clauses[r as usize].lits[1..] {
                    if !self.seen[x.var().index()] && self.level[x.var().index()] > 0 {
                        minimized.push(q);
                        continue 'lits;
                    }
                }
                // all antecedents already in the clause: q is redundant
            } else {
                minimized.push(q);
            }
        }
        let mut learnt = minimized;

        for v in to_clear {
            self.seen[v.index()] = false;
        }

        // Backtrack level & LBD.
        let (bt, lbd);
        if learnt.len() == 1 {
            bt = 0;
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            bt = self.level[learnt[1].var().index()];
        }
        {
            let mut levels: Vec<u32> =
                learnt.iter().map(|l| self.level[l.var().index()]).collect();
            levels.sort_unstable();
            levels.dedup();
            lbd = levels.len() as u32;
        }
        (learnt, bt, lbd)
    }

    /// Records the derivation of the empty clause (the formula was
    /// refuted at decision level 0).
    fn log_refutation(&mut self) {
        if let Some(p) = &mut self.proof {
            if !p.refuted() {
                p.log_add(&[]);
            }
        }
    }

    /// MiniSat's `analyzeFinal`: computes the subset of assumptions that
    /// forced the falsification of assumption `p`, as a conflict clause
    /// of negated assumption literals. Every decision on the trail is an
    /// assumption here (assumption re-establishment precedes branching).
    fn analyze_final(&mut self, p: Lit) {
        self.final_conflict.clear();
        self.final_conflict.push(!p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i].var();
            if !self.seen[x.index()] {
                continue;
            }
            match self.reason[x.index()] {
                None => {
                    debug_assert!(self.level[x.index()] > 0);
                    self.final_conflict.push(!self.trail[i]);
                }
                Some(cref) => {
                    let lits: Vec<Lit> = self.clauses[cref as usize].lits[1..].to_vec();
                    for l in lits {
                        if self.level[l.var().index()] > 0 {
                            self.seen[l.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[x.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    // ----- learnt DB reduction ----------------------------------------

    fn reduce_db(&mut self) {
        let mut learnt_refs: Vec<CRef> = (0..self.clauses.len() as CRef)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt && !c.deleted && c.lits.len() > 2 && c.lbd > 2
            })
            .filter(|&i| !self.is_locked(i))
            .collect();
        learnt_refs.sort_by_key(|&i| {
            let c = &self.clauses[i as usize];
            (std::cmp::Reverse(c.lbd), std::cmp::Reverse(c.lits.len()))
        });
        let to_delete = learnt_refs.len() / 2;
        for &i in learnt_refs.iter().take(to_delete) {
            self.clauses[i as usize].deleted = true;
            self.num_learnts -= 1;
            self.stats.deleted += 1;
            if self.proof.is_some() {
                let lits = self.clauses[i as usize].lits.clone();
                if let Some(p) = &mut self.proof {
                    p.log_delete(&lits);
                }
            }
        }
    }

    fn is_locked(&self, cref: CRef) -> bool {
        let c = &self.clauses[cref as usize];
        let v = c.lits[0].var();
        self.reason[v.index()] == Some(cref) && self.assign[v.index()] != UNDEF
    }

    // ----- VSIDS heap ---------------------------------------------------

    fn heap_insert(&mut self, v: Var) {
        debug_assert_eq!(self.heap_pos[v.index()], HEAP_ABSENT);
        self.heap_pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i].index()] <= self.activity[self.heap[parent].index()] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l].index()] > self.activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r].index()] > self.activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].index()] = i;
        self.heap_pos[self.heap[j].index()] = j;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.index()] = HEAP_ABSENT;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assign[v.index()] == UNDEF {
                return Some(v);
            }
        }
        None
    }

    // ----- top-level search ---------------------------------------------

    /// Solves the current formula without assumptions or limits.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[], Budget::new())
    }

    /// Solves under the given assumption literals.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_with(assumptions, Budget::new())
    }

    /// Solves under assumptions and a resource [`Budget`]. The budget
    /// is only checked at conflicts, so an interrupted call leaves the
    /// solver in a state later calls can continue from.
    pub fn solve_with(&mut self, assumptions: &[Lit], budget: Budget) -> SolveResult {
        self.final_conflict.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        let start_conflicts = self.stats.conflicts;
        let mut restart_idx = 0u64;
        let result = 'outer: loop {
            restart_idx += 1;
            let restart_budget = 100 * luby(restart_idx);
            let mut conflicts_here = 0u64;
            loop {
                if let Some(confl) = self.propagate() {
                    self.stats.conflicts += 1;
                    conflicts_here += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        self.log_refutation();
                        break 'outer SolveResult::Unsat;
                    }
                    let (learnt, bt, lbd) = self.analyze(confl);
                    if let Some(p) = &mut self.proof {
                        p.log_add(&learnt);
                    }
                    self.backtrack(bt);
                    if learnt.len() == 1 {
                        self.enqueue(learnt[0], None);
                    } else {
                        let asserting = learnt[0];
                        let cref = self.attach_clause(learnt, true, lbd);
                        self.enqueue(asserting, Some(cref));
                    }
                    self.var_inc /= 0.95;
                    // Budgets are only checked at conflicts.
                    if let Some(max) = budget.max_conflicts {
                        if self.stats.conflicts - start_conflicts >= max {
                            break 'outer SolveResult::Unknown;
                        }
                    }
                    if budget.interrupted() {
                        break 'outer SolveResult::Unknown;
                    }
                    if self.stats.conflicts >= self.next_reduce {
                        self.reduce_db();
                        self.next_reduce += self.reduce_interval
                            + self.reduce_interval * (self.stats.deleted / 1000);
                    }
                } else if conflicts_here >= restart_budget {
                    self.stats.restarts += 1;
                    self.backtrack(0);
                    continue 'outer;
                } else if (self.decision_level() as usize) < assumptions.len() {
                    // Re-establish the next assumption.
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        TRUE => self.new_decision_level(),
                        FALSE => {
                            // `p` is falsified by the earlier assumptions:
                            // compute the responsible subset.
                            self.analyze_final(p);
                            let fc = self.final_conflict.clone();
                            if let Some(log) = &mut self.proof {
                                log.log_add(&fc);
                            }
                            break 'outer SolveResult::Unsat;
                        }
                        _ => {
                            self.new_decision_level();
                            self.enqueue(p, None);
                        }
                    }
                } else if let Some(v) = self.pick_branch_var() {
                    self.stats.decisions += 1;
                    self.new_decision_level();
                    let lit = Lit::with_polarity(v, self.phase[v.index()]);
                    self.enqueue(lit, None);
                } else {
                    // Full assignment: SAT.
                    self.model = self.assign.clone();
                    break 'outer SolveResult::Sat;
                }
            }
        };
        self.backtrack(0);
        result
    }

    /// The value of `v` in the most recent satisfying assignment.
    ///
    /// Returns `None` if no model is available (or the variable was
    /// created after the last `Sat` answer).
    pub fn model_value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(&TRUE) => Some(true),
            Some(&FALSE) => Some(false),
            _ => None,
        }
    }

    /// The value of a literal in the most recent model.
    pub fn model_lit(&self, l: Lit) -> Option<bool> {
        self.model_value(l.var()).map(|b| b ^ l.is_negated())
    }
}

/// The Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(i: u64) -> u64 {
    let mut x = i - 1; // 0-based position
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(x: i64) -> Lit {
        Lit::from_dimacs(x)
    }

    fn solver_with_vars(n: usize) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = solver_with_vars(1);
        assert!(s.add_clause([lit(1)]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(Var(0)), Some(true));
        assert!(!s.add_clause([lit(-1)]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = solver_with_vars(3);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn simple_implication_chain() {
        // x1 → x2 → … → x20, x1 forced true, all must be true.
        let mut s = solver_with_vars(20);
        s.add_clause([lit(1)]);
        for i in 1..20 {
            s.add_clause([lit(-i), lit(i + 1)]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in 0..20 {
            assert_eq!(s.model_value(Var(v)), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j; i in 0..3, j in 0..2.
        let mut s = solver_with_vars(6);
        let p = |i: i64, j: i64| lit(i * 2 + j + 1);
        for i in 0..3 {
            s.add_clause([p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // A randomish 3-CNF that is satisfiable by construction (planted
        // solution: all variables true).
        let mut s = solver_with_vars(30);
        let clauses: Vec<Vec<i64>> = (0..120)
            .map(|k: i64| {
                let a = (k * 7) % 30 + 1;
                let b = (k * 11) % 30 + 1;
                let c = (k * 13 + 5) % 30 + 1;
                // make sure at least one positive literal (planted model)
                vec![a, -b, c]
            })
            .collect();
        for c in &clauses {
            s.add_clause(c.iter().map(|&x| lit(x)));
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for c in &clauses {
            assert!(
                c.iter().any(|&x| s.model_lit(lit(x)) == Some(true)),
                "model violates {c:?}"
            );
        }
    }

    #[test]
    fn assumptions_basic() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve_assuming(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.model_value(Var(1)), Some(true));
        assert_eq!(s.solve_assuming(&[lit(-1), lit(-2)]), SolveResult::Unsat);
        // Solver state is reusable after an UNSAT-under-assumptions.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve_assuming(&[lit(1), lit(-1)]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn xor_chain_parity_unsat() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, ..., x_{n} ⊕ x1 = 1 with odd cycle
        // length is unsatisfiable.
        let n = 9;
        let mut s = solver_with_vars(n);
        let xor_eq = |s: &mut Solver, a: i64, b: i64| {
            // a ⊕ b = 1  ⇔  (a ∨ b) ∧ (¬a ∨ ¬b)
            s.add_clause([lit(a), lit(b)]);
            s.add_clause([lit(-a), lit(-b)]);
        };
        for i in 1..n as i64 {
            xor_eq(&mut s, i, i + 1);
        }
        xor_eq(&mut s, n as i64, 1);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn budget_limits_work() {
        // A hard instance (pigeonhole 8 into 7) with a tiny conflict
        // budget must come back Unknown quickly.
        let holes = 7i64;
        let pigeons = 8i64;
        let mut s = solver_with_vars((holes * pigeons) as usize);
        let p = |i: i64, j: i64| lit(i * holes + j + 1);
        for i in 0..pigeons {
            s.add_clause((0..holes).map(|j| p(i, j)));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        let r = s.solve_with(&[], Budget::new().with_conflicts(50));
        assert_eq!(r, SolveResult::Unknown);
    }

    #[test]
    fn preset_interrupt_flag_returns_unknown_at_first_conflict() {
        // The same pigeonhole instance, cut off by a pre-raised
        // interrupt flag instead of a unit budget.
        let holes = 7i64;
        let pigeons = 8i64;
        let mut s = solver_with_vars((holes * pigeons) as usize);
        let p = |i: i64, j: i64| lit(i * holes + j + 1);
        for i in 0..pigeons {
            s.add_clause((0..holes).map(|j| p(i, j)));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        let flag = Arc::new(AtomicBool::new(true));
        let budget = Budget::new().with_interrupt(Arc::clone(&flag));
        assert_eq!(s.solve_with(&[], budget.clone()), SolveResult::Unknown);
        assert_eq!(s.stats().conflicts, 1);
        // Clearing the flag lets the same solver finish the proof.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve_with(&[], budget), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_and_duplicates_ignored() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause([lit(1), lit(-1)])); // tautology
        assert!(s.add_clause([lit(1), lit(1), lit(2)])); // duplicate lit
        assert_eq!(s.num_clauses(), 1);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn exhaustive_agreement_with_bruteforce_small() {
        // Compare against brute force on every 4-variable formula drawn
        // from a fixed pseudo-random family.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..200 {
            let num_clauses = (next() % 8 + 1) as usize;
            let clauses: Vec<Vec<i64>> = (0..num_clauses)
                .map(|_| {
                    let len = (next() % 3 + 1) as usize;
                    (0..len)
                        .map(|_| {
                            let v = (next() % 4 + 1) as i64;
                            if next() % 2 == 0 {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            // brute force
            let brute_sat = (0u32..16).any(|m| {
                clauses.iter().all(|c| {
                    c.iter().any(|&x| {
                        let val = (m >> (x.unsigned_abs() - 1)) & 1 == 1;
                        if x > 0 {
                            val
                        } else {
                            !val
                        }
                    })
                })
            });
            let mut s = solver_with_vars(4);
            for c in &clauses {
                s.add_clause(c.iter().map(|&x| lit(x)));
            }
            let got = s.solve();
            let expect = if brute_sat { SolveResult::Sat } else { SolveResult::Unsat };
            assert_eq!(got, expect, "clauses {clauses:?}");
            if got == SolveResult::Sat {
                for c in &clauses {
                    assert!(c.iter().any(|&x| s.model_lit(lit(x)) == Some(true)));
                }
            }
        }
    }

    // ----- proof logging & final conflict -----------------------------

    #[test]
    fn proof_log_records_formula_and_refutation() {
        let mut s = solver_with_vars(9);
        s.enable_proof_log();
        // Odd xor cycle: UNSAT after real conflict analysis.
        let xor_eq = |s: &mut Solver, a: i64, b: i64| {
            s.add_clause([lit(a), lit(b)]);
            s.add_clause([lit(-a), lit(-b)]);
        };
        for i in 1..9 {
            xor_eq(&mut s, i, i + 1);
        }
        xor_eq(&mut s, 9, 1);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let p = s.proof().expect("logging enabled");
        assert_eq!(p.formula().len(), 18);
        assert!(p.refuted(), "derivation must end in the empty clause");
        assert!(p.num_additions() >= 1);
    }

    #[test]
    fn proof_log_empty_on_trivial_contradiction() {
        let mut s = solver_with_vars(1);
        s.enable_proof_log();
        s.add_clause([lit(1)]);
        assert!(!s.add_clause([lit(-1)]));
        let p = s.proof().unwrap();
        assert_eq!(p.formula().len(), 2);
        assert!(p.refuted());
    }

    #[test]
    fn final_conflict_is_subset_of_assumptions() {
        // x1 ∨ x2 with assumptions ¬x1, ¬x2, x3: the conflict must not
        // mention the irrelevant assumption x3.
        let mut s = solver_with_vars(3);
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve_assuming(&[lit(-1), lit(-2), lit(3)]), SolveResult::Unsat);
        let mut fc: Vec<i64> = s.final_conflict().iter().map(|l| l.to_dimacs()).collect();
        fc.sort_unstable();
        assert_eq!(fc, vec![1, 2]);
        let mut failed: Vec<i64> = s.unsat_assumptions().map(|l| l.to_dimacs()).collect();
        failed.sort_unstable();
        assert_eq!(failed, vec![-2, -1]);
    }

    #[test]
    fn final_conflict_empty_without_assumptions() {
        let mut s = solver_with_vars(1);
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.final_conflict().is_empty());
    }

    #[test]
    fn final_conflict_contradictory_assumptions() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve_assuming(&[lit(1), lit(-1)]), SolveResult::Unsat);
        let mut fc: Vec<i64> = s.final_conflict().iter().map(|l| l.to_dimacs()).collect();
        fc.sort_unstable();
        assert_eq!(fc, vec![-1, 1]);
    }

    #[test]
    fn final_conflict_cleared_between_solves() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1)]);
        assert_eq!(s.solve_assuming(&[lit(-1)]), SolveResult::Unsat);
        assert!(!s.final_conflict().is_empty());
        assert_eq!(s.solve_assuming(&[lit(2)]), SolveResult::Sat);
        assert!(s.final_conflict().is_empty());
    }

    #[test]
    fn activated_clauses_only_bind_under_their_guard() {
        // Two sibling problems over the shared variable x1: the first
        // forces x1, the second forbids it. Each verdict must be as if
        // the sibling's clauses were absent.
        let mut s = solver_with_vars(1);
        let g1 = s.new_activation();
        let g2 = s.new_activation();
        assert!(s.add_clause_activated(g1, [lit(1)]));
        assert!(s.add_clause_activated(g2, [lit(-1)]));
        assert_eq!(s.solve_assuming(&[g1]), SolveResult::Sat);
        assert_eq!(s.model_value(Var(0)), Some(true));
        assert_eq!(s.solve_assuming(&[g2]), SolveResult::Sat);
        assert_eq!(s.model_value(Var(0)), Some(false));
        // Both guards together expose the contradiction.
        assert_eq!(s.solve_assuming(&[g1, g2]), SolveResult::Unsat);
        // Retiring g1 keeps g2's problem alive and unchanged.
        assert!(s.retire_activation(g1));
        assert_eq!(s.solve_assuming(&[g2]), SolveResult::Sat);
    }

    #[test]
    fn poisoned_sibling_guard_is_the_only_contamination_path() {
        // A window-batch style sharing setup: an unguarded shared core
        // (x3 → x1) plus two guarded windows. Window 1 (g1) asserts x1;
        // window 2 (g2) asserts ¬x1 ∧ x3 — UNSAT on its own merits only
        // through the shared core, never through window 1's clauses.
        let mut s = solver_with_vars(3);
        s.add_clause([lit(-3), lit(1)]);
        let g1 = s.new_activation();
        let g2 = s.new_activation();
        assert!(s.add_clause_activated(g1, [lit(1)]));
        assert!(s.add_clause_activated(g1, [lit(2)]));
        assert!(s.add_clause_activated(g2, [lit(-1)]));
        // Window 2 alone: satisfiable (set ¬x3); window 1's x1 clause
        // must not leak in even after window 1 has been solved (learnt
        // clauses from g1's window all carry ¬g1).
        assert_eq!(s.solve_assuming(&[g1]), SolveResult::Sat);
        assert_eq!(s.solve_assuming(&[g2]), SolveResult::Sat);
        assert_eq!(s.solve_assuming(&[g2, lit(3)]), SolveResult::Unsat);
        // Deliberately poison the sibling's guard: asserting g1 at the
        // top level activates window 1 for everyone, and window 2's
        // verdict flips — demonstrating that an asserted (not assumed)
        // guard is exactly the contamination the batching must avoid.
        assert!(s.add_clause([g1]));
        assert_eq!(s.solve_assuming(&[g2]), SolveResult::Unsat);
    }

    #[test]
    fn stats_since_reports_per_solve_deltas() {
        let mut s = solver_with_vars(6);
        let p = |i: i64, j: i64| lit(i * 2 + j + 1);
        for i in 0..3 {
            s.add_clause([p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        let before = s.stats();
        assert_eq!(s.solve(), SolveResult::Unsat);
        let delta = s.stats().since(&before);
        assert!(delta.conflicts > 0);
        assert!(delta.propagations > 0);
        // A second snapshot pair over a no-op solve is all zero.
        let before = s.stats();
        assert_eq!(s.solve(), SolveResult::Unsat); // ok=false short-circuits
        let delta = s.stats().since(&before);
        assert_eq!(delta, SolverStats::default());
    }
}

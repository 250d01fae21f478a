//! Parallel execution of the Alg. 1 window checks: level-barrier
//! dispatch with batched incremental window solving (DESIGN.md §7).
//!
//! The windowed SAT checks dominate SBIF's runtime and are independent
//! of each other *except* through the growing equivalence classes: the
//! check for signal `a` encodes window fanins by their current class
//! representatives, and its outcome can merge classes that later checks
//! then observe. The first parallel engine speculated fixed-size chunks
//! of the creation order against snapshots and committed them in order;
//! it was bit-identical for every worker count but nearly idle — a
//! window's fanins sit one pipeline stage back in that order, so almost
//! every speculative check was stale by commit time (~2 % hit rate).
//! Deeper snapshots do not help: the forwarded information of Alg. 1
//! *chains* — a divider stage's equivalences are only provable once the
//! previous stage's merges are in the classes, so any speculation that
//! runs ahead of the committed state loses exactly the verdicts that
//! matter.
//!
//! This engine therefore restructures the dispatch around the
//! netlist's topological levels (see [`LevelSchedule`]) and never
//! speculates past a level boundary:
//!
//! * the scan runs in **level-major order** — still a topological
//!   order, so the classes are exactly the ones the sequential Alg. 1
//!   computes over that order, and every representative a window
//!   encodes lies at a strictly lower level than its root;
//! * the **level is the barrier**: all window checks of level `L` are
//!   dispatched speculatively against the committed state after level
//!   `L−1`, and level `L` is committed before level `L+1` is
//!   dispatched. A window of level `L` only reads representatives at
//!   levels `< L`, all committed, so the commit reuses every
//!   speculative outcome it finds (see *Why reuse needs no check*
//!   below);
//! * within a level, the signals' candidate scans are distributed
//!   round-robin over [`LANES`] fixed lanes; each lane batches all its
//!   window encodings into **one shared incremental SAT solver**
//!   ([`WindowBatch`]: assumption-guarded windows, the constraint cone
//!   encoded once, learnt clauses reused across sibling windows). Lane
//!   solvers live for one [`LevelSchedule`] batch — a contiguous run of
//!   whole levels with at least [`BATCH_SIGNALS`] signals —
//!   which amortizes solver setup across many levels while bounding
//!   retired-clause growth;
//! * the coordinator **commits** each level by running the same
//!   candidate scan ([`scan_candidates`]) sequentially, served from the
//!   level's speculative outcomes. A same-level merge can move a
//!   signal's scan past the dispatch's [`MAX_CANDIDATES`] cut; only
//!   those candidates, which the dispatch never tried, are checked on
//!   the spot with a fresh per-window solver;
//! * counterexamples **refine** the candidate buckets at **level
//!   boundaries** (once [`SbifConfig::cex_flush`] of them are buffered),
//!   between the commit of one level and the dispatch of the next —
//!   dispatch and commit always scan the same buckets. A flush packs the
//!   counterexamples into one simulation word and splits every bucket
//!   of two or more members by it, in place (partition refinement, see
//!   [`Buckets`]); no signature is stored or re-hashed.
//!
//! # Why reuse needs no check
//!
//! A speculative outcome of level `L` was computed over the classes
//! committed after level `L−1`, and the commit reads it after some
//! level-`L` merges. Nothing those merges do can contradict it:
//!
//! 1. classes only grow, so every relation `s = rep(s) ^ p` a window
//!    read still holds at commit;
//! 2. a scanned signal stays a singleton until its own scan: a merge
//!    only joins the signal being scanned to one of its candidates, and
//!    all of a signal's candidates come before it in the scan order. So
//!    a level-`L` commit only adds one level-`L` signal to an existing
//!    class;
//! 3. every signal a level-`L` window reads through `rep()` — a fanin
//!    and its representative — sits at a lower level: fanins do, and at
//!    the level boundary their classes hold only signals already
//!    scanned. Since a level-`L` commit only adds a level-`L` signal to
//!    a class, no level-`L` commit can identify two signals that a
//!    speculative window kept apart.
//!
//! A reused verdict is therefore sound — every class fact it was encoded
//! over is proven and still holds — and deterministic, because the lane
//! schedule does not depend on `jobs`. It is not always what a re-run
//! would answer: a same-level merge into a lower-index class relabels
//! that class's representative, and a re-run would encode the new one.
//! The commit never re-runs a check the dispatch made, so no statistic
//! depends on that difference.
//!
//! Determinism: the scan order, the lane assignment (`pos % LANES`),
//! the batch partition, and the commit order depend only on the
//! netlist, the simulation words, and the configuration — never on `jobs`,
//! which only sets how many OS threads drain a level's lanes. Even the
//! single-worker run executes the identical lane schedule. Classes,
//! metrics, and every solver counter are therefore byte-identical for
//! any worker count; lane solver effort is attributed **per batch** (at
//! the batch's end, in lane order), fresh commit-side checks per check,
//! which keeps governed conflict budgets deterministic too.

use super::levels::{LevelSchedule, BATCH_SIGNALS, LANES};
use super::{
    check_window_pair, EquivClasses, Prefiltered, SbifConfig, SbifHooks, SbifPrefilter, SbifStats,
    WindowBatch, WindowOutcome, MAX_CANDIDATES,
};
use sbif_govern::{Exhausted, Resource};
use sbif_netlist::{Netlist, Sig};
use sbif_sat::{SolveResult, SolverStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The candidate buckets: signals grouped by their polarity-normalized
/// simulation signature (complemented when the first simulated bit is
/// set, so equivalent and antivalent signals share a bucket).
///
/// The signatures themselves are never stored. The partition starts as
/// one bucket holding every signal and is refined in place by one
/// simulation word at a time: two signals share a bucket after a word
/// iff they shared one before it and agree on the normalized word.
/// Between two refinement flushes the buckets are immutable and shared
/// with the lanes.
struct Buckets {
    /// Bucket id per signal.
    key_id: Vec<u32>,
    /// Signature normalization flip per signal (ε of Alg. 1). Depends
    /// only on the first simulation word, so it is stable across
    /// refinements — pair keys mean the same thing after every flush.
    flip: Vec<bool>,
    /// Members per bucket id, in ascending *scan-position* order.
    members: Vec<Vec<Sig>>,
    /// Whether a simulation word has been refined in yet; the first
    /// one sets `flip`.
    seen_word: bool,
}

impl Buckets {
    /// One bucket holding all signals, given in scan order.
    fn new(order: &[Sig]) -> Self {
        Buckets {
            key_id: vec![0; order.len()],
            flip: vec![false; order.len()],
            members: vec![order.to_vec()],
            seen_word: false,
        }
    }

    /// Candidate partners of `a`: same-bucket signals at earlier scan
    /// positions, nearest (in scan order) first.
    fn candidates<'b>(&'b self, a: Sig, pos: &'b [usize]) -> impl Iterator<Item = Sig> + 'b {
        let bucket = &self.members[self.key_id[a.index()] as usize];
        let upto = bucket.partition_point(|b| pos[b.index()] < pos[a.index()]);
        bucket[..upto].iter().rev().copied()
    }

    /// Splits every bucket of two or more members by the normalized
    /// value of one more simulation word (`vals[s]` for signal `s`).
    /// Members keep their scan-position order; the first member's
    /// sub-bucket keeps the bucket id. Single-member buckets are left
    /// alone: buckets only split, so a lone signal never regains a
    /// candidate.
    fn refine(&mut self, vals: &[u64]) {
        if !self.seen_word {
            for (f, &v) in self.flip.iter_mut().zip(vals) {
                *f = v & 1 == 1;
            }
            self.seen_word = true;
        }
        let flip = &self.flip;
        let key = |s: Sig| if flip[s.index()] { !vals[s.index()] } else { vals[s.index()] };
        let mut split: HashMap<u64, u32> = HashMap::new();
        for id in 0..self.members.len() {
            let bucket = &self.members[id];
            let Some(&first) = bucket.first() else { continue };
            let k0 = key(first);
            if bucket[1..].iter().all(|&s| key(s) == k0) {
                continue;
            }
            split.clear();
            split.insert(k0, id as u32);
            for s in std::mem::take(&mut self.members[id]) {
                let next = self.members.len() as u32;
                let b = *split.entry(key(s)).or_insert(next);
                if b == next {
                    self.members.push(Vec::new());
                }
                self.members[b as usize].push(s);
                self.key_id[s.index()] = b;
            }
        }
    }
}

/// The candidate scan of one signal `a` (lines 6–11 of Alg. 1), shared
/// by the speculative dispatch and the commit: same-bucket partners,
/// nearest first, skipping `a`'s own class and classes already tried,
/// up to [`MAX_CANDIDATES`] classes. `decide(b, ε)` checks one candidate
/// and says whether it proves a merge; the scan stops at the first one
/// and returns it.
fn scan_candidates(
    classes: &EquivClasses,
    buckets: &Buckets,
    pos: &[usize],
    a: Sig,
    mut decide: impl FnMut(Sig, bool) -> bool,
) -> Option<(Sig, bool)> {
    let (ra, _) = classes.rep(a);
    let mut tried: Vec<Sig> = Vec::new();
    for b in buckets.candidates(a, pos) {
        if tried.len() >= MAX_CANDIDATES {
            break;
        }
        let (rb, _) = classes.rep(b);
        if ra == rb || tried.contains(&rb) {
            continue;
        }
        tried.push(rb);
        let eps = buckets.flip[a.index()] == buckets.flip[b.index()];
        if decide(b, eps) {
            return Some((b, eps));
        }
    }
    None
}

/// One speculation lane: a shared window solver plus this lane's
/// running counters for the current batch.
struct Lane<'nl> {
    batch: WindowBatch<'nl>,
    /// Per-window solver totals under `certify` (which cannot share a
    /// solver — each check logs its own DRAT proof).
    certify_total: SolverStats,
    certify_checks: usize,
    /// Candidate checks attempted, prefiltered ones included.
    spec_attempts: usize,
    /// Wall-clock spent in checks (lane-side, not deterministic).
    sat_micros: u128,
}

impl<'nl> Lane<'nl> {
    fn new(nl: &'nl Netlist, constraint: Option<Sig>, cfg: &SbifConfig) -> Self {
        Lane {
            batch: WindowBatch::new(nl, constraint, cfg),
            certify_total: SolverStats::default(),
            certify_checks: 0,
            spec_attempts: 0,
            sat_micros: 0,
        }
    }

    /// Speculatively runs the candidate scan of one signal against the
    /// committed level-boundary state, recording every outcome. The
    /// outcomes' per-check solver deltas are not used: lane solver
    /// effort is attributed per batch.
    #[allow(clippy::too_many_arguments)]
    fn scan_signal(
        &mut self,
        nl: &Netlist,
        constraint: Option<Sig>,
        cfg: &SbifConfig,
        prefilter: Option<&SbifPrefilter>,
        classes: &EquivClasses,
        buckets: &Buckets,
        pos: &[usize],
        a: Sig,
        out: &mut Vec<(PairKey, WindowOutcome)>,
    ) {
        scan_candidates(classes, buckets, pos, a, |b, eps| {
            let t0 = Instant::now();
            let outcome =
                match prefilter.and_then(|pf| pf.try_decide(nl, classes, a, b, eps, cfg.certify))
                {
                    Some(o) => o,
                    None if cfg.certify => {
                        // Proof logging needs a pristine solver per window.
                        let o = check_window_pair(nl, classes, constraint, a, b, eps, cfg, None);
                        self.certify_total.absorb(o.solver);
                        self.certify_checks += 1;
                        o
                    }
                    None => self.batch.check(classes, a, b, eps),
                };
            self.sat_micros += t0.elapsed().as_micros();
            self.spec_attempts += 1;
            // Mirror the commit's gating: a rejected certificate does
            // not merge, so the scan continues past it.
            let proven = outcome.result == SolveResult::Unsat
                && outcome.cert.as_ref().is_none_or(|c| c.accepted);
            out.push(((a.0, b.0, eps), outcome));
            proven
        });
    }
}

/// Everything the commit evolves as it walks the level-major order:
/// classes, the candidate buckets, and the buffered counterexamples
/// awaiting a refinement flush.
struct ScanState {
    classes: EquivClasses,
    buckets: Buckets,
    /// Primary-input counterexamples buffered for the next flush.
    pending: Vec<Vec<bool>>,
}

impl ScanState {
    /// Starts the scan from the buckets of the initial simulation:
    /// `words[w][s]` is signal `s`'s value in simulation word `w`.
    fn new(words: &[Vec<u64>], order: &[Sig]) -> Self {
        let mut buckets = Buckets::new(order);
        for vals in words {
            buckets.refine(vals);
        }
        ScanState { classes: EquivClasses::new(order.len()), buckets, pending: Vec::new() }
    }

    /// `true` iff a level boundary should fold the buffer now.
    fn wants_flush(&self, cfg: &SbifConfig) -> bool {
        !self.pending.is_empty() && self.pending.len() >= cfg.cex_flush.max(1)
    }

    /// Packs the buffered counterexamples into one simulation word
    /// (repeating them to fill all 64 bit lanes, so no lane carries an
    /// unconstrained all-zero pattern), simulates it, and splits the
    /// buckets by it. One word holds 64 patterns, so only the first 64
    /// buffered counterexamples are simulated; the rest are discarded.
    /// On the non-restoring n = 40 divider (default config), 105 of the
    /// 160 flushes discard 5,090 counterexamples in total; simulating
    /// all of them instead changes no class and no counter at
    /// n = 8/24/40.
    fn flush(&mut self, nl: &Netlist) {
        let words: Vec<u64> = (0..nl.inputs().len())
            .map(|i| {
                let mut w = 0u64;
                for k in 0..64 {
                    if self.pending[k % self.pending.len()][i] {
                        w |= 1 << k;
                    }
                }
                w
            })
            .collect();
        self.buckets.refine(&nl.simulate64(&words));
        self.pending.clear();
    }
}

/// A candidate pair `(a, b, ε)`, the key of a level's speculative
/// outcomes.
type PairKey = (u32, u32, bool);

/// Runs the speculation phase of one level: every signal's candidate
/// scan on its assigned lane, on `jobs` OS threads when more than one
/// lane has work. Returns the merged outcome map (merge order is lane
/// order — deterministic, and keys are unique since each scan owns its
/// root signal).
#[allow(clippy::too_many_arguments)]
fn dispatch_level(
    nl: &Netlist,
    constraint: Option<Sig>,
    cfg: &SbifConfig,
    prefilter: Option<&SbifPrefilter>,
    sched: &LevelSchedule,
    state: &ScanState,
    run: std::ops::Range<usize>,
    lanes: &[Mutex<Lane<'_>>],
    jobs: usize,
) -> HashMap<PairKey, WindowOutcome> {
    // Lane assignment by global scan position: deterministic, and
    // spreads work evenly across lane solvers.
    let mine = |lane: usize| run.clone().filter(move |p| p % LANES == lane);
    let busy = (0..LANES).filter(|&l| mine(l).next().is_some()).count();
    let scan_lane = |lane: usize, out: &mut Vec<(PairKey, WindowOutcome)>| {
        let mut guard = lanes[lane].lock().expect("lane poisoned");
        for p in mine(lane) {
            guard.scan_signal(
                nl,
                constraint,
                cfg,
                prefilter,
                &state.classes,
                &state.buckets,
                sched.pos(),
                sched.order()[p],
                out,
            );
        }
    };
    let mut per_lane: Vec<Vec<(PairKey, WindowOutcome)>> = (0..LANES).map(|_| Vec::new()).collect();
    if jobs <= 1 || busy <= 1 {
        for (lane, out) in per_lane.iter_mut().enumerate() {
            scan_lane(lane, out);
        }
    } else {
        let slots: Vec<Mutex<&mut Vec<(PairKey, WindowOutcome)>>> =
            per_lane.iter_mut().map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(busy) {
                scope.spawn(|| loop {
                    let lane = next.fetch_add(1, Ordering::Relaxed);
                    if lane >= LANES {
                        return;
                    }
                    let mut out = slots[lane].lock().expect("slot poisoned");
                    scan_lane(lane, &mut out);
                });
            }
        });
    }
    per_lane.into_iter().flatten().collect()
}

/// Commits one signal: the sequential candidate scan of Alg. 1, served
/// from the level's speculative outcomes (taken out of `spec` as they
/// are used).
#[allow(clippy::too_many_arguments)]
fn commit_signal(
    nl: &Netlist,
    constraint: Option<Sig>,
    cfg: &SbifConfig,
    prefilter: Option<&SbifPrefilter>,
    a: Sig,
    pos: &[usize],
    state: &mut ScanState,
    stats: &mut SbifStats,
    spec: &mut HashMap<PairKey, WindowOutcome>,
) {
    let ScanState { classes, buckets, pending } = state;
    let merge = scan_candidates(classes, buckets, pos, a, |b, eps| {
        stats.candidates += 1;
        let o = match spec.remove(&(a.0, b.0, eps)) {
            Some(o) => {
                // Its solver effort is already in the ledger via the
                // lane totals.
                stats.spec_hits += 1;
                o
            }
            None => {
                let t0 = Instant::now();
                let o = check_window_pair(nl, classes, constraint, a, b, eps, cfg, prefilter);
                stats.sat_micros += t0.elapsed().as_micros();
                // Fresh checks are the only per-check attribution left;
                // everything else lands per batch.
                stats.solver.absorb(o.solver);
                o
            }
        };
        stats.sat_checks += 1;
        // Prefilter accounting, commit side only (jobs-invariant like
        // every other logical statistic).
        match o.prefiltered {
            None => stats.windows_solved += 1,
            Some(Prefiltered::Structural) => stats.prefilter_proven += 1,
            Some(Prefiltered::Signature) => stats.prefilter_refuted += 1,
        }
        match o.result {
            SolveResult::Unsat => {
                // Under `certify`, the merge is gated on the independent
                // checker accepting the logged refutation. Certificates
                // are recorded here (commit side only), so the stats are
                // identical for every `jobs` value.
                if let Some(c) = &o.cert {
                    stats.cert.record(c);
                    if !c.accepted {
                        stats.unknown += 1;
                        return false;
                    }
                }
                stats.proven += 1;
                true
            }
            SolveResult::Sat => {
                stats.refuted += 1;
                if let Some(cex) = o.cex {
                    pending.push(cex);
                }
                false
            }
            SolveResult::Unknown => {
                stats.unknown += 1;
                false
            }
        }
    });
    if let Some((b, eps)) = merge {
        classes.union(a, b, !eps);
    }
}

/// Runs the candidate detection and window checking with `cfg.jobs`
/// worker threads; `words[w][s]` is signal `s`'s value in initial
/// simulation word `w`. The level/lane/batch structure — and
/// with it the resulting classes and *every* statistic except
/// wall-clock — is identical for every `jobs` value (see the module
/// docs).
pub(super) fn run(
    nl: &Netlist,
    constraint: Option<Sig>,
    words: &[Vec<u64>],
    cfg: &SbifConfig,
    hooks: &SbifHooks,
) -> (EquivClasses, SbifStats) {
    let jobs = cfg.jobs.max(1);
    let prefilter = hooks.prefilter.as_ref();
    let sched = LevelSchedule::new(nl, BATCH_SIGNALS);
    let mut stats = SbifStats { levels: sched.num_levels(), ..SbifStats::default() };
    let mut state = ScanState::new(words, sched.order());

    // Governed stop check, polled before every signal commit — the
    // ledger it reads is commit-side and batch-attributed, so a budget
    // cut lands on the same signal for any `jobs` value. The
    // deterministic budget is checked before the (racy) cancel flag so
    // exhaustion always wins when both fire.
    let stop = |stats: &SbifStats| -> Option<Exhausted> {
        let spent = stats.solver.conflicts;
        if let Some(limit) = hooks.conflict_budget.filter(|&limit| spent >= limit) {
            return Some(Exhausted {
                stage: "sbif",
                resource: Resource::SatConflicts,
                spent,
                limit,
            });
        }
        hooks.cancel.as_ref().filter(|c| c.is_cancelled()).map(|c| c.exhausted("sbif"))
    };

    'batches: for batch in sched.batches() {
        let mut lanes: Vec<Mutex<Lane<'_>>> =
            (0..LANES).map(|_| Mutex::new(Lane::new(nl, constraint, cfg))).collect();
        for level_run in sched.level_runs(batch.clone()) {
            if let Some(e) = stop(&stats) {
                stats.stopped = Some(e);
                break 'batches;
            }
            // Deterministic refinement flush point: a level boundary,
            // before the level is dispatched — dispatch and commit
            // always scan the same buckets.
            if state.wants_flush(cfg) {
                state.flush(nl);
                stats.refinements += 1;
            }
            let mut spec = dispatch_level(
                nl,
                constraint,
                cfg,
                prefilter,
                &sched,
                &state,
                level_run.clone(),
                &lanes,
                jobs,
            );
            for p in level_run {
                if let Some(e) = stop(&stats) {
                    stats.stopped = Some(e);
                    break 'batches;
                }
                commit_signal(
                    nl,
                    constraint,
                    cfg,
                    prefilter,
                    sched.order()[p],
                    sched.pos(),
                    &mut state,
                    &mut stats,
                    &mut spec,
                );
            }
        }
        // Batch-boundary attribution, in lane order: deterministic for
        // any worker count because the lane contents are.
        for lane in lanes.drain(..) {
            let lane = lane.into_inner().expect("lane poisoned");
            let mut total = lane.batch.stats();
            total.absorb(lane.certify_total);
            stats.solver.absorb(total);
            stats.solver_inits += lane.batch.solver_inits();
            stats.batch_checks += lane.batch.checks() + lane.certify_checks;
            stats.spec_attempts += lane.spec_attempts;
            stats.sat_micros += lane.sat_micros;
        }
    }
    state.classes.compress();
    (state.classes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_rng::XorShift64;

    /// A random netlist over few inputs, so that many signals share a
    /// signature and the buckets stay interesting over many words.
    fn random_netlist(rng: &mut XorShift64) -> Netlist {
        let mut nl = Netlist::new();
        let inputs = rng.range_usize(2, 7);
        let mut pool: Vec<Sig> = (0..inputs).map(|i| nl.input(&format!("x[{i}]"))).collect();
        pool.push(nl.constant(rng.next_bool()));
        for _ in 0..rng.range_usize(10, 120) {
            let a = pool[rng.range_usize(0, pool.len())];
            let b = pool[rng.range_usize(0, pool.len())];
            let g = match rng.below(8) {
                0 => nl.and(a, b),
                1 => nl.or(a, b),
                2 => nl.xor(a, b),
                3 => nl.nand(a, b),
                4 => nl.nor(a, b),
                5 => nl.xnor(a, b),
                6 => nl.and_not(a, b),
                _ => nl.not(a),
            };
            pool.push(g);
        }
        nl
    }

    /// One simulation word: either 64 random patterns or, like a
    /// counterexample flush, a few patterns repeated over all 64 lanes
    /// (which splits buckets gradually).
    fn random_word(rng: &mut XorShift64, nl: &Netlist) -> Vec<u64> {
        let ni = nl.inputs().len();
        let planes: Vec<u64> = if rng.below(4) == 0 {
            (0..ni).map(|_| rng.next_u64()).collect()
        } else {
            let patterns: Vec<Vec<bool>> = (0..rng.range_usize(1, 4))
                .map(|_| (0..ni).map(|_| rng.next_bool()).collect())
                .collect();
            (0..ni)
                .map(|i| (0..64).filter(|&k| patterns[k % patterns.len()][i]).map(|k| 1 << k).sum())
                .collect()
        };
        nl.simulate64(&planes)
    }

    /// The from-scratch grouping the refinement replaces: signals keyed
    /// by their whole polarity-normalized signature (`history[w][s]`),
    /// listed in scan order. Returns each signal's bucket.
    fn reference(history: &[Vec<u64>], order: &[Sig]) -> Vec<Vec<Sig>> {
        let mut groups: HashMap<Vec<u64>, Vec<Sig>> = HashMap::new();
        for &s in order {
            let flip = history.first().is_some_and(|w| w[s.index()] & 1 == 1);
            let key = history.iter().map(|w| if flip { !w[s.index()] } else { w[s.index()] });
            groups.entry(key.collect()).or_default().push(s);
        }
        let mut of = vec![Vec::new(); order.len()];
        for members in groups.values() {
            for &s in members {
                of[s.index()] = members.clone();
            }
        }
        of
    }

    #[test]
    fn refinement_equals_full_signature_grouping() {
        // Refines by a later word that split some bucket, and refines
        // after which some bucket still holds two or more signals.
        let (mut splits, mut shared) = (0, 0);
        for seed in 0..200u64 {
            let mut rng = XorShift64::seed_from_u64(seed);
            let nl = random_netlist(&mut rng);
            let sched = LevelSchedule::new(&nl, BATCH_SIGNALS);
            let (order, pos) = (sched.order(), sched.pos());
            let mut buckets = Buckets::new(order);
            let mut history: Vec<Vec<u64>> = Vec::new();
            for _ in 0..rng.range_usize(1, 12) {
                let singles: Vec<(usize, Vec<Sig>)> = (0..buckets.members.len())
                    .filter(|&id| buckets.members[id].len() == 1)
                    .map(|id| (id, buckets.members[id].clone()))
                    .collect();
                let vals = random_word(&mut rng, &nl);
                let before = buckets.members.len();
                buckets.refine(&vals);
                history.push(vals);
                splits += usize::from(history.len() > 1 && buckets.members.len() > before);
                shared += usize::from(buckets.members.len() < nl.num_signals());

                let expect = reference(&history, order);
                for s in nl.signals() {
                    let got = &buckets.members[buckets.key_id[s.index()] as usize];
                    assert_eq!(got, &expect[s.index()], "seed {seed}: bucket of {s}");
                    assert_eq!(buckets.flip[s.index()], history[0][s.index()] & 1 == 1);
                }
                let mut members = 0;
                for (id, bucket) in buckets.members.iter().enumerate() {
                    assert!(!bucket.is_empty(), "seed {seed}: empty bucket {id}");
                    assert!(bucket.windows(2).all(|w| pos[w[0].index()] < pos[w[1].index()]));
                    assert!(bucket.iter().all(|s| buckets.key_id[s.index()] as usize == id));
                    members += bucket.len();
                }
                assert_eq!(members, nl.num_signals());
                for (id, single) in singles {
                    assert_eq!(buckets.members[id], single, "seed {seed}: singleton {id} moved");
                }
            }
        }
        assert!(splits >= 100 && shared >= 100, "vacuous: splits {splits}, shared {shared}");
    }
}

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
//! # The worker pool
//!
//! A pass opens one [`std::thread::scope`] and spawns
//! `min(jobs, LANES) − 1` helper threads once; the coordinator's thread
//! is worker 0. Lane `l` runs on worker `l % workers`, a fixed map, so a
//! lane's solver stays on one thread and nothing is claimed at run time.
//! The coordinator holds two channels per helper: one carries the
//! level runs of scan positions it hands over, the other the helper's
//! reports that a run is scanned. For each level it sends the run to
//! every helper that owns a busy lane, scans its own lanes, and receives
//! one report from each of those helpers. All workers read the
//! committed [`ScanState`] under a shared lock and write their outcomes
//! into their lanes' reused buffers; the coordinator then merges the
//! buffers in lane order and commits the level alone. A level whose busy
//! lanes all map to worker 0 wakes nobody, and `jobs = 1` spawns no
//! thread. An idle worker polls its channel for up to [`SPIN`] before it
//! blocks, and only while the workers of every pass running in the
//! process fit on the CPUs ([`Live`]); workers that outnumber them block
//! at once.
//!
//! A panic on either side ends the pass in a panic, never in a hang.
//! Each side sees the other leave as a disconnected channel. A helper
//! that unwinds drops its report sender, so the coordinator's receive
//! fails and it panics. A coordinator that unwinds drops its run
//! senders, so every helper's receive fails and the helper returns; the
//! scope joins them and the panic leaves [`super::forward_information`]
//! for the caller's `catch_unwind` (`sbif-serve` isolates each job that
//! way).
//!
//! # Determinism
//!
//! The scan order, the lane assignment (`pos % LANES`), the batch
//! partition, and the commit order depend only on the netlist, the
//! simulation words, and the configuration — never on `jobs`, which only
//! sets over how many workers a level's lanes are spread. Each lane runs
//! the same checks in the same order on its own solver for any worker
//! count, the single-worker run included. Classes, metrics, and every
//! solver counter are therefore byte-identical for any worker count;
//! lane solver effort is attributed **per batch** (at the batch's end,
//! in lane order), fresh commit-side checks per check, which keeps
//! governed conflict budgets deterministic too.

use super::levels::{LevelSchedule, BATCH_SIGNALS, LANES};
use super::{
    check_window_pair, EquivClasses, Prefiltered, SbifConfig, SbifHooks, SbifPrefilter, SbifStats,
    WindowBatch, WindowOutcome, MAX_CANDIDATES,
};
use sbif_govern::{Exhausted, Resource};
use sbif_netlist::{Netlist, Sig};
use sbif_sat::SolveResult;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvError, Sender, TryRecvError};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

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
/// running counters for the current batch, and its outcome buffer.
struct Lane<'nl> {
    batch: WindowBatch<'nl>,
    /// Candidate checks attempted, prefiltered ones included.
    spec_attempts: usize,
    /// Wall-clock spent in checks (lane-side, not deterministic).
    sat_micros: u128,
    /// The current level's speculative outcomes, drained by the
    /// coordinator's merge; the allocation is reused for the next level.
    out: Vec<(PairKey, WindowOutcome)>,
}

impl<'nl> Lane<'nl> {
    fn new(nl: &'nl Netlist, constraint: Option<Sig>, cfg: &SbifConfig) -> Self {
        Lane {
            batch: WindowBatch::new(nl, constraint, cfg),
            spec_attempts: 0,
            sat_micros: 0,
            out: Vec::new(),
        }
    }

    /// Speculatively runs the candidate scan of one signal against the
    /// committed level-boundary state, recording every outcome. The
    /// outcomes' per-check solver deltas are not used: lane solver
    /// effort is attributed per batch.
    fn scan_signal(&mut self, pass: &Pass<'_>, state: &ScanState, a: Sig) {
        let Pass { nl, cfg, prefilter, .. } = *pass;
        let classes = &state.classes;
        scan_candidates(classes, &state.buckets, pass.sched.pos(), a, |b, eps| {
            let t0 = Instant::now();
            let outcome = prefilter
                .and_then(|pf| pf.try_decide(nl, classes, a, b, eps, cfg.certify))
                .unwrap_or_else(|| self.batch.check(classes, a, b, eps));
            self.sat_micros += t0.elapsed().as_micros();
            self.spec_attempts += 1;
            // Mirror the commit's gating: a rejected certificate does
            // not merge, so the scan continues past it.
            let proven = outcome.result == SolveResult::Unsat
                && outcome.cert.as_ref().is_none_or(|c| c.accepted);
            self.out.push(((a.0, b.0, eps), outcome));
            proven
        });
    }

    /// Adds this lane's batch totals to `stats` and starts the next
    /// batch on a fresh solver, keeping the outcome buffer.
    fn close_batch(&mut self, pass: &Pass<'nl>, stats: &mut SbifStats) {
        stats.solver.absorb(self.batch.stats());
        stats.solver_inits += self.batch.solver_inits();
        stats.batch_checks += self.batch.checks();
        stats.spec_attempts += self.spec_attempts;
        stats.sat_micros += self.sat_micros;
        let out = std::mem::take(&mut self.out);
        *self = Lane { out, ..Lane::new(pass.nl, pass.constraint, pass.cfg) };
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

/// The scan positions of `run` that lane `lane` scans
/// (`p % LANES == lane`), ascending.
fn lane_positions(lane: usize, run: &Range<usize>) -> impl Iterator<Item = usize> {
    let first = run.start + (lane + LANES - run.start % LANES) % LANES;
    (first..run.end).step_by(LANES)
}

/// What every worker of one pass reads: the inputs, the schedule, the
/// lanes, and the committed scan state.
struct Pass<'a> {
    nl: &'a Netlist,
    constraint: Option<Sig>,
    cfg: &'a SbifConfig,
    prefilter: Option<&'a SbifPrefilter>,
    sched: LevelSchedule,
    /// Worker threads, the coordinator included: `min(jobs, LANES)`.
    workers: usize,
    /// This pass's workers, counted for the whole pass.
    live: Live,
    /// Lane `l` is only locked by worker `l % workers` while a level is
    /// dispatched and by the coordinator between dispatches, so no lock
    /// is ever contended.
    lanes: Vec<Mutex<Lane<'a>>>,
    /// Read by every worker while a level is dispatched; written only by
    /// the coordinator, after every helper has reported done.
    state: RwLock<ScanState>,
    /// Where this pass panics on purpose (test builds only).
    #[cfg(test)]
    fault: Option<tests::Fault>,
}

impl Pass<'_> {
    /// Whether some lane of `worker` holds a position of `run`.
    fn has_work(&self, worker: usize, run: &Range<usize>) -> bool {
        (worker..LANES).step_by(self.workers).any(|l| lane_positions(l, run).next().is_some())
    }

    /// Scans `worker`'s lanes over the positions of `run`, each lane's
    /// signals in scan order, into the lanes' outcome buffers.
    fn scan_lanes(&self, worker: usize, run: &Range<usize>, state: &ScanState) {
        for lane in (worker..LANES).step_by(self.workers) {
            let mut positions = lane_positions(lane, run).peekable();
            if positions.peek().is_none() {
                continue;
            }
            let mut lane = self.lanes[lane].lock().expect("lane poisoned");
            for p in positions {
                lane.scan_signal(self, state, self.sched.order()[p]);
            }
        }
    }
}

/// How long an idle worker polls for its next message before it blocks,
/// while the live workers fit on the CPUs (see [`Live`]). Blocking costs
/// a wake-up on both sides of a hand-off, and a two-lane level holds
/// only a few hundred microseconds of checks.
const SPIN: Duration = Duration::from_micros(200);

/// Workers of every SBIF pass running in this process, coordinators
/// included. `sbif-serve` runs jobs side by side, each with a pass of
/// its own, so whether an idle worker may poll depends on all of them.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// One pass's share of [`LIVE_WORKERS`], held for the whole pass.
struct Live {
    workers: usize,
    cpus: usize,
}

impl Live {
    fn join(workers: usize) -> Self {
        LIVE_WORKERS.fetch_add(workers, Ordering::Relaxed);
        Live { workers, cpus: std::thread::available_parallelism().map_or(1, |n| n.get()) }
    }

    /// Receives the next message from `rx`, polling for up to [`SPIN`]
    /// first while the live workers fit on the CPUs; workers that
    /// outnumber the CPUs block at once. `Err` once the sender is gone.
    fn recv<T>(&self, rx: &Receiver<T>) -> Result<T, RecvError> {
        if LIVE_WORKERS.load(Ordering::Relaxed) <= self.cpus {
            let start = Instant::now();
            while start.elapsed() < SPIN {
                match rx.try_recv() {
                    Ok(msg) => return Ok(msg),
                    Err(TryRecvError::Disconnected) => return Err(RecvError),
                    Err(TryRecvError::Empty) => std::hint::spin_loop(),
                }
            }
        }
        rx.recv()
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(self.workers, Ordering::Relaxed);
    }
}

/// The coordinator's ends of one helper's channels: the level runs it
/// hands over, and the helper's reports that a run is scanned. Either
/// side sees the other leave, by return or by unwinding, as a
/// disconnected channel.
struct Helper {
    runs: Sender<Range<usize>>,
    done: Receiver<()>,
}

/// The coordinator's panic when a helper's channel is disconnected.
const HELPER_DIED: &str = "an SBIF helper thread panicked";

/// The coordinator's side of one level's speculation: hands `run` to
/// every helper with a busy lane, scans worker 0's lanes, waits for the
/// helpers, and merges the lanes' outcomes into `spec` in lane order
/// (keys are unique: each scan owns its root signal). Panics if a helper
/// died.
fn dispatch(
    pass: &Pass<'_>,
    helpers: &[Helper],
    run: &Range<usize>,
    spec: &mut HashMap<PairKey, WindowOutcome>,
) {
    {
        let state = pass.state.read().expect("scan state poisoned");
        let busy = || (1..pass.workers).filter(|&w| pass.has_work(w, run));
        for w in busy() {
            helpers[w - 1].runs.send(run.clone()).expect(HELPER_DIED);
        }
        pass.scan_lanes(0, run, &state);
        for w in busy() {
            pass.live.recv(&helpers[w - 1].done).expect(HELPER_DIED);
        }
    }
    spec.clear();
    for lane in (0..LANES).filter(|&l| lane_positions(l, run).next().is_some()) {
        spec.extend(pass.lanes[lane].lock().expect("lane poisoned").out.drain(..));
    }
}

/// A helper's life: scan `worker`'s lanes over each level run the
/// coordinator hands over and report done, until the coordinator drops
/// its end of `runs`.
fn serve(pass: &Pass<'_>, worker: usize, runs: &Receiver<Range<usize>>, done: &Sender<()>) {
    while let Ok(run) = pass.live.recv(runs) {
        #[cfg(test)]
        if pass.fault == Some(tests::Fault::HelperScan) {
            panic!("injected fault in the lane scan of worker {worker}");
        }
        pass.scan_lanes(worker, &run, &pass.state.read().expect("scan state poisoned"));
        if done.send(()).is_err() {
            return;
        }
    }
}

/// Commits one signal: the sequential candidate scan of Alg. 1, served
/// from the level's speculative outcomes (taken out of `spec` as they
/// are used).
fn commit_signal(
    pass: &Pass<'_>,
    a: Sig,
    state: &mut ScanState,
    stats: &mut SbifStats,
    spec: &mut HashMap<PairKey, WindowOutcome>,
) {
    let Pass { nl, constraint, cfg, prefilter, .. } = *pass;
    let ScanState { classes, buckets, pending } = state;
    let merge = scan_candidates(classes, buckets, pass.sched.pos(), a, |b, eps| {
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

/// Runs the candidate detection and window checking on a pool of
/// `min(cfg.jobs, LANES)` workers; `words[w][s]` is signal `s`'s value
/// in initial simulation word `w`. The level/lane/batch structure — and
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
    let sched = LevelSchedule::new(nl, BATCH_SIGNALS);
    let state = RwLock::new(ScanState::new(words, sched.order()));
    let workers = cfg.jobs.clamp(1, LANES);
    let pass = Pass {
        nl,
        constraint,
        cfg,
        prefilter: hooks.prefilter.as_ref(),
        sched,
        workers,
        live: Live::join(workers),
        lanes: (0..LANES).map(|_| Mutex::new(Lane::new(nl, constraint, cfg))).collect(),
        state,
        #[cfg(test)]
        fault: tests::FAULT.get(),
    };
    let stats = std::thread::scope(|scope| {
        let pass = &pass;
        let mut helpers = Vec::with_capacity(pass.workers - 1);
        for worker in 1..pass.workers {
            let (runs, runs_rx) = mpsc::channel();
            let (done_tx, done) = mpsc::channel();
            scope.spawn(move || serve(pass, worker, &runs_rx, &done_tx));
            #[cfg(test)]
            tests::SPAWNED.set(tests::SPAWNED.get() + 1);
            helpers.push(Helper { runs, done });
        }
        // `helpers` drops when the coordinator leaves the pass, by return
        // or by unwinding (a failed spawn included), which ends every
        // helper's loop so the scope can join them.
        coordinate(pass, &helpers, hooks)
    });
    let mut state = pass.state.into_inner().expect("scan state poisoned");
    state.classes.compress();
    (state.classes, stats)
}

/// The coordinator's side of a pass: for each level, a refinement flush
/// if one is due, the speculative dispatch over the helpers, and the
/// in-order commit; at each batch end, the lanes' solver effort.
fn coordinate(pass: &Pass<'_>, helpers: &[Helper], hooks: &SbifHooks) -> SbifStats {
    let mut stats = SbifStats { levels: pass.sched.num_levels(), ..SbifStats::default() };

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

    let mut spec = HashMap::new();
    'batches: for batch in pass.sched.batches() {
        for level_run in pass.sched.level_runs(batch.clone()) {
            if let Some(e) = stop(&stats) {
                stats.stopped = Some(e);
                break 'batches;
            }
            // Deterministic refinement flush point: a level boundary,
            // before the level is dispatched — dispatch and commit
            // always scan the same buckets.
            let mut state = pass.state.write().expect("scan state poisoned");
            if state.wants_flush(pass.cfg) {
                state.flush(pass.nl);
                stats.refinements += 1;
            }
            drop(state);
            dispatch(pass, helpers, &level_run, &mut spec);
            let mut state = pass.state.write().expect("scan state poisoned");
            for p in level_run {
                if let Some(e) = stop(&stats) {
                    stats.stopped = Some(e);
                    break 'batches;
                }
                #[cfg(test)]
                if pass.fault == Some(tests::Fault::Commit(p)) {
                    panic!("injected fault in the commit of scan position {p}");
                }
                commit_signal(pass, pass.sched.order()[p], &mut state, &mut stats, &mut spec);
            }
        }
        // Batch-boundary attribution, in lane order: deterministic for
        // any worker count because the lane contents are.
        for lane in &pass.lanes {
            lane.lock().expect("lane poisoned").close_batch(pass, &mut stats);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbif::{divider_sim_words, forward_information};
    use sbif_netlist::build::nonrestoring_divider;
    use sbif_rng::XorShift64;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    /// Where a pass panics on purpose. Only test builds have this hook,
    /// so no production build can inject a fault.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Fault {
        /// In a helper, as it starts a lane scan.
        HelperScan,
        /// On the coordinator, at the commit of this scan position.
        Commit(usize),
    }

    thread_local! {
        /// The fault of the passes this thread coordinates.
        pub(super) static FAULT: Cell<Option<Fault>> = const { Cell::new(None) };
        /// Helper threads spawned by the passes this thread coordinates.
        pub(super) static SPAWNED: Cell<usize> = const { Cell::new(0) };
    }

    /// Runs one SBIF pass over the non-restoring n = 8 divider at `jobs`
    /// on a fresh thread with `fault` injected. Returns whether the pass
    /// panicked and how many helpers it spawned, or `None` if it has not
    /// ended after 60 s.
    fn pass_with(
        jobs: usize,
        fault: impl FnOnce(&Netlist) -> Option<Fault> + Send + 'static,
    ) -> Option<(bool, usize)> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let div = nonrestoring_divider(8);
            let sim = divider_sim_words(&div, 1, 2);
            FAULT.set(fault(&div.netlist));
            let cfg = SbifConfig { jobs, ..SbifConfig::default() };
            let pass = catch_unwind(AssertUnwindSafe(|| {
                forward_information(
                    &div.netlist,
                    Some(div.constraint),
                    &sim,
                    cfg,
                    &SbifHooks::default(),
                )
            }));
            let _ = tx.send((pass.is_err(), SPAWNED.get()));
        });
        rx.recv_timeout(Duration::from_secs(60)).ok()
    }

    #[test]
    fn a_helper_panic_ends_the_pass_in_a_panic() {
        for jobs in [2, 4] {
            let ended = pass_with(jobs, |_| Some(Fault::HelperScan));
            assert_eq!(ended, Some((true, jobs - 1)), "jobs {jobs}: (panicked, helpers)");
        }
    }

    #[test]
    fn a_commit_panic_ends_the_pass_in_a_panic() {
        for jobs in [2, 4] {
            // Midway, so the helpers have scanned levels and sleep.
            let ended = pass_with(jobs, |nl| Some(Fault::Commit(nl.num_signals() / 2)));
            assert_eq!(ended, Some((true, jobs - 1)), "jobs {jobs}: (panicked, helpers)");
        }
    }

    #[test]
    fn one_job_spawns_no_thread() {
        assert_eq!(pass_with(1, |_| None), Some((false, 0)));
        // No helper exists, so a helper-side fault cannot fire.
        assert_eq!(pass_with(1, |_| Some(Fault::HelperScan)), Some((false, 0)));
        assert_eq!(pass_with(2, |_| None), Some((false, 1)));
        assert_eq!(pass_with(64, |_| None), Some((false, LANES - 1)));
    }

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

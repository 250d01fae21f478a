//! Level-major scheduling of the SBIF scan (DESIGN.md §7).
//!
//! The paper's Alg. 1 only requires the signals to be visited in *a*
//! topological order; the netlist's creation order is one, but a poor
//! one for speculation: a window around signal `s` reads the class
//! representatives of `s`'s near fanins, which in creation order sit
//! only a few dozen indices back — right inside the in-flight pipeline
//! of any parallel scan. Sorting the scan by **topological level**
//! (ties broken by index, so the order stays deterministic and
//! topological) turns that locality into a guarantee: every
//! representative a level-`L` window can touch belongs to a signal at a
//! strictly lower level, because
//!
//! * window gates are reached by walking fanins, whose levels strictly
//!   decrease, and
//! * under a level-major scan a class representative never sits at a
//!   higher level than the class member it stands for *while that
//!   member's level is still being scanned* (merges at later levels can
//!   steal representatives, but those commits happen after the level is
//!   done).
//!
//! The schedule groups the order into **batches** — contiguous runs of
//! whole levels with at least `batch_signals` signals ([`BATCH_SIGNALS`]
//! in the SBIF scan), the lifetime unit of the shared incremental
//! window solvers and of solver-stat attribution. Within one level the
//! signals' candidate scans are distributed round-robin over [`LANES`]
//! fixed lanes, each owning one shared solver for the batch. The partition
//! depends only on the netlist and the configuration, never on the
//! worker count, which is what keeps every statistic of the batched
//! scan byte-identical for any `--jobs`.

use sbif_netlist::{Netlist, Sig};
use std::ops::Range;

/// Speculation lanes per level: signal `order[p]` is scanned by lane
/// `p % LANES`, and each lane owns one shared incremental solver per
/// batch. A constant (not `jobs`) so every lane's check sequence — and
/// with it every speculative verdict and solver counter — is identical
/// for any worker count; `jobs` only sets over how many workers the
/// lanes are spread (lane `l` on worker `l % min(jobs, LANES)`).
pub const LANES: usize = 8;

/// Minimum signals per dispatch batch of the SBIF scan: consecutive
/// whole levels are grouped until at least this many signals
/// accumulate, and each batch's window checks share one incremental
/// solver per lane. Part of the dispatch geometry — like [`LANES`] it
/// must not vary with `jobs`, or the per-batch solver statistics would
/// stop being jobs-invariant.
pub const BATCH_SIGNALS: usize = 128;

/// The fixed dispatch geometry of one SBIF run: level-major scan order
/// and level-aligned batch partition. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct LevelSchedule {
    /// Topological level per signal (index-addressed).
    levels: Vec<usize>,
    /// The scan order: signals sorted by `(level, index)`.
    order: Vec<Sig>,
    /// Scan position per signal: `pos[s] = i ⇔ order[i] = s`.
    pos: Vec<usize>,
    /// Batch partition as half-open ranges of scan positions; each range
    /// starts and ends at a level boundary and they cover `0..n`.
    batches: Vec<Range<usize>>,
    /// Number of distinct levels (`max level + 1`, 0 for empty nets).
    num_levels: usize,
}

impl LevelSchedule {
    /// Builds the schedule from the netlist's level map
    /// ([`Netlist::levels`]).
    pub fn new(nl: &Netlist, batch_signals: usize) -> Self {
        let levels = nl.levels();
        let n = levels.len();
        let num_levels = levels.iter().map(|&l| l + 1).max().unwrap_or(0);
        // Counting sort by level — stable, so ties stay in index order
        // and the result is a deterministic topological order.
        let mut width = vec![0usize; num_levels];
        for &l in &levels {
            width[l] += 1;
        }
        let mut offset = Vec::with_capacity(num_levels);
        let mut acc = 0usize;
        for &w in &width {
            offset.push(acc);
            acc += w;
        }
        let mut fill = offset.clone();
        let mut order = vec![Sig(0); n];
        for (i, &l) in levels.iter().enumerate() {
            order[fill[l]] = Sig(i as u32);
            fill[l] += 1;
        }
        let mut pos = vec![0usize; n];
        for (p, s) in order.iter().enumerate() {
            pos[s.index()] = p;
        }
        // Batches: accumulate whole levels until the minimum size is
        // reached. Alignment to level boundaries is what makes in-batch
        // chaining cover almost every window (see the module docs).
        let min = batch_signals.max(1);
        let mut batches = Vec::new();
        let mut start = 0usize;
        for l in 0..num_levels {
            let end = offset[l] + width[l];
            if end - start >= min {
                batches.push(start..end);
                start = end;
            }
        }
        if start < n {
            batches.push(start..n);
        }
        LevelSchedule { levels, order, pos, batches, num_levels }
    }

    /// The topological level of `s`.
    pub fn level(&self, s: Sig) -> usize {
        self.levels[s.index()]
    }

    /// Level map, index-addressed.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Number of distinct levels.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// The level-major scan order.
    pub fn order(&self) -> &[Sig] {
        &self.order
    }

    /// Scan position per signal (the inverse of [`order`](Self::order)).
    pub fn pos(&self) -> &[usize] {
        &self.pos
    }

    /// The batch partition: level-aligned, covering `0..n` scan
    /// positions.
    pub fn batches(&self) -> &[Range<usize>] {
        &self.batches
    }

    /// Splits a range of scan positions at its level boundaries — the
    /// commit's refinement-flush points.
    pub fn level_runs(&self, r: Range<usize>) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut at = r.start;
        std::iter::from_fn(move || {
            if at >= r.end {
                return None;
            }
            let lv = self.levels[self.order[at].index()];
            let mut end = at + 1;
            while end < r.end && self.levels[self.order[end].index()] == lv {
                end += 1;
            }
            let run = at..end;
            at = end;
            Some(run)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::build::nonrestoring_divider;

    #[test]
    fn schedule_is_a_level_aligned_partition() {
        let div = nonrestoring_divider(6);
        let nl = &div.netlist;
        let sched = LevelSchedule::new(nl, 64);
        let n = nl.num_signals();
        // The order is a permutation, sorted by (level, index).
        assert_eq!(sched.order().len(), n);
        for w in sched.order().windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                (sched.level(a), a.0) < (sched.level(b), b.0),
                "order must be level-major"
            );
        }
        // pos inverts order.
        for (p, &s) in sched.order().iter().enumerate() {
            assert_eq!(sched.pos()[s.index()], p);
        }
        // Batches cover 0..n contiguously and end on level boundaries.
        let mut at = 0;
        for b in sched.batches() {
            assert_eq!(b.start, at);
            assert!(b.end > b.start);
            at = b.end;
            if b.end < n {
                let last = sched.order()[b.end - 1];
                let next = sched.order()[b.end];
                assert!(sched.level(last) < sched.level(next), "level-aligned");
            }
        }
        assert_eq!(at, n);
    }

    #[test]
    fn level_runs_split_exactly_at_level_changes() {
        let div = nonrestoring_divider(4);
        let sched = LevelSchedule::new(&div.netlist, 32);
        for b in sched.batches() {
            let mut covered = b.start;
            for run in sched.level_runs(b.clone()) {
                assert_eq!(run.start, covered);
                let lv = sched.level(sched.order()[run.start]);
                for p in run.clone() {
                    assert_eq!(sched.level(sched.order()[p]), lv);
                }
                covered = run.end;
            }
            assert_eq!(covered, b.end);
        }
    }

    #[test]
    fn fanins_sit_in_strictly_earlier_levels() {
        let div = nonrestoring_divider(5);
        let nl = &div.netlist;
        let sched = LevelSchedule::new(nl, 64);
        for s in nl.signals() {
            for f in nl.gate(s).fanins() {
                assert!(sched.level(f) < sched.level(s), "{f} feeds {s}");
            }
        }
    }
}

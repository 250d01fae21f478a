//! Span folding: an in-memory [`TraceSink`] that turns the verifier's
//! open/close events into self and total times per span path.
//!
//! The verifier opens all of its spans on one thread, so a stack of open
//! spans gives each span its parent. A span's self time is its wall time
//! minus the wall time of its direct children; summed over a tree, the
//! self times therefore add up exactly to the root's total.

use sbif_trace::{Event, TraceSink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Accumulated times of one span path, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTimes {
    /// Wall time between open and close, summed over every occurrence.
    pub total_us: u128,
    /// `total_us` minus the time covered by child spans.
    pub self_us: u128,
    /// Closed occurrences of the path.
    pub count: u64,
}

/// Self and total times keyed by span path (`verify;vc1;sbif`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// Every closed path, sorted.
    pub paths: BTreeMap<String, SpanTimes>,
}

impl SpanTree {
    /// Total time of every path whose last component is `name`.
    pub fn total_us(&self, name: &str) -> u128 {
        self.paths
            .iter()
            .filter(|(p, _)| p.rsplit(';').next() == Some(name))
            .map(|(_, t)| t.total_us)
            .sum()
    }

    /// Sum of every path's self time (equals the roots' total time).
    pub fn self_sum_us(&self) -> u128 {
        self.paths.values().map(|t| t.self_us).sum()
    }

    /// Adds every path of `other` into `self`.
    pub fn merge(&mut self, other: &SpanTree) {
        for (path, t) in &other.paths {
            let e = self.paths.entry(path.clone()).or_default();
            e.total_us += t.total_us;
            e.self_us += t.self_us;
            e.count += t.count;
        }
    }

    /// Folded-stack lines (`prefix;verify;vc1;sbif <self_us>`), one per
    /// path, with self times divided by `reps` — the input format of
    /// flame-graph viewers.
    pub fn folded(&self, prefix: &str, reps: u32) -> Vec<String> {
        let reps = u128::from(reps.max(1));
        self.paths
            .iter()
            .map(|(path, t)| format!("{prefix};{path} {}", t.self_us / reps))
            .collect()
    }
}

/// The sink side of the folder; [`SpanFolder::pair`] also returns the
/// handle the caller reads the tree from after the run.
#[derive(Debug)]
pub struct SpanFolder {
    tree: Arc<Mutex<SpanTree>>,
    /// Open spans: (path, wall time of closed children so far).
    stack: Vec<(String, u128)>,
}

impl SpanFolder {
    /// A folder and the shared tree it fills.
    pub fn pair() -> (SpanFolder, Arc<Mutex<SpanTree>>) {
        let tree = Arc::new(Mutex::new(SpanTree::default()));
        (
            SpanFolder {
                tree: Arc::clone(&tree),
                stack: Vec::new(),
            },
            tree,
        )
    }
}

impl TraceSink for SpanFolder {
    fn event(&mut self, e: &Event<'_>) {
        match e {
            Event::SpanOpen { name, .. } => {
                let path = match self.stack.last() {
                    Some((parent, _)) => format!("{parent};{name}"),
                    None => (*name).to_string(),
                };
                self.stack.push((path, 0));
            }
            Event::SpanClose { wall_us, .. } => {
                // A close without an open would be a recorder bug; the
                // ledger drops it rather than misattribute the time.
                let Some((path, children)) = self.stack.pop() else {
                    return;
                };
                if let Some(parent) = self.stack.last_mut() {
                    parent.1 += wall_us;
                }
                let mut tree = self.tree.lock().expect("span tree poisoned");
                let t = tree.paths.entry(path).or_default();
                t.total_us += wall_us;
                t.self_us += wall_us.saturating_sub(children);
                t.count += 1;
            }
            Event::Counter { .. } | Event::Gauge { .. } | Event::Report { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(f: &mut SpanFolder, id: u64, name: &str) {
        f.event(&Event::SpanOpen { id, name });
    }

    fn close(f: &mut SpanFolder, id: u64, name: &str, wall_us: u128) {
        f.event(&Event::SpanClose { id, name, wall_us });
    }

    #[test]
    fn self_time_is_total_minus_children() {
        let (mut f, tree) = SpanFolder::pair();
        open(&mut f, 0, "verify");
        open(&mut f, 1, "vc1");
        open(&mut f, 2, "sbif");
        close(&mut f, 2, "sbif", 600);
        open(&mut f, 3, "rewrite");
        close(&mut f, 3, "rewrite", 300);
        close(&mut f, 1, "vc1", 1000);
        open(&mut f, 4, "vc2");
        close(&mut f, 4, "vc2", 2000);
        close(&mut f, 0, "verify", 3050);
        let tree = tree.lock().unwrap().clone();
        let get = |p: &str| tree.paths[p];
        assert_eq!(get("verify").total_us, 3050);
        assert_eq!(get("verify").self_us, 50);
        assert_eq!(get("verify;vc1").self_us, 100);
        assert_eq!(get("verify;vc1;sbif").self_us, 600);
        assert_eq!(get("verify;vc2").total_us, 2000);
        assert_eq!(tree.self_sum_us(), 3050);
        assert_eq!(tree.total_us("sbif"), 600);
        assert_eq!(
            tree.folded("w", 2),
            [
                "w;verify 25",
                "w;verify;vc1 50",
                "w;verify;vc1;rewrite 150",
                "w;verify;vc1;sbif 300",
                "w;verify;vc2 1000",
            ]
        );
    }

    #[test]
    fn repeated_paths_accumulate_and_merge() {
        let (mut f, tree) = SpanFolder::pair();
        for id in 0..3 {
            open(&mut f, id, "smoke");
            close(&mut f, id, "smoke", 10);
        }
        close(&mut f, 9, "stray", 5);
        let mut merged = tree.lock().unwrap().clone();
        assert_eq!(
            merged.paths["smoke"],
            SpanTimes {
                total_us: 30,
                self_us: 30,
                count: 3
            }
        );
        assert!(!merged.paths.contains_key("stray"));
        let copy = merged.clone();
        merged.merge(&copy);
        assert_eq!(merged.paths["smoke"].count, 6);
    }
}

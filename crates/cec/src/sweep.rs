//! SAT sweeping (fraiging) — the ABC-style CEC baseline (Table II,
//! col. 3).

use crate::{model_counterexample, CecOutcome, CecResult, CecStats};
use sbif_netlist::{Netlist, Sig};
use sbif_rng::XorShift64;
use sbif_sat::{Budget, Lit, NetlistEncoder, SolveResult, Solver};
use std::collections::HashMap;

/// Conflict budget for each internal node-pair proof.
const NODE_CONFLICTS: u64 = 300;
/// Initial simulation words (64 patterns each) per input.
const SIM_WORDS: usize = 2;
/// RNG seed for the initial patterns.
const SEED: u64 = 0xABC;

/// Union-find over signals with equal/antivalent polarity.
struct Classes {
    parent: Vec<u32>,
    flip: Vec<bool>,
}

impl Classes {
    fn new(n: usize) -> Self {
        Classes { parent: (0..n as u32).collect(), flip: vec![false; n] }
    }

    fn find(&mut self, s: u32) -> (u32, bool) {
        let mut root = s;
        let mut parity = false;
        while self.parent[root as usize] != root {
            parity ^= self.flip[root as usize];
            root = self.parent[root as usize];
        }
        let (mut cur, mut cur_par) = (s, parity);
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            let next_par = cur_par ^ self.flip[cur as usize];
            self.parent[cur as usize] = root;
            self.flip[cur as usize] = cur_par;
            cur = next;
            cur_par = next_par;
        }
        (root, parity)
    }

    fn union(&mut self, a: u32, b: u32, antivalent: bool) {
        let (ra, pa) = self.find(a);
        let (rb, pb) = self.find(b);
        if ra == rb {
            return;
        }
        let rel = pa ^ pb ^ antivalent;
        if ra < rb {
            self.parent[rb as usize] = ra;
            self.flip[rb as usize] = rel;
        } else {
            self.parent[ra as usize] = rb;
            self.flip[ra as usize] = rel;
        }
    }
}

/// Checks that `output` of `nl` is constant 0 by SAT sweeping: random
/// simulation proposes internal equivalences, incremental SAT proves and
/// merges them (counterexamples refine the simulation), and the output is
/// attacked last. `assume`, when given, is a signal asserted 1 in every
/// query (the divider input constraint, which makes cross-circuit
/// internal nodes mergeable). `budget` limits the final output query;
/// its interrupt flag (the 72-CPU-hour timeout of the paper, scaled
/// down, as a watchdog) also ends the sweep between signals.
///
/// # Panics
///
/// Panics if `nl` has no output named `output`.
pub fn sweep_cec(nl: &Netlist, output: &str, assume: Option<Sig>, budget: Budget) -> CecOutcome {
    let out = nl
        .output(output)
        .unwrap_or_else(|| panic!("netlist has no output named {output:?}"));
    let mut stats = CecStats::default();

    // Full CNF of the netlist, once.
    let mut solver = Solver::new();
    let mut enc = NetlistEncoder::new(nl);
    enc.encode_all(&mut solver, nl);
    let assumptions_base: Vec<Lit> = match assume {
        Some(c) => vec![enc.lit(&mut solver, c)],
        None => Vec::new(),
    };

    // Initial random simulation.
    let mut rng = XorShift64::seed_from_u64(SEED);
    let mut signatures: Vec<Vec<u64>> = vec![Vec::new(); nl.num_signals()];
    let simulate_word = |signatures: &mut Vec<Vec<u64>>, words: &[u64]| {
        let vals = nl.simulate64(words);
        for (i, &v) in vals.iter().enumerate() {
            signatures[i].push(v);
        }
    };
    for _ in 0..SIM_WORDS {
        let words: Vec<u64> = (0..nl.inputs().len()).map(|_| rng.next_u64()).collect();
        simulate_word(&mut signatures, &words);
    }

    let mut classes = Classes::new(nl.num_signals());
    let mut pending_cex: Vec<Vec<bool>> = Vec::new();
    let mut distinguished: std::collections::HashSet<(u32, u32)> =
        std::collections::HashSet::new();

    let norm = |sig: &[u64]| -> (Vec<u64>, bool) {
        let flip = sig.first().is_some_and(|w| w & 1 == 1);
        if flip {
            (sig.iter().map(|w| !w).collect(), true)
        } else {
            (sig.to_vec(), false)
        }
    };

    let mut buckets: HashMap<Vec<u64>, Vec<(Sig, bool)>> = HashMap::new();

    let mut idx = 0usize;
    let signals: Vec<Sig> = nl.signals().collect();
    while idx < signals.len() {
        if budget.interrupted() {
            stats.solver = solver.stats();
            return CecOutcome { result: CecResult::Unknown, stats };
        }
        // Fold pending counterexamples into the signatures in batches.
        if pending_cex.len() >= 32 {
            let words: Vec<u64> = (0..nl.inputs().len())
                .map(|i| {
                    let mut w = 0u64;
                    for (k, cex) in pending_cex.iter().enumerate() {
                        if cex[i] {
                            w |= 1 << k;
                        }
                    }
                    w
                })
                .collect();
            simulate_word(&mut signatures, &words);
            pending_cex.clear();
            buckets.clear();
            for &s in &signals[..idx] {
                let (key, flip) = norm(&signatures[s.index()]);
                buckets.entry(key).or_default().push((s, flip));
            }
            stats.refinements += 1;
        }
        let a = signals[idx];
        idx += 1;
        let (key, flip_a) = norm(&signatures[a.index()]);
        let candidates: Vec<(Sig, bool)> = buckets
            .get(&key)
            .map(|b| b.iter().rev().take(4).copied().collect())
            .unwrap_or_default();
        for (b, flip_b) in candidates {
            let (ra, _) = classes.find(a.0);
            let (rb, _) = classes.find(b.0);
            if ra == rb {
                continue;
            }
            let pair = (ra.min(rb), ra.max(rb));
            if distinguished.contains(&pair) {
                continue;
            }
            let same_polarity = flip_a == flip_b;
            let sel = solver.new_activation();
            let la = enc.lit(&mut solver, a);
            let lb = enc.lit(&mut solver, b);
            if same_polarity {
                solver.add_clause_activated(sel, [la, lb]);
                solver.add_clause_activated(sel, [!la, !lb]);
            } else {
                solver.add_clause_activated(sel, [la, !lb]);
                solver.add_clause_activated(sel, [!la, lb]);
            }
            let mut assumptions = assumptions_base.clone();
            assumptions.push(sel);
            stats.sat_checks += 1;
            let res = solver
                .solve_with(&assumptions, Budget::new().with_conflicts(NODE_CONFLICTS));
            solver.retire_activation(sel);
            match res {
                SolveResult::Unsat => {
                    classes.union(a.0, b.0, !same_polarity);
                    // Permanent equality clauses strengthen later proofs.
                    if same_polarity {
                        solver.add_clause([!la, lb]);
                        solver.add_clause([la, !lb]);
                    } else {
                        solver.add_clause([la, lb]);
                        solver.add_clause([!la, !lb]);
                    }
                    stats.merged += 1;
                    break;
                }
                SolveResult::Sat => {
                    distinguished.insert(pair);
                    let cex: Vec<bool> = nl
                        .inputs()
                        .iter()
                        .map(|&s| {
                            enc.peek_lit(s)
                                .and_then(|l| solver.model_lit(l))
                                .unwrap_or(false)
                        })
                        .collect();
                    pending_cex.push(cex);
                }
                SolveResult::Unknown => {
                    distinguished.insert(pair);
                }
            }
        }
        let bucket = buckets.entry(key).or_default();
        bucket.push((a, flip_a));
    }

    // Final attack on the output with the caller's budget.
    let lo = enc.lit(&mut solver, out);
    let mut assumptions = assumptions_base;
    assumptions.push(lo);
    stats.sat_checks += 1;
    let result = match solver.solve_with(&assumptions, budget) {
        SolveResult::Unsat => CecResult::Equivalent,
        SolveResult::Sat => CecResult::NotEquivalent(model_counterexample(nl, &solver, &enc)),
        SolveResult::Unknown => CecResult::Unknown,
    };
    stats.solver = solver.stats();
    CecOutcome { result, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay_counterexample;
    use sbif_netlist::build::{divider_miter, miter, nonrestoring_divider, restoring_divider};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn sweeping_proves_divider_miters() {
        for n in [2usize, 3, 4] {
            let a = nonrestoring_divider(n);
            let b = restoring_divider(n);
            let m = divider_miter(&a.netlist, &b.netlist, n);
            let outcome = sweep_cec(&m, "miter", None, Budget::new());
            assert_eq!(outcome.result, CecResult::Equivalent, "n={n}");
        }
    }

    #[test]
    fn sweeping_merges_internal_nodes() {
        // Two XOR chains over the same inputs share every function; the
        // sweep should merge nodes and prove the miter.
        let mut a = Netlist::new();
        let xs: Vec<Sig> = (0..6).map(|i| a.input(&format!("x[{i}]"))).collect();
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = a.xor(acc, x);
        }
        a.add_output("o", acc);
        let mut b = Netlist::new();
        let xs: Vec<Sig> = (0..6).map(|i| b.input(&format!("x[{i}]"))).collect();
        let mut acc = b.const0();
        for &x in &xs {
            acc = b.xor(x, acc);
        }
        b.add_output("o", acc);
        let m = miter(&a, &b);
        let outcome = sweep_cec(&m, "miter", None, Budget::new());
        assert_eq!(outcome.result, CecResult::Equivalent);
    }

    #[test]
    fn sweeping_finds_bugs() {
        let n = 3;
        let a = nonrestoring_divider(n);
        let b = restoring_divider(n).netlist;
        let r0 = b.output("r[0]").expect("r[0]");
        let mut rebuilt = Netlist::new();
        let map = sbif_netlist::build::append_netlist(&mut rebuilt, &b, |d, nm| d.input(nm));
        let flipped = rebuilt.not(map[r0.index()]);
        for (name, s) in b.outputs() {
            let sig = if name == "r[0]" { flipped } else { map[s.index()] };
            rebuilt.add_output(name, sig);
        }
        let m = divider_miter(&a.netlist, &rebuilt, n);
        let outcome = sweep_cec(&m, "miter", None, Budget::new());
        match outcome.result {
            CecResult::NotEquivalent(cex) => {
                let out = m.output("miter").expect("miter");
                assert!(replay_counterexample(&m, &cex, out));
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn tiny_budget_times_out() {
        let n = 6;
        let a = nonrestoring_divider(n);
        let b = restoring_divider(n);
        let m = divider_miter(&a.netlist, &b.netlist, n);
        let raised = Arc::new(AtomicBool::new(true));
        let outcome = sweep_cec(&m, "miter", None, Budget::new().with_interrupt(raised));
        assert_eq!(outcome.result, CecResult::Unknown);
    }
}

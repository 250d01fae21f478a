//! Circuit-level BDD helpers for the vc2 proof of Sect. V.
//!
//! BDD variables are identified with netlist signals (`VarId` = signal
//! index), so composing a gate-output variable with its gate function is
//! the backward-traversal step `WPC := WPC[s ← gate_s]`.

use crate::{Bdd, BddManager, VarId};
use sbif_netlist::{Gate, Netlist, Sig, UnaryOp, Word};

/// A word of BDD variables (least significant first), mirroring
/// [`sbif_netlist::Word`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BddWord(pub Vec<VarId>);

impl From<&Word> for BddWord {
    fn from(w: &Word) -> Self {
        BddWord(w.iter().map(|s| s.0).collect())
    }
}

/// The predicate `⟨a⟩ < ⟨b⟩` over variable words (shorter word
/// zero-extended). Built LSB-up; linear-size under an interleaved order.
pub fn unsigned_less(m: &mut BddManager, a: &BddWord, b: &BddWord) -> Bdd {
    let len = a.0.len().max(b.0.len());
    let mut lt = BddManager::FALSE;
    for i in 0..len {
        let av = a.0.get(i).map(|&v| m.var(v)).unwrap_or(BddManager::FALSE);
        let bv = b.0.get(i).map(|&v| m.var(v)).unwrap_or(BddManager::FALSE);
        // lt' = (¬a_i ∧ b_i) ∨ ((a_i ≡ b_i) ∧ lt)
        let na = m.not(av);
        let strict = m.and(na, bv);
        let eq = m.iff(av, bv);
        let keep = m.and(eq, lt);
        lt = m.or(strict, keep);
    }
    lt
}

/// The vc2 predicate `0 ≤ R < D` of Definition 1: the remainder's sign
/// bit (MSB of `r`) is clear and its value bits are unsigned-less than
/// the divisor. `r` is the two's-complement remainder word (`2n−1` bits),
/// `d` the divisor word (`n` bits, sign bit included).
pub fn remainder_in_range(m: &mut BddManager, r: &BddWord, d: &BddWord) -> Bdd {
    assert!(!r.0.is_empty(), "remainder word must be non-empty");
    let sign = *r.0.last().expect("non-empty");
    let value = BddWord(r.0[..r.0.len() - 1].to_vec());
    let lt = unsigned_less(m, &value, d);
    let sv = m.var(sign);
    let ns = m.not(sv);
    m.and(ns, lt)
}

/// The static initial variable order of Sect. V: the bits of `R` and `D`
/// with equal indices side by side, higher indices first, followed by the
/// remaining signals in a fanin DFS pre-order from those bits (the
/// ordering of Malik et al. \[25\], "extended to the case that the relative
/// order of certain variables has already been fixed").
///
/// Returns a permutation of all signal indices, suitable for
/// [`BddManager::set_order`].
pub fn interleaved_fanin_order(nl: &Netlist, r: &Word, d: &Word) -> Vec<VarId> {
    let n_sig = nl.num_signals();
    let mut placed = vec![false; n_sig];
    let mut order: Vec<VarId> = Vec::with_capacity(n_sig);
    // Signals whose position is dictated by the interleave (placed only
    // at their scheduled slot, never during DFS).
    let mut fixed = vec![false; n_sig];
    for &s in r.iter().chain(d.iter()) {
        fixed[s.index()] = true;
    }
    let place = |order: &mut Vec<VarId>, placed: &mut Vec<bool>, s: Sig| {
        if !placed[s.index()] {
            placed[s.index()] = true;
            order.push(s.0);
        }
    };
    let dfs = |order: &mut Vec<VarId>, placed: &mut Vec<bool>, fixed: &[bool], root: Sig, nl: &Netlist| {
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            if placed[s.index()] || fixed[s.index()] {
                continue;
            }
            placed[s.index()] = true;
            order.push(s.0);
            // Pre-order: the signal sits above its fanins.
            for f in nl.gate(s).fanins() {
                stack.push(f);
            }
        }
    };
    let rw = r.len();
    for i in (0..rw).rev() {
        place(&mut order, &mut placed, r[i]);
        if i < d.len() {
            place(&mut order, &mut placed, d[i]);
        }
    }
    for i in (0..rw).rev() {
        dfs(&mut order, &mut placed, &fixed, r[i], nl);
    }
    // Remaining signals (quotient cones, constraint logic, …).
    for s in nl.signals().rev() {
        if !placed[s.index()] {
            dfs(&mut order, &mut placed, &fixed, s, nl);
            place(&mut order, &mut placed, s);
        }
    }
    debug_assert_eq!(order.len(), n_sig);
    order
}

/// Statistics of a [`weakest_precondition`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WpcStats {
    /// Gate substitutions performed.
    pub composed: usize,
    /// Peak number of allocated BDD nodes (Table II, col. 8).
    pub peak_nodes: usize,
    /// Dynamic reordering passes triggered.
    pub reorders: usize,
    /// Size of the final WPC BDD.
    pub final_size: usize,
}

/// Cooperative limits for [`weakest_precondition_budgeted`], the BDD
/// counterpart of `sbif_sat::Budget`. The live-node ceiling is
/// deterministic (the traversal is sequential, so the cut happens at
/// the same gate on every run) and is checked first; the interrupt
/// flag is the wall-clock watchdog hook and only ever cancels.
#[derive(Debug, Clone, Default)]
pub struct WpcLimits {
    /// Stop once the manager's live-node population exceeds this after
    /// a compose step (checked post-GC, so transient garbage does not
    /// trip it).
    pub max_live_nodes: Option<usize>,
    /// Cooperative cancellation, polled once per composed gate.
    pub interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

/// Backward traversal of Sect. V: starting from `predicate` (over output
/// signal variables), substitutes every gate-output variable by the BDD
/// of its gate function, in reverse topological order, yielding the
/// weakest precondition over the primary inputs under which the predicate
/// holds at the outputs.
///
/// Dynamic symmetric sifting is triggered by node growth
/// ([`BddManager::maybe_reorder`]); garbage is collected periodically.
pub fn weakest_precondition(
    m: &mut BddManager,
    nl: &Netlist,
    predicate: Bdd,
) -> (Bdd, WpcStats) {
    let (f, stats) = weakest_precondition_budgeted(m, nl, predicate, &WpcLimits::default());
    (f.expect("unlimited WPC traversal always completes"), stats)
}

/// [`weakest_precondition`] under cooperative [`WpcLimits`]: returns
/// `None` instead of a result BDD when the live-node ceiling is hit or
/// the interrupt flag is raised mid-traversal. The stats describe the
/// partial work either way (`composed` tells how far it got).
pub fn weakest_precondition_budgeted(
    m: &mut BddManager,
    nl: &Netlist,
    predicate: Bdd,
    limits: &WpcLimits,
) -> (Option<Bdd>, WpcStats) {
    let mut f = predicate;
    let mut stats = WpcStats::default();
    // Track a superset of f's support to skip irrelevant gates cheaply.
    let mut in_support = vec![false; nl.num_signals()];
    for v in m.support(f) {
        in_support[v as usize] = true;
    }
    // Retire every variable that can never enter the traversal (outside
    // the predicate's transitive fanin cone): dead levels make dynamic
    // reordering quadratically more expensive.
    {
        let roots: Vec<Sig> = in_support
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(Sig(i as u32)))
            .collect();
        let cone: std::collections::HashSet<u32> =
            nl.cone(&roots).into_iter().map(|s| s.0).collect();
        for v in 0..nl.num_signals() as u32 {
            if !cone.contains(&v) && m.is_live_var(v) {
                m.retire_var(v);
            }
        }
    }
    let mut since_gc = 0usize;
    // Adaptive GC watermark: collect once the live population doubles
    // past the last post-collection count, so dead intermediate
    // predicates never dominate the peak-live-nodes gauge.
    let mut gc_watermark = 1024usize.max(m.live_nodes() * 2);
    for s in nl.signals().rev() {
        if !in_support[s.index()] {
            continue;
        }
        let gate = nl.gate(s).clone();
        if gate.is_input() {
            continue;
        }
        let g = match gate {
            Gate::Input => unreachable!(),
            Gate::Const(v) => {
                if v {
                    BddManager::TRUE
                } else {
                    BddManager::FALSE
                }
            }
            Gate::Unary(op, a) => {
                let av = m.var(a.0);
                in_support[a.index()] = true;
                match op {
                    UnaryOp::Buf => av,
                    UnaryOp::Not => m.not(av),
                }
            }
            Gate::Binary(op, a, b) => {
                let av = m.var(a.0);
                let bv = m.var(b.0);
                in_support[a.index()] = true;
                in_support[b.index()] = true;
                use sbif_netlist::BinOp::*;
                match op {
                    And => m.and(av, bv),
                    Or => m.or(av, bv),
                    Xor => m.xor(av, bv),
                    Nand => {
                        let x = m.and(av, bv);
                        m.not(x)
                    }
                    Nor => {
                        let x = m.or(av, bv);
                        m.not(x)
                    }
                    Xnor => m.iff(av, bv),
                    AndNot => {
                        let nb = m.not(bv);
                        m.and(av, nb)
                    }
                }
            }
        };
        f = m.compose(f, s.0, g);
        in_support[s.index()] = false;
        // The composed-away variable can never reappear: drop its level.
        if m.is_live_var(s.0) {
            m.retire_var(s.0);
        }
        stats.composed += 1;
        since_gc += 1;
        if let Some(_r) = m.maybe_reorder(&[f]) {
            stats.reorders += 1;
            // Reordering GCs internally; support flags stay valid.
            since_gc = 0;
            gc_watermark = 1024usize.max(m.live_nodes() * 2);
        } else if m.live_nodes() >= gc_watermark || since_gc >= 64 {
            m.gc(&[f]);
            since_gc = 0;
            gc_watermark = 1024usize.max(m.live_nodes() * 2);
        }
        stats.peak_nodes = stats.peak_nodes.max(m.peak_nodes);
        // Budget poll point: once per composed gate, after any GC, so
        // the live count is the canonical (garbage-free) population.
        if let Some(max) = limits.max_live_nodes {
            if m.live_nodes() > max {
                if since_gc > 0 {
                    m.gc(&[f]);
                    since_gc = 0;
                    gc_watermark = 1024usize.max(m.live_nodes() * 2);
                }
                if m.live_nodes() > max {
                    stats.final_size = m.size(f);
                    return (None, stats);
                }
            }
        }
        if let Some(flag) = &limits.interrupt {
            if flag.load(std::sync::atomic::Ordering::Relaxed) {
                stats.final_size = m.size(f);
                return (None, stats);
            }
        }
    }
    m.gc(&[f]);
    stats.peak_nodes = stats.peak_nodes.max(m.peak_nodes);
    stats.final_size = m.size(f);
    (Some(f), stats)
}

/// Builds the BDD of a signal *forward* (bottom-up over its cone) — used
/// for the input-constraint BDD `C`, whose cone (a comparator) has a
/// linear-size BDD.
pub fn bdd_of_signal(m: &mut BddManager, nl: &Netlist, root: Sig) -> Bdd {
    let cone = nl.cone(&[root]);
    let mut of: std::collections::HashMap<Sig, Bdd> = std::collections::HashMap::new();
    for s in cone {
        let b = match *nl.gate(s) {
            Gate::Input => m.var(s.0),
            Gate::Const(v) => {
                if v {
                    BddManager::TRUE
                } else {
                    BddManager::FALSE
                }
            }
            Gate::Unary(op, a) => {
                let av = of[&a];
                match op {
                    UnaryOp::Buf => av,
                    UnaryOp::Not => m.not(av),
                }
            }
            Gate::Binary(op, a, b) => {
                let (av, bv) = (of[&a], of[&b]);
                use sbif_netlist::BinOp::*;
                match op {
                    And => m.and(av, bv),
                    Or => m.or(av, bv),
                    Xor => m.xor(av, bv),
                    Nand => {
                        let x = m.and(av, bv);
                        m.not(x)
                    }
                    Nor => {
                        let x = m.or(av, bv);
                        m.not(x)
                    }
                    Xnor => m.iff(av, bv),
                    AndNot => {
                        let nb = m.not(bv);
                        m.and(av, nb)
                    }
                }
            }
        };
        of.insert(s, b);
    }
    of[&root]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::build::nonrestoring_divider;

    #[test]
    fn unsigned_less_exhaustive() {
        let mut m = BddManager::new();
        let a = BddWord(vec![0, 1, 2]);
        let b = BddWord(vec![3, 4, 5]);
        let lt = unsigned_less(&mut m, &a, &b);
        for x in 0u32..8 {
            for y in 0u32..8 {
                let got = m.eval(lt, |v| {
                    if v < 3 {
                        (x >> v) & 1 == 1
                    } else {
                        (y >> (v - 3)) & 1 == 1
                    }
                });
                assert_eq!(got, x < y, "{x} < {y}");
            }
        }
    }

    #[test]
    fn unsigned_less_mixed_width() {
        let mut m = BddManager::new();
        let a = BddWord(vec![0, 1, 2, 3]); // 4 bits
        let b = BddWord(vec![4, 5]); // 2 bits, zero-extended
        let lt = unsigned_less(&mut m, &a, &b);
        for x in 0u32..16 {
            for y in 0u32..4 {
                let got = m.eval(lt, |v| {
                    if v < 4 {
                        (x >> v) & 1 == 1
                    } else {
                        (y >> (v - 4)) & 1 == 1
                    }
                });
                assert_eq!(got, x < y, "{x} < {y}");
            }
        }
    }

    #[test]
    fn interleaved_order_is_linear_for_less() {
        // Under the interleaved MSB-first order the comparator BDD is
        // linear; under a separated order it is exponential.
        let k = 8u32;
        let mut m = BddManager::new();
        let order: Vec<VarId> = (0..k).rev().flat_map(|i| [i, k + i]).collect();
        m.set_order(&order);
        let a = BddWord((0..k).collect());
        let b = BddWord((k..2 * k).collect());
        let lt = unsigned_less(&mut m, &a, &b);
        assert!(m.size(lt) <= 3 * k as usize + 2, "size {}", m.size(lt));
    }

    #[test]
    fn remainder_predicate_semantics() {
        let mut m = BddManager::new();
        // 3-bit remainder (1 sign + 2 value), 2-bit divisor.
        let r = BddWord(vec![0, 1, 2]);
        let d = BddWord(vec![3, 4]);
        let p = remainder_in_range(&mut m, &r, &d);
        for rv in 0u32..8 {
            for dv in 0u32..4 {
                let got = m.eval(p, |v| {
                    if v < 3 {
                        (rv >> v) & 1 == 1
                    } else {
                        (dv >> (v - 3)) & 1 == 1
                    }
                });
                let signed_r = if rv >= 4 { rv as i32 - 8 } else { rv as i32 };
                let expect = signed_r >= 0 && (signed_r as u32) < dv;
                assert_eq!(got, expect, "r={signed_r} d={dv}");
            }
        }
    }

    #[test]
    fn forward_bdd_matches_simulation() {
        let div = nonrestoring_divider(2);
        let nl = &div.netlist;
        let mut m = BddManager::new();
        let c = bdd_of_signal(&mut m, nl, div.constraint);
        for r0 in 0u64..4 {
            for dv in 0u64..2 {
                let out = {
                    let mut with_c = nl.clone();
                    with_c.add_output("c", div.constraint);
                    with_c.eval_u64(&[("r0", r0), ("d", dv)])
                };
                let inputs: Vec<bool> = nl
                    .inputs()
                    .iter()
                    .map(|&s| {
                        let name = nl.name(s).expect("named");
                        let (bus, idx) = name.split_once('[').map(|(b, r)| {
                            (b, r.trim_end_matches(']').parse::<usize>().expect("idx"))
                        }).expect("bus");
                        let v = if bus == "r0" { r0 } else { dv };
                        (v >> idx) & 1 == 1
                    })
                    .collect();
                let vals = nl.simulate_bool(&inputs);
                let got = m.eval(c, |v| vals[v as usize]);
                // both paths must agree with the simulated constraint bit
                assert_eq!(got, vals[div.constraint.index()]);
                let _ = out;
            }
        }
    }

    #[test]
    fn wpc_of_identity_circuit() {
        // A circuit that just wires inputs to outputs: the WPC of any
        // predicate is the predicate over the inputs.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.and(a, b);
        nl.add_output("o", g);
        let mut m = BddManager::new();
        let pred = m.var(g.0); // "output is 1"
        let (wpc, stats) = weakest_precondition(&mut m, &nl, pred);
        let expect = {
            let av = m.var(a.0);
            let bv = m.var(b.0);
            m.and(av, bv)
        };
        assert_eq!(wpc, expect);
        assert_eq!(stats.composed, 1);
    }

    #[test]
    fn wpc_vc2_tiny_divider() {
        // End-to-end vc2 on the 2-bit divider: C → WPC(0 ≤ R < D).
        let div = nonrestoring_divider(2);
        let nl = &div.netlist;
        let mut m = BddManager::new();
        m.set_order(&interleaved_fanin_order(nl, &div.remainder, &div.divisor));
        let r = BddWord::from(&div.remainder);
        let d = BddWord::from(&div.divisor);
        let pred = remainder_in_range(&mut m, &r, &d);
        let (wpc, _stats) = weakest_precondition(&mut m, nl, pred);
        let c = bdd_of_signal(&mut m, nl, div.constraint);
        assert!(m.implies_taut(c, wpc), "C must imply WPC for a correct divider");
        // And the implication must be strict (some invalid input violates
        // the remainder condition).
        assert_ne!(wpc, BddManager::TRUE);
    }

    #[test]
    fn budgeted_wpc_stops_on_live_node_ceiling_and_interrupt() {
        let div = nonrestoring_divider(4);
        let nl = &div.netlist;
        let mut m = BddManager::new();
        m.set_order(&interleaved_fanin_order(nl, &div.remainder, &div.divisor));
        let r = BddWord::from(&div.remainder);
        let d = BddWord::from(&div.divisor);
        let pred = remainder_in_range(&mut m, &r, &d);
        // A one-node ceiling must abort almost immediately…
        let limits = WpcLimits { max_live_nodes: Some(1), interrupt: None };
        let (f, stats) = weakest_precondition_budgeted(&mut m, nl, pred, &limits);
        assert!(f.is_none(), "a 1-node budget cannot complete");
        assert!(stats.composed >= 1, "at least one gate composes before the poll");

        // …a pre-raised interrupt likewise…
        let mut m2 = BddManager::new();
        m2.set_order(&interleaved_fanin_order(nl, &div.remainder, &div.divisor));
        let pred2 = remainder_in_range(&mut m2, &r, &d);
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let limits2 = WpcLimits { max_live_nodes: None, interrupt: Some(flag) };
        let (f2, _) = weakest_precondition_budgeted(&mut m2, nl, pred2, &limits2);
        assert!(f2.is_none());

        // …and an ample budget reproduces the unlimited result exactly.
        let mut m3 = BddManager::new();
        m3.set_order(&interleaved_fanin_order(nl, &div.remainder, &div.divisor));
        let pred3 = remainder_in_range(&mut m3, &r, &d);
        let limits3 = WpcLimits { max_live_nodes: Some(1 << 20), interrupt: None };
        let (f3, s3) = weakest_precondition_budgeted(&mut m3, nl, pred3, &limits3);
        let mut m4 = BddManager::new();
        m4.set_order(&interleaved_fanin_order(nl, &div.remainder, &div.divisor));
        let pred4 = remainder_in_range(&mut m4, &r, &d);
        let (f4, s4) = weakest_precondition(&mut m4, nl, pred4);
        assert!(f3.is_some());
        assert_eq!(s3.composed, s4.composed);
        assert_eq!(s3.final_size, s4.final_size);
        let _ = f4;
    }
}

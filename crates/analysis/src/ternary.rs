//! Ternary (0/1/X) constant propagation with constraint justification.
//!
//! A fixpoint over the netlist DAG on the three-valued lattice
//! `{0, 1, X}`: forward sweeps evaluate gates whose fanins are known,
//! backward sweeps *justify* known outputs into their fanins (assuming
//! the constraint signal C is 1 forces, e.g., both fanins of an AND
//! driving C, the paper's "forced inputs" of the side condition). Both
//! directions use the same exhaustive two-bit enumeration of each
//! gate's truth table, so the transfer functions are sound and maximally
//! precise per gate by construction.
//!
//! With a constraint, the computed facts hold **under C = 1**; without
//! one they are unconditional (the mode the lint driver uses).

use sbif_netlist::{Gate, Netlist, Sig};

/// A value on the three-valued lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ternary {
    /// Known 0.
    Zero,
    /// Known 1.
    One,
    /// Unknown.
    X,
}

impl Ternary {
    /// The lattice value of a known bit.
    pub fn of(b: bool) -> Self {
        if b {
            Ternary::One
        } else {
            Ternary::Zero
        }
    }

    /// `Some(bit)` when the value is known.
    pub fn known(self) -> Option<bool> {
        match self {
            Ternary::Zero => Some(false),
            Ternary::One => Some(true),
            Ternary::X => None,
        }
    }

    /// The candidate bit values this lattice element admits.
    fn options(self) -> &'static [bool] {
        match self {
            Ternary::Zero => &[false],
            Ternary::One => &[true],
            Ternary::X => &[false, true],
        }
    }
}

/// Result of the fixpoint; see [`propagate`].
#[derive(Debug, Clone)]
pub struct TernaryResult {
    /// Per-signal lattice value.
    pub values: Vec<Ternary>,
    /// Signals with a known value that are **not** constant drivers —
    /// stuck-at facts, including constraint-forced primary inputs.
    pub stuck: Vec<(Sig, bool)>,
    /// Contradictions met while justifying (a known signal implied to
    /// the opposite value). Non-zero only on netlists whose constraint
    /// is unsatisfiable or that were seeded inconsistently; the first
    /// derived value wins and the conflict is counted.
    pub conflicts: usize,
    /// Forward/backward rounds until the fixpoint.
    pub rounds: usize,
}

/// Runs the ternary fixpoint over `nl`, optionally assuming
/// `constraint` evaluates to 1.
pub fn propagate(nl: &Netlist, constraint: Option<Sig>) -> TernaryResult {
    let n = nl.num_signals();
    let mut v = vec![Ternary::X; n];
    let mut conflicts = 0usize;
    let set = |v: &mut Vec<Ternary>, conflicts: &mut usize, s: Sig, val: bool| -> bool {
        match v[s.index()].known() {
            None => {
                v[s.index()] = Ternary::of(val);
                true
            }
            Some(old) => {
                if old != val {
                    *conflicts += 1;
                }
                false
            }
        }
    };

    for s in nl.signals() {
        if let Gate::Const(c) = *nl.gate(s) {
            v[s.index()] = Ternary::of(c);
        }
    }
    if let Some(c) = constraint {
        set(&mut v, &mut conflicts, c, true);
    }

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;
        // Forward: evaluate gates over known fanins.
        for s in nl.signals() {
            if v[s.index()] != Ternary::X {
                continue;
            }
            if let Some(val) = eval(nl.gate(s), &v) {
                changed |= set(&mut v, &mut conflicts, s, val);
            }
        }
        // Backward: justify known outputs into fanins.
        for s in nl.signals().rev() {
            let Some(out) = v[s.index()].known() else { continue };
            match *nl.gate(s) {
                Gate::Input | Gate::Const(_) => {}
                Gate::Unary(op, a) => {
                    let forced = out ^ (op == sbif_netlist::UnaryOp::Not);
                    changed |= set(&mut v, &mut conflicts, a, forced);
                }
                Gate::Binary(op, a, b) => {
                    let (fa, fb) = justify(op, out, v[a.index()], v[b.index()]);
                    if let Some(bit) = fa {
                        changed |= set(&mut v, &mut conflicts, a, bit);
                    }
                    if let Some(bit) = fb {
                        changed |= set(&mut v, &mut conflicts, b, bit);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let stuck = nl
        .signals()
        .filter(|&s| !nl.gate(s).is_const())
        .filter_map(|s| v[s.index()].known().map(|bit| (s, bit)))
        .collect();
    TernaryResult { values: v, stuck, conflicts, rounds }
}

/// Three-valued forward evaluation of one gate; `None` means X.
fn eval(gate: &Gate, v: &[Ternary]) -> Option<bool> {
    match *gate {
        Gate::Input => None,
        Gate::Const(c) => Some(c),
        Gate::Unary(op, a) => {
            let x = v[a.index()].known()?;
            Some(op.eval64(x as u64) & 1 == 1)
        }
        Gate::Binary(op, a, b) => {
            let (mut can0, mut can1) = (false, false);
            for &x in v[a.index()].options() {
                for &y in v[b.index()].options() {
                    if op.eval64(x as u64, y as u64) & 1 == 1 {
                        can1 = true;
                    } else {
                        can0 = true;
                    }
                }
            }
            match (can0, can1) {
                (true, false) => Some(false),
                (false, true) => Some(true),
                _ => None,
            }
        }
    }
}

/// Given `op(a, b) = out` and the current fanin values, the fanin bits
/// every consistent assignment agrees on.
fn justify(
    op: sbif_netlist::BinOp,
    out: bool,
    va: Ternary,
    vb: Ternary,
) -> (Option<bool>, Option<bool>) {
    let (mut a_can, mut b_can) = ([false; 2], [false; 2]);
    for &x in va.options() {
        for &y in vb.options() {
            if (op.eval64(x as u64, y as u64) & 1 == 1) == out {
                a_can[x as usize] = true;
                b_can[y as usize] = true;
            }
        }
    }
    let forced = |can: [bool; 2]| match can {
        [true, false] => Some(false),
        [false, true] => Some(true),
        _ => None,
    };
    (forced(a_can), forced(b_can))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_constants_cascade() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let zero = nl.push_gate(Gate::Const(false));
        let g = nl.push_gate(Gate::Binary(sbif_netlist::BinOp::And, a, zero));
        let h = nl.push_gate(Gate::Binary(sbif_netlist::BinOp::Or, g, a));
        nl.add_output("o", h);
        let r = propagate(&nl, None);
        assert_eq!(r.values[g.index()], Ternary::Zero);
        // OR(0, a) is still a — unknown.
        assert_eq!(r.values[h.index()], Ternary::X);
        assert_eq!(r.values[a.index()], Ternary::X);
        assert_eq!(r.stuck, vec![(g, false)]);
        assert_eq!(r.conflicts, 0);
    }

    #[test]
    fn constraint_justifies_backwards_through_and_chain() {
        // C = AND(AND(a, b), NOT(c)): assuming C = 1 forces a, b, !c.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("c");
        let ab = nl.and(a, b);
        let nc = nl.not(c);
        let cons = nl.and(ab, nc);
        nl.add_output("c", cons);
        let r = propagate(&nl, Some(cons));
        assert_eq!(r.values[a.index()], Ternary::One);
        assert_eq!(r.values[b.index()], Ternary::One);
        assert_eq!(r.values[c.index()], Ternary::Zero);
        assert_eq!(r.conflicts, 0);
        assert!(r.stuck.contains(&(a, true)));
    }

    #[test]
    fn xor_justification_needs_one_known_side() {
        // C = XNOR(x, y): C=1 relates x and y but forces neither.
        // Adding x=1 via AND then forces y through the XNOR.
        let mut nl = Netlist::new();
        let x = nl.input("x");
        let y = nl.input("y");
        let eq = nl.xnor(x, y);
        let cons = nl.and(eq, x);
        let r = propagate(&nl, Some(cons));
        assert_eq!(r.values[x.index()], Ternary::One);
        assert_eq!(r.values[y.index()], Ternary::One);
    }

    #[test]
    fn unsatisfiable_constraint_reports_a_conflict() {
        // C = AND(x, NOT(x)) can never be 1.
        let mut nl = Netlist::new();
        let x = nl.input("x");
        let nx = nl.push_gate(Gate::Unary(sbif_netlist::UnaryOp::Not, x));
        let cons = nl.push_gate(Gate::Binary(sbif_netlist::BinOp::And, x, nx));
        let r = propagate(&nl, Some(cons));
        assert!(r.conflicts > 0);
    }
}

//! Tseitin encoding of netlist cones into CNF.

use crate::{Lit, Solver, Var};
use sbif_netlist::{BinOp, Gate, Netlist, Sig, UnaryOp};

/// Maps netlist signals to solver variables and emits gate clauses.
///
/// Signals are encoded lazily: requesting the literal of a signal whose
/// gate has not been encoded yields a *free* variable — exactly the "cut
/// point" semantics SBIF's windowed checks rely on (window frontiers stay
/// unconstrained, which makes the UNSAT answers conservative and sound).
///
/// # Examples
///
/// ```
/// use sbif_netlist::Netlist;
/// use sbif_sat::{NetlistEncoder, SolveResult, Solver};
///
/// let mut nl = Netlist::new();
/// let a = nl.input("a");
/// let b = nl.input("b");
/// let g = nl.and(a, b);
/// let h = nl.not(g);
///
/// let mut solver = Solver::new();
/// let mut enc = NetlistEncoder::new(&nl);
/// enc.encode_cone(&mut solver, &nl, h);
/// // Assert h ∧ a ∧ b — contradiction with h = ¬(a ∧ b).
/// let (la, lb, lh) = (enc.lit(&mut solver, a), enc.lit(&mut solver, b), enc.lit(&mut solver, h));
/// assert_eq!(solver.solve_assuming(&[lh, la, lb]), SolveResult::Unsat);
/// ```
#[derive(Debug)]
pub struct NetlistEncoder {
    var_of: Vec<Option<Var>>,
    encoded: Vec<bool>,
}

impl NetlistEncoder {
    /// Creates an encoder for (up to) the signals of `nl`.
    pub fn new(nl: &Netlist) -> Self {
        NetlistEncoder {
            var_of: vec![None; nl.num_signals()],
            encoded: vec![false; nl.num_signals()],
        }
    }

    /// The solver literal for signal `s`, allocating a fresh variable on
    /// first use. Does *not* constrain the variable — call
    /// [`encode_gate`](Self::encode_gate) or
    /// [`encode_cone`](Self::encode_cone) for that.
    pub fn lit(&mut self, solver: &mut Solver, s: Sig) -> Lit {
        let v = match self.var_of[s.index()] {
            Some(v) => v,
            None => {
                let v = solver.new_var();
                self.var_of[s.index()] = Some(v);
                v
            }
        };
        Lit::pos(v)
    }

    /// The literal of `s` if a variable was already allocated for it
    /// (no allocation side effect) — useful for reading back models.
    pub fn peek_lit(&self, s: Sig) -> Option<Lit> {
        self.var_of[s.index()].map(Lit::pos)
    }

    /// Emits the CNF clauses constraining `s` to its gate function over
    /// its fanin literals. Idempotent.
    pub fn encode_gate(&mut self, solver: &mut Solver, nl: &Netlist, s: Sig) {
        if self.encoded[s.index()] {
            return;
        }
        self.encoded[s.index()] = true;
        self.emit_gate(solver, nl, s, None, Self::lit);
    }

    /// Emits the CNF clauses constraining `s` to its gate function, with
    /// `fanin` supplying each fanin's literal. `s`'s literal is
    /// allocated first, then the fanins' in order. With a `guard`, every
    /// clause is activation-guarded
    /// ([`Solver::add_clause_activated`]). Unlike
    /// [`encode_gate`](Self::encode_gate) this ignores and leaves alone
    /// the encoded marks, so a gate may be emitted any number of times:
    /// SBIF's windows emit gates over class-representative fanins, once
    /// per check.
    pub fn emit_gate(
        &mut self,
        solver: &mut Solver,
        nl: &Netlist,
        s: Sig,
        guard: Option<Lit>,
        mut fanin: impl FnMut(&mut Self, &mut Solver, Sig) -> Lit,
    ) {
        let clause = |solver: &mut Solver, lits: &[Lit]| match guard {
            Some(g) => solver.add_clause_activated(g, lits.iter().copied()),
            None => solver.add_clause(lits.iter().copied()),
        };
        let out = self.lit(solver, s);
        match *nl.gate(s) {
            Gate::Input => {}
            Gate::Const(v) => {
                clause(solver, &[if v { out } else { !out }]);
            }
            Gate::Unary(op, a) => {
                let la = fanin(self, solver, a);
                let rhs = match op {
                    UnaryOp::Buf => la,
                    UnaryOp::Not => !la,
                };
                clause(solver, &[!out, rhs]);
                clause(solver, &[out, !rhs]);
            }
            Gate::Binary(op, a, b) => {
                let la = fanin(self, solver, a);
                let lb = fanin(self, solver, b);
                // Everything but XOR/XNOR is `o = x ∧ y` with suitable
                // polarities.
                let (o, x, y) = match op {
                    BinOp::And | BinOp::Xor => (out, la, lb),
                    BinOp::Nand | BinOp::Xnor => (!out, la, lb),
                    BinOp::Or => (!out, !la, !lb),
                    BinOp::Nor => (out, !la, !lb),
                    BinOp::AndNot => (out, la, !lb),
                };
                if matches!(op, BinOp::Xor | BinOp::Xnor) {
                    clause(solver, &[!o, x, y]);
                    clause(solver, &[!o, !x, !y]);
                    clause(solver, &[o, !x, y]);
                    clause(solver, &[o, x, !y]);
                } else {
                    clause(solver, &[!o, x]);
                    clause(solver, &[!o, y]);
                    clause(solver, &[o, !x, !y]);
                }
            }
        }
    }

    /// Encodes the whole transitive fanin cone of `root` (including the
    /// root's gate).
    pub fn encode_cone(&mut self, solver: &mut Solver, nl: &Netlist, root: Sig) {
        for s in nl.cone(&[root]) {
            self.encode_gate(solver, nl, s);
        }
    }

    /// Encodes every gate of the netlist.
    pub fn encode_all(&mut self, solver: &mut Solver, nl: &Netlist) {
        for s in nl.signals() {
            self.encode_gate(solver, nl, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;
    use sbif_netlist::build::{miter, nonrestoring_divider, restoring_divider};
    use sbif_netlist::Netlist;

    /// Checks via SAT that a single-output netlist is constant 0.
    fn prove_constant_zero(nl: &Netlist, out: Sig) -> bool {
        let mut solver = Solver::new();
        let mut enc = NetlistEncoder::new(nl);
        enc.encode_cone(&mut solver, nl, out);
        let l = enc.lit(&mut solver, out);
        solver.solve_assuming(&[l]) == SolveResult::Unsat
    }

    #[test]
    fn encode_matches_simulation_per_gate() {
        // For every gate kind, the CNF must agree with simulation on all
        // input combinations — encoded plainly, and emitted under an
        // activation guard, where it binds only while the guard is
        // assumed.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let gates = vec![
            nl.and(a, b),
            nl.or(a, b),
            nl.xor(a, b),
            nl.nand(a, b),
            nl.nor(a, b),
            nl.xnor(a, b),
            nl.and_not(a, b),
            nl.not(a),
            nl.constant(false),
            nl.constant(true),
        ];
        for &g in &gates {
            for av in [false, true] {
                for bv in [false, true] {
                    let sim = nl.simulate_bool(&[av, bv]);
                    // The assignment to (a, b, g), with g as simulated
                    // (`agree`) or flipped.
                    let assign = |enc: &mut NetlistEncoder, solver: &mut Solver, agree: bool| {
                        let (la, lb, lg) =
                            (enc.lit(solver, a), enc.lit(solver, b), enc.lit(solver, g));
                        vec![
                            if av { la } else { !la },
                            if bv { lb } else { !lb },
                            if sim[g.index()] == agree { lg } else { !lg },
                        ]
                    };
                    let mut solver = Solver::new();
                    let mut enc = NetlistEncoder::new(&nl);
                    enc.encode_cone(&mut solver, &nl, g);
                    let good = assign(&mut enc, &mut solver, true);
                    assert_eq!(solver.solve_assuming(&good), SolveResult::Sat);
                    let bad = assign(&mut enc, &mut solver, false);
                    assert_eq!(solver.solve_assuming(&bad), SolveResult::Unsat);

                    let mut solver = Solver::new();
                    let mut enc = NetlistEncoder::new(&nl);
                    let guard = solver.new_activation();
                    enc.emit_gate(&mut solver, &nl, g, Some(guard), NetlistEncoder::lit);
                    let good = assign(&mut enc, &mut solver, true);
                    let bad = assign(&mut enc, &mut solver, false);
                    let guarded = |lits: &[Lit]| [lits, &[guard]].concat();
                    assert_eq!(solver.solve_assuming(&guarded(&good)), SolveResult::Sat);
                    assert_eq!(solver.solve_assuming(&guarded(&bad)), SolveResult::Unsat);
                    solver.retire_activation(guard);
                    assert_eq!(solver.solve_assuming(&bad), SolveResult::Sat, "guard retired");
                }
            }
        }
    }

    #[test]
    fn divider_miter_unsat_small() {
        // SAT-based CEC of a 2-bit divider pair: the constrained miter
        // must be constant 0 and SAT must prove it.
        use sbif_netlist::build::divider_miter;
        let a = nonrestoring_divider(2);
        let b = restoring_divider(2);
        let m = divider_miter(&a.netlist, &b.netlist, 2);
        let out = m.output("miter").expect("miter output");
        assert!(prove_constant_zero(&m, out));
    }

    #[test]
    fn miter_sat_model_is_a_real_counterexample() {
        // Miter a divider against a broken copy (one quotient bit
        // inverted); the solver must find a model, and replaying the
        // model through simulation must reproduce the difference.
        let good = nonrestoring_divider(2);
        let mut broken = Netlist::new();
        let map = sbif_netlist::build::append_netlist(&mut broken, &good.netlist, |d, n| {
            d.input(n)
        });
        for (name, s) in good.netlist.outputs() {
            let mapped = map[s.index()];
            if name == "q[0]" {
                let inv = broken.not(mapped);
                broken.add_output(name, inv);
            } else {
                broken.add_output(name, mapped);
            }
        }
        let m = miter(&good.netlist, &broken);
        let out = m.output("miter").expect("miter output");
        let mut solver = Solver::new();
        let mut enc = NetlistEncoder::new(&m);
        enc.encode_cone(&mut solver, &m, out);
        let l = enc.lit(&mut solver, out);
        assert_eq!(solver.solve_assuming(&[l]), SolveResult::Sat);
        // Replay the model.
        let inputs: Vec<bool> = m
            .inputs()
            .iter()
            .map(|&s| {
                let lit = enc.lit(&mut solver, s);
                solver.model_lit(lit).unwrap_or(false)
            })
            .collect();
        let vals = m.simulate_bool(&inputs);
        assert!(vals[out.index()], "model must drive the miter to 1");
    }

    #[test]
    fn cut_point_semantics() {
        // Encoding only the top gate leaves fanins free: ¬(a∧b) with a,b
        // free can be either value even when deeper logic would force it.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let na = nl.not(a);
        let g = nl.and(a, na); // constant false in the circuit
        let mut solver = Solver::new();
        let mut enc = NetlistEncoder::new(&nl);
        // Encode ONLY the AND gate, treating `na` as a cut variable.
        enc.encode_gate(&mut solver, &nl, g);
        let lg = enc.lit(&mut solver, g);
        assert_eq!(solver.solve_assuming(&[lg]), SolveResult::Sat);
        // Now close the window: encode the inverter too.
        enc.encode_gate(&mut solver, &nl, na);
        assert_eq!(solver.solve_assuming(&[lg]), SolveResult::Unsat);
    }
}

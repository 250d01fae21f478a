//! Seeded input perturbation: the only thing `--seed` changes.
//!
//! Seed 0 is the canonical netlist. Any other seed swaps the two fanins
//! of eligible commutative binary gates, each with probability ½. The
//! Boolean function, the signal indices (so every `Divider` word stays
//! valid) and atomic-block detection (which sorts fanin pairs) are
//! unchanged; what changes is the literal order of the Tseitin clauses,
//! and with it the search order of every SAT solver in the flow.
//!
//! For a divider only gates with a fanin among its divisor and remainder
//! bits are eligible. vc2's static BDD variable order is a fanin DFS
//! that gives those bits fixed slots and skips them, so these swaps leave
//! the order, and the BDD problem, unchanged. Swapping any other gate
//! moves whole subtrees in that order: at n = 32 it turns a 25 s
//! verification into 60–67 s, so the seed would choose the workload
//! rather than the search order.

use sbif_netlist::{BinOp, Gate, Netlist, Sig};
use sbif_rng::XorShift64;

/// The netlist of `nl` with fanins swapped as `seed` dictates. With
/// `pinned`, only gates with a fanin in `pinned` are eligible; without,
/// every commutative binary gate is. Gates are copied verbatim through
/// [`Netlist::push_gate`]; names and outputs are kept.
pub fn perturb(nl: &Netlist, seed: u64, pinned: Option<&[Sig]>) -> Netlist {
    if seed == 0 {
        return nl.clone();
    }
    let mut eligible = vec![pinned.is_none(); nl.num_signals()];
    for s in pinned.into_iter().flatten() {
        eligible[s.index()] = true;
    }
    let mut rng = XorShift64::seed_from_u64(seed);
    let mut out = Netlist::new();
    for s in nl.signals() {
        let name = nl.name(s);
        let t = match (nl.gate(s), name) {
            (Gate::Input, Some(name)) => out.input(name),
            (&Gate::Binary(op, a, b), _)
                if op != BinOp::AndNot
                    && (eligible[a.index()] || eligible[b.index()])
                    && rng.next_bool() =>
            {
                out.push_gate(Gate::Binary(op, b, a))
            }
            (g, _) => out.push_gate(g.clone()),
        };
        debug_assert_eq!(t, s, "push_gate keeps signal indices");
        if let (Some(name), false) = (name, nl.gate(s).is_input()) {
            out.set_name(t, name);
        }
    }
    for (name, s) in nl.outputs() {
        out.add_output(name, *s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_bdd::interleaved_fanin_order;
    use sbif_core::verify::DividerVerifier;
    use sbif_netlist::build::{nonrestoring_divider, Divider};

    fn gates(nl: &Netlist) -> Vec<Gate> {
        nl.gates().to_vec()
    }

    fn pins(div: &Divider) -> Vec<Sig> {
        div.divisor
            .iter()
            .chain(div.remainder.iter())
            .copied()
            .collect()
    }

    #[test]
    fn seed_zero_is_the_identity() {
        let div = nonrestoring_divider(6);
        for pinned in [None, Some(&pins(&div)[..])] {
            let same = perturb(&div.netlist, 0, pinned);
            assert_eq!(gates(&same), gates(&div.netlist));
            assert_eq!(same.outputs(), div.netlist.outputs());
        }
    }

    #[test]
    fn perturbed_netlists_simulate_like_the_canonical_one() {
        let div = nonrestoring_divider(6);
        let inputs = div.netlist.inputs().len();
        let mut rng = XorShift64::seed_from_u64(99);
        let words: Vec<Vec<u64>> = (0..64)
            .map(|_| (0..inputs).map(|_| rng.next_u64()).collect())
            .collect();
        for seed in [1u64, 2, 7, 0xDEAD_BEEF] {
            for pinned in [None, Some(&pins(&div)[..])] {
                let p = perturb(&div.netlist, seed, pinned);
                assert_ne!(
                    gates(&p),
                    gates(&div.netlist),
                    "seed {seed} swaps some fanins"
                );
                assert_eq!(p.num_signals(), div.netlist.num_signals());
                for w in &words {
                    assert_eq!(p.simulate64(w), div.netlist.simulate64(w), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn pinned_swaps_keep_the_vc2_variable_order() {
        let div = nonrestoring_divider(8);
        let order = |nl: &Netlist| interleaved_fanin_order(nl, &div.remainder, &div.divisor);
        let canonical = order(&div.netlist);
        for seed in 1..5 {
            let pinned = perturb(&div.netlist, seed, Some(&pins(&div)));
            assert_eq!(order(&pinned), canonical, "seed {seed}");
        }
        assert_ne!(order(&perturb(&div.netlist, 1, None)), canonical);
    }

    #[test]
    fn a_perturbed_divider_still_verifies() {
        let div = nonrestoring_divider(4);
        let netlist = perturb(&div.netlist, 5, Some(&pins(&div)));
        let perturbed = Divider { netlist, ..div };
        let report = DividerVerifier::new(&perturbed)
            .verify()
            .expect("n = 4 fits");
        assert!(report.verdict.is_proven(), "{:?}", report.verdict);
    }
}

//! Verification condition vc2: `0 ≤ R < D` (Sect. V of the paper).
//!
//! Backward rewriting cannot express `0 ≤ R < D` as a polynomial of
//! manageable size, but the predicate has a linear-size BDD under an
//! interleaved variable order. The check:
//!
//! 1. build the BDD of `0 ≤ R < D` over the output variables,
//! 2. substitute the gates backwards (weakest precondition `WPC`),
//! 3. verify that the input constraint implies `WPC`, i.e. the BDD of
//!    `¬C ∨ WPC` is the constant 1.

use sbif_bdd::{
    bdd_of_signal, interleaved_fanin_order, remainder_in_range, weakest_precondition_budgeted,
    BddManager, BddWord, WpcLimits, WpcStats,
};
use sbif_govern::{CancelToken, Exhausted, Resource};
use sbif_netlist::build::Divider;

/// Initial live-node threshold that triggers dynamic (symmetric)
/// sifting; doubles after every pass. It is tuned against *live* node
/// counts: the engine's adaptive GC keeps garbage out of the population
/// that triggers sifting, so it sits far below the old garbage-inflated
/// threshold (at n = 32 this is the difference between a 122k and a
/// 396k node peak — see EXPERIMENTS.md Table II).
const REORDER_THRESHOLD: usize = 4096;

/// Live-node population the manager's unique and computed tables are
/// pre-sized for (DESIGN.md §13). Larger traversals grow the tables
/// incrementally.
const TABLE_CAPACITY: usize = 1 << 14;

/// Result of the vc2 check.
#[derive(Debug, Clone, PartialEq)]
pub struct Vc2Report {
    /// Whether `C → WPC(0 ≤ R < D)` is a tautology.
    pub holds: bool,
    /// Peak number of live BDD nodes (Table II, col. 8), counted
    /// post-complement-edges: a function and its negation share every
    /// node, so this runs roughly half the node count of an engine
    /// without complement edges. Emitted as the `vc2.peak_live_nodes`
    /// gauge.
    pub peak_nodes: usize,
    /// Live BDD nodes when the check finished (≤ `peak_nodes`).
    pub final_nodes: usize,
    /// Entries in the manager's unique table at the end of the check.
    pub unique_entries: usize,
    /// Entries in the manager's computed-table (operation cache) at the
    /// end of the check.
    pub cache_entries: usize,
    /// Statistics of the backward traversal.
    pub wpc_stats: WpcStats,
    /// When `holds` is false: a valid input violating the remainder
    /// condition, as `(input name, value)` bits (unlisted inputs are
    /// don't-cares).
    pub counterexample: Option<Vec<(String, bool)>>,
}

/// Checks vc2 for a divider.
///
/// # Examples
///
/// ```
/// use sbif_core::vc2::check_vc2;
/// use sbif_netlist::build::nonrestoring_divider;
///
/// let div = nonrestoring_divider(3);
/// let report = check_vc2(&div);
/// assert!(report.holds);
/// ```
pub fn check_vc2(div: &Divider) -> Vc2Report {
    check_vc2_governed(div, None, None).expect("ungoverned vc2 always completes")
}

/// [`check_vc2`] under a live-node budget and/or a cancel token. A
/// stopped traversal returns its record at stage `"vc2"`: on
/// [`Resource::BddLiveNodes`] (deterministic — the traversal is
/// sequential; `spent` is the live-node count at the cut), after which
/// the caller is expected to degrade to the bounded SAT fallback
/// (`sbif_cec::vc2_sat`, see the fallback ladder in DESIGN.md §16), or
/// on the wall clock when the watchdog cancelled it.
pub fn check_vc2_governed(
    div: &Divider,
    max_live_nodes: Option<usize>,
    cancel: Option<&CancelToken>,
) -> Result<Vc2Report, Exhausted> {
    let nl = &div.netlist;
    let mut m = BddManager::with_table_capacity(TABLE_CAPACITY);
    m.reorder_threshold = REORDER_THRESHOLD;
    m.set_order(&interleaved_fanin_order(nl, &div.remainder, &div.divisor));

    let r = BddWord::from(&div.remainder);
    let d = BddWord::from(&div.divisor);
    let predicate = remainder_in_range(&mut m, &r, &d);
    let limits = WpcLimits { max_live_nodes, interrupt: cancel.map(CancelToken::flag) };
    let (wpc, wpc_stats) = weakest_precondition_budgeted(&mut m, nl, predicate, &limits);
    let Some(wpc) = wpc else {
        // A deterministic budget overrun wins the attribution over a
        // racing cancellation (mirrors the SBIF commit loop).
        return Err(match max_live_nodes.filter(|&mx| m.live_nodes() > mx) {
            Some(limit) => Exhausted {
                stage: "vc2",
                resource: Resource::BddLiveNodes,
                spent: m.live_nodes() as u64,
                limit: limit as u64,
            },
            None => cancel
                .expect("only the budget or the token stops the traversal")
                .exhausted("vc2"),
        });
    };
    let c = bdd_of_signal(&mut m, nl, div.constraint);
    let holds = m.implies_taut(c, wpc);
    let counterexample = if holds {
        None
    } else {
        let nw = m.not(wpc);
        let bad = m.and(c, nw);
        m.one_sat(bad).map(|path| {
            path.into_iter()
                .filter_map(|(v, val)| {
                    let sig = sbif_netlist::Sig(v);
                    nl.name(sig).map(|n| (n.to_string(), val))
                })
                .collect()
        })
    };
    Ok(Vc2Report {
        holds,
        peak_nodes: m.peak_nodes,
        final_nodes: m.live_nodes(),
        unique_entries: m.unique_len(),
        cache_entries: m.cache_len(),
        wpc_stats,
        counterexample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::build::{nonrestoring_divider, restoring_divider};
    use sbif_netlist::{Netlist, Sig};

    #[test]
    fn vc2_holds_for_correct_dividers() {
        for n in [2usize, 3, 4, 6] {
            let div = nonrestoring_divider(n);
            let report = check_vc2(&div);
            assert!(report.holds, "n={n}");
            assert!(report.counterexample.is_none());
            assert!(report.peak_nodes > 0);
        }
        let div = restoring_divider(4);
        assert!(check_vc2(&div).holds);
    }

    #[test]
    fn vc2_fails_with_counterexample_for_broken_divider() {
        // Break the remainder: swap two of its output bits.
        let div = nonrestoring_divider(3);
        let mut broken = div.clone();
        let mut bits: Vec<Sig> = broken.remainder.iter().copied().collect();
        bits.swap(0, 1);
        broken.remainder = sbif_netlist::Word::new(bits);
        let report = check_vc2(&broken);
        assert!(!report.holds);
        let cex = report.counterexample.expect("counterexample available");
        // Replay: the counterexample must be a valid input whose swapped
        // remainder leaves [0, D).
        let nl = &div.netlist;
        let inputs: Vec<bool> = nl
            .inputs()
            .iter()
            .map(|&s| {
                let name = nl.name(s).expect("named");
                cex.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(false)
            })
            .collect();
        let vals = nl.simulate_bool(&inputs);
        assert!(vals[div.constraint.index()], "cex must satisfy C");
        // swapped remainder value
        let rbits: Vec<bool> =
            broken.remainder.iter().map(|&s| vals[s.index()]).collect();
        let dv: u64 = div
            .divisor
            .iter()
            .enumerate()
            .map(|(i, &s)| (vals[s.index()] as u64) << i)
            .sum();
        let w = rbits.len();
        let rv: i64 = rbits
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let weight = 1i64 << i;
                if i == w - 1 {
                    -(b as i64) * weight
                } else {
                    (b as i64) * weight
                }
            })
            .sum();
        assert!(rv < 0 || rv >= dv as i64, "cex does not violate vc2: r={rv} d={dv}");
    }

    #[test]
    fn vc2_with_aggressive_reordering() {
        // At n = 8 the traversal crosses the sifting threshold; the
        // result must not change.
        let div = nonrestoring_divider(8);
        let report = check_vc2(&div);
        assert!(report.holds);
        assert!(report.wpc_stats.reorders > 0, "expected reordering to trigger");
    }

    #[test]
    fn governed_vc2_exhausts_on_node_budget_and_cancel() {
        let div = nonrestoring_divider(4);
        // A 1-node ceiling trips immediately and deterministically.
        let err = check_vc2_governed(&div, Some(1), None)
            .expect_err("1-node budget must exhaust");
        assert_eq!(err.resource, Resource::BddLiveNodes, "budget overrun, not cancellation");
        assert!(err.spent > 1);
        // A pre-cancelled token stops the traversal and is attributed as
        // a cancellation (no deterministic budget in play).
        let token = CancelToken::new();
        token.cancel();
        let err = check_vc2_governed(&div, None, Some(&token))
            .expect_err("cancelled token must stop the traversal");
        assert_eq!(err, token.exhausted("vc2"));
        // Ample budget reproduces the ungoverned result exactly.
        let ungoverned = check_vc2(&div);
        let governed = check_vc2_governed(&div, Some(1 << 20), None)
            .expect("ample budget completes");
        assert_eq!(governed, ungoverned);
    }

    #[test]
    fn malformed_divider_without_outputs_is_handled() {
        // A divider whose remainder word points at constants still goes
        // through the machinery (predicate over constants).
        let mut nl = Netlist::new();
        let z = nl.const0();
        let div = Divider {
            netlist: {
                let mut n2 = nl.clone();
                let _ = n2.input("r0[0]");
                n2
            },
            n: 2,
            kind: sbif_netlist::build::DividerKind::NonRestoring,
            dividend: sbif_netlist::Word::new(vec![z; 3]),
            divisor: sbif_netlist::Word::new(vec![z; 2]),
            quotient: sbif_netlist::Word::new(vec![z; 2]),
            remainder: sbif_netlist::Word::new(vec![z; 3]),
            stage_signs: vec![z, z],
            constraint: z,
        };
        // R = 0, D = 0: 0 ≤ R < D is false, but C (= constant 0) implies
        // anything — vc2 vacuously holds.
        let report = check_vc2(&div);
        assert!(report.holds);
    }
}

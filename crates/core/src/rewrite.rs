//! Backward rewriting (Sect. II-A) and its SBIF-modified variant
//! (Alg. 2).
//!
//! The engine substitutes gate-output variables by gate polynomials in
//! reverse topological order, treating detected half/full adders as
//! atomic blocks (the heuristics of \[10\], \[11\], restricted exactly as the
//! paper's footnote describes): the sum output of a full adder is
//! substituted by `a + b + cin − 2·carry` *together with* its carry,
//! which lets output signatures telescope instead of expanding XOR trees.
//!
//! With equivalence classes from Alg. 1 attached, every polynomial — the
//! specification and each substituted polynomial — first has its
//! variables replaced by the topologically minimal class representatives
//! (or their complements), *before* substitution. "It is crucial for the
//! success of the approach that those replacements are done as early as
//! possible, such that […] a blow-up is prevented before it can occur."

use crate::blocks::{detect_atomic_blocks, AtomicBlock, BlockKind};
use crate::error::VerifyError;
use crate::gatepoly::{gate_poly, var_of};
use crate::sbif::EquivClasses;
use sbif_netlist::{Netlist, Sig};
use sbif_poly::Poly;

/// Configuration of a rewriting run.
#[derive(Debug, Clone, Copy)]
pub struct RewriteConfig {
    /// Abort with [`VerifyError::TermLimitExceeded`] when an intermediate
    /// polynomial exceeds this many terms — models the MEMOUT entries of
    /// Table I.
    pub max_terms: Option<usize>,
    /// Record the polynomial size after every substitution (the series
    /// of Fig. 3). Off by default to save memory on long runs.
    pub record_trace: bool,
    /// Substitute detected half/full adders as atomic blocks. On by
    /// default; disable to watch the raw gate-by-gate blow-up.
    pub atomic_blocks: bool,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig { max_terms: None, record_trace: false, atomic_blocks: true }
    }
}

/// Statistics (and optional trace) of a rewriting run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Substitutions performed.
    pub steps: usize,
    /// Peak intermediate polynomial size in terms — the measure of
    /// Table I and Fig. 4.
    pub peak_terms: usize,
    /// Terms of the final polynomial (0 iff the specification holds).
    pub final_terms: usize,
    /// Full-adder sums substituted as atomic blocks.
    pub block_substitutions: usize,
    /// Sum of the intermediate polynomial sizes after every
    /// substitution — the area under the Fig. 3 curve, available without
    /// paying for [`trace`](Self::trace) recording.
    pub total_terms: u64,
    /// Size after each substitution, when
    /// [`record_trace`](RewriteConfig::record_trace) is set (Fig. 3).
    pub trace: Vec<usize>,
}

/// The backward rewriting engine.
///
/// # Examples
///
/// Plain rewriting proves a full adder against its specification:
///
/// ```
/// use sbif_core::rewrite::BackwardRewriter;
/// use sbif_core::gatepoly::var_of;
/// use sbif_netlist::{build::full_adder, Netlist};
/// use sbif_poly::Poly;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new();
/// let a = nl.input("a");
/// let b = nl.input("b");
/// let cin = nl.input("cin");
/// let (s, c) = full_adder(&mut nl, a, b, cin);
/// // SP = 2·carry + sum − a − b − cin
/// let sp = Poly::from_var(var_of(c)).shl(1) + Poly::from_var(var_of(s))
///     - Poly::from_var(var_of(a)) - Poly::from_var(var_of(b))
///     - Poly::from_var(var_of(cin));
/// let (residual, stats) = BackwardRewriter::new(&nl).run(sp)?;
/// assert!(residual.is_zero());
/// assert!(stats.peak_terms <= 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BackwardRewriter<'a> {
    nl: &'a Netlist,
    classes: Option<&'a EquivClasses>,
    cfg: RewriteConfig,
    interrupt: Option<sbif_govern::CancelToken>,
}

/// Per-run bookkeeping of atomic blocks.
struct BlockPlan {
    /// `carry_block[s] = Some(k)` iff signal `s` is the carry of block `k`.
    carry_block: Vec<Option<u32>>,
    /// Whether the sum of block `k` may be substituted early (at the
    /// carry's position): true iff no gate between the sum and the carry
    /// reads the sum.
    early_sum_safe: Vec<bool>,
    blocks: Vec<AtomicBlock>,
}

impl BlockPlan {
    fn new(nl: &Netlist) -> Self {
        let blocks = detect_atomic_blocks(nl);
        let mut carry_block = vec![None; nl.num_signals()];
        let fanouts = nl.fanouts();
        let mut early_sum_safe = Vec::with_capacity(blocks.len());
        for (k, b) in blocks.iter().enumerate() {
            carry_block[b.carry.index()] = Some(k as u32);
            // Early substitution of the sum at the carry's position is
            // only valid when no gate with an index in (sum, carry)
            // consumes the sum: such a gate's polynomial would
            // re-introduce the sum variable afterwards.
            let safe = fanouts[b.sum.index()]
                .iter()
                .all(|f| *f > b.carry || b.internal.contains(f));
            early_sum_safe.push(safe);
        }
        BlockPlan { carry_block, early_sum_safe, blocks }
    }
}

impl<'a> BackwardRewriter<'a> {
    /// A plain rewriter (no SBIF information) with default configuration.
    pub fn new(nl: &'a Netlist) -> Self {
        BackwardRewriter { nl, classes: None, cfg: RewriteConfig::default(), interrupt: None }
    }

    /// Attaches the wall-clock watchdog's cancel token: once it fires,
    /// the next substitution step returns [`VerifyError::Timeout`] with
    /// the token's record at stage `"rewrite"` instead of finishing the
    /// traversal. Purely cooperative — committed statistics up to the
    /// cut are untouched.
    pub fn with_interrupt(mut self, token: sbif_govern::CancelToken) -> Self {
        self.interrupt = Some(token);
        self
    }

    /// Attaches SBIF equivalence classes: the modified backward rewriting
    /// of Alg. 2.
    pub fn with_classes(mut self, classes: &'a EquivClasses) -> Self {
        self.classes = Some(classes);
        self
    }

    /// Sets the configuration.
    pub fn with_config(mut self, cfg: RewriteConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Replaces every variable of `p` by its class representative (lines
    /// 2–4 / 6–8 of Alg. 2) and folds constant-signal variables to their
    /// values — a constant variable would otherwise survive (its gate
    /// sits at the very bottom of the netlist) and clog every
    /// intermediate polynomial with vanishing monomials.
    fn map_to_representatives(&self, mut p: Poly) -> Poly {
        for v in p.support() {
            let s = Sig(v.0);
            if let Some(value) = self.nl.const_value(s) {
                p.substitute_const(v, value);
                continue;
            }
            let Some(classes) = self.classes else { continue };
            let (r, neg) = classes.rep(s);
            if r.0 != v.0 {
                if let Some(value) = self.nl.const_value(r) {
                    p.substitute_const(v, value ^ neg);
                } else {
                    p.substitute_representative(v, var_of(r), !neg);
                }
            }
        }
        p
    }

    /// The polynomial substituted for the sum of block `k`:
    /// `a + b (+ cin) − 2·carry`.
    fn block_sum_poly(&self, block: &AtomicBlock) -> Poly {
        let mut p = Poly::zero();
        for &i in &block.inputs {
            p += &Poly::from_var(var_of(i));
        }
        p -= &Poly::from_var(var_of(block.carry)).shl(1);
        p
    }

    /// The polynomial substituted for the carry of block `k`:
    /// `a·b` (half adder) or `maj(a, b, cin)` (full adder).
    fn block_carry_poly(&self, block: &AtomicBlock) -> Poly {
        match block.kind {
            BlockKind::HalfAdder => Poly::and(
                &Poly::from_var(var_of(block.inputs[0])),
                &Poly::from_var(var_of(block.inputs[1])),
            ),
            BlockKind::FullAdder => Poly::majority3(
                var_of(block.inputs[0]),
                var_of(block.inputs[1]),
                var_of(block.inputs[2]),
            ),
        }
    }

    /// Runs backward rewriting on the specification polynomial,
    /// substituting every signal.
    ///
    /// Returns the final polynomial (zero iff the specification holds on
    /// the whole input space, modulo the constraint under which the SBIF
    /// classes were proven) and the statistics.
    ///
    /// # Errors
    ///
    /// [`VerifyError::TermLimitExceeded`] when an intermediate polynomial
    /// outgrows the configured limit.
    pub fn run(&self, spec: Poly) -> Result<(Poly, RewriteStats), VerifyError> {
        self.run_filtered(spec, |_| true)
    }

    /// Like [`run`](Self::run), but only substitutes signals for which
    /// `keep` returns `true` — the checkpoint API used to reproduce the
    /// Sect. III observation about the polynomial at the final-adder cut.
    ///
    /// # Errors
    ///
    /// [`VerifyError::TermLimitExceeded`] when an intermediate polynomial
    /// outgrows the configured limit.
    pub fn run_filtered(
        &self,
        spec: Poly,
        keep: impl Fn(Sig) -> bool,
    ) -> Result<(Poly, RewriteStats), VerifyError> {
        let mut stats = RewriteStats::default();
        let mut sp = self.map_to_representatives(spec);
        stats.peak_terms = sp.num_terms();
        let plan = if self.cfg.atomic_blocks {
            Some(BlockPlan::new(self.nl))
        } else {
            None
        };
        let mut done = vec![false; self.nl.num_signals()];

        for s in self.nl.signals().rev() {
            if done[s.index()] {
                continue;
            }
            // Atomic blocks: when the scan reaches a carry whose sum is
            // still pending, substitute the sum first (with the
            // telescoping block polynomial), then the carry.
            if let Some(plan) = plan.as_ref() {
                if let Some(k) = plan.carry_block[s.index()] {
                    let block = &plan.blocks[k as usize];
                    if plan.early_sum_safe[k as usize]
                        && !done[block.sum.index()]
                        && keep(block.sum)
                        && self.eligible(block.sum)
                    {
                        let p = self.map_to_representatives(self.block_sum_poly(block));
                        // SBIF may have put the carry into the *sum's*
                        // class (e.g. complementary operands make
                        // sum ≡ ¬carry); then the telescoping polynomial
                        // maps back onto the sum variable. When the
                        // self-occurrence is the single linear term
                        // `+2·s` (carry ↦ 1 − s), the equation
                        // `s = q + 2s` solves to `s = −q`; otherwise fall
                        // back to the plain gate polynomial at the sum's
                        // own scan position.
                        let v = var_of(block.sum);
                        let solved = if p.contains_var(v) {
                            let vmono = sbif_poly::Monomial::var(v);
                            let linear_only = p
                                .terms()
                                .iter()
                                .filter(|t| t.monomial.contains(v))
                                .all(|t| t.monomial == vmono);
                            if linear_only && p.coeff(&vmono) == 2.into() {
                                let q = &p - &Poly::from_var(v).shl(1);
                                Some(-q)
                            } else {
                                None
                            }
                        } else {
                            Some(p)
                        };
                        if let Some(p) = solved {
                            self.substitute(&mut sp, block.sum, p, &mut stats)?;
                            stats.block_substitutions += 1;
                            done[block.sum.index()] = true;
                        }
                    }
                    if keep(s) && self.eligible(s) {
                        let p = self.block_carry_poly(block);
                        self.substitute(&mut sp, s, p, &mut stats)?;
                    }
                    done[s.index()] = true;
                    continue;
                }
            }
            done[s.index()] = true;
            if !keep(s) || !self.eligible(s) {
                continue;
            }
            let Some(p) = gate_poly(self.nl, s) else {
                continue; // primary input: stays in the polynomial
            };
            self.substitute(&mut sp, s, p, &mut stats)?;
        }
        stats.final_terms = sp.num_terms();
        Ok((sp, stats))
    }

    /// Whether `s` should be substituted at all (class representatives
    /// only, in SBIF mode).
    fn eligible(&self, s: Sig) -> bool {
        self.classes.is_none_or(|c| c.is_rep(s))
    }

    /// One substitution step with statistics and the term limit.
    fn substitute(
        &self,
        sp: &mut Poly,
        s: Sig,
        p: Poly,
        stats: &mut RewriteStats,
    ) -> Result<(), VerifyError> {
        let v = var_of(s);
        if !sp.contains_var(v) {
            return Ok(());
        }
        let p = self.map_to_representatives(p);
        debug_assert!(
            !p.contains_var(v),
            "self-referencing substitution for {s} would never resolve"
        );
        sp.substitute(v, &p);
        stats.steps += 1;
        let size = sp.num_terms();
        stats.peak_terms = stats.peak_terms.max(size);
        stats.total_terms += size as u64;
        if self.cfg.record_trace {
            stats.trace.push(size);
        }
        if let Some(limit) = self.cfg.max_terms {
            if size > limit {
                return Err(VerifyError::TermLimitExceeded {
                    limit,
                    reached: size,
                    steps: stats.steps,
                });
            }
        }
        if let Some(token) = self.interrupt.as_ref().filter(|t| t.is_cancelled()) {
            return Err(VerifyError::Timeout(token.exhausted("rewrite")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbif::EquivClasses;
    use crate::spec::{divider_spec, multiplier_spec};
    use sbif_netlist::build::{array_multiplier, nonrestoring_divider, ripple_adder};
    use sbif_netlist::Word;
    use sbif_poly::{unsigned_word, Var};

    #[test]
    fn ripple_adder_specification_reduces_to_zero() {
        let mut nl = Netlist::new();
        let a = Word::inputs(&mut nl, "a", 6);
        let b = Word::inputs(&mut nl, "b", 6);
        let cin = nl.input("cin");
        let (sum, cout) = ripple_adder(&mut nl, &a, &b, cin);
        let mut out_bits: Vec<Var> = sum.iter().map(|&s| var_of(s)).collect();
        out_bits.push(var_of(cout));
        let sp = unsigned_word(&out_bits)
            - unsigned_word(&a.iter().map(|&s| var_of(s)).collect::<Vec<_>>())
            - unsigned_word(&b.iter().map(|&s| var_of(s)).collect::<Vec<_>>())
            - Poly::from_var(var_of(cin));
        let (res, stats) = BackwardRewriter::new(&nl).run(sp).expect("no blow-up");
        assert!(res.is_zero(), "residual: {res}");
        // With atomic blocks the signature telescopes: tiny peaks.
        assert!(stats.peak_terms < 30, "peak {}", stats.peak_terms);
        assert!(stats.block_substitutions >= 6);
    }

    #[test]
    fn multiplier_specification_reduces_to_zero_without_sbif() {
        // The contrast the paper draws: plain backward rewriting handles
        // multipliers fine.
        let m = array_multiplier(5, 5);
        let sp = multiplier_spec(&m);
        let (res, stats) =
            BackwardRewriter::new(&m.netlist).run(sp).expect("no blow-up");
        assert!(res.is_zero());
        assert!(stats.peak_terms < 500, "peak {}", stats.peak_terms);
    }

    #[test]
    fn divider_blows_up_without_sbif() {
        // Table I: peaks grow exponentially even with atomic blocks.
        let mut peaks = Vec::new();
        for n in [2usize, 3, 4] {
            let div = nonrestoring_divider(n);
            let sp = divider_spec(&div);
            let (res, stats) = BackwardRewriter::new(&div.netlist)
                .with_config(RewriteConfig { record_trace: true, ..Default::default() })
                .run(sp)
                .expect("small widths fit");
            assert!(res.is_zero(), "vc1 holds, so the final polynomial is 0");
            assert_eq!(stats.trace.len(), stats.steps);
            assert_eq!(*stats.trace.last().expect("steps"), 0);
            peaks.push(stats.peak_terms);
        }
        assert!(
            peaks[2] > 3 * peaks[1] && peaks[1] > 3 * peaks[0],
            "exponential growth expected: {peaks:?}"
        );
    }

    #[test]
    fn term_limit_reports_memout() {
        let div = nonrestoring_divider(5);
        let sp = divider_spec(&div);
        let err = BackwardRewriter::new(&div.netlist)
            .with_config(RewriteConfig { max_terms: Some(100), ..Default::default() })
            .run(sp)
            .expect_err("must exceed 100 terms");
        match err {
            VerifyError::TermLimitExceeded { limit, reached, .. } => {
                assert_eq!(limit, 100);
                assert!(reached > 100);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// The paper's Example 1: the Fig. 1 circuit extended by
    /// `h4 = a1 ⊕ b1`, `s1 = c0 ⊕ h4`, rewritten from `s0 − 2·s1`
    /// with the knowledge `b1 = ¬a1`.
    fn example1_circuit() -> (Netlist, Vec<Sig>) {
        let mut nl = Netlist::new();
        let a0 = nl.input("a0");
        let b0 = nl.input("b0");
        let c = nl.input("c");
        let a1 = nl.input("a1");
        let b1 = nl.input("b1");
        let h1 = nl.xor(a0, b0);
        let h2 = nl.and(a0, b0);
        let h3 = nl.and(h1, c);
        let s0 = nl.xor(h1, c);
        let c0 = nl.or(h2, h3);
        let h4 = nl.xor(a1, b1);
        let s1 = nl.xor(c0, h4);
        (nl, vec![a0, b0, c, a1, b1, s0, s1])
    }

    /// Gate-by-gate rewriting (no atomic blocks), as in the paper's
    /// worked example.
    fn gate_level_cfg() -> RewriteConfig {
        RewriteConfig { atomic_blocks: false, record_trace: true, max_terms: None }
    }

    #[test]
    fn example1_without_knowledge_blows_up() {
        let (nl, sigs) = example1_circuit();
        let (s0, s1) = (sigs[5], sigs[6]);
        let sp = &Poly::from_var(var_of(s0)) - &Poly::from_var(var_of(s1)).shl(1);
        let (res, stats) = BackwardRewriter::new(&nl)
            .with_config(gate_level_cfg())
            .run(sp)
            .expect("small circuit");
        // The paper's ~22-term polynomial (17 of whose terms vanish
        // under b1 = ¬a1).
        assert!(res.num_terms() >= 20, "got {} terms", res.num_terms());
        assert!(stats.peak_terms >= 20);
        // Sanity: forcing b1 = ¬a1 *after* the fact leaves a0 + b0 + c − 2.
        let mut collapsed = res;
        collapsed.substitute_representative(var_of(sigs[4]), var_of(sigs[3]), false);
        assert_eq!(collapsed.num_terms(), 4);
    }

    #[test]
    fn example1_with_knowledge_stays_small() {
        let (nl, sigs) = example1_circuit();
        let (a1, b1, s0, s1) = (sigs[3], sigs[4], sigs[5], sigs[6]);
        let mut classes = EquivClasses::new(nl.num_signals());
        classes.union(b1, a1, true); // b1 = ¬a1
        let sp = &Poly::from_var(var_of(s0)) - &Poly::from_var(var_of(s1)).shl(1);
        let (res, stats) = BackwardRewriter::new(&nl)
            .with_classes(&classes)
            .with_config(gate_level_cfg())
            .run(sp)
            .expect("small circuit");
        // "During the modified backward rewriting we never observe more
        // than 5 terms in a polynomial." — with the paper's substitution
        // order; our reverse-index order holds both adder outputs
        // expanded for one step, allowing 7. The point stands: bounded
        // tiny peak instead of the 20+-term expansion.
        assert!(stats.peak_terms <= 7, "peak {} > 7", stats.peak_terms);
        // Final polynomial: a0 + b0 + c − 2.
        assert_eq!(res.num_terms(), 4);
        assert_eq!(res.support().len(), 3);
    }

    #[test]
    fn block_and_gate_level_agree() {
        // Atomic blocks change the peaks, never the result.
        for n in [2usize, 3] {
            let div = nonrestoring_divider(n);
            let sp = divider_spec(&div);
            let (r1, _) = BackwardRewriter::new(&div.netlist)
                .run(sp.clone())
                .expect("fits");
            let (r2, _) = BackwardRewriter::new(&div.netlist)
                .with_config(RewriteConfig { atomic_blocks: false, ..Default::default() })
                .run(sp)
                .expect("fits");
            assert_eq!(r1, r2, "n={n}");
        }
    }

    #[test]
    fn filtered_run_stops_at_cut() {
        // Substituting only the gates above a cut leaves a polynomial
        // over cut signals.
        let div = nonrestoring_divider(3);
        let sp = divider_spec(&div);
        let cut = div.netlist.num_signals() as u32 / 2;
        let (res, _) = BackwardRewriter::new(&div.netlist)
            .run_filtered(sp, |s| s.0 >= cut)
            .expect("no limit");
        assert!(!res.is_zero());
        // Every remaining variable is below the cut or an input.
        for v in res.support() {
            assert!(v.0 < cut || div.netlist.gate(Sig(v.0)).is_input());
        }
    }

    #[test]
    fn rep_mapping_handles_constant_representatives() {
        let mut nl = Netlist::new();
        let z = nl.const0();
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.or(a, b);
        nl.add_output("g", g);
        let mut classes = EquivClasses::new(nl.num_signals());
        // Pretend SBIF proved b ≡ 0 (b joins the constant class).
        classes.union(b, z, false);
        let sp = &Poly::from_var(var_of(g)) - &Poly::from_var(var_of(a));
        let (res, _) = BackwardRewriter::new(&nl)
            .with_classes(&classes)
            .run(sp)
            .expect("tiny");
        // (a ∨ b)[b ← 0] − a = a − a = 0
        assert!(res.is_zero(), "residual {res}");
    }
}

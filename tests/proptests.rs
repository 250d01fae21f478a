//! Property-based tests on the core data structures and invariants, as
//! DESIGN.md §6 specifies. Runs on the in-tree `prop_check!` harness
//! (deterministic seeds, offline — see tests/common/mod.rs) instead of
//! crates.io `proptest`.

mod common;

use common::prop_check;
use sbif::apint::Int;
use sbif::poly::{Monomial, Poly, Var};
use sbif_rng::XorShift64;

// ---------- generators -----------------------------------------------------

/// An `Int` together with the `i128` it mirrors (kept small enough that
/// sums of three stay in range).
fn gen_int(rng: &mut XorShift64) -> (Int, i128) {
    let x = rng.next_i128() >> 2;
    (Int::from(x), x)
}

fn gen_monomial(rng: &mut XorShift64) -> Monomial {
    let len = rng.below(4) as usize;
    Monomial::from_vars((0..len).map(|_| Var(rng.below(6) as u32)))
}

fn gen_poly(rng: &mut XorShift64) -> Poly {
    let len = rng.below(10) as usize;
    Poly::from_pairs((0..len).map(|_| {
        let m = gen_monomial(rng);
        let c = rng.below(17) as i64 - 8;
        (m, Int::from(c))
    }))
}

/// `p` without its terms that contain `v`.
fn without_var(p: &Poly, v: Var) -> Poly {
    Poly::from_pairs(
        p.terms()
            .iter()
            .filter(|t| !t.monomial.contains(v))
            .map(|t| (t.monomial.clone(), t.coeff.clone())),
    )
}

/// Evaluate on the assignment encoded by the low 6 bits of `bits`.
fn eval6(p: &Poly, bits: u8) -> Int {
    p.eval(|v| (bits >> v.0) & 1 == 1)
}

// ---------- apint: ring axioms against i128 -------------------------------

#[test]
fn apint_add_matches_i128() {
    prop_check!(
        256,
        |rng: &mut XorShift64| (gen_int(rng), gen_int(rng)),
        |((a, xa), (b, xb)): ((Int, i128), (Int, i128))| {
            &a + &b == Int::from(xa + xb)
                && &a - &b == Int::from(xa - xb)
                && a.cmp(&b) == xa.cmp(&xb)
        }
    );
}

#[test]
fn apint_mul_matches_i128() {
    prop_check!(
        256,
        |rng: &mut XorShift64| (rng.next_i64(), rng.next_i64()),
        |(a, b): (i64, i64)| Int::from(a) * Int::from(b) == Int::from(a as i128 * b as i128)
    );
}

#[test]
fn apint_shl_is_mul_pow2() {
    prop_check!(
        256,
        |rng: &mut XorShift64| (rng.next_i64(), rng.below(150) as u32),
        |(a, k): (i64, u32)| Int::from(a).shl_pow2(k) == Int::from(a) * Int::pow2(k)
    );
}

#[test]
fn apint_display_roundtrip() {
    prop_check!(
        256,
        |rng: &mut XorShift64| gen_int(rng).0,
        |a: Int| a.to_string().parse::<Int>().expect("own display parses") == a
    );
}

#[test]
fn apint_associativity() {
    prop_check!(
        256,
        |rng: &mut XorShift64| (gen_int(rng).0, gen_int(rng).0, Int::from(rng.next_i64())),
        |(a, b, c): (Int, Int, Int)| {
            &(&a + &b) + &c == &a + &(&b + &c)
                && &(&a * &b) * &c == &a * &(&b * &c)
                && &a * &(&b + &c) == &(&a * &b) + &(&a * &c)
        }
    );
}

#[test]
fn apint_shr_floor_matches_i128() {
    prop_check!(
        256,
        |rng: &mut XorShift64| (rng.next_i64(), rng.below(80) as u32),
        |(a, k): (i64, u32)| {
            let expect = if k >= 127 {
                if a < 0 {
                    -1i128
                } else {
                    0
                }
            } else {
                (a as i128) >> k
            };
            Int::from(a).shr_floor_pow2(k) == Int::from(expect)
        }
    );
}

// ---------- poly: algebra is pointwise arithmetic --------------------------

#[test]
fn poly_add_is_pointwise() {
    prop_check!(
        256,
        |rng: &mut XorShift64| (gen_poly(rng), gen_poly(rng), rng.below(64) as u8),
        |(p, q, bits): (Poly, Poly, u8)| {
            eval6(&(&p + &q), bits) == eval6(&p, bits) + eval6(&q, bits)
        }
    );
}

#[test]
fn poly_mul_is_pointwise() {
    prop_check!(
        256,
        |rng: &mut XorShift64| (gen_poly(rng), gen_poly(rng), rng.below(64) as u8),
        |(p, q, bits): (Poly, Poly, u8)| {
            eval6(&(&p * &q), bits) == eval6(&p, bits) * eval6(&q, bits)
        }
    );
}

#[test]
fn poly_canonical_equality() {
    // Structural equality iff semantic equality (canonicity of the
    // normal form — the Sect. II-A argument).
    prop_check!(
        256,
        |rng: &mut XorShift64| (gen_poly(rng), gen_poly(rng)),
        |(p, q): (Poly, Poly)| {
            let structurally_equal = p == q;
            let semantically_equal = (0u8..64).all(|bits| eval6(&p, bits) == eval6(&q, bits));
            structurally_equal == semantically_equal
        }
    );
}

#[test]
fn poly_substitution_is_evaluation() {
    // p[v ← q] evaluated = p evaluated with v set to q's value —
    // whenever q is 0/1-valued at the point.
    prop_check!(
        256,
        |rng: &mut XorShift64| {
            (gen_poly(rng), gen_poly(rng), Var(rng.below(6) as u32), rng.below(64) as u8)
        },
        |(p, q, v, bits): (Poly, Poly, Var, u8)| {
            let qv = eval6(&q, bits);
            if qv != Int::zero() && qv != Int::one() {
                return true; // vacuous: q is not 0/1-valued here
            }
            let mut subst = p.clone();
            subst.substitute(v, &q);
            let direct = p.eval(|x| {
                if x == v {
                    qv == Int::one()
                } else {
                    (bits >> x.0) & 1 == 1
                }
            });
            eval6(&subst, bits) == direct
        }
    );
}

#[test]
fn poly_substitution_is_the_ring_identity() {
    // The in-place kernel against `p[v ← q] = rest + quotient·q`, built
    // from `from_pairs`, `+` and `*`: `quotient` holds p's terms with v,
    // v divided out, and `rest` the others.
    prop_check!(
        256,
        |rng: &mut XorShift64| {
            let v = Var(rng.below(6) as u32);
            let (p, q) = match rng.below(5) {
                0 => (without_var(&gen_poly(rng), v), gen_poly(rng)),
                1 => (gen_poly(rng), &without_var(&gen_poly(rng), v) + &Poly::from_var(v)),
                2 => (gen_poly(rng), Poly::zero()),
                3 => (gen_poly(rng), Poly::constant(rng.below(17) as i64 - 8)),
                _ => {
                    // p = v·quotient + extra − quotient·q: the products
                    // cancel the last part, leaving `extra`.
                    let quotient = without_var(&gen_poly(rng), v);
                    let q = without_var(&gen_poly(rng), v);
                    let extra = gen_poly(rng);
                    let p = &(&(&Poly::from_var(v) * &quotient) + &extra) - &(&quotient * &q);
                    (p, q)
                }
            };
            (p, q, v)
        },
        |(p, q, v): (Poly, Poly, Var)| {
            let quotient = Poly::from_pairs(
                p.terms()
                    .iter()
                    .filter_map(|t| t.monomial.without(v).map(|m| (m, t.coeff.clone()))),
            );
            let expect = &without_var(&p, v) + &(&quotient * &q);
            let mut got = p;
            got.substitute(v, &q);
            got == expect
                && got.terms().windows(2).all(|w| w[0].monomial < w[1].monomial)
                && got.terms().iter().all(|t| !t.coeff.is_zero())
        }
    );
}

#[test]
fn poly_complement_is_one_minus() {
    prop_check!(
        256,
        |rng: &mut XorShift64| (gen_poly(rng), rng.below(64) as u8),
        |(p, bits): (Poly, u8)| {
            eval6(&p.complement(), bits) == Int::one() - eval6(&p, bits)
        }
    );
}

#[test]
fn monomial_mul_is_union() {
    prop_check!(
        256,
        |rng: &mut XorShift64| (gen_monomial(rng), gen_monomial(rng)),
        |(a, b): (Monomial, Monomial)| {
            let prod = a.mul(&b);
            a.vars().iter().chain(b.vars()).all(|v| prod.contains(*v))
                && prod.degree() <= a.degree() + b.degree()
                && a.mul(&b) == b.mul(&a)
        }
    );
}

// ---------- BDD ops agree with truth tables --------------------------------

#[test]
fn bdd_ops_match_truth_tables() {
    prop_check!(
        64,
        |rng: &mut XorShift64| {
            let len = 1 + rng.below(11) as usize;
            (0..len)
                .map(|_| (rng.below(6) as u8, rng.below(8) as usize, rng.below(8) as usize))
                .collect::<Vec<_>>()
        },
        |ops: Vec<(u8, usize, usize)>| {
            use sbif::bdd::BddManager;
            let mut m = BddManager::new();
            let mut funcs: Vec<sbif::bdd::Bdd> = (0..4).map(|i| m.var(i)).collect();
            // Mirror truth tables over 4 variables (16 rows).
            let mut tables: Vec<u16> = vec![0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];
            for (op, i, j) in ops {
                let (a, b) = (funcs[i % funcs.len()], funcs[j % funcs.len()]);
                let (ta, tb) = (tables[i % tables.len()], tables[j % tables.len()]);
                let (f, t) = match op {
                    0 => (m.and(a, b), ta & tb),
                    1 => (m.or(a, b), ta | tb),
                    2 => (m.xor(a, b), ta ^ tb),
                    3 => (m.not(a), !ta),
                    4 => (m.iff(a, b), !(ta ^ tb)),
                    _ => (m.implies(a, b), !ta | tb),
                };
                funcs.push(f);
                tables.push(t);
            }
            funcs.iter().zip(&tables).all(|(f, t)| {
                (0..16u16).all(|row| {
                    m.eval(*f, |v| (row >> v) & 1 == 1) == ((t >> row) & 1 == 1)
                })
            })
        }
    );
}

// ---------- BDD reordering preserves functions ------------------------------

#[test]
fn sifting_preserves_random_circuit_functions() {
    prop_check!(
        32,
        |rng: &mut XorShift64| rng.next_u64(),
        |seed: u64| {
            use sbif::bdd::{bdd_of_signal, BddManager};
            let mut rng = XorShift64::seed_from_u64(seed);
            let mut nl = sbif::netlist::Netlist::new();
            let mut pool: Vec<sbif::netlist::Sig> =
                (0..5).map(|i| nl.input(&format!("x[{i}]"))).collect();
            for _ in 0..25 {
                let a = pool[rng.range_usize(0, pool.len())];
                let b = pool[rng.range_usize(0, pool.len())];
                let g = match rng.below(4) {
                    0 => nl.and(a, b),
                    1 => nl.or(a, b),
                    2 => nl.xor(a, b),
                    _ => nl.not(a),
                };
                pool.push(g);
            }
            let out = *pool.last().expect("non-empty");
            nl.add_output("o", out);
            let mut m = BddManager::new();
            let f = bdd_of_signal(&mut m, &nl, out);
            let table: Vec<bool> = (0u64..32)
                .map(|bits| {
                    let inputs: Vec<bool> = (0..5).map(|i| (bits >> i) & 1 == 1).collect();
                    nl.simulate_bool(&inputs)[out.index()]
                })
                .collect();
            m.sift_symmetric(&[f]);
            table.iter().enumerate().all(|(bits, &expect)| {
                let got = m.eval(f, |v| {
                    let s = sbif::netlist::Sig(v);
                    let name = nl.name(s).expect("input var");
                    let idx: usize = name[2..name.len() - 1].parse().expect("x[i]");
                    (bits >> idx) & 1 == 1
                });
                got == expect
            })
        }
    );
}

// ---------- netlist simulation agrees with word evaluation ------------------

#[test]
fn divider_simulation_is_division() {
    prop_check!(
        64,
        |rng: &mut XorShift64| (2 + rng.below(4) as usize, rng.next_u64(), rng.next_u64()),
        |(n, r0, d): (usize, u64, u64)| {
            use sbif::netlist::build::nonrestoring_divider;
            let div = nonrestoring_divider(n);
            let dmax = 1u64 << (n - 1);
            let d = if dmax > 1 { d % (dmax - 1) + 1 } else { 1 };
            let r0 = r0 % (d << (n - 1));
            let out = div.netlist.eval_u64(&[("r0", r0), ("d", d)]);
            out["q"] == r0 / d && out["r"] == r0 % d
        }
    );
}

// ---------- SAT solver agrees with brute force ------------------------------

#[test]
fn solver_matches_bruteforce() {
    prop_check!(
        128,
        |rng: &mut XorShift64| {
            let num_clauses = rng.below(12) as usize;
            (0..num_clauses)
                .map(|_| {
                    let len = 1 + rng.below(3) as usize;
                    (0..len)
                        .map(|_| (rng.below(5) as u32, rng.next_bool()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        },
        |clauses: Vec<Vec<(u32, bool)>>| {
            use sbif::sat::{Lit, SolveResult, Solver, Var as SVar};
            let mut s = Solver::new();
            for _ in 0..5 {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c.iter().map(|&(v, pos)| Lit::with_polarity(SVar(v), pos)));
            }
            let brute = (0u32..32).any(|m| {
                clauses.iter().all(|c| c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos))
            });
            let got = s.solve();
            if (got == SolveResult::Sat) != brute {
                return false;
            }
            if got == SolveResult::Sat {
                return clauses.iter().all(|c| {
                    c.iter().any(|&(v, pos)| s.model_value(SVar(v)).unwrap_or(false) == pos)
                });
            }
            true
        }
    );
}

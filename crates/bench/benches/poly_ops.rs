//! Microbenchmarks of the pseudo-Boolean polynomial kernel.

use sbif_bench::harness::Harness;
use sbif_apint::Int;
use sbif_poly::{Monomial, Poly, Var};

/// A dense-ish polynomial over `vars` variables with `terms` terms.
fn sample_poly(vars: u32, terms: u64) -> Poly {
    let mut pairs = Vec::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    for k in 0..terms {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let deg = (state % 4) as usize + 1;
        let vs: Vec<Var> = (0..deg)
            .map(|i| Var(((state >> (8 * i)) % vars as u64) as u32))
            .collect();
        pairs.push((Monomial::from_vars(vs), Int::from(k as i64 % 17 - 8)));
    }
    Poly::from_pairs(pairs)
}

fn bench_poly(c: &mut Harness) {
    let a = sample_poly(24, 400);
    let b = sample_poly(24, 60);
    c.bench_function("poly_add_400_60", |bench| {
        bench.iter(|| std::hint::black_box(&a) + std::hint::black_box(&b))
    });
    c.bench_function("poly_mul_400x8", |bench| {
        let small = sample_poly(24, 8);
        bench.iter(|| std::hint::black_box(&a) * std::hint::black_box(&small))
    });
    c.bench_function("poly_substitute_gate", |bench| {
        let gate = Poly::xor(&Poly::from_var(Var(30)), &Poly::from_var(Var(31)));
        bench.iter_batched(
            || a.clone(),
            |mut p| {
                p.substitute(Var(3), std::hint::black_box(&gate));
                p
            },
        )
    });
    c.bench_function("poly_substitute_one_term_quotient", |bench| {
        // The shape of a non-restoring rewriting step: ~2,000 terms, and
        // the substituted variable in exactly one of them.
        let v = Var(40);
        let big = sample_poly(40, 2_000)
            + Poly::from_term(Monomial::from_vars([Var(1), v]), Int::from(3));
        let gate = Poly::or(&Poly::from_var(Var(41)), &Poly::from_var(Var(42)));
        bench.iter_batched(
            || big.clone(),
            |mut p| {
                p.substitute(v, std::hint::black_box(&gate));
                p
            },
        )
    });
    c.bench_function("poly_eval_400", |bench| {
        bench.iter(|| std::hint::black_box(&a).eval(|v| v.0 % 3 == 0))
    });
}

fn main() {
    let mut harness = Harness::from_args();
    bench_poly(&mut harness);
}

//! Randomized property tests of the soundness-critical subsystems:
//! union-find polarity, SBIF on random netlists, rewriting on random
//! netlists with sound classes.

use sbif::core::gatepoly::var_of;
use sbif::core::rewrite::{BackwardRewriter, RewriteConfig};
use sbif::core::sbif::{forward_information, EquivClasses, SbifConfig, SbifHooks};
use sbif::netlist::{Netlist, Sig};
use sbif::poly::Poly;

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------- (a) union-find with polarity vs brute force ----------
fn test_classes(rng: &mut Rng) {
    let n = 24usize;
    // reference: values[i] = (class id, parity) maintained naively
    let mut e = EquivClasses::new(n);
    let mut cls: Vec<(usize, bool)> = (0..n).map(|i| (i, false)).collect();
    for _ in 0..60 {
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        let anti = rng.below(2) == 1;
        let (ca, pa) = cls[a];
        let (cb, pb) = cls[b];
        if ca == cb {
            e.union(Sig(a as u32), Sig(b as u32), anti);
            continue;
        }
        // value(x in ca) = base_a ^ parity; merge: a = b ^ anti
        e.union(Sig(a as u32), Sig(b as u32), anti);
        // rel between class bases: base_ca = base_cb ^ (pa ^ pb ^ anti)
        let rel = pa ^ pb ^ anti;
        for c in cls.iter_mut() {
            if c.0 == ca {
                *c = (cb, c.1 ^ rel);
            }
        }
    }
    if rng.below(2) == 0 {
        e.compress();
    }
    // check pairwise consistency: same class in reference <=> same rep,
    // and relative parity matches.
    for a in 0..n {
        for b in 0..n {
            let (ra, pa) = e.rep(Sig(a as u32));
            let (rb, pb) = e.rep(Sig(b as u32));
            let same = cls[a].0 == cls[b].0;
            assert_eq!(ra == rb, same, "class membership a={a} b={b}");
            if same {
                assert_eq!(
                    pa ^ pb,
                    cls[a].1 ^ cls[b].1,
                    "relative polarity a={a} b={b}"
                );
            }
        }
    }
}

// ---------- random netlist generator ----------
fn random_netlist(rng: &mut Rng, ni: usize, ngates: usize) -> Netlist {
    let mut nl = Netlist::new();
    for i in 0..ni {
        nl.input(&format!("i[{i}]"));
    }
    for _ in 0..ngates {
        let k = nl.num_signals() as u64;
        let a = Sig(rng.below(k) as u32);
        let b = Sig(rng.below(k) as u32);
        match rng.below(8) {
            0 => nl.and(a, b),
            1 => nl.or(a, b),
            2 => nl.xor(a, b),
            3 => nl.nand(a, b),
            4 => nl.nor(a, b),
            5 => nl.xnor(a, b),
            6 => nl.and_not(a, b),
            _ => nl.not(a),
        };
    }
    nl
}

// ---------- (b) SBIF soundness on random netlists ----------
fn test_sbif(rng: &mut Rng) {
    let ni = 6;
    let nl = random_netlist(rng, ni, 40);
    let ns = nl.num_signals();
    // random constraint signal (prefer a late gate); must be satisfiable
    let constraint = Sig((ns as u64 - 1 - rng.below(10)) as u32);
    // collect satisfying input assignments
    let mut sat_inputs: Vec<u64> = Vec::new();
    for bits in 0u64..(1 << ni) {
        let inputs: Vec<bool> = (0..ni).map(|i| (bits >> i) & 1 == 1).collect();
        let vals = nl.simulate_bool(&inputs);
        if vals[constraint.index()] {
            sat_inputs.push(bits);
        }
    }
    if sat_inputs.is_empty() {
        return;
    }
    // sim words drawn from satisfying assignments
    let mut words: Vec<Vec<u64>> = vec![Vec::new(); ni];
    for _ in 0..2 {
        let mut plane = vec![0u64; ni];
        for k in 0..64 {
            let pick = sat_inputs[rng.below(sat_inputs.len() as u64) as usize];
            for (i, p) in plane.iter_mut().enumerate() {
                if (pick >> i) & 1 == 1 {
                    *p |= 1 << k;
                }
            }
        }
        for (ws, p) in words.iter_mut().zip(plane) {
            ws.push(p);
        }
    }
    let (classes, _) = forward_information(
        &nl,
        Some(constraint),
        &words,
        SbifConfig { window_depth: 3, ..SbifConfig::default() },
        &SbifHooks::default(),
    );
    // every class fact must hold on every satisfying input
    for &bits in &sat_inputs {
        let inputs: Vec<bool> = (0..ni).map(|i| (bits >> i) & 1 == 1).collect();
        let vals = nl.simulate_bool(&inputs);
        for s in nl.signals() {
            let (r, neg) = classes.rep(s);
            assert_eq!(
                vals[s.index()],
                vals[r.index()] ^ neg,
                "SBIF UNSOUND: sig {s} rep {r} neg {neg} bits={bits:b} seed-state={}",
                0
            );
        }
    }
}

// ---------- (c) rewriting soundness with sound classes ----------
fn test_rewrite(rng: &mut Rng) {
    let ni = 6;
    let nl = random_netlist(rng, ni, 40);
    let ns = nl.num_signals();
    let constraint = Sig((ns as u64 - 1 - rng.below(10)) as u32);
    let mut sat_inputs: Vec<u64> = Vec::new();
    for bits in 0u64..(1 << ni) {
        let inputs: Vec<bool> = (0..ni).map(|i| (bits >> i) & 1 == 1).collect();
        let vals = nl.simulate_bool(&inputs);
        if vals[constraint.index()] {
            sat_inputs.push(bits);
        }
    }
    if sat_inputs.is_empty() {
        return;
    }
    // build GROUND-TRUTH classes from exhaustive simulation over C:
    // merge signals with identical/complementary restricted truth tables.
    let mut classes = EquivClasses::new(ns);
    let tables: Vec<Vec<bool>> = {
        let mut t = vec![Vec::new(); ns];
        for &bits in &sat_inputs {
            let inputs: Vec<bool> = (0..ni).map(|i| (bits >> i) & 1 == 1).collect();
            let vals = nl.simulate_bool(&inputs);
            for s in 0..ns {
                t[s].push(vals[s]);
            }
        }
        t
    };
    for a in 0..ns {
        for b in 0..a {
            let eqv = tables[a] == tables[b];
            let anti = tables[a].iter().zip(&tables[b]).all(|(x, y)| x != y);
            if eqv || anti {
                // randomly include some facts
                if rng.below(3) == 0 {
                    classes.union(Sig(a as u32), Sig(b as u32), anti);
                }
            }
        }
    }
    classes.compress();
    // random linear spec over a handful of signals
    let mut spec = Poly::zero();
    for _ in 0..5 {
        let s = Sig(rng.below(ns as u64) as u32);
        let c = 1 + rng.below(4) as i64;
        let term = Poly::from_var(var_of(s)).scale(&sbif::apint::Int::from(c));
        if rng.below(2) == 0 {
            spec = &spec + &term;
        } else {
            spec = &spec - &term;
        }
    }
    let expected: Vec<sbif::apint::Int> = sat_inputs
        .iter()
        .map(|&bits| {
            let inputs: Vec<bool> = (0..ni).map(|i| (bits >> i) & 1 == 1).collect();
            let vals = nl.simulate_bool(&inputs);
            spec.eval(|v| vals[v.index()])
        })
        .collect();
    for atomic in [true, false] {
        let (residual, _) = BackwardRewriter::new(&nl)
            .with_classes(&classes)
            .with_config(RewriteConfig { atomic_blocks: atomic, ..RewriteConfig::default() })
            .run(spec.clone())
            .expect("no limit");
        // residual over inputs (and possibly stray vars) must evaluate to
        // the same value as the original spec on every C-input.
        for (j, &bits) in sat_inputs.iter().enumerate() {
            let inputs: Vec<bool> = (0..ni).map(|i| (bits >> i) & 1 == 1).collect();
            let vals = nl.simulate_bool(&inputs);
            let got = residual.eval(|v| vals[v.index()]);
            assert_eq!(
                got, expected[j],
                "REWRITE UNSOUND (atomic={atomic}): bits={bits:b} residual={residual}"
            );
        }
    }
}

fn main() {
    let mut rng = Rng(0x9E3779B97F4A7C15);
    for round in 0..400 {
        test_classes(&mut rng);
        test_sbif(&mut rng);
        test_rewrite(&mut rng);
        if round % 50 == 0 {
            println!("round {round} ok");
        }
    }
    println!("all subsystem fuzz rounds passed");
}

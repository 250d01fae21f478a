//! Explore what SAT Based Information Forwarding actually discovers.
//!
//! Runs Alg. 1 on a divider and prints the equivalence classes —
//! including the paper's key fact, the antivalence between each quotient
//! bit and its stage's partial-remainder sign bit — then demonstrates the
//! effect on backward rewriting peaks.
//!
//! Run with: `cargo run --release --example sbif_exploration [n]`

use sbif::core::rewrite::{BackwardRewriter, RewriteConfig};
use sbif::core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifHooks};
use sbif::core::spec::divider_spec;
use sbif::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(6).max(2);
    let div = nonrestoring_divider(n);
    let nl = &div.netlist;

    println!("Alg. 1 on the {n}-bit divider under C = (0 ≤ R⁰ < D·2^{}):", n - 1);
    let sim = divider_sim_words(&div, 42, 2);
    let (classes, stats) = forward_information(
        nl,
        Some(div.constraint),
        &sim,
        SbifConfig::default(),
        &SbifHooks::default(),
    );
    println!(
        "  {} candidates, {} SAT checks, {} proven, {} refuted, {} budget-outs",
        stats.candidates, stats.sat_checks, stats.proven, stats.refuted, stats.unknown
    );

    let class_list = classes.classes();
    println!("  {} non-singleton classes; largest:", class_list.len());
    let mut by_size: Vec<_> = class_list.iter().collect();
    by_size.sort_by_key(|(_, m)| std::cmp::Reverse(m.len()));
    for (rep, members) in by_size.iter().take(5) {
        let kind = if nl.gate(*rep).is_const() { " (constant!)" } else { "" };
        println!("    rep {rep}{kind}: {} members", members.len());
    }

    println!("\nthe paper's key antivalences ¬q_(n-j) = r^(j)_(2n-2):");
    for (j, &sign) in div.stage_signs.iter().enumerate() {
        let q = div.quotient[div.n - 1 - j];
        let (rq, pq) = classes.rep(q);
        let (rs, ps) = classes.rep(sign);
        let proved = rq == rs && pq != ps;
        println!("  stage {:>2}: q_{} vs sign — {}", j + 1, div.n - 1 - j,
                 if proved { "antivalent ✔" } else { "not merged ✘" });
    }

    println!("\neffect on backward rewriting (peak terms):");
    let sp = divider_spec(&div);
    let with = BackwardRewriter::new(nl)
        .with_classes(&classes)
        .run(sp.clone())
        .expect("SBIF keeps peaks small");
    println!("  with SBIF:    peak {:>10} (final {})", with.1.peak_terms, with.1.final_terms);
    match BackwardRewriter::new(nl)
        .with_config(RewriteConfig { max_terms: Some(2_000_000), ..Default::default() })
        .run(sp)
    {
        Ok((_, st)) => println!("  without SBIF: peak {:>10}", st.peak_terms),
        Err(e) => println!("  without SBIF: {e}"),
    }
    Ok(())
}

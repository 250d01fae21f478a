//! Benchmarks of backward rewriting: the no-SBIF blow-up (Table I) and
//! the SBIF-assisted runs (Table II col. 7).

use sbif_bench::harness::Harness;
use sbif_core::rewrite::{BackwardRewriter, RewriteConfig};
use sbif_core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifHooks};
use sbif_core::spec::divider_spec;
use sbif_netlist::build::nonrestoring_divider;

fn bench_rewrite(c: &mut Harness) {
    for n in [4usize, 5] {
        let div = nonrestoring_divider(n);
        c.bench_function(&format!("rewrite_plain_n{n}"), |b| {
            b.iter(|| {
                let sp = divider_spec(&div);
                let (res, _) = BackwardRewriter::new(&div.netlist)
                    .with_config(RewriteConfig {
                        max_terms: Some(10_000_000),
                        ..Default::default()
                    })
                    .run(sp)
                    .expect("fits");
                assert!(res.is_zero());
            })
        });
    }
    for n in [8usize, 16, 32] {
        let div = nonrestoring_divider(n);
        let sim = divider_sim_words(&div, 1, 2);
        let (classes, _) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
            &SbifHooks::default(),
        );
        c.bench_function(&format!("rewrite_sbif_n{n}"), |b| {
            b.iter(|| {
                let sp = divider_spec(&div);
                let (res, _) = BackwardRewriter::new(&div.netlist)
                    .with_classes(&classes)
                    .run(sp)
                    .expect("fits");
                assert!(res.is_zero());
            })
        });
    }
}

fn main() {
    let mut harness = Harness::from_args();
    bench_rewrite(&mut harness);
}

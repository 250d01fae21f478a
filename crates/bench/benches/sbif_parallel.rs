//! Scaling of the parallel SBIF engine (EXPERIMENTS.md "parallel SBIF"
//! row): the same Alg. 1 run at increasing `jobs`, plus the verbatim
//! sequential pass as the baseline. Results are bit-identical across
//! thread counts (asserted here against the `jobs = 1` classes), so any
//! time difference is pure scheduling.

use sbif_bench::harness::Harness;
use sbif_core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifHooks};
use sbif_netlist::build::nonrestoring_divider;

fn bench_sbif_parallel(c: &mut Harness) {
    let n = 16;
    let div = nonrestoring_divider(n);
    let sim = divider_sim_words(&div, 1, 2);
    let (baseline, _) = forward_information(
        &div.netlist,
        Some(div.constraint),
        &sim,
        SbifConfig::default(),
        &SbifHooks::default(),
    );
    for jobs in [1usize, 2, 4, 8] {
        // Check determinism once, untimed: the per-signal class-equality
        // sweep is O(signals) of assertion work that would otherwise
        // pollute the measured loop.
        let cfg = SbifConfig { jobs, ..SbifConfig::default() };
        let (classes, stats) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            cfg,
            &SbifHooks::default(),
        );
        assert!(stats.proven > 0);
        for s in div.netlist.signals() {
            assert_eq!(classes.rep(s), baseline.rep(s), "jobs={jobs} diverged");
        }
        c.bench_function(&format!("sbif_parallel_n{n}_jobs{jobs}"), |b| {
            b.iter(|| {
                let cfg = SbifConfig { jobs, ..SbifConfig::default() };
                let (classes, stats) = forward_information(
                    &div.netlist,
                    Some(div.constraint),
                    &sim,
                    cfg,
                    &SbifHooks::default(),
                );
                std::hint::black_box((classes, stats));
            })
        });
    }
}

fn main() {
    let mut harness = Harness::from_args();
    bench_sbif_parallel(&mut harness);
}

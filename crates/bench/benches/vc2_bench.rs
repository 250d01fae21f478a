//! Benchmarks of the BDD-based vc2 proof (Table II cols. 8–9).

use sbif_bench::harness::Harness;
use sbif_core::vc2::check_vc2;
use sbif_netlist::build::nonrestoring_divider;

fn bench_vc2(c: &mut Harness) {
    for n in [4usize, 8] {
        let div = nonrestoring_divider(n);
        c.bench_function(&format!("vc2_n{n}"), |b| {
            b.iter(|| {
                let report = check_vc2(&div);
                assert!(report.holds);
                std::hint::black_box(report.peak_nodes);
            })
        });
    }
}

fn main() {
    let mut harness = Harness::from_args();
    bench_vc2(&mut harness);
}

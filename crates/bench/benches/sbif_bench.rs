//! Benchmarks of Alg. 1 (Table II cols. 5–6).
//!
//! Besides the timing lines, a run writes `BENCH_sbif.json` to the
//! working directory (`SBIF_BENCH_SBIF_JSON` overrides the path):
//! deterministic Alg. 1 counters (candidates, SAT checks, proven
//! equivalences, solver conflicts/propagations) for the benched widths,
//! plus `cache.*` counters pinning the content-addressed cache keys —
//! the canonical design digest and per-cone digest count of each width,
//! and the warm-lookup cone accounting (DESIGN.md §15). A drift in a
//! digest means structurally identical designs stopped sharing cache
//! entries, which is a silent regression timings never show.
//! Its `"det"` object is machine-independent and is diffed against a
//! checked-in baseline by `scripts/bench_check.sh`.

use sbif_bench::bench_json;
use sbif_bench::harness::Harness;
use sbif_core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifHooks};
use sbif_netlist::build::nonrestoring_divider;
use sbif_trace::json::Value;
use std::collections::BTreeMap;

fn bench_sbif(c: &mut Harness) {
    for n in [8usize, 16] {
        let div = nonrestoring_divider(n);
        let sim = divider_sim_words(&div, 1, 2);
        c.bench_function(&format!("sbif_forward_n{n}"), |b| {
            b.iter(|| {
                let (classes, stats) = forward_information(
                    &div.netlist,
                    Some(div.constraint),
                    &sim,
                    SbifConfig::default(),
                    &SbifHooks::default(),
                );
                assert!(stats.proven > 0);
                std::hint::black_box(classes);
            })
        });
    }
    // Simulation alone, for the candidate-detection share.
    let div = nonrestoring_divider(32);
    c.bench_function("sbif_simulation_n32", |b| {
        b.iter(|| std::hint::black_box(divider_sim_words(&div, 1, 2)))
    });
}

/// One untimed Alg. 1 run per width, harvesting the deterministic
/// counters for the baseline diff.
fn write_det_artifact() {
    let mut det = BTreeMap::new();
    for n in [8usize, 16] {
        let div = nonrestoring_divider(n);
        let sim = divider_sim_words(&div, 1, 2);
        let (_, stats) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
            &SbifHooks::default(),
        );
        let key = |metric: &str| format!("n{n}.{metric}");
        det.insert(key("candidates"), Value::Int(stats.candidates as i64));
        det.insert(key("sat_checks"), Value::Int(stats.sat_checks as i64));
        det.insert(key("proven"), Value::Int(stats.proven as i64));
        det.insert(key("refuted"), Value::Int(stats.refuted as i64));
        det.insert(key("conflicts"), Value::Int(stats.solver.conflicts as i64));
        det.insert(
            key("propagations"),
            Value::Int(stats.solver.propagations as i64),
        );
        // The level-barrier dispatch contract (DESIGN.md §7): nearly
        // every speculative check commits, and the shared batch solvers
        // amortize their setup over many windows. Pinned here so a
        // scheduling regression shows up as a baseline diff, not just a
        // timing wobble.
        let permille = (stats.spec_hits * 1000).checked_div(stats.spec_attempts).unwrap_or(0);
        det.insert(key("spec_hit_permille"), Value::Int(permille as i64));
        det.insert(key("solver_inits"), Value::Int(stats.solver_inits as i64));
        det.insert(key("batch_checks"), Value::Int(stats.batch_checks as i64));
    }
    // The cache-key contract: canonical digests are deterministic
    // across machines and runs, so they can be pinned like any other
    // logical counter. The 128-bit key lands as two i64 halves (the
    // canonical JSON integer space).
    for n in [8usize, 16] {
        let div = nonrestoring_divider(n);
        let dd = sbif_analysis::design_digest(
            &div.netlist,
            Some(div.constraint),
            "sbif-bench-cache-v1",
        );
        let key = |metric: &str| format!("cache.n{n}.{metric}");
        det.insert(key("key_hi"), Value::Int((dd.key >> 64) as u64 as i64));
        det.insert(key("key_lo"), Value::Int(dd.key as u64 as i64));
        det.insert(key("cones"), Value::Int(dd.cones.len() as i64));

        let cache = sbif_cache::ResultCache::in_memory();
        let cones: Vec<(u64, bool)> = dd.cones.iter().map(|c| (c.core, c.phase)).collect();
        cache
            .store(dd.key, &cones, &sbif_cache::Entry::new("correct", ""))
            .expect("in-memory store");
        let warm = cache.lookup(dd.key, &cones);
        assert!(warm.entry.is_some());
        det.insert(key("warm_cone_hits"), Value::Int(warm.cone_hits as i64));
        det.insert(key("warm_cone_misses"), Value::Int(warm.cone_misses as i64));
    }
    let json = bench_json("sbif-bench-sbif-v1", det, []);
    let path = std::env::var("SBIF_BENCH_SBIF_JSON")
        .unwrap_or_else(|_| "BENCH_sbif.json".to_string());
    match std::fs::write(&path, json) {
        Ok(()) => println!("deterministic counters written to {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn main() {
    let mut harness = Harness::from_args();
    bench_sbif(&mut harness);
    write_det_artifact();
}

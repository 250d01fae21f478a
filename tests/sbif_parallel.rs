//! The parallel SBIF engine: `--jobs N` must be a pure performance knob.
//!
//! The speculative worker / deterministic-commit design (see
//! `crates/core/src/sbif/parallel.rs`) promises classes and logical
//! statistics that are bit-identical to the sequential pass, sound
//! merges, and counterexample-driven candidate pruning. Each promise is
//! checked here.

use sbif::core::sbif::{
    divider_sim_words, forward_information, SbifConfig, SbifHooks, SbifStats,
};
use sbif::netlist::build::{
    array_divider, nonrestoring_divider, restoring_divider, srt_divider, Divider,
};
use sbif::netlist::Netlist;

fn jobs_cfg(jobs: usize) -> SbifConfig {
    SbifConfig { jobs, ..SbifConfig::default() }
}

/// The logical (scheduling-independent) part of the statistics. Under
/// the level-barrier engine this includes every speculation counter:
/// the lane schedule is a pure function of the netlist and the
/// configuration, so even speculative attempts the commit never uses
/// are jobs-invariant.
#[allow(clippy::type_complexity)]
fn logical(s: &SbifStats) -> (usize, usize, usize, usize, usize, usize, usize, usize, usize, usize)
{
    (
        s.candidates,
        s.sat_checks,
        s.proven,
        s.refuted,
        s.unknown,
        s.refinements,
        s.spec_attempts,
        s.spec_hits,
        s.solver_inits,
        s.batch_checks,
    )
}

fn assert_parallel_matches_sequential(div: &Divider, label: &str) {
    let sim = divider_sim_words(div, 23, 2);
    let (seq, seq_stats) = forward_information(
        &div.netlist,
        Some(div.constraint),
        &sim,
        jobs_cfg(1),
        &SbifHooks::default(),
    );
    let (par, par_stats) = forward_information(
        &div.netlist,
        Some(div.constraint),
        &sim,
        jobs_cfg(8),
        &SbifHooks::default(),
    );
    for s in div.netlist.signals() {
        assert_eq!(seq.rep(s), par.rep(s), "{label}: classes diverge at {s}");
    }
    assert_eq!(
        logical(&seq_stats),
        logical(&par_stats),
        "{label}: logical statistics diverge"
    );
    // Nearly all speculation commits.
    assert!(
        seq_stats.spec_hits * 2 > seq_stats.spec_attempts,
        "{label}: level-barrier speculation must mostly commit ({} of {})",
        seq_stats.spec_hits,
        seq_stats.spec_attempts
    );
}

#[test]
fn parallel_classes_identical_to_sequential_nonrestoring() {
    for n in 4..=10 {
        assert_parallel_matches_sequential(&nonrestoring_divider(n), &format!("nonrestoring {n}"));
    }
}

#[test]
fn parallel_classes_identical_on_all_architectures() {
    for n in [4usize, 5, 6] {
        assert_parallel_matches_sequential(&restoring_divider(n), &format!("restoring {n}"));
        assert_parallel_matches_sequential(&array_divider(n), &format!("array {n}"));
        assert_parallel_matches_sequential(&srt_divider(n), &format!("srt {n}"));
    }
}

/// Every merged pair must hold on *every* input satisfying C — checked
/// by exhaustive 64-lane simulation.
#[test]
fn parallel_merges_are_sound_under_constraint() {
    for n in [4usize, 6, 8] {
        let div = nonrestoring_divider(n);
        let sim = divider_sim_words(&div, 7, 2);
        let (classes, stats) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            jobs_cfg(8),
            &SbifHooks::default(),
        );
        assert!(stats.proven > 0, "n={n}");
        // Enumerate all valid (r0, d) pairs, 64 per simulation word.
        let pairs: Vec<(u64, u64)> = (1..1u64 << (n - 1))
            .flat_map(|d| (0..(d << (n - 1))).map(move |r0| (r0, d)))
            .collect();
        let num_inputs = div.netlist.inputs().len();
        for chunk in pairs.chunks(64) {
            let mut planes = vec![0u64; num_inputs];
            for (lane, &(r0, d)) in chunk.iter().enumerate() {
                for (i, &s) in div.netlist.inputs().iter().enumerate() {
                    let name = div.netlist.name(s).expect("named input");
                    let (bus, idx) = name
                        .split_once('[')
                        .map(|(b, r)| {
                            (b, r.trim_end_matches(']').parse::<usize>().expect("index"))
                        })
                        .expect("bus input");
                    let v = if bus == "r0" { r0 } else { d };
                    if (v >> idx) & 1 == 1 {
                        planes[i] |= 1 << lane;
                    }
                }
            }
            let mask = if chunk.len() == 64 { u64::MAX } else { (1 << chunk.len()) - 1 };
            let vals = div.netlist.simulate64(&planes);
            for s in div.netlist.signals() {
                let (r, neg) = classes.rep(s);
                let expect = if neg { !vals[r.index()] } else { vals[r.index()] };
                assert_eq!(
                    vals[s.index()] & mask,
                    expect & mask,
                    "n={n}: {s} disagrees with its representative {r}"
                );
            }
        }
    }
}

/// A candidate pair that only *looks* equivalent on the initial
/// simulation vectors is split by the counterexample its SAT check
/// returns: with refinement enabled the engine re-simulates the model
/// and never examines pairs from the stale bucket again.
#[test]
fn counterexamples_prune_spurious_candidates() {
    // All signals evaluate to 0 on the all-zero pattern, so a single
    // all-zero simulation word throws every signal into one bucket —
    // maximally spurious candidates.
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let b = nl.input("b");
    let c = nl.input("c");
    let g1 = nl.and(a, b);
    let g2 = nl.or(a, b);
    let g3 = nl.xor(a, c);
    let g4 = nl.or(b, c);
    let g5 = nl.and(g2, g4);
    let out = nl.xor(g1, g5);
    let o = nl.or(out, g3);
    nl.add_output("o", o);
    let sim: Vec<Vec<u64>> = vec![vec![0]; 3];

    let eager = SbifConfig { cex_flush: 1, ..SbifConfig::default() };
    let lazy = SbifConfig { cex_flush: usize::MAX, ..SbifConfig::default() };
    let (refined, refined_stats) = forward_information(
        &nl,
        None,
        &sim,
        eager,
        &SbifHooks::default(),
    );
    let (stale, stale_stats) = forward_information(&nl, None, &sim, lazy, &SbifHooks::default());

    assert!(refined_stats.refinements > 0, "the SAT models must trigger refinement");
    assert_eq!(stale_stats.refinements, 0);
    assert!(
        refined_stats.sat_checks < stale_stats.sat_checks,
        "refinement must prune checks ({} vs {})",
        refined_stats.sat_checks,
        stale_stats.sat_checks
    );

    // Both runs stay sound on all 8 input assignments.
    for (label, classes) in [("refined", &refined), ("stale", &stale)] {
        for bits in 0u64..8 {
            let inputs: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            let vals = nl.simulate_bool(&inputs);
            for s in nl.signals() {
                let (r, neg) = classes.rep(s);
                assert_eq!(
                    vals[s.index()],
                    vals[r.index()] ^ neg,
                    "{label}: bits={bits:b} {s}"
                );
            }
        }
    }
}

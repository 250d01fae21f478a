//! Properties of SAT Based Information Forwarding (Alg. 1).

use sbif::core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifHooks};
use sbif::netlist::build::nonrestoring_divider;

#[test]
fn key_antivalences_found_across_sizes() {
    // Sect. IV: Alg. 1 proves ¬q_{n−j} = r^(j)_{2n−2} for all stages.
    for n in [3usize, 5, 8, 12] {
        let div = nonrestoring_divider(n);
        let sim = divider_sim_words(&div, 7, 2);
        let (classes, stats) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
            &SbifHooks::default(),
        );
        assert!(stats.proven > 0, "n={n}");
        for (j, &sign) in div.stage_signs.iter().enumerate() {
            let q = div.quotient[div.n - 1 - j];
            let (rq, pq) = classes.rep(q);
            let (rs, ps) = classes.rep(sign);
            assert_eq!(rq, rs, "n={n} stage {}: share a class", j + 1);
            assert_eq!(pq, !ps, "n={n} stage {}: antivalent", j + 1);
        }
    }
}

#[test]
fn equiv_counts_grow_with_width() {
    // Table II col. 5: #equiv grows roughly quadratically (the paper has
    // 40/120/376/1272 for n = 4/8/16/32).
    let counts: Vec<usize> = [4usize, 8, 16]
        .iter()
        .map(|&n| {
            let div = nonrestoring_divider(n);
            let sim = divider_sim_words(&div, 7, 2);
            let (_, stats) = forward_information(
                &div.netlist,
                Some(div.constraint),
                &sim,
                SbifConfig::default(),
                &SbifHooks::default(),
            );
            stats.proven
        })
        .collect();
    assert!(counts[1] > 2 * counts[0], "{counts:?}");
    assert!(counts[2] > 2 * counts[1], "{counts:?}");
}

#[test]
fn representatives_are_topologically_minimal() {
    let div = nonrestoring_divider(6);
    let sim = divider_sim_words(&div, 3, 2);
    let (classes, _) = forward_information(
        &div.netlist,
        Some(div.constraint),
        &sim,
        SbifConfig::default(),
        &SbifHooks::default(),
    );
    for (rep, members) in classes.classes() {
        for (m, _) in members {
            assert!(rep < m, "representative {rep} not minimal (member {m})");
        }
    }
}

#[test]
fn all_claims_hold_exhaustively() {
    // Soundness of Alg. 1 end to end: every class fact holds on every
    // valid input of the 4-bit divider.
    let n = 4;
    let div = nonrestoring_divider(n);
    let sim = divider_sim_words(&div, 5, 2);
    let (classes, _) = forward_information(
        &div.netlist,
        Some(div.constraint),
        &sim,
        SbifConfig::default(),
        &SbifHooks::default(),
    );
    for d in 1u64..(1 << (n - 1)) {
        for r0 in 0..(d << (n - 1)) {
            let inputs: Vec<bool> = div
                .netlist
                .inputs()
                .iter()
                .map(|&s| {
                    let name = div.netlist.name(s).expect("named");
                    let (bus, idx) = name
                        .split_once('[')
                        .map(|(b, r)| (b, r.trim_end_matches(']').parse::<usize>().expect("i")))
                        .expect("bus");
                    let v = if bus == "r0" { r0 } else { d };
                    (v >> idx) & 1 == 1
                })
                .collect();
            let vals = div.netlist.simulate_bool(&inputs);
            for s in div.netlist.signals() {
                let (r, neg) = classes.rep(s);
                assert_eq!(
                    vals[s.index()],
                    vals[r.index()] ^ neg,
                    "r0={r0} d={d}: {s} vs {r}"
                );
            }
        }
    }
}

#[test]
fn window_depth_controls_power() {
    // Deeper windows prove (weakly) more; depth 4 — the paper's value —
    // is enough for the quotient antivalences.
    let div = nonrestoring_divider(6);
    let sim = divider_sim_words(&div, 11, 2);
    let mut last = 0;
    for depth in [0usize, 2, 4] {
        let cfg = SbifConfig { window_depth: depth, ..SbifConfig::default() };
        let (_, stats) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            cfg,
            &SbifHooks::default(),
        );
        assert!(
            stats.proven >= last,
            "depth {depth}: proven {} < previous {last}",
            stats.proven
        );
        last = stats.proven;
    }
}

#[test]
fn more_simulation_means_fewer_false_candidates() {
    let div = nonrestoring_divider(8);
    let few = divider_sim_words(&div, 1, 1);
    let many = divider_sim_words(&div, 1, 4);
    let (_, s_few) = forward_information(
        &div.netlist,
        Some(div.constraint),
        &few,
        SbifConfig::default(),
        &SbifHooks::default(),
    );
    let (_, s_many) = forward_information(
        &div.netlist,
        Some(div.constraint),
        &many,
        SbifConfig::default(),
        &SbifHooks::default(),
    );
    // With 4× the patterns, fewer (or equal) candidates get refuted by
    // SAT — simulation already filtered them.
    assert!(
        s_many.refuted <= s_few.refuted,
        "refuted {} (many) vs {} (few)",
        s_many.refuted,
        s_few.refuted
    );
}

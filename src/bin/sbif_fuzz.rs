//! `sbif-fuzz` — the mutation-kill campaign from the command line.
//!
//! ```text
//! sbif-fuzz [--smoke] [--seed N] [--jobs N] [--arch A]... [--n W]...
//!           [--count K] [--certify] [--no-shrink] [--json FILE]
//!           [--corpus-dir DIR] [--min-semantic K] [--metrics-out FILE]
//!           [--cache-dir DIR]
//! ```
//!
//! Generates dividers, injects gate-level faults (see `sbif-fuzz`'s
//! library docs for the fault models), classifies each mutant as
//! benign, benign-under-C or semantics-changing, and runs the full
//! verification pipeline on them. Every semantics-changing mutant must
//! come back NOT correct; strictly benign mutants and the unmutated
//! seeds must verify wherever the architecture is within its proven
//! width frontier (beyond it the cell runs kill-only — see
//! `Arch::proven_width_limit`). Escaping or crashing mutants are
//! delta-debugged to a minimal width/output cone and (with
//! `--corpus-dir`) written out as BNET files for the replay corpus.
//!
//! `--smoke` selects the fixed CI profile (seed, archs, widths, counts)
//! and enforces `--min-semantic 200` unless overridden; the JSON kill
//! matrix is byte-identical for every `--jobs` value. So is the
//! deterministic metrics report that `--metrics-out FILE` writes
//! (canonical `sbif-metrics-v1` JSON, DESIGN.md §12): the `fuzz.*`
//! tallies mirror the kill matrix, the `sbif.*`/`rewrite.*`/`vc2.*`
//! totals measure the campaign's actual symbolic work, and the
//! `cache.*` counters account what `--cache-dir DIR` saved.
//!
//! `--cache-dir DIR` attaches the content-addressed outcome cache
//! (DESIGN.md §15): structurally identical mutants are proved once per
//! campaign, and a re-run over an unchanged corpus skips every
//! already-judged seed and mutant while reproducing the kill matrix
//! byte for byte.
//!
//! Exit code 0 = campaign passed, 1 = escapes/false alarms/crashes (or
//! too few semantic mutants), 2 = usage error.

use sbif::cache::ResultCache;
use sbif::fuzz::{default_pipeline, run_campaign, Arch, CampaignConfig, FaultModel};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sbif-fuzz [--smoke] [--seed N] [--jobs N] [--arch A]... [--n W]...\n\
         \x20               [--model M]... [--count K] [--certify] [--no-shrink]\n\
         \x20               [--json FILE] [--corpus-dir DIR] [--min-semantic K]\n\
         \x20               [--metrics-out FILE] [--cache-dir DIR]\n\
         archs: nonrestoring restoring array srt\n\
         models: {}",
        FaultModel::all().map(|m| m.name()).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = CampaignConfig::default();
    let mut smoke = false;
    let mut archs: Vec<Arch> = Vec::new();
    let mut widths: Vec<usize> = Vec::new();
    let mut models: Vec<FaultModel> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut corpus_dir: Option<String> = None;
    let mut min_semantic: Option<usize> = None;
    let mut metrics_out: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    cfg.jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut i = 0;
    while i < args.len() {
        let parse_num = |k: usize| args.get(k).and_then(|s| s.parse::<usize>().ok());
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--seed" => {
                let Some(seed) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok())
                else {
                    return usage();
                };
                cfg.seed = seed;
                i += 2;
            }
            "--jobs" => {
                let Some(jobs) = parse_num(i + 1) else { return usage() };
                cfg.jobs = jobs.max(1);
                i += 2;
            }
            "--arch" => {
                let Some(a) = args.get(i + 1).and_then(|s| Arch::parse(s)) else {
                    return usage();
                };
                archs.push(a);
                i += 2;
            }
            "--n" => {
                let Some(w) = parse_num(i + 1) else { return usage() };
                if w < 2 {
                    eprintln!("divider width must be at least 2 bits");
                    return ExitCode::from(2);
                }
                widths.push(w);
                i += 2;
            }
            "--model" => {
                let Some(m) = args.get(i + 1).and_then(|s| FaultModel::parse(s)) else {
                    return usage();
                };
                models.push(m);
                i += 2;
            }
            "--count" => {
                let Some(k) = parse_num(i + 1) else { return usage() };
                cfg.per_model = k;
                i += 2;
            }
            "--certify" => {
                cfg.certify = true;
                i += 1;
            }
            "--no-shrink" => {
                cfg.shrink = false;
                i += 1;
            }
            "--json" => {
                let Some(p) = args.get(i + 1) else { return usage() };
                json_path = Some(p.clone());
                i += 2;
            }
            "--corpus-dir" => {
                let Some(p) = args.get(i + 1) else { return usage() };
                corpus_dir = Some(p.clone());
                i += 2;
            }
            "--min-semantic" => {
                let Some(k) = parse_num(i + 1) else { return usage() };
                min_semantic = Some(k);
                i += 2;
            }
            "--metrics-out" => {
                let Some(p) = args.get(i + 1) else { return usage() };
                metrics_out = Some(p.clone());
                i += 2;
            }
            "--cache-dir" => {
                let Some(p) = args.get(i + 1) else { return usage() };
                cache_dir = Some(p.clone());
                i += 2;
            }
            _ => return usage(),
        }
    }
    if smoke {
        // Fixed profile: only --jobs/--json/--corpus-dir may vary, so
        // that every CI run fuzzes the same mutant population.
        let jobs = cfg.jobs;
        let certify = cfg.certify;
        cfg = CampaignConfig::smoke(jobs);
        cfg.certify = certify;
        min_semantic = min_semantic.or(Some(200));
    }
    if !archs.is_empty() {
        cfg.archs = archs;
    }
    if !widths.is_empty() {
        cfg.widths = widths;
    }
    if !models.is_empty() {
        cfg.models = models;
    }

    println!(
        "sbif-fuzz: seed {:#x}, {} jobs, archs [{}], widths {:?}, {} mutants per model",
        cfg.seed,
        cfg.jobs,
        cfg.archs.iter().map(|a| a.name()).collect::<Vec<_>>().join(", "),
        cfg.widths,
        cfg.per_model
    );
    let cache = match &cache_dir {
        Some(dir) => match ResultCache::on_disk(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("cannot open cache dir {dir}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    // One recorder observes every verifier run of the campaign, so the
    // sbif.* totals in --metrics-out measure the actual symbolic work —
    // on a warm cache they drop while the kill matrix stays identical.
    let rec = sbif::trace::Recorder::new();
    let pipeline = default_pipeline(cfg.certify, cfg.max_terms, rec.clone());
    let report = run_campaign(&cfg, &pipeline, cache.as_ref());
    print!("{}", report.human_summary());

    if let Some(path) = &metrics_out {
        report.record_metrics(&rec);
        if let Err(e) = std::fs::write(path, rec.finish().to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("metrics report written to {path}");
    }
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.kill_matrix_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("kill matrix written to {path}");
    }
    if let Some(dir) = &corpus_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::from(2);
        }
        for e in &report.escapes {
            let Some(w) = &e.witness else { continue };
            let stem = format!("{}_{}_{}_n{}_o{}", e.kind, e.arch, e.model, w.n, e.ordinal);
            for (suffix, text) in [("bnet", &w.full_bnet), ("cone.bnet", &w.cone_bnet)] {
                let path = format!("{dir}/{stem}.{suffix}");
                if let Err(err) = std::fs::write(&path, text) {
                    eprintln!("cannot write {path}: {err}");
                    return ExitCode::from(2);
                }
            }
            println!("shrunk {} witness written to {dir}/{stem}.bnet", e.kind);
        }
    }

    let mut ok = report.success();
    if let Some(min) = min_semantic {
        if report.total_semantic() < min {
            eprintln!(
                "campaign produced only {} semantics-changing mutants (< {min})",
                report.total_semantic()
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

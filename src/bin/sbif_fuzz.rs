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
use sbif::flag_value;
use sbif::fuzz::{default_pipeline, run_campaign, Arch, CampaignConfig, FaultModel};
use std::process::ExitCode;

/// Prints why the command line was rejected, then the usage text.
fn usage(reason: &str) -> ExitCode {
    eprintln!(
        "{reason}\n\
         usage: sbif-fuzz [--smoke] [--seed N] [--jobs N] [--arch A]... [--n W]...\n\
         \x20               [--model M]... [--count K] [--certify] [--no-shrink]\n\
         \x20               [--json FILE] [--corpus-dir DIR] [--min-semantic K]\n\
         \x20               [--metrics-out FILE] [--cache-dir DIR]\n\
         archs: {}\n\
         models: {}",
        Arch::all().map(|a| a.name()).join(" "),
        FaultModel::all().map(|m| m.name()).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    campaign(&mut std::env::args().skip(1)).unwrap_or_else(|reason| usage(&reason))
}

/// Runs the campaign the command line asks for; `Err` is a usage error.
fn campaign(args: &mut dyn Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut cfg = CampaignConfig::default();
    let mut smoke = false;
    let (mut archs, mut widths, mut models) = (Vec::new(), Vec::new(), Vec::new());
    let (mut json_path, mut corpus_dir, mut metrics_out, mut cache_dir) = (None, None, None, None);
    let mut min_semantic: Option<usize> = None;
    cfg.jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--certify" => cfg.certify = true,
            "--no-shrink" => cfg.shrink = false,
            "--seed" => cfg.seed = flag_value(&flag, args, "a number", |s| s.parse().ok())?,
            "--jobs" => cfg.jobs = count(&flag, args)?.max(1),
            "--count" => cfg.per_model = count(&flag, args)?,
            "--min-semantic" => min_semantic = Some(count(&flag, args)?),
            "--arch" => archs.push(flag_value(&flag, args, "an architecture", Arch::parse)?),
            "--model" => models.push(flag_value(&flag, args, "a fault model", FaultModel::parse)?),
            "--n" => widths.push(flag_value(&flag, args, "a width of at least 2 bits", |s| {
                s.parse().ok().filter(|&w| w >= 2)
            })?),
            "--json" => json_path = Some(path(&flag, args)?),
            "--corpus-dir" => corpus_dir = Some(path(&flag, args)?),
            "--metrics-out" => metrics_out = Some(path(&flag, args)?),
            "--cache-dir" => cache_dir = Some(path(&flag, args)?),
            _ => return Err(format!("unknown flag {flag:?}")),
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
                return Ok(ExitCode::from(2));
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
            return Ok(ExitCode::from(2));
        }
        println!("metrics report written to {path}");
    }
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.kill_matrix_json()) {
            eprintln!("cannot write {path}: {e}");
            return Ok(ExitCode::from(2));
        }
        println!("kill matrix written to {path}");
    }
    if let Some(dir) = &corpus_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return Ok(ExitCode::from(2));
        }
        for e in &report.escapes {
            let Some(w) = &e.witness else { continue };
            let stem = format!("{}_{}_{}_n{}_o{}", e.kind, e.arch, e.model, w.n, e.ordinal);
            for (suffix, text) in [("bnet", &w.full_bnet), ("cone.bnet", &w.cone_bnet)] {
                let path = format!("{dir}/{stem}.{suffix}");
                if let Err(err) = std::fs::write(&path, text) {
                    eprintln!("cannot write {path}: {err}");
                    return Ok(ExitCode::from(2));
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
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn count(flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<usize, String> {
    flag_value(flag, args, "a count", |s| s.parse().ok())
}

fn path(flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<String, String> {
    flag_value(flag, args, "a path", |s| Some(s.to_string()))
}

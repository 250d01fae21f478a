//! `sbif-verify` — fully automatic divider verification from the command
//! line.
//!
//! ```text
//! sbif-verify <netlist> [--vc1-only] [--no-sbif] [--certify] [--max-terms N] [--jobs N]
//!             [--cache-dir DIR] [--trace pretty|json] [--trace-out FILE]
//!             [--metrics-out FILE] [--analysis-out FILE]
//!             [--budget-conflicts N] [--budget-terms N] [--budget-nodes N]
//!             [--budget-sat N] [--timeout-ms MS]
//! sbif-verify --demo <n> [--arch A] [options] # generate and verify an n-bit divider
//! sbif-verify --emit <n> <file> [--arch A]    # write an n-bit divider as BNET
//! ```
//!
//! `--arch` picks the generated architecture: `nonrestoring` (the
//! default), `restoring`, `srt` or `array`. A run verifies one divider:
//! a second netlist, `--demo` beside a netlist and `--arch` without
//! `--demo` are usage errors. `--jobs` (default: the CPU count),
//! `--certify`, `--vc1-only`, `--max-terms`, `--budget-*` and
//! `--timeout-ms` are `sbif::serve::JOB_OPTIONS`, read the same way as
//! the `sbif-serve` request keys they spell with `-` for `_`.
//!
//! The `--budget-*` flags attach the resource governor (DESIGN.md
//! §16): `--budget-conflicts` caps the committed SBIF solver conflicts
//! (exhaustion skips the remaining windows and continues with the
//! classes found — sound, possibly slower downstream),
//! `--budget-terms` caps backward-rewriting terms (exhaustion is an
//! *inconclusive* verdict instead of a hard abort), `--budget-nodes`
//! caps the vc2 BDD's live nodes (exhaustion falls back to a bounded
//! SAT check of the range property, itself capped by `--budget-sat`).
//! All of those are deterministic units — whether a budget trips is
//! byte-identical for any `--jobs` value. `--timeout-ms MS` arms a
//! wall-clock watchdog that only ever cancels; a cancelled run is
//! reported inconclusive and never cached. A budget-limited run exits
//! 0 with `VERDICT: inconclusive (…)` naming the exhausted stage.
//!
//! Netlist files may be BNET (`.bnet`, anything else), AIGER ASCII
//! (`.aag`) or ISCAS BENCH (`.bench`/`.isc`) — the format is chosen by
//! extension. BNET files are first run through the `sbif-lint` static
//! analyzer; hard errors (cycles, undriven signals, …) abort before
//! verification (the AIGER/BENCH parsers reject those structurally,
//! with line/column positions). File inputs are cone-of-influence
//! restricted to their declared outputs before verification, so
//! synthesis leftovers outside the divider cone cost nothing.
//! With `--certify`, every UNSAT answer of the flow is replayed through
//! the independent DRAT checker and the certificate statistics are
//! reported; a rejected certificate means the run is *not* trusted.
//!
//! `--cache-dir DIR` attaches the content-addressed result cache
//! (DESIGN.md §15): the design's canonical cone digests plus the flow
//! configuration (with `--jobs` normalized away) form the key; a hit
//! replays the stored verdict and the byte-identical `sbif-metrics-v1`
//! stub of the original run without verifying anything, a miss proves
//! and stores. The same cache directory is shared with `sbif-serve`
//! and `sbif-fuzz --cache-dir`.
//!
//! `--trace pretty` prints the live phase tree (spans, wall times) to
//! stderr; `--trace json` emits the NDJSON event stream instead
//! (`--trace-out FILE` redirects either to a file). `--metrics-out FILE`
//! writes the deterministic metrics report — byte-identical for any
//! `--jobs` value — as canonical JSON (see DESIGN.md §12).
//! `--analysis-out FILE` dumps the static-analysis database (ternary
//! facts, structural-hash classes, cone mask, shadow signatures; see
//! DESIGN.md §14) as canonical JSON.
//!
//! The netlist must expose the Definition-1 interface: input buses
//! `r0[0..2n−3]` and `d[0..n−2]` (the sign bits are constant 0 per the
//! paper) and output buses `q[0..n−1]` and `r[0..2n−2]`.
//!
//! Exit code 0 = verified correct *or* inconclusive under a budget
//! (the run itself succeeded; the budget was the limit), 1 =
//! refuted/failed, 2 = usage or resource error. A usage error prints
//! its reason, then the usage text.

use sbif::cache::ResultCache;
use sbif::core::verify::{DividerVerifier, Vc1Outcome, VerifierConfig};
use sbif::flag_value;
use sbif::fuzz::Arch;
use sbif::netlist::io::{write_bnet, Format};
use sbif::serve::{job_option, load_divider, set_job_option, verify_cached, JobOption};
use sbif::trace::json::Value;
use sbif::trace::{NdjsonSink, PrettySink, Recorder};
use std::io::Write;
use std::process::ExitCode;

/// The `--arch` names, joined by `sep`.
fn arch_names(sep: &str) -> String {
    Arch::all().map(Arch::name).join(sep)
}

/// Prints why the command line was rejected, then the usage text.
fn usage(reason: &str) -> ExitCode {
    let archs = arch_names("|");
    eprintln!(
        "{reason}\n\
         usage: sbif-verify <netlist(.bnet|.aag|.bench)> [--vc1-only] [--no-sbif] [--certify]\n\
         \x20                [--max-terms N] [--jobs N] [--cache-dir DIR]\n\
         \x20                [--trace pretty|json] [--trace-out FILE] [--metrics-out FILE]\n\
         \x20                [--analysis-out FILE] [--budget-conflicts N] [--budget-terms N]\n\
         \x20                [--budget-nodes N] [--budget-sat N] [--timeout-ms MS]\n\
         \x20      sbif-verify --demo <n> [--arch {archs}] [options]\n\
         \x20      sbif-verify --emit <n> <file> [--arch {archs}]"
    );
    ExitCode::from(2)
}

type Args<'a> = &'a mut dyn Iterator<Item = String>;

/// Reads the `--arch` value after `flag`.
fn arch_value(flag: &str, args: Args) -> Result<Arch, String> {
    flag_value(flag, args, &format!("one of {}", arch_names(", ")), Arch::parse)
}

/// Reads the divider width after `--demo`/`--emit`.
fn width_value(flag: &str, args: Args) -> Result<usize, String> {
    flag_value(flag, args, "a width of at least 2 bits", |s| s.parse().ok().filter(|&n| n >= 2))
}

/// How the trace event stream is rendered (`--trace`).
#[derive(Clone, Copy, PartialEq)]
enum TraceMode {
    Pretty,
    Json,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let run = if args.next_if_eq("--emit").is_some() { emit } else { verify };
    run(&mut args).unwrap_or_else(|reason| usage(&reason))
}

/// `--emit <n> <file> [--arch A]`: writes a generated divider as BNET.
/// `Err` is a usage error.
fn emit(args: Args) -> Result<ExitCode, String> {
    let n = width_value("--emit", args)?;
    let path = args.next().ok_or("--emit wants a width and a file")?;
    let extra = |x: String| Err(format!("--emit takes only --arch after the file, got {x:?}"));
    let arch = match args.next() {
        None => Arch::NonRestoring,
        Some(flag) if flag == "--arch" => arch_value(&flag, args)?,
        Some(x) => return extra(x),
    };
    if let Some(x) = args.next() {
        return extra(x);
    }
    let div = arch.build(n);
    if let Err(e) = std::fs::write(&path, write_bnet(&div.netlist)) {
        eprintln!("cannot write {path}: {e}");
        return Ok(ExitCode::from(2));
    }
    println!("wrote the {n}-bit {arch} divider to {path}");
    Ok(ExitCode::SUCCESS)
}

/// Verifies the one divider the command line names. `Err` is a usage
/// error; any other failure is reported here and exits 2.
fn verify(args: Args) -> Result<ExitCode, String> {
    let mut config = VerifierConfig::default();
    // The SBIF window checks fan out over all cores unless --jobs
    // overrides it (results are identical either way; see the
    // sbif::parallel docs).
    config.sbif.jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut file, mut demo, mut arch, mut trace_mode) = (None, None, None, None);
    let (mut trace_out, mut metrics_out, mut analysis_out, mut cache_dir) =
        (None, None, None, None);
    while let Some(flag) = args.next() {
        let path = |args: Args| flag_value(&flag, args, "a path", |s| Some(s.to_string()));
        match flag.as_str() {
            "--demo" => demo = Some(width_value(&flag, args)?),
            "--arch" => arch = Some(arch_value(&flag, args)?),
            "--no-sbif" => config.use_sbif = false,
            "--trace" => {
                trace_mode = Some(flag_value(&flag, args, "pretty or json", |s| match s {
                    "pretty" => Some(TraceMode::Pretty),
                    "json" => Some(TraceMode::Json),
                    _ => None,
                })?)
            }
            "--trace-out" => trace_out = Some(path(args)?),
            "--metrics-out" => metrics_out = Some(path(args)?),
            "--analysis-out" => analysis_out = Some(path(args)?),
            "--cache-dir" => cache_dir = Some(path(args)?),
            name if !name.starts_with('-') => {
                if let Some(first) = file.replace(flag.clone()) {
                    return Err(format!("a second netlist {flag:?} after {first:?}"));
                }
            }
            _ => {
                // A job option: `--` plus its key with `-` for `_`.
                let key = flag.strip_prefix("--").filter(|k| !k.contains('_'));
                let key = key.map(|k| k.replace('-', "_")).unwrap_or_default();
                let value = match job_option(&key) {
                    Some(JobOption::Switch(_)) => Value::Bool(true),
                    Some(JobOption::Count(_)) => {
                        let int = |s: &str| s.parse().ok().map(Value::Int);
                        flag_value(&flag, args, "a non-negative integer", int)?
                    }
                    None => return Err(format!("unknown flag {flag:?}")),
                };
                set_job_option(&mut config, &key, &value)?;
            }
        }
    }
    let divider = match (file, demo) {
        (Some(file), Some(_)) => {
            return Err(format!("--demo and the netlist {file:?} name two dividers"))
        }
        (Some(_), None) if arch.is_some() => {
            return Err("--arch applies to --demo and --emit only".into())
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read: {e}"));
            match text.and_then(|text| load_divider(&text, Format::from_path(&path))) {
                Ok((divider, warnings)) => {
                    warnings.iter().for_each(|w| eprintln!("{path}: {w}"));
                    divider
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return Ok(ExitCode::from(2));
                }
            }
        }
        (None, Some(n)) => arch.unwrap_or(Arch::NonRestoring).build(n),
        (None, None) => return Err("no netlist and no --demo".into()),
    };
    // A file target without an explicit mode means the machine stream.
    if trace_out.is_some() && trace_mode.is_none() {
        trace_mode = Some(TraceMode::Json);
    }

    // The content-addressed result cache: a hit replays the stored
    // verdict and metrics stub byte-identically and skips the run
    // (inconclusive entries only hit under the exact same budgets; see
    // DESIGN.md §16).
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

    // One recorder observes the whole run; sinks stream events as the
    // phases execute, the deterministic payload lands in the report.
    let recorder = Recorder::new();
    if let Some(mode) = trace_mode {
        let w: Box<dyn Write + Send> = match &trace_out {
            Some(path) => match std::fs::File::create(path) {
                Ok(f) => Box::new(std::io::BufWriter::new(f)),
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    return Ok(ExitCode::from(2));
                }
            },
            None => Box::new(std::io::stderr()),
        };
        match mode {
            TraceMode::Json => recorder.attach(Box::new(NdjsonSink::new(w))),
            TraceMode::Pretty => recorder.attach(Box::new(PrettySink::new(w))),
        }
    }

    println!(
        "verifying {}-bit divider ({} signals) against Definition 1 …",
        divider.n,
        divider.netlist.num_signals()
    );
    let out = match verify_cached(&divider, config, cache.as_ref(), recorder) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("aborted: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    if let Some(path) = &metrics_out {
        if let Err(e) = std::fs::write(path, &out.metrics_json) {
            eprintln!("cannot write {path}: {e}");
            return Ok(ExitCode::from(2));
        }
        println!("metrics report written to {path}");
    }
    if let Some(path) = &analysis_out {
        // The analysis database is deterministic, so recomputing it on
        // a fresh verifier matches what the run (or the cached original
        // run) observed.
        let db = match DividerVerifier::new(&divider).with_config(config).analysis_db() {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cannot analyze: {e}");
                return Ok(ExitCode::from(2));
            }
        };
        if let Err(e) = std::fs::write(path, db.to_json(&divider.netlist)) {
            eprintln!("cannot write {path}: {e}");
            return Ok(ExitCode::from(2));
        }
        println!("analysis database written to {path}");
    }
    if let Some(report) = out.report.as_deref() {
        match &report.vc1.outcome {
            Vc1Outcome::Proven => println!(
                "vc1 (R0 = Q*D + R): PROVEN   [{} equivalences, peak {} terms, {:?} + {:?}]",
                report.vc1.sbif.proven,
                report.vc1.rewrite.peak_terms,
                report.vc1.sbif_time,
                report.vc1.rewrite_time
            ),
            Vc1Outcome::Refuted { dividend, divisor } => {
                println!("vc1 (R0 = Q*D + R): REFUTED  [{dividend} / {divisor} divides wrong]")
            }
            Vc1Outcome::Inconclusive { residual_terms } => {
                println!("vc1 (R0 = Q*D + R): UNDECIDED [{residual_terms} residual terms]")
            }
            Vc1Outcome::Exhausted(e) => {
                println!("vc1 (R0 = Q*D + R): EXHAUSTED [{e}]")
            }
        }
        if let Some(vc2) = &report.vc2 {
            println!(
                "vc2 (0 <= R < D):   {}  [peak {} BDD nodes, {:?}]",
                if vc2.holds { "PROVEN " } else { "REFUTED" },
                vc2.peak_nodes,
                report.vc2_time
            );
        }
        if let Some(fb) = &report.vc2_fallback {
            println!(
                "vc2 SAT fallback:   {}  [{} of {} conflicts]",
                match fb.holds {
                    Some(true) => "PROVEN ",
                    Some(false) => "REFUTED",
                    None => "UNKNOWN",
                },
                fb.conflicts,
                fb.budget
            );
        }
        if config.sbif.certify {
            let cert = report.certificates();
            println!(
                "certificates:       {} UNSAT answers DRAT-checked, {} rejected, {:.1}% of logged steps used",
                cert.checked,
                cert.rejected,
                100.0 * cert.used_fraction()
            );
        }
        if report.cancelled {
            eprintln!("watchdog: run cancelled by --timeout-ms; result not cached");
        }
    }
    let cached = if out.cached { " (cached)" } else { "" };
    Ok(match out.verdict.as_str() {
        "correct" => {
            println!("VERDICT: correct{cached}");
            ExitCode::SUCCESS
        }
        "inconclusive" => {
            match &out.exhausted_at {
                Some(e) => println!("VERDICT: inconclusive ({e}){cached}"),
                None => println!("VERDICT: inconclusive{cached}"),
            }
            ExitCode::SUCCESS
        }
        _ => {
            println!("VERDICT: NOT correct{cached}");
            ExitCode::FAILURE
        }
    })
}

//! `sbif-serve` — the verification job server CLI (DESIGN.md §15).
//!
//! ```text
//! sbif-serve <socket> [--cache-dir DIR] [--jobs N] [--metrics-out FILE]
//! sbif-serve submit <socket> <json-request-line>
//! sbif-serve stop <socket>
//! ```
//!
//! The first form runs the daemon: it binds the Unix socket, prints a
//! `listening on <socket>` line once it is ready, and serves
//! line-delimited JSON verification jobs (see `sbif::serve` for the
//! protocol) until a `shutdown` request arrives. All jobs share one
//! content-addressed result cache — in-memory by default, persisted
//! under `--cache-dir DIR` so later daemons and `sbif-verify
//! --cache-dir` runs reuse the verdicts. `--jobs N` sets the SBIF
//! worker count for jobs that don't choose their own; `--metrics-out
//! FILE` writes the daemon's final `serve.*`/`cache.*` counters as a
//! canonical `sbif-metrics-v1` report at shutdown.
//!
//! `submit` is a one-shot client: it sends a single request line and
//! prints every response line for it (including streamed `trace`
//! events) until the terminal `result`/`error`/`pong`/`stats` line.
//! `stop` asks a running daemon to shut down. Verify requests may
//! carry per-job governor budgets (`budget_conflicts`, `budget_terms`,
//! `budget_nodes`, `budget_sat`, `timeout_ms`; DESIGN.md §16) — a
//! budget-limited job answers `"verdict": "inconclusive"` with an
//! `exhausted_at` field naming the stage that ran out. `--max-active
//! N` bounds concurrent jobs; excess requests get a `rejected`
//! response with a `retry_after_ms` hint.
//!
//! Exit code 0 = success (daemon: clean shutdown; submit: `result` with
//! verdict `correct` or `inconclusive`, or `pong`/`stats`/`bye`), 1 =
//! job failed, rejected, or verdict not correct, 2 = usage/connection
//! error.

use sbif::flag_value;
use sbif::serve::{Server, ServeOptions};
use sbif::trace::json::{parse, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;

/// Prints why the command line was rejected, then the usage text.
fn usage(reason: &str) -> ExitCode {
    eprintln!(
        "{reason}\n\
         usage: sbif-serve <socket> [--cache-dir DIR] [--jobs N] [--max-active N]\n\
         \x20                [--metrics-out FILE]\n\
         \x20      sbif-serve submit <socket> <json-request-line>\n\
         \x20      sbif-serve stop <socket>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => usage("no socket given"),
        Some("submit") => match &args[1..] {
            [socket, request] => submit(socket, request),
            _ => usage("submit wants a socket and one request line"),
        },
        Some("stop") => match &args[1..] {
            [socket] => submit(socket, "{\"op\": \"shutdown\"}"),
            _ => usage("stop wants a socket"),
        },
        Some(_) => daemon(args).unwrap_or_else(|reason| usage(&reason)),
    }
}

/// Runs the daemon; `Err` is a usage error.
fn daemon(args: Vec<String>) -> Result<ExitCode, String> {
    let (mut socket, mut cache_dir, mut metrics_out) = (None, None, None);
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut max_active = ServeOptions::default().max_active;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let args = &mut args;
        let count = |args| flag_value(&flag, args, "a count", |s| s.parse::<usize>().ok());
        let path = |args| flag_value(&flag, args, "a path", |s| Some(s.to_string()));
        match flag.as_str() {
            "--cache-dir" => cache_dir = Some(PathBuf::from(path(args)?)),
            "--jobs" => jobs = count(args)?.max(1),
            "--max-active" => max_active = count(args)?,
            "--metrics-out" => metrics_out = Some(path(args)?),
            _ if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            _ => {
                if let Some(first) = socket.replace(PathBuf::from(&flag)) {
                    return Err(format!("a second socket {flag:?} after {first:?}"));
                }
            }
        }
    }
    let socket = socket.ok_or("no socket given")?;

    let server = match Server::bind(&ServeOptions {
        socket: socket.clone(),
        cache_dir,
        default_jobs: jobs,
        max_active,
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", socket.display());
            return Ok(ExitCode::from(2));
        }
    };
    println!(
        "sbif-serve: listening on {} ({} default jobs, {} cache)",
        socket.display(),
        jobs,
        if server.cache_is_persistent() { "persistent" } else { "in-memory" }
    );
    let report = server.run();
    println!("sbif-serve: shut down after {} job(s)", report.counter("serve.jobs"));
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return Ok(ExitCode::from(2));
        }
        println!("metrics report written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Sends one request line and relays every response for it; job-scoped
/// streams end at the `result`/`error` line, control ops after one line.
fn submit(socket: &str, request: &str) -> ExitCode {
    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot connect to {socket}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot clone socket: {e}");
            return ExitCode::from(2);
        }
    });
    let mut writer = stream;
    if writeln!(writer, "{request}").and_then(|()| writer.flush()).is_err() {
        eprintln!("cannot send request");
        return ExitCode::from(2);
    }
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {
                eprintln!("server closed the connection before a terminal response");
                return ExitCode::FAILURE;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                return ExitCode::from(2);
            }
        }
        print!("{line}");
        let Ok(v) = parse(&line) else { continue };
        let Some(obj) = v.as_object() else { continue };
        match obj.get("ev").and_then(Value::as_str) {
            Some("accepted") | Some("trace") => continue,
            Some("result") => {
                // A budget-limited job is a successful run whose answer
                // is "the budget was too small" — exit 0, like the
                // sbif-verify CLI.
                let ok = matches!(
                    obj.get("verdict").and_then(Value::as_str),
                    Some("correct") | Some("inconclusive")
                );
                return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
            }
            Some("error") | Some("job_failed") | Some("rejected") => {
                return ExitCode::FAILURE
            }
            _ => return ExitCode::SUCCESS,
        }
    }
}

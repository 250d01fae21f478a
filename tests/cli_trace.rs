//! End-to-end CLI coverage of the trace flags and the `sbif-trace`
//! tool, plus regression tests for the argument diagnostics (bad input
//! must exit 2 with a message, never panic).

use std::path::PathBuf;
use std::process::{Command, Output};

fn sbif_verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sbif-verify"))
        .args(args)
        .output()
        .expect("spawn sbif-verify")
}

fn sbif_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sbif-trace"))
        .args(args)
        .output()
        .expect("spawn sbif-trace")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sbif_cli_trace_{}_{name}", std::process::id()))
}

#[test]
fn bad_arguments_exit_2_with_diagnostics() {
    let cases: &[(&[&str], &str)] = &[
        (&["--trace", "xml", "--demo", "3"], "--trace wants"),
        (&["--trace"], "usage:"),
        (&["--jobs", "many", "--demo", "3"], "usage:"),
        (&["--demo", "1"], "at least 2 bits"),
        (&["/nonexistent/divider.bnet"], "cannot read"),
        (&["--metrics-out"], "usage:"),
        // One run verifies one divider: a second one is named, not dropped.
        (&["a.bnet", "b.bnet"], "a second netlist \"b.bnet\""),
        (&["--demo", "8", "a.bnet"], "--demo and the netlist \"a.bnet\""),
        (&["--demo", "3", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["--demo", "3", "--budget-terms", "x"], "--budget-terms wants"),
    ];
    for (args, needle) in cases {
        let out = sbif_verify(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: missing {needle:?} in {stderr}");
    }
}

#[test]
fn fuzz_and_serve_name_a_bad_flag_value() {
    let socket = tmp("never-bound.sock");
    let socket = socket.to_str().unwrap();
    let cases: [(&str, &[&str], &str); 2] = [
        (env!("CARGO_BIN_EXE_sbif-fuzz"), &["--arch", "bogus"], "--arch wants"),
        (env!("CARGO_BIN_EXE_sbif-serve"), &[socket, "--jobs", "x"], "--jobs wants"),
    ];
    for (bin, args, needle) in cases {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let bad = format!("{:?}", args[args.len() - 1]);
        assert!(stderr.contains(needle) && stderr.contains(&bad), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn trace_json_stream_and_metrics_are_checkable_and_deterministic() {
    let ndjson = tmp("events.ndjson");
    let metrics1 = tmp("metrics_j1.json");
    let metrics4 = tmp("metrics_j4.json");

    let out = sbif_verify(&[
        "--demo", "4", "--jobs", "1",
        "--trace", "json",
        "--trace-out", ndjson.to_str().unwrap(),
        "--metrics-out", metrics1.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // The stream passes the independent checker...
    let check = sbif_trace(&["check", ndjson.to_str().unwrap()]);
    assert_eq!(check.status.code(), Some(0), "{}", String::from_utf8_lossy(&check.stderr));
    let summary = String::from_utf8_lossy(&check.stdout);
    assert!(summary.contains("ok —"), "{summary}");

    // ...and the metrics report is canonical and jobs-independent.
    let out = sbif_verify(&[
        "--demo", "4", "--jobs", "4",
        "--metrics-out", metrics4.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let j1 = std::fs::read_to_string(&metrics1).expect("metrics written");
    let j4 = std::fs::read_to_string(&metrics4).expect("metrics written");
    assert!(j1.starts_with("{\n  \"schema\": \"sbif-metrics-v1\""), "{j1}");
    assert_eq!(j1, j4, "metrics must be byte-identical across --jobs");

    for p in [&ndjson, &metrics1, &metrics4] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn trace_check_rejects_a_broken_stream() {
    let path = tmp("broken.ndjson");
    std::fs::write(&path, "{\"ev\": \"span_open\", \"id\": 0, \"name\": \"x\"}\n").unwrap();
    let out = sbif_trace(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("never closed"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_det_prints_the_canonical_subtree() {
    let path = tmp("bench.json");
    std::fs::write(
        &path,
        "{\"schema\": \"sbif-bench-table2-v1\", \"det\": {\"b\": 2, \"a\": 1}, \"rows\": []}\n",
    )
    .unwrap();
    let out = sbif_trace(&["det", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "{\"a\": 1, \"b\": 2}\n");

    // Files without a det object are a contract violation, not a crash.
    std::fs::write(&path, "{\"rows\": []}\n").unwrap();
    let out = sbif_trace(&["det", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pretty_trace_renders_the_phase_tree() {
    let out = sbif_verify(&["--demo", "3", "--vc1-only", "--trace", "pretty"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("▶ verify"), "{stderr}");
    assert!(stderr.contains("◀ vc1"), "{stderr}");
    assert!(stderr.contains("sbif.proven"), "{stderr}");
}

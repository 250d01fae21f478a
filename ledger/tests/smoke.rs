//! The `--smoke` profile: the four workloads shrunk to test size, run
//! untraced and traced through the same code the benchmark runs.

use sbif_ledger::ledger::{run, Options};
use sbif_ledger::workloads::{run_rep, setup, workload, Profile, NAMES};
use sbif_trace::json::{parse, Value};
use std::collections::BTreeMap;

fn benchmark() -> BTreeMap<String, Value> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the ledger");
    parse(&text)
        .expect("BENCHMARK.json parses")
        .as_object()
        .expect("an object")
        .clone()
}

fn list<'a>(bench: &'a BTreeMap<String, Value>, key: &str) -> &'a [Value] {
    match &bench[key] {
        Value::Array(items) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    &v.as_object().expect("an object")[key]
}

#[test]
fn every_benchmark_metric_is_reported_with_its_unit() {
    let bench = benchmark();
    let names: Vec<&str> = list(&bench, "workloads")
        .iter()
        .map(|w| field(w, "name").as_str().unwrap())
        .collect();
    assert_eq!(names, NAMES);
    for name in NAMES {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let w = workload(name, Profile::Smoke).expect("known workload");
            let ledger = run(&Options {
                workload: w,
                seed: 1,
                seconds: 0.0,
                trace,
            });
            assert!(
                ledger.correct(),
                "{name}: {:?} {:?}",
                ledger.failures,
                ledger.problems
            );
            let line = parse(&ledger.result_line()).expect("the result line parses");
            let metrics = field(&line, "metrics").as_object().expect("metrics object");
            let text = ledger.render();
            let expected = list(&bench, key);
            assert_eq!(
                metrics.len(),
                expected.len(),
                "{name} {key}: exactly the listed metrics"
            );
            for m in expected {
                let (metric, unit) = (field(m, "name").as_str().unwrap(), field(m, "unit"));
                let got = metrics
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name}: no {metric}"));
                assert_eq!(field(got, "unit"), unit, "{name}: unit of {metric}");
                assert!(
                    text.contains(&format!(" {metric} ")),
                    "{name}: {metric} not printed"
                );
            }
        }
    }
}

#[test]
fn deterministic_counters_match_at_jobs_1_and_jobs_2() {
    let w = workload("nr40-vc1", Profile::Smoke).unwrap();
    let (input, _) = setup(&w, 3);
    let one = run_rep(&w, &input, 1, false);
    let two = run_rep(&w, &input, 2, true);
    assert!(one.failures.is_empty() && two.failures.is_empty());
    assert!(one.det().counter("nr8.sbif.proven") > 0);
    assert_eq!(one.det().to_json(), two.det().to_json());
}

#[test]
fn span_self_times_sum_to_the_verify_total_on_a_real_run() {
    let w = workload("nr24-full", Profile::Smoke).unwrap();
    let (input, _) = setup(&w, 0);
    let rep = run_rep(&w, &input, 1, true);
    let spans = &rep.layers.spans;
    for path in [
        "verify",
        "verify;vc1;smoke",
        "verify;vc1;sbif",
        "verify;vc1;rewrite",
        "verify;vc2",
    ] {
        assert!(spans.paths.contains_key(path), "missing span {path}");
    }
    assert!(
        spans.paths.keys().all(|p| p.starts_with("verify")),
        "verify is the only root"
    );
    let verify_us = spans.paths["verify"].total_us;
    assert_eq!(spans.self_sum_us(), verify_us);
    assert!(verify_us as f64 <= rep.wall_s * 1e6 + 1.0);
}

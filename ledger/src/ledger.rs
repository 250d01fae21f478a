//! One ledger run: set-up, timed repetitions, and the metrics they give.
//!
//! An untraced run reports the end-to-end metrics. A traced run repeats
//! the workload with a [`crate::spans::SpanFolder`] attached and reports
//! the per-layer metrics: phase times from the verifier's spans, work
//! counters from `VerificationReport` and `SbifStats`, and solver
//! counters from `CecOutcome`.

use crate::spans::SpanTree;
use crate::workloads::{run_rep, setup, Input, Rep, SetupTimes, Workload};
use sbif_sat::SolverStats;
use sbif_trace::json::{parse, Value};
use sbif_trace::{MetricsFrame, MetricsReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Before each repetition a run sets its workload up again, repeatedly,
/// for this many seconds (at most `--seconds`, at least once); the
/// repetition runs on the last input. `setup_s` is the median over every
/// set-up of the run: the host's speed drifts over seconds, so set-ups
/// sampled across the whole run vary less from run to run than a block
/// of them at its start.
pub const SETUP_BATCH_SECONDS: f64 = 0.2;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 3] =
    [("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, measured by the traced run.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("netlist.build_s", "s"),
    ("netlist.read_s", "s"),
    ("netlist.signals", "count"),
    ("smoke.s", "s"),
    ("analysis.s", "s"),
    ("analysis.prefilter_proven", "count"),
    ("analysis.prefilter_saved_permille", "permille"),
    ("sbif.s", "s"),
    ("sbif.sat_busy_s", "s"),
    ("sbif.sat_share_permille", "permille"),
    ("sbif.sat_checks", "count"),
    ("sbif.windows_solved", "count"),
    ("sbif.proven", "count"),
    ("sbif.yield_permille", "permille"),
    ("sbif.spec_hit_permille", "permille"),
    ("sbif.solver_inits", "count"),
    ("sbif.refinements", "count"),
    ("sbif.checks_per_s", "1/s"),
    ("sbif.jobs_speedup", "ratio"),
    ("sat.sbif.propagations", "count"),
    ("sat.sbif.conflicts", "count"),
    ("sat.sbif.props_per_s", "1/s"),
    ("sat.miter.s", "s"),
    ("sat.miter.conflicts", "count"),
    ("sat.miter.propagations", "count"),
    ("sat.miter.decisions", "count"),
    ("sat.miter.props_per_s", "1/s"),
    ("sat.miter.conflicts_per_s", "1/s"),
    ("rewrite.s", "s"),
    ("rewrite.steps", "count"),
    ("rewrite.total_terms", "count"),
    ("rewrite.terms_per_s", "1/s"),
    ("rewrite.peak_terms", "count"),
    ("residual.s", "s"),
    ("vc2.s", "s"),
    ("vc2.composed", "count"),
    ("vc2.composed_per_s", "1/s"),
    ("vc2.reorders", "count"),
    ("vc2.peak_live_nodes", "count"),
    ("vc2.final_nodes", "count"),
    ("vc2.cache_entries", "count"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_permille", "permille"),
];

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed (0: the canonical netlists).
    pub seed: u64,
    /// Measurement budget: no repetition starts that would end past it,
    /// but the first always runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Measured repetitions (traced repetitions in a traced run).
    pub reps: usize,
    /// Verify / `sat_cec` calls made.
    pub attempted: u64,
    /// Why calls failed, one entry per failed call.
    pub failures: Vec<String>,
    /// Broken determinism checks (counters that differ between
    /// repetitions of the same input, or between jobs 1 and jobs 2).
    pub problems: Vec<String>,
    /// Wall seconds of each measured repetition, in order.
    pub walls: Vec<f64>,
    /// Metrics in catalogue order: `(name, unit, value)`.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The deterministic counters of the input.
    pub det: MetricsReport,
    /// Span times summed over the traced repetitions.
    pub spans: SpanTree,
    /// Traced runs: the span self times as a share of the traced
    /// repetitions' wall time (1.0 when the spans cover every call).
    pub span_cover: Option<f64>,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The sum of `values`, 0.0 when there are none (`Iterator::sum` gives
/// -0.0 there).
fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

fn rate(amount: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        amount / seconds
    } else {
        0.0
    }
}

/// Peak resident set size (`VmHWM`) of this process in KiB.
fn vm_hwm_kib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU seconds of this process (`/proc/self/stat`, in
/// the kernel's 100 Hz `USER_HZ` ticks).
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |i: usize| rest.get(i)?.parse::<u64>().ok();
    Some((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Sets the workload up for [`SETUP_BATCH_SECONDS`] (at most
/// `o.seconds`), at least once, adds each set-up's times to `times`, and
/// returns the last input.
fn setup_batch(o: &Options, times: &mut Vec<SetupTimes>) -> Input {
    let budget = SETUP_BATCH_SECONDS.min(o.seconds);
    let start = Instant::now();
    loop {
        let (input, t) = setup(&o.workload, o.seed);
        times.push(t);
        if start.elapsed().as_secs_f64() >= budget {
            return input;
        }
    }
}

/// The median of each set-up time.
fn setup_median(times: &[SetupTimes]) -> SetupTimes {
    let m = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    SetupTimes {
        build_s: m(|t| t.build_s),
        read_s: m(|t| t.read_s),
        total_s: m(|t| t.total_s),
    }
}

/// Repeats `step`, which returns its item and its measured wall
/// seconds, until another step as slow as the slowest so far would end
/// past `seconds`; the first step always runs.
fn time_boxed<T>(seconds: f64, mut step: impl FnMut() -> (T, f64)) -> Vec<T> {
    let mut out = Vec::new();
    let (mut spent, mut slowest) = (0.0f64, 0.0f64);
    loop {
        let (item, wall) = step();
        out.push(item);
        spent += wall;
        slowest = slowest.max(wall);
        if spent + slowest > seconds {
            return out;
        }
    }
}

/// Runs the workload as `o` asks.
pub fn run(o: &Options) -> Ledger {
    let w = &o.workload;
    let mut ledger = Ledger {
        workload: w.name,
        seed: o.seed,
        trace: o.trace,
        reps: 0,
        attempted: 0,
        failures: Vec::new(),
        problems: Vec::new(),
        walls: Vec::new(),
        metrics: Vec::new(),
        det: MetricsReport::default(),
        spans: SpanTree::default(),
        span_cover: None,
    };
    if o.trace {
        traced(o, &mut ledger);
    } else {
        let mut setups = Vec::new();
        let reps = time_boxed(o.seconds, || {
            let input = setup_batch(o, &mut setups);
            let r = run_rep(w, &input, w.jobs, false);
            let wall = r.wall_s;
            (r, wall)
        });
        ledger.account(&reps);
        let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        let values = [
            median(&walls),
            setup_median(&setups).total_s,
            vm_hwm_kib().unwrap_or(0.0) / 1024.0,
        ];
        ledger.reps = reps.len();
        ledger.walls = walls;
        ledger.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
    }
    ledger
}

/// The traced run: pairs of an untraced and a traced repetition on the
/// same input, plus one traced jobs-1 repetition when the workload runs
/// more than one job.
fn traced(o: &Options, ledger: &mut Ledger) {
    let w = &o.workload;
    let mut cpu_s = 0.0;
    let mut traced_rep = |input: &Input| {
        let cpu0 = cpu_seconds().unwrap_or(0.0);
        let rep = run_rep(w, input, w.jobs, true);
        cpu_s += cpu_seconds().unwrap_or(0.0) - cpu0;
        rep
    };
    let mut setups = Vec::new();
    let mut last_input = None;
    // The pair order alternates, traced first, so that the cold first
    // repetition does not bias the overhead down.
    let mut first_traced = false;
    let pairs = time_boxed(o.seconds, || {
        let input = setup_batch(o, &mut setups);
        first_traced = !first_traced;
        let (plain, traced) = if first_traced {
            let t = traced_rep(&input);
            (run_rep(w, &input, w.jobs, false), t)
        } else {
            (run_rep(w, &input, w.jobs, false), traced_rep(&input))
        };
        last_input = Some(input);
        let wall = plain.wall_s + traced.wall_s;
        ((plain, traced), wall)
    });
    let input = last_input.expect("time_boxed runs its step at least once");
    let setup_t = setup_median(&setups);
    let (plain, traced): (Vec<Rep>, Vec<Rep>) = pairs.into_iter().unzip();
    let single = (w.jobs > 1).then(|| run_rep(w, &input, 1, true));
    let mut all: Vec<Rep> = plain.iter().chain(&traced).cloned().collect();
    all.extend(single.clone());
    ledger.account(&all);
    ledger.reps = traced.len();
    ledger.walls = traced.iter().map(|r| r.wall_s).collect();

    let n = traced.len() as f64;
    let mut spans = SpanTree::default();
    for r in &traced {
        spans.merge(&r.layers.spans);
    }
    let span_s = |name: &str| spans.total_us(name) as f64 / 1e6 / n;
    let mean = |reps: &[Rep]| sum(reps.iter().map(|r| r.wall_s)) / reps.len() as f64;
    let (plain_s, traced_s) = (mean(&plain), mean(&traced));
    let sat_micros = traced
        .iter()
        .flat_map(|r| &r.layers.reports)
        .map(|(_, v)| v.vc1.sbif.sat_micros as f64);
    let sat_busy_s = sum(sat_micros) / 1e6 / n;
    let sbif_s = span_s("sbif");
    let jobs_speedup = match &single {
        Some(r) => rate(r.layers.spans.total_us("sbif") as f64 / 1e6, sbif_s),
        None => 1.0,
    };
    // The verify calls' deterministic payloads, merged over the dividers:
    // counters add up, gauges (peaks) take the maximum.
    let mut payload = MetricsFrame::default();
    let last = traced.last().map(|r| r.layers.clone()).unwrap_or_default();
    for (_, r) in &last.reports {
        r.metrics
            .counters
            .iter()
            .for_each(|(k, v)| payload.add(k, *v));
        r.metrics
            .gauges
            .iter()
            .for_each(|(k, v)| payload.gauge_max(k, *v));
    }
    let count = |name: &str| payload.counter(name) as f64;
    let peak = |name: &str| payload.gauge(name).unwrap_or(0) as f64;
    let (sat_checks, windows_solved) = (count("sbif.sat_checks"), count("sbif.windows_solved"));
    let sbif_props = count("sbif.sat.propagations");
    let total_terms = count("rewrite.total_terms");
    // A miter repetition is nothing but its `sat_cec` calls.
    let mut miter = SolverStats::default();
    for (_, stats) in &last.miters {
        miter.absorb(*stats);
    }
    let miter_s = if last.miters.is_empty() {
        0.0
    } else {
        traced_s
    };
    let permille = |part: f64, whole: f64| rate(part * 1000.0, whole);
    let values: BTreeMap<&str, f64> = [
        ("netlist.build_s", setup_t.build_s),
        ("netlist.read_s", setup_t.read_s),
        ("netlist.signals", input.signals() as f64),
        ("smoke.s", span_s("smoke")),
        ("analysis.s", span_s("analysis")),
        (
            "analysis.prefilter_proven",
            count("analysis.prefilter_proven"),
        ),
        (
            "analysis.prefilter_saved_permille",
            permille(sat_checks - windows_solved, sat_checks),
        ),
        ("sbif.s", sbif_s),
        ("sbif.sat_busy_s", sat_busy_s),
        (
            "sbif.sat_share_permille",
            permille(sat_busy_s, sbif_s * w.jobs as f64),
        ),
        ("sbif.sat_checks", sat_checks),
        ("sbif.windows_solved", windows_solved),
        ("sbif.proven", count("sbif.proven")),
        (
            "sbif.yield_permille",
            permille(count("sbif.proven"), windows_solved),
        ),
        (
            "sbif.spec_hit_permille",
            permille(
                count("sbif.level.spec_hits"),
                count("sbif.level.spec_attempts"),
            ),
        ),
        ("sbif.solver_inits", count("sbif.batch.solver_inits")),
        ("sbif.refinements", count("sbif.refinements")),
        ("sbif.checks_per_s", rate(sat_checks, sbif_s)),
        ("sbif.jobs_speedup", jobs_speedup),
        ("sat.sbif.propagations", sbif_props),
        ("sat.sbif.conflicts", count("sbif.sat.conflicts")),
        ("sat.sbif.props_per_s", rate(sbif_props, sat_busy_s)),
        ("sat.miter.s", miter_s),
        ("sat.miter.conflicts", miter.conflicts as f64),
        ("sat.miter.propagations", miter.propagations as f64),
        ("sat.miter.decisions", miter.decisions as f64),
        (
            "sat.miter.props_per_s",
            rate(miter.propagations as f64, miter_s),
        ),
        (
            "sat.miter.conflicts_per_s",
            rate(miter.conflicts as f64, miter_s),
        ),
        ("rewrite.s", span_s("rewrite")),
        ("rewrite.steps", count("rewrite.steps")),
        ("rewrite.total_terms", total_terms),
        ("rewrite.terms_per_s", rate(total_terms, span_s("rewrite"))),
        ("rewrite.peak_terms", peak("rewrite.peak_terms")),
        ("residual.s", span_s("residual")),
        ("vc2.s", span_s("vc2")),
        ("vc2.composed", count("vc2.composed")),
        (
            "vc2.composed_per_s",
            rate(count("vc2.composed"), span_s("vc2")),
        ),
        ("vc2.reorders", count("vc2.reorders")),
        ("vc2.peak_live_nodes", peak("vc2.peak_live_nodes")),
        ("vc2.final_nodes", peak("vc2.final_nodes")),
        ("vc2.cache_entries", peak("vc2.cache_entries")),
        ("proc.cpu_s", cpu_s / n),
        (
            "trace.overhead_permille",
            permille(traced_s - plain_s, plain_s),
        ),
    ]
    .into_iter()
    .collect();
    ledger.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values[name]))
        .collect();
    if !spans.paths.is_empty() {
        ledger.span_cover = Some(spans.self_sum_us() as f64 / 1e6 / n / traced_s);
    }
    ledger.spans = spans;
}

impl Ledger {
    /// Folds the repetitions' call counts, failures and deterministic
    /// counters into the ledger. Every repetition runs an identical
    /// input, built from the same seed, so every one must report the same
    /// counters, at any `jobs`.
    fn account(&mut self, reps: &[Rep]) {
        for (i, r) in reps.iter().enumerate() {
            self.attempted += r.attempted;
            self.failures.extend(r.failures.iter().cloned());
            let det = r.det();
            if i == 0 {
                self.det = det;
            } else if r.failures.is_empty() && det != self.det {
                self.problems.push(format!(
                    "repetition {i} reports other counters than repetition 0"
                ));
            }
        }
    }

    /// All calls gave the expected verdict and the counters repeated.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.problems.is_empty()
    }

    fn metrics_value(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|&(name, unit, value)| {
                    let m = [
                        ("value".to_string(), Value::Float(value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ];
                    (name.to_string(), Value::Object(m.into_iter().collect()))
                })
                .collect(),
        )
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let top = [
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failures.len() as i64)),
            ("metrics", self.metrics_value()),
        ];
        Value::Object(top.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_canonical()
    }

    /// The canonical JSON document `--out` writes: the result plus the
    /// deterministic counters, span times and folded stacks.
    pub fn document(&self) -> String {
        let spans = self
            .spans
            .paths
            .iter()
            .map(|(path, t)| {
                let fields = [
                    ("total_us", t.total_us as i64),
                    ("self_us", t.self_us as i64),
                    ("count", t.count as i64),
                ];
                let fields = fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::Int(v)));
                (path.clone(), Value::Object(fields.collect()))
            })
            .collect();
        let folded = self.folded().into_iter().map(Value::Str).collect();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let strs = |v: &[String]| Value::Array(v.iter().cloned().map(Value::Str).collect());
        let top = [
            ("schema", Value::Str("sbif-ledger-v1".to_string())),
            ("workload", Value::Str(self.workload.to_string())),
            ("seed", Value::Int(self.seed as i64)),
            ("trace", Value::Bool(self.trace)),
            ("reps", Value::Int(self.reps as i64)),
            ("nproc", Value::Int(nproc as i64)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failures", strs(&self.failures)),
            ("problems", strs(&self.problems)),
            ("metrics", self.metrics_value()),
            (
                "walls",
                Value::Array(self.walls.iter().map(|&w| Value::Float(w)).collect()),
            ),
            (
                "det",
                parse(&self.det.to_inline_json()).expect("a metrics report is valid JSON"),
            ),
            (
                "span_cover",
                self.span_cover.map_or(Value::Null, Value::Float),
            ),
            ("spans", Value::Object(spans)),
            ("folded", Value::Array(folded)),
        ];
        let mut s = Value::Object(top.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            .to_canonical();
        s.push('\n');
        s
    }

    /// Folded-stack lines, self times per traced repetition.
    pub fn folded(&self) -> Vec<String> {
        self.spans.folded(self.workload, self.reps as u32)
    }

    /// The human-readable report: every metric by name and unit, then
    /// (traced runs) the span table and the folded stacks.
    pub fn render(&self) -> String {
        let mut out = format!(
            "ledger {} seed {} {} reps {} attempted {} failed {}\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.reps,
            self.attempted,
            self.failures.len()
        );
        for why in self.failures.iter().chain(&self.problems) {
            out.push_str(&format!("  FAIL {why}\n"));
        }
        for (name, unit, value) in &self.metrics {
            out.push_str(&format!("  {name:<36} {value:>16.6} {unit}\n"));
        }
        if let Some(cover) = self.span_cover {
            let reps = self.reps.max(1) as f64;
            out.push_str(&format!(
                "  span self times cover {:.1} % of the traced wall time\n",
                cover * 100.0
            ));
            out.push_str(
                "  span path (per traced rep)                        total ms      self ms\n",
            );
            for (path, t) in &self.spans.paths {
                out.push_str(&format!(
                    "  {path:<48} {:>12.3} {:>12.3}\n",
                    t.total_us as f64 / 1e3 / reps,
                    t.self_us as f64 / 1e3 / reps
                ));
            }
            for line in self.folded() {
                out.push_str(&format!("  folded {line}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn time_box_runs_at_least_once_and_stops_before_the_budget() {
        let mut calls = 0;
        let out = time_boxed(0.0, || {
            calls += 1;
            ((), 1.0)
        });
        assert_eq!((out.len(), calls), (1, 1));
        let out = time_boxed(60.0, || ((), 25.0));
        assert_eq!(out.len(), 2, "a third 25 s step would end past 60 s");
    }

    #[test]
    fn proc_readings_are_available() {
        assert!(vm_hwm_kib().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}

//! Shared harness for the reproduction binaries — one per table/figure
//! of the paper (see DESIGN.md §4 for the experiment index).
//!
//! The binaries print the same rows/series the paper reports:
//!
//! * `table1` — peak polynomial sizes of plain backward rewriting,
//! * `fig3`  — polynomial size per substitution step (8-bit divider),
//! * `fig4`  — peak sizes with vs. without SBIF over the bit width,
//! * `table2` — the full comparison (SAT, sweeping CEC, read, SBIF,
//!   rewrite, vc2).
//!
//! Every row runs the one flow of [`DividerVerifier`], set by its
//! [`VerifierConfig`] (SBIF on or off, vc2 on or off, the rewriting
//! trace), and reads the [`VerificationReport`].
//!
//! Absolute times differ from the paper's hardware; the shapes are the
//! reproduction target.

pub mod harness;

use sbif_cec::{sat_cec, sweep_cec, CecResult};
use sbif_core::rewrite::RewriteConfig;
use sbif_core::verify::{
    DividerVerifier, VerificationReport, Vc1Outcome, Vc1Report, VerifierConfig,
};
use sbif_govern::{GovernConfig, Resource, Watchdog};
use sbif_netlist::build::{divider_miter, nonrestoring_divider, restoring_divider, Divider};
use sbif_netlist::io::{read_bnet, write_bnet};
use sbif_sat::Budget;
use sbif_trace::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Outcome of a resource-limited measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum Measured {
    /// Completed in the given wall-clock time.
    Time(Duration),
    /// Exceeded the budget — printed as "TO".
    Timeout,
    /// Exceeded the memory-model term limit — printed as "MEMOUT".
    Memout,
}

impl std::fmt::Display for Measured {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Measured::Time(d) => write!(f, "{:.2}", d.as_secs_f64()),
            Measured::Timeout => write!(f, "TO"),
            Measured::Memout => write!(f, "MEMOUT"),
        }
    }
}

/// The default flow with backward rewriting capped at `term_limit`
/// terms by the governor's `rewrite_terms` budget: a blow-up ends in
/// [`Vc1Outcome::Exhausted`] (a MEMOUT row) instead of an error, and the
/// report keeps its SBIF columns.
fn capped(term_limit: usize) -> VerifierConfig {
    VerifierConfig {
        rewrite: RewriteConfig { max_terms: None, ..RewriteConfig::default() },
        govern: GovernConfig { rewrite_terms: Some(term_limit), ..GovernConfig::default() },
        ..VerifierConfig::default()
    }
}

/// Runs the verifier on a generated divider, which it must not reject.
fn verify(div: &Divider, config: VerifierConfig) -> VerificationReport {
    let report = DividerVerifier::new(div).with_config(config).verify();
    report.unwrap_or_else(|e| panic!("n={}: unexpected error: {e}", div.n))
}

/// The rewriting peak of a proven vc1, or `None` on MEMOUT.
fn peak(vc1: &Vc1Report) -> Option<usize> {
    match &vc1.outcome {
        Vc1Outcome::Proven => Some(vc1.rewrite.peak_terms),
        Vc1Outcome::Exhausted(e) if e.resource == Resource::RewriteTerms => None,
        other => panic!("vc1 must hold for the generated divider: {other:?}"),
    }
}

/// One row of Table I: the peak size of plain (no-SBIF) backward
/// rewriting, or `None` on MEMOUT at the given term limit.
pub fn table1_peak(n: usize, term_limit: usize) -> Option<usize> {
    fig4_peak(n, false, term_limit)
}

/// The Fig. 3 series: polynomial size after every substitution of a
/// plain backward-rewriting run.
pub fn fig3_series(n: usize, term_limit: usize) -> Vec<usize> {
    let mut config = VerifierConfig { use_sbif: false, check_vc2: false, ..capped(term_limit) };
    config.rewrite.record_trace = true;
    let vc1 = verify(&nonrestoring_divider(n), config).vc1;
    assert!(peak(&vc1).is_some(), "raise the term limit for fig3");
    vc1.rewrite.trace
}

/// One point of Fig. 4: peak polynomial size with or without SBIF.
/// Returns `None` on MEMOUT.
pub fn fig4_peak(n: usize, use_sbif: bool, term_limit: usize) -> Option<usize> {
    let config = VerifierConfig { use_sbif, check_vc2: false, ..capped(term_limit) };
    peak(&verify(&nonrestoring_divider(n), config).vc1)
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Divisor width.
    pub n: usize,
    /// Plain SAT on the constrained miter against the golden restoring
    /// divider (col. 2).
    pub sat: Measured,
    /// SAT-sweeping CEC on the same miter (col. 3, the ABC stand-in).
    pub cec: Measured,
    /// Parsing the BNET netlist (col. 4).
    pub read: Duration,
    /// Equivalences/antivalences proven by Alg. 1 (col. 5).
    pub sbif_equiv: usize,
    /// Window-SAT checks Alg. 1 performed (deterministic).
    pub sbif_checks: usize,
    /// The verifier's SBIF time (col. 6): the smoke check, the static
    /// analysis and Alg. 1.
    pub sbif: Duration,
    /// Time of the modified backward rewriting (col. 7); `Memout` cannot
    /// occur with SBIF at these sizes.
    pub rewrite: Measured,
    /// Peak term count of the SBIF rewrite (deterministic; 0 on MEMOUT).
    pub rewrite_peak: usize,
    /// Peak BDD nodes of the vc2 proof (col. 8).
    pub vc2_nodes: usize,
    /// Time of the vc2 proof (col. 9).
    pub vc2: Duration,
}

/// Configuration for a Table II run.
#[derive(Debug, Clone, Copy)]
pub struct Table2Config {
    /// Wall-clock budget per baseline (SAT and CEC each), enforced by a
    /// watchdog that raises the baseline's interrupt flag.
    pub baseline_timeout: Duration,
    /// Skip the two baselines entirely (for very large widths where they
    /// are known to time out — the paper's TO entries).
    pub skip_baselines: bool,
    /// Term limit for the SBIF rewrite (MEMOUT safeguard), enforced by
    /// the governor's `rewrite_terms` budget.
    pub term_limit: usize,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            baseline_timeout: Duration::from_secs(60),
            skip_baselines: false,
            term_limit: 20_000_000,
        }
    }
}

/// Produces one row of Table II for an `n`-bit divider.
pub fn table2_row(n: usize, cfg: Table2Config) -> Table2Row {
    let div = nonrestoring_divider(n);

    // Columns 2–3: baselines on the miter vs. the golden restoring
    // divider, restricted to the allowed input range.
    let (sat, cec) = if cfg.skip_baselines {
        (Measured::Timeout, Measured::Timeout)
    } else {
        let gold = restoring_divider(n);
        let miter = divider_miter(&div.netlist, &gold.netlist, n);
        let (_sat_watchdog, token) = Watchdog::arm(cfg.baseline_timeout);
        let t = Instant::now();
        let outcome = sat_cec(&miter, "miter", Budget::new().with_interrupt(token.flag()));
        let sat = match outcome.result {
            CecResult::Equivalent => Measured::Time(t.elapsed()),
            CecResult::Unknown => Measured::Timeout,
            CecResult::NotEquivalent(_) => panic!("generated dividers must be equivalent"),
        };
        let (_cec_watchdog, token) = Watchdog::arm(cfg.baseline_timeout);
        let t = Instant::now();
        let outcome = sweep_cec(&miter, "miter", None, Budget::new().with_interrupt(token.flag()));
        let cec = match outcome.result {
            CecResult::Equivalent => Measured::Time(t.elapsed()),
            CecResult::Unknown => Measured::Timeout,
            CecResult::NotEquivalent(_) => panic!("generated dividers must be equivalent"),
        };
        (sat, cec)
    };

    // Column 4: reading the design.
    let text = write_bnet(&div.netlist);
    let t = Instant::now();
    let parsed = read_bnet(&text).expect("generated netlist parses");
    let read = t.elapsed();
    assert_eq!(parsed.num_signals(), div.netlist.num_signals());

    // Columns 5–9: the verifier's flow.
    let report = verify(&div, capped(cfg.term_limit));
    let vc1 = &report.vc1;
    let (rewrite, rewrite_peak) = match peak(vc1) {
        Some(peak) => (Measured::Time(vc1.rewrite_time), peak),
        None => (Measured::Memout, 0),
    };
    let vc2 = report.vc2.as_ref().expect("vc2 runs after a proven or MEMOUT vc1");
    assert!(vc2.holds, "vc2 must hold for the generated divider");

    Table2Row {
        n,
        sat,
        cec,
        read,
        sbif_equiv: vc1.sbif.proven,
        sbif_checks: vc1.sbif.sat_checks,
        sbif: vc1.sbif_time,
        rewrite,
        rewrite_peak,
        vc2_nodes: vc2.peak_nodes,
        vc2: report.vc2_time,
    }
}

/// Assembles a `BENCH_*.json` document: a `"det"` object holding only
/// machine-independent counters (what `scripts/bench_check.sh` diffs
/// against the checked-in baselines, via `sbif-trace det`) next to
/// arbitrary extra top-level entries such as wall-clock rows.
pub fn bench_json(
    schema: &str,
    det: BTreeMap<String, Value>,
    extra: impl IntoIterator<Item = (String, Value)>,
) -> String {
    let mut top = BTreeMap::new();
    top.insert("schema".to_string(), Value::Str(schema.to_string()));
    top.insert("det".to_string(), Value::Object(det));
    top.extend(extra);
    let mut s = Value::Object(top).to_canonical();
    s.push('\n');
    s
}

/// The machine-readable Table II artifact (`BENCH_table2.json`).
///
/// The `"det"` object carries the deterministic columns keyed
/// `n<width>.<metric>` — identical on every machine and for every
/// `--jobs` value — while the `"rows"` array repeats each row with its
/// wall-clock measurements (excluded from baseline comparison).
pub fn table2_json(rows: &[Table2Row]) -> String {
    let mut det = BTreeMap::new();
    let mut arr = Vec::new();
    for r in rows {
        let key = |metric: &str| format!("n{}.{metric}", r.n);
        det.insert(key("sbif_equiv"), Value::Int(r.sbif_equiv as i64));
        det.insert(key("sbif_checks"), Value::Int(r.sbif_checks as i64));
        det.insert(key("rewrite_peak"), Value::Int(r.rewrite_peak as i64));
        det.insert(key("vc2_nodes"), Value::Int(r.vc2_nodes as i64));
        let mut row = BTreeMap::new();
        row.insert("n".to_string(), Value::Int(r.n as i64));
        row.insert("sat".to_string(), Value::Str(r.sat.to_string()));
        row.insert("cec".to_string(), Value::Str(r.cec.to_string()));
        row.insert("read_s".to_string(), Value::Float(r.read.as_secs_f64()));
        row.insert("sbif_equiv".to_string(), Value::Int(r.sbif_equiv as i64));
        row.insert("sbif_s".to_string(), Value::Float(r.sbif.as_secs_f64()));
        row.insert("rewrite".to_string(), Value::Str(r.rewrite.to_string()));
        row.insert("rewrite_peak".to_string(), Value::Int(r.rewrite_peak as i64));
        row.insert("vc2_nodes".to_string(), Value::Int(r.vc2_nodes as i64));
        row.insert("vc2_s".to_string(), Value::Float(r.vc2.as_secs_f64()));
        arr.push(Value::Object(row));
    }
    bench_json(
        "sbif-bench-table2-v1",
        det,
        [("rows".to_string(), Value::Array(arr))],
    )
}

/// Renders rows as an aligned text table (same columns as the paper's
/// Table II).
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "  n |     SAT |     ABC* |   read | #equiv |   SBIF | rewrite | vc2 nodes |    vc2\n",
    );
    out.push_str(
        "----+---------+----------+--------+--------+--------+---------+-----------+-------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>3} | {:>7} | {:>8} | {:>6.2} | {:>6} | {:>6.2} | {:>7} | {:>9} | {:>6.2}\n",
            r.n,
            r.sat.to_string(),
            r.cec.to_string(),
            r.read.as_secs_f64(),
            r.sbif_equiv,
            r.sbif.as_secs_f64(),
            r.rewrite.to_string(),
            r.vc2_nodes,
            r.vc2.as_secs_f64(),
        ));
    }
    out.push_str("(*ABC stand-in: fraig-style SAT sweeping; times in seconds)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The exact values below are those the hand-composed flows of rev
    // cd4c6bc measured; running the verifier must not move them.

    #[test]
    fn table1_small_widths() {
        assert_eq!(table1_peak(2, 100_000), Some(21));
        assert_eq!(table1_peak(4, 100_000), Some(4313));
        // A tiny limit must produce MEMOUT.
        assert_eq!(table1_peak(6, 100), None);
    }

    #[test]
    fn fig4_sbif_beats_plain() {
        assert_eq!(fig4_peak(5, false, 1_000_000), Some(35_156));
        assert_eq!(fig4_peak(5, true, 1_000_000), Some(40));
        // MEMOUT without SBIF, not with it.
        assert_eq!(fig4_peak(5, false, 1_000), None);
        assert_eq!(fig4_peak(5, true, 1_000), Some(40));
    }

    #[test]
    fn fig3_series_ends_at_zero() {
        let series = fig3_series(4, 1_000_000);
        assert_eq!(series.len(), 94);
        assert_eq!(series.iter().sum::<usize>(), 22_798);
        assert_eq!(series.iter().copied().max(), table1_peak(4, 1_000_000));
        assert_eq!(*series.last().expect("nonempty"), 0);
    }

    #[test]
    fn table2_row_smoke() {
        let row = table2_row(
            3,
            Table2Config {
                baseline_timeout: Duration::from_secs(30),
                ..Default::default()
            },
        );
        assert!(matches!(row.sat, Measured::Time(_)));
        assert!(matches!(row.cec, Measured::Time(_)));
        assert!(matches!(row.rewrite, Measured::Time(_)));
        assert!(row.sbif_equiv > 0);
        assert!(row.sbif_checks >= row.sbif_equiv);
        assert!(row.rewrite_peak > 0);
        assert!(row.vc2_nodes > 0);
        let rendered = render_table2(std::slice::from_ref(&row));
        assert!(rendered.contains("vc2"));

        // The JSON artifact parses, and its det subtree carries exactly
        // the machine-independent columns.
        let json = table2_json(std::slice::from_ref(&row));
        let v = sbif_trace::json::parse(&json).expect("artifact parses");
        let det = v.as_object().unwrap()["det"].as_object().unwrap();
        assert_eq!(det["n3.sbif_equiv"].as_u64(), Some(row.sbif_equiv as u64));
        assert_eq!(det["n3.vc2_nodes"].as_u64(), Some(row.vc2_nodes as u64));
        assert_eq!(det.len(), 4);
        // Wall times stay out of det.
        assert!(!det.keys().any(|k| k.contains("_s")));
    }

    #[test]
    fn table2_baselines_time_out_through_the_watchdog() {
        // Neither baseline proves the n = 6 miter in 1 ms: each one's
        // watchdog raises its interrupt flag, and the row reads TO.
        let row = table2_row(
            6,
            Table2Config { baseline_timeout: Duration::from_millis(1), ..Default::default() },
        );
        assert_eq!(row.sat, Measured::Timeout);
        assert_eq!(row.cec, Measured::Timeout);
    }
}

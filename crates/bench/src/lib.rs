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
//! Absolute times differ from the paper's hardware; the shapes are the
//! reproduction target.

pub mod harness;

use sbif_cec::{sat_cec, sweep_cec, CecResult};
use sbif_core::rewrite::{BackwardRewriter, RewriteConfig};
use sbif_core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifHooks};
use sbif_core::spec::divider_spec;
use sbif_core::vc2::check_vc2;
use sbif_core::VerifyError;
use sbif_govern::Watchdog;
use sbif_netlist::build::{divider_miter, nonrestoring_divider, restoring_divider};
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

/// One row of Table I: the peak size of plain (no-SBIF) backward
/// rewriting, or `None` on MEMOUT at the given term limit.
pub fn table1_peak(n: usize, term_limit: usize) -> Option<usize> {
    let div = nonrestoring_divider(n);
    let sp = divider_spec(&div);
    match BackwardRewriter::new(&div.netlist)
        .with_config(RewriteConfig { max_terms: Some(term_limit), ..Default::default() })
        .run(sp)
    {
        Ok((res, stats)) => {
            assert!(res.is_zero(), "vc1 must hold for the generated divider");
            Some(stats.peak_terms)
        }
        Err(VerifyError::TermLimitExceeded { .. }) => None,
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// The Fig. 3 series: polynomial size after every substitution of a
/// plain backward-rewriting run.
pub fn fig3_series(n: usize, term_limit: usize) -> Vec<usize> {
    let div = nonrestoring_divider(n);
    let sp = divider_spec(&div);
    match BackwardRewriter::new(&div.netlist)
        .with_config(RewriteConfig {
            max_terms: Some(term_limit),
            record_trace: true,
            ..Default::default()
        })
        .run(sp)
    {
        Ok((_, stats)) => stats.trace,
        Err(e) => panic!("raise the term limit for fig3: {e}"),
    }
}

/// One point of Fig. 4: peak polynomial size with or without SBIF.
/// Returns `None` on MEMOUT.
pub fn fig4_peak(n: usize, use_sbif: bool, term_limit: usize) -> Option<usize> {
    if !use_sbif {
        return table1_peak(n, term_limit);
    }
    let div = nonrestoring_divider(n);
    let sim = divider_sim_words(&div, 0xD1_71DE5, 2);
    let (classes, _) = forward_information(
        &div.netlist,
        Some(div.constraint),
        &sim,
        SbifConfig::default(),
        &SbifHooks::default(),
    );
    let sp = divider_spec(&div);
    match BackwardRewriter::new(&div.netlist)
        .with_classes(&classes)
        .with_config(RewriteConfig { max_terms: Some(term_limit), ..Default::default() })
        .run(sp)
    {
        Ok((res, stats)) => {
            assert!(res.is_zero(), "SBIF run must prove vc1");
            Some(stats.peak_terms)
        }
        Err(VerifyError::TermLimitExceeded { .. }) => None,
        Err(e) => panic!("unexpected error: {e}"),
    }
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
    /// Time of Alg. 1 (col. 6).
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
    /// Term limit for the SBIF rewrite (MEMOUT safeguard).
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

    // Columns 5–6: SBIF.
    let t = Instant::now();
    let sim = divider_sim_words(&div, 0xD1_71DE5, 2);
    let (classes, sbif_stats) = forward_information(
        &div.netlist,
        Some(div.constraint),
        &sim,
        SbifConfig::default(),
        &SbifHooks::default(),
    );
    let sbif = t.elapsed();

    // Column 7: modified backward rewriting.
    let sp = divider_spec(&div);
    let t = Instant::now();
    let mut rewrite_peak = 0;
    let rewrite = match BackwardRewriter::new(&div.netlist)
        .with_classes(&classes)
        .with_config(RewriteConfig { max_terms: Some(cfg.term_limit), ..Default::default() })
        .run(sp)
    {
        Ok((res, stats)) => {
            assert!(res.is_zero(), "SBIF run must prove vc1 for n={n}");
            rewrite_peak = stats.peak_terms;
            Measured::Time(t.elapsed())
        }
        Err(VerifyError::TermLimitExceeded { .. }) => Measured::Memout,
        Err(e) => panic!("unexpected error: {e}"),
    };

    // Columns 8–9: vc2 with BDDs.
    let t = Instant::now();
    let report = check_vc2(&div);
    let vc2 = t.elapsed();
    assert!(report.holds, "vc2 must hold for the generated divider");

    Table2Row {
        n,
        sat,
        cec,
        read,
        sbif_equiv: sbif_stats.proven,
        sbif_checks: sbif_stats.sat_checks,
        sbif,
        rewrite,
        rewrite_peak,
        vc2_nodes: report.peak_nodes,
        vc2,
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

    #[test]
    fn table1_small_widths() {
        let p2 = table1_peak(2, 100_000).expect("n=2 fits");
        let p4 = table1_peak(4, 100_000).expect("n=4 fits");
        assert!(p4 > 10 * p2, "Table I growth: {p2} -> {p4}");
        // A tiny limit must produce MEMOUT.
        assert_eq!(table1_peak(6, 100), None);
    }

    #[test]
    fn fig4_sbif_beats_plain() {
        let plain = fig4_peak(5, false, 1_000_000).expect("fits");
        let sbif = fig4_peak(5, true, 1_000_000).expect("fits");
        assert!(sbif * 10 < plain, "SBIF {sbif} vs plain {plain}");
    }

    #[test]
    fn fig3_series_ends_at_zero() {
        let series = fig3_series(4, 1_000_000);
        assert!(!series.is_empty());
        assert_eq!(*series.last().expect("nonempty"), 0);
        assert!(series.iter().copied().max().expect("nonempty") > 100);
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

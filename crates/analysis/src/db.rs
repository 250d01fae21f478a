//! The shared per-signal fact database the analysis steps fill in.

use crate::ternary::Ternary;
use sbif_netlist::{Netlist, Sig};
use sbif_trace::json::escape;
use std::fmt::Write as _;

/// Facts accumulated by one [`analyze`](crate::analyze) run.
///
/// Vectors indexed by dense signal index are empty until the
/// corresponding step has run; consumers treat an empty vector as
/// "fact not computed" rather than an error.
#[derive(Debug, Clone, Default)]
pub struct AnalysisDb {
    /// Number of signals in the analyzed netlist.
    pub num_signals: usize,
    /// Ternary lattice value per signal (under the constraint, when one
    /// was configured). Empty until the ternary step ran.
    pub ternary: Vec<Ternary>,
    /// Non-constant signals with a known ternary value (stuck-at facts).
    pub stuck: Vec<(Sig, bool)>,
    /// Contradictions met during ternary justification.
    pub ternary_conflicts: usize,
    /// Structural digest core per signal. Empty until the strash step
    /// ran.
    pub core: Vec<u64>,
    /// Polarity of each signal relative to its digest core.
    pub phase: Vec<bool>,
    /// Structural equivalence/antivalence classes: groups of ≥ 2
    /// signals sharing a digest core, each with its phase.
    pub classes: Vec<Vec<(Sig, bool)>>,
    /// Live mask — `true` iff the signal lies in the cone of the
    /// primary outputs or C. Empty until the cone step ran.
    pub live: Vec<bool>,
    /// Shadow simulation signatures per signal (`[signal][word]`).
    /// Empty until the signature step ran.
    pub shadow: Vec<Vec<u64>>,
    /// The input planes behind `shadow` (`[input][word]`), kept so a
    /// signature mismatch can be turned into a concrete input vector.
    pub shadow_planes: Vec<Vec<u64>>,
    /// Topological level per signal (strictly greater than every fanin
    /// level). Empty until the levels step ran.
    pub levels: Vec<usize>,
}

impl AnalysisDb {
    /// An empty database for a netlist of `num_signals` signals.
    pub fn new(num_signals: usize) -> Self {
        AnalysisDb { num_signals, ..AnalysisDb::default() }
    }

    /// Number of live signals (0 when the cone step did not run).
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&b| b).count()
    }

    /// Serializes the database as canonical JSON (`sbif-analysis-v1`).
    ///
    /// The layout is byte-stable for a given netlist and configuration:
    /// fixed key order, signals in dense-index order, outputs in
    /// declaration order. Signals are labeled with their netlist name
    /// when they have one, `n<index>` otherwise.
    pub fn to_json(&self, nl: &Netlist) -> String {
        let label = |s: Sig| -> String {
            match nl.name(s) {
                Some(n) => escape(n),
                None => format!("n{}", s.0),
            }
        };
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"sbif-analysis-v1\",\n");
        let _ = writeln!(out, "  \"signals\": {},", self.num_signals);
        let _ = writeln!(out, "  \"inputs\": {},", nl.inputs().len());
        let _ = writeln!(out, "  \"live\": {},", self.live_count());
        let _ = writeln!(
            out,
            "  \"dead\": {},",
            if self.live.is_empty() { 0 } else { self.num_signals - self.live_count() }
        );
        let _ = writeln!(
            out,
            "  \"shadow_words\": {},",
            self.shadow.first().map_or(0, |w| w.len())
        );
        let _ = writeln!(
            out,
            "  \"levels\": {},",
            self.levels.iter().map(|&l| l + 1).max().unwrap_or(0)
        );

        // Ternary facts.
        let known = self.ternary.iter().filter(|t| t.known().is_some()).count();
        let _ = write!(
            out,
            "  \"ternary\": {{\"known\": {known}, \"conflicts\": {}, \"stuck\": [",
            self.ternary_conflicts
        );
        for (i, &(s, v)) in self.stuck.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[\"{}\", {}]", label(s), v as u8);
        }
        out.push_str("]},\n");

        // Per-output cone digests: `~` marks an inverted root phase.
        out.push_str("  \"cone_digests\": {");
        for (i, (name, s)) in nl.outputs().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let (core, phase) = if self.core.is_empty() {
                (0, false)
            } else {
                (self.core[s.index()], self.phase[s.index()])
            };
            let _ = write!(
                out,
                "\"{}\": \"{}{core:016x}\"",
                escape(name),
                if phase { "~" } else { "" }
            );
        }
        out.push_str("},\n");

        // Structural classes and the pairwise merge seeds they induce.
        out.push_str("  \"classes\": [");
        for (i, class) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (j, &(s, p)) in class.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[\"{}\", {}]", label(s), p as u8);
            }
            out.push(']');
        }
        out.push_str("],\n");
        out.push_str("  \"class_seeds\": [");
        let mut first = true;
        for class in &self.classes {
            let (rep, rep_phase) = class[0];
            for &(s, p) in &class[1..] {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(
                    out,
                    "[\"{}\", \"{}\", {}]",
                    label(rep),
                    label(s),
                    (rep_phase ^ p) as u8
                );
            }
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisConfig};
    use sbif_trace::Recorder;

    #[test]
    fn json_dump_is_canonical_and_parseable() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let g1 = nl.push_gate(sbif_netlist::Gate::Binary(sbif_netlist::BinOp::And, a, b));
        let g2 = nl.push_gate(sbif_netlist::Gate::Binary(sbif_netlist::BinOp::And, b, a));
        nl.set_name(g1, "g1");
        nl.set_name(g2, "g2");
        nl.add_output("o", g1);
        let cfg = AnalysisConfig::default();
        let db = analyze(&nl, &cfg, &Recorder::new());
        let json = db.to_json(&nl);
        // Identical run → identical bytes.
        let db2 = analyze(&nl, &cfg, &Recorder::new());
        assert_eq!(json, db2.to_json(&nl));
        let v = sbif_trace::json::parse(&json).expect("valid JSON");
        let obj = v.as_object().unwrap();
        assert_eq!(obj["schema"].as_str(), Some("sbif-analysis-v1"));
        assert_eq!(obj["signals"].as_u64(), Some(4));
        // The commuted duplicate shows up as one class and one seed.
        let classes = match &obj["classes"] {
            sbif_trace::json::Value::Array(a) => a.len(),
            _ => panic!("classes must be an array"),
        };
        assert_eq!(classes, 1);
        assert!(json.contains("[\"g1\", \"g2\", 0]"), "{json}");
    }
}

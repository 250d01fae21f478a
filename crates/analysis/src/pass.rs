//! The analysis pipeline: deterministic, single-threaded, fully ordered.
//!
//! [`analyze`] runs five steps in a fixed order — levels, ternary,
//! strash, cone, signature. Each step reads the netlist plus the facts
//! earlier steps left in the [`AnalysisDb`] and appends its own. The
//! steps run on one thread and derive everything from `(netlist,
//! config)`, so the database — and every `analysis.*` counter — is
//! byte-identical across runs and `--jobs` values (the same determinism
//! contract the SBIF commit path obeys, DESIGN.md §12/§14).

use crate::db::AnalysisDb;
use crate::signature;
use crate::strash;
use crate::ternary;
use sbif_netlist::{Netlist, Sig};
use sbif_trace::{Recorder, ScopedRecorder};

/// Configuration of the analysis.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// The side-condition signal C, assumed 1 by ternary justification
    /// and added to the cone roots (the primary outputs).
    pub constraint: Option<Sig>,
    /// Explicit shadow input planes (`[input][word]`) for the signature
    /// step — e.g. constraint-satisfying divider stimulus. `None` falls
    /// back to two words of unconstrained random planes from a fixed
    /// seed.
    pub shadow_planes: Option<Vec<Vec<u64>>>,
}

/// Seed of the fallback random shadow planes.
const SHADOW_SEED: u64 = 0x57A7_1C5E_ED00;

/// Words of fallback random shadow planes.
const SHADOW_WORDS: usize = 2;

/// One step of the pipeline: appends facts to the database and counters
/// to the recorder (already scoped under `analysis.`).
type Step = fn(&Netlist, &AnalysisConfig, &mut AnalysisDb, &ScopedRecorder);

/// Runs the pipeline — levels → ternary → strash → cone → signature —
/// recording `analysis.*` counters and a `span.analysis.<step>` span per
/// step on `rec`.
pub fn analyze(nl: &Netlist, cfg: &AnalysisConfig, rec: &Recorder) -> AnalysisDb {
    const STEPS: [(&str, Step); 5] = [
        ("levels", levels),
        ("ternary", ternary),
        ("strash", strash),
        ("cone", cone),
        ("signature", signature),
    ];
    let scoped = rec.scoped("analysis");
    let mut db = AnalysisDb::new(nl.num_signals());
    for (name, step) in STEPS {
        let span = scoped.span(name);
        step(nl, cfg, &mut db, &scoped);
        span.close();
    }
    db
}

/// Topological level map (depth per signal), stored in
/// [`AnalysisDb::levels`] for `--analysis-out` and counted as
/// `levels`/`level_width_max`. The SBIF level scheduler derives the same
/// map from [`Netlist::levels`].
fn levels(nl: &Netlist, _cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder) {
    let levels = nl.levels();
    let depth = levels.iter().map(|&l| l + 1).max().unwrap_or(0);
    rec.add("levels", depth as u64);
    let mut width = vec![0u64; depth];
    for &l in &levels {
        width[l] += 1;
    }
    rec.add("level_width_max", width.into_iter().max().unwrap_or(0));
    db.levels = levels;
}

/// Ternary 0/1/X constant propagation (see [`crate::ternary`]).
fn ternary(nl: &Netlist, cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder) {
    let r = ternary::propagate(nl, cfg.constraint);
    let known = r.values.iter().filter(|t| t.known().is_some()).count();
    rec.add("ternary_known", known as u64);
    rec.add("ternary_stuck", r.stuck.len() as u64);
    rec.add("ternary_conflicts", r.conflicts as u64);
    rec.add("ternary_rounds", r.rounds as u64);
    db.ternary = r.values;
    db.stuck = r.stuck;
    db.ternary_conflicts = r.conflicts;
}

/// Canonical structural hashing (see [`crate::strash`]).
fn strash(nl: &Netlist, _cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder) {
    let r = strash::digests(nl);
    rec.add("strash_classes", r.classes.len() as u64);
    let duplicates: usize = r.classes.iter().map(|c| c.len() - 1).sum();
    rec.add("strash_duplicates", duplicates as u64);
    db.core = r.core;
    db.phase = r.phase;
    db.classes = r.classes;
}

/// Cone-of-influence mask keyed on the primary outputs plus the
/// constraint.
fn cone(nl: &Netlist, cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder) {
    let mut roots: Vec<Sig> = nl.outputs().iter().map(|&(_, s)| s).collect();
    roots.extend(cfg.constraint.filter(|c| !roots.contains(c)));
    let mut live = vec![false; nl.num_signals()];
    for s in nl.cone(&roots) {
        live[s.index()] = true;
    }
    let live_count = live.iter().filter(|&&b| b).count();
    rec.add("cone_live", live_count as u64);
    rec.add("cone_dead", (nl.num_signals() - live_count) as u64);
    db.live = live;
}

/// Shadow simulation signatures (see [`crate::signature`]).
fn signature(nl: &Netlist, cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder) {
    let planes = match &cfg.shadow_planes {
        Some(p) => p.clone(),
        None => signature::random_planes(nl.inputs().len(), SHADOW_WORDS, SHADOW_SEED),
    };
    let words = planes.first().map_or(0, |p| p.len());
    rec.add("shadow_words", words as u64);
    db.shadow = signature::signatures(nl, &planes);
    db.shadow_planes = planes;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_pipeline_fills_every_fact_table() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.and(a, b);
        let _dead = nl.or(a, b);
        nl.add_output("o", g);
        let rec = Recorder::new();
        let db = analyze(&nl, &AnalysisConfig::default(), &rec);
        assert_eq!(db.num_signals, nl.num_signals());
        assert_eq!(db.ternary.len(), nl.num_signals());
        assert_eq!(db.core.len(), nl.num_signals());
        assert_eq!(db.live.len(), nl.num_signals());
        assert_eq!(db.shadow.len(), nl.num_signals());
        assert!(!db.live[_dead.index()]);
        assert!(db.live[g.index()]);
        let report = rec.finish();
        assert_eq!(report.counter("span.analysis.ternary"), 1);
        assert_eq!(report.counter("analysis.cone_dead"), 1);
        assert_eq!(report.counter("analysis.cone_live"), 3);
        assert_eq!(report.counter("analysis.shadow_words"), 2);
    }

    #[test]
    fn analysis_counters_are_run_to_run_deterministic() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.nand(a, b);
        nl.add_output("o", g);
        let run = || {
            let rec = Recorder::new();
            let db = analyze(&nl, &AnalysisConfig::default(), &rec);
            (rec.finish().to_json(), db.to_json(&nl))
        };
        assert_eq!(run(), run());
    }
}

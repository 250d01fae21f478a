//! The deterministic fault-injection campaign.
//!
//! A campaign is a pure function of its configuration: every mutant is
//! derived from the campaign seed through per-cell [`XorShift64`]
//! streams, task outcomes depend only on the task (never on scheduling),
//! and results are committed in task order. Consequently the JSON kill
//! matrix is **byte-identical for any `--jobs` value** — the same
//! discipline as the parallel SBIF window checker. Wall-clock timings
//! are reported in the human summary only, never in the JSON.
//!
//! Each (architecture, width) cell runs in one of two modes:
//!
//! * **full** — the width is within [`Arch::proven_width_limit`]: the
//!   unmutated seed and every strictly benign mutant must verify, and
//!   every semantics-changing mutant must be rejected.
//! * **kill-only** — beyond the proven frontier (SRT/array/restoring at
//!   large widths, where the repo's own tests document the polynomial
//!   blow-up): the pipeline cannot prove even the correct seed, so only
//!   the kill direction is checked; seed verification and benign
//!   pipeline runs are skipped.
//!
//! Verdict accounting, per mutant (full cells):
//!
//! | classifier says     | pipeline says | verdict          |
//! |---------------------|---------------|------------------|
//! | semantics-changing  | NOT correct   | killed           |
//! | semantics-changing  | resource abort| killed (abort)   |
//! | semantics-changing  | correct       | **escape** — soundness bug |
//! | benign              | correct       | benign accepted  |
//! | benign              | anything else | **false alarm**  |
//! | benign under C      | correct       | accepted under C |
//! | benign under C      | anything else | rejected under C (incompleteness, tolerated) |
//! | budget exhausted    | (not run)     | unclassified     |
//! | (panic anywhere)    | —             | **crash**        |
//!
//! Escapes and crashes are handed to the [`crate::shrink`] module and
//! returned with minimized witnesses attached.
//!
//! # Deduplication and the outcome cache
//!
//! Distinct mutations frequently produce *structurally identical*
//! circuits (a stuck-at on either input of the same AND, say). Before
//! anything runs, a serial pre-pass computes each mutant's canonical
//! design digest ([`sbif_analysis::design_digest`]) and plans the
//! campaign: the first task with a given digest is the
//! **representative** and really executes; later digest-equal tasks
//! copy its outcome during in-order aggregation
//! ([`CampaignReport::deduped`]). With a [`ResultCache`] attached
//! (`--cache-dir`) the pre-pass additionally resolves tasks whose
//! outcome a previous campaign already judged — the key binds the seed
//! digest, the mutant digest, the cell mode and the campaign
//! fingerprint (classifier budgets, term limit, certification, sim
//! seed), so a hit is sound. Both mechanisms are deterministic and
//! outcome-preserving: the kill matrix stays byte-identical to a cold,
//! dedupe-free run at every `--jobs` value; only the amount of SAT and
//! rewriting work moves, which the `cache.*` counters account.

use crate::classify::{classify, classify_escalating, MutantClass};
use crate::mutate::{apply, pick, FaultModel, Mutation};
use crate::shrink::{shrink_escape, ShrunkWitness};
use crate::Arch;
use sbif_analysis::design_digest;
use sbif_cache::{Entry, ResultCache};
use sbif_core::sbif::divider_sim_words;
use sbif_core::verify::{DividerVerifier, VerifierConfig};
use sbif_netlist::build::Divider;
use sbif_rng::XorShift64;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Campaign parameters. All randomness derives from `seed`.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; printed in the report so any run can be replayed.
    pub seed: u64,
    /// Worker threads for mutant processing (≥ 1). Does not affect any
    /// reported result, only wall-clock time.
    pub jobs: usize,
    /// Architectures under test.
    pub archs: Vec<Arch>,
    /// Quotient widths under test (each ≥ 2).
    pub widths: Vec<usize>,
    /// Fault models to inject.
    pub models: Vec<FaultModel>,
    /// Mutants per (architecture, width, fault model) cell.
    pub per_model: usize,
    /// Simulation words (64 patterns each) for the classifier fast path.
    pub sim_words: usize,
    /// SAT conflict budget for the classifier's miter check.
    pub classify_conflicts: u64,
    /// Term limit handed to the verifier (`None` = verifier default);
    /// a broken netlist may genuinely blow up backward rewriting, which
    /// the campaign counts as a kill-by-abort.
    pub max_terms: Option<usize>,
    /// Run the pipeline with DRAT certification; a verdict whose
    /// certificate is rejected does not count as correct.
    pub certify: bool,
    /// Shrink escapes/crashes before reporting them.
    pub shrink: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x5b1f_f022,
            jobs: 1,
            archs: vec![Arch::NonRestoring, Arch::Srt],
            widths: vec![8],
            models: FaultModel::all().to_vec(),
            per_model: 25,
            sim_words: 4,
            classify_conflicts: 200_000,
            max_terms: Some(2_000_000),
            certify: false,
            shrink: true,
        }
    }
}

impl CampaignConfig {
    /// The fixed CI smoke profile: non-restoring + SRT at n = 4 and
    /// n = 8, every fault model, enough mutants for a meaningful
    /// kill-rate gate. It is not quick: ~18 min at `--jobs 1` on a
    /// 2-CPU host (1,079 s at rev 09f65f9), and 618–629 s of that is
    /// one cell, non-restoring n = 8 stuck-at-1. That cell's time goes
    /// to the benign filter, not to the verifier: of its 20 mutants,
    /// site ordinal 12 comes back `Unknown` from [`classify`] at the
    /// 200,000-conflict base budget and `BenignUnderC` only at 800,000
    /// conflicts, and [`classify_escalating`] solves each rung's miter
    /// from scratch (24–29 s, then 194–243 s, in two release-build
    /// replays). The verifier proves that mutant in under 0.1 s, and
    /// the other 19 classify in microseconds. SRT at n = 8 is past its
    /// proven frontier and runs kill-only; the tighter term limit makes
    /// its genuine blow-up aborts cheap.
    pub fn smoke(jobs: usize) -> Self {
        CampaignConfig {
            jobs: jobs.max(1),
            widths: vec![4, 8],
            per_model: 20,
            max_terms: Some(500_000),
            ..CampaignConfig::default()
        }
    }
}

/// What the verification pipeline said about one divider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineVerdict {
    /// Both verification conditions proven (and certified, if asked).
    Correct,
    /// Refuted, inconclusive, or a rejected certificate.
    NotCorrect,
    /// The verifier gave up with a resource error (term limit, budget).
    Abort(String),
}

/// Final per-mutant verdict (see the module table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutantOutcome {
    /// Semantic mutant rejected by the pipeline.
    Killed,
    /// Semantic mutant made the pipeline abort on resources — detected,
    /// but not by a proof.
    KilledByAbort(String),
    /// Semantic mutant *verified as correct*: a soundness bug.
    Escaped,
    /// Strictly benign mutant verified as correct.
    BenignAccepted,
    /// Strictly benign mutant rejected: a completeness bug.
    FalseAlarm(String),
    /// Benign-under-C mutant verified as correct.
    UnderCAccepted,
    /// Benign-under-C mutant rejected — an incompleteness the campaign
    /// records but tolerates (rewriting need not discover
    /// constrained-only equivalences).
    UnderCRejected(String),
    /// Benign mutant in a kill-only cell: the pipeline was not
    /// consulted. `under_c` records which benign class it was.
    BenignSkipped {
        /// `true` when the mutant was only equivalent under `C`.
        under_c: bool,
    },
    /// The classifier could not decide within budget.
    Unclassified,
    /// A panic in the classifier or the pipeline.
    Crashed(String),
}

/// Aggregated counts for one (architecture, width, fault model) cell.
#[derive(Debug, Clone)]
pub struct CellStats {
    /// Architecture of this cell.
    pub arch: Arch,
    /// Quotient width.
    pub n: usize,
    /// Fault model.
    pub model: FaultModel,
    /// `true` when this cell is past the architecture's proven width
    /// frontier and ran in kill-only mode.
    pub kill_only: bool,
    /// Mutants generated.
    pub generated: usize,
    /// … of which strictly benign (equivalent on every input).
    pub benign: usize,
    /// … of which benign under C only.
    pub benign_under_c: usize,
    /// … of which semantics-changing.
    pub semantic: usize,
    /// … of which undecided by the classifier.
    pub unknown: usize,
    /// Semantic mutants rejected with a NOT-correct verdict.
    pub killed: usize,
    /// Semantic mutants that made the verifier abort on resources.
    pub aborted: usize,
    /// Semantic mutants that escaped (verified correct).
    pub escaped: usize,
    /// Strictly benign mutants correctly accepted.
    pub benign_accepted: usize,
    /// Strictly benign mutants wrongly rejected.
    pub false_alarms: usize,
    /// Benign-under-C mutants the pipeline accepted.
    pub under_c_accepted: usize,
    /// Benign-under-C mutants the pipeline rejected (tolerated).
    pub under_c_rejected: usize,
    /// Benign mutants not run through the pipeline (kill-only cells).
    pub skipped: usize,
    /// Panics.
    pub crashed: usize,
    /// Wall-clock spent on this cell's mutants (human summary only —
    /// never serialized, to keep the JSON scheduling-independent).
    pub wall: Duration,
}

/// The pipeline's verdict on one unmutated seed divider.
#[derive(Debug, Clone)]
pub struct SeedResult {
    /// Architecture.
    pub arch: Arch,
    /// Quotient width.
    pub n: usize,
    /// Did the pipeline verify the (correct) seed? `None` when the cell
    /// ran kill-only and the check was skipped.
    pub correct: Option<bool>,
    /// Wall-clock of the seed verification (not serialized).
    pub wall: Duration,
}

/// An escape or crash, with its minimized witness.
#[derive(Debug, Clone)]
pub struct EscapeRecord {
    /// Architecture.
    pub arch: Arch,
    /// Original width.
    pub n: usize,
    /// Fault model.
    pub model: FaultModel,
    /// Site ordinal in [`crate::mutate::enumerate_sites`] order at
    /// width `n`.
    pub ordinal: usize,
    /// `"escape"` or `"crash"`.
    pub kind: &'static str,
    /// Shrunk witness (`None` when shrinking was disabled or failed to
    /// reproduce).
    pub witness: Option<ShrunkWitness>,
}

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The configuration that produced this report.
    pub config: CampaignConfig,
    /// Unmutated-seed verification results.
    pub seeds: Vec<SeedResult>,
    /// Per-cell kill statistics, in (arch, width, model) order.
    pub cells: Vec<CellStats>,
    /// Escapes and crashes, in task order.
    pub escapes: Vec<EscapeRecord>,
    /// Tasks whose mutant was digest-equal to an earlier one and copied
    /// its outcome instead of re-running classifier + pipeline.
    pub deduped: usize,
    /// Seed checks and representative tasks resolved from the attached
    /// [`ResultCache`] (always 0 without one).
    pub cache_hits: usize,
    /// Seed checks and representative tasks the cache did not know
    /// (always 0 without one).
    pub cache_misses: usize,
    /// Outcomes newly written to the cache.
    pub cache_stores: usize,
}

struct CellSetup {
    arch: Arch,
    n: usize,
    kill_only: bool,
    div: Divider,
    planes: Vec<Vec<u64>>,
}

struct Task {
    /// Index into the `CellSetup` list.
    setup: usize,
    /// Index into the stats-cell list.
    stat: usize,
    ordinal: usize,
    mutation: Mutation,
}

/// splitmix64-style stream splitting: decorrelated sub-seeds for each
/// (seed, arch, width, model) cell.
fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut z = seed;
    for &p in parts {
        z = z.wrapping_add(p).wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
    }
    z
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The real verification pipeline as a campaign oracle: full vc1 (SBIF
/// rewriting) + vc2 (BDD), optionally with DRAT certification. Every
/// verifier run records into the shared `recorder`. Counters and gauges
/// are merge-commutative, so the accumulated `sbif.*`/`rewrite.*`/`vc2.*`
/// totals measure the campaign's *actual* symbolic work —
/// deterministically for any `--jobs` value, and visibly lower on a warm
/// cache.
pub fn default_pipeline(
    certify: bool,
    max_terms: Option<usize>,
    recorder: sbif_trace::Recorder,
) -> impl Fn(&Divider) -> PipelineVerdict + Sync {
    move |div| {
        let mut cfg = VerifierConfig::default();
        cfg.sbif.certify = certify;
        if let Some(mt) = max_terms {
            cfg.rewrite.max_terms = Some(mt);
        }
        match DividerVerifier::new(div)
            .with_config(cfg)
            .with_recorder(recorder.clone())
            .verify()
        {
            Ok(report) => {
                let certified = !certify || report.certificates().all_accepted();
                if report.is_correct() && certified {
                    PipelineVerdict::Correct
                } else {
                    PipelineVerdict::NotCorrect
                }
            }
            Err(e) => PipelineVerdict::Abort(e.to_string()),
        }
    }
}

/// The part of the configuration an outcome depends on. Anything that
/// can change a verdict — classifier budgets, the sim plane seed, the
/// verifier's term limit and certification mode — must be bound into
/// the cache key; campaign-shape knobs (`jobs`, `per_model`, `shrink`,
/// which cells run) must NOT be, so different campaigns can share
/// judged mutants.
fn campaign_fingerprint(cfg: &CampaignConfig) -> String {
    // v2: the classifier now escalates Unknown verdicts up the
    // geometric budget ladder, so judgements under the same base
    // budget can differ from v1's flat classification.
    format!(
        "sbif-fuzz-outcome-v2 seed={:#x} sim_words={} classify_conflicts={} \
         max_terms={:?} certify={}",
        cfg.seed, cfg.sim_words, cfg.classify_conflicts, cfg.max_terms, cfg.certify
    )
}

/// Binds a (seed digest, mutant digest, cell mode) triple into one
/// cache key. The fingerprint is already folded into both digests.
fn outcome_key(seed: u128, mutant: u128, kill_only: bool) -> u128 {
    let parts = [
        seed as u64,
        (seed >> 64) as u64,
        mutant as u64,
        (mutant >> 64) as u64,
        kill_only as u64,
    ];
    let lo = mix(0x5b1f_f022_0c1e_a55e, &parts);
    let hi = mix(lo ^ 0x94D0_49BB_1331_11EB, &parts);
    ((hi as u128) << 64) | lo as u128
}

/// Sentinel "mutant" digest for the unmutated-seed verification entry.
const SEED_PROBE: u128 = 0x5eed_5eed_5eed_5eed_5eed_5eed_5eed_5eed;

fn encode_outcome(o: &MutantOutcome) -> Entry {
    let (verdict, payload) = match o {
        MutantOutcome::Killed => ("killed", ""),
        MutantOutcome::KilledByAbort(e) => ("killed-by-abort", e.as_str()),
        MutantOutcome::Escaped => ("escaped", ""),
        MutantOutcome::BenignAccepted => ("benign-accepted", ""),
        MutantOutcome::FalseAlarm(e) => ("false-alarm", e.as_str()),
        MutantOutcome::UnderCAccepted => ("under-c-accepted", ""),
        MutantOutcome::UnderCRejected(e) => ("under-c-rejected", e.as_str()),
        MutantOutcome::BenignSkipped { under_c: false } => ("benign-skipped", ""),
        MutantOutcome::BenignSkipped { under_c: true } => ("benign-skipped-under-c", ""),
        MutantOutcome::Unclassified => ("unclassified", ""),
        MutantOutcome::Crashed(e) => ("crashed", e.as_str()),
    };
    Entry::new(verdict, payload)
}

/// Inverse of [`encode_outcome`]; an unknown verdict token (a future
/// format, a corrupted entry) degrades to `None` — a miss.
fn decode_outcome(e: &Entry) -> Option<MutantOutcome> {
    Some(match e.verdict.as_str() {
        "killed" => MutantOutcome::Killed,
        "killed-by-abort" => MutantOutcome::KilledByAbort(e.payload.clone()),
        "escaped" => MutantOutcome::Escaped,
        "benign-accepted" => MutantOutcome::BenignAccepted,
        "false-alarm" => MutantOutcome::FalseAlarm(e.payload.clone()),
        "under-c-accepted" => MutantOutcome::UnderCAccepted,
        "under-c-rejected" => MutantOutcome::UnderCRejected(e.payload.clone()),
        "benign-skipped" => MutantOutcome::BenignSkipped { under_c: false },
        "benign-skipped-under-c" => MutantOutcome::BenignSkipped { under_c: true },
        "unclassified" => MutantOutcome::Unclassified,
        "crashed" => MutantOutcome::Crashed(e.payload.clone()),
        _ => return None,
    })
}

/// How the pre-pass decided to obtain one task's outcome.
enum Plan {
    /// Execute classifier + pipeline; store under the key afterwards
    /// (`None` when no cache is attached or the digest pre-pass
    /// panicked).
    Run(Option<(u128, Vec<(u64, bool)>)>),
    /// Digest-equal to the earlier task at this index: copy its
    /// outcome.
    Dup(usize),
    /// Already judged by a previous campaign — the cached outcome.
    Hit(MutantOutcome),
}

/// Runs the campaign against a pipeline oracle — [`default_pipeline`]
/// in production, synthetic ones in the determinism and shrinker tests.
/// With a `cache`, already-judged seeds and mutants are resolved from
/// it (and fresh outcomes stored into it). See the module docs for the
/// key derivation and the soundness argument.
pub fn run_campaign(
    cfg: &CampaignConfig,
    pipeline: &(dyn Fn(&Divider) -> PipelineVerdict + Sync),
    cache: Option<&ResultCache>,
) -> CampaignReport {
    // --- deterministic task generation -------------------------------
    let mut setups: Vec<CellSetup> = Vec::new();
    let mut stats: Vec<CellStats> = Vec::new();
    let mut tasks: Vec<Task> = Vec::new();
    for &arch in &cfg.archs {
        for &n in &cfg.widths {
            assert!(n >= 2, "divider width must be at least 2, got {n}");
            let kill_only = arch.proven_width_limit().is_some_and(|limit| n > limit);
            let div = arch.build(n);
            let planes =
                divider_sim_words(&div, mix(cfg.seed, &[arch as u64, n as u64]), cfg.sim_words);
            let setup = setups.len();
            setups.push(CellSetup { arch, n, kill_only, div, planes });
            for (mi, &model) in cfg.models.iter().enumerate() {
                let stat = stats.len();
                stats.push(CellStats {
                    arch,
                    n,
                    model,
                    kill_only,
                    generated: 0,
                    benign: 0,
                    benign_under_c: 0,
                    semantic: 0,
                    unknown: 0,
                    killed: 0,
                    aborted: 0,
                    escaped: 0,
                    benign_accepted: 0,
                    false_alarms: 0,
                    under_c_accepted: 0,
                    under_c_rejected: 0,
                    skipped: 0,
                    crashed: 0,
                    wall: Duration::ZERO,
                });
                let mut rng = XorShift64::seed_from_u64(mix(
                    cfg.seed,
                    &[arch as u64, n as u64, mi as u64],
                ));
                for _ in 0..cfg.per_model {
                    if let Some((ordinal, mutation)) =
                        pick(&setups[setup].div, model, &mut rng)
                    {
                        tasks.push(Task { setup, stat, ordinal, mutation });
                    }
                }
            }
        }
    }

    // --- canonical digests for dedupe + cache keys -------------------
    let fingerprint = campaign_fingerprint(cfg);
    let seed_digests: Vec<_> = setups
        .iter()
        .map(|s| design_digest(&s.div.netlist, Some(s.div.constraint), &fingerprint))
        .collect();
    let mut deduped = 0usize;
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    let mut cache_stores = 0usize;

    // --- unmutated seeds must still verify (full cells only) ---------
    let mut seeds: Vec<SeedResult> = Vec::with_capacity(setups.len());
    for (si, s) in setups.iter().enumerate() {
        let t0 = Instant::now();
        let correct = if s.kill_only {
            None
        } else {
            let key = outcome_key(seed_digests[si].key, SEED_PROBE, s.kill_only);
            let cached = cache.and_then(|c| c.lookup(key, &[]).entry);
            let v = match cached {
                Some(e) => {
                    cache_hits += 1;
                    e.verdict == "correct"
                }
                None => {
                    if cache.is_some() {
                        cache_misses += 1;
                    }
                    // A panic on the *unmutated* seed is itself a
                    // finding; count it as a failed seed instead of
                    // tearing the campaign down.
                    let v = catch_unwind(AssertUnwindSafe(|| pipeline(&s.div)))
                        .map(|v| v == PipelineVerdict::Correct)
                        .unwrap_or(false);
                    if let Some(c) = cache {
                        let cones: Vec<(u64, bool)> = seed_digests[si]
                            .cones
                            .iter()
                            .map(|c| (c.core, c.phase))
                            .collect();
                        let entry =
                            Entry::new(if v { "correct" } else { "not-correct" }, "");
                        if c.store(key, &cones, &entry).is_ok() {
                            cache_stores += 1;
                        }
                    }
                    v
                }
            };
            Some(v)
        };
        seeds.push(SeedResult { arch: s.arch, n: s.n, correct, wall: t0.elapsed() });
    }

    // --- plan pass: dedupe by mutant digest, resolve cache hits ------
    // Serial and in task order, so representative selection (and with
    // it the whole campaign) is scheduling-independent.
    let mut plans: Vec<Plan> = Vec::with_capacity(tasks.len());
    let mut first_seen: HashMap<(usize, u128), usize> = HashMap::new();
    for (i, t) in tasks.iter().enumerate() {
        let setup = &setups[t.setup];
        // A panicking mutation builder is handled (and reported) by
        // run_task; the pre-pass just declines to dedupe or cache it.
        let digest = catch_unwind(AssertUnwindSafe(|| {
            let mutant = apply(&setup.div, &t.mutation);
            design_digest(&mutant.netlist, Some(mutant.constraint), &fingerprint)
        }))
        .ok();
        let Some(digest) = digest else {
            plans.push(Plan::Run(None));
            continue;
        };
        if let Some(&rep) = first_seen.get(&(t.setup, digest.key)) {
            deduped += 1;
            plans.push(Plan::Dup(rep));
            continue;
        }
        first_seen.insert((t.setup, digest.key), i);
        let key = outcome_key(seed_digests[t.setup].key, digest.key, setup.kill_only);
        let cones: Vec<(u64, bool)> =
            digest.cones.iter().map(|c| (c.core, c.phase)).collect();
        match cache {
            None => plans.push(Plan::Run(None)),
            Some(c) => {
                match c.lookup(key, &cones).entry.as_ref().and_then(decode_outcome) {
                    Some(outcome) => {
                        cache_hits += 1;
                        plans.push(Plan::Hit(outcome));
                    }
                    None => {
                        cache_misses += 1;
                        plans.push(Plan::Run(Some((key, cones))));
                    }
                }
            }
        }
    }

    // --- parallel mutant processing, in-order commit -----------------
    let run_task = |t: &Task| -> (MutantOutcome, Duration) {
        let setup = &setups[t.setup];
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mutant = apply(&setup.div, &t.mutation);
            // Unknown verdicts retry up the geometric escalation ladder
            // (base, 4·base, 16·base conflicts) before being reported
            // unclassified — deterministic, so cacheable.
            match classify_escalating(&setup.div, &mutant, &setup.planes, cfg.classify_conflicts)
            {
                MutantClass::Unknown => MutantOutcome::Unclassified,
                MutantClass::SemanticsChanging => match pipeline(&mutant) {
                    PipelineVerdict::Correct => MutantOutcome::Escaped,
                    PipelineVerdict::NotCorrect => MutantOutcome::Killed,
                    PipelineVerdict::Abort(e) => MutantOutcome::KilledByAbort(e),
                },
                MutantClass::Benign if setup.kill_only => {
                    MutantOutcome::BenignSkipped { under_c: false }
                }
                MutantClass::BenignUnderC if setup.kill_only => {
                    MutantOutcome::BenignSkipped { under_c: true }
                }
                MutantClass::Benign => match pipeline(&mutant) {
                    PipelineVerdict::Correct => MutantOutcome::BenignAccepted,
                    PipelineVerdict::NotCorrect => {
                        MutantOutcome::FalseAlarm("reported NOT correct".to_string())
                    }
                    PipelineVerdict::Abort(e) => MutantOutcome::FalseAlarm(e),
                },
                MutantClass::BenignUnderC => match pipeline(&mutant) {
                    PipelineVerdict::Correct => MutantOutcome::UnderCAccepted,
                    PipelineVerdict::NotCorrect => {
                        MutantOutcome::UnderCRejected("reported NOT correct".to_string())
                    }
                    PipelineVerdict::Abort(e) => MutantOutcome::UnderCRejected(e),
                },
            }
        }))
        .unwrap_or_else(|p| MutantOutcome::Crashed(panic_message(p)));
        (outcome, t0.elapsed())
    };

    // Only representatives that neither a duplicate nor the cache
    // resolves actually execute.
    let run_idx: Vec<usize> = plans
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p, Plan::Run(_)))
        .map(|(i, _)| i)
        .collect();
    let mut slots: Vec<Option<(MutantOutcome, Duration)>> =
        (0..tasks.len()).map(|_| None).collect();
    if cfg.jobs <= 1 {
        for &i in &run_idx {
            slots[i] = Some(run_task(&tasks[i]));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..cfg.jobs {
                let tx = tx.clone();
                let cursor = &cursor;
                let run_idx = &run_idx;
                let tasks = &tasks;
                let run_task = &run_task;
                scope.spawn(move || loop {
                    let k = cursor.fetch_add(1, Ordering::SeqCst);
                    if k >= run_idx.len() {
                        break;
                    }
                    let i = run_idx[k];
                    if tx.send((i, run_task(&tasks[i]))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, out) in rx {
                slots[i] = Some(out);
            }
        });
    }

    // --- resolve every task (in order), storing fresh outcomes -------
    let mut resolved: Vec<(MutantOutcome, Duration)> = Vec::with_capacity(tasks.len());
    for (i, plan) in plans.iter().enumerate() {
        let entry = match plan {
            Plan::Run(store_at) => {
                let (outcome, wall) =
                    slots[i].take().expect("every planned task produced an outcome");
                if let (Some(c), Some((key, cones))) = (cache, store_at) {
                    if c.store(*key, cones, &encode_outcome(&outcome)).is_ok() {
                        cache_stores += 1;
                    }
                }
                (outcome, wall)
            }
            // Representatives precede their duplicates in task order,
            // so the copied slot is already resolved.
            Plan::Dup(rep) => (resolved[*rep].0.clone(), Duration::ZERO),
            Plan::Hit(outcome) => (outcome.clone(), Duration::ZERO),
        };
        resolved.push(entry);
    }

    // --- in-order aggregation ----------------------------------------
    let mut escapes: Vec<EscapeRecord> = Vec::new();
    for (task, (outcome, wall)) in tasks.iter().zip(resolved) {
        let cell = &mut stats[task.stat];
        cell.generated += 1;
        cell.wall += wall;
        match &outcome {
            MutantOutcome::Killed => {
                cell.semantic += 1;
                cell.killed += 1;
            }
            MutantOutcome::KilledByAbort(_) => {
                cell.semantic += 1;
                cell.aborted += 1;
            }
            MutantOutcome::Escaped => {
                cell.semantic += 1;
                cell.escaped += 1;
            }
            MutantOutcome::BenignAccepted => {
                cell.benign += 1;
                cell.benign_accepted += 1;
            }
            MutantOutcome::FalseAlarm(_) => {
                cell.benign += 1;
                cell.false_alarms += 1;
            }
            MutantOutcome::UnderCAccepted => {
                cell.benign_under_c += 1;
                cell.under_c_accepted += 1;
            }
            MutantOutcome::UnderCRejected(_) => {
                cell.benign_under_c += 1;
                cell.under_c_rejected += 1;
            }
            MutantOutcome::BenignSkipped { under_c } => {
                if *under_c {
                    cell.benign_under_c += 1;
                } else {
                    cell.benign += 1;
                }
                cell.skipped += 1;
            }
            MutantOutcome::Unclassified => cell.unknown += 1,
            MutantOutcome::Crashed(_) => cell.crashed += 1,
        }
        let kind = match outcome {
            MutantOutcome::Escaped => "escape",
            MutantOutcome::Crashed(_) => "crash",
            _ => continue,
        };
        let setup = &setups[task.setup];
        let witness = cfg.shrink.then(|| {
            let classify_conflicts = cfg.classify_conflicts;
            let sim_words = cfg.sim_words;
            let shrink_seed = mix(cfg.seed, &[task.stat as u64, task.ordinal as u64]);
            let mut escape_repro = |seed: &Divider, cand: &Divider| -> bool {
                catch_unwind(AssertUnwindSafe(|| {
                    let planes = divider_sim_words(seed, shrink_seed, sim_words);
                    classify(seed, cand, &planes, classify_conflicts)
                        == MutantClass::SemanticsChanging
                        && pipeline(cand) == PipelineVerdict::Correct
                }))
                .unwrap_or(false)
            };
            let mut crash_repro = |_seed: &Divider, cand: &Divider| -> bool {
                catch_unwind(AssertUnwindSafe(|| pipeline(cand))).is_err()
            };
            shrink_escape(
                setup.arch,
                task.mutation.model,
                task.ordinal,
                setup.n,
                shrink_seed,
                if kind == "crash" { &mut crash_repro } else { &mut escape_repro },
            )
        });
        escapes.push(EscapeRecord {
            arch: setup.arch,
            n: setup.n,
            model: task.mutation.model,
            ordinal: task.ordinal,
            kind,
            witness: witness.flatten(),
        });
    }

    CampaignReport {
        config: cfg.clone(),
        seeds,
        cells: stats,
        escapes,
        deduped,
        cache_hits,
        cache_misses,
        cache_stores,
    }
}

impl CampaignReport {
    /// Total semantics-changing mutants across all cells.
    pub fn total_semantic(&self) -> usize {
        self.cells.iter().map(|c| c.semantic).sum()
    }

    /// Total clean kills (NOT-correct verdicts on semantic mutants).
    pub fn total_killed(&self) -> usize {
        self.cells.iter().map(|c| c.killed).sum()
    }

    /// Total kills by resource abort.
    pub fn total_aborted(&self) -> usize {
        self.cells.iter().map(|c| c.aborted).sum()
    }

    /// Total escapes (soundness bugs).
    pub fn total_escaped(&self) -> usize {
        self.cells.iter().map(|c| c.escaped).sum()
    }

    /// Total false alarms (completeness bugs).
    pub fn total_false_alarms(&self) -> usize {
        self.cells.iter().map(|c| c.false_alarms).sum()
    }

    /// Total crashes.
    pub fn total_crashed(&self) -> usize {
        self.cells.iter().map(|c| c.crashed).sum()
    }

    /// Total classifier budget exhaustions.
    pub fn total_unclassified(&self) -> usize {
        self.cells.iter().map(|c| c.unknown).sum()
    }

    /// Total benign-under-C mutants the pipeline rejected (tolerated).
    pub fn total_under_c_rejected(&self) -> usize {
        self.cells.iter().map(|c| c.under_c_rejected).sum()
    }

    /// Total benign mutants skipped in kill-only cells.
    pub fn total_skipped(&self) -> usize {
        self.cells.iter().map(|c| c.skipped).sum()
    }

    /// The campaign's pass criterion: every checked seed verifies, no
    /// escape, no false alarm, no crash. Unclassified mutants and
    /// rejected benign-under-C mutants are surfaced in the report but do
    /// not fail the campaign — the former are a classifier SAT-budget
    /// artifact, the latter a documented incompleteness.
    pub fn success(&self) -> bool {
        self.seeds.iter().all(|s| s.correct != Some(false))
            && self.total_escaped() == 0
            && self.total_false_alarms() == 0
            && self.total_crashed() == 0
    }

    /// Records the campaign's deterministic tallies on `rec` (the
    /// `fuzz.*` namespace of the observability layer). Counts only —
    /// the same numbers as [`kill_matrix_json`](Self::kill_matrix_json),
    /// so the recorded metrics are identical for any `jobs` value.
    pub fn record_metrics(&self, rec: &sbif_trace::Recorder) {
        rec.add("fuzz.seeds", self.seeds.len() as u64);
        let verified =
            self.seeds.iter().filter(|s| s.correct == Some(true)).count();
        rec.add("fuzz.seeds_verified", verified as u64);
        rec.add("fuzz.cells", self.cells.len() as u64);
        let generated: usize = self.cells.iter().map(|c| c.generated).sum();
        rec.add("fuzz.generated", generated as u64);
        rec.add("fuzz.semantic", self.total_semantic() as u64);
        rec.add("fuzz.killed", self.total_killed() as u64);
        rec.add("fuzz.aborted", self.total_aborted() as u64);
        rec.add("fuzz.escaped", self.total_escaped() as u64);
        rec.add("fuzz.false_alarms", self.total_false_alarms() as u64);
        let benign_accepted: usize =
            self.cells.iter().map(|c| c.benign_accepted).sum();
        rec.add("fuzz.benign_accepted", benign_accepted as u64);
        let under_c_accepted: usize =
            self.cells.iter().map(|c| c.under_c_accepted).sum();
        rec.add("fuzz.under_c_accepted", under_c_accepted as u64);
        rec.add("fuzz.under_c_rejected", self.total_under_c_rejected() as u64);
        rec.add("fuzz.skipped", self.total_skipped() as u64);
        rec.add("fuzz.crashed", self.total_crashed() as u64);
        rec.add("fuzz.unclassified", self.total_unclassified() as u64);
        rec.add("fuzz.escapes_recorded", self.escapes.len() as u64);
        rec.add("fuzz.deduped", self.deduped as u64);
        rec.add("cache.hits", self.cache_hits as u64);
        rec.add("cache.misses", self.cache_misses as u64);
        rec.add("cache.stores", self.cache_stores as u64);
    }

    /// The kill matrix as deterministic JSON: pure counts and witness
    /// structure, no timings, no panic messages — byte-identical for
    /// any `jobs` value.
    pub fn kill_matrix_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"schema\": \"sbif-fuzz-kill-matrix-v1\",\n");
        let c = &self.config;
        s.push_str(&format!("  \"seed\": {},\n", c.seed));
        s.push_str(&format!("  \"per_model\": {},\n", c.per_model));
        s.push_str(&format!("  \"sim_words\": {},\n", c.sim_words));
        s.push_str(&format!("  \"classify_conflicts\": {},\n", c.classify_conflicts));
        s.push_str(&format!("  \"certify\": {},\n", c.certify));
        s.push_str("  \"seeds_verified\": [");
        for (i, r) in self.seeds.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let correct = match r.correct {
                Some(v) => v.to_string(),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "{{\"arch\": \"{}\", \"n\": {}, \"mode\": \"{}\", \"correct\": {}}}",
                r.arch,
                r.n,
                if r.correct.is_some() { "full" } else { "kill-only" },
                correct
            ));
        }
        s.push_str("],\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"arch\": \"{}\", \"n\": {}, \"model\": \"{}\", \
                 \"mode\": \"{}\", \"generated\": {}, \"benign\": {}, \
                 \"benign_under_c\": {}, \"semantic\": {}, \
                 \"unknown\": {}, \"killed\": {}, \"aborted\": {}, \
                 \"escaped\": {}, \"benign_accepted\": {}, \
                 \"false_alarms\": {}, \"under_c_accepted\": {}, \
                 \"under_c_rejected\": {}, \"skipped\": {}, \
                 \"crashed\": {}}}{}\n",
                c.arch,
                c.n,
                c.model,
                if c.kill_only { "kill-only" } else { "full" },
                c.generated,
                c.benign,
                c.benign_under_c,
                c.semantic,
                c.unknown,
                c.killed,
                c.aborted,
                c.escaped,
                c.benign_accepted,
                c.false_alarms,
                c.under_c_accepted,
                c.under_c_rejected,
                c.skipped,
                c.crashed,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"totals\": {{\"semantic\": {}, \"killed\": {}, \"aborted\": {}, \
             \"escaped\": {}, \"false_alarms\": {}, \"under_c_rejected\": {}, \
             \"skipped\": {}, \"crashed\": {}, \"unclassified\": {}}},\n",
            self.total_semantic(),
            self.total_killed(),
            self.total_aborted(),
            self.total_escaped(),
            self.total_false_alarms(),
            self.total_under_c_rejected(),
            self.total_skipped(),
            self.total_crashed(),
            self.total_unclassified()
        ));
        s.push_str("  \"escapes\": [");
        for (i, e) in self.escapes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let (shrunk_n, kept) = match &e.witness {
                Some(w) => (
                    w.n.to_string(),
                    w.kept_outputs
                        .iter()
                        .map(|o| format!("\"{o}\""))
                        .collect::<Vec<_>>()
                        .join(", "),
                ),
                None => ("null".to_string(), String::new()),
            };
            s.push_str(&format!(
                "{{\"arch\": \"{}\", \"n\": {}, \"model\": \"{}\", \
                 \"ordinal\": {}, \"kind\": \"{}\", \"shrunk_n\": {}, \
                 \"kept_outputs\": [{}]}}",
                e.arch, e.n, e.model, e.ordinal, e.kind, shrunk_n, kept
            ));
        }
        s.push_str("],\n");
        s.push_str(&format!("  \"success\": {}\n}}\n", self.success()));
        s
    }

    /// Human-readable summary table, including wall-clock timings.
    pub fn human_summary(&self) -> String {
        let mut s = String::new();
        s.push_str("seed verification:\n");
        for r in &self.seeds {
            s.push_str(&format!(
                "  {:>13} n={:<3} {}  ({:.2?})\n",
                r.arch.name(),
                r.n,
                match r.correct {
                    Some(true) => "correct",
                    Some(false) => "NOT CORRECT — BUG",
                    None => "skipped (kill-only: past the proven width frontier)",
                },
                r.wall
            ));
        }
        s.push_str(&format!(
            "\n{:>13} {:>3} {:>13} {:>9} {:>4} {:>7} {:>6} {:>7} {:>5} {:>7} {:>6} {:>7} {:>6} {:>6} {:>5} {:>6} {:>9}\n",
            "arch", "n", "model", "mode", "gen", "benign", "underC", "semant", "unkn",
            "killed", "abort", "escape", "false", "uCrej", "skip", "crash", "wall"
        ));
        for c in &self.cells {
            s.push_str(&format!(
                "{:>13} {:>3} {:>13} {:>9} {:>4} {:>7} {:>6} {:>7} {:>5} {:>7} {:>6} {:>7} {:>6} {:>6} {:>5} {:>6} {:>9}\n",
                c.arch.name(),
                c.n,
                c.model.name(),
                if c.kill_only { "kill-only" } else { "full" },
                c.generated,
                c.benign,
                c.benign_under_c,
                c.semantic,
                c.unknown,
                c.killed,
                c.aborted,
                c.escaped,
                c.false_alarms,
                c.under_c_rejected,
                c.skipped,
                c.crashed,
                format!("{:.2?}", c.wall),
            ));
        }
        s.push_str(&format!(
            "\ntotals: {} semantic, {} killed (+{} by abort), {} escaped, \
             {} false alarms, {} crashed, {} unclassified, \
             {} under-C rejected, {} skipped → {}\n",
            self.total_semantic(),
            self.total_killed(),
            self.total_aborted(),
            self.total_escaped(),
            self.total_false_alarms(),
            self.total_crashed(),
            self.total_unclassified(),
            self.total_under_c_rejected(),
            self.total_skipped(),
            if self.success() { "PASS" } else { "FAIL" }
        ));
        s.push_str(&format!(
            "work sharing: {} duplicate mutants deduped, cache {} hits / {} misses / {} stored\n",
            self.deduped, self.cache_hits, self.cache_misses, self.cache_stores
        ));
        for e in &self.escapes {
            s.push_str(&format!(
                "  {}: {} n={} {} ordinal {}{}\n",
                e.kind,
                e.arch,
                e.n,
                e.model,
                e.ordinal,
                match &e.witness {
                    Some(w) => format!(
                        " — shrunk to n={} over outputs [{}]",
                        w.n,
                        w.kept_outputs.join(", ")
                    ),
                    None => String::new(),
                }
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            seed: 7,
            jobs: 1,
            archs: vec![Arch::NonRestoring],
            widths: vec![3],
            models: vec![FaultModel::StuckAt1, FaultModel::InputSwap],
            per_model: 4,
            sim_words: 1,
            classify_conflicts: 50_000,
            max_terms: Some(100_000),
            certify: false,
            shrink: false,
        }
    }

    #[test]
    fn identical_json_for_any_job_count() {
        let reject_all = |_: &Divider| PipelineVerdict::NotCorrect;
        let one = tiny_config();
        let mut four = tiny_config();
        four.jobs = 4;
        let a = run_campaign(&one, &reject_all, None).kill_matrix_json();
        let b = run_campaign(&four, &reject_all, None).kill_matrix_json();
        assert_eq!(a, b, "kill matrix must not depend on --jobs");
    }

    #[test]
    fn accept_all_pipeline_turns_semantic_mutants_into_escapes() {
        let accept_all = |_: &Divider| PipelineVerdict::Correct;
        let mut cfg = tiny_config();
        cfg.models = vec![FaultModel::StuckAt1];
        cfg.shrink = true;
        let report = run_campaign(&cfg, &accept_all, None);
        assert!(report.total_semantic() > 0, "stuck-at-1 must hit semantics");
        assert_eq!(report.total_escaped(), report.total_semantic());
        assert!(!report.success());
        let with_witness =
            report.escapes.iter().filter(|e| e.witness.is_some()).count();
        assert!(with_witness > 0, "shrinker must reproduce at least one escape");
        for e in &report.escapes {
            if let Some(w) = &e.witness {
                assert!(w.n <= e.n);
                assert!(w.full_bnet.contains(".end"));
            }
        }
        assert!(report.kill_matrix_json().contains("\"kind\": \"escape\""));
    }

    #[test]
    fn panicking_pipeline_is_counted_and_shrunk_as_crash() {
        let panicky = |_: &Divider| -> PipelineVerdict { panic!("injected fault") };
        let mut cfg = tiny_config();
        cfg.models = vec![FaultModel::StuckAt0];
        cfg.per_model = 2;
        cfg.shrink = true;
        // Suppress the default panic hook's stderr noise for this test.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_campaign(&cfg, &panicky, None);
        std::panic::set_hook(prev);
        // Seeds also hit the panicking pipeline — but pipeline() is only
        // called through catch_unwind for mutants, so the seed phase
        // would abort the test. Guard: seeds must have been marked
        // incorrect rather than panicking the campaign…
        assert!(report.total_crashed() > 0);
        assert!(report.kill_matrix_json().contains("\"kind\": \"crash\""));
        for e in &report.escapes {
            assert_eq!(e.kind, "crash");
            if let Some(w) = &e.witness {
                assert_eq!(w.n, 2, "crash-on-everything must shrink to n=2");
            }
        }
    }

    #[test]
    fn dedupe_and_cache_pin_saved_pipeline_runs() {
        // tiny_config is fully deterministic: 8 mutants are generated,
        // 3 of which are structurally identical (digest-equal) to an
        // earlier one, so a cold campaign runs the pipeline exactly
        // 6 times — 1 unmutated seed + 5 representative mutants — and
        // a warm re-run over the shared cache runs it 0 times. These
        // counts are part of the work-sharing contract; a change here
        // means dedupe or the outcome cache regressed.
        let calls = AtomicUsize::new(0);
        let pipeline = |_: &Divider| {
            calls.fetch_add(1, Ordering::SeqCst);
            PipelineVerdict::NotCorrect
        };
        let cache = ResultCache::in_memory();
        let cfg = tiny_config();

        let cold = run_campaign(&cfg, &pipeline, Some(&cache));
        let cold_calls = calls.swap(0, Ordering::SeqCst);
        let warm = run_campaign(&cfg, &pipeline, Some(&cache));
        let warm_calls = calls.load(Ordering::SeqCst);

        // Work accounting, pinned.
        assert_eq!(cold_calls, 6, "cold pipeline runs");
        assert_eq!(warm_calls, 0, "warm run must re-prove nothing");
        assert_eq!((cold.deduped, cold.cache_hits, cold.cache_misses, cold.cache_stores), (3, 0, 6, 6));
        assert_eq!((warm.deduped, warm.cache_hits, warm.cache_misses, warm.cache_stores), (3, 6, 0, 0));

        // Outcome preservation: the kill matrix is byte-identical cold
        // vs warm (and therefore to a cache-free run — the cold run hit
        // nothing).
        assert_eq!(cold.kill_matrix_json(), warm.kill_matrix_json());
        let no_cache = run_campaign(&cfg, &pipeline, None);
        assert_eq!(no_cache.kill_matrix_json(), cold.kill_matrix_json());
        assert_eq!((no_cache.cache_hits, no_cache.cache_misses), (0, 0));
        assert_eq!(no_cache.deduped, 3, "dedupe is on even without a cache");

        // The counters surface in the deterministic metrics report.
        let rec = sbif_trace::Recorder::new();
        warm.record_metrics(&rec);
        let report = rec.finish();
        assert_eq!(report.counter("fuzz.deduped"), 3);
        assert_eq!(report.counter("cache.hits"), 6);
        assert_eq!(report.counter("cache.misses"), 0);
    }

    #[test]
    fn disk_cache_survives_a_fresh_instance() {
        let dir = std::env::temp_dir()
            .join(format!("sbif_fuzz_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reject_all = |_: &Divider| PipelineVerdict::NotCorrect;
        let cfg = tiny_config();
        let cold = {
            let cache = ResultCache::on_disk(&dir).unwrap();
            run_campaign(&cfg, &reject_all, Some(&cache))
        };
        // A brand-new cache instance over the same directory — the
        // cross-process warm-start scenario of `--cache-dir`.
        let cache = ResultCache::on_disk(&dir).unwrap();
        let warm = run_campaign(&cfg, &reject_all, Some(&cache));
        assert_eq!(warm.cache_hits, cold.cache_misses);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(cold.kill_matrix_json(), warm.kill_matrix_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn totals_are_consistent() {
        let reject_all = |_: &Divider| PipelineVerdict::NotCorrect;
        let report = run_campaign(&tiny_config(), &reject_all, None);
        let generated: usize = report.cells.iter().map(|c| c.generated).sum();
        assert_eq!(
            generated,
            report.total_semantic()
                + report.cells.iter().map(|c| c.benign).sum::<usize>()
                + report.cells.iter().map(|c| c.benign_under_c).sum::<usize>()
                + report.total_unclassified()
                + report.total_crashed()
        );
        // reject-all in a full-mode cell: every strictly benign mutant
        // is a false alarm, every under-C one a tolerated rejection.
        assert_eq!(
            report.total_false_alarms(),
            report.cells.iter().map(|c| c.benign).sum::<usize>()
        );
        assert_eq!(
            report.total_under_c_rejected(),
            report.cells.iter().map(|c| c.benign_under_c).sum::<usize>()
        );
    }

    #[test]
    fn kill_only_cells_skip_seed_and_benign_pipeline_runs() {
        // SRT at n = 8 is past the proven frontier: the campaign must
        // not consult the pipeline for the seed or for benign mutants,
        // so even a reject-all pipeline produces no false alarms there.
        let reject_all = |_: &Divider| PipelineVerdict::NotCorrect;
        let cfg = CampaignConfig {
            seed: 11,
            jobs: 1,
            archs: vec![Arch::Srt],
            widths: vec![8],
            models: vec![FaultModel::InputSwap],
            per_model: 3,
            sim_words: 1,
            classify_conflicts: 100_000,
            max_terms: Some(100_000),
            certify: false,
            shrink: false,
        };
        let report = run_campaign(&cfg, &reject_all, None);
        assert_eq!(report.seeds.len(), 1);
        assert_eq!(report.seeds[0].correct, None);
        assert!(report.cells.iter().all(|c| c.kill_only));
        assert_eq!(report.total_false_alarms(), 0);
        assert_eq!(report.total_under_c_rejected(), 0);
        // Every classified-benign mutant was skipped, every semantic
        // one killed; either way the campaign passes.
        let benign: usize =
            report.cells.iter().map(|c| c.benign + c.benign_under_c).sum();
        assert_eq!(report.total_skipped(), benign);
        assert_eq!(report.total_killed(), report.total_semantic());
        assert!(report.success());
        assert!(report.kill_matrix_json().contains("\"mode\": \"kill-only\""));
    }
}

//! Fault injection and differential fuzzing for the divider pipeline.
//!
//! The paper claims *fully automatic* verification with no golden
//! netlist — credible only if the flow also rejects every buggy divider.
//! This crate stresses that direction:
//!
//! * [`mutate`] — classic gate-level fault models (operator flip, input
//!   swap/negation, stuck-at-0/1, wire cross-connect, per-cell
//!   off-by-one) applied to generated dividers,
//! * [`classify`](mod@classify) — a simulation-then-SAT equivalence filter that sorts
//!   each mutant into *benign* (equivalent on every input), *benign
//!   under C* (equivalent only on constraint-satisfying inputs) or
//!   *semantics-changing*,
//! * [`campaign`] — a deterministic, `--jobs`-parallel campaign runner:
//!   every semantics-changing mutant must come back NOT correct from the
//!   full pipeline (vc1 SBIF rewriting + vc2 BDD); where the
//!   architecture is within its proven width frontier
//!   ([`Arch::proven_width_limit`]) benign mutants and the unmutated
//!   seed must also verify, beyond it the cell runs *kill-only*; the
//!   JSON kill matrix is bit-identical for any worker count,
//! * [`shrink`] — a delta-debugging shrinker (width descent + ddmin over
//!   the output set) that minimizes escaping or crashing mutants to a
//!   small cone before they are landed in the replay corpus.

pub mod campaign;
pub mod classify;
pub mod mutate;
pub mod shrink;

pub use campaign::{
    default_pipeline, run_campaign, CampaignConfig, CampaignReport, CellStats, EscapeRecord,
    MutantOutcome, PipelineVerdict,
};
pub use classify::{classify, strict_miter, subset_miter, MutantClass};
pub use mutate::{apply, enumerate_sites, instantiate, pick, FaultModel, Mutation};
pub use shrink::{ddmin, shrink_escape, ShrunkWitness};

use sbif_netlist::build::{
    array_divider, nonrestoring_divider, restoring_divider, srt_divider, Divider,
};

/// A divider generator the fuzzer can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Arch {
    /// [`nonrestoring_divider`].
    NonRestoring,
    /// [`restoring_divider`].
    Restoring,
    /// [`array_divider`].
    Array,
    /// [`srt_divider`].
    Srt,
}

impl Arch {
    /// All architectures, in the canonical campaign order.
    pub fn all() -> [Arch; 4] {
        [Arch::NonRestoring, Arch::Restoring, Arch::Array, Arch::Srt]
    }

    /// Builds the seed divider of this architecture.
    pub fn build(self, n: usize) -> Divider {
        match self {
            Arch::NonRestoring => nonrestoring_divider(n),
            Arch::Restoring => restoring_divider(n),
            Arch::Array => array_divider(n),
            Arch::Srt => srt_divider(n),
        }
    }

    /// Stable lowercase name (used in reports, file names and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            Arch::NonRestoring => "nonrestoring",
            Arch::Restoring => "restoring",
            Arch::Array => "array",
            Arch::Srt => "srt",
        }
    }

    /// Parses a CLI architecture name.
    pub fn parse(s: &str) -> Option<Arch> {
        Arch::all().into_iter().find(|a| a.name() == s)
    }

    /// Largest width at which the pipeline is known to *prove* the
    /// unmutated seed correct (`None` = no practical limit). Beyond it
    /// the campaign runs the cell in *kill-only* mode: semantic mutants
    /// must still be rejected, but the seed and benign mutants are not
    /// expected to verify.
    ///
    /// The limits restate the repo's own frontier tests: SBIF carries
    /// non-restoring/restoring subtract cells, but the polynomial
    /// blow-up returns for the array divider and the radix-2 SRT
    /// divider (`tests/array_divider.rs`, `tests/srt.rs` — the paper's
    /// Sect. VII outlook). Restoring's extra restore-mux layer pushes
    /// it over the term limit from n = 7 on.
    pub fn proven_width_limit(self) -> Option<usize> {
        match self {
            Arch::NonRestoring => None,
            Arch::Restoring => Some(6),
            Arch::Array => Some(6),
            Arch::Srt => Some(5),
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_names_roundtrip() {
        for a in Arch::all() {
            assert_eq!(Arch::parse(a.name()), Some(a));
        }
        assert_eq!(Arch::parse("frobnicating"), None);
    }

    #[test]
    fn arch_builds_requested_width() {
        for a in Arch::all() {
            assert_eq!(a.build(4).n, 4);
        }
    }
}

//! # SBIF — fully automatic divider verification
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! *"Symbolic Computer Algebra and SAT Based Information Forwarding for
//! Fully Automatic Divider Verification"* (Scholl & Konrad, DAC 2020).
//!
//! See the individual crates for the subsystems:
//!
//! * [`analysis`] — the deterministic static-analysis framework
//!   (ternary propagation, structural hashing, cone slicing, shadow
//!   signatures) that prefilters SBIF's SAT work, see DESIGN.md §14,
//! * [`apint`] — arbitrary-precision signed integers,
//! * [`cache`] — the content-addressed verification result cache
//!   keyed by canonical cone digests (`--cache-dir`, DESIGN.md §15),
//! * [`poly`] — pseudo-Boolean polynomials,
//! * [`netlist`] — gate-level circuits and divider generators,
//! * [`sat`] — a CDCL SAT solver with Tseitin encoding,
//! * [`bdd`] — an ROBDD package with dynamic reordering,
//! * [`core`] — SCA backward rewriting + SBIF + the full verifier,
//! * [`cec`] — the SAT-miter and SAT-sweeping baselines,
//! * [`check`] — independent DRAT proof checking (`--certify`) and the
//!   `sbif-lint` netlist static analyzer,
//! * [`fuzz`] — gate-level fault injection and the `sbif-fuzz`
//!   mutation-kill campaign runner,
//! * [`trace`] — structured events, deterministic counters/gauges and
//!   the snapshot-tested metrics report (`--trace`, see DESIGN.md §12).
//!
//! # Examples
//!
//! Verify an 8-bit non-restoring divider end to end:
//!
//! ```
//! use sbif::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let divider = nonrestoring_divider(8);
//! let report = DividerVerifier::new(&divider).verify()?;
//! assert!(report.is_correct());
//! # Ok(())
//! # }
//! ```

pub mod serve;

pub use sbif_analysis as analysis;
pub use sbif_apint as apint;
pub use sbif_bdd as bdd;
pub use sbif_cache as cache;
pub use sbif_cec as cec;
pub use sbif_check as check;
pub use sbif_core as core;
pub use sbif_fuzz as fuzz;
pub use sbif_govern as govern;
pub use sbif_netlist as netlist;
pub use sbif_poly as poly;
pub use sbif_sat as sat;
pub use sbif_trace as trace;

/// Reads the value of the command-line flag `flag`: the next argument
/// of `args`, converted by `parse`.
///
/// # Errors
///
/// `"<flag> wants <want>"` when the value is missing, with `", got
/// <value>"` appended when `parse` rejects it.
pub fn flag_value<T>(
    flag: &str,
    args: &mut dyn Iterator<Item = String>,
    want: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    let value = args.next().ok_or_else(|| format!("{flag} wants {want}"))?;
    parse(&value).ok_or_else(|| format!("{flag} wants {want}, got {value:?}"))
}

/// One-stop imports for the common verification flow.
pub mod prelude {
    pub use sbif_apint::Int;
    pub use sbif_core::prelude::*;
    pub use sbif_netlist::prelude::*;
    pub use sbif_poly::{Monomial, Poly, Var};
}

//! SCA backward rewriting with SAT Based Information Forwarding — the
//! paper's contribution.
//!
//! The crate implements the full verification flow of *"Symbolic Computer
//! Algebra and SAT Based Information Forwarding for Fully Automatic
//! Divider Verification"* (Scholl & Konrad, DAC 2020):
//!
//! * [`gatepoly`] — gate polynomials for pseudo-Boolean backward
//!   rewriting (Sect. II-A);
//! * [`spec`] — specification polynomials: the divider specification
//!   `SP = Q·D + R − R⁰` of Sect. III, the signed-adder polynomials of
//!   Lemma 2, and a multiplier specification for contrast experiments;
//! * [`blocks`] — detection of half/full-adder atomic blocks (the
//!   restriction of \[10\], \[11\] the paper's footnote describes);
//! * [`rewrite`] — the backward rewriting engine with per-step size
//!   statistics and term limits (Table I, Fig. 3, Fig. 4), including the
//!   *modified* backward rewriting of Alg. 2 that substitutes class
//!   representatives as early as possible;
//! * [`sbif`] — SAT Based Information Forwarding (Alg. 1): constrained
//!   random simulation for candidates, a polarity union-find over
//!   signals, and windowed SAT equivalence checks that forward already
//!   proven information;
//! * [`vc2`] — the BDD-based proof of `0 ≤ R < D` (Sect. V);
//! * [`verify`] — the end-to-end [`DividerVerifier`](verify::DividerVerifier).
//!
//! # Examples
//!
//! ```
//! use sbif_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let divider = nonrestoring_divider(4);
//! let report = DividerVerifier::new(&divider).verify()?;
//! assert!(report.is_correct());
//! println!("{} equivalences, peak {} terms", report.vc1.sbif.proven, report.vc1.rewrite.peak_terms);
//! # Ok(())
//! # }
//! ```

pub mod blocks;
pub mod error;
pub mod gatepoly;
pub mod rewrite;
pub mod sbif;
pub mod spec;
pub mod vc2;
pub mod verify;

pub use error::VerifyError;

/// Convenient imports for the verification flow.
pub mod prelude {
    pub use crate::error::VerifyError;
    pub use crate::rewrite::{BackwardRewriter, RewriteConfig, RewriteStats};
    pub use crate::sbif::{EquivClasses, SbifConfig, SbifStats};
    pub use crate::vc2::{check_vc2, Vc2Report};
    pub use crate::verify::{DividerVerifier, VerificationReport, VerifierConfig, Vc1Outcome};
    pub use sbif_netlist::build::nonrestoring_divider;
}

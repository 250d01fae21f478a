//! Error types of the verification flow.

use sbif_govern::Exhausted;
use std::fmt;

/// Errors that abort a verification run (as opposed to a *negative
/// verification result*, which is reported, not thrown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Backward rewriting exceeded the configured term limit — the
    /// "MEMOUT" entries of the paper's Table I.
    TermLimitExceeded {
        /// The configured limit.
        limit: usize,
        /// The number of terms at the moment rewriting gave up.
        reached: usize,
        /// Substitution steps performed before the blow-up.
        steps: usize,
    },
    /// The wall-clock watchdog cancelled a stage that was handed its
    /// token (backward rewriting); the record names the stage. The
    /// governed flow reports it as a `Vc1Outcome::Exhausted` verdict.
    /// Table II's TO entries are not this: they are the baselines'
    /// `CecResult::Unknown`.
    Timeout(Exhausted),
    /// The divider does not have the operand interface the flow samples
    /// its stimulus through: `n < 2`, a dividend or divisor word that is
    /// not `2n−2` or `n−1` bits wide, or a primary input that is not
    /// exactly one bit of those words. Input names play no part.
    MalformedInterface(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::TermLimitExceeded { limit, reached, steps } => write!(
                f,
                "polynomial blow-up: {reached} terms after {steps} substitutions \
                 (limit {limit})"
            ),
            VerifyError::Timeout(e) => write!(f, "{e}"),
            VerifyError::MalformedInterface(msg) => {
                write!(f, "netlist lacks the divider interface: {msg}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = VerifyError::TermLimitExceeded { limit: 10, reached: 11, steps: 3 };
        assert!(e.to_string().contains("blow-up"));
        assert!(e.to_string().contains("11"));
        let e = VerifyError::Timeout(sbif_govern::CancelToken::new().exhausted("sbif"));
        assert!(e.to_string().contains("sbif"));
        let e = VerifyError::MalformedInterface("no q bus".into());
        assert!(e.to_string().contains("no q bus"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> =
            Box::new(VerifyError::Timeout(sbif_govern::CancelToken::new().exhausted("vc2")));
        assert!(e.to_string().contains("vc2"));
    }
}

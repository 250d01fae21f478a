//! The per-layer performance ledger of the SBIF divider verifier.
//!
//! The ledger measures each layer from outside: it times its own calls
//! into the public API (the divider generators, `write_bnet`/`read_bnet`,
//! `DividerVerifier::verify`, `sat_cec`) and reads the phase spans the
//! verifier already opens through an in-memory [`spans::SpanFolder`]
//! attached to the public `Recorder`. See `README.md` for the workloads,
//! the metrics and the seed rule.

pub mod ledger;
pub mod perturb;
pub mod spans;
pub mod workloads;

//! A CDCL SAT solver with Tseitin encoding of gate-level netlists.
//!
//! The paper relies on a "modern SAT solver" in two places: the windowed
//! equivalence checks of SAT Based Information Forwarding (Alg. 1) and
//! the MiniSat baseline of Table II. No SAT solver is available in the
//! allowed dependency set, so this crate implements one from scratch, in
//! the MiniSat lineage:
//!
//! * two-watched-literal unit propagation with blocking literals,
//! * first-UIP conflict analysis with clause learning,
//! * VSIDS (exponential) variable activities with phase saving,
//! * Luby-sequence restarts,
//! * LBD-based learnt-clause database reduction,
//! * incremental solving under assumptions,
//! * conflict budgets and a cooperative interrupt flag (the "TO"
//!   entries of Table II).
//!
//! [`tseitin`] encodes [`sbif_netlist::Netlist`] cones into CNF; [`dimacs`]
//! reads and writes the standard exchange format.
//!
//! # Examples
//!
//! ```
//! use sbif_sat::{Lit, SolveResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.model_value(b), Some(true));
//! s.add_clause([Lit::neg(b)]);
//! assert_eq!(s.solve(), SolveResult::Unsat);
//! ```

pub mod dimacs;
mod lit;
pub mod proof;
mod solver;
pub mod tseitin;

pub use lit::{Lit, Var};
pub use proof::{ProofEvent, ProofLog};
pub use solver::{Budget, SolveResult, Solver, SolverStats};
pub use tseitin::NetlistEncoder;

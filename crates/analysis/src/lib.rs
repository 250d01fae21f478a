//! Deterministic static analysis over gate-level netlists (DESIGN.md §14).
//!
//! A fixed pipeline of steps that computes cheap whole-netlist facts
//! *before* the expensive engines run, so SBIF's windowed SAT
//! (`sbif-core`) only pays for candidates that survive a structural
//! look:
//!
//! * **[`ternary`]** — 0/1/X constant propagation with backward
//!   justification of the side condition C (forced inputs, stuck-at
//!   signals, constant folding).
//! * **[`strash`]** — canonical commutative structural hashing:
//!   per-signal Merkle digests with AIG-style phase separation, the
//!   per-cone cache key of ROADMAP item 3, and immediate structural
//!   equivalence/antivalence classes.
//! * **cone slicing** — cone-of-influence mask keyed on the primary
//!   outputs plus C ([`AnalysisDb::live`]), behind `sbif-lint`'s
//!   `unreachable` rule.
//! * **[`signature`]** — shadow simulation signatures from an
//!   independent stimulus set, used by the SBIF prefilter to refute
//!   candidate pairs without building a window solver.
//!
//! [`analyze`] runs the steps in order into a shared [`AnalysisDb`] of
//! per-signal facts; every step emits `analysis.*` trace counters and
//! a `span.analysis.<step>` span.
//! **Determinism contract:** the whole pipeline is single-threaded and
//! derives only from `(netlist, config)`, so the database, its
//! [`AnalysisDb::to_json`] dump and all counters are byte-identical
//! across runs, machines and `--jobs` values.
//!
//! [`lint::findings`] turns the database into the warning set behind
//! `sbif-lint`.
//!
//! # Examples
//!
//! ```
//! use sbif_analysis::{analyze, AnalysisConfig};
//! use sbif_netlist::Netlist;
//! use sbif_trace::Recorder;
//!
//! let mut nl = Netlist::new();
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let g = nl.and(a, b);
//! nl.add_output("o", g);
//! let db = analyze(&nl, &AnalysisConfig::default(), &Recorder::new());
//! assert!(db.live[g.index()]);
//! assert_eq!(db.core.len(), nl.num_signals());
//! ```

pub mod cachekey;
pub mod canon;
pub mod db;
pub mod lint;
pub mod pass;
pub mod signature;
pub mod strash;
pub mod ternary;

pub use cachekey::{design_digest, ConeDigest, DesignDigest};
pub use canon::{canon_of, relate, CanonForm};
pub use db::AnalysisDb;
pub use lint::{findings, Finding};
pub use pass::{analyze, AnalysisConfig};
pub use ternary::Ternary;

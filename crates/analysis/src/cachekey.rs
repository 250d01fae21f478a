//! Content-addressed cache keys for verification results.
//!
//! A verification verdict is a pure function of three things: the
//! *function* each declared output computes over the named input
//! interface, the side condition C, and the flow configuration. This
//! module derives a canonical digest of exactly that triple from the
//! [`strash`] step, giving the result cache (ROADMAP
//! item 3, `sbif-cache`) its key:
//!
//! * **per-cone digests** — each output's `(core, phase)` Merkle pair.
//!   Structure-preserving edits leave them untouched; a mutated gate
//!   changes precisely the cones it feeds, which is what lets a warm
//!   re-verification account hits and misses cone by cone.
//! * **a 128-bit design key** — the per-cone digests folded together
//!   with the output names (declaration order), the input names
//!   (ordinal order — the digest already binds each cone to input
//!   *positions*, the names pin the external interface), the
//!   constraint's own cone digest, and an opaque configuration
//!   fingerprint string chosen by the caller.
//!
//! Everything is derived from [`strash::digests`], so two netlists
//! that differ only in dead logic, gate numbering, or commutation /
//! De Morgan spelling of the same cones produce the same key.

use crate::strash::{self, mix2};
use sbif_netlist::{Netlist, Sig};

/// The canonical digest of one declared output cone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConeDigest {
    /// The declared output name.
    pub output: String,
    /// Merkle core of the output signal (see [`strash::StrashResult`]).
    pub core: u64,
    /// Polarity of the output relative to the core.
    pub phase: bool,
}

/// The canonical digest of a whole verification problem; see
/// [`design_digest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignDigest {
    /// 128-bit content key over (cones, interface, constraint, config).
    pub key: u128,
    /// Per-cone digests in output declaration order.
    pub cones: Vec<ConeDigest>,
}

const KEY_TAG_LO: u64 = 0x5b1f_ca5e_b10c_4ed1;
const KEY_TAG_HI: u64 = 0xc0de_cafe_0d15_ea5e;
const STR_TAG: u64 = 0x7e11_57a6_5eed_f00d;
const CONSTRAINT_TAG: u64 = 0xc057_a217_0000_0001;

/// Folds a string into a running digest, length-prefixed so
/// concatenation ambiguities ("ab","c" vs "a","bc") cannot collide.
fn mix_str(acc: u64, s: &str) -> u64 {
    let mut h = mix2(STR_TAG, s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = mix2(h, u64::from_le_bytes(w));
    }
    mix2(acc, h)
}

/// Derives the content-addressed cache key of `(nl, constraint,
/// fingerprint)`.
///
/// `fingerprint` is an opaque string describing every configuration
/// knob that can change the verdict or the logical metrics (solver
/// limits, SBIF options, certify mode, schema versions …); callers are
/// expected to build it once per flow and keep it stable. The key is
/// independent of `--jobs`, of dead logic, and of gate numbering — it
/// depends only on the computed output functions, the named interface,
/// C, and the fingerprint.
pub fn design_digest(nl: &Netlist, constraint: Option<Sig>, fingerprint: &str) -> DesignDigest {
    let r = strash::digests(nl);
    let cones: Vec<ConeDigest> = nl
        .outputs()
        .iter()
        .map(|(name, s)| ConeDigest {
            output: name.clone(),
            core: r.core[s.index()],
            phase: r.phase[s.index()],
        })
        .collect();

    let mut lo = KEY_TAG_LO;
    let mut hi = KEY_TAG_HI;
    let mut fold = |w: u64| {
        lo = mix2(lo, w);
        hi = mix2(hi, lo ^ w.rotate_left(17));
    };
    fold(cones.len() as u64);
    for c in &cones {
        let mut h = mix_str(0, &c.output);
        h = mix2(h, (c.core << 1) | c.phase as u64);
        fold(h);
    }
    fold(nl.inputs().len() as u64);
    for &s in nl.inputs() {
        // Inputs are hashed by ordinal inside the cones; the *names*
        // bind the external interface (bus grouping, Divider mapping).
        fold(mix_str(0, nl.name(s).unwrap_or("")));
    }
    match constraint {
        Some(c) => fold(mix2(
            CONSTRAINT_TAG,
            (r.core[c.index()] << 1) | r.phase[c.index()] as u64,
        )),
        None => fold(CONSTRAINT_TAG),
    }
    fold(mix_str(0, fingerprint));

    DesignDigest { key: ((hi as u128) << 64) | lo as u128, cones }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::{BinOp, Gate};

    fn xor_pair(pad: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        for i in 0..pad {
            // Dead logic: never reaches an output.
            let d = nl.push_gate(Gate::Binary(BinOp::Or, a, b));
            nl.set_name(d, &format!("pad{i}"));
        }
        let g = nl.push_gate(Gate::Binary(BinOp::Xor, a, b));
        let h = nl.push_gate(Gate::Binary(BinOp::And, a, b));
        nl.add_output("x", g);
        nl.add_output("y", h);
        nl
    }

    #[test]
    fn key_ignores_dead_logic_and_numbering() {
        let d0 = design_digest(&xor_pair(0), None, "cfg");
        let d5 = design_digest(&xor_pair(5), None, "cfg");
        assert_eq!(d0.key, d5.key);
        assert_eq!(d0.cones, d5.cones);
    }

    #[test]
    fn key_binds_config_constraint_and_interface() {
        let nl = xor_pair(0);
        let base = design_digest(&nl, None, "cfg");
        assert_ne!(base.key, design_digest(&nl, None, "cfg2").key, "fingerprint");
        let c = nl.output("y").unwrap();
        assert_ne!(base.key, design_digest(&nl, Some(c), "cfg").key, "constraint");

        // Renaming an input changes the interface, hence the key — but
        // not the cone digests (those hash input ordinals).
        let mut renamed = Netlist::new();
        let a = renamed.input("a2");
        let b = renamed.input("b");
        let g = renamed.push_gate(Gate::Binary(BinOp::Xor, a, b));
        let h = renamed.push_gate(Gate::Binary(BinOp::And, a, b));
        renamed.add_output("x", g);
        renamed.add_output("y", h);
        let d = design_digest(&renamed, None, "cfg");
        assert_ne!(base.key, d.key);
        assert_eq!(base.cones, d.cones);
    }

    #[test]
    fn mutation_dirties_exactly_its_cones() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("c");
        let g = nl.push_gate(Gate::Binary(BinOp::Xor, a, b));
        let h = nl.push_gate(Gate::Binary(BinOp::And, b, c));
        nl.add_output("x", g);
        nl.add_output("y", h);
        let base = design_digest(&nl, None, "cfg");

        let mut mutated = Netlist::new();
        let a = mutated.input("a");
        let b = mutated.input("b");
        let c = mutated.input("c");
        let g = mutated.push_gate(Gate::Binary(BinOp::Xor, a, b));
        let h = mutated.push_gate(Gate::Binary(BinOp::Or, b, c)); // AND → OR
        mutated.add_output("x", g);
        mutated.add_output("y", h);
        let dirty = design_digest(&mutated, None, "cfg");

        assert_ne!(base.key, dirty.key);
        assert_eq!(base.cones[0], dirty.cones[0], "untouched cone survives");
        assert_ne!(base.cones[1].core, dirty.cones[1].core, "mutated cone is dirty");
    }

    #[test]
    fn key_sees_through_commutation() {
        let mk = |swap: bool| {
            let mut nl = Netlist::new();
            let a = nl.input("a");
            let b = nl.input("b");
            let g = if swap {
                nl.push_gate(Gate::Binary(BinOp::And, b, a))
            } else {
                nl.push_gate(Gate::Binary(BinOp::And, a, b))
            };
            nl.add_output("o", g);
            design_digest(&nl, None, "cfg").key
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn output_names_and_order_matter() {
        let mk = |names: [&str; 2]| {
            let mut nl = Netlist::new();
            let a = nl.input("a");
            let b = nl.input("b");
            let g = nl.push_gate(Gate::Binary(BinOp::Xor, a, b));
            let h = nl.push_gate(Gate::Binary(BinOp::And, a, b));
            nl.add_output(names[0], g);
            nl.add_output(names[1], h);
            design_digest(&nl, None, "cfg").key
        };
        assert_ne!(mk(["x", "y"]), mk(["y", "x"]));
    }
}

//! Word-level signal bundles.

use crate::{Netlist, Sig};
use std::ops::Index;

/// A little-endian bundle of signals representing a machine word.
///
/// `bits()[0]` is the least significant bit. For two's-complement words
/// the most significant bit is the sign bit.
///
/// # Examples
///
/// ```
/// use sbif_netlist::{Netlist, Word};
///
/// let mut nl = Netlist::new();
/// let w = Word::inputs(&mut nl, "a", 4);
/// assert_eq!(w.len(), 4);
/// assert_eq!(nl.name(w[0]), Some("a[0]"));
/// assert_eq!(w.msb(), w[3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    bits: Vec<Sig>,
}

impl Word {
    /// Wraps an explicit little-endian signal list.
    pub fn new(bits: Vec<Sig>) -> Self {
        Word { bits }
    }

    /// Creates `width` fresh primary inputs named `name[0] … name[width-1]`.
    pub fn inputs(nl: &mut Netlist, name: &str, width: usize) -> Self {
        let bits = (0..width).map(|i| nl.input(&format!("{name}[{i}]"))).collect();
        Word { bits }
    }

    /// A word of constant-zero signals.
    pub fn zeros(nl: &mut Netlist, width: usize) -> Self {
        let z = nl.const0();
        Word { bits: vec![z; width] }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` if the word has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bits, least significant first.
    pub fn bits(&self) -> &[Sig] {
        &self.bits
    }

    /// The most significant bit (sign bit for two's-complement words).
    ///
    /// # Panics
    ///
    /// Panics if the word is empty.
    pub fn msb(&self) -> Sig {
        *self.bits.last().expect("empty word has no msb")
    }

    /// A sub-word of the given bit range.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Word {
        Word { bits: self.bits[range].to_vec() }
    }

    /// Zero-extends to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width < self.len()`.
    pub fn zext(&self, nl: &mut Netlist, width: usize) -> Word {
        assert!(width >= self.len(), "cannot zero-extend {} to {width}", self.len());
        let z = nl.const0();
        let mut bits = self.bits.clone();
        bits.resize(width, z);
        Word { bits }
    }

    /// Registers every bit as primary output `name[i]`.
    pub fn make_outputs(&self, nl: &mut Netlist, name: &str) {
        for (i, &s) in self.bits.iter().enumerate() {
            nl.add_output(&format!("{name}[{i}]"), s);
        }
    }

    /// Iterates over the bits, least significant first.
    pub fn iter(&self) -> std::slice::Iter<'_, Sig> {
        self.bits.iter()
    }
}

impl Index<usize> for Word {
    type Output = Sig;
    fn index(&self, i: usize) -> &Sig {
        &self.bits[i]
    }
}

impl<'a> IntoIterator for &'a Word {
    type Item = &'a Sig;
    type IntoIter = std::slice::Iter<'a, Sig>;
    fn into_iter(self) -> Self::IntoIter {
        self.bits.iter()
    }
}

impl FromIterator<Sig> for Word {
    fn from_iter<T: IntoIterator<Item = Sig>>(iter: T) -> Self {
        Word { bits: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_named_and_ordered() {
        let mut nl = Netlist::new();
        let w = Word::inputs(&mut nl, "x", 3);
        assert_eq!(nl.inputs().len(), 3);
        assert_eq!(nl.name(w[1]), Some("x[1]"));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn shifting_and_extension() {
        let mut nl = Netlist::new();
        let w = Word::inputs(&mut nl, "x", 2);
        let zx = w.zext(&mut nl, 4);
        assert_eq!(zx.len(), 4);
        assert_eq!(zx[1], w[1]);
        assert_eq!(nl.const_value(zx[2]), Some(false));
        assert_eq!(nl.const_value(zx[3]), Some(false));
    }

    #[test]
    fn slicing() {
        let mut nl = Netlist::new();
        let w = Word::inputs(&mut nl, "x", 5);
        let s = w.slice(1..4);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], w[1]);
        assert_eq!(s.msb(), w[3]);
    }

    #[test]
    fn outputs_roundtrip_through_eval() {
        let mut nl = Netlist::new();
        let w = Word::inputs(&mut nl, "x", 4);
        w.make_outputs(&mut nl, "y");
        let out = nl.eval_u64(&[("x", 0b1011)]);
        assert_eq!(out["y"], 0b1011);
    }
}

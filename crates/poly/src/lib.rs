//! Pseudo-Boolean polynomials for Symbolic Computer Algebra verification.
//!
//! A *pseudo-Boolean function* maps `{0,1}^n → ℤ`. Polynomials over binary
//! variables with integer coefficients — normalized so that powers `v^k`
//! with `k > 1` collapse to `v`, terms with equal monomials merge, and zero
//! coefficients vanish — are **canonical** representations of such
//! functions (Sect. II-A of the paper). This crate implements that normal
//! form together with the ring operations and the in-place variable
//! substitutions `p[v ← q]` that drive backward rewriting.
//!
//! Polynomials are stored as term vectors sorted in a degree-lexicographic
//! monomial order, which keeps the representation canonical *by
//! construction* and makes addition a linear merge.
//!
//! # Examples
//!
//! Build the full-adder output signature `2·c + s`, substitute the gate
//! polynomials and obtain the input signature `a + b + cin`:
//!
//! ```
//! use sbif_poly::{Poly, Var};
//!
//! let (a, b, cin, s, c) = (Var(0), Var(1), Var(2), Var(3), Var(4));
//! let sig = Poly::from_var(c) * Poly::constant(2) + Poly::from_var(s);
//! // s = a ⊕ b ⊕ cin, c = majority(a, b, cin)
//! let sum = Poly::xor(&Poly::xor(&Poly::from_var(a), &Poly::from_var(b)),
//!                     &Poly::from_var(cin));
//! let carry = Poly::majority3(a, b, cin);
//! let mut result = sig;
//! result.substitute(c, &carry);
//! result.substitute(s, &sum);
//! let spec = Poly::from_var(a) + Poly::from_var(b) + Poly::from_var(cin);
//! assert_eq!(result, spec);
//! ```

mod display;
mod eval;
mod monomial;
mod poly;
mod subst;
mod words;

pub use monomial::{Monomial, Var};
pub use poly::{Poly, Term};
pub use words::{signed_word, unsigned_word};

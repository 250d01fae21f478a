//! Constrained random simulation (line 1–2 of Alg. 1): input vectors
//! satisfying `C = (0 ≤ R⁰ < D·2^(n−1))`.

use sbif_netlist::build::Divider;
use sbif_rng::XorShift64;

/// Samples `words` simulation words (64 patterns each) per primary input
/// of the divider, all satisfying the input constraint `C`.
///
/// The constraint is equivalent to `hi < D` where `hi` is the upper
/// `n−1` bits of the dividend, so a pattern is built from a uniform
/// divisor and a uniform `hi` (swapped when necessary), with uniform low
/// dividend bits.
///
/// Operand bit `i` is bit `i` of the divider's [`Divider::dividend`] or
/// [`Divider::divisor`] word, whatever its input is named. The result is
/// indexed `[input][word]` in the netlist's input order and can be fed
/// directly to [`sbif_netlist::Netlist::simulate64`].
///
/// # Panics
///
/// Panics if a primary input is no operand bit. `DividerVerifier`
/// checks the interface before it samples and reports such a divider as
/// `VerifyError::MalformedInterface`.
pub fn divider_sim_words(div: &Divider, seed: u64, words: usize) -> Vec<Vec<u64>> {
    let n = div.n;
    let num_lo = n - 1; // dividend bits 0 .. n-2
    let num_hi = n - 1; // dividend bits n-1 .. 2n-3
    let num_d = n - 1;
    let mut rng = XorShift64::seed_from_u64(seed);
    // bit planes, little endian per operand
    let mut lo = vec![vec![0u64; words]; num_lo];
    let mut hi = vec![vec![0u64; words]; num_hi];
    let mut d = vec![vec![0u64; words]; num_d];
    for w in 0..words {
        for k in 0..64 {
            // Sample divisor and hi bits; enforce hi < d.
            let mut db: Vec<bool> = (0..num_d).map(|_| rng.next_bool()).collect();
            let mut hb: Vec<bool> = (0..num_hi).map(|_| rng.next_bool()).collect();
            match cmp_bits(&hb, &db) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Greater => std::mem::swap(&mut db, &mut hb),
                std::cmp::Ordering::Equal => {
                    for x in hb.iter_mut() {
                        *x = false;
                    }
                }
            }
            if db.iter().all(|&x| !x) {
                // D = 0 admits no valid dividend: force D = 1, hi = 0.
                db[0] = true;
                for x in hb.iter_mut() {
                    *x = false;
                }
            }
            for (i, &bit) in db.iter().enumerate() {
                if bit {
                    d[i][w] |= 1 << k;
                }
            }
            for (i, &bit) in hb.iter().enumerate() {
                if bit {
                    hi[i][w] |= 1 << k;
                }
            }
            for plane in lo.iter_mut() {
                if rng.next_bool() {
                    plane[w] |= 1 << k;
                }
            }
        }
    }
    // Each operand bit's plane by signal, then in the netlist's input
    // order.
    let mut planes = vec![None; div.netlist.num_signals()];
    let dividend = div.dividend.iter().zip(lo.into_iter().chain(hi));
    for (&s, plane) in dividend.chain(div.divisor.iter().zip(d)) {
        planes[s.index()] = Some(plane);
    }
    div.netlist
        .inputs()
        .iter()
        .map(|&s| {
            planes[s.index()]
                .take()
                .unwrap_or_else(|| panic!("divider input {s} is no operand bit"))
        })
        .collect()
}

/// Lexicographic comparison of little-endian bit vectors as unsigned
/// integers.
fn cmp_bits(a: &[bool], b: &[bool]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match (a[i], b[i]) {
            (false, true) => return std::cmp::Ordering::Less,
            (true, false) => return std::cmp::Ordering::Greater,
            _ => {}
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::build::{array_divider, nonrestoring_divider, restoring_divider, srt_divider};
    use sbif_netlist::io::{read_bnet, write_bnet};
    use sbif_netlist::{Sig, Word};

    #[test]
    fn cmp_bits_orders() {
        use std::cmp::Ordering::*;
        assert_eq!(cmp_bits(&[false, true], &[true, false]), Greater);
        assert_eq!(cmp_bits(&[true, false], &[false, true]), Less);
        assert_eq!(cmp_bits(&[true, true], &[true, true]), Equal);
    }

    /// Asserts that every pattern of `planes` satisfies `div`'s
    /// constraint `C`.
    fn assert_satisfy_c(div: &Divider, planes: &[Vec<u64>], what: &str) {
        assert_eq!(planes.len(), div.netlist.inputs().len());
        for w in 0..planes[0].len() {
            let plane: Vec<u64> = planes.iter().map(|v| v[w]).collect();
            let vals = div.netlist.simulate64(&plane);
            assert_eq!(
                vals[div.constraint.index()],
                u64::MAX,
                "{what} word={w}: some pattern violates C"
            );
        }
    }

    /// The operands `(R⁰, D)` of every pattern of `planes`, read through
    /// `div`'s words.
    fn sampled_operands(div: &Divider, planes: &[Vec<u64>]) -> Vec<(u64, u64)> {
        let inputs = div.netlist.inputs();
        let value = |word: &Word, w: usize, k: usize| -> u64 {
            let bit = |s: &Sig| {
                let pos = inputs.iter().position(|t| t == s).expect("operand bits are inputs");
                (planes[pos][w] >> k) & 1
            };
            word.iter().enumerate().map(|(i, s)| bit(s) << i).sum()
        };
        let mut operands = Vec::new();
        for w in 0..planes[0].len() {
            for k in 0..64 {
                operands.push((value(&div.dividend, w, k), value(&div.divisor, w, k)));
            }
        }
        operands
    }

    #[test]
    fn all_patterns_satisfy_constraint() {
        let builds: [fn(usize) -> Divider; 4] =
            [nonrestoring_divider, restoring_divider, srt_divider, array_divider];
        for build in builds {
            for n in 2..=8 {
                let div = build(n);
                let what = format!("{:?} n={n}", div.kind);
                assert_satisfy_c(&div, &divider_sim_words(&div, 42, 2), &what);
            }
        }
    }

    /// An imported divider whose inputs are declared in reverse order
    /// samples the same operands as the generator's: the planes follow
    /// the words, not the input order.
    #[test]
    fn reversed_input_declarations_sample_the_same_operands() {
        for n in [2usize, 3, 5, 8] {
            let div = nonrestoring_divider(n);
            let text = write_bnet(&div.netlist);
            let mut lines: Vec<&str> = text.lines().collect();
            let first = lines.iter().position(|l| l.starts_with(".inputs")).expect("inputs");
            let count = lines[first..].iter().take_while(|l| l.starts_with(".inputs")).count();
            assert_eq!(count, 3 * n - 3, "the inputs are declared in one block");
            lines[first..first + count].reverse();
            let netlist = read_bnet(&lines.join("\n")).expect("parses");
            let imported = Divider::from_netlist(netlist).expect("a divider");
            let last_d = format!("d[{}]", n - 2);
            assert_eq!(imported.netlist.name(imported.netlist.inputs()[0]), Some(&*last_d));
            let planes = divider_sim_words(&imported, 42, 2);
            assert_satisfy_c(&imported, &planes, &format!("imported n={n}"));
            let generated = sampled_operands(&div, &divider_sim_words(&div, 42, 2));
            assert_eq!(sampled_operands(&imported, &planes), generated, "n={n}");
        }
    }

    #[test]
    fn patterns_are_diverse() {
        let div = nonrestoring_divider(8);
        let words = divider_sim_words(&div, 7, 1);
        // The low dividend bits are uniform: each plane should be
        // neither all-zero nor all-one.
        let lo0 = words[0][0];
        assert!(lo0 != 0 && lo0 != u64::MAX);
        // Different seeds give different vectors.
        let other = divider_sim_words(&div, 8, 1);
        assert_ne!(words, other);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let div = nonrestoring_divider(4);
        assert_eq!(divider_sim_words(&div, 1, 2), divider_sim_words(&div, 1, 2));
    }
}

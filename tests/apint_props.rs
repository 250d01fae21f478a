//! Width-sweeping property tests for `sbif-apint`: every arithmetic
//! operation is checked against native `i128` (and `u128` where the
//! 64-bit unsigned product would not fit `i128`) on operands drawn from
//! bit-widths 1–64, with the width boundaries (0, 2^(w-1), 2^w − 1)
//! oversampled. Runs on the in-tree `prop_check!` harness, so a failure
//! prints the exact replay seed.

mod common;

use common::prop_check;
use sbif::apint::Int;
use sbif_rng::XorShift64;

/// An unsigned value of exactly `w` significant bits, boundary-heavy.
fn unsigned_in_width(rng: &mut XorShift64, w: u32) -> u64 {
    let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    match rng.below(8) {
        0 => 0,
        1 => mask,
        2 => 1u64 << (w - 1),
        3 => mask >> 1,
        _ => rng.next_u64() & mask,
    }
}

/// A signed value whose two's-complement representation fits `w` bits:
/// the `w`-bit pattern sign-extended to 64 bits.
fn signed_in_width(rng: &mut XorShift64, w: u32) -> i64 {
    let shift = 64 - w;
    ((unsigned_in_width(rng, w) << shift) as i64) >> shift
}

fn gen_width(rng: &mut XorShift64) -> u32 {
    // All widths 1..=64, with the interesting corners oversampled.
    match rng.below(4) {
        0 => [1, 2, 63, 64][rng.below(4) as usize],
        _ => 1 + rng.below(64) as u32,
    }
}

#[test]
fn unsigned_ring_ops_match_i128_across_widths() {
    prop_check!(
        512,
        |rng: &mut XorShift64| {
            let w = gen_width(rng);
            (w, unsigned_in_width(rng, w), unsigned_in_width(rng, w))
        },
        |(_, a, b): (u32, u64, u64)| {
            let (ia, ib) = (Int::from(a), Int::from(b));
            &ia + &ib == Int::from(a as i128 + b as i128)
                && &ia - &ib == Int::from(a as i128 - b as i128)
                && ia.cmp(&ib) == a.cmp(&b)
        }
    );
}

#[test]
fn unsigned_mul_matches_u128_even_at_w64() {
    // 64-bit × 64-bit products overflow i128's positive range only in
    // magnitude terms they don't (2^128 − … < 2^127 is false) — so the
    // reference must be u128.
    prop_check!(
        512,
        |rng: &mut XorShift64| {
            let w = gen_width(rng);
            (unsigned_in_width(rng, w), unsigned_in_width(rng, w))
        },
        |(a, b): (u64, u64)| {
            Int::from(a) * Int::from(b) == Int::from(a as u128 * b as u128)
        }
    );
}

#[test]
fn signed_ring_ops_match_i128_across_widths() {
    prop_check!(
        512,
        |rng: &mut XorShift64| {
            let w = gen_width(rng);
            (signed_in_width(rng, w), signed_in_width(rng, w))
        },
        |(a, b): (i64, i64)| {
            let (ia, ib) = (Int::from(a), Int::from(b));
            &ia + &ib == Int::from(a as i128 + b as i128)
                && &ia - &ib == Int::from(a as i128 - b as i128)
                && &ia * &ib == Int::from(a as i128 * b as i128)
                && (-&ia) == Int::from(-(a as i128))
                && ia.cmp(&ib) == (a as i128).cmp(&(b as i128))
        }
    );
}

/// A value of three to five limbs (the top one nonzero) of either sign,
/// or zero one time in eight.
fn multi_limb(rng: &mut XorShift64) -> Int {
    if rng.below(8) == 0 {
        return Int::zero();
    }
    let limbs = rng.range_usize(3, 6);
    let mut v = Int::zero();
    for k in 0..limbs {
        let limb = if k + 1 == limbs { rng.next_u64() | 1 } else { rng.next_u64() };
        v += Int::from(limb).shl_pow2(64 * k as u32);
    }
    if rng.next_bool() {
        -v
    } else {
        v
    }
}

#[test]
fn multi_limb_products_agree_in_every_operand_form() {
    prop_check!(
        256,
        |rng: &mut XorShift64| (multi_limb(rng), multi_limb(rng)),
        |(a, b): (Int, Int)| {
            let p = &a * &b;
            p == a.clone() * b.clone()
                && p == &b * &a
                && p == &a * b.clone()
                && p == a.clone() * &b
                && p == (&a + &Int::one()) * &b - &b
        }
    );
}

#[test]
fn shifts_match_i128_semantics() {
    // shl_pow2 is exact multiplication by 2^k; shr_floor_pow2 is the
    // floor shift, which for negatives agrees with i128's arithmetic
    // `>>` (both round toward −∞).
    prop_check!(
        512,
        |rng: &mut XorShift64| {
            let w = gen_width(rng);
            (signed_in_width(rng, w), rng.below(63) as u32)
        },
        |(a, k): (i64, u32)| {
            let ia = Int::from(a);
            ia.shl_pow2(k) == Int::from((a as i128) << k)
                && ia.shr_floor_pow2(k) == Int::from((a as i128) >> k)
        }
    );
}

#[test]
fn width_boundaries_exactly() {
    // Deterministic spot checks at every width's edges — the cases the
    // random sweep oversamples, pinned down exhaustively.
    for w in 1..=64u32 {
        let max = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let top = Int::from(max);
        assert_eq!(&top + &Int::one(), Int::from(max as u128 + 1), "w={w} max+1");
        assert_eq!(&top - &top, Int::zero(), "w={w} max-max");
        assert_eq!(Int::from(max as u128 + 1), Int::pow2(w), "w={w} 2^w");
        assert!(Int::from(max) < Int::pow2(w), "w={w} ordering at the edge");
        let min_signed = -(1i128 << (w - 1));
        assert_eq!(
            Int::from(min_signed) - Int::one(),
            Int::from(min_signed - 1),
            "w={w} signed underflow edge"
        );
    }
}

#[test]
fn sign_and_magnitude_queries_match_i128() {
    prop_check!(
        512,
        |rng: &mut XorShift64| {
            let w = gen_width(rng);
            signed_in_width(rng, w)
        },
        |a: i64| {
            let ia = Int::from(a);
            ia.is_negative() == (a < 0)
                && ia.is_zero() == (a == 0)
                && ia.abs() == Int::from((a as i128).abs())
                && ia.bit_len() == 128 - (a as i128).unsigned_abs().leading_zeros()
        }
    );
}

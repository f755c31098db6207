//! Shortest round-trip `f64` → decimal text, byte-identical to
//! `format!("{v}")`, without `core::fmt`.
//!
//! Digit generation is Ryū (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the value and both ends of its rounding
//! interval are scaled by one precomputed power of five, and decimal
//! digits are stripped while the interval still holds a shorter
//! number.  Two details make it `Display`'s answer rather than Ryū's:
//!
//! * an exact tie between two shortest candidates rounds **up**
//!   (`core`'s Grisu/Dragon shortest mode does; reference Ryū rounds to
//!   even, so `2181495296738027.25` would print `…027.2` instead of
//!   `…027.3`);
//! * the layout is positional, never exponential: `1e300` prints 301
//!   digits and `5e-324` prints `0.` and 323 zeros before its `5`.
//!   `±0.0` prints `0`/`-0`, and the non-finite values `NaN` (either
//!   sign), `inf` and `-inf`.
//!
//! Nothing here allocates beyond growing the caller's buffer.

mod tables;

use tables::{POW5_INV_SPLIT, POW5_SPLIT};

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;

/// Appends the shortest decimal text that reads back as `v`, exactly as
/// `format!("{v}")` writes it.
pub(super) fn write_f64(out: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if exponent == 0x7ff {
        let text: &[u8] = match (mantissa != 0, v < 0.0) {
            (true, _) => b"NaN",
            (false, false) => b"inf",
            (false, true) => b"-inf",
        };
        out.extend_from_slice(text);
        return;
    }
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    if exponent == 0 && mantissa == 0 {
        out.push(b'0');
        return;
    }
    let (digits, exp) = shortest(mantissa, exponent);
    write_positional(out, digits, exp);
}

/// Ryū's shortest `(digits, e10)`: of the shortest decimals
/// `digits · 10^e10` inside the value's rounding interval, the one
/// nearest the value (ties up).  `exponent` is the biased IEEE exponent,
/// not 0x7ff, and the value is not zero.
fn shortest(mantissa: u64, exponent: u32) -> (u64, i32) {
    // The value is m2 · 2^e2, shifted left by two so the interval ends
    // mv ± (1 or 2) are integers too.
    let (e2, m2) = if exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, mantissa)
    } else {
        (
            exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | mantissa,
        )
    };
    // An even mantissa rounds-to-even onto itself, so both interval ends
    // read back as the value and are candidates.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower neighbour is half as far at a power of two (except at the
    // bottom of the normal range).
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);

    // Scale mv, mv + 2 and mv − 1 − mm_shift by 2^e2 / 10^e10.  Only the
    // lower end's exactness matters below: `Display` never rounds a tie
    // to even, so the value's own exactness (Ryū's `vrIsTrailingZeros`)
    // is not tracked.
    let mut vm_is_trailing_zeros = false;
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        (vr, vp, vm) = mul_shift_all(m2, POW5_INV_SPLIT[q as usize], j as u32, mm_shift);
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        (vr, vp, vm) = mul_shift_all(m2, POW5_SPLIT[i as usize], j as u32, mm_shift);
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Strip digits while the interval still contains a shorter decimal,
    // remembering whether the stripped part of vr was at least half.
    let mut removed = 0;
    let digits = if vm_is_trailing_zeros {
        // The lower end is exact and included: it may itself be the
        // shortest candidate, so keep stripping its trailing zeros.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (digits, e10 + removed)
}

/// `⌊x · mul / 2^j⌋` for `x` = `4·m2`, `4·m2 + 2` and `4·m2 − 1 − mm_shift`
/// (value, upper end, lower end), from one 192-bit product: the ends are
/// the value's product plus `2·mul` and minus `(1 + mm_shift)·mul`.
/// Ryū's choice of `j` keeps it at least 64 and every quotient in a `u64`.
fn mul_shift_all(m2: u64, (mul_lo, mul_hi): (u64, u64), j: u32, mm_shift: u64) -> (u64, u64, u64) {
    let x = u128::from(4 * m2);
    let low = x * u128::from(mul_lo);
    // The product is `high · 2^64 + low as u64`.
    let high = x * u128::from(mul_hi) + (low >> 64);
    let low = low as u64;
    let mul = (u128::from(mul_hi) << 64) | u128::from(mul_lo);
    let shift = j - 64;

    let up = 2 * mul;
    let (_, carry) = low.overflowing_add(up as u64);
    let vp = (high + (up >> 64) + u128::from(carry)) >> shift;

    let down = mul << mm_shift;
    let (_, borrow) = low.overflowing_sub(down as u64);
    let vm = (high - (down >> 64) - u128::from(borrow)) >> shift;

    ((high >> shift) as u64, vp as u64, vm as u64)
}

/// `⌈log2 5^e⌉` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// Number of decimal digits of `v`, for `1 ≤ v < 10^17`: `⌊log10 v⌋ + 1`
/// from the bit length (`1233 / 4096 ≈ log10 2`) and one correcting
/// compare, with no loop to mispredict.
fn decimal_length(v: u64) -> usize {
    const POW10: [u64; 18] = {
        let mut t = [1; 18];
        let mut i = 1;
        while i < 18 {
            t[i] = t[i - 1] * 10;
            i += 1;
        }
        t
    };
    let guess = (((64 - v.leading_zeros()) * 1233) >> 12) as usize;
    guess + 1 - usize::from(v < POW10[guess])
}

/// The eight decimal digits of `v < 10^8` (leading zeros included) as
/// ASCII, converted in parallel lanes of one `u64`: 4+4 digits in two
/// 32-bit lanes, then 2+2+2+2 in 16-bit lanes, then one per byte, each
/// split into a multiply-shift quotient and its remainder.
fn ascii8(v: u32) -> [u8; 8] {
    let v = u64::from(v);
    // Little-endian: the lane holding the leading digits goes first.
    let x = (v / 10_000) | ((v % 10_000) << 32);
    // ⌊x / 100⌋ = (x · 10486) >> 20 for x < 10^4.
    let hi = ((x * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let x = hi | ((x - hi * 100) << 16);
    // ⌊x / 10⌋ = (x · 103) >> 10 for x < 100.
    let hi = ((x * 103) >> 10) & 0x000f_000f_000f_000f;
    let x = hi | ((x - hi * 10) << 8);
    (x | 0x3030_3030_3030_3030).to_le_bytes()
}

/// Lays `digits · 10^exp` out the way `Display` does: integers with
/// their trailing zeros, anything else with a decimal point, at least one
/// digit before it and none trailing after it.
fn write_positional(out: &mut Vec<u8>, digits: u64, exp: i32) {
    // The digits, right-aligned in a field of ASCII zeros that also
    // supplies the zeros of `0.000ddd` for all but tiny magnitudes.
    let mut buf = [b'0'; 48];
    const E8: u64 = 100_000_000;
    let groups = [digits / E8 / E8, digits / E8 % E8, digits % E8];
    for (chunk, group) in buf[24..].chunks_exact_mut(8).zip(groups) {
        chunk.copy_from_slice(&ascii8(group as u32));
    }
    let len = decimal_length(digits);
    let first = buf.len() - len;
    // How many of the digits sit before the decimal point.
    let point = len as isize + exp as isize;
    if exp >= 0 {
        out.extend_from_slice(&buf[first..]);
        out.resize(out.len() + exp as usize, b'0');
    } else if point > 0 {
        // `dd.ddd`: move the integer part one place left, over a zero.
        let point = point as usize;
        buf.copy_within(first..first + point, first - 1);
        buf[first - 1 + point] = b'.';
        out.extend_from_slice(&buf[first - 1..]);
    } else if let Some(start) = first.checked_sub(2 + point.unsigned_abs()) {
        // `0.000ddd`, zeros and all, straight out of the field.
        buf[start + 1] = b'.';
        out.extend_from_slice(&buf[start..]);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs(), b'0');
        out.extend_from_slice(&buf[first..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// Writes `v` both ways into reused buffers and compares the bytes.
    struct Checker {
        ours: Vec<u8>,
        display: String,
    }

    impl Checker {
        fn new() -> Checker {
            Checker { ours: Vec::new(), display: String::new() }
        }

        fn matches(&mut self, v: f64) -> bool {
            self.ours.clear();
            write_f64(&mut self.ours, v);
            self.display.clear();
            let _ = write!(self.display, "{v}");
            self.ours == self.display.as_bytes()
        }

        fn check(&mut self, v: f64) {
            assert!(
                self.matches(v),
                "{:#018x}: wrote {:?}, Display {:?}",
                v.to_bits(),
                String::from_utf8_lossy(&self.ours),
                self.display
            );
        }
    }

    fn check_both_signs(v: f64) {
        let mut c = Checker::new();
        c.check(v);
        c.check(-v);
    }

    #[test]
    fn special_values_read_like_display() {
        let cases: [(f64, &str); 10] = [
            (0.0, "0"),
            (-0.0, "-0"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (f64::NAN, "NaN"),
            (-f64::NAN, "NaN"),
            (0.1, "0.1"),
            (1.0, "1"),
            (1e23, "100000000000000000000000"),
            // An exact tie between two shortest candidates rounds up;
            // round-to-even (reference Ryū) would end in `.2`.
            (2181495296738027.0 + 0.25, "2181495296738027.3"),
        ];
        for (v, text) in cases {
            let mut out = Vec::new();
            write_f64(&mut out, v);
            assert_eq!(String::from_utf8(out).unwrap(), text);
        }
        for v in [
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            1e23,
            0.1,
            0.3,
            1e15,
            1e16,
            1e17,
            123456789012345680.0,
            9007199254740993.0,
            0.4755002469278563,
        ] {
            check_both_signs(v);
        }
    }

    #[test]
    fn every_power_of_two_reads_like_display() {
        // 2^-1074 ..= 2^-1023 are subnormal (one mantissa bit), the rest
        // normal with a zero mantissa: 2,098 values, each with both signs.
        for k in 0..52 {
            check_both_signs(f64::from_bits(1 << k));
        }
        for exponent in 1..=2046u64 {
            check_both_signs(f64::from_bits(exponent << 52));
        }
    }

    #[test]
    fn model_columns_read_like_display() {
        use csrplus_core::{CsrPlusConfig, CsrPlusModel};
        use csrplus_graph::{generators::erdos_renyi, TransitionMatrix};

        let t = TransitionMatrix::from_graph(&erdos_renyi(300, 1500, 7).unwrap());
        let model = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(8)).unwrap();
        let mut c = Checker::new();
        for q in 0..model.n() {
            for v in model.single_source(q).unwrap() {
                c.check(v);
            }
        }
    }

    /// `n + j / 2^f` with `n` in `[2^e, 2^(e+1))` and `f = 52 − e`: the
    /// last representable bits are set, so one-decimal candidates
    /// straddle the value — `….25`/`….75` at `e = 50` are exact ties.
    fn binary_fraction() -> impl Strategy<Value = f64> {
        (40u32..=52, 0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(e, n, j)| {
            let f = 52 - e;
            let n = (1u64 << e) | (n & ((1u64 << e) - 1));
            n as f64 + (j & ((1u64 << f) - 1)) as f64 / (1u64 << f) as f64
        })
    }

    /// `k / 2^m` for any `k < 2^53` and `m` reaching the subnormals.
    fn dyadic() -> impl Strategy<Value = f64> {
        (0u64..1 << 53, 0i32..=1100)
            .prop_map(|(k, m)| k as f64 * 2f64.powi(-(m / 2)) * 2f64.powi(-(m - m / 2)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn random_bit_patterns_read_like_display(bits in 0u64..=u64::MAX) {
            Checker::new().check(f64::from_bits(bits));
        }

        #[test]
        fn integers_read_like_display(n in 0u64..=1 << 53) {
            check_both_signs(n as f64);
        }

        #[test]
        fn binary_fractions_and_ties_read_like_display(
            v in binary_fraction(),
            w in dyadic(),
        ) {
            check_both_signs(v);
            check_both_signs(w);
        }

        #[test]
        fn subnormals_read_like_display(mantissa in 1u64..1 << 52) {
            check_both_signs(f64::from_bits(mantissa));
        }
    }

    /// splitmix64: a seeded, dependency-free stream of bit patterns.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The long sweep: 10⁸ seeded random bit patterns plus 1,000 random
    /// mantissas under every biased exponent, each compared with
    /// `format!("{v}")`.  Run with
    /// `cargo test --release -p csrplus-serve -- --ignored`.
    #[test]
    #[ignore = "long: run in release mode with --ignored"]
    fn sweep_matches_display() {
        const RANDOM: u64 = 100_000_000;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let mismatches: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut c = Checker::new();
                        let mut state = 0x5eed_0000 + t;
                        let mut bad = 0u64;
                        let mut tally = |v: f64, c: &mut Checker| {
                            if !c.matches(v) {
                                bad += 1;
                                eprintln!("mismatch at {:#018x}", v.to_bits());
                            }
                        };
                        for _ in (t..RANDOM).step_by(threads as usize) {
                            tally(f64::from_bits(splitmix(&mut state)), &mut c);
                        }
                        for exponent in (t..2048).step_by(threads as usize) {
                            for _ in 0..1000 {
                                let bits = splitmix(&mut state);
                                let mantissa = bits & ((1 << 52) - 1);
                                tally(
                                    f64::from_bits(bits & (1 << 63) | exponent << 52 | mantissa),
                                    &mut c,
                                );
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("sweep worker panicked")).sum()
        });
        assert_eq!(mismatches, 0);
    }

    /// A little-endian `u32`-limb natural number: just enough arithmetic
    /// to check the power-of-five tables against their definitions.
    #[derive(Clone, PartialEq, Eq)]
    struct Big(Vec<u32>);

    impl Big {
        fn from_u128(v: u128) -> Big {
            Big((0..4).map(|i| (v >> (32 * i)) as u32).collect()).trim()
        }

        fn pow2(k: u32) -> Big {
            let mut limbs = vec![0; k as usize / 32 + 1];
            limbs[k as usize / 32] = 1 << (k % 32);
            Big(limbs)
        }

        fn trim(mut self) -> Big {
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn mul(&self, other: &Big) -> Big {
            let mut out = vec![0u32; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = u64::from(a) * u64::from(b) + u64::from(out[i + j]) + carry;
                    out[i + j] = t as u32;
                    carry = t >> 32;
                }
                out[i + other.0.len()] = carry as u32;
            }
            Big(out).trim()
        }

        fn bitlen(&self) -> u32 {
            self.0
                .last()
                .map_or(0, |&top| 32 * (self.0.len() as u32 - 1) + 32 - top.leading_zeros())
        }
    }

    impl PartialOrd for Big {
        fn partial_cmp(&self, other: &Big) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Big {
        fn cmp(&self, other: &Big) -> std::cmp::Ordering {
            self.0
                .len()
                .cmp(&other.0.len())
                .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
        }
    }

    fn entry((lo, hi): (u64, u64)) -> u128 {
        u128::from(hi) << 64 | u128::from(lo)
    }

    #[test]
    fn power_of_five_tables_match_their_definitions() {
        let five = Big::from_u128(5);
        let mut pow5 = Big::from_u128(1);
        for i in 0..POW5_INV_SPLIT.len().max(POW5_SPLIT.len()) {
            let bits = pow5.bitlen();
            if let Some(&inv) = POW5_INV_SPLIT.get(i) {
                // (inv − 1)·5^i ≤ 2^j < inv·5^i, j = bitlen(5^i) − 1 + 125.
                let two_j = Big::pow2(bits - 1 + 125);
                let inv = entry(inv);
                assert!(Big::from_u128(inv - 1).mul(&pow5) <= two_j, "POW5_INV_SPLIT[{i}] too big");
                assert!(two_j < Big::from_u128(inv).mul(&pow5), "POW5_INV_SPLIT[{i}] too small");
            }
            if let Some(&split) = POW5_SPLIT.get(i) {
                // The top 125 bits: split·2^s ≤ 5^i < (split + 1)·2^s with
                // s = bitlen(5^i) − 125, or exactly 5^i·2^−s when s < 0.
                let split = entry(split);
                assert_eq!(Big::from_u128(split).bitlen(), 125, "POW5_SPLIT[{i}] not normalised");
                if bits >= 125 {
                    let scale = Big::pow2(bits - 125);
                    assert!(Big::from_u128(split).mul(&scale) <= pow5, "POW5_SPLIT[{i}] too big");
                    assert!(
                        pow5 < Big::from_u128(split + 1).mul(&scale),
                        "POW5_SPLIT[{i}] too small"
                    );
                } else {
                    assert!(
                        Big::from_u128(split) == pow5.mul(&Big::pow2(125 - bits)),
                        "POW5_SPLIT[{i}]"
                    );
                }
            }
            pow5 = pow5.mul(&five);
        }
    }
}

//! Radix-4 (modified) Booth recoding.
//!
//! The paper's multiplier is a Booth-encoded Wallace-tree design
//! (Section III-A). Radix-4 Booth recoding halves the number of partial
//! products: a signed `n`-bit multiplier operand becomes `n/2` digits in
//! `{-2, -1, 0, 1, 2}`, each selecting `0, ±x, ±2x` as a partial product.
//!
//! This module provides the bit-accurate recoding used both by the
//! behavioral multiplier models and by the gate-level netlist generator
//! (which derives its `one`/`two`/`neg` select signals from the same
//! overlapping bit triplets).

use serde::{Deserialize, Serialize};

/// One radix-4 Booth digit with its decoded select lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoothDigit {
    /// Digit value in `{-2, -1, 0, 1, 2}`.
    pub value: i8,
    /// Select `±x` (magnitude one).
    pub one: bool,
    /// Select `±2x` (magnitude two).
    pub two: bool,
    /// Negate the selected multiple.
    pub neg: bool,
}

impl BoothDigit {
    /// Decodes a digit from the overlapping triplet
    /// `(y[2i+1], y[2i], y[2i-1])`.
    #[must_use]
    pub fn from_triplet(hi: bool, mid: bool, lo: bool) -> Self {
        let value = i8::from(mid) + i8::from(lo) - 2 * i8::from(hi);
        BoothDigit {
            value,
            one: mid ^ lo,
            two: (hi && !mid && !lo) || (!hi && mid && lo),
            neg: hi,
        }
    }
}

/// Recodes a signed `n`-bit operand into `n/2` radix-4 Booth digits,
/// least-significant digit first.
///
/// Bits above `n` are treated as sign extension; the implicit `y[-1]` is 0.
///
/// # Panics
///
/// Panics if `n` is zero, odd, or larger than 32.
///
/// # Example
///
/// ```
/// use dvafs_arith::booth::{booth_digits, digits_value};
///
/// let d = booth_digits(-7, 4);
/// assert_eq!(d.len(), 2);
/// assert_eq!(digits_value(&d), -7);
/// ```
#[must_use]
pub fn booth_digits(y: i32, n: u32) -> Vec<BoothDigit> {
    assert!(
        n > 0 && n.is_multiple_of(2) && n <= 32,
        "n must be even and <= 32"
    );
    let bit = |i: i64| -> bool {
        if i < 0 {
            false
        } else {
            let idx = (i as u32).min(31); // sign extension above bit n-1
            let idx = idx.min(n - 1);
            (y >> idx) & 1 == 1
        }
    };
    (0..n / 2)
        .map(|i| {
            let base = 2 * i64::from(i);
            BoothDigit::from_triplet(bit(base + 1), bit(base), bit(base - 1))
        })
        .collect()
}

/// Reconstructs the operand value from its Booth digits:
/// `sum(digit_i * 4^i)`.
#[must_use]
pub fn digits_value(digits: &[BoothDigit]) -> i64 {
    digits
        .iter()
        .enumerate()
        .map(|(i, d)| i64::from(d.value) << (2 * i))
        .sum()
}

/// Computes a product through Booth recoding (behavioral reference for the
/// gate-level Booth–Wallace multiplier): `x * y` with `y` recoded at `n`
/// bits.
///
/// # Panics
///
/// Panics under the same conditions as [`booth_digits`].
#[must_use]
pub fn booth_multiply(x: i32, y: i32, n: u32) -> i64 {
    booth_digits(y, n)
        .iter()
        .enumerate()
        .map(|(i, d)| (i64::from(x) * i64::from(d.value)) << (2 * i))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_decode_matches_value_table() {
        // (hi, mid, lo) -> value
        let cases = [
            ((false, false, false), 0),
            ((false, false, true), 1),
            ((false, true, false), 1),
            ((false, true, true), 2),
            ((true, false, false), -2),
            ((true, false, true), -1),
            ((true, true, false), -1),
            ((true, true, true), 0),
        ];
        for ((h, m, l), v) in cases {
            let d = BoothDigit::from_triplet(h, m, l);
            assert_eq!(d.value, v, "triplet {h}{m}{l}");
            // Select lines must reconstruct the digit value.
            let mag = if d.two {
                2
            } else if d.one {
                1
            } else {
                0
            };
            let rec = if d.neg { -mag } else { mag };
            if v != 0 {
                assert_eq!(rec, v, "select lines for triplet {h}{m}{l}");
            } else {
                assert_eq!(mag, 0);
            }
        }
    }

    #[test]
    fn digits_reconstruct_value_exhaustive_8b() {
        for y in -128..=127 {
            let d = booth_digits(y, 8);
            assert_eq!(d.len(), 4);
            assert_eq!(digits_value(&d), i64::from(y), "y={y}");
        }
    }

    #[test]
    fn digits_reconstruct_value_exhaustive_4b() {
        for y in -8..=7 {
            assert_eq!(digits_value(&booth_digits(y, 4)), i64::from(y));
        }
    }

    #[test]
    fn digits_reconstruct_16b_boundaries() {
        for y in [
            i32::from(i16::MIN),
            -1,
            0,
            1,
            i32::from(i16::MAX),
            0x5555,
            -0x5556,
        ] {
            assert_eq!(digits_value(&booth_digits(y, 16)), i64::from(y), "y={y}");
        }
    }

    #[test]
    fn booth_multiply_matches_exact_product() {
        let pairs = [
            (0, 0),
            (1, 1),
            (-1, 1),
            (i32::from(i16::MIN), i32::from(i16::MIN)),
            (i32::from(i16::MAX), i32::from(i16::MIN)),
            (1234, -5678),
            (-3, 7),
        ];
        for (x, y) in pairs {
            assert_eq!(booth_multiply(x, y, 16), i64::from(x) * i64::from(y));
        }
    }

    #[test]
    fn booth_multiply_exhaustive_6b() {
        for x in -32..=31 {
            for y in -32..=31 {
                assert_eq!(booth_multiply(x, y, 6), i64::from(x) * i64::from(y));
            }
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_width_panics() {
        let _ = booth_digits(1, 5);
    }
}

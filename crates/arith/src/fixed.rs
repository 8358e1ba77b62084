//! Fixed-point values, precision descriptors and quantizers.
//!
//! The paper trades computational accuracy by truncating or rounding operand
//! LSBs at run time (Section II-A). This module provides the value-level
//! machinery for that: [`Precision`] (a validated bit width), [`Quantizer`]
//! (truncation / rounding of a 16-bit word to fewer bits) and [`Fixed`]
//! (a Q-format fixed-point number used by the CNN substrate).

use crate::error::ArithError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum operand width supported by the DVAFS data path (bits).
pub const MAX_BITS: u32 = 16;

/// A validated operand precision in `1..=16` bits.
///
/// # Example
///
/// ```
/// use dvafs_arith::Precision;
///
/// let p = Precision::new(8)?;
/// assert_eq!(p.bits(), 8);
/// assert_eq!(p.dropped_bits(), 8);
/// # Ok::<(), dvafs_arith::ArithError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Precision(u32);

impl Precision {
    /// Full 16-bit precision.
    pub const FULL: Precision = Precision(MAX_BITS);

    /// Creates a new precision.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::InvalidPrecision`] if `bits` is not in `1..=16`.
    pub fn new(bits: u32) -> Result<Self, ArithError> {
        if bits == 0 || bits > MAX_BITS {
            Err(ArithError::InvalidPrecision { bits })
        } else {
            Ok(Precision(bits))
        }
    }

    /// The number of active MSBs.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// The number of gated (dropped) LSBs relative to the full 16-bit word.
    #[must_use]
    pub fn dropped_bits(self) -> u32 {
        MAX_BITS - self.0
    }

    /// The precision sweep used throughout the paper's evaluation:
    /// 4, 8, 12 and 16 bits (Fig. 2, Fig. 3a, Table I).
    #[must_use]
    pub fn paper_sweep() -> [Precision; 4] {
        [Precision(4), Precision(8), Precision(12), Precision(16)]
    }

    /// Largest representable value of a signed word at this precision,
    /// expressed on the full 16-bit grid (LSBs zero).
    #[must_use]
    pub fn max_value(self) -> i32 {
        (i32::from(i16::MAX) >> self.dropped_bits()) << self.dropped_bits()
    }
}

impl Default for Precision {
    fn default() -> Self {
        Precision::FULL
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.0)
    }
}

impl TryFrom<u32> for Precision {
    type Error = ArithError;

    fn try_from(bits: u32) -> Result<Self, Self::Error> {
        Precision::new(bits)
    }
}

impl From<Precision> for u32 {
    fn from(p: Precision) -> u32 {
        p.bits()
    }
}

/// How dropped LSBs are treated when scaling precision down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoundingMode {
    /// Zero the dropped LSBs (the cheap option used by the DAS input gating
    /// of Fig. 1a: gated inputs simply stop toggling).
    #[default]
    Truncate,
    /// Round to nearest on the retained grid (ties toward positive infinity).
    /// Slightly more accurate for the same activity reduction.
    RoundNearest,
}

/// Quantizes 16-bit words onto a reduced-precision grid.
///
/// The quantizer keeps the word on the full 16-bit scale — it only zeroes the
/// dropped LSBs — which is exactly what input gating does in hardware.
///
/// # Example
///
/// ```
/// use dvafs_arith::{Precision, Quantizer, RoundingMode};
///
/// let q = Quantizer::new(Precision::new(8)?, RoundingMode::Truncate);
/// assert_eq!(q.quantize(0x1234), 0x1200);
/// assert_eq!(q.quantize(-1), -256); // truncation is toward -inf in two's complement
/// # Ok::<(), dvafs_arith::ArithError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quantizer {
    precision: Precision,
    mode: RoundingMode,
}

impl Quantizer {
    /// Creates a quantizer for the given precision and rounding mode.
    #[must_use]
    pub fn new(precision: Precision, mode: RoundingMode) -> Self {
        Quantizer { precision, mode }
    }

    /// The configured precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The configured rounding mode.
    #[must_use]
    pub fn rounding_mode(&self) -> RoundingMode {
        self.mode
    }

    /// Quantizes one 16-bit word (as `i32` to avoid overflow on rounding).
    ///
    /// The result stays within the `i16` range.
    #[must_use]
    pub fn quantize(&self, x: i32) -> i32 {
        let drop = self.precision.dropped_bits();
        if drop == 0 {
            return x;
        }
        let x = x.clamp(i32::from(i16::MIN), i32::from(i16::MAX));
        match self.mode {
            RoundingMode::Truncate => (x >> drop) << drop,
            RoundingMode::RoundNearest => {
                let step = 1i32 << drop;
                let rounded = (x + step / 2) >> drop << drop;
                rounded.clamp(i32::from(i16::MIN), self.precision.max_value())
            }
        }
    }

    /// Quantizes a slice of words in place.
    pub fn quantize_slice(&self, xs: &mut [i32]) {
        for x in xs {
            *x = self.quantize(*x);
        }
    }

    /// The worst-case quantization error magnitude for this quantizer.
    ///
    /// Rounding halves the error in the interior of the range, but near
    /// the positive end of the grid it saturates (there is no grid point
    /// above [`Precision::max_value`]), so the *worst-case* bound is the
    /// full step for both modes; see [`typical_error`](Self::typical_error)
    /// for the interior bound.
    #[must_use]
    pub fn max_error(&self) -> i32 {
        let drop = self.precision.dropped_bits();
        if drop == 0 {
            return 0;
        }
        (1 << drop) - 1
    }

    /// The error bound away from the saturating positive edge: a full step
    /// for truncation, half a step for rounding.
    #[must_use]
    pub fn typical_error(&self) -> i32 {
        let drop = self.precision.dropped_bits();
        if drop == 0 {
            return 0;
        }
        match self.mode {
            RoundingMode::Truncate => (1 << drop) - 1,
            RoundingMode::RoundNearest => 1 << (drop - 1),
        }
    }
}

/// A Q-format fixed-point number: `value = raw / 2^frac_bits`.
///
/// Used by the CNN substrate to carry real-valued weights and activations on
/// the integer data path that the DVAFS multiplier processes.
///
/// # Example
///
/// ```
/// use dvafs_arith::Fixed;
///
/// let x = Fixed::from_f64(0.5, 8);
/// let y = Fixed::from_f64(-0.25, 8);
/// let p = x.mul(y);
/// assert!((p.to_f64() - (-0.125)).abs() < 1e-2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fixed {
    raw: i32,
    frac_bits: u32,
}

impl Fixed {
    /// Creates a fixed-point value from a raw integer and fractional bit count.
    #[must_use]
    pub fn from_raw(raw: i32, frac_bits: u32) -> Self {
        Fixed { raw, frac_bits }
    }

    /// Converts a float onto the Q-grid with rounding to nearest, saturating
    /// to the `i16` range (the DVAFS word width).
    #[must_use]
    pub fn from_f64(x: f64, frac_bits: u32) -> Self {
        let scaled = (x * f64::from(1i32 << frac_bits)).round();
        let raw = scaled.clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i32;
        Fixed { raw, frac_bits }
    }

    /// The raw integer payload.
    #[must_use]
    pub fn raw(self) -> i32 {
        self.raw
    }

    /// Number of fractional bits in the Q format.
    #[must_use]
    pub fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// Converts back to a float.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        f64::from(self.raw) / f64::from(1i32 << self.frac_bits)
    }

    /// Fixed-point multiply: the product keeps `self.frac_bits` fractional
    /// bits (the partner's fractional bits are shifted out of the wide
    /// product, as a MAC unit's post-shift would).
    // Not `std::ops::Mul`: the result's Q format follows self, not rhs, so
    // the operation is deliberately asymmetric.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn mul(self, rhs: Fixed) -> Fixed {
        let wide = i64::from(self.raw) * i64::from(rhs.raw);
        let raw = (wide >> rhs.frac_bits).clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i32;
        Fixed {
            raw,
            frac_bits: self.frac_bits,
        }
    }

    /// Saturating fixed-point add. Both operands must share a Q format.
    ///
    /// # Panics
    ///
    /// Panics if the two operands have different `frac_bits`.
    // Not `std::ops::Add`: saturates and panics on Q-format mismatch, which
    // the operator's anyone-can-call ergonomics would hide.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, rhs: Fixed) -> Fixed {
        assert_eq!(
            self.frac_bits, rhs.frac_bits,
            "fixed-point add requires matching Q formats"
        );
        let raw = (self.raw + rhs.raw).clamp(i32::from(i16::MIN), i32::from(i16::MAX));
        Fixed {
            raw,
            frac_bits: self.frac_bits,
        }
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}(Q{})", self.to_f64(), self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_rejects_zero_and_too_wide() {
        assert!(Precision::new(0).is_err());
        assert!(Precision::new(17).is_err());
        assert!(Precision::new(1).is_ok());
        assert!(Precision::new(16).is_ok());
    }

    #[test]
    fn precision_dropped_bits_complements_bits() {
        for b in 1..=16 {
            let p = Precision::new(b).unwrap();
            assert_eq!(p.bits() + p.dropped_bits(), 16);
        }
    }

    #[test]
    fn paper_sweep_is_4_8_12_16() {
        let bits: Vec<u32> = Precision::paper_sweep().iter().map(|p| p.bits()).collect();
        assert_eq!(bits, vec![4, 8, 12, 16]);
    }

    #[test]
    fn truncate_zeroes_low_bits() {
        let q = Quantizer::new(Precision::new(12).unwrap(), RoundingMode::Truncate);
        assert_eq!(q.quantize(0x7FFF), 0x7FF0);
        assert_eq!(q.quantize(0x0008), 0x0000);
        assert_eq!(q.quantize(0x0010), 0x0010);
    }

    #[test]
    fn truncate_negative_is_floor() {
        let q = Quantizer::new(Precision::new(8).unwrap(), RoundingMode::Truncate);
        // -1 floors to -256 on a 256-step grid.
        assert_eq!(q.quantize(-1), -256);
        assert_eq!(q.quantize(-256), -256);
    }

    #[test]
    fn round_nearest_halves_typical_error() {
        let p = Precision::new(8).unwrap();
        let t = Quantizer::new(p, RoundingMode::Truncate);
        let r = Quantizer::new(p, RoundingMode::RoundNearest);
        assert_eq!(t.max_error(), 255);
        assert_eq!(r.max_error(), 255); // saturation at the positive edge
        assert_eq!(t.typical_error(), 255);
        assert_eq!(r.typical_error(), 128);
    }

    #[test]
    fn rounding_error_never_exceeds_truncation_error_pointwise() {
        let p = Precision::new(3).unwrap();
        let t = Quantizer::new(p, RoundingMode::Truncate);
        let r = Quantizer::new(p, RoundingMode::RoundNearest);
        for x in (i32::from(i16::MIN)..=i32::from(i16::MAX)).step_by(97) {
            let et = (x - t.quantize(x)).abs();
            let er = (x - r.quantize(x)).abs();
            assert!(er <= et, "x={x}: round err {er} > trunc err {et}");
        }
    }

    #[test]
    fn round_nearest_saturates_at_positive_max() {
        let q = Quantizer::new(Precision::new(8).unwrap(), RoundingMode::RoundNearest);
        let out = q.quantize(i32::from(i16::MAX));
        assert!(out <= i32::from(i16::MAX));
        assert_eq!(out % 256, 0);
    }

    #[test]
    fn full_precision_is_identity() {
        let q = Quantizer::new(Precision::FULL, RoundingMode::Truncate);
        for x in [-32768, -1, 0, 1, 32767, 12345] {
            assert_eq!(q.quantize(x), x);
        }
    }

    #[test]
    fn quantize_slice_matches_scalar() {
        let q = Quantizer::new(Precision::new(4).unwrap(), RoundingMode::Truncate);
        let mut xs = vec![100, -100, 4096, -4096];
        let expect: Vec<i32> = xs.iter().map(|&x| q.quantize(x)).collect();
        q.quantize_slice(&mut xs);
        assert_eq!(xs, expect);
    }

    #[test]
    fn fixed_roundtrip_small_values() {
        for &v in &[0.0, 0.5, -0.5, 0.123, -0.999] {
            let f = Fixed::from_f64(v, 12);
            assert!((f.to_f64() - v).abs() < 1.0 / 4096.0);
        }
    }

    #[test]
    fn fixed_mul_matches_float_product() {
        let a = Fixed::from_f64(1.5, 8);
        let b = Fixed::from_f64(-2.0, 8);
        assert!((a.mul(b).to_f64() + 3.0).abs() < 0.02);
    }

    #[test]
    fn fixed_add_saturates() {
        let a = Fixed::from_raw(i32::from(i16::MAX), 0);
        let b = Fixed::from_raw(10, 0);
        assert_eq!(a.add(b).raw(), i32::from(i16::MAX));
    }

    #[test]
    #[should_panic(expected = "matching Q formats")]
    fn fixed_add_rejects_mismatched_formats() {
        let a = Fixed::from_f64(1.0, 8);
        let b = Fixed::from_f64(1.0, 4);
        let _ = a.add(b);
    }

    #[test]
    fn precision_display() {
        assert_eq!(Precision::new(4).unwrap().to_string(), "4b");
    }

    #[test]
    fn max_value_respects_grid() {
        let p = Precision::new(8).unwrap();
        assert_eq!(p.max_value(), 0x7F00);
        assert_eq!(Precision::FULL.max_value(), 0x7FFF);
    }
}

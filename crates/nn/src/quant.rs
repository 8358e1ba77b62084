//! Symmetric fixed-point quantization of weights and activations.
//!
//! The paper runs CNNs at 1–16-bit fixed point (Section IV-B): each tensor
//! is mapped onto a symmetric integer grid `q ∈ [-(2^(b-1)-1), 2^(b-1)-1]`
//! with a per-tensor scale, and the MAC data path operates on the grid
//! indices — exactly what [`QuantizedTensor`] carries.

use crate::error::NnError;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A tensor snapped to a `bits`-wide symmetric integer grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    /// Grid indices (each fits `bits` signed bits).
    pub data: Vec<i32>,
    /// Real value per grid step; `value = data * scale`.
    pub scale: f64,
    /// Grid width in bits.
    pub bits: u32,
    /// Original shape `(channels, height, width)`.
    pub shape: (usize, usize, usize),
}

impl QuantizedTensor {
    /// Quantizes a tensor to `bits` with a per-tensor symmetric scale.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidBits`] when `bits` is outside `1..=16`,
    /// and [`NnError::NonFiniteInput`] when any element is NaN or ±inf —
    /// a non-finite element would poison `max_abs`, make the scale NaN,
    /// and silently collapse the whole grid to zero.
    pub fn quantize(t: &Tensor, bits: u32) -> Result<Self, NnError> {
        if bits == 0 || bits > 16 {
            return Err(NnError::InvalidBits { bits });
        }
        if t.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(NnError::NonFiniteInput);
        }
        let qmax = if bits == 1 {
            1
        } else {
            (1i32 << (bits - 1)) - 1
        };
        let max_abs = f64::from(t.max_abs());
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / f64::from(qmax)
        };
        let qmax = f64::from(qmax);
        let data = t
            .as_slice()
            .iter()
            .map(|&v| round_to_grid(f64::from(v) / scale, qmax))
            .collect();
        Ok(QuantizedTensor {
            data,
            scale,
            bits,
            shape: t.shape(),
        })
    }

    /// Reconstructs the real-valued tensor on the grid.
    #[must_use]
    pub fn dequantize(&self) -> Tensor {
        let (c, h, w) = self.shape;
        let mut t = Tensor::zeros(c, h, w);
        for (dst, &q) in t.as_mut_slice().iter_mut().zip(self.data.iter()) {
            *dst = (f64::from(q) * self.scale) as f32;
        }
        t
    }

    /// Fraction of zero grid indices (quantization-induced sparsity).
    #[must_use]
    pub fn zero_fraction(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|q| **q == 0).count() as f64 / self.data.len() as f64
    }

    /// Copies the grid indices into an `i16` row-major panel, the layout
    /// `PackedPanel::pack` takes (every index fits: `bits <= 16` means `|q| <= 32767`), returning
    /// the number of zero indices — the operand-sparsity count the
    /// guard-skip statistics are built from. `buf` is cleared first.
    pub fn fill_i16(&self, buf: &mut Vec<i16>) -> u64 {
        buf.clear();
        buf.reserve(self.data.len());
        let mut zeros = 0u64;
        for &q in &self.data {
            zeros += u64::from(q == 0);
            buf.push(q as i16);
        }
        zeros
    }

    /// Worst-case representable magnitude on this grid.
    #[must_use]
    pub fn qmax(&self) -> i32 {
        if self.bits == 1 {
            1
        } else {
            (1i32 << (self.bits - 1)) - 1
        }
    }
}

/// `x.round().clamp(-qmax, qmax) as i32` without the out-of-line `round`
/// call (the baseline x86-64 target has no `roundsd`). Clamping first
/// gives the same grid index, because rounding is monotone and `qmax` is
/// an integer. The clamped value is then rounded half away from zero:
/// `as i32` truncates toward zero, and the fractional part `x - trunc(x)`
/// is exact for `|x| <= 2^15`, so comparing it against ±0.5 decides the
/// ties exactly as `f64::round` does.
#[inline]
fn round_to_grid(x: f64, qmax: f64) -> i32 {
    let x = x.clamp(-qmax, qmax);
    let t = x as i32;
    let frac = x - f64::from(t);
    t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)
}

/// Root-mean-square quantization error of a tensor at a bit width.
///
/// # Errors
///
/// Returns [`NnError::InvalidBits`] when `bits` is outside `1..=16`.
pub fn quantization_rmse(t: &Tensor, bits: u32) -> Result<f64, NnError> {
    let q = QuantizedTensor::quantize(t, bits)?;
    let d = q.dequantize();
    let se: f64 = t
        .as_slice()
        .iter()
        .zip(d.as_slice())
        .map(|(&a, &b)| {
            let e = f64::from(a - b);
            e * e
        })
        .sum();
    Ok((se / t.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_on_grid_values_is_exact() {
        let mut t = Tensor::zeros(1, 1, 4);
        t.set(0, 0, 0, 1.0);
        t.set(0, 0, 1, -1.0);
        t.set(0, 0, 2, 0.5);
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        let d = q.dequantize();
        for i in 0..4 {
            assert!((d.get(0, 0, i) - t.get(0, 0, i)).abs() < 0.01);
        }
    }

    #[test]
    fn rmse_decreases_with_bits() {
        let t = Tensor::random(2, 16, 16, 1);
        let e2 = quantization_rmse(&t, 2).unwrap();
        let e4 = quantization_rmse(&t, 4).unwrap();
        let e8 = quantization_rmse(&t, 8).unwrap();
        assert!(e2 > e4 && e4 > e8, "{e2} {e4} {e8}");
    }

    #[test]
    fn one_bit_grid_is_sign_like() {
        let t = Tensor::random(1, 4, 4, 2);
        let q = QuantizedTensor::quantize(&t, 1).unwrap();
        assert!(q.data.iter().all(|&v| (-1..=1).contains(&v)));
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let t = Tensor::zeros(1, 2, 2);
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        assert!(q.data.iter().all(|&v| v == 0));
        assert_eq!(q.zero_fraction(), 1.0);
    }

    #[test]
    fn values_fit_declared_bits() {
        let t = Tensor::random(2, 8, 8, 3);
        for bits in [2u32, 4, 8, 12, 16] {
            let q = QuantizedTensor::quantize(&t, bits).unwrap();
            let m = q.qmax();
            assert!(q.data.iter().all(|&v| v.abs() <= m), "bits={bits}");
        }
    }

    #[test]
    fn fill_i16_preserves_values_and_counts_zeros() {
        let mut t = Tensor::zeros(1, 1, 5);
        t.set(0, 0, 0, 1.0);
        t.set(0, 0, 3, -1.0);
        let q = QuantizedTensor::quantize(&t, 16).unwrap();
        let mut buf = vec![7i16; 2]; // stale contents must be discarded
        let zeros = q.fill_i16(&mut buf);
        assert_eq!(zeros, 3);
        assert_eq!(buf.len(), 5);
        for (lane, &q32) in buf.iter().zip(&q.data) {
            assert_eq!(i32::from(*lane), q32);
        }
    }

    /// `round_to_grid` agrees with `f64::round` + clamp at every width:
    /// on every tie `±n.5`, one ulp inside and outside each tie, around
    /// `±qmax ± 0.5`, and on random values across and past the grid.
    #[test]
    fn round_to_grid_matches_round_then_clamp() {
        use rand::{Rng, SeedableRng};
        let reference = |x: f64, qmax: f64| x.round().clamp(-qmax, qmax) as i32;
        let ulp = |x: f64, up: bool| {
            // Adjacent doubles of a positive x; mirrored for negatives.
            let m = f64::from_bits(if up {
                x.abs().to_bits() + 1
            } else {
                x.abs().to_bits() - 1
            });
            m.copysign(x)
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6e1d);
        for bits in 1u32..=16 {
            let qmax = if bits == 1 {
                1
            } else {
                (1i32 << (bits - 1)) - 1
            };
            let q = f64::from(qmax);
            let mut probes = vec![0.0, -0.0, q, -q, q + 0.5, -q - 0.5, q - 0.5, 0.5 - q];
            for n in 0..=qmax + 1 {
                let tie = f64::from(n) + 0.5;
                for x in [tie, ulp(tie, true), ulp(tie, false)] {
                    probes.extend([x, -x]);
                }
            }
            for _ in 0..2000 {
                probes.push(rng.gen_range(-1.5 * q - 1.0..1.5 * q + 1.0));
            }
            for x in probes {
                assert_eq!(round_to_grid(x, q), reference(x, q), "bits={bits} x={x:e}");
            }
        }
    }

    #[test]
    fn invalid_bits_rejected() {
        let t = Tensor::zeros(1, 1, 1);
        assert!(QuantizedTensor::quantize(&t, 0).is_err());
        assert!(QuantizedTensor::quantize(&t, 17).is_err());
    }

    #[test]
    fn non_finite_inputs_rejected() {
        // A single NaN/±inf element used to slip through: `max_abs`
        // became NaN, the scale became NaN, and every grid index
        // clamped to 0 — a silently wrong all-zero tensor. It must be a
        // hard error instead.
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut t = Tensor::zeros(1, 2, 2);
            t.set(0, 0, 0, 1.0);
            t.set(0, 1, 1, poison);
            assert_eq!(
                QuantizedTensor::quantize(&t, 8),
                Err(NnError::NonFiniteInput),
                "poison={poison}"
            );
            assert_eq!(quantization_rmse(&t, 8), Err(NnError::NonFiniteInput));
        }
        // Finite extremes are still fine.
        let mut t = Tensor::zeros(1, 1, 2);
        t.set(0, 0, 0, f32::MAX);
        t.set(0, 0, 1, f32::MIN);
        assert!(QuantizedTensor::quantize(&t, 8).is_ok());
    }

    mod purity {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Quantization is a **pure function** of `(input, bits)` —
            /// the assumption the per-`(sample, layer, abits)` activation
            /// memo of the incremental precision search rests on: two
            /// calls on the same input produce bitwise-equal grids,
            /// bit-identical scales, and equal shapes, independent of
            /// call order or repetition.
            #[test]
            fn quantize_is_pure_in_input_and_bits(
                seed in any::<u64>(),
                c in 1usize..=3,
                h in 1usize..=6,
                w in 1usize..=6,
                bits in 1u32..=16,
            ) {
                let t = Tensor::random(c, h, w, seed);
                let a = QuantizedTensor::quantize(&t, bits).unwrap();
                // Interleave a different-width call: no hidden state may
                // leak between quantizations.
                let _ = QuantizedTensor::quantize(&t, (bits % 16) + 1).unwrap();
                let b = QuantizedTensor::quantize(&t, bits).unwrap();
                let c2 = QuantizedTensor::quantize(&t.clone(), bits).unwrap();
                for q in [&b, &c2] {
                    prop_assert_eq!(&a.data, &q.data);
                    prop_assert_eq!(a.scale.to_bits(), q.scale.to_bits());
                    prop_assert_eq!(a.bits, q.bits);
                    prop_assert_eq!(a.shape, q.shape);
                }
            }
        }
    }
}

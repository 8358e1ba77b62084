//! Symmetric fixed-point quantization of weights and activations.
//!
//! The paper runs CNNs at 1–16-bit fixed point (Section IV-B): each tensor
//! is mapped onto a symmetric integer grid `q ∈ [-(2^(b-1)-1), 2^(b-1)-1]`
//! with a per-tensor scale, and the MAC data path operates on the grid
//! indices — exactly what [`QuantizedTensor`] carries, as `i16` (every
//! grid up to 16 bits fits).
//!
//! Quantizing is two passes over the input:
//!
//! 1. the largest `|x|`, taken over the `f32` bit patterns with the sign
//!    bit cleared (which order finite floats like their magnitudes). The
//!    same pass rejects NaN and ±inf: a value is finite exactly when
//!    `bits & 0x7fff_ffff < 0x7f80_0000`;
//! 2. every element divided by the scale and rounded half away from zero
//!    onto the grid ([`round_to_grid`]).
//!
//! On x86-64 hosts with AVX2 (a run-time check; the workspace builds for
//! baseline x86-64) pass 2 runs four lanes at a time: `vdivpd`, clamp,
//! truncate and the same tie test. Elsewhere, and as the oracle the
//! vector path is tested against, it is the scalar [`round_to_grid`]
//! loop. Both do the same IEEE divide and rounding, so they agree bit for
//! bit.

use crate::error::NnError;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A tensor snapped to a `bits`-wide symmetric integer grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    /// Grid indices in the tensor's CHW order (each fits `bits` signed
    /// bits, so `i16` holds every width).
    pub data: Vec<i16>,
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
        let src = t.as_slice();
        let scale = grid_scale(src, bits)?;
        let mut data = vec![0i16; src.len()];
        round_all(src, scale, f64::from(grid_max(bits)), &mut data);
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

    /// Worst-case representable magnitude on this grid.
    #[must_use]
    pub fn qmax(&self) -> i32 {
        grid_max(self.bits)
    }
}

/// The largest index of a `bits`-wide grid (`1..=16`): `2^(bits-1) - 1`,
/// except that the 1-bit grid is `{-1, 0, 1}`.
fn grid_max(bits: u32) -> i32 {
    if bits == 1 {
        1
    } else {
        (1i32 << (bits - 1)) - 1
    }
}

/// Pass 1: the per-tensor scale of `src` on a `bits`-wide grid (`1.0` for
/// an all-zero input).
///
/// # Errors
///
/// [`NnError::InvalidBits`] for `bits` outside `1..=16`, then
/// [`NnError::NonFiniteInput`] when any element is NaN or ±inf.
fn grid_scale(src: &[f32], bits: u32) -> Result<f64, NnError> {
    if bits == 0 || bits > 16 {
        return Err(NnError::InvalidBits { bits });
    }
    let max_bits = max_abs_bits(src);
    if max_bits >= f32::INFINITY.to_bits() {
        return Err(NnError::NonFiniteInput);
    }
    let max_abs = f64::from(f32::from_bits(max_bits));
    Ok(if max_abs == 0.0 {
        1.0
    } else {
        max_abs / f64::from(grid_max(bits))
    })
}

/// The largest `bits & 0x7fff_ffff` over `src` (`0` when empty): the bit
/// pattern of the largest `|x|` when every element is finite, and at
/// least `0x7f80_0000` (+inf) when any is not.
fn max_abs_bits(src: &[f32]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(max) = avx2::max_abs_bits(src) {
        return max;
    }
    max_abs_bits_scalar(src)
}

/// [`max_abs_bits`] as a plain fold (the compiler vectorizes it).
#[inline(always)]
fn max_abs_bits_scalar(src: &[f32]) -> u32 {
    src.iter()
        .fold(0u32, |max, v| max.max(v.to_bits() & 0x7fff_ffff))
}

/// Pass 2: `dst[i] = round_to_grid(src[i] / scale, qmax)`, on the AVX2
/// tier when the host has it.
///
/// # Panics
///
/// Panics when `src` and `dst` differ in length.
fn round_all(src: &[f32], scale: f64, qmax: f64, dst: &mut [i16]) {
    assert_eq!(src.len(), dst.len(), "one grid value per element");
    #[cfg(target_arch = "x86_64")]
    if avx2::round_all(src, scale, qmax, dst) {
        return;
    }
    round_all_scalar(src, scale, qmax, dst);
}

/// Pass 2 one element at a time — the fallback, the vector path's tail,
/// and the oracle the vector path is tested against.
fn round_all_scalar(src: &[f32], scale: f64, qmax: f64, dst: &mut [i16]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = round_to_grid(f64::from(v) / scale, qmax) as i16;
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

/// The AVX2 tier of both passes, dispatched at run time. `unsafe` is
/// confined to this module: each safe entry point checks for AVX2 itself,
/// and the vector loop reads and writes whole 4-lane chunks of its slices.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::{
        __m128i, _mm256_add_pd, _mm256_and_pd, _mm256_cmp_pd, _mm256_cvtepi32_pd, _mm256_cvtps_pd,
        _mm256_cvttpd_epi32, _mm256_div_pd, _mm256_max_pd, _mm256_min_pd, _mm256_set1_pd,
        _mm256_sub_pd, _mm_loadu_ps, _mm_packs_epi32, _mm_storel_epi64, _CMP_GE_OQ, _CMP_LE_OQ,
    };

    /// Whether this host runs the AVX2 tier.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// Pass 1 compiled for AVX2 (`vpmaxud`), or `None` without AVX2.
    pub(super) fn max_abs_bits(src: &[f32]) -> Option<u32> {
        // SAFETY: AVX2 is checked first; the body is safe code.
        available().then(|| unsafe { max_abs_bits_avx2(src) })
    }

    /// # Safety
    ///
    /// AVX2 only.
    #[target_feature(enable = "avx2")]
    unsafe fn max_abs_bits_avx2(src: &[f32]) -> u32 {
        super::max_abs_bits_scalar(src)
    }

    /// Pass 2 on AVX2, or `false` (nothing written) without it.
    pub(super) fn round_all(src: &[f32], scale: f64, qmax: f64, dst: &mut [i16]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: AVX2 was detected above, and the caller checked that the
        // slices have equal lengths.
        unsafe { round_all_avx2(src, scale, qmax, dst) };
        true
    }

    /// Four lanes per step: widen to `f64`, divide, clamp to `±qmax`,
    /// truncate, and add the tie test's `±1` — [`super::round_to_grid`]
    /// lane by lane, with the same IEEE operations. The ragged tail runs
    /// the scalar loop.
    ///
    /// # Safety
    ///
    /// AVX2 only; `src` and `dst` have equal lengths.
    #[target_feature(enable = "avx2")]
    unsafe fn round_all_avx2(src: &[f32], scale: f64, qmax: f64, dst: &mut [i16]) {
        let (s, hi, lo) = (
            _mm256_set1_pd(scale),
            _mm256_set1_pd(qmax),
            _mm256_set1_pd(-qmax),
        );
        let (half, neg_half, one) = (
            _mm256_set1_pd(0.5),
            _mm256_set1_pd(-0.5),
            _mm256_set1_pd(1.0),
        );
        let body = src.len() / 4 * 4;
        for (d, v) in dst[..body]
            .chunks_exact_mut(4)
            .zip(src[..body].chunks_exact(4))
        {
            let x = _mm256_div_pd(_mm256_cvtps_pd(_mm_loadu_ps(v.as_ptr())), s);
            let x = _mm256_min_pd(_mm256_max_pd(x, lo), hi);
            let t = _mm256_cvtepi32_pd(_mm256_cvttpd_epi32(x));
            let frac = _mm256_sub_pd(x, t);
            let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(frac, half), one);
            let down = _mm256_and_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(frac, neg_half), one);
            let q = _mm256_cvttpd_epi32(_mm256_sub_pd(_mm256_add_pd(t, up), down));
            _mm_storel_epi64(d.as_mut_ptr().cast::<__m128i>(), _mm_packs_epi32(q, q));
        }
        super::round_all_scalar(&src[body..], scale, qmax, &mut dst[body..]);
    }
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
    use rand::{Rng, SeedableRng};

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
            assert!(
                q.data.iter().all(|&v| i32::from(v).abs() <= m),
                "bits={bits}"
            );
        }
    }

    /// `round_to_grid` agrees with `f64::round` + clamp at every width:
    /// on every tie `±n.5`, one ulp inside and outside each tie, around
    /// `±qmax ± 0.5`, and on random values across and past the grid.
    #[test]
    fn round_to_grid_matches_round_then_clamp() {
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
            let qmax = grid_max(bits);
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

    /// The pass-2 tier this host runs.
    fn tier() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            return "avx2";
        }
        "scalar"
    }

    /// The quantizer as it was before the two-pass kernel, kept as the
    /// oracle: an `is_finite` scan, an `f32` max-`|x|` fold, and the scalar
    /// [`round_to_grid`] loop. Returns the grid values and the scale bits.
    fn oracle(src: &[f32], bits: u32) -> Result<(Vec<i16>, u64), NnError> {
        if bits == 0 || bits > 16 {
            return Err(NnError::InvalidBits { bits });
        }
        if src.iter().any(|v| !v.is_finite()) {
            return Err(NnError::NonFiniteInput);
        }
        let qmax = if bits == 1 {
            1.0
        } else {
            f64::from((1i32 << (bits - 1)) - 1)
        };
        let max_abs = f64::from(src.iter().fold(0.0f32, |m, v| m.max(v.abs())));
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / qmax };
        let data = src
            .iter()
            .map(|&v| round_to_grid(f64::from(v) / scale, qmax) as i16)
            .collect();
        Ok((data, scale.to_bits()))
    }

    /// Both passes on `src`, with pass 2 on the dispatched tier (`vector`)
    /// or on the scalar loop.
    fn two_pass(src: &[f32], bits: u32, vector: bool) -> Result<(Vec<i16>, u64), NnError> {
        let scale = grid_scale(src, bits)?;
        let qmax = f64::from(grid_max(bits));
        let mut data = vec![i16::MIN; src.len()];
        if vector {
            round_all(src, scale, qmax, &mut data);
        } else {
            round_all_scalar(src, scale, qmax, &mut data);
        }
        Ok((data, scale.to_bits()))
    }

    /// The dispatched quantizer (the AVX2 tier where the host has it; the
    /// test prints which) equals the oracle bit for bit — grid values,
    /// `scale.to_bits()` and shape — at every width 1..=16 and every length
    /// 0..=67, which covers every tail of the 4-lane loop. The inputs: each
    /// grid's ties `±(n + 0.5)` and their 1-ulp neighbours (the grid's
    /// `qmax` in the input pins the scale to exactly 1, so they stay ties
    /// after the divide), ±0.0, subnormals, all-zero inputs, ±`f32::MAX`,
    /// and random values.
    #[test]
    fn vector_quantizer_matches_scalar_oracle() {
        println!("quantize tier: {}", tier());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x71e5);
        let tiny = f32::from_bits(1);
        let subnormal = f32::MIN_POSITIVE / 3.0;
        for bits in 1u32..=16 {
            let q = grid_max(bits) as f32;
            let mut ties = Vec::new();
            for n in 0..grid_max(bits) {
                let tie = n as f32 + 0.5;
                let (up, down) = (
                    f32::from_bits(tie.to_bits() + 1),
                    f32::from_bits(tie.to_bits() - 1),
                );
                for x in [tie, up, down] {
                    ties.extend([x, -x]);
                }
            }
            let mut inputs: Vec<Vec<f32>> = vec![[vec![q, -q], ties.clone()].concat()];
            for len in 0..=67usize {
                let at = rng.gen_range(0..ties.len());
                let window = ties.iter().cycle().skip(at).take(len.saturating_sub(1));
                inputs.push(
                    std::iter::once(q)
                        .chain(window.copied())
                        .take(len)
                        .collect(),
                );
                inputs.push((0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
                inputs.push(vec![0.0; len]);
                inputs.push(
                    (0..len)
                        .map(|i| match (i + bits as usize) % 6 {
                            0 => f32::MAX,
                            1 => -f32::MAX,
                            2 => subnormal,
                            3 => -tiny,
                            4 => -0.0,
                            _ => rng.gen_range(-1e30f32..1e30),
                        })
                        .collect(),
                );
                inputs.push(
                    (0..len)
                        .map(|i| if i % 2 == 0 { subnormal } else { -tiny })
                        .collect(),
                );
            }
            for src in &inputs {
                let want = oracle(src, bits).expect("finite inputs");
                let what = format!(
                    "bits={bits} len={} src={:?}",
                    src.len(),
                    &src[..src.len().min(6)]
                );
                assert_eq!(two_pass(src, bits, true).as_ref(), Ok(&want), "{what}");
                assert_eq!(two_pass(src, bits, false).as_ref(), Ok(&want), "{what}");
                if !src.is_empty() {
                    let t = Tensor::from_vec(1, 1, src.len(), src.clone());
                    let qt = QuantizedTensor::quantize(&t, bits).expect("finite inputs");
                    assert_eq!((&qt.data, qt.scale.to_bits()), (&want.0, want.1), "{what}");
                    assert_eq!((qt.shape, qt.bits), ((1, 1, src.len()), bits), "{what}");
                }
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
        let negative_nan = f32::from_bits(f32::NAN.to_bits() | 0x8000_0000);
        let payload_nan = f32::from_bits(0x7f80_0001);
        for poison in [
            f32::NAN,
            negative_nan,
            payload_nan,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ] {
            let mut t = Tensor::zeros(1, 2, 2);
            t.set(0, 0, 0, 1.0);
            t.set(0, 1, 1, poison);
            assert_eq!(
                QuantizedTensor::quantize(&t, 8),
                Err(NnError::NonFiniteInput),
                "poison={poison}"
            );
            assert_eq!(quantization_rmse(&t, 8), Err(NnError::NonFiniteInput));
            // First, last, and in the ragged tail past the 4-lane body.
            for len in [1usize, 5, 7, 8, 13, 35] {
                let tail = len / 4 * 4;
                for at in [0, len - 1, tail.min(len - 1)] {
                    let mut t = Tensor::random(1, 1, len, len as u64);
                    t.as_mut_slice()[at] = poison;
                    for bits in [1u32, 4, 8, 16] {
                        assert_eq!(
                            QuantizedTensor::quantize(&t, bits),
                            Err(NnError::NonFiniteInput),
                            "poison={poison} len={len} at={at} bits={bits}"
                        );
                    }
                }
            }
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

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
//!    onto the grid (`round_to_grid`).
//!
//! Pass 2 is the one rounding kernel of the crate (`round_lanes`). It
//! reads its values in place, through a gather table or as 2 to 4
//! interleaved planes, row by row, writes each grid value as `i16` or as
//! the 1- or 2-byte lane of an activation fill, and counts the zeros it
//! writes, each with a weight. [`QuantizedTensor`], weight packing and
//! the packed layers' fused activation fill (which writes a conv sample's
//! channel-interleaved lanes straight from its `f32` planes) all run it.
//! Its tiers are picked at run time by CPU features (the workspace builds
//! for baseline x86-64):
//!
//! * **vector** (AVX2, and the `Tier::Avx512` hosts): 8 lanes per step
//!   in `ymm` registers — a load, a `vgatherdps` for a gather table, or,
//!   for 2 to 4 interleaved planes, one load per plane and a permute and
//!   blend per plane for each whole block of 8 columns — and each row's
//!   ragged tail on the scalar loop. A `zmm` version (16 lanes, masked
//!   tails) measured slower on a 2-vCPU Xeon with AVX-512: the `f64`
//!   divide sets the pace (about 0.85 ns per value for `ymm` and `zmm`
//!   alike), and 512-bit operations share the divider's port;
//! * **scalar**: the `round_to_grid` loop, everywhere else, and the
//!   oracle the vector kernel is tested against.
//!
//! Both do the same IEEE divide (`f64`) and clamp; the vector kernel then
//! rounds half away from zero with one add and a truncation that equals
//! the scalar tie test (see `round4`), so they agree bit for bit.

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
        round_lanes(
            Tier::best(),
            Lanes::contiguous(src),
            scale,
            grid_max(bits),
            Out::Grid(&mut data),
        );
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
pub(crate) fn grid_max(bits: u32) -> i32 {
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
pub(crate) fn grid_scale(src: &[f32], bits: u32) -> Result<f64, NnError> {
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
    if let Some(max) = x86::max_abs_bits(src) {
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

/// A pass-2 tier ([`round_lanes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The [`round_to_grid`] loop: the fallback and the oracle.
    Scalar,
    /// The vector kernel of pass 2, 8 lanes per step on AVX2.
    Avx2,
    /// AVX-512 (`avx512f`, `avx512dq`, `avx512vl`): the layers' vector
    /// slice-back, pooling and ReLU; pass 2 runs the AVX2 kernel.
    Avx512,
}

impl Tier {
    /// Every tier, the oracle first.
    #[cfg(test)]
    pub(crate) const ALL: [Tier; 3] = [Tier::Scalar, Tier::Avx2, Tier::Avx512];

    /// Whether this host runs the tier.
    pub(crate) fn available(self) -> bool {
        match self {
            Tier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 | Tier::Avx512 => false,
        }
    }

    /// The fastest tier this host runs.
    pub(crate) fn best() -> Tier {
        if Tier::Avx512.available() {
            Tier::Avx512
        } else if Tier::Avx2.available() {
            Tier::Avx2
        } else {
            Tier::Scalar
        }
    }

    /// The tier's name in test logs.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

/// A gather table for [`Lanes::gathered`]: lane `j` reads offset `at[j]`.
/// Every offset fits `i32`, the index type of `vgatherdps`.
#[derive(Debug, Clone)]
pub(crate) struct Gather {
    at: Vec<u32>,
    /// One past the largest offset (`0` for an empty table).
    span: usize,
    /// `(c, plane)` when the table interleaves `c` planes `plane` values
    /// apart, lane `j` reading plane `j % c` at column `j / c` (see
    /// [`interleave`](Self::interleave)).
    planes: Option<(usize, usize)>,
}

impl Gather {
    /// A table of `at`.
    ///
    /// # Panics
    ///
    /// Panics when an offset does not fit `i32`.
    pub(crate) fn new(at: Vec<u32>) -> Self {
        let span = at.iter().max().map_or(0, |&m| m as usize + 1);
        assert!(span <= i32::MAX as usize + 1, "gather offsets must fit i32");
        Gather {
            at,
            span,
            planes: None,
        }
    }

    /// The table that reads one `w`-wide row of `c` planes `plane` values
    /// apart in channel-interleaved (HWC) order: lane `x*c + ci` reads
    /// plane `ci` at column `x`. The vector kernel reads 2 to 4 planes as
    /// whole vectors and interleaves them in registers instead of
    /// gathering.
    ///
    /// # Panics
    ///
    /// Panics when an offset does not fit `i32`.
    pub(crate) fn interleave(c: usize, plane: usize, w: usize) -> Self {
        let at = (0..w * c)
            .map(|j| u32::try_from((j % c) * plane + j / c).expect("offsets fit u32"))
            .collect();
        Gather {
            planes: Some((c, plane)),
            ..Gather::new(at)
        }
    }
}

/// The values one pass-2 call reads, where it writes them, and what each
/// zero it writes weighs: `rows` rows of `len()` lanes. Lane `j` of row
/// `r` reads `src[r*src_step + j]` (or `src[r*src_step + at[j]]` through
/// a gather table), is written as lane `r*dst_step + j` of the output,
/// and a zero there weighs `weight[j] * row_weight[r]` (an empty weight
/// list weighs 1).
#[derive(Clone, Copy)]
pub(crate) struct Lanes<'a> {
    src: &'a [f32],
    /// The lane count of one row.
    len: usize,
    gather: Option<&'a Gather>,
    weight: &'a [u64],
    rows: usize,
    src_step: usize,
    dst_step: usize,
    row_weight: &'a [u64],
}

impl<'a> Lanes<'a> {
    /// One row, lane `j` is `src[j]`.
    pub(crate) fn contiguous(src: &'a [f32]) -> Self {
        Lanes::prefix(src, src.len())
    }

    /// One row of the first `len` values of `src`, lane `j` is `src[j]`.
    ///
    /// # Panics
    ///
    /// Panics when `len` exceeds the source.
    pub(crate) fn prefix(src: &'a [f32], len: usize) -> Self {
        assert!(len <= src.len(), "lanes outside the source");
        Lanes {
            src,
            len,
            gather: None,
            weight: &[],
            rows: 1,
            src_step: 0,
            dst_step: 0,
            row_weight: &[],
        }
    }

    /// One row, lane `j` is `src[gather.at[j]]`.
    ///
    /// # Panics
    ///
    /// Panics when an offset lies outside `src`.
    pub(crate) fn gathered(src: &'a [f32], gather: &'a Gather) -> Self {
        assert!(
            gather.span <= src.len(),
            "gather offsets outside the source"
        );
        Lanes {
            len: gather.at.len(),
            gather: Some(gather),
            ..Lanes::contiguous(src)
        }
    }

    /// These lanes with a zero at lane `j` weighing `weight[j]`.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is shorter than the lane count.
    pub(crate) fn weighted(self, weight: &'a [u64]) -> Self {
        assert!(weight.len() >= self.len(), "one zero weight per lane");
        Lanes { weight, ..self }
    }

    /// This row of lanes repeated over `row_weight.len()` rows: row `r`
    /// reads the source `r * src_step` values further on, writes `r *
    /// dst_step` lanes further on, and its zeros weigh `row_weight[r]`
    /// times more.
    ///
    /// # Panics
    ///
    /// Panics when the last row reads past the source or overlaps the
    /// row before in the output.
    pub(crate) fn rows(self, (src_step, dst_step): (usize, usize), row_weight: &'a [u64]) -> Self {
        let rows = row_weight.len();
        let (len, span) = (self.len, self.gather.map_or(self.len, |g| g.span));
        if rows > 1 {
            assert!(dst_step >= len, "output rows must not overlap");
            assert!(
                (rows - 1) * src_step + span <= self.src.len(),
                "rows outside the source"
            );
        }
        Lanes {
            rows,
            src_step,
            dst_step,
            row_weight,
            ..self
        }
    }

    /// Row `r` alone: the same lanes with the source starting at the
    /// row.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    fn row(self, r: usize) -> Self {
        Lanes {
            src: &self.src[r * self.src_step..],
            rows: 1,
            row_weight: &[],
            ..self
        }
    }

    /// The lane count of one row.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The output lanes the rows span.
    fn out_len(&self) -> usize {
        match self.rows {
            0 => 0,
            rows => (rows - 1) * self.dst_step + self.len(),
        }
    }

    /// Lane `j`'s value in row `r`.
    #[cfg(test)]
    fn value(&self, r: usize, j: usize) -> f32 {
        let row = &self.src[r * self.src_step..];
        match self.gather {
            None => row[j],
            Some(g) => row[g.at[j] as usize],
        }
    }

    /// The weighed count of one row's zero lanes, given as flags.
    fn weighed_zeros(&self, zero: impl Iterator<Item = bool>) -> u64 {
        if self.weight.is_empty() {
            zero.filter(|&z| z).count() as u64
        } else {
            zero.zip(self.weight).map(|(z, &w)| u64::from(z) * w).sum()
        }
    }

    /// Lane `j`'s zero weight within its row.
    #[inline(always)]
    fn weight(&self, j: usize) -> u64 {
        if self.weight.is_empty() {
            1
        } else {
            self.weight[j]
        }
    }

    /// Row `r`'s zero weight.
    #[inline(always)]
    fn row_weight(&self, r: usize) -> u64 {
        if self.row_weight.is_empty() {
            1
        } else {
            self.row_weight[r]
        }
    }
}

/// Where pass 2 writes its grid values.
pub(crate) enum Out<'a> {
    /// `i16` grid values ([`QuantizedTensor::data`]).
    Grid(&'a mut [i16]),
    /// Little-endian lanes of 1 byte (`X2`, and `X4` staged one lane per
    /// byte; grids of at most 8 bits) or 2 bytes (`X1`): the lanes of a
    /// packed activation fill.
    Lanes(&'a mut [u8], usize),
}

/// Pass 2: every lane of `lanes` becomes `round_to_grid(v / scale,
/// qmax)`, written to `out`, on `tier` (which the host must have).
/// Returns the zero grid values, each counted with its weight.
///
/// # Panics
///
/// Panics when `out` holds fewer lanes than the rows span, when 1-byte
/// lanes are asked of a grid wider than 8 bits, or when `tier` is absent.
pub(crate) fn round_lanes(
    tier: Tier,
    lanes: Lanes<'_>,
    scale: f64,
    qmax: i32,
    out: Out<'_>,
) -> u64 {
    let n = lanes.out_len();
    match &out {
        Out::Grid(d) => assert!(d.len() >= n, "one grid value per lane"),
        Out::Lanes(d, width) => {
            assert!(
                (*width == 1 && qmax <= 127) || *width == 2,
                "a {width}-byte lane cannot hold a grid of ±{qmax}"
            );
            assert!(d.len() >= n * width, "one lane per value");
        }
    }
    assert!(tier.available(), "{} is not available", tier.name());
    let qmax = f64::from(qmax);
    match tier {
        Tier::Scalar => round_scalar(lanes, scale, qmax, out),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 | Tier::Avx512 => x86::round_avx2(lanes, scale, qmax, out),
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Avx2 | Tier::Avx512 => unreachable!("checked available above"),
    }
}

/// Pass 2 lane by lane: the scalar tier and the oracle. A gathered row
/// is first copied into a row buffer, so the rounding loop walks
/// contiguous values and lanes; the zeros are counted from the written
/// lanes afterwards, which keeps that loop as tight as a plain quantizer.
fn round_scalar(lanes: Lanes<'_>, scale: f64, qmax: f64, mut out: Out<'_>) -> u64 {
    let n = lanes.len;
    let mut gathered = Vec::new();
    let mut zeros = 0;
    for r in 0..lanes.rows {
        let src = &lanes.src[r * lanes.src_step..];
        let values = match lanes.gather {
            None => &src[..n],
            Some(g) => {
                gathered.clear();
                gathered.extend(g.at.iter().map(|&at| src[at as usize]));
                &gathered[..]
            }
        };
        let round = |v: &f32| round_to_grid(f64::from(*v) / scale, qmax) as i16;
        let at = r * lanes.dst_step;
        let row_zeros = match &mut out {
            Out::Grid(d) => {
                let d = &mut d[at..at + n];
                for (d, v) in d.iter_mut().zip(values) {
                    *d = round(v);
                }
                lanes.weighed_zeros(d.iter().map(|&q| q == 0))
            }
            Out::Lanes(d, 1) => {
                let d = &mut d[at..at + n];
                for (d, v) in d.iter_mut().zip(values) {
                    *d = round(v) as u8;
                }
                lanes.weighed_zeros(d.iter().map(|&q| q == 0))
            }
            Out::Lanes(d, _) => {
                let d = &mut d[2 * at..2 * (at + n)];
                for (d, v) in d.chunks_exact_mut(2).zip(values) {
                    d.copy_from_slice(&round(v).to_le_bytes());
                }
                lanes.weighed_zeros(d.chunks_exact(2).map(|q| q == [0, 0]))
            }
        };
        zeros += row_zeros * lanes.row_weight(r);
    }
    zeros
}

/// Lanes `from..` of every row, one at a time, output lane `i` written by
/// `put(i, q)`: the vector kernel's row tails.
#[cfg(target_arch = "x86_64")]
fn round_rows(
    lanes: Lanes<'_>,
    from: usize,
    scale: f64,
    qmax: f64,
    mut put: impl FnMut(usize, i16),
) -> u64 {
    let mut zeros = 0;
    for r in 0..lanes.rows {
        let src = &lanes.src[r * lanes.src_step..];
        let base = r * lanes.dst_step;
        let mut row_zeros = 0;
        let mut each = |j: usize, v: f32| {
            let q = round_to_grid(f64::from(v) / scale, qmax) as i16;
            put(base + j, q);
            if q == 0 {
                row_zeros += lanes.weight(j);
            }
        };
        match lanes.gather {
            None => {
                for (j, &v) in src[..lanes.len].iter().enumerate().skip(from) {
                    each(j, v);
                }
            }
            Some(g) => {
                for (j, &at) in g.at.iter().enumerate().skip(from) {
                    each(j, src[at as usize]);
                }
            }
        }
        zeros += row_zeros * lanes.row_weight(r);
    }
    zeros
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

/// The vector kernel of both passes, dispatched at run time. `unsafe` is
/// confined to this module: each entry point runs only on a host with
/// its features ([`Tier::available`], checked by [`round_lanes`]), and
/// every load, gather and store covers whole 8-lane steps of slices whose
/// lengths `round_lanes` and [`Lanes`] checked.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{Lanes, Out};
    use std::arch::x86_64::{
        __m128i, __m256, __m256d, __m256i, _mm256_add_epi64, _mm256_add_pd, _mm256_and_pd,
        _mm256_and_si256, _mm256_blendv_ps, _mm256_castps256_ps128, _mm256_castsi256_ps,
        _mm256_cmpeq_epi32, _mm256_cvtepi16_epi64, _mm256_cvtps_pd, _mm256_cvttpd_epi32,
        _mm256_div_pd, _mm256_extractf128_ps, _mm256_i32gather_ps, _mm256_loadu_ps,
        _mm256_loadu_si256, _mm256_max_pd, _mm256_min_pd, _mm256_or_pd, _mm256_permutevar8x32_ps,
        _mm256_set1_epi32, _mm256_set1_pd, _mm256_setr_epi32, _mm256_setzero_ps,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm256_sub_epi64, _mm_cmpeq_epi16,
        _mm_packs_epi16, _mm_packs_epi32, _mm_setzero_si128, _mm_storel_epi64, _mm_storeu_si128,
        _mm_unpackhi_epi64,
    };

    /// Pass 1 compiled for AVX2 (`vpmaxud`), or `None` without AVX2.
    pub(super) fn max_abs_bits(src: &[f32]) -> Option<u32> {
        // SAFETY: AVX2 is checked first; the body is safe code.
        is_x86_feature_detected!("avx2").then(|| unsafe { max_abs_bits_avx2(src) })
    }

    /// # Safety
    ///
    /// AVX2 only.
    #[target_feature(enable = "avx2")]
    unsafe fn max_abs_bits_avx2(src: &[f32]) -> u32 {
        super::max_abs_bits_scalar(src)
    }

    /// Pass 2 on the vector kernel, row by row: whole blocks of 8
    /// columns of 2 to 4 interleaved planes first, then 8-lane steps,
    /// then the row's tail on the scalar loop. The caller checked that the
    /// host has AVX2.
    pub(super) fn round_avx2(lanes: Lanes<'_>, scale: f64, qmax: f64, mut out: Out<'_>) -> u64 {
        let (dst, width) = match &mut out {
            Out::Grid(d) => (d.as_mut_ptr().cast::<u8>(), 2),
            Out::Lanes(d, width) => (d.as_mut_ptr(), *width),
        };
        let run = Run {
            lanes: &lanes,
            k: [
                scale,
                qmax,
                -qmax,
                f64::from_bits(0.5f64.to_bits() - 1),
                -0.0,
            ],
            dst,
        };
        let planes = match lanes.gather.and_then(|g| g.planes) {
            Some((c @ 2..=4, _)) => c,
            _ => 0,
        };
        // SAFETY: the caller checked AVX2 and that `out` holds the rows'
        // lanes of `width` bytes (`Out::Grid`'s `i16`s are 2-byte
        // little-endian lanes on x86-64); `Lanes` checked that every row's
        // gather offsets lie inside the source (and fit `i32`) and that
        // the weights cover every lane. `rows` reads whole blocks and
        // steps inside each row and writes each row's lanes.
        unsafe {
            match (width, planes) {
                (1, 2) => run.rows::<1, 2>(),
                (1, 3) => run.rows::<1, 3>(),
                (1, 4) => run.rows::<1, 4>(),
                (1, _) => run.rows::<1, 0>(),
                (_, 2) => run.rows::<2, 2>(),
                (_, 3) => run.rows::<2, 3>(),
                (_, 4) => run.rows::<2, 4>(),
                _ => run.rows::<2, 0>(),
            }
        }
    }

    /// One vector pass-2 call: its lanes, the constants of [`round4`]
    /// (scale, `qmax`, `-qmax`, `0.5 - 2^-54`, the sign bit) and where
    /// lane 0 goes.
    struct Run<'r, 'a> {
        lanes: &'r Lanes<'a>,
        k: [f64; 5],
        dst: *mut u8,
    }

    /// Four lanes of [`super::round_to_grid`]: the same IEEE divide and
    /// clamp to `±qmax`, then half away from zero as
    /// `trunc(x + copysign(0.5 - 2^-54, x))` (`vcvttpd2dq`). That equals
    /// the tie test for every `|x| <= 2^15`: below a tie, `x` is at least
    /// one ulp of `x` under it, so the sum stays more than half an ulp
    /// under the next integer and rounds below it; at or above a tie the
    /// sum is within `2^-54` of the next integer or past it, and rounds to
    /// it (ties to even, where `x = 0.5` meets `1 - 2^-54`).
    #[inline(always)]
    unsafe fn round4(v: __m256d, k: &[__m256d; 5]) -> __m128i {
        let [s, hi, lo, half, sign] = *k;
        let x = _mm256_min_pd(_mm256_max_pd(_mm256_div_pd(v, s), lo), hi);
        _mm256_cvttpd_epi32(_mm256_add_pd(x, _mm256_or_pd(_mm256_and_pd(x, sign), half)))
    }

    impl Run<'_, '_> {
        /// The broadcast constants of [`round4`].
        #[inline(always)]
        unsafe fn consts(&self) -> [__m256d; 5] {
            self.k.map(|c| _mm256_set1_pd(c))
        }

        /// Every row: `L`-byte lanes, read in place or through the gather
        /// table (by in-register interleaving of `C` planes for the row's
        /// whole 8-column blocks when `C > 0`), zeros counted with their
        /// weights. Returns the zero count.
        ///
        /// # Safety
        ///
        /// AVX2 only; every row's lanes lie inside the source and `dst`
        /// (as [`Lanes::rows`] and `round_lanes` checked), and `C` matches
        /// the gather table.
        #[target_feature(enable = "avx2")]
        unsafe fn rows<const L: usize, const C: usize>(&self) -> u64 {
            let lanes = self.lanes;
            let k = self.consts();
            let n = lanes.len();
            let (at, plane) = match lanes.gather {
                Some(g) => (g.at.as_ptr(), g.planes.map_or(0, |(_, p)| p)),
                None => (std::ptr::null(), 0),
            };
            // Step `s` of a block of `C` interleaved planes: lane `t`
            // holds column `(8s + t) / C` of plane `(8s + t) % C`.
            let mut pick = [[_mm256_setzero_si256(); 4]; 4];
            let mut column = [_mm256_setzero_si256(); 4];
            for s in 0..C {
                let lane = |t: i32| (8 * s) as i32 + t;
                let (c, l) = (C as i32, [0, 1, 2, 3, 4, 5, 6, 7].map(lane));
                column[s] = _mm256_setr_epi32(
                    l[0] / c,
                    l[1] / c,
                    l[2] / c,
                    l[3] / c,
                    l[4] / c,
                    l[5] / c,
                    l[6] / c,
                    l[7] / c,
                );
                let channel = _mm256_setr_epi32(
                    l[0] % c,
                    l[1] % c,
                    l[2] % c,
                    l[3] % c,
                    l[4] % c,
                    l[5] % c,
                    l[6] % c,
                    l[7] % c,
                );
                for (p, pick) in pick[s].iter_mut().enumerate().take(C) {
                    *pick = _mm256_cmpeq_epi32(channel, _mm256_set1_epi32(p as i32));
                }
            }
            let blocks = if C > 0 { n / (8 * C) } else { 0 };
            let interleaved = blocks * 8 * C;
            let body = interleaved + (n - interleaved) / 8 * 8;
            let mut zeros = 0;
            for r in 0..lanes.rows {
                let src = lanes.src.as_ptr().add(r * lanes.src_step);
                let dst = self.dst.add(r * lanes.dst_step * L);
                let mut acc = _mm256_setzero_si256();
                for block in 0..blocks {
                    let mut columns = [_mm256_setzero_ps(); 4];
                    for (p, columns) in columns.iter_mut().enumerate().take(C) {
                        *columns = _mm256_loadu_ps(src.add(p * plane + 8 * block));
                    }
                    for s in 0..C {
                        let mut v = _mm256_permutevar8x32_ps(columns[0], column[s]);
                        for p in 1..C {
                            let other = _mm256_permutevar8x32_ps(columns[p], column[s]);
                            v = _mm256_blendv_ps(v, other, _mm256_castsi256_ps(pick[s][p]));
                        }
                        put::<L>(v, 8 * (block * C + s), &k, dst, lanes.weight, &mut acc);
                    }
                }
                for j in (interleaved..body).step_by(8) {
                    let v = if !at.is_null() {
                        _mm256_i32gather_ps::<4>(
                            src,
                            _mm256_loadu_si256(at.add(j).cast::<__m256i>()),
                        )
                    } else {
                        _mm256_loadu_ps(src.add(j))
                    };
                    put::<L>(v, j, &k, dst, lanes.weight, &mut acc);
                }
                let mut row_zeros = sum(acc);
                if body < n {
                    let row = lanes.row(r);
                    let tail = |i: usize, q: i16| {
                        // SAFETY: `i < n`, a lane of this row.
                        if L == 1 {
                            unsafe { *dst.add(i) = q as u8 };
                        } else {
                            unsafe {
                                dst.add(2 * i)
                                    .cast::<[u8; 2]>()
                                    .write_unaligned(q.to_le_bytes())
                            };
                        }
                    };
                    let (scale, qmax) = (self.k[0], self.k[1]);
                    row_zeros += super::round_rows(row, body, scale, qmax, tail);
                }
                zeros += row_zeros * lanes.row_weight(r);
            }
            zeros
        }
    }

    /// Rounds the 8 values `v` of lanes `j..j + 8` of a row starting at
    /// `dst`, stores them as `L`-byte lanes, and adds their zeros to `acc`
    /// (each weighing `weight[j]`, or 1 when `weight` is empty).
    #[inline(always)]
    unsafe fn put<const L: usize>(
        v: __m256,
        j: usize,
        k: &[__m256d; 5],
        dst: *mut u8,
        weight: &[u64],
        acc: &mut __m256i,
    ) {
        let qa = round4(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), k);
        let qb = round4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)), k);
        let q = _mm_packs_epi32(qa, qb);
        if L == 1 {
            _mm_storel_epi64(dst.add(j).cast::<__m128i>(), _mm_packs_epi16(q, q));
        } else {
            _mm_storeu_si128(dst.add(2 * j).cast::<__m128i>(), q);
        }
        // All ones (-1) in each zero lane, widened to 64 bits.
        let z = _mm_cmpeq_epi16(q, _mm_setzero_si128());
        let za = _mm256_cvtepi16_epi64(z);
        let zb = _mm256_cvtepi16_epi64(_mm_unpackhi_epi64(z, z));
        if weight.is_empty() {
            *acc = _mm256_sub_epi64(*acc, _mm256_add_epi64(za, zb));
        } else {
            let w = weight.as_ptr().add(j).cast::<__m256i>();
            let wa = _mm256_and_si256(za, _mm256_loadu_si256(w));
            let wb = _mm256_and_si256(zb, _mm256_loadu_si256(w.add(1)));
            *acc = _mm256_add_epi64(*acc, _mm256_add_epi64(wa, wb));
        }
    }

    /// The sum of the four 64-bit lanes of `acc`.
    #[inline(always)]
    unsafe fn sum(acc: __m256i) -> u64 {
        let mut sums = [0u64; 4];
        _mm256_storeu_si256(sums.as_mut_ptr().cast::<__m256i>(), acc);
        sums.iter().sum()
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

    /// Both passes on `src`, with pass 2 on `tier`.
    fn two_pass(src: &[f32], bits: u32, tier: Tier) -> Result<(Vec<i16>, u64), NnError> {
        let scale = grid_scale(src, bits)?;
        let mut data = vec![i16::MIN; src.len()];
        round_lanes(
            tier,
            Lanes::contiguous(src),
            scale,
            grid_max(bits),
            Out::Grid(&mut data),
        );
        Ok((data, scale.to_bits()))
    }

    /// Pass 2 on every tier the host has (the test prints which ran)
    /// equals the oracle bit for bit — grid values and `scale.to_bits()` —
    /// and so does `QuantizedTensor::quantize` with its shape, at every
    /// width 1..=16 and every length 0..=67, which covers every tail of the
    /// 8- and 16-lane loops. The inputs: each
    /// grid's ties `±(n + 0.5)` and their 1-ulp neighbours (the grid's
    /// `qmax` in the input pins the scale to exactly 1, so they stay ties
    /// after the divide), ±0.0, subnormals, all-zero inputs, ±`f32::MAX`,
    /// and random values.
    #[test]
    fn vector_quantizer_matches_scalar_oracle() {
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
                for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
                    let got = two_pass(src, bits, tier);
                    assert_eq!(got.as_ref(), Ok(&want), "{} {what}", tier.name());
                }
                if !src.is_empty() {
                    let t = Tensor::from_vec(1, 1, src.len(), src.clone());
                    let qt = QuantizedTensor::quantize(&t, bits).expect("finite inputs");
                    assert_eq!((&qt.data, qt.scale.to_bits()), (&want.0, want.1), "{what}");
                    assert_eq!((qt.shape, qt.bits), ((1, 1, src.len()), bits), "{what}");
                }
            }
        }
        println!("quantize tiers: {}", tier_log());
    }

    /// Every tier and whether it ran on this host.
    pub(crate) fn tier_log() -> String {
        Tier::ALL
            .iter()
            .map(|t| {
                let ran = if t.available() { "ran" } else { "absent" };
                format!("{} {ran}", t.name())
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The lane outputs of pass 2 — 1- and 2-byte little-endian lanes,
    /// read in place or through a gather table, with and without zero
    /// weights, in one row or in rows of 1 to 5 interleaved planes —
    /// equal the scalar tier byte for byte on every tier the host has, at
    /// every length 0..=67 (every tail), and the weighted zero count
    /// equals the sum of the weights of the zero lanes.
    #[test]
    fn lanes_and_gathers_match_the_scalar_tier() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1a9e);
        for len in 0..=67usize {
            let span = 3 * len + 5;
            let src: Vec<f32> = (0..span)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0f32..1.0),
                })
                .collect();
            let gather = Gather::new((0..len).map(|_| rng.gen_range(0..span as u32)).collect());
            let weight: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1000)).collect();
            for bits in [1u32, 4, 8, 16] {
                let scale = grid_scale(&src, bits).unwrap();
                let qmax = grid_max(bits);
                let widths: &[usize] = if bits <= 8 { &[1, 2] } else { &[2] };
                for &width in widths {
                    for gathered in [false, true] {
                        let lanes = if gathered {
                            Lanes::gathered(&src, &gather)
                        } else {
                            Lanes::contiguous(&src[..len])
                        };
                        let values: Vec<f32> = (0..len).map(|j| lanes.value(0, j)).collect();
                        let grid: Vec<i32> = values
                            .iter()
                            .map(|&v| round_to_grid(f64::from(v) / scale, f64::from(qmax)))
                            .collect();
                        let want: Vec<u8> = grid
                            .iter()
                            .flat_map(|&q| (q as i16).to_le_bytes().into_iter().take(width))
                            .chain([0xA5; 7])
                            .collect();
                        let zeros = |w: &[u64]| -> u64 {
                            grid.iter()
                                .enumerate()
                                .filter(|(_, &q)| q == 0)
                                .map(|(j, _)| w.get(j).copied().unwrap_or(1))
                                .sum()
                        };
                        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
                            for w in [&[][..], &weight[..]] {
                                let mut got = vec![0xA5u8; len * width + 7];
                                let lanes = if w.is_empty() {
                                    lanes
                                } else {
                                    lanes.weighted(w)
                                };
                                let z = round_lanes(
                                    tier,
                                    lanes,
                                    scale,
                                    qmax,
                                    Out::Lanes(&mut got, width),
                                );
                                let what = format!(
                                    "{} len={len} bits={bits} width={width} gathered={gathered} \
                                     weighted={}",
                                    tier.name(),
                                    !w.is_empty()
                                );
                                assert_eq!(got, want, "{what}");
                                assert_eq!(z, zeros(w), "{what}");
                            }
                        }
                    }
                }
            }
        }
        // Rows of interleaved planes, the shape of a conv sample's fill:
        // whole 8-column blocks, 8-lane steps and row tails, gaps between
        // the output rows left untouched, zeros weighted per lane and row.
        for c in 1..=5usize {
            for w in [1usize, 7, 8, 9, 16, 17, 33] {
                for h in [1usize, 2, 3] {
                    let src: Vec<f32> = (0..c * h * w + 3)
                        .map(|i| {
                            if i % 3 == 0 {
                                0.0
                            } else {
                                rng.gen_range(-1.0f32..1.0)
                            }
                        })
                        .collect();
                    let gather = Gather::interleave(c, h * w, w);
                    let weight: Vec<u64> = (0..w * c).map(|j| 1 + j as u64 % 5).collect();
                    let row_weight: Vec<u64> = (0..h).map(|r| 2 + r as u64).collect();
                    let step = w * c + 5;
                    let scale = grid_scale(&src, 8).unwrap();
                    let at = |r: usize, j: usize| {
                        if c == 1 {
                            r * w + j
                        } else {
                            r * w + (j % c) * h * w + j / c
                        }
                    };
                    for width in [1usize, 2] {
                        let mut want = vec![0xA5u8; ((h - 1) * step + w * c) * width + 7];
                        let mut zeros = 0;
                        for r in 0..h {
                            for j in 0..w * c {
                                let q = round_to_grid(f64::from(src[at(r, j)]) / scale, 127.0);
                                let lane = (r * step + j) * width;
                                want[lane..lane + width]
                                    .copy_from_slice(&(q as i16).to_le_bytes()[..width]);
                                if q == 0 {
                                    zeros += weight[j] * row_weight[r];
                                }
                            }
                        }
                        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
                            let lanes = if c == 1 {
                                Lanes::prefix(&src, w)
                            } else {
                                Lanes::gathered(&src, &gather)
                            };
                            let lanes = lanes.weighted(&weight).rows((w, step), &row_weight);
                            let mut got = vec![0xA5u8; want.len()];
                            let z =
                                round_lanes(tier, lanes, scale, 127, Out::Lanes(&mut got, width));
                            let what = format!("{} c={c} w={w} h={h} width={width}", tier.name());
                            assert_eq!(got, want, "{what}");
                            assert_eq!(z, zeros, "{what}");
                        }
                    }
                }
            }
        }
        println!("lane tiers: {}", tier_log());
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
            // First, last, and in the ragged tail past a vector body.
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
            /// the assumption the incremental precision search rests on
            /// when it quantizes a scanned layer's cached input again for
            /// every candidate width: two calls on the same input produce
            /// bitwise-equal grids, bit-identical scales, and equal
            /// shapes, independent of call order or repetition.
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

//! Synthetic structured classification datasets.
//!
//! Substitute for MNIST / ImageNet / LFW (none of which are available in
//! this environment). Each class is a deterministic spatial pattern —
//! Gabor-like gratings with class-specific orientation and frequency plus
//! per-sample noise and jitter — so images carry real, learnable structure
//! while remaining fully reproducible. The paper's Fig. 6 metric (relative
//! accuracy vs. the full-precision network) never consults true labels, so
//! any structured input distribution exercises the same quantization
//! search; labels are still provided for absolute-accuracy experiments.
//!
//! Every `dvafs serve` predict synthesizes its inputs, so the pixel loop
//! has a bit-identical AVX-512 tier (see [`SyntheticDataset::range`]).

use crate::tensor::Tensor;
use dvafs_simd::host::Tier;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A deterministic synthetic labeled image set.
///
/// # Example
///
/// ```
/// use dvafs_nn::dataset::SyntheticDataset;
///
/// let d = SyntheticDataset::digits(16, 1);
/// assert_eq!(d.len(), 16);
/// assert_eq!(d.images()[0].shape(), (1, 28, 28));
/// assert!(d.labels().iter().all(|&l| l < 10));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticDataset {
    images: Vec<Tensor>,
    labels: Vec<usize>,
    classes: usize,
}

impl SyntheticDataset {
    /// Generates `samples` images of `channels x height x width` across
    /// `classes` classes: [`range`](Self::range) over `0..samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` or `classes` is zero.
    #[must_use]
    pub fn new(
        samples: usize,
        classes: usize,
        channels: usize,
        height: usize,
        width: usize,
        seed: u64,
    ) -> Self {
        SyntheticDataset::range(0..samples, classes, channels, height, width, seed)
    }

    /// Samples `samples.start..samples.end` of the set
    /// [`new`](Self::new) generates from the same arguments with
    /// `samples.end` samples, bit for bit, labels included. Sample `i`
    /// draws three values from the seeded stream and then its own noise
    /// stream, so a range replays the draws of the samples before it and
    /// synthesizes only its own images: concatenating the ranges of any
    /// partition of `0..n` gives the `n`-sample set.
    ///
    /// Each image is a Gabor grating: per pixel, in CHW order,
    /// `sin((x·cos θ + y·sin θ)·f + φ + 0.7·ch) · envelope(y, x) + noise`,
    /// where `noise` is one uniform `[-0.12, 0.12)` draw of the image's
    /// own SplitMix64 stream. A per-pixel closure computes it, except from
    /// the `avx512` tier of `dvafs_simd::host::Tier` up, where a vector
    /// kernel computes 8 pixels at a time with the same bits:
    /// - the phase argument is the closure's `f32` expression, in its
    ///   order and without fused operations;
    /// - the sine is glibc's binary32 `sinf` (glibc 2.28 and later, from
    ///   ARM's optimized-routines) in 8 `f64` lanes, with the fused
    ///   operations of the FMA build that x86-64 glibc selects on such
    ///   hosts. Arguments of magnitude 120 or more, which only inputs wider
    ///   than about 100 pixels reach, and non-finite ones go through
    ///   `f32::sin`. So the images match the closure's where `f32::sin` is
    ///   that glibc `sinf`; the module's tests check it on the host that
    ///   runs them;
    /// - noise draw `k` is computed in closed form rather than by walking
    ///   the stream: the state after `k + 1` steps is
    ///   `noise_seed + (k + 1)·0x9E3779B97F4A7C15` (wrapping), mixed and
    ///   scaled as the vendored `StdRng` and its `gen_range` do.
    ///
    /// # Panics
    ///
    /// Panics if the range or `classes` is empty.
    #[must_use]
    pub fn range(
        samples: Range<usize>,
        classes: usize,
        channels: usize,
        height: usize,
        width: usize,
        seed: u64,
    ) -> Self {
        let tier = Tier::best();
        SyntheticDataset::synthesize(tier, samples, classes, channels, height, width, seed)
    }

    /// [`range`](Self::range) on `tier`.
    fn synthesize(
        tier: Tier,
        samples: Range<usize>,
        classes: usize,
        channels: usize,
        height: usize,
        width: usize,
        seed: u64,
    ) -> Self {
        assert!(
            !samples.is_empty() && classes > 0,
            "dataset dimensions must be positive"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // The Gaussian envelope depends only on the pixel, so it is one
        // `height x width` table per dataset (the same `f32` expression,
        // so the same bits).
        let envelope: Vec<f32> = (0..height)
            .flat_map(|y| {
                (0..width).map(move |x| {
                    let dy = y as f32 - height as f32 / 2.0;
                    let dx = x as f32 - width as f32 / 2.0;
                    (-(dx * dx + dy * dy) / (2.0 * (width as f32 / 3.0).powi(2))).exp()
                })
            })
            .collect();
        let mut images = Vec::with_capacity(samples.len());
        let mut labels = Vec::with_capacity(samples.len());
        for i in 0..samples.end {
            let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let jitter: f32 = rng.gen_range(0.9..1.1);
            let noise_seed: u64 = rng.gen();
            if i < samples.start {
                continue;
            }
            let class = i % classes;
            // Class-specific orientation and spatial frequency.
            let angle = std::f32::consts::PI * class as f32 / classes as f32;
            let freq = (0.15 + 0.55 * (class as f32 / classes as f32)) * jitter;
            let (sin, cos) = angle.sin_cos();
            let grating = Grating {
                channels,
                height,
                width,
                envelope: &envelope,
                phase,
                freq,
                sin,
                cos,
                noise_seed,
            };
            images.push(grating.render(tier));
            labels.push(class);
        }
        SyntheticDataset {
            images,
            labels,
            classes,
        }
    }

    /// A 10-class digit-like set: `1 x 28 x 28` (the MNIST geometry used
    /// for LeNet-5).
    #[must_use]
    pub fn digits(samples: usize, seed: u64) -> Self {
        SyntheticDataset::new(samples, 10, 1, 28, 28, seed)
    }

    /// An ImageNet-like RGB set with configurable resolution (AlexNet uses
    /// 227, VGG16 224; tests use smaller sizes).
    #[must_use]
    pub fn image_like(samples: usize, size: usize, classes: usize, seed: u64) -> Self {
        SyntheticDataset::new(samples, classes, 3, size, size, seed)
    }

    /// The images.
    #[must_use]
    pub fn images(&self) -> &[Tensor] {
        &self.images
    }

    /// The labels (class index per image).
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the set is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

/// One image's grating: everything its pixels read besides their
/// coordinates.
struct Grating<'a> {
    channels: usize,
    height: usize,
    width: usize,
    /// The `height x width` Gaussian envelope.
    envelope: &'a [f32],
    phase: f32,
    freq: f32,
    /// Sine and cosine of the class orientation.
    sin: f32,
    cos: f32,
    /// Seed of the image's noise stream: one draw per pixel, in CHW order.
    noise_seed: u64,
}

impl Grating<'_> {
    /// The image on `tier`: the AVX-512 kernel where the tier has it,
    /// else pixel by pixel, the oracle the kernel is tested against.
    fn render(&self, tier: Tier) -> Tensor {
        #[cfg(target_arch = "x86_64")]
        if tier.has_avx512() {
            return avx512::render(tier, self);
        }
        let _ = tier;
        let &Grating {
            envelope,
            phase,
            freq,
            sin: s,
            cos: c,
            width,
            ..
        } = self;
        let mut noise_rng = rand::rngs::StdRng::seed_from_u64(self.noise_seed);
        Tensor::from_fn(self.channels, self.height, width, |ch, y, x| {
            let u = (x as f32 * c + y as f32 * s) * freq;
            let carrier = (u + phase + ch as f32 * 0.7).sin();
            carrier * envelope[y * width + x] + noise_rng.gen_range(-0.12..0.12)
        })
    }
}

/// The AVX-512 tier of [`Grating::render`]. `unsafe` is confined to this
/// module: each safe entry point takes the host's [`Tier`] and asserts
/// that it has AVX-512, and every memory access is a load or store of the
/// live lanes of one row, whose bounds come from checked slices.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use super::{Grating, Tensor, Tier};
    use std::arch::x86_64::{
        __m256, __m512i, __mmask8, _mm256_add_epi32, _mm256_add_ps, _mm256_and_si256,
        _mm256_castps_si256, _mm256_cmp_ps_mask, _mm256_cmpge_epu32_mask, _mm256_cmple_epu32_mask,
        _mm256_cvtepi32_ps, _mm256_loadu_ps, _mm256_mask_blend_ps, _mm256_mask_storeu_ps,
        _mm256_maskz_loadu_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_ps,
        _mm256_srai_epi32, _mm256_srli_epi32, _mm256_storeu_ps, _mm256_test_epi32_mask,
        _mm512_add_epi64, _mm512_castpd_si512, _mm512_castsi512_pd, _mm512_cvtepi32_pd,
        _mm512_cvtepi64_epi32, _mm512_cvtpd_ps, _mm512_cvtps_pd, _mm512_cvttpd_epi32,
        _mm512_fmadd_pd, _mm512_fnmadd_pd, _mm512_mask_blend_pd, _mm512_mask_xor_epi64,
        _mm512_mul_pd, _mm512_mullo_epi64, _mm512_set1_epi64, _mm512_set1_pd, _mm512_setr_epi64,
        _mm512_srli_epi64, _mm512_xor_si512, _CMP_GE_OQ,
    };

    /// SplitMix64's increment, the step of the vendored `StdRng`.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    /// SplitMix64's two mixing multipliers.
    const MIX: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];
    /// The noise range `-0.12..0.12` of the per-pixel draw.
    const NOISE_LO: f32 = -0.12;
    const NOISE_HI: f32 = 0.12;

    /// `2/π · 2^24` and `π/2`, the reduction constants of glibc's `sinf`
    /// (`0x1.45f306dc9c883p+23`, `0x1.921fb54442d18p+0`).
    const HPI_INV: f64 = std::f64::consts::FRAC_2_PI * 16_777_216.0;
    const HPI: f64 = std::f64::consts::FRAC_PI_2;
    /// glibc's `cos` polynomial on `[-π/4, π/4]`: `C1`..`C4`
    /// (`-0x1.ffffffd0c621cp-2`, `0x1.55553e1068f19p-5`,
    /// `-0x1.6c087e89a359dp-10`, `0x1.99343027bf8c3p-16`).
    const C: [f64; 4] = [
        f64::from_bits(0xBFDF_FFFF_FD0C_621C),
        f64::from_bits(0x3FA5_5553_E106_8F19),
        f64::from_bits(0xBF56_C087_E89A_359D),
        f64::from_bits(0x3EF9_9343_027B_F8C3),
    ];
    /// glibc's `sin` polynomial on `[-π/4, π/4]`: `S1`..`S3`
    /// (`-0x1.555545995a603p-3`, `0x1.1107605230bc4p-7`,
    /// `-0x1.994eb3774cf24p-13`).
    const S: [f64; 3] = [
        f64::from_bits(0xBFC5_5554_5995_A603),
        f64::from_bits(0x3F81_1076_0523_0BC4),
        f64::from_bits(0xBF29_94EB_3774_CF24),
    ];

    /// [`Grating::render`] on the kernel.
    pub(super) fn render(tier: Tier, g: &Grating<'_>) -> Tensor {
        assert!(tier.has_avx512(), "an AVX-512 kernel on {tier:?}");
        let mut image = Tensor::zeros(g.channels, g.height, g.width);
        assert_eq!(
            g.envelope.len(),
            g.height * g.width,
            "one envelope value per pixel"
        );
        // SAFETY: a `Tier` that has AVX-512 proves the host has the
        // kernel's features (the `host::Tier` invariant). `image` holds
        // `channels · height` rows of `width` pixels and `envelope` one such
        // row per `y`; the kernel reads and writes only the live lanes of
        // blocks inside one row.
        unsafe { render_rows(g, image.as_mut_slice()) };
        image
    }

    /// Row by row in CHW order, 8 pixels per block; a ragged last block
    /// runs with its dead lanes masked.
    ///
    /// # Safety
    ///
    /// AVX-512 F, DQ and VL and FMA only; `out.len()` is
    /// `channels · height · width`, `width` is positive, and `envelope`
    /// holds `height · width` values.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,fma")]
    unsafe fn render_rows(g: &Grating<'_>, out: &mut [f32]) {
        let (height, width) = (g.height, g.width);
        let iota = _mm256_setr_ps(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0);
        let lane_steps = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
        let lane_steps = _mm512_mullo_epi64(lane_steps, _mm512_set1_epi64(GAMMA as i64));
        let block_steps = _mm512_set1_epi64(GAMMA.wrapping_mul(8) as i64);
        let (cos, freq, phase) = (
            _mm256_set1_ps(g.cos),
            _mm256_set1_ps(g.freq),
            _mm256_set1_ps(g.phase),
        );
        for (row, out) in out.chunks_exact_mut(width).enumerate() {
            let (ch, y) = (row / height, row % height);
            let envelope = &g.envelope[y * width..(y + 1) * width];
            let y_sin = _mm256_set1_ps(y as f32 * g.sin);
            let ch_shift = _mm256_set1_ps(ch as f32 * 0.7);
            // The row's first pixel takes draw `row · width` of the stream.
            let first = g
                .noise_seed
                .wrapping_add(((row * width) as u64 + 1).wrapping_mul(GAMMA));
            let mut state = _mm512_add_epi64(_mm512_set1_epi64(first as i64), lane_steps);
            for x in (0..width).step_by(8) {
                let live: __mmask8 = u8::MAX >> (8 - (width - x).min(8));
                let xs = _mm256_add_ps(_mm256_set1_ps(x as f32), iota);
                let u = _mm256_mul_ps(_mm256_add_ps(_mm256_mul_ps(xs, cos), y_sin), freq);
                let carrier = sin8(_mm256_add_ps(_mm256_add_ps(u, phase), ch_shift), live);
                let env = _mm256_maskz_loadu_ps(live, envelope.as_ptr().add(x));
                let v = _mm256_add_ps(_mm256_mul_ps(carrier, env), noise8(state));
                _mm256_mask_storeu_ps(out.as_mut_ptr().add(x), live, v);
                state = _mm512_add_epi64(state, block_steps);
            }
        }
    }

    /// glibc's binary32 `sinf` in 8 lanes, as its FMA build computes it:
    /// `|y| < 2^-12` returns `y`; otherwise `y` is widened to `f64`,
    /// reduced by the nearest multiple `n` of `π/2` with one fused
    /// multiply-subtract, and the `sin` (`n` even) or `cos` (`n` odd)
    /// polynomial of the remainder is negated when `n & 2` and rounded to
    /// `f32`. The live lanes with `|y| >= 120`, where that reduction loses
    /// accuracy and glibc takes another path, and the non-finite ones go
    /// through `f32::sin`.
    ///
    /// # Safety
    ///
    /// AVX-512 F, DQ and VL and FMA only.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,fma")]
    unsafe fn sin8(y: __m256, live: __mmask8) -> __m256 {
        let top12 = _mm256_and_si256(
            _mm256_srli_epi32::<20>(_mm256_castps_si256(y)),
            _mm256_set1_epi32(0x7ff),
        );
        let x = _mm512_cvtps_pd(y);
        let t = _mm512_cvttpd_epi32(_mm512_mul_pd(x, _mm512_set1_pd(HPI_INV)));
        let n = _mm256_srai_epi32::<24>(_mm256_add_epi32(t, _mm256_set1_epi32(0x80_0000)));
        let r = _mm512_fnmadd_pd(_mm512_cvtepi32_pd(n), _mm512_set1_pd(HPI), x);
        let r2 = _mm512_mul_pd(r, r);
        let r3 = _mm512_mul_pd(r2, r);
        let sin = _mm512_fmadd_pd(
            _mm512_fmadd_pd(r2, _mm512_set1_pd(S[2]), _mm512_set1_pd(S[1])),
            _mm512_mul_pd(r3, r2),
            _mm512_fmadd_pd(r3, _mm512_set1_pd(S[0]), r),
        );
        let r4 = _mm512_mul_pd(r2, r2);
        let cos = _mm512_fmadd_pd(
            _mm512_fmadd_pd(r2, _mm512_set1_pd(C[3]), _mm512_set1_pd(C[2])),
            _mm512_mul_pd(r2, r4),
            _mm512_fmadd_pd(
                r4,
                _mm512_set1_pd(C[1]),
                _mm512_fmadd_pd(r2, _mm512_set1_pd(C[0]), _mm512_set1_pd(1.0)),
            ),
        );
        let odd = _mm256_test_epi32_mask(n, _mm256_set1_epi32(1));
        let v = _mm512_castpd_si512(_mm512_mask_blend_pd(odd, sin, cos));
        let negate = _mm256_test_epi32_mask(n, _mm256_set1_epi32(2));
        let v = _mm512_mask_xor_epi64(v, negate, v, _mm512_set1_epi64(i64::MIN));
        let v = _mm512_cvtpd_ps(_mm512_castsi512_pd(v));
        let tiny = _mm256_cmple_epu32_mask(top12, _mm256_set1_epi32(0x397));
        let v = _mm256_mask_blend_ps(tiny, v, y);
        let wide = _mm256_cmpge_epu32_mask(top12, _mm256_set1_epi32(0x42f)) & live;
        if wide == 0 {
            return v;
        }
        let (mut lanes, mut args) = ([0.0f32; 8], [0.0f32; 8]);
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        _mm256_storeu_ps(args.as_mut_ptr(), y);
        for (j, (lane, arg)) in lanes.iter_mut().zip(args).enumerate() {
            if wide >> j & 1 == 1 {
                *lane = arg.sin();
            }
        }
        _mm256_loadu_ps(lanes.as_ptr())
    }

    /// The noise draws of 8 stream states: SplitMix64's mix of each state
    /// (its last `z ^ z >> 31` step leaves the top 24 bits alone, so it is
    /// skipped), the top 24 bits scaled to a `unit` in `[0, 1)`, then
    /// `lo + unit · (hi − lo)` in `f32` with a draw that rounds up to `hi`
    /// folded to `lo`, as the vendored `gen_range` does.
    ///
    /// # Safety
    ///
    /// AVX-512 F, DQ and VL and FMA only.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,fma")]
    unsafe fn noise8(state: __m512i) -> __m256 {
        let z = _mm512_xor_si512(state, _mm512_srli_epi64::<30>(state));
        let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(MIX[0] as i64));
        let z = _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z));
        let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(MIX[1] as i64));
        let top = _mm256_cvtepi32_ps(_mm512_cvtepi64_epi32(_mm512_srli_epi64::<40>(z)));
        // `(top · 2^-24) · span` in one multiply: scaling by a power of
        // two is exact here, so both forms round the same real product.
        let scale = (NOISE_HI - NOISE_LO) / (1u64 << 24) as f32;
        let v = _mm256_add_ps(
            _mm256_set1_ps(NOISE_LO),
            _mm256_mul_ps(top, _mm256_set1_ps(scale)),
        );
        let at_hi = _mm256_cmp_ps_mask::<_CMP_GE_OQ>(v, _mm256_set1_ps(NOISE_HI));
        _mm256_mask_blend_ps(at_hi, v, _mm256_set1_ps(NOISE_LO))
    }

    /// `dst[i] = sin(src[i])` through [`sin8`].
    #[cfg(test)]
    pub(super) fn sin_all(tier: Tier, src: &[f32], dst: &mut [f32]) {
        assert!(tier.has_avx512(), "an AVX-512 kernel on {tier:?}");
        assert_eq!(src.len(), dst.len(), "one output per input");
        // SAFETY: a `Tier` that has AVX-512 proves the host has the
        // kernel's features (the `host::Tier` invariant); each block reads
        // and writes only its live lanes, which lie inside both slices.
        unsafe {
            for (d, s) in dst.chunks_mut(8).zip(src.chunks(8)) {
                let live = u8::MAX >> (8 - s.len());
                let v = sin8(_mm256_maskz_loadu_ps(live, s.as_ptr()), live);
                _mm256_mask_storeu_ps(d.as_mut_ptr(), live, v);
            }
        }
    }

    /// Draws `first..first + dst.len()` of the noise stream seeded with
    /// `seed` through [`noise8`].
    #[cfg(test)]
    pub(super) fn noise_all(tier: Tier, seed: u64, first: u64, dst: &mut [f32]) {
        assert!(tier.has_avx512(), "an AVX-512 kernel on {tier:?}");
        // SAFETY: a `Tier` that has AVX-512 proves the host has the
        // kernel's features (the `host::Tier` invariant); each block
        // writes only its live lanes, which lie inside `dst`.
        unsafe {
            for (b, d) in dst.chunks_mut(8).enumerate() {
                let live = u8::MAX >> (8 - d.len());
                let k = first + 8 * b as u64;
                let states: [i64; 8] = std::array::from_fn(|j| {
                    seed.wrapping_add((k + j as u64 + 1).wrapping_mul(GAMMA)) as i64
                });
                let state = _mm512_setr_epi64(
                    states[0], states[1], states[2], states[3], states[4], states[5], states[6],
                    states[7],
                );
                _mm256_mask_storeu_ps(d.as_mut_ptr(), live, noise8(state));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticDataset::digits(8, 5);
        let b = SyntheticDataset::digits(8, 5);
        assert_eq!(a, b);
    }

    /// The bit patterns of a set's pixels, image after image.
    fn bits(images: &[Tensor]) -> Vec<u32> {
        images
            .iter()
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// On every tier the host has, any partition of `0..n` into ranges —
    /// single samples, ragged tails, the `DEFAULT_BATCH_SIZE` chunks
    /// `dvafs serve` uses — concatenates to the whole set bit for bit,
    /// labels included, at a geometry narrower than one 8-pixel block,
    /// one with a ragged block per row, and AlexNet's default input.
    #[test]
    fn ranges_concatenate_to_the_whole_set() {
        println!("{}", dvafs_simd::host::tiers_line());
        let (n, classes, seed) = (23, 10, 11);
        for (tier, (channels, h, w)) in Tier::all()
            .iter()
            .flat_map(|&tier| [(3, 9, 7), (3, 13, 13), (3, 67, 67)].map(|shape| (tier, shape)))
        {
            let set = |samples| {
                SyntheticDataset::synthesize(tier, samples, classes, channels, h, w, seed)
            };
            let whole = set(0..n);
            let partitions: [Vec<usize>; 6] = [
                vec![n],
                vec![1, n],
                vec![n - 1, n],
                vec![16, n],
                vec![2, 3, 10, 21, n],
                (1..=n).collect(),
            ];
            for ends in partitions {
                let (mut images, mut labels) = (Vec::new(), Vec::new());
                let mut start = 0;
                for &end in &ends {
                    let part = set(start..end);
                    assert_eq!(part.len(), end - start);
                    assert_eq!(part.classes(), classes);
                    images.extend_from_slice(part.images());
                    labels.extend_from_slice(part.labels());
                    start = end;
                }
                let case = format!("{tier:?} {channels}x{h}x{w} ends {ends:?}");
                assert_eq!(bits(&images), bits(whole.images()), "{case}");
                assert_eq!(labels, whole.labels(), "{case}");
            }
        }
    }

    /// The oracle net: synthesis on every tier the host has (the AVX-512
    /// kernel from the `avx512` tier up) equals the per-pixel closure (the
    /// `scalar` tier) bit for bit, labels included. Shapes cover 1–3
    /// channels; widths below, at and around one 8-pixel block, ragged
    /// blocks, non-square images, the LeNet-5, VGG16 and AlexNet serve
    /// inputs and the 227×227 AlexNet geometry, whose arguments reach the
    /// `|y| >= 120` lanes; ranges start past zero as serve chunks do, over
    /// many seeds.
    #[test]
    fn kernel_matches_the_pixel_closure() {
        println!("{}", dvafs_simd::host::tiers_line());
        let shapes: [((usize, usize, usize), u64); 16] = [
            ((1, 1, 1), 24),
            ((3, 1, 1), 24),
            ((1, 7, 7), 24),
            ((2, 8, 8), 24),
            ((3, 9, 9), 24),
            ((3, 13, 13), 24),
            ((1, 28, 28), 16),
            ((3, 32, 32), 16),
            ((3, 67, 67), 8),
            ((3, 227, 227), 2),
            ((1, 3, 17), 24),
            ((2, 17, 3), 24),
            ((3, 5, 64), 16),
            ((2, 40, 9), 16),
            ((1, 1, 130), 16),
            ((3, 101, 150), 2),
        ];
        let mut pixels = 0;
        for ((channels, h, w), seeds) in shapes {
            for seed in 0..seeds {
                let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (h * w) as u64;
                let classes = 1 + (seed % 12) as usize;
                let start = (seed % 5) as usize;
                let samples = start..start + 1 + (seed % 3) as usize;
                let on = |tier| {
                    SyntheticDataset::synthesize(
                        tier,
                        samples.clone(),
                        classes,
                        channels,
                        h,
                        w,
                        seed,
                    )
                };
                let oracle = on(Tier::all()[0]);
                for &tier in Tier::all() {
                    let fast = on(tier);
                    let case =
                        format!("{tier:?} {channels}x{h}x{w} seed {seed} samples {samples:?}");
                    assert_eq!(bits(fast.images()), bits(oracle.images()), "{case}");
                    assert_eq!(fast.labels(), oracle.labels(), "{case}");
                }
                pixels += samples.len() * channels * h * w;
            }
        }
        println!("synthesis oracle net: {pixels} pixels");
    }

    /// The kernel's closed-form noise draw `k` is the `k`-th
    /// `gen_range(-0.12..0.12)` draw of `StdRng::seed_from_u64(seed)`,
    /// for seeds whose states wrap, at offsets that are not multiples of
    /// the 8-lane block.
    #[test]
    fn closed_form_noise_draws_match_the_stream() {
        println!("{}", dvafs_simd::host::tiers_line());
        #[cfg(target_arch = "x86_64")]
        if Tier::best().has_avx512() {
            let mut seeds = vec![0, 1, u64::MAX, u64::MAX - 0x9E37_79B9_7F4A_7C15, 1 << 63];
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1CE);
            seeds.extend((0..16).map(|_| rng.gen::<u64>()));
            for seed in seeds {
                let mut stream = rand::rngs::StdRng::seed_from_u64(seed);
                let draws: Vec<f32> = (0..4099).map(|_| stream.gen_range(-0.12..0.12)).collect();
                for first in [0, 1, 7, 8, 13, 1000] {
                    let mut kernel = vec![f32::NAN; draws.len() - first];
                    avx512::noise_all(Tier::best(), seed, first as u64, &mut kernel);
                    let want: Vec<u32> = draws[first..].iter().map(|v| v.to_bits()).collect();
                    let got: Vec<u32> = kernel.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "seed {seed:#x} first {first}");
                }
            }
        }
    }

    /// Bit patterns around the places where the vector `sinf` changes
    /// behaviour: the `|y| < 2^-12` early return (top-12 `0x397`/`0x398`),
    /// `π/4` and its top-12 boundary `0x3f4` (where glibc switches from
    /// the direct polynomial to the reduction), quadrant boundaries, the
    /// `|y| = 120` hand-over to `f32::sin`, ±0, subnormals, ±∞ and NaN —
    /// each with its neighbours and both signs.
    fn sin_edge_patterns() -> Vec<u32> {
        let mut centers = vec![
            0x397 << 20,
            0x398 << 20,
            0x3f4 << 20,
            std::f32::consts::FRAC_PI_4.to_bits(),
            std::f32::consts::FRAC_PI_2.to_bits(),
            std::f32::consts::PI.to_bits(),
            (3.0 * std::f32::consts::FRAC_PI_4).to_bits(),
            120.0f32.to_bits(),
            0x42f << 20,
            0,
            1,
            0x0040_0000,
            0x007f_ffff,
            0x0080_0000,
            f32::MAX.to_bits(),
            f32::INFINITY.to_bits(),
            f32::NAN.to_bits(),
        ];
        centers.extend((1..77).map(|n| (n as f32 * std::f32::consts::FRAC_PI_2).to_bits()));
        let mut patterns = Vec::new();
        for c in centers {
            for d in 0..=8u32 {
                for bits in [c.wrapping_add(d), c.wrapping_sub(d)] {
                    patterns.extend([bits & 0x7fff_ffff, bits | 0x8000_0000]);
                }
            }
        }
        patterns
    }

    /// Checks the vector `sinf` against `f32::sin` on `patterns`; returns
    /// `false` when the host has no vector tier.
    fn vector_sinf_matches_libm(patterns: &[u32]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if Tier::best().has_avx512() {
            let src: Vec<f32> = patterns.iter().map(|&b| f32::from_bits(b)).collect();
            let mut dst = vec![0.0f32; src.len()];
            avx512::sin_all(Tier::best(), &src, &mut dst);
            for (y, v) in src.iter().zip(&dst) {
                assert_eq!(
                    v.to_bits(),
                    y.sin().to_bits(),
                    "sin({y:e}) [{:#010x}]",
                    y.to_bits()
                );
            }
            return true;
        }
        let _ = patterns;
        false
    }

    /// The vector `sinf` equals `f32::sin` bit for bit on every 1021st
    /// bit pattern (about 4.2M values of every sign, exponent and class)
    /// and on the edge patterns.
    #[test]
    fn vector_sinf_matches_libm_on_a_strided_subset() {
        println!("{}", dvafs_simd::host::tiers_line());
        let edges = sin_edge_patterns();
        if !vector_sinf_matches_libm(&edges) {
            return;
        }
        let mut strided = (0..=u32::MAX).step_by(1021);
        let mut checked = edges.len();
        loop {
            let chunk: Vec<u32> = strided.by_ref().take(1 << 16).collect();
            if chunk.is_empty() {
                break;
            }
            assert!(vector_sinf_matches_libm(&chunk));
            checked += chunk.len();
        }
        println!("vector sinf: {checked} patterns match");
    }

    /// The vector `sinf` equals `f32::sin` on every `f32` below 120 in
    /// magnitude (2,246,049,792 values), the whole range it evaluates
    /// itself. Minutes in the dev profile; run it with `--release`.
    #[test]
    #[ignore = "exhaustive: run with --release -- --ignored"]
    fn vector_sinf_matches_libm_exhaustively_below_120() {
        println!("{}", dvafs_simd::host::tiers_line());
        const END: u32 = 0x42f << 20;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u32;
        let ran = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|id| {
                    scope.spawn(move || {
                        let mut patterns = Vec::with_capacity(2 << 16);
                        let mut lo = id << 16;
                        while lo < END {
                            let hi = (lo + (1 << 16)).min(END);
                            patterns.clear();
                            patterns.extend(lo..hi);
                            patterns.extend((lo..hi).map(|b| b | 0x8000_0000));
                            if !vector_sinf_matches_libm(&patterns) {
                                return false;
                            }
                            lo += workers << 16;
                        }
                        true
                    })
                })
                .collect();
            let ran: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            ran.into_iter().all(|r| r)
        });
        if ran {
            println!(
                "vector sinf: all {} values below 120 match",
                2 * u64::from(END)
            );
        }
    }

    #[test]
    fn labels_cycle_through_classes() {
        let d = SyntheticDataset::new(8, 4, 1, 8, 8, 1);
        assert_eq!(d.labels(), &[0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn different_classes_produce_different_images() {
        let d = SyntheticDataset::new(2, 2, 1, 16, 16, 2);
        let diff: f32 = d.images()[0]
            .as_slice()
            .iter()
            .zip(d.images()[1].as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 1.0,
            "classes should be visually distinct, diff={diff}"
        );
    }

    #[test]
    fn image_like_has_rgb_channels() {
        let d = SyntheticDataset::image_like(2, 32, 100, 3);
        assert_eq!(d.images()[0].shape(), (3, 32, 32));
        assert_eq!(d.classes(), 100);
    }

    #[test]
    fn values_are_bounded() {
        let d = SyntheticDataset::digits(4, 9);
        for img in d.images() {
            assert!(img.max_abs() <= 1.2);
        }
    }
}

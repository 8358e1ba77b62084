//! CNN layers with an integer MAC data path.
//!
//! [`Conv2d`] implements equation (4) of the paper; [`Dense`] the
//! matrix-vector classifier layers; [`Layer::ReLU`] and
//! [`Layer::MaxPool2d`] the non-linearity and pooling stages of Fig. 5.
//! Convolution and dense layers execute on quantized integers with 64-bit
//! accumulation — the arithmetic a DVAFS MAC array performs — and report
//! the MAC/sparsity statistics that drive the Envision power model.
//!
//! Three interchangeable MAC kernels execute that arithmetic (see
//! [`crate::kernel`]): the original scalar loops ([`NnKernel::Naive`], the
//! reference oracle), the im2col + blocked-integer-GEMM path
//! ([`NnKernel::Gemm`]), and the default subword-packed GEMM
//! ([`NnKernel::GemmPacked`]). The packed kernel runs a single sample and
//! a whole batch alike through one fused path that fills the packed
//! activation panel in place, whole row by whole row. Accumulation is
//! exact in `i64`, so all three produce byte-identical outputs and
//! statistics.

use crate::error::NnError;
use crate::kernel::{mode_for_bits, NnKernel, PackedWeights, Scratch, WeightCache};
use crate::quant::QuantizedTensor;
use crate::tensor::Tensor;
use dvafs_arith::SubwordMode;
use dvafs_simd::gemm;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Packs one whole staged panel row into its `PackedPanel::begin_fill`
/// words: `lanes` holds the row's operands as two's-complement bit
/// patterns, zero padding included (`row.len() * mode.lanes()` of them),
/// and word `w` receives lanes `w*mode.lanes()..` as `lane_bits` fields,
/// lane 0 at the LSBs — exactly where `repack` would place them. At `X1`
/// the word IS the operand.
fn pack_row(mode: SubwordMode, lanes: &[u16], row: &mut [u16]) {
    fn fields<const LANES: usize, const WBITS: u16>(lanes: &[u16], row: &mut [u16]) {
        let mask = ((1u32 << WBITS) - 1) as u16;
        for (d, chunk) in row.iter_mut().zip(lanes.chunks_exact(LANES)) {
            let mut word = 0u16;
            for (l, &v) in chunk.iter().enumerate() {
                word |= (v & mask) << (l as u16 * WBITS);
            }
            *d = word;
        }
    }
    match mode {
        SubwordMode::X1 => row.copy_from_slice(&lanes[..row.len()]),
        SubwordMode::X2 => fields::<2, 8>(lanes, row),
        SubwordMode::X4 => fields::<4, 4>(lanes, row),
    }
}

/// The one result of a single-sample batch forward.
fn single(
    results: Result<Vec<(Tensor, LayerStats)>, NnError>,
) -> Result<(Tensor, LayerStats), NnError> {
    results.map(|mut r| r.pop().expect("one result per sample"))
}

/// The most negative lane value of `mode`, which engages the exact
/// min-correction kernel.
fn lane_min(mode: SubwordMode) -> i32 {
    -(1i32 << (mode.lane_bits() - 1))
}

/// Writes one dense panel row (a sample's whole activation vector, then
/// zeros to the row's end) through the `stage` buffer, which holds
/// `row.len() * mode.lanes()` lanes and whose tail past `src.len()` is
/// zero. Returns the row's `(zero_count, has_min)`.
fn fill_dense_row(
    mode: SubwordMode,
    src: &[i32],
    stage: &mut [u16],
    row: &mut [u16],
) -> (u64, bool) {
    let min_lane = lane_min(mode);
    let mut zeros = 0u64;
    let mut min = false;
    for (d, &q) in stage.iter_mut().zip(src) {
        zeros += u64::from(q == 0);
        min |= q == min_lane;
        *d = q as u16;
    }
    pack_row(mode, stage, row);
    (zeros, min)
}

/// Execution statistics of one layer forward pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerStats {
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// MACs whose weight operand quantized to zero (guard-skippable).
    pub zero_weight_macs: u64,
    /// MACs whose activation operand quantized to zero (guard-skippable).
    pub zero_act_macs: u64,
}

impl LayerStats {
    /// Weight sparsity observed during the pass.
    #[must_use]
    pub fn weight_sparsity(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.zero_weight_macs as f64 / self.macs as f64
        }
    }

    /// Activation (input) sparsity observed during the pass.
    #[must_use]
    pub fn input_sparsity(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.zero_act_macs as f64 / self.macs as f64
        }
    }
}

/// A 2-D convolution layer (`F` filters of `K x K x C`, stride `S`,
/// symmetric zero padding), equation (4) of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    weights: Vec<f32>,
    bias: Vec<f32>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// Memoized per-bit-width weight quantizations (execution state, not
    /// model identity: ignored by `PartialEq`, cleared by `weights_mut`).
    #[serde(skip)]
    cache: WeightCache,
}

impl PartialEq for Conv2d {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
            && self.bias == other.bias
            && self.in_channels == other.in_channels
            && self.out_channels == other.out_channels
            && self.kernel == other.kernel
            && self.stride == other.stride
            && self.padding == other.padding
    }
}

impl Conv2d {
    /// Creates a convolution with deterministic He-scaled pseudo-trained
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the stride is zero.
    #[must_use]
    pub fn random(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "convolution dimensions must be positive"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = (in_channels * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        let count = out_channels * in_channels * kernel * kernel;
        // Uniform(-sqrt(3)σ, sqrt(3)σ) has standard deviation σ.
        let lim = std * 3f32.sqrt();
        let weights = (0..count).map(|_| rng.gen_range(-lim..lim)).collect();
        let bias = (0..out_channels)
            .map(|_| rng.gen_range(-0.05..0.05))
            .collect();
        Conv2d {
            weights,
            bias,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cache: WeightCache::default(),
        }
    }

    /// Filter count (`F`).
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size (`K`).
    #[must_use]
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Weight tensor as a flat slice (`F*C*K*K`).
    #[must_use]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable weights (for pruning). Invalidates the memoized weight
    /// quantizations — the next forward pass re-packs.
    #[must_use]
    pub fn weights_mut(&mut self) -> &mut [f32] {
        self.cache.invalidate();
        &mut self.weights
    }

    fn weights_tensor(&self) -> Tensor {
        let mut t = Tensor::zeros(1, 1, self.weights.len());
        t.as_mut_slice().copy_from_slice(&self.weights);
        t
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    fn forward_with(
        &self,
        input: &Tensor,
        wbits: u32,
        abits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        let (c, h, w) = input.shape();
        if c != self.in_channels
            || h + 2 * self.padding < self.kernel
            || w + 2 * self.padding < self.kernel
        {
            return Err(NnError::ShapeMismatch {
                expected: (self.in_channels, self.kernel, self.kernel),
                actual: (c, h, w),
            });
        }
        let qa = QuantizedTensor::quantize(input, abits)?;
        self.forward_quant(&qa, wbits, kernel, scratch)
    }

    /// Executes the convolution on an already-quantized input activation —
    /// the entry point the incremental precision search drives through its
    /// per-`(sample, layer, abits)` [`crate::kernel::ActivationCache`]
    /// memo. Quantization is a pure function of `(input, bits)`, so this
    /// is bit-identical to quantizing inline.
    pub(crate) fn forward_quant(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        let (c, h, w) = qa.shape;
        if c != self.in_channels
            || h + 2 * self.padding < self.kernel
            || w + 2 * self.padding < self.kernel
        {
            return Err(NnError::ShapeMismatch {
                expected: (self.in_channels, self.kernel, self.kernel),
                actual: (c, h, w),
            });
        }
        match kernel {
            NnKernel::Naive => self.forward_naive(qa, wbits),
            NnKernel::Gemm => self.forward_gemm(qa, wbits, scratch),
            NnKernel::GemmPacked => single(self.forward_quant_batch(&[qa], wbits, kernel, scratch)),
        }
    }

    /// The original 7-deep scalar loop — the reference oracle the GEMM
    /// path is property-tested against. Kept verbatim (the input
    /// quantization moved to the callers; the MAC loop is untouched).
    fn forward_naive(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
    ) -> Result<(Tensor, LayerStats), NnError> {
        let (_, h, w) = qa.shape;
        let qw = QuantizedTensor::quantize(&self.weights_tensor(), wbits)?;
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(self.out_channels, oh, ow);
        let mut stats = LayerStats::default();
        let k = self.kernel;
        let pad = self.padding as isize;
        let scale = qa.scale * qw.scale;
        for f in 0..self.out_channels {
            let wbase = f * self.in_channels * k * k;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc: i64 = 0;
                    for ci in 0..self.in_channels {
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue; // zero padding contributes nothing
                            }
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let a = qa.data[(ci * h + iy as usize) * w + ix as usize];
                                let wv = qw.data[wbase + (ci * k + ky) * k + kx];
                                stats.macs += 1;
                                if wv == 0 {
                                    stats.zero_weight_macs += 1;
                                }
                                if a == 0 {
                                    stats.zero_act_macs += 1;
                                }
                                acc += i64::from(a) * i64::from(wv);
                            }
                        }
                    }
                    out.set(
                        f,
                        oy,
                        ox,
                        (acc as f64 * scale + f64::from(self.bias[f])) as f32,
                    );
                }
            }
        }
        Ok((out, stats))
    }

    /// The memoized weight quantization for `wbits` (packed on first use;
    /// `weights_mut` invalidates).
    fn packed_weights(&self, wbits: u32) -> Result<Arc<PackedWeights>, NnError> {
        if wbits == 0 || wbits > 16 {
            return Err(NnError::InvalidBits { bits: wbits });
        }
        Ok(self.cache.get_or_pack(wbits, || {
            let qw = QuantizedTensor::quantize(&self.weights_tensor(), wbits)
                .expect("bit width validated above");
            // Layout is [f][ci][ky][kx], so index % K² is the spatial tap.
            let k2 = self.kernel * self.kernel;
            let mut zeros_per_tap = vec![0u64; k2];
            let mut zeros_total = 0u64;
            let mut qi16 = Vec::with_capacity(qw.data.len());
            for (i, &q) in qw.data.iter().enumerate() {
                if q == 0 {
                    zeros_per_tap[i % k2] += 1;
                    zeros_total += 1;
                }
                qi16.push(q as i16);
            }
            // Pre-pack the subword panel at the width's own mode (one
            // filter per row): the GemmPacked hot path then only packs
            // activations.
            let panel = gemm::PackedPanel::pack(
                &qi16,
                self.out_channels,
                self.in_channels * k2,
                mode_for_bits(wbits),
            );
            PackedWeights {
                qi16,
                scale: qw.scale,
                zeros_per_tap,
                zeros_total,
                panel,
            }
        }))
    }

    /// Per-tap in-bounds output counts along one spatial axis: entry `kk`
    /// is the number of output positions `o` in `0..out_len` whose input
    /// coordinate `o*stride + kk - padding` lands inside `0..dim`. These
    /// counts are what the naive loop's per-MAC guards reduce to, so the
    /// GEMM path (and the exact [`mac_count`](Self::mac_count)) rebuilds
    /// the statistics from them without touching any data.
    fn axis_tap_counts(&self, out_len: usize, dim: usize) -> Vec<u64> {
        let pad = self.padding as isize;
        (0..self.kernel)
            .map(|kk| {
                (0..out_len)
                    .filter(|o| {
                        let i = (o * self.stride + kk) as isize - pad;
                        i >= 0 && (i as usize) < dim
                    })
                    .count() as u64
            })
            .collect()
    }

    /// Packs one sample's im2col panel into the **pre-zeroed** `patches`
    /// (length `n * klen`), counting in-bounds zero activations as it
    /// goes — a padding tap is a *skipped* MAC, not a zero-operand MAC,
    /// so structural zeros come from the zeroed buffer and are not
    /// counted. Shared by the per-sample and batched `Gemm` paths, so
    /// their panels (and zero-activation counts) are bit-identical by
    /// construction.
    fn pack_im2col(&self, qa: &QuantizedTensor, patches: &mut [i16]) -> u64 {
        let (_, h, w) = qa.shape;
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        let c = self.in_channels;
        let klen = c * k * k;
        let pad = self.padding as isize;
        let mut zero_acts = 0u64;
        for oy in 0..oh {
            for ky in 0..k {
                let iy = (oy * self.stride + ky) as isize - pad;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let iy = iy as usize;
                for ox in 0..ow {
                    let row = (oy * ow + ox) * klen;
                    // Hoist the per-tap ix bounds check: tap kx is in
                    // bounds iff 0 <= ox*stride + kx - pad < w, so the
                    // in-bounds taps form one contiguous kx range and the
                    // two innermost loops run over contiguous reads
                    // (src[ix0..]) and contiguous writes (dst[kx_lo..]).
                    let base = (ox * self.stride) as isize - pad;
                    let kx_lo = usize::try_from(-base).unwrap_or(0).min(k);
                    let kx_hi = usize::try_from(w as isize - base).unwrap_or(0).min(k);
                    if kx_lo >= kx_hi {
                        continue;
                    }
                    let ix0 = (base + kx_lo as isize) as usize;
                    for ci in 0..c {
                        let src = &qa.data[(ci * h + iy) * w + ix0..][..kx_hi - kx_lo];
                        let dst_at = row + (ci * k + ky) * k + kx_lo;
                        let dst = &mut patches[dst_at..][..kx_hi - kx_lo];
                        for (d, &q) in dst.iter_mut().zip(src) {
                            zero_acts += u64::from(q == 0);
                            *d = q as i16;
                        }
                    }
                }
            }
        }
        zero_acts
    }

    /// Per-coordinate tap coverage along one spatial axis: entry `i` is
    /// the number of (output position `o`, tap `kk`) pairs in `0..out_len`
    /// x `0..kernel` that read input coordinate `i`
    /// (`o*stride + kk - padding == i`). An input element at `(y, x)`
    /// feeds `cover_y[y] * cover_x[x]` im2col slots — the MACs whose
    /// activation-zero guard it decides.
    fn axis_cover(&self, out_len: usize, dim: usize) -> Vec<u64> {
        let mut cover = vec![0u64; dim];
        for o in 0..out_len {
            for kk in 0..self.kernel {
                let i = (o * self.stride + kk) as isize - self.padding as isize;
                if let Ok(i) = usize::try_from(i) {
                    if i < dim {
                        cover[i] += 1;
                    }
                }
            }
        }
        cover
    }

    /// Writes one sample's im2col panel rows into its block of a
    /// `PackedPanel::begin_fill` buffer (`n * stride` words), each row
    /// **whole**: the in-bounds operands, explicit zeros for padding taps,
    /// and zeros for the tail up to the 16-lane step, packed at `mode`
    /// exactly where `repack` would place them. The input is first copied
    /// once into `padded`, zero-bordered, so every tap of every row is a
    /// plain read ([`fill_rows`](Self::fill_rows)).
    ///
    /// The zero-activation count and the min flag come from that one
    /// copy, per input element: `cover` is the per-axis tap coverage
    /// ([`axis_cover`](Self::axis_cover)), so a zero feeding
    /// `cover_y[y] * cover_x[x]` slots counts that many guarded MACs — the
    /// same total the naive loop reaches tap by tap (a padding tap is a
    /// skipped MAC, not a zero operand). Returns `(zero_acts, has_min)`.
    fn fill_im2col(
        &self,
        mode: SubwordMode,
        qa: &QuantizedTensor,
        (cover_y, cover_x): (&[u64], &[u64]),
        (padded, stage): (&mut Vec<u16>, &mut Vec<u16>),
        words: &mut [u16],
        stride: usize,
    ) -> (u64, bool) {
        let (c, h, w) = qa.shape;
        let p = self.padding;
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        padded.clear();
        padded.resize(c * hp * wp, 0);
        let min_lane = lane_min(mode);
        let mut zero_acts = 0u64;
        let mut has_min = false;
        for (src, (ci, y)) in qa
            .data
            .chunks_exact(w.max(1))
            .zip((0..c).flat_map(|ci| (0..h).map(move |y| (ci, y))))
        {
            let dst = &mut padded[(ci * hp + y + p) * wp + p..][..w];
            let mut zeros = 0u64;
            let mut min = false;
            for ((d, &q), &cx) in dst.iter_mut().zip(src).zip(cover_x) {
                *d = q as u16;
                zeros += u64::from(q == 0) * cx;
                min |= q == min_lane && cx > 0;
            }
            zero_acts += zeros * cover_y[y];
            has_min |= min && cover_y[y] > 0;
        }
        stage.clear();
        stage.resize(stride * mode.lanes(), 0);
        let rows = (mode, words, stride);
        match self.kernel {
            3 => self.fill_rows::<3>(qa.shape, padded, stage, rows),
            5 => self.fill_rows::<5>(qa.shape, padded, stage, rows),
            11 => self.fill_rows::<11>(qa.shape, padded, stage, rows),
            _ => self.fill_rows::<0>(qa.shape, padded, stage, rows),
        }
        (zero_acts, has_min)
    }

    /// The row walk of [`fill_im2col`](Self::fill_im2col): row
    /// `oy*ow + ox` is the `(ci, ky)`-major run of `kernel`-tap windows
    /// of the zero-bordered input `padded`, staged in `stage` (zero past
    /// `klen`) and packed at `mode`. A nonzero `K` is the kernel size as a
    /// compile-time constant, so each window moves as a few inline loads
    /// and stores instead of a copy call; `K == 0` reads the size from
    /// the layer. The scenario networks' kernel sizes (3, 5, 11) take the
    /// constant path.
    fn fill_rows<const K: usize>(
        &self,
        (c, h, w): (usize, usize, usize),
        padded: &[u16],
        stage: &mut [u16],
        (mode, words, stride): (SubwordMode, &mut [u16], usize),
    ) {
        let k = if K == 0 { self.kernel } else { K };
        let (s, p) = (self.stride, self.padding);
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        let (oh, ow) = self.out_hw(h, w);
        let mut rows = words.chunks_exact_mut(stride);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut at = 0;
                for ci in 0..c {
                    for ky in 0..k {
                        let from = (ci * hp + oy * s + ky) * wp + ox * s;
                        stage[at..at + k].copy_from_slice(&padded[from..from + k]);
                        at += k;
                    }
                }
                let row = rows.next().expect("one panel row per output position");
                pack_row(mode, stage, row);
            }
        }
    }

    /// The data-independent guard-skip statistics of one GEMM conv pass
    /// on an `h x w` input, reproduced exactly from the packed
    /// representation: tap `(ky, kx)` is in bounds at `py[ky]*px[kx]`
    /// output positions. Returns `(macs, zero_weight_macs)`; the
    /// data-dependent `zero_act_macs` comes from the activation fill
    /// ([`pack_im2col`](Self::pack_im2col) or
    /// [`fill_im2col`](Self::fill_im2col)).
    fn gemm_mac_stats(&self, pw: &PackedWeights, h: usize, w: usize) -> (u64, u64) {
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        let py = self.axis_tap_counts(oh, h);
        let px = self.axis_tap_counts(ow, w);
        let spatial_taps: u64 = py.iter().sum::<u64>() * px.iter().sum::<u64>();
        let mut zero_weight_macs = 0u64;
        for (ky, &cy) in py.iter().enumerate() {
            for (kx, &cx) in px.iter().enumerate() {
                zero_weight_macs += pw.zeros_per_tap[ky * k + kx] * cy * cx;
            }
        }
        (
            (self.out_channels * self.in_channels) as u64 * spatial_taps,
            zero_weight_macs,
        )
    }

    /// The im2col + blocked-integer-GEMM path (the `Gemm` kernel). Patches
    /// are packed at the filters' own layout with structural zeros where a
    /// tap falls in the padding; those zeros contribute nothing to the
    /// exact `i64` sums, so outputs are byte-identical to
    /// [`forward_naive`](Self::forward_naive).
    fn forward_gemm(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        let (_, h, w) = qa.shape;
        let pw = self.packed_weights(wbits)?;
        let (oh, ow) = self.out_hw(h, w);
        let f = self.out_channels;
        let klen = self.in_channels * self.kernel * self.kernel;
        let n = oh * ow;

        scratch.patches.clear();
        scratch.patches.resize(n * klen, 0);
        let zero_acts = self.pack_im2col(qa, &mut scratch.patches);

        scratch.acc.clear();
        scratch.acc.resize(f * n, 0);
        gemm::gemm_i16(&pw.qi16, &scratch.patches, f, klen, n, &mut scratch.acc);

        let (macs, zero_weight_macs) = self.gemm_mac_stats(&pw, h, w);
        let stats = LayerStats {
            macs,
            zero_weight_macs,
            zero_act_macs: f as u64 * zero_acts,
        };

        let scale = qa.scale * pw.scale;
        let mut out = Tensor::zeros(f, oh, ow);
        let data = out.as_mut_slice();
        for fi in 0..f {
            let bias = f64::from(self.bias[fi]);
            for (dst, &acc) in data[fi * n..(fi + 1) * n]
                .iter_mut()
                .zip(&scratch.acc[fi * n..(fi + 1) * n])
            {
                *dst = (acc as f64 * scale + bias) as f32;
            }
        }
        Ok((out, stats))
    }

    /// Executes the convolution on a whole batch of already-quantized
    /// inputs with **one wide GEMM**: each sample's im2col panel becomes
    /// `n` extra rows of a shared `(B·n) x k` activation panel, so the
    /// packed weight panel streams through cache once per batch instead
    /// of once per sample. Every output element is still an independent
    /// exact-`i64` dot product over the same operands, so outputs and
    /// statistics are bit-identical to the per-sample `Naive` and `Gemm`
    /// paths.
    ///
    /// This is also the `GemmPacked` kernel's single-sample path. Falls
    /// back to [`forward_quant`](Self::forward_quant) per sample for the
    /// naive kernel or mixed grid geometry (still bit-identical — only
    /// wall time changes).
    pub(crate) fn forward_quant_batch(
        &self,
        qas: &[&QuantizedTensor],
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        let fusable = kernel != NnKernel::Naive
            && qas
                .iter()
                .all(|qa| qa.shape == qas[0].shape && qa.bits == qas[0].bits);
        if !fusable || qas.is_empty() {
            return qas
                .iter()
                .map(|qa| self.forward_quant(qa, wbits, kernel, scratch))
                .collect();
        }
        let (c, h, w) = qas[0].shape;
        if c != self.in_channels
            || h + 2 * self.padding < self.kernel
            || w + 2 * self.padding < self.kernel
        {
            return Err(NnError::ShapeMismatch {
                expected: (self.in_channels, self.kernel, self.kernel),
                actual: (c, h, w),
            });
        }
        let pw = self.packed_weights(wbits)?;
        let (oh, ow) = self.out_hw(h, w);
        let f = self.out_channels;
        let klen = self.in_channels * self.kernel * self.kernel;
        let n = oh * ow;
        let b = qas.len();
        let total = b * n;

        // One concatenated panel: sample `si` owns rows `si*n..(si+1)*n`.
        // The GEMM fully overwrites its output, so the accumulator only
        // grows — no per-call zero fill of `f * total` elements.
        let Scratch {
            patches,
            acc,
            packed,
            padded,
            stage,
            ..
        } = scratch;
        if acc.len() < f * total {
            acc.resize(f * total, 0);
        }
        let acc = &mut acc[..f * total];
        let mut zero_acts = Vec::with_capacity(b);
        if kernel == NnKernel::GemmPacked {
            // im2col writes the wide panel directly at the activation
            // mode's lane geometry, every word of every row — no i16
            // staging panel and no repack pass.
            let cover = (self.axis_cover(oh, h), self.axis_cover(ow, w));
            let cover = (cover.0.as_slice(), cover.1.as_slice());
            let mode = mode_for_bits(qas[0].bits);
            let (words, stride) = packed.begin_fill(total, klen, mode);
            let mut has_min = false;
            for (qa, block) in qas.iter().zip(words.chunks_exact_mut(n * stride)) {
                let bufs = (&mut *padded, &mut *stage);
                let (zeros, min) = self.fill_im2col(mode, qa, cover, bufs, block, stride);
                zero_acts.push(zeros);
                has_min |= min;
            }
            packed.finish_fill(has_min);
            gemm::gemm_packed(&pw.panel, packed, acc);
        } else {
            patches.clear();
            patches.resize(total * klen, 0);
            for (qa, panel) in qas.iter().zip(patches.chunks_exact_mut(n * klen)) {
                zero_acts.push(self.pack_im2col(qa, panel));
            }
            gemm::gemm_i16(&pw.qi16, patches, f, klen, total, acc);
        }

        let (macs, zero_weight_macs) = self.gemm_mac_stats(&pw, h, w);
        // Slice each sample's output columns back out: filter `fi` of
        // sample `si` lives at `acc[fi*total + si*n ..][..n]`. The scale
        // stays per-sample (per-tensor quantization grids).
        let mut results = Vec::with_capacity(b);
        for (si, qa) in qas.iter().enumerate() {
            let scale = qa.scale * pw.scale;
            let mut data = Vec::with_capacity(f * n);
            for fi in 0..f {
                let bias = f64::from(self.bias[fi]);
                let acc_row = &acc[fi * total + si * n..][..n];
                data.extend(
                    acc_row
                        .iter()
                        .map(|&acc| (acc as f64 * scale + bias) as f32),
                );
            }
            let stats = LayerStats {
                macs,
                zero_weight_macs,
                zero_act_macs: f as u64 * zero_acts[si],
            };
            results.push((Tensor::from_vec(f, oh, ow, data), stats));
        }
        Ok(results)
    }

    /// MACs for one forward pass on an input of shape `(c, h, w)` —
    /// **exact**: zero-padding taps are excluded, matching the count the
    /// forward pass executes (the former dense-interior approximation
    /// over-counted padded convolutions by up to ~20 % on LeNet's conv1).
    #[must_use]
    pub fn mac_count(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.out_hw(h, w);
        let py: u64 = self.axis_tap_counts(oh, h).iter().sum();
        let px: u64 = self.axis_tap_counts(ow, w).iter().sum();
        (self.out_channels * self.in_channels) as u64 * py * px
    }
}

/// A fully-connected classifier layer (`O[z] = Σ W[z,m] I[m] + B[z]`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weights: Vec<f32>,
    bias: Vec<f32>,
    inputs: usize,
    outputs: usize,
    /// Memoized per-bit-width weight quantizations (execution state; see
    /// [`Conv2d::cache`]).
    #[serde(skip)]
    cache: WeightCache,
}

impl PartialEq for Dense {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
            && self.bias == other.bias
            && self.inputs == other.inputs
            && self.outputs == other.outputs
    }
}

impl Dense {
    /// Creates a dense layer with deterministic He-scaled weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn random(inputs: usize, outputs: usize, seed: u64) -> Self {
        assert!(
            inputs > 0 && outputs > 0,
            "dense dimensions must be positive"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let std = (2.0 / inputs as f32).sqrt();
        let lim = std * 3f32.sqrt();
        Dense {
            weights: (0..inputs * outputs)
                .map(|_| rng.gen_range(-lim..lim))
                .collect(),
            bias: (0..outputs).map(|_| rng.gen_range(-0.05..0.05)).collect(),
            inputs,
            outputs,
            cache: WeightCache::default(),
        }
    }

    /// Input features consumed (the flattened input length).
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output features produced.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Mutable weights (for pruning). Invalidates the memoized weight
    /// quantizations — the next forward pass re-packs.
    #[must_use]
    pub fn weights_mut(&mut self) -> &mut [f32] {
        self.cache.invalidate();
        &mut self.weights
    }

    /// Mutable biases (for logit calibration). Biases are not quantized,
    /// so the weight cache stays valid.
    #[must_use]
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    fn weights_tensor(&self) -> Tensor {
        let mut t = Tensor::zeros(1, 1, self.weights.len());
        t.as_mut_slice().copy_from_slice(&self.weights);
        t
    }

    fn forward_with(
        &self,
        input: &Tensor,
        wbits: u32,
        abits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        if input.len() != self.inputs {
            return Err(NnError::ShapeMismatch {
                expected: (1, 1, self.inputs),
                actual: input.shape(),
            });
        }
        let qa = QuantizedTensor::quantize(input, abits)?;
        self.forward_quant(&qa, wbits, kernel, scratch)
    }

    /// Executes the layer on an already-quantized input activation (see
    /// [`Conv2d::forward_quant`]).
    pub(crate) fn forward_quant(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        let (c, h, w) = qa.shape;
        if c * h * w != self.inputs {
            return Err(NnError::ShapeMismatch {
                expected: (1, 1, self.inputs),
                actual: (c, h, w),
            });
        }
        match kernel {
            NnKernel::Naive => self.forward_naive(qa, wbits),
            NnKernel::Gemm => self.forward_gemm(qa, wbits, scratch),
            NnKernel::GemmPacked => single(self.forward_quant_batch(&[qa], wbits, kernel, scratch)),
        }
    }

    /// The original 2-deep scalar loop — the reference oracle. Kept
    /// verbatim (the input quantization moved to the callers; the MAC
    /// loop is untouched).
    fn forward_naive(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
    ) -> Result<(Tensor, LayerStats), NnError> {
        let qw = QuantizedTensor::quantize(&self.weights_tensor(), wbits)?;
        let scale = qa.scale * qw.scale;
        let mut out = Tensor::zeros(1, 1, self.outputs);
        let mut stats = LayerStats::default();
        for z in 0..self.outputs {
            let mut acc: i64 = 0;
            let base = z * self.inputs;
            for m in 0..self.inputs {
                let a = qa.data[m];
                let wv = qw.data[base + m];
                stats.macs += 1;
                if wv == 0 {
                    stats.zero_weight_macs += 1;
                }
                if a == 0 {
                    stats.zero_act_macs += 1;
                }
                acc += i64::from(a) * i64::from(wv);
            }
            out.set(
                0,
                0,
                z,
                (acc as f64 * scale + f64::from(self.bias[z])) as f32,
            );
        }
        Ok((out, stats))
    }

    /// The memoized weight quantization for `wbits` (see
    /// [`Conv2d::packed_weights`]).
    fn packed_weights(&self, wbits: u32) -> Result<Arc<PackedWeights>, NnError> {
        if wbits == 0 || wbits > 16 {
            return Err(NnError::InvalidBits { bits: wbits });
        }
        Ok(self.cache.get_or_pack(wbits, || {
            let qw = QuantizedTensor::quantize(&self.weights_tensor(), wbits)
                .expect("bit width validated above");
            let mut qi16 = Vec::new();
            let zeros_total = qw.fill_i16(&mut qi16);
            let panel =
                gemm::PackedPanel::pack(&qi16, self.outputs, self.inputs, mode_for_bits(wbits));
            PackedWeights {
                qi16,
                scale: qw.scale,
                zeros_per_tap: Vec::new(),
                zeros_total,
                panel,
            }
        }))
    }

    /// The dense GEMM path (the `Gemm` kernel): one exact `i16`-panel dot
    /// product per output neuron. Every weight is consumed exactly once
    /// and every activation once per output row, so the guard-skip
    /// counters are the packed zero counts directly.
    fn forward_gemm(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        let pw = self.packed_weights(wbits)?;
        let zero_acts = qa.fill_i16(&mut scratch.acts);
        let scale = qa.scale * pw.scale;
        let mut out = Tensor::zeros(1, 1, self.outputs);
        let data = out.as_mut_slice();
        for (z, dst) in data.iter_mut().enumerate() {
            let acc = gemm::dot_i16(
                &pw.qi16[z * self.inputs..(z + 1) * self.inputs],
                &scratch.acts,
            );
            *dst = (acc as f64 * scale + f64::from(self.bias[z])) as f32;
        }
        let stats = LayerStats {
            macs: (self.outputs * self.inputs) as u64,
            zero_weight_macs: pw.zeros_total,
            zero_act_macs: self.outputs as u64 * zero_acts,
        };
        Ok((out, stats))
    }

    /// Executes the layer on a whole batch of already-quantized inputs
    /// with one `outputs x inputs x B` GEMM: each sample's activation
    /// vector becomes one row of a shared `B x inputs` right-hand panel,
    /// so the packed weight rows stream once per batch. Every output
    /// element is the same exact-`i64` dot product over the same
    /// operands, so outputs and statistics are bit-identical to the
    /// per-sample `Naive` and `Gemm` paths. This is also the `GemmPacked`
    /// kernel's single-sample path; the naive kernel and mixed grid
    /// geometry fall back to [`forward_quant`](Self::forward_quant) per
    /// sample.
    pub(crate) fn forward_quant_batch(
        &self,
        qas: &[&QuantizedTensor],
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        let fusable = kernel != NnKernel::Naive
            && qas
                .iter()
                .all(|qa| qa.shape == qas[0].shape && qa.bits == qas[0].bits);
        if !fusable || qas.is_empty() {
            return qas
                .iter()
                .map(|qa| self.forward_quant(qa, wbits, kernel, scratch))
                .collect();
        }
        {
            let (c, h, w) = qas[0].shape;
            if c * h * w != self.inputs {
                return Err(NnError::ShapeMismatch {
                    expected: (1, 1, self.inputs),
                    actual: (c, h, w),
                });
            }
        }
        let pw = self.packed_weights(wbits)?;
        let b = qas.len();
        let Scratch {
            patches,
            acc,
            packed,
            stage,
            ..
        } = scratch;
        // The GEMM fully overwrites its output, so only grow the
        // accumulator — no per-call zero fill.
        if acc.len() < self.outputs * b {
            acc.resize(self.outputs * b, 0);
        }
        let acc = &mut acc[..self.outputs * b];
        let mut zero_counts = Vec::with_capacity(b);
        if kernel == NnKernel::GemmPacked {
            // Direct panel fill at the activation mode's lane geometry:
            // each sample's vector is one whole panel row.
            let mode = mode_for_bits(qas[0].bits);
            let (words, stride) = packed.begin_fill(b, self.inputs, mode);
            stage.clear();
            stage.resize(stride * mode.lanes(), 0);
            let mut has_min = false;
            for (qa, row) in qas.iter().zip(words.chunks_exact_mut(stride)) {
                let (zeros, min) = fill_dense_row(mode, &qa.data, stage, row);
                zero_counts.push(zeros);
                has_min |= min;
            }
            packed.finish_fill(has_min);
            gemm::gemm_packed(&pw.panel, packed, acc);
        } else {
            patches.clear();
            patches.resize(b * self.inputs, 0);
            for (qa, row) in qas.iter().zip(patches.chunks_exact_mut(self.inputs)) {
                let mut zeros = 0u64;
                for (dst, &q) in row.iter_mut().zip(&qa.data) {
                    zeros += u64::from(q == 0);
                    *dst = q as i16;
                }
                zero_counts.push(zeros);
            }
            gemm::gemm_i16(&pw.qi16, patches, self.outputs, self.inputs, b, acc);
        }

        // Sample `si` of output row `z` lives at `acc[z*b + si]`.
        let mut results = Vec::with_capacity(b);
        for (si, qa) in qas.iter().enumerate() {
            let scale = qa.scale * pw.scale;
            let data: Vec<f32> = (0..self.outputs)
                .map(|z| (acc[z * b + si] as f64 * scale + f64::from(self.bias[z])) as f32)
                .collect();
            let stats = LayerStats {
                macs: (self.outputs * self.inputs) as u64,
                zero_weight_macs: pw.zeros_total,
                zero_act_macs: self.outputs as u64 * zero_counts[si],
            };
            results.push((Tensor::from_vec(1, 1, self.outputs, data), stats));
        }
        Ok(results)
    }
}

/// `k x k` max pooling with stride `stride` over an input of at least
/// `k x k`. Each output row is built from slices of the `k` input rows
/// it covers, one kernel tap at a time across the whole row, so the
/// outputs' `max` chains are independent and overlap instead of each
/// waiting on its own. Every output folds its taps in `(ky, kx)` order
/// starting from `-inf`, the order of the per-output reference loop in
/// the tests, so the result is bit-identical to it (`f32::max` of `+0`
/// and `-0` may return either, so the fold order is kept).
fn max_pool(input: &Tensor, k: usize, stride: usize) -> Tensor {
    let (c, h, w) = input.shape();
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let mut out = vec![f32::NEG_INFINITY; c * oh * ow];
    let planes = input.as_slice().chunks_exact(h * w);
    for (plane, out_plane) in planes.zip(out.chunks_exact_mut(oh * ow)) {
        for (oy, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
            for ky in 0..k {
                let row = &plane[(oy * stride + ky) * w..][..w];
                for kx in 0..k {
                    let taps = &row[kx..=kx + (ow - 1) * stride];
                    for (ox, m) in out_row.iter_mut().enumerate() {
                        *m = m.max(taps[ox * stride]);
                    }
                }
            }
        }
    }
    Tensor::from_vec(c, oh, ow, out)
}

/// One stage of a CNN (Fig. 5): convolution, non-linearity, pooling or
/// classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Convolutional feature extraction (eq. 4).
    Conv2d(Conv2d),
    /// Rectified linear unit `f(u) = max(0, u)`.
    ReLU,
    /// Max pooling over `k x k` patches with stride `stride`.
    MaxPool2d {
        /// Pool window size.
        k: usize,
        /// Pool stride.
        stride: usize,
    },
    /// Fully-connected classifier layer.
    Dense(Dense),
}

impl Layer {
    /// Human-readable layer name.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Layer::Conv2d(c) => format!("conv{}x{}x{}", c.kernel, c.kernel, c.out_channels),
            Layer::ReLU => "relu".to_string(),
            Layer::MaxPool2d { k, stride } => format!("maxpool{k}s{stride}"),
            Layer::Dense(d) => format!("fc{}", d.outputs()),
        }
    }

    /// Whether the layer has quantizable weights (conv/dense).
    #[must_use]
    pub fn is_parameterized(&self) -> bool {
        matches!(self, Layer::Conv2d(_) | Layer::Dense(_))
    }

    /// Quantizes and packs this layer's weights for `wbits` ahead of the
    /// first forward pass (a no-op for non-parameterized layers and for
    /// widths already cached). Long-lived callers — `dvafs serve` keeps
    /// networks alive across requests — use this to pin the packing cost
    /// to model load instead of the first inference.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidBits`] for widths outside `1..=16`.
    pub fn warm_weights(&self, wbits: u32) -> Result<(), NnError> {
        match self {
            Layer::Conv2d(c) => c.packed_weights(wbits).map(|_| ()),
            Layer::Dense(d) => d.packed_weights(wbits).map(|_| ()),
            Layer::ReLU | Layer::MaxPool2d { .. } => Ok(()),
        }
    }

    /// Executes the layer; `wbits`/`abits` only affect parameterized layers.
    ///
    /// Runs on the default MAC kernel with a throwaway scratch — hot paths
    /// should use [`forward_with`](Self::forward_with) and reuse a
    /// [`Scratch`] across layers and samples.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input does not fit and
    /// [`NnError::InvalidBits`] for bit widths outside `1..=16`.
    pub fn forward(
        &self,
        input: &Tensor,
        wbits: u32,
        abits: u32,
    ) -> Result<(Tensor, LayerStats), NnError> {
        self.forward_with(
            input,
            wbits,
            abits,
            NnKernel::default(),
            &mut Scratch::new(),
        )
    }

    /// Executes the layer on an explicit MAC kernel with caller-provided
    /// scratch buffers. The kernel choice never changes outputs or
    /// statistics — only wall time.
    ///
    /// # Errors
    ///
    /// Same as [`forward`](Self::forward).
    pub fn forward_with(
        &self,
        input: &Tensor,
        wbits: u32,
        abits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        match self {
            Layer::Conv2d(c) => c.forward_with(input, wbits, abits, kernel, scratch),
            Layer::Dense(d) => d.forward_with(input, wbits, abits, kernel, scratch),
            Layer::ReLU => {
                let mut out = input.clone();
                for v in out.as_mut_slice() {
                    *v = v.max(0.0);
                }
                Ok((out, LayerStats::default()))
            }
            Layer::MaxPool2d { k, stride } => {
                let (c, h, w) = input.shape();
                if h < *k || w < *k {
                    return Err(NnError::ShapeMismatch {
                        expected: (c, *k, *k),
                        actual: (c, h, w),
                    });
                }
                Ok((max_pool(input, *k, *stride), LayerStats::default()))
            }
        }
    }

    /// Executes a **parameterized** layer on an already-quantized input
    /// activation — the incremental-search fast path, fed from the
    /// per-`(sample, layer, abits)` [`crate::kernel::ActivationCache`].
    /// Bit-identical to [`forward_with`](Self::forward_with) because
    /// quantization is a pure function of `(input, abits)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input does not fit or
    /// when called on a non-parameterized layer (ReLU / pooling layers
    /// take no quantized operands — callers route them through
    /// [`forward_with`](Self::forward_with)).
    pub(crate) fn forward_prequantized(
        &self,
        qa: &QuantizedTensor,
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, LayerStats), NnError> {
        match self {
            Layer::Conv2d(c) => c.forward_quant(qa, wbits, kernel, scratch),
            Layer::Dense(d) => d.forward_quant(qa, wbits, kernel, scratch),
            Layer::ReLU | Layer::MaxPool2d { .. } => Err(NnError::ShapeMismatch {
                expected: (0, 0, 0),
                actual: qa.shape,
            }),
        }
    }

    /// Executes the layer on a whole chunk of samples — the `LayerMajor`
    /// step: parameterized layers quantize each input at `abits` (in
    /// sample order; quantization is per-sample, so grids and scales are
    /// unchanged) and fuse the batch into one wide GEMM; ReLU/pooling
    /// layers run per sample. Bit-identical to mapping
    /// [`forward_with`](Self::forward_with) over the samples.
    ///
    /// # Errors
    ///
    /// Same per-sample errors as [`forward_with`](Self::forward_with);
    /// the first failing sample (in sample order) of this layer wins.
    pub(crate) fn forward_batch_with(
        &self,
        inputs: &[Tensor],
        wbits: u32,
        abits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        match self {
            Layer::Conv2d(_) | Layer::Dense(_) => {
                // Validate-then-quantize per sample, in sample order, so a
                // bad sample surfaces the same error the per-sample path
                // would raise for it.
                let mut qas = Vec::with_capacity(inputs.len());
                for input in inputs {
                    self.validate_input(input)?;
                    qas.push(QuantizedTensor::quantize(input, abits)?);
                }
                let refs: Vec<&QuantizedTensor> = qas.iter().collect();
                self.forward_prequantized_batch(&refs, wbits, kernel, scratch)
            }
            Layer::ReLU | Layer::MaxPool2d { .. } => inputs
                .iter()
                .map(|input| self.forward_with(input, wbits, abits, kernel, scratch))
                .collect(),
        }
    }

    /// The batch counterpart of
    /// [`forward_prequantized`](Self::forward_prequantized): a whole
    /// chunk of already-quantized inputs through one parameterized layer
    /// as one wide GEMM.
    ///
    /// # Errors
    ///
    /// Same as [`forward_prequantized`](Self::forward_prequantized).
    pub(crate) fn forward_prequantized_batch(
        &self,
        qas: &[&QuantizedTensor],
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        match self {
            Layer::Conv2d(c) => c.forward_quant_batch(qas, wbits, kernel, scratch),
            Layer::Dense(d) => d.forward_quant_batch(qas, wbits, kernel, scratch),
            Layer::ReLU | Layer::MaxPool2d { .. } => Err(NnError::ShapeMismatch {
                expected: (0, 0, 0),
                actual: qas.first().map_or((0, 0, 0), |qa| qa.shape),
            }),
        }
    }

    /// The shape validation [`forward_with`](Self::forward_with) performs
    /// before quantizing (parameterized layers only).
    fn validate_input(&self, input: &Tensor) -> Result<(), NnError> {
        match self {
            Layer::Conv2d(c) => {
                let (ci, h, w) = input.shape();
                if ci != c.in_channels
                    || h + 2 * c.padding < c.kernel
                    || w + 2 * c.padding < c.kernel
                {
                    return Err(NnError::ShapeMismatch {
                        expected: (c.in_channels, c.kernel, c.kernel),
                        actual: (ci, h, w),
                    });
                }
                Ok(())
            }
            Layer::Dense(d) => {
                if input.len() != d.inputs {
                    return Err(NnError::ShapeMismatch {
                        expected: (1, 1, d.inputs),
                        actual: input.shape(),
                    });
                }
                Ok(())
            }
            Layer::ReLU | Layer::MaxPool2d { .. } => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_identity_filter_passes_input_through() {
        // A 1x1 kernel with weight snapped exactly on the quant grid.
        let mut conv = Conv2d::random(1, 1, 1, 1, 0, 1);
        conv.weights_mut()[0] = 1.0;
        let input = Tensor::from_fn(1, 3, 3, |_, y, x| (y * 3 + x) as f32 / 10.0);
        let (out, stats) = conv
            .forward_with(&input, 16, 16, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        assert_eq!(out.shape(), (1, 3, 3));
        assert_eq!(stats.macs, 9);
        // out = in + bias: the offset must be the same everywhere.
        let bias = out.get(0, 0, 0) - input.get(0, 0, 0);
        for y in 0..3 {
            for x in 0..3 {
                let got = out.get(0, y, x) - input.get(0, y, x);
                assert!((got - bias).abs() < 0.01, "y={y} x={x}: {got} vs {bias}");
            }
        }
    }

    #[test]
    fn conv_shapes_follow_stride_and_padding() {
        let conv = Conv2d::random(3, 8, 3, 2, 1, 2);
        let input = Tensor::random(3, 9, 9, 3);
        let (out, _) = conv
            .forward_with(&input, 8, 8, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        // (9 + 2 - 3)/2 + 1 = 5.
        assert_eq!(out.shape(), (8, 5, 5));
    }

    #[test]
    fn conv_rejects_wrong_channel_count() {
        let conv = Conv2d::random(3, 4, 3, 1, 0, 4);
        let input = Tensor::random(2, 8, 8, 5);
        assert!(matches!(
            conv.forward_with(&input, 8, 8, NnKernel::default(), &mut Scratch::new()),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn conv_mac_count_matches_dense_interior() {
        let conv = Conv2d::random(2, 4, 3, 1, 0, 6);
        let input = Tensor::random(2, 6, 6, 7);
        let (_, stats) = conv
            .forward_with(&input, 8, 8, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        // No padding: executed MACs equal the analytic count.
        assert_eq!(stats.macs, conv.mac_count(6, 6));
        assert_eq!(stats.macs, 4 * 4 * 4 * 2 * 9);
    }

    /// The fused packed fill writes every word of every panel row: over a
    /// buffer dirtied by a larger fill, its panel equals `PackedPanel::pack`
    /// of the `pack_im2col` staging panel (in-bounds operands, zeros for
    /// padding taps and for the lanes up to the 16-lane step), and its
    /// per-sample zero-activation counts equal the staging walk's — for
    /// kernel sizes 1 to 11 with strides and padding around them, at
    /// every activation mode.
    #[test]
    fn fused_fill_writes_whole_rows() {
        let (c, h, w) = (2usize, 13usize, 12usize);
        for (k, stride, padding) in [
            (1usize, 1usize, 0usize),
            (2, 1, 2),
            (3, 1, 1),
            (3, 2, 0),
            (3, 5, 3),
            (5, 1, 2),
            (11, 4, 0),
        ] {
            for bits in [3u32, 8, 16] {
                let conv = Conv2d::random(c, 3, k, stride, padding, 5);
                let mut inputs: Vec<Tensor> =
                    (0..2).map(|i| Tensor::random(c, h, w, 40 + i)).collect();
                inputs[1].as_mut_slice()[..20].fill(0.0);
                let qas: Vec<QuantizedTensor> = inputs
                    .iter()
                    .map(|t| QuantizedTensor::quantize(t, bits).unwrap())
                    .collect();
                let refs: Vec<&QuantizedTensor> = qas.iter().collect();
                let mut scratch = Scratch::new();
                let (dirty, _) = scratch.packed.begin_fill(4096, 100, SubwordMode::X1);
                dirty.fill(0xBEEF);
                scratch.padded = vec![0xBEEF; 4096];
                let results = conv
                    .forward_quant_batch(&refs, 16, NnKernel::GemmPacked, &mut scratch)
                    .unwrap();
                let (oh, ow) = conv.out_hw(h, w);
                let (n, klen) = (oh * ow, c * k * k);
                let mut patches = vec![0i16; 2 * n * klen];
                let mut zeros = Vec::new();
                for (qa, block) in qas.iter().zip(patches.chunks_exact_mut(n * klen)) {
                    zeros.push(conv.pack_im2col(qa, block));
                }
                let reference = gemm::PackedPanel::pack(&patches, 2 * n, klen, mode_for_bits(bits));
                let what = format!("k={k} s={stride} p={padding} bits={bits}");
                assert_eq!(scratch.packed, reference, "{what}");
                for ((_, stats), z) in results.iter().zip(zeros) {
                    assert_eq!(stats.zero_act_macs, 3 * z, "{what}");
                }
            }
        }
    }

    #[test]
    fn relu_clamps_negative_values() {
        let mut t = Tensor::zeros(1, 1, 3);
        t.set(0, 0, 0, -1.0);
        t.set(0, 0, 1, 2.0);
        let (out, _) = Layer::ReLU.forward(&t, 16, 16).unwrap();
        assert_eq!(out.get(0, 0, 0), 0.0);
        assert_eq!(out.get(0, 0, 1), 2.0);
    }

    #[test]
    fn maxpool_takes_patch_maximum() {
        let t = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let (out, _) = Layer::MaxPool2d { k: 2, stride: 2 }
            .forward(&t, 16, 16)
            .unwrap();
        assert_eq!(out.shape(), (1, 2, 2));
        assert_eq!(out.get(0, 0, 0), 5.0);
        assert_eq!(out.get(0, 1, 1), 15.0);
    }

    /// Max pooling one output and one tap at a time: the oracle
    /// `max_pool` is compared against.
    fn max_pool_reference(input: &Tensor, k: usize, stride: usize) -> Tensor {
        let (c, h, w) = input.shape();
        let oh = (h - k) / stride + 1;
        let ow = (w - k) / stride + 1;
        let mut out = Tensor::zeros(c, oh, ow);
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut m = f32::NEG_INFINITY;
                    for ky in 0..k {
                        for kx in 0..k {
                            m = m.max(input.get(ci, oy * stride + ky, ox * stride + kx));
                        }
                    }
                    out.set(ci, oy, ox, m);
                }
            }
        }
        out
    }

    /// `max_pool` equals the per-tap loop bit for bit over random shapes:
    /// the models' pools, overlapping windows (k3s2), strides that do not
    /// divide the size, strides wider than the window, and inputs with
    /// runs of signed zeros (ReLU outputs) and NaNs.
    #[test]
    fn max_pool_matches_the_per_tap_loop_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9001);
        let mut shapes = vec![
            (6, 28, 28, 2, 2),
            (12, 15, 15, 3, 2),
            (4, 32, 32, 2, 2),
            (16, 8, 8, 2, 2),
            (32, 7, 7, 3, 2),
            (2, 13, 13, 3, 2),
            (1, 5, 9, 2, 3),
            (3, 4, 4, 4, 1),
            (1, 1, 1, 1, 1),
        ];
        for _ in 0..200 {
            let k = rng.gen_range(1..=4);
            let stride = rng.gen_range(1..=5);
            shapes.push((
                rng.gen_range(1..=4),
                rng.gen_range(k..=k + 12),
                rng.gen_range(k..=k + 12),
                k,
                stride,
            ));
        }
        for (i, &(c, h, w, k, stride)) in shapes.iter().enumerate() {
            let mut input = Tensor::random(c, h, w, i as u64);
            for v in input.as_mut_slice() {
                match rng.gen_range(0..8) {
                    0 => *v = 0.0,
                    1 => *v = -0.0,
                    2 if rng.gen_range(0..16) == 0 => *v = f32::NAN,
                    _ => {}
                }
            }
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let want = max_pool_reference(&input, k, stride);
            let got = max_pool(&input, k, stride);
            let what = format!("c={c} h={h} w={w} k={k} s={stride}");
            assert_eq!(got.shape(), want.shape(), "{what}");
            assert_eq!(bits(&got), bits(&want), "{what}");
        }
    }

    #[test]
    fn overlapping_pool_shape() {
        // AlexNet-style 3x3 stride-2 pooling.
        let t = Tensor::random(2, 13, 13, 8);
        let (out, _) = Layer::MaxPool2d { k: 3, stride: 2 }
            .forward(&t, 16, 16)
            .unwrap();
        assert_eq!(out.shape(), (2, 6, 6));
    }

    #[test]
    fn dense_computes_matrix_vector_product() {
        let mut d = Dense::random(2, 1, 9);
        d.weights_mut().copy_from_slice(&[0.5, -0.25]);
        let mut input = Tensor::zeros(1, 1, 2);
        input.set(0, 0, 0, 1.0);
        input.set(0, 0, 1, 1.0);
        let (out, stats) = d
            .forward_with(&input, 16, 16, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        assert_eq!(stats.macs, 2);
        let bias = out.get(0, 0, 0) - 0.25;
        assert!(bias.abs() < 0.06, "residual {bias}");
    }

    #[test]
    fn dense_flattens_multi_channel_input() {
        let d = Dense::random(2 * 3 * 3, 5, 10);
        let input = Tensor::random(2, 3, 3, 11);
        let (out, _) = d
            .forward_with(&input, 8, 8, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        assert_eq!(out.shape(), (1, 1, 5));
    }

    #[test]
    fn coarse_quantization_changes_conv_output() {
        let conv = Conv2d::random(1, 4, 3, 1, 0, 12);
        let input = Tensor::random(1, 8, 8, 13);
        let (fine, _) = conv
            .forward_with(&input, 16, 16, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        let (coarse, _) = conv
            .forward_with(&input, 2, 2, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        let diff: f32 = fine
            .as_slice()
            .iter()
            .zip(coarse.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.01, "2-bit output should differ from 16-bit");
    }

    #[test]
    fn sparsity_stats_flag_zero_operands() {
        let mut conv = Conv2d::random(1, 1, 3, 1, 0, 14);
        // Zero out half the kernel.
        for w in conv.weights_mut().iter_mut().take(4) {
            *w = 0.0;
        }
        let mut input = Tensor::random(1, 5, 5, 15);
        // Force some zero activations.
        for v in input.as_mut_slice().iter_mut().take(10) {
            *v = 0.0;
        }
        let (_, stats) = conv
            .forward_with(&input, 8, 8, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        assert!(stats.weight_sparsity() > 0.3);
        assert!(stats.input_sparsity() > 0.1);
    }

    #[test]
    fn layer_names() {
        assert_eq!(
            Layer::Conv2d(Conv2d::random(1, 6, 5, 1, 2, 0)).name(),
            "conv5x5x6"
        );
        assert_eq!(Layer::Dense(Dense::random(10, 4, 0)).name(), "fc4");
        assert_eq!(Layer::MaxPool2d { k: 2, stride: 2 }.name(), "maxpool2s2");
    }
}

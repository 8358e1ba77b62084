//! CNN layers with an integer MAC data path.
//!
//! [`Conv2d`] implements equation (4) of the paper; [`Dense`] the
//! matrix-vector classifier layers; [`Layer::ReLU`] and
//! [`Layer::MaxPool2d`] the non-linearity and pooling stages of Fig. 5.
//! Convolution and dense layers execute on quantized integers with 64-bit
//! accumulation — the arithmetic a DVAFS MAC array performs — and report
//! the MAC/sparsity statistics that drive the Envision power model.
//!
//! Every layer runs on a batch of samples, one chunk of the network's
//! layer walk ([`Network::forward_layers`]). Conv and dense layers
//! execute that batch on one of two MAC kernels (see [`crate::kernel`]):
//! the original scalar loops, sample by sample ([`NnKernel::Naive`], the
//! reference oracle), or the default
//! subword-packed GEMM ([`NnKernel::GemmPacked`]), which fills one packed
//! activation panel for the whole batch in place, whole row by whole row,
//! and multiplies it once. A conv sample is quantized straight from its
//! `f32` planes into a zero-bordered, channel-interleaved (HWC) buffer of
//! lanes at the activation width, in one call of the crate's rounding
//! kernel ([`crate::quant`]) that reads each row's `w*c` values in HWC
//! order (2 to 4 planes interleaved in registers, more through a gather
//! table) and counts the zero activations as it writes them. Each im2col
//! row — its window in `(ky, kx, ci)` order, the order the weight panel
//! is packed in — is then `k` contiguous runs of `k*c` lanes. A dense
//! sample is quantized straight into its panel row. No per-sample
//! [`QuantizedTensor`] is built on this path; the naive kernel still
//! quantizes with [`QuantizedTensor::quantize`]. Accumulation is exact in
//! `i64`, and an exact dot product does not depend on the order of its
//! terms, so both kernels produce byte-identical outputs and statistics.
//!
//! The passes around the GEMM have vector tiers too, picked at run time
//! on AVX-512 (`avx512f`, `avx512dq`, `avx512vl`) hosts: the slice-back
//! `(acc as f64 * scale + bias) as f32` (`vcvtqq2pd`, then the same
//! multiply, add and narrowing as the scalar expression), max pooling
//! (16 outputs at a time across rows and planes, one gather per tap,
//! with the NaN and signed-zero rule of the per-tap `f32::max` fold), and
//! ReLU (the same clamp compiled for AVX-512). Elsewhere they run the
//! scalar loops, which stay the oracles.
//! Within a network forward, ReLU clamps the chunk in place.
//!
//! [`Network::forward_layers`]: crate::network::Network::forward_layers

use crate::error::NnError;
use crate::kernel::{mode_for_bits, NnKernel, PackedWeights, Scratch, WeightCache};
use crate::quant::{self, Gather, Lanes, Out, QuantizedTensor, Tier};
use crate::tensor::Tensor;
use dvafs_arith::SubwordMode;
use dvafs_simd::gemm;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Bytes one operand takes in an activation fill at `mode`, the layout of
/// a `PackedPanel::begin_fill` row: an `X1` lane is a little-endian
/// `i16`, an `X2` lane one byte. An `X4` lane is staged as one byte too
/// and packed two to a byte as its row is finished ([`pack_nibbles`]).
fn lane_bytes(mode: SubwordMode) -> usize {
    if mode == SubwordMode::X1 {
        2
    } else {
        1
    }
}

/// Copies `src` to the front of `dst`. Runs up to 64 bytes, the window
/// rows of the narrow layers, move as a few overlapping fixed-size
/// copies, inline. Against one `copy_from_slice` per run, the layer
/// measured 1.06-1.49x faster on LeNet-5 conv1 and 1.11-1.26x on VGG16
/// conv1 (runs of 5-18 bytes), and within run-to-run noise on layers
/// with runs of 24-66 bytes (2-vCPU Xeon, per-layer medians of 41
/// interleaved runs).
#[inline(always)]
fn copy_run(dst: &mut [u8], src: &[u8]) {
    fn block<const N: usize>(dst: &mut [u8], src: &[u8], at: usize) {
        dst[at..at + N].copy_from_slice(&src[at..at + N]);
    }
    let n = src.len();
    let dst = &mut dst[..n];
    match n {
        0 => {}
        1..=3 => {
            dst[0] = src[0];
            dst[n / 2] = src[n / 2];
            dst[n - 1] = src[n - 1];
        }
        4..=7 => {
            block::<4>(dst, src, 0);
            block::<4>(dst, src, n - 4);
        }
        8..=15 => {
            block::<8>(dst, src, 0);
            block::<8>(dst, src, n - 8);
        }
        16..=64 => {
            block::<16>(dst, src, 0);
            if n > 32 {
                block::<16>(dst, src, 16);
            }
            if n > 48 {
                block::<16>(dst, src, 32);
            }
            block::<16>(dst, src, n - 16);
        }
        _ => dst.copy_from_slice(src),
    }
}

/// Packs byte-per-lane `X4` operands two to a byte, the even lane in the
/// low nibble: the `pack_lanes` field rule of a `begin_fill` row, byte by
/// byte. Eight lanes at a time move as one `u64`, whose low nibbles are
/// folded together in three shift-or steps.
fn pack_nibbles(lanes: &[u8], dst: &mut [u8]) {
    let mut out = dst.chunks_exact_mut(4);
    let mut lanes = lanes.chunks_exact(8);
    for (d, eight) in (&mut out).zip(&mut lanes) {
        let x = u64::from_le_bytes(eight.try_into().expect("8 lanes")) & 0x0F0F_0F0F_0F0F_0F0F;
        let x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
        let x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
        d.copy_from_slice(&((x | (x >> 16)) as u32).to_le_bytes());
    }
    for (d, pair) in out
        .into_remainder()
        .iter_mut()
        .zip(lanes.remainder().chunks_exact(2))
    {
        *d = (pair[0] & 0xF) | (pair[1] << 4);
    }
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

    /// Rejects an input grid of shape `(c, h, w)` this convolution cannot
    /// consume.
    fn check_shape(&self, (c, h, w): (usize, usize, usize)) -> Result<(), NnError> {
        if c != self.in_channels
            || h + 2 * self.padding < self.kernel
            || w + 2 * self.padding < self.kernel
        {
            return Err(NnError::ShapeMismatch {
                expected: (self.in_channels, self.kernel, self.kernel),
                actual: (c, h, w),
            });
        }
        Ok(())
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
    fn packed_weights(&self, wbits: u32) -> Result<&PackedWeights, NnError> {
        if wbits == 0 || wbits > 16 {
            return Err(NnError::InvalidBits { bits: wbits });
        }
        Ok(self.cache.get_or_pack(wbits, || {
            let qw = QuantizedTensor::quantize(&self.weights_tensor(), wbits)
                .expect("bit width validated above");
            // The weights are [f][ci][ky][kx], so tap `ky*k + kx` of
            // channel `ci` moves to `(ky*k + kx)*c + ci` of its panel row:
            // the `(ky, kx, ci)` order of the activation rows.
            let (c, k2) = (self.in_channels, self.kernel * self.kernel);
            let mut zeros_per_tap = vec![0u64; k2];
            let mut zeros_total = 0u64;
            let mut rows = vec![0i16; qw.data.len()];
            for (filter, row) in qw
                .data
                .chunks_exact(c * k2)
                .zip(rows.chunks_exact_mut(c * k2))
            {
                for (ci, taps) in filter.chunks_exact(k2).enumerate() {
                    for (tap, &q) in taps.iter().enumerate() {
                        row[tap * c + ci] = q;
                        if q == 0 {
                            zeros_per_tap[tap] += 1;
                            zeros_total += 1;
                        }
                    }
                }
            }
            // Pack the subword panel at the width's own mode (one filter
            // per row): the hot path then only packs activations.
            let panel =
                gemm::PackedPanel::pack(&rows, self.out_channels, c * k2, mode_for_bits(wbits));
            PackedWeights {
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

    /// The plan of one batch's fused activation fill
    /// ([`fill_padded`](Self::fill_padded)) for `(c, h, w)` inputs.
    fn fill_plan(&self, (c, h, w): (usize, usize, usize)) -> FillPlan {
        let (oh, ow) = self.out_hw(h, w);
        let cover_x = self.axis_cover(ow, w);
        FillPlan {
            gather: (c > 1).then(|| Gather::interleave(c, h * w, w)),
            weight: (0..w * c).map(|j| cover_x[j / c]).collect(),
            cover_y: self.axis_cover(oh, h),
        }
    }

    /// Quantizes one CHW sample straight into `padded` as zero-bordered,
    /// channel-interleaved (HWC) lanes of `lane` bytes ([`lane_bytes`]):
    /// the `c` channels of pixel `(y, x)` of the bordered input are
    /// adjacent, at lanes `(y*wp + x)*c ..`. The whole sample is one call
    /// of the rounding kernel on `tier`, at the sample's `scale`: each
    /// input row reads its `w*c` values through the plan's interleaving
    /// gather table (in place for one channel) and lands between its
    /// row's margins; only the border is zeroed besides. Returns the
    /// sample's zero-activation count: a zero at `(y, x)` feeds
    /// `cover_y[y] * cover_x[x]` im2col slots
    /// ([`axis_cover`](Self::axis_cover)), so it counts that many guarded
    /// MACs — the same total the naive loop reaches tap by tap (a padding
    /// tap is a skipped MAC, not a zero operand).
    fn fill_padded(
        &self,
        tier: Tier,
        x: &Tensor,
        (scale, qmax): (f64, i32),
        plan: &FillPlan,
        lane: usize,
        padded: &mut Vec<u8>,
    ) -> u64 {
        let (c, h, w) = x.shape();
        let p = self.padding;
        let pixel = c * lane;
        let row_bytes = (w + 2 * p) * pixel;
        padded.resize((h + 2 * p) * row_bytes, 0);
        let (top, rest) = padded.split_at_mut(p * row_bytes);
        let (rows, bottom) = rest.split_at_mut(h * row_bytes);
        top.fill(0);
        bottom.fill(0);
        for row in rows.chunks_exact_mut(row_bytes) {
            row[..p * pixel].fill(0);
            row[(p + w) * pixel..].fill(0);
        }
        if h == 0 {
            return 0;
        }
        let src = x.as_slice();
        let values = match &plan.gather {
            None => Lanes::prefix(src, w),
            Some(g) => Lanes::gathered(src, g),
        };
        let values = values
            .weighted(&plan.weight)
            .rows((w, row_bytes / lane), &plan.cover_y);
        let out = Out::Lanes(&mut rows[p * pixel..], lane);
        quant::round_lanes(tier, values, scale, qmax, out)
    }

    /// Cuts one sample's im2col rows from its HWC lanes `padded`
    /// ([`fill_padded`](Self::fill_padded)) into its block of a
    /// `PackedPanel::begin_fill` buffer (`n` rows of `row_bytes`), each
    /// row **whole**. Row `oy*ow + ox` holds its window in `(ky, kx, ci)`
    /// order, the order the weight panel is packed in, so window row `ky`
    /// is one run of `k*c` adjacent lanes: `k` copies per row, then zeros
    /// up to the 16-lane step. Padding taps are the border's zeros. The
    /// copies go band by band (one `oy`), window row by window row, so
    /// the inner loop moves one fixed-length run per output position.
    /// `X4` rows are cut into `stage`, one lane per byte (its row tails
    /// stay zero), and the whole block is packed from there.
    fn cut_rows(
        &self,
        mode: SubwordMode,
        (c, h, w): (usize, usize, usize),
        (padded, stage): (&[u8], &mut Vec<u8>),
        block: &mut [u8],
        row_bytes: usize,
    ) {
        let (k, s) = (self.kernel, self.stride);
        let wp = w + 2 * self.padding;
        let (_, ow) = self.out_hw(h, w);
        let pixel = c * lane_bytes(mode);
        let run = k * pixel;
        let nibbles = mode == SubwordMode::X4;
        let (rows, row_len) = if nibbles {
            stage.clear();
            stage.resize(2 * block.len(), 0);
            (&mut stage[..], 2 * row_bytes)
        } else {
            (&mut *block, row_bytes)
        };
        for (oy, band) in rows.chunks_exact_mut(ow * row_len).enumerate() {
            for ky in 0..k {
                let src = &padded[(oy * s + ky) * wp * pixel..];
                for (ox, row) in band.chunks_exact_mut(row_len).enumerate() {
                    copy_run(&mut row[ky * run..], &src[ox * s * pixel..][..run]);
                }
            }
            if !nibbles {
                for row in band.chunks_exact_mut(row_len) {
                    let tail = &mut row[k * run..];
                    copy_run(tail, &[0; 32][..tail.len()]);
                }
            }
        }
        if nibbles {
            pack_nibbles(stage, block);
        }
    }

    /// The data-independent guard-skip statistics of one GEMM conv pass
    /// on an `h x w` input, reproduced exactly from the packed
    /// representation: tap `(ky, kx)` is in bounds at `py[ky]*px[kx]`
    /// output positions. Returns `(macs, zero_weight_macs)`; the
    /// data-dependent `zero_act_macs` comes from the activation fill
    /// ([`fill_padded`](Self::fill_padded)).
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

    /// The packed kernel on a batch of inputs that passed the shape check
    /// and pass 1 of the quantizer (`scales`, one per sample): one wide
    /// GEMM ([`forward_packed`](Self::forward_packed)), or batches of one
    /// when the samples differ in geometry.
    fn forward_packed_batch(
        &self,
        inputs: &[Tensor],
        scales: &[f64],
        (wbits, abits): (u32, u32),
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        let tier = Tier::best();
        if inputs.iter().all(|x| x.shape() == inputs[0].shape()) {
            return self.forward_packed(inputs, scales, (wbits, abits), tier, scratch);
        }
        let mut results = Vec::with_capacity(inputs.len());
        for (x, &scale) in inputs.iter().zip(scales) {
            let one = std::slice::from_ref(x);
            results.extend(self.forward_packed(one, &[scale], (wbits, abits), tier, scratch)?);
        }
        Ok(results)
    }

    /// The packed kernel on a batch of same-geometry inputs, with the
    /// activation passes on `tier`: each sample is quantized at `abits`
    /// (with its pass-1 scale) straight into its lanes, and its im2col
    /// panel becomes `n` extra rows of a shared `(B·n) x k` activation
    /// panel, so the packed weight panel streams through cache once per
    /// batch instead of once per sample. Every output element is still an
    /// independent exact-`i64` dot product over the same operands as
    /// [`forward_naive`](Self::forward_naive).
    fn forward_packed(
        &self,
        inputs: &[Tensor],
        scales: &[f64],
        (wbits, abits): (u32, u32),
        tier: Tier,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        let Some(first) = inputs.first() else {
            return Ok(Vec::new());
        };
        let pw = self.packed_weights(wbits)?;
        let (_, h, w) = first.shape();
        let (oh, ow) = self.out_hw(h, w);
        let f = self.out_channels;
        let klen = self.in_channels * self.kernel * self.kernel;
        let n = oh * ow;
        let b = inputs.len();
        let total = b * n;

        // One concatenated panel: sample `si` owns rows `si*n..(si+1)*n`.
        // The GEMM fully overwrites its output, so the accumulator only
        // grows — no per-call zero fill of `f * total` elements.
        let Scratch {
            acc,
            packed,
            padded,
            stage,
        } = scratch;
        if acc.len() < f * total {
            acc.resize(f * total, 0);
        }
        let acc = &mut acc[..f * total];
        // im2col writes the wide panel directly at the activation mode's
        // lane geometry, every byte of every row — no i16 staging panel
        // and no repack pass.
        let plan = self.fill_plan(first.shape());
        let mode = mode_for_bits(abits);
        let grid = quant::grid_max(abits);
        let (bytes, row_bytes) = packed.begin_fill(total, klen, mode);
        let mut zero_acts = Vec::with_capacity(b);
        for ((x, &scale), block) in inputs
            .iter()
            .zip(scales)
            .zip(bytes.chunks_exact_mut(n * row_bytes))
        {
            let lane = lane_bytes(mode);
            zero_acts.push(self.fill_padded(tier, x, (scale, grid), &plan, lane, padded));
            self.cut_rows(mode, x.shape(), (padded, stage), block, row_bytes);
        }
        // Symmetric grids stop at `±(2^(b-1) - 1)`, inside every lane
        // range, so no activation lane holds the mode's most negative
        // value, as a fill requires.
        packed.finish_fill();
        gemm::gemm_packed(&pw.panel, packed, acc);

        let (macs, zero_weight_macs) = self.gemm_mac_stats(pw, h, w);
        // Slice each sample's output columns back out: filter `fi` of
        // sample `si` lives at `acc[fi*total + si*n ..][..n]`. The scale
        // stays per-sample (per-tensor quantization grids).
        let mut results = Vec::with_capacity(b);
        for (si, &scale) in scales.iter().enumerate() {
            let scale = scale * pw.scale;
            let mut data = vec![0f32; f * n];
            for (fi, out) in data.chunks_exact_mut(n.max(1)).enumerate().take(f) {
                let bias = f64::from(self.bias[fi]);
                slice_back(tier, &acc[fi * total + si * n..][..n], scale, bias, out);
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

    /// Rejects an input of shape `(c, h, w)` whose flattened length is
    /// not this layer's input width.
    fn check_shape(&self, (c, h, w): (usize, usize, usize)) -> Result<(), NnError> {
        if c * h * w != self.inputs {
            return Err(NnError::ShapeMismatch {
                expected: (1, 1, self.inputs),
                actual: (c, h, w),
            });
        }
        Ok(())
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
    fn packed_weights(&self, wbits: u32) -> Result<&PackedWeights, NnError> {
        if wbits == 0 || wbits > 16 {
            return Err(NnError::InvalidBits { bits: wbits });
        }
        Ok(self.cache.get_or_pack(wbits, || {
            let qw = QuantizedTensor::quantize(&self.weights_tensor(), wbits)
                .expect("bit width validated above");
            let zeros_total = qw.data.iter().filter(|&&q| q == 0).count() as u64;
            let panel =
                gemm::PackedPanel::pack(&qw.data, self.outputs, self.inputs, mode_for_bits(wbits));
            PackedWeights {
                scale: qw.scale,
                zeros_per_tap: Vec::new(),
                zeros_total,
                panel,
            }
        }))
    }

    /// The packed kernel on a batch of inputs that passed the shape check
    /// and pass 1 of the quantizer (`scales`, one per sample), with the
    /// activation passes on `tier`. It runs one `outputs x inputs x B`
    /// GEMM: each sample is quantized at `abits` straight into one row of
    /// a shared `B x inputs` right-hand panel, so the packed weight rows
    /// stream once per batch. Every weight is consumed exactly once per
    /// sample and every activation once per output row, so the guard-skip
    /// counters are the packed zero counts directly.
    fn forward_packed(
        &self,
        inputs: &[Tensor],
        scales: &[f64],
        (wbits, abits): (u32, u32),
        tier: Tier,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let pw = self.packed_weights(wbits)?;
        let b = inputs.len();
        let Scratch {
            acc, packed, stage, ..
        } = scratch;
        // The GEMM fully overwrites its output, so only grow the
        // accumulator — no per-call zero fill.
        if acc.len() < self.outputs * b {
            acc.resize(self.outputs * b, 0);
        }
        let acc = &mut acc[..self.outputs * b];
        // Direct panel fill at the activation mode's lane geometry: each
        // sample's vector is one whole panel row, its lanes written by the
        // rounding kernel and its padding lanes zeroed.
        let mode = mode_for_bits(abits);
        let grid = quant::grid_max(abits);
        let (bytes, row_bytes) = packed.begin_fill(b, self.inputs, mode);
        let mut zero_counts = Vec::with_capacity(b);
        for ((x, &scale), row) in inputs
            .iter()
            .zip(scales)
            .zip(bytes.chunks_exact_mut(row_bytes))
        {
            let values = Lanes::contiguous(x.as_slice());
            let lane = lane_bytes(mode);
            let lanes = if mode == SubwordMode::X4 {
                stage.resize(2 * row_bytes, 0);
                &mut stage[..]
            } else {
                &mut *row
            };
            let (head, tail) = lanes.split_at_mut(self.inputs * lane);
            tail.fill(0);
            zero_counts.push(quant::round_lanes(
                tier,
                values,
                scale,
                grid,
                Out::Lanes(head, lane),
            ));
            if mode == SubwordMode::X4 {
                pack_nibbles(stage, row);
            }
        }
        packed.finish_fill(); // no lane minimum, as in `Conv2d::forward_packed`
        gemm::gemm_packed(&pw.panel, packed, acc);

        // Sample `si` of output row `z` lives at `acc[z*b + si]`.
        let mut results = Vec::with_capacity(b);
        for (si, &scale) in scales.iter().enumerate() {
            let mut data = vec![0f32; self.outputs];
            slice_back_strided(tier, &acc[si..], b, scale * pw.scale, &self.bias, &mut data);
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

/// The per-batch plan of a conv layer's fused activation fill
/// ([`Conv2d::fill_padded`]), shared by the batch's samples.
struct FillPlan {
    /// The offsets of one input row's `w*c` HWC lanes from the row's
    /// first value: lane `x*c + ci` reads plane `ci` at column `x`.
    /// `None` for one channel, whose rows are read in place.
    gather: Option<Gather>,
    /// Each lane's zero weight: the tap coverage `cover_x[x]` of its
    /// column ([`Conv2d::axis_cover`]).
    weight: Vec<u64>,
    /// The tap coverage of each input row.
    cover_y: Vec<u64>,
}

/// The slice-back of one run of accumulators on `tier`:
/// `out[i] = (acc[i] as f64 * scale + bias) as f32`.
fn slice_back(tier: Tier, acc: &[i64], scale: f64, bias: f64, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx512 {
        return x86::slice_back(acc, scale, bias, out);
    }
    let _ = tier;
    for (o, &a) in out.iter_mut().zip(acc) {
        *o = (a as f64 * scale + bias) as f32;
    }
}

/// The slice-back of one dense sample on `tier`: output `z` reads
/// `acc[z * stride]`, with its own bias:
/// `out[z] = (acc[z * stride] as f64 * scale + bias[z]) as f32`.
fn slice_back_strided(
    tier: Tier,
    acc: &[i64],
    stride: usize,
    scale: f64,
    bias: &[f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx512 {
        return x86::slice_back_strided(acc, stride, scale, bias, out);
    }
    let _ = tier;
    for (z, (o, &bias)) in out.iter_mut().zip(bias).enumerate() {
        *o = (acc[z * stride] as f64 * scale + f64::from(bias)) as f32;
    }
}

/// ReLU in place on `tier`: `v.max(0.0)`, which returns `+0.0` for `-0.0`
/// and for NaN. The AVX-512 tier is the same loop compiled for AVX-512.
fn relu(tier: Tier, values: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx512 {
        return x86::relu(values);
    }
    let _ = tier;
    relu_loop(values);
}

/// The ReLU loop every tier runs.
#[inline(always)]
fn relu_loop(values: &mut [f32]) {
    for v in values {
        *v = v.max(0.0);
    }
}

/// `k x k` max pooling with stride `stride` over an input of at least
/// `k x k`, on `tier` (see [`pool_on`]).
#[cfg(test)]
fn max_pool(tier: Tier, input: &Tensor, k: usize, stride: usize) -> Tensor {
    pool_on(tier, input, (k, stride), &mut None)
}

/// `k x k` max pooling with stride `stride` over an input of at least
/// `k x k`, on `tier`. Every output folds its taps in `(ky, kx)` order
/// starting from `-inf`, the order of the per-output reference loop in
/// the tests, so the result is bit-identical to it (`f32::max` of `+0`
/// and `-0` may return either, so the fold order is kept). The scalar
/// loop builds each output row from slices of the `k` input rows it
/// covers, one kernel tap at a time across the whole row, so the
/// outputs' `max` chains are independent and overlap instead of each
/// waiting on its own. The AVX-512 tier folds 16 outputs at a time, in
/// output order across rows and planes, each tap one gather through the
/// window plan `plan` (built here on first use, and kept while the
/// geometry holds, so a batch builds it once).
fn pool_on(
    tier: Tier,
    input: &Tensor,
    (k, stride): (usize, usize),
    plan: &mut Option<PoolPlan>,
) -> Tensor {
    let (c, h, w) = input.shape();
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let mut out = vec![f32::NEG_INFINITY; c * oh * ow];
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx512 {
        let key = (input.shape(), k, stride);
        if plan.as_ref().is_none_or(|p| p.key != key) {
            *plan = PoolPlan::new(key);
        }
        if let Some(plan) = plan {
            x86::pool(input.as_slice(), plan, &mut out);
            return Tensor::from_vec(c, oh, ow, out);
        }
    }
    let _ = (tier, plan);
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

/// The window plan of the AVX-512 pooling tier for one geometry: the
/// offset of every output's window in the input (in output order), and
/// the offset of every tap from its window's origin (in `(ky, kx)`
/// order).
#[derive(Debug)]
struct PoolPlan {
    /// `((c, h, w), k, stride)` the plan was built for.
    key: ((usize, usize, usize), usize, usize),
    windows: Vec<i32>,
    taps: Vec<i32>,
    /// One past the largest offset a tap reads.
    span: usize,
}

impl PoolPlan {
    /// The plan of `key`, or `None` when an input of that shape is too
    /// large for `i32` gather offsets.
    fn new(key: ((usize, usize, usize), usize, usize)) -> Option<Self> {
        let ((c, h, w), k, stride) = key;
        if c * h * w > i32::MAX as usize || c * h * w == 0 {
            return None;
        }
        let oh = (h - k) / stride + 1;
        let ow = (w - k) / stride + 1;
        let at = |i: usize| i as i32;
        let mut windows = Vec::with_capacity(c * oh * ow);
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    windows.push(at((ci * h + oy * stride) * w + ox * stride));
                }
            }
        }
        let taps = (0..k * k).map(|t| at(t / k * w + t % k)).collect();
        let last = (c - 1) * h * w + ((oh - 1) * stride + k - 1) * w + (ow - 1) * stride + k - 1;
        Some(PoolPlan {
            key,
            windows,
            taps,
            span: last + 1,
        })
    }
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

    /// Heap bytes of the weight panels this layer has packed so far, at
    /// every width (zero for non-parameterized layers). Panels are packed
    /// on first use, so the count grows as new widths run.
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        match self {
            Layer::Conv2d(c) => c.cache.heap_bytes(),
            Layer::Dense(d) => d.cache.heap_bytes(),
            Layer::ReLU | Layer::MaxPool2d { .. } => 0,
        }
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

    /// Executes the layer on a whole chunk of samples — the step every
    /// forward takes: parameterized layers quantize each input at `abits`
    /// (quantization is per-sample, so grids and scales do not depend on
    /// the chunk) and run the chunk on `kernel` — one wide GEMM on the
    /// packed kernel, each sample quantized straight into its lanes;
    /// ReLU/pooling layers run per sample. Every pass runs on the fastest
    /// tier the host has.
    ///
    /// # Errors
    ///
    /// [`NnError::ShapeMismatch`] when an input does not fit,
    /// [`NnError::InvalidBits`] for bit widths outside `1..=16` and
    /// [`NnError::NonFiniteInput`] for an input holding NaN or ±inf. Each
    /// sample's shape is checked before its values; the first failing
    /// sample (in sample order) of this layer wins, and an invalid
    /// `wbits` shows only after every sample passed.
    pub(crate) fn forward_batch_with(
        &self,
        inputs: &[Tensor],
        wbits: u32,
        abits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        let tier = Tier::best();
        match self {
            Layer::Conv2d(_) | Layer::Dense(_) => {
                // Validate, then run pass 1 of the quantizer, per sample in
                // sample order, so a bad shape surfaces as a shape error,
                // not a quantization one.
                let mut scales = Vec::with_capacity(inputs.len());
                for input in inputs {
                    self.validate_input(input)?;
                    scales.push(quant::grid_scale(input.as_slice(), abits)?);
                }
                let bits = (wbits, abits);
                match (self, kernel) {
                    (Layer::Conv2d(c), NnKernel::GemmPacked) => {
                        c.forward_packed_batch(inputs, &scales, bits, scratch)
                    }
                    (Layer::Dense(d), NnKernel::GemmPacked) => {
                        d.forward_packed(inputs, &scales, bits, tier, scratch)
                    }
                    (_, NnKernel::Naive) => inputs
                        .iter()
                        .map(|input| {
                            let qa = QuantizedTensor::quantize(input, abits)?;
                            match self {
                                Layer::Conv2d(c) => c.forward_naive(&qa, wbits),
                                Layer::Dense(d) => d.forward_naive(&qa, wbits),
                                Layer::ReLU | Layer::MaxPool2d { .. } => unreachable!(),
                            }
                        })
                        .collect(),
                    (Layer::ReLU | Layer::MaxPool2d { .. }, _) => unreachable!(),
                }
            }
            Layer::ReLU => Ok(inputs
                .iter()
                .map(|input| {
                    let mut out = input.clone();
                    relu(tier, out.as_mut_slice());
                    (out, LayerStats::default())
                })
                .collect()),
            Layer::MaxPool2d { k, stride } => {
                let mut plan = None;
                inputs
                    .iter()
                    .map(|input| {
                        let (c, h, w) = input.shape();
                        if h < *k || w < *k {
                            return Err(NnError::ShapeMismatch {
                                expected: (c, *k, *k),
                                actual: (c, h, w),
                            });
                        }
                        let out = pool_on(tier, input, (*k, *stride), &mut plan);
                        Ok((out, LayerStats::default()))
                    })
                    .collect()
            }
        }
    }

    /// Executes the layer on a chunk the caller owns, replacing `xs` with
    /// the outputs: a ReLU clamps the tensors in place, every other layer
    /// runs [`forward_batch_with`](Self::forward_batch_with). Returns
    /// each sample's statistics.
    ///
    /// # Errors
    ///
    /// As [`forward_batch_with`](Self::forward_batch_with); `xs` is left
    /// unchanged.
    pub(crate) fn forward_owned(
        &self,
        xs: &mut Vec<Tensor>,
        wbits: u32,
        abits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<Vec<LayerStats>, NnError> {
        if let Layer::ReLU = self {
            let tier = Tier::best();
            for x in xs.iter_mut() {
                relu(tier, x.as_mut_slice());
            }
            return Ok(vec![LayerStats::default(); xs.len()]);
        }
        let (outs, stats) = self
            .forward_batch_with(xs, wbits, abits, kernel, scratch)?
            .into_iter()
            .unzip();
        *xs = outs;
        Ok(stats)
    }

    /// The shape check parameterized layers run on a raw input before
    /// quantizing it.
    fn validate_input(&self, input: &Tensor) -> Result<(), NnError> {
        match self {
            Layer::Conv2d(c) => c.check_shape(input.shape()),
            Layer::Dense(d) => d.check_shape(input.shape()),
            Layer::ReLU | Layer::MaxPool2d { .. } => Ok(()),
        }
    }
}

/// The AVX-512 tier of the passes around the GEMM (`avx512f`,
/// `avx512dq`, `avx512vl`: [`Tier::Avx512`]). `unsafe` is confined to
/// this module: callers pick the tier only where [`Tier::available`]
/// holds, and every entry point checks the slice bounds its loads,
/// gathers and stores rely on before it enters the vector loop, whose
/// ragged tail is masked.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::{
        __mmask16, __mmask8, _mm256_mask_storeu_ps, _mm256_maskz_loadu_ps, _mm256_mullo_epi32,
        _mm256_set1_epi32, _mm256_setr_epi32, _mm512_add_pd, _mm512_cmp_ps_mask,
        _mm512_cvtepi64_pd, _mm512_cvtpd_ps, _mm512_cvtps_pd, _mm512_mask_i32gather_epi64,
        _mm512_mask_i32gather_ps, _mm512_mask_mov_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_epi32, _mm512_maskz_loadu_epi64, _mm512_maskz_loadu_ps, _mm512_max_ps,
        _mm512_mul_pd, _mm512_set1_pd, _mm512_setzero_ps, _mm512_setzero_si512, _CMP_UNORD_Q,
    };

    /// The live-lane mask of a step of `width` lanes with `left` to go.
    #[inline(always)]
    fn live(left: usize, width: usize) -> u32 {
        if left >= width {
            (1u32 << width) - 1
        } else {
            (1u32 << left) - 1
        }
    }

    /// [`super::slice_back`] eight accumulators at a time:
    /// `vcvtqq2pd`, then the scalar expression's multiply, add and
    /// narrowing (`vcvtpd2ps` rounds to nearest, as `as f32` does).
    pub(super) fn slice_back(acc: &[i64], scale: f64, bias: f64, out: &mut [f32]) {
        assert!(acc.len() >= out.len(), "one accumulator per output");
        // SAFETY: the tier's features were checked by the caller; the
        // loop reads and writes the live lanes below `out.len()`.
        unsafe { slice_back_avx512(acc, scale, bias, out) }
    }

    /// # Safety
    ///
    /// AVX-512F/DQ/VL only; `acc` holds at least `out.len()` values.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn slice_back_avx512(acc: &[i64], scale: f64, bias: f64, out: &mut [f32]) {
        let (s, b) = (_mm512_set1_pd(scale), _mm512_set1_pd(bias));
        let n = out.len();
        for i in (0..n).step_by(8) {
            let live = live(n - i, 8) as __mmask8;
            let a = _mm512_cvtepi64_pd(_mm512_maskz_loadu_epi64(live, acc.as_ptr().add(i)));
            let v = _mm512_cvtpd_ps(_mm512_add_pd(_mm512_mul_pd(a, s), b));
            _mm256_mask_storeu_ps(out.as_mut_ptr().add(i), live, v);
        }
    }

    /// [`super::slice_back_strided`] eight outputs at a time, the
    /// accumulators gathered `stride` apart.
    pub(super) fn slice_back_strided(
        acc: &[i64],
        stride: usize,
        scale: f64,
        bias: &[f32],
        out: &mut [f32],
    ) {
        let n = out.len();
        assert!(bias.len() >= n, "one bias per output");
        if n == 0 {
            return;
        }
        assert!(
            (n - 1) * stride < acc.len(),
            "accumulators outside the slice"
        );
        assert!(
            (n + 7) * stride <= i32::MAX as usize,
            "gather offsets must fit i32"
        );
        // SAFETY: the tier's features were checked by the caller; the
        // live lanes gather `acc[z * stride]` for `z < n`, checked above to
        // lie inside `acc`, and the offsets of a step fit `i32`.
        unsafe { slice_back_strided_avx512(acc, stride, scale, bias, out) }
    }

    /// # Safety
    ///
    /// AVX-512F/DQ/VL only; `acc[z * stride]` and `bias[z]` exist for every
    /// `z < out.len()`, and `(out.len() + 7) * stride` fits `i32`.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn slice_back_strided_avx512(
        acc: &[i64],
        stride: usize,
        scale: f64,
        bias: &[f32],
        out: &mut [f32],
    ) {
        let s = _mm512_set1_pd(scale);
        let at = _mm256_mullo_epi32(
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(stride as i32),
        );
        let n = out.len();
        for z in (0..n).step_by(8) {
            let live = live(n - z, 8) as __mmask8;
            let base = acc.as_ptr().add(z * stride);
            let a = _mm512_mask_i32gather_epi64::<8>(_mm512_setzero_si512(), live, at, base);
            let b = _mm512_cvtps_pd(_mm256_maskz_loadu_ps(live, bias.as_ptr().add(z)));
            let v = _mm512_cvtpd_ps(_mm512_add_pd(_mm512_mul_pd(_mm512_cvtepi64_pd(a), s), b));
            _mm256_mask_storeu_ps(out.as_mut_ptr().add(z), live, v);
        }
    }

    /// [`super::relu`] compiled for AVX-512: the same `f32::max` clamp,
    /// so the same bits.
    pub(super) fn relu(values: &mut [f32]) {
        // SAFETY: the tier's features were checked by the caller; the
        // body is safe code.
        unsafe { relu_avx512(values) }
    }

    /// # Safety
    ///
    /// AVX-512F/DQ/VL only.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn relu_avx512(values: &mut [f32]) {
        super::relu_loop(values);
    }

    /// The AVX-512 tier of [`super::pool_on`], 16 outputs at a time:
    /// output `o` folds `input[windows[o] + taps[t]]` over the taps in
    /// order onto its current value with `f32::max`'s rule — the tap when
    /// the running maximum is NaN, else `vmaxps(tap, max)`, which is the
    /// tap when it is greater and the running maximum otherwise (NaN taps
    /// and equal zeros included). Each tap is one gather.
    pub(super) fn pool(input: &[f32], plan: &super::PoolPlan, out: &mut [f32]) {
        assert_eq!(out.len(), plan.windows.len(), "one output per window");
        assert!(plan.span <= input.len(), "pool windows outside the input");
        // SAFETY: the tier's features were checked by the caller; every
        // offset a live lane gathers, `windows[o] + taps[t]`, is below
        // the plan's `span` (built from the same geometry), checked above
        // to lie inside `input`, and only live lanes load, gather or store.
        unsafe { pool_avx512(input, plan, out) }
    }

    /// # Safety
    ///
    /// AVX-512F/DQ/VL only; every `windows[o] + taps[t]` indexes `input`,
    /// and `out` holds one value per window.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn pool_avx512(input: &[f32], plan: &super::PoolPlan, out: &mut [f32]) {
        let n = out.len();
        for o in (0..n).step_by(16) {
            let live = live(n - o, 16) as __mmask16;
            let windows = _mm512_maskz_loadu_epi32(live, plan.windows.as_ptr().add(o));
            let mut m = _mm512_maskz_loadu_ps(live, out.as_ptr().add(o));
            for &tap in &plan.taps {
                let base = input.as_ptr().add(tap as usize);
                let t = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), live, windows, base);
                let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(m, m);
                m = _mm512_mask_mov_ps(_mm512_max_ps(t, m), nan, t);
            }
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(o), live, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample through the layer's batch step, on the default kernel:
    /// the chunk of one a network forward would run.
    fn forward_one(
        layer: &Layer,
        input: &Tensor,
        wbits: u32,
        abits: u32,
    ) -> Result<(Tensor, LayerStats), NnError> {
        let one = std::slice::from_ref(input);
        let mut outs = layer.forward_batch_with(
            one,
            wbits,
            abits,
            NnKernel::default(),
            &mut Scratch::new(),
        )?;
        Ok(outs.remove(0))
    }

    #[test]
    fn conv_identity_filter_passes_input_through() {
        // A 1x1 kernel with weight snapped exactly on the quant grid.
        let mut conv = Conv2d::random(1, 1, 1, 1, 0, 1);
        conv.weights_mut()[0] = 1.0;
        let input = Tensor::from_fn(1, 3, 3, |_, y, x| (y * 3 + x) as f32 / 10.0);
        let (out, stats) = forward_one(&Layer::Conv2d(conv), &input, 16, 16).unwrap();
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
        let (out, _) = forward_one(&Layer::Conv2d(conv), &input, 8, 8).unwrap();
        // (9 + 2 - 3)/2 + 1 = 5.
        assert_eq!(out.shape(), (8, 5, 5));
    }

    #[test]
    fn conv_rejects_wrong_channel_count() {
        let conv = Conv2d::random(3, 4, 3, 1, 0, 4);
        let input = Tensor::random(2, 8, 8, 5);
        assert!(matches!(
            forward_one(&Layer::Conv2d(conv), &input, 8, 8),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn conv_mac_count_matches_dense_interior() {
        let conv = Conv2d::random(2, 4, 3, 1, 0, 6);
        let input = Tensor::random(2, 6, 6, 7);
        let (_, stats) = forward_one(&Layer::Conv2d(conv.clone()), &input, 8, 8).unwrap();
        // No padding: executed MACs equal the analytic count.
        assert_eq!(stats.macs, conv.mac_count(6, 6));
        assert_eq!(stats.macs, 4 * 4 * 4 * 2 * 9);
    }

    /// Packs one sample's im2col panel into the **pre-zeroed** `patches`
    /// (length `n * klen`, one patch per output position, in the
    /// `(ky, kx, ci)` order of the weight panel rows), counting in-bounds
    /// zero activations as it goes — a padding tap is a *skipped* MAC, not
    /// a zero-operand MAC, so structural zeros come from the zeroed buffer
    /// and are not counted. The reference the packed fill is checked
    /// against.
    fn pack_im2col(conv: &Conv2d, qa: &QuantizedTensor, patches: &mut [i16]) -> u64 {
        let (c, h, w) = qa.shape;
        let (oh, ow) = conv.out_hw(h, w);
        let k = conv.kernel;
        let klen = c * k * k;
        let pad = conv.padding as isize;
        let mut zero_acts = 0u64;
        for oy in 0..oh {
            for ox in 0..ow {
                for ky in 0..k {
                    for kx in 0..k {
                        for ci in 0..c {
                            let iy = (oy * conv.stride + ky) as isize - pad;
                            let ix = (ox * conv.stride + kx) as isize - pad;
                            if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let q = qa.data[(ci * h + iy as usize) * w + ix as usize];
                            zero_acts += u64::from(q == 0);
                            patches[(oy * ow + ox) * klen + (ky * k + kx) * c + ci] = q;
                        }
                    }
                }
            }
        }
        zero_acts
    }

    /// Runs `check` on every activation tier this host has, each called
    /// explicitly, and prints which ran and which are absent (so a log
    /// from a host without AVX-512 says so instead of passing silently).
    fn on_every_tier(mut check: impl FnMut(Tier)) {
        let mut log = Vec::new();
        for tier in Tier::ALL {
            if tier.available() {
                check(tier);
                log.push(format!("{} ran", tier.name()));
            } else {
                log.push(format!("{} absent", tier.name()));
            }
        }
        println!("activation tiers: {}", log.join(", "));
    }

    /// Bit patterns of a tensor, for bitwise comparisons.
    fn bits_of(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The samples of one fused-fill case at `bits`: random values with a
    /// run of zeros, exact ties, an all-zero sample and a sample whose
    /// only nonzero value is its maximum. In the tie sample the maximum is
    /// `qmax·2^-3`, so the scale is exactly `2^-3` and every value
    /// `(m ± ½)·2^-3` stays a tie after the divide.
    fn fill_samples((c, h, w): (usize, usize, usize), bits: u32, seed: u64) -> Vec<Tensor> {
        let len = c * h * w;
        let qmax = crate::quant::grid_max(bits);
        let step = 0.125f32;
        let mut random = Tensor::random(c, h, w, seed);
        random.as_mut_slice()[..len.min(20)].fill(0.0);
        let mut ties = Tensor::zeros(c, h, w);
        for (i, v) in ties.as_mut_slice().iter_mut().enumerate() {
            let m = (i as i32 * 7) % qmax.max(1);
            let tie = (m as f32 + 0.5) * step;
            *v = match i % 4 {
                0 => tie,
                1 => -tie,
                2 => (m as f32 - 0.5) * step,
                _ => -(m as f32) * step,
            };
        }
        ties.as_mut_slice()[len / 2] = qmax as f32 * step;
        let mut only_max = Tensor::zeros(c, h, w);
        only_max.as_mut_slice()[(len * 2) / 3] = -0.75;
        vec![random, ties, Tensor::zeros(c, h, w), only_max]
    }

    /// The fused activation fill — each sample quantized straight from its
    /// `f32` planes into HWC lanes, then cut into whole im2col rows —
    /// equals the reference on every tier the host has, each called
    /// explicitly. Over panel, bordered-input and stage buffers dirtied by
    /// a larger fill, its panel equals `PackedPanel::pack` of the
    /// `pack_im2col` reference on `QuantizedTensor::quantize` grids
    /// (in-bounds operands in `(ky, kx, ci)` order, zeros for padding taps
    /// and for the lanes up to the 16-lane step); its per-sample
    /// zero-activation counts equal the reference walk's; and its outputs,
    /// slice-back included, equal the naive kernel's bit for bit, as do a
    /// dense layer's on the same samples. The grid covers
    /// c ∈ {1, 2, 3, 4, 5, 8, 12, 16, 17, 33} and widths around the 8- and
    /// 16-lane steps (1, 15, 16, 17, 63, 64, 65, 67) on non-square inputs,
    /// every activation width 1–16, kernel sizes 1 to 11 with strides and
    /// padding around them, and samples with exact ties (which round away
    /// from zero), all zeros (scale 1.0) and a lone maximum.
    #[test]
    fn fused_fill_writes_whole_rows() {
        let kernels = [
            (1usize, 1usize, 0usize),
            (2, 1, 2),
            (3, 1, 1),
            (3, 2, 0),
            (3, 5, 3),
            (5, 1, 2),
            (11, 4, 5),
        ];
        let mut case = 0usize;
        let mut widths_seen = [false; 16];
        on_every_tier(|tier| {
            for c in [1usize, 2, 3, 4, 5, 8, 12, 16, 17, 33] {
                for w in [1usize, 15, 16, 17, 63, 64, 65, 67] {
                    case += 1;
                    let (k, stride, padding) = kernels[case % kernels.len()];
                    let h = [2usize, 3, 5][case % 3];
                    if h + 2 * padding < k || w + 2 * padding < k {
                        continue;
                    }
                    // One width of each activation mode per case, cycling
                    // through 1..=4, 5..=8 and 9..=16.
                    for bits in [1 + case % 4, 5 + case % 4, 9 + case % 8] {
                        let bits = bits as u32;
                        widths_seen[bits as usize - 1] = true;
                        check_fill(tier, (c, h, w), (k, stride, padding), bits, case as u64);
                    }
                }
            }
        });
        assert!(widths_seen.iter().all(|&s| s), "every activation width ran");
    }

    /// One case of [`fused_fill_writes_whole_rows`].
    fn check_fill(
        tier: Tier,
        (c, h, w): (usize, usize, usize),
        (k, stride, padding): (usize, usize, usize),
        bits: u32,
        seed: u64,
    ) {
        let what = format!(
            "{} c={c} h={h} w={w} k={k} s={stride} p={padding} bits={bits}",
            tier.name()
        );
        let conv = Conv2d::random(c, 3, k, stride, padding, 5 + seed);
        let inputs = fill_samples((c, h, w), bits, 40 + seed);
        let scales: Vec<f64> = inputs
            .iter()
            .map(|x| crate::quant::grid_scale(x.as_slice(), bits).unwrap())
            .collect();
        let qas: Vec<QuantizedTensor> = inputs
            .iter()
            .map(|t| QuantizedTensor::quantize(t, bits).unwrap())
            .collect();
        assert_eq!(scales[1], 0.125, "{what}: the tie sample's scale is 2^-3");
        assert_eq!(scales[2], 1.0, "{what}: an all-zero sample's scale is 1");
        let tie = inputs[1].as_slice()[0];
        let away = ((f64::from(tie) / 0.125).abs() + 0.5) as i16;
        if i32::from(away) <= crate::quant::grid_max(bits) {
            assert_eq!(qas[1].data[0], away, "{what}: ties round away from zero");
        }
        let mut scratch = Scratch::new();
        let (dirty, _) = scratch.packed.begin_fill(4096, 100, SubwordMode::X1);
        dirty.fill(0xBE);
        scratch.padded = vec![0xEF; 65536];
        scratch.stage = vec![0xEF; 4096];
        let results = conv
            .forward_packed(&inputs, &scales, (16, bits), tier, &mut scratch)
            .unwrap();
        let (oh, ow) = conv.out_hw(h, w);
        let (n, klen) = (oh * ow, c * k * k);
        let mut patches = vec![0i16; inputs.len() * n * klen];
        let mut zeros = Vec::new();
        for (qa, block) in qas.iter().zip(patches.chunks_exact_mut(n * klen)) {
            zeros.push(pack_im2col(&conv, qa, block));
        }
        let reference =
            gemm::PackedPanel::pack(&patches, inputs.len() * n, klen, mode_for_bits(bits));
        assert_eq!(scratch.packed, reference, "{what}");
        for ((qa, (out, stats)), z) in qas.iter().zip(&results).zip(zeros) {
            assert_eq!(stats.zero_act_macs, 3 * z, "{what}");
            let (want, want_stats) = conv.forward_naive(qa, 16).unwrap();
            assert_eq!(bits_of(out), bits_of(&want), "{what}");
            assert_eq!(*stats, want_stats, "{what}");
        }
        let dense = Dense::random(c * h * w, 3, 7 + seed);
        let results = dense
            .forward_packed(&inputs, &scales, (bits, bits), tier, &mut scratch)
            .unwrap();
        for (qa, (out, stats)) in qas.iter().zip(&results) {
            let (want, want_stats) = dense.forward_naive(qa, bits).unwrap();
            assert_eq!(bits_of(out), bits_of(&want), "dense {what}");
            assert_eq!(*stats, want_stats, "dense {what}");
        }
    }

    /// Errors come out of the fused batch step as they did out of
    /// per-sample quantization, on both kernels: NaN or ±inf anywhere in
    /// sample `j` is `NonFiniteInput`, a bad shape in a sample is a shape
    /// error even when the sample also holds NaN, the first failing sample
    /// wins, an invalid activation width is `InvalidBits`, and an invalid
    /// weight width shows only once every sample passed.
    #[test]
    fn fused_batch_errors_keep_their_order() {
        let conv = Layer::Conv2d(Conv2d::random(3, 4, 3, 1, 1, 3));
        let dense = Layer::Dense(Dense::random(3 * 5 * 6, 4, 4));
        let mut scratch = Scratch::new();
        let good = |seed| Tensor::random(3, 5, 6, seed);
        let bad_shape = Tensor::random(2, 5, 6, 9);
        for layer in [&conv, &dense] {
            for kernel in NnKernel::ALL {
                let mut run = |xs: &[Tensor], wbits: u32, abits: u32| {
                    layer
                        .forward_batch_with(xs, wbits, abits, kernel, &mut scratch)
                        .map(|_| ())
                };
                for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    for j in 0..3 {
                        for at in [0usize, 37, 89] {
                            let mut xs: Vec<Tensor> = (0..3).map(good).collect();
                            xs[j].as_mut_slice()[at] = poison;
                            let what =
                                format!("{} {kernel} poison={poison} j={j} at={at}", layer.name());
                            assert_eq!(run(&xs, 8, 8), Err(NnError::NonFiniteInput), "{what}");
                            assert_eq!(run(&xs, 99, 8), Err(NnError::NonFiniteInput), "{what}");
                            // A later bad shape loses to the poisoned sample;
                            // a bad shape in the same or an earlier sample wins.
                            if j < 2 {
                                xs[2] = bad_shape.clone();
                                assert_eq!(run(&xs, 8, 8), Err(NnError::NonFiniteInput), "{what}");
                            }
                            xs[j] = {
                                let mut t = bad_shape.clone();
                                t.as_mut_slice()[0] = poison;
                                t
                            };
                            assert!(
                                matches!(run(&xs, 8, 8), Err(NnError::ShapeMismatch { .. })),
                                "{what}"
                            );
                        }
                    }
                }
                let xs: Vec<Tensor> = (0..3).map(good).collect();
                assert_eq!(run(&xs, 8, 0), Err(NnError::InvalidBits { bits: 0 }));
                assert_eq!(run(&xs, 8, 17), Err(NnError::InvalidBits { bits: 17 }));
                assert_eq!(run(&xs, 17, 8), Err(NnError::InvalidBits { bits: 17 }));
                assert!(run(&xs, 8, 8).is_ok());
            }
        }
    }

    /// ReLU on every tier equals the scalar clamp bit for bit, signed
    /// zeros, NaNs, infinities and subnormals included, in place and
    /// through the borrowing batch step.
    #[test]
    fn relu_tiers_match_the_scalar_clamp() {
        let specials = [
            0.0f32,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 4.0,
            1.5,
            -1.5,
        ];
        let values: Vec<f32> = (0..67)
            .map(|i| specials[(i * 7) % specials.len()])
            .collect();
        let want: Vec<u32> = values.iter().map(|v| v.max(0.0).to_bits()).collect();
        on_every_tier(|tier| {
            for len in 0..=values.len() {
                let mut got = values[..len].to_vec();
                relu(tier, &mut got);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want[..len], "{} len={len}", tier.name());
            }
        });
        let x = Tensor::from_vec(1, 1, values.len(), values.clone());
        let mut owned = vec![x.clone()];
        let stats = Layer::ReLU
            .forward_owned(&mut owned, 16, 16, NnKernel::default(), &mut Scratch::new())
            .unwrap();
        assert_eq!(stats, vec![LayerStats::default()]);
        assert_eq!(bits_of(&owned[0]), want);
        assert_eq!(
            bits_of(&forward_one(&Layer::ReLU, &x, 16, 16).unwrap().0),
            want
        );
    }

    #[test]
    fn relu_clamps_negative_values() {
        let mut t = Tensor::zeros(1, 1, 3);
        t.set(0, 0, 0, -1.0);
        t.set(0, 0, 1, 2.0);
        let (out, _) = forward_one(&Layer::ReLU, &t, 16, 16).unwrap();
        assert_eq!(out.get(0, 0, 0), 0.0);
        assert_eq!(out.get(0, 0, 1), 2.0);
    }

    #[test]
    fn maxpool_takes_patch_maximum() {
        let t = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let (out, _) = forward_one(&Layer::MaxPool2d { k: 2, stride: 2 }, &t, 16, 16).unwrap();
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

    /// `max_pool` on every tier the host has equals the per-tap loop bit
    /// for bit over random shapes: the models' pools, overlapping windows
    /// (k3s2), strides that do not divide the size, strides wider than the
    /// window, rows wider than one 16-output vector, and inputs with runs
    /// of signed zeros (ReLU outputs) and NaNs.
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
            (2, 5, 67, 3, 2),
            (1, 3, 40, 2, 1),
            (1, 4, 97, 3, 3),
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
        let cases: Vec<(Tensor, usize, usize)> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(c, h, w, k, stride))| {
                let mut input = Tensor::random(c, h, w, i as u64);
                for v in input.as_mut_slice() {
                    match rng.gen_range(0..8) {
                        0 => *v = 0.0,
                        1 => *v = -0.0,
                        2 if rng.gen_range(0..16) == 0 => *v = f32::NAN,
                        _ => {}
                    }
                }
                (input, k, stride)
            })
            .collect();
        on_every_tier(|tier| {
            for (input, k, stride) in &cases {
                let (k, stride) = (*k, *stride);
                let want = max_pool_reference(input, k, stride);
                let got = max_pool(tier, input, k, stride);
                let (c, h, w) = input.shape();
                let what = format!("{} c={c} h={h} w={w} k={k} s={stride}", tier.name());
                assert_eq!(got.shape(), want.shape(), "{what}");
                assert_eq!(bits_of(&got), bits_of(&want), "{what}");
            }
        });
    }

    #[test]
    fn overlapping_pool_shape() {
        // AlexNet-style 3x3 stride-2 pooling.
        let t = Tensor::random(2, 13, 13, 8);
        let (out, _) = forward_one(&Layer::MaxPool2d { k: 3, stride: 2 }, &t, 16, 16).unwrap();
        assert_eq!(out.shape(), (2, 6, 6));
    }

    #[test]
    fn dense_computes_matrix_vector_product() {
        let mut d = Dense::random(2, 1, 9);
        d.weights_mut().copy_from_slice(&[0.5, -0.25]);
        let mut input = Tensor::zeros(1, 1, 2);
        input.set(0, 0, 0, 1.0);
        input.set(0, 0, 1, 1.0);
        let (out, stats) = forward_one(&Layer::Dense(d), &input, 16, 16).unwrap();
        assert_eq!(stats.macs, 2);
        let bias = out.get(0, 0, 0) - 0.25;
        assert!(bias.abs() < 0.06, "residual {bias}");
    }

    #[test]
    fn dense_flattens_multi_channel_input() {
        let d = Dense::random(2 * 3 * 3, 5, 10);
        let input = Tensor::random(2, 3, 3, 11);
        let (out, _) = forward_one(&Layer::Dense(d), &input, 8, 8).unwrap();
        assert_eq!(out.shape(), (1, 1, 5));
    }

    #[test]
    fn coarse_quantization_changes_conv_output() {
        let conv = Layer::Conv2d(Conv2d::random(1, 4, 3, 1, 0, 12));
        let input = Tensor::random(1, 8, 8, 13);
        let (fine, _) = forward_one(&conv, &input, 16, 16).unwrap();
        let (coarse, _) = forward_one(&conv, &input, 2, 2).unwrap();
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
        let (_, stats) = forward_one(&Layer::Conv2d(conv), &input, 8, 8).unwrap();
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

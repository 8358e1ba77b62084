//! CNN layers with an integer MAC data path.
//!
//! [`Conv2d`] implements equation (4) of the paper; [`Dense`] the
//! matrix-vector classifier layers; [`Layer::ReLU`] and
//! [`Layer::MaxPool2d`] the non-linearity and pooling stages of Fig. 5.
//! Convolution and dense layers execute on quantized integers with 64-bit
//! accumulation — the arithmetic a DVAFS MAC array performs — and report
//! the MAC/sparsity statistics that drive the Envision power model.
//!
//! Every layer runs on a batch of samples ([`Layer::forward`] is a batch
//! of one). Conv and dense layers execute that batch on one of two MAC
//! kernels (see [`crate::kernel`]): the original scalar loops, sample by
//! sample ([`NnKernel::Naive`], the reference oracle), or the default
//! subword-packed GEMM ([`NnKernel::GemmPacked`]), which fills one packed
//! activation panel for the whole batch in place, whole row by whole row,
//! and multiplies it once. A conv sample is first copied into a
//! zero-bordered, channel-interleaved (HWC) buffer of lanes at the
//! activation width, so each row — its window in `(ky, kx, ci)` order,
//! the order the weight panel is packed in — is `k` contiguous runs of
//! `k*c` lanes. Accumulation is exact in `i64`, and an exact dot product
//! does not depend on the order of its terms, so both kernels produce
//! byte-identical outputs and statistics.

use crate::error::NnError;
use crate::kernel::{
    mode_for_bits, with_thread_scratch, NnKernel, PackedWeights, Scratch, WeightCache,
};
use crate::quant::QuantizedTensor;
use crate::tensor::Tensor;
use dvafs_arith::SubwordMode;
use dvafs_simd::gemm;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The one result of a batch-of-one forward.
pub(crate) fn single<T>(results: Result<Vec<T>, NnError>) -> Result<T, NnError> {
    results.map(|mut r| r.pop().expect("one result per sample"))
}

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

/// Writes grid values as `L`-byte lanes ([`lane_bytes`]) to the front of
/// `dst` and zeros to its end.
fn put_lanes<const L: usize>(src: &[i16], dst: &mut [u8]) {
    let (lanes, tail) = dst.split_at_mut(src.len() * L);
    for (lane, &q) in lanes.chunks_exact_mut(L).zip(src) {
        lane.copy_from_slice(&q.to_le_bytes()[..L]);
    }
    tail.fill(0);
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

    /// Copies one sample's CHW grid into `padded` as zero-bordered,
    /// channel-interleaved (HWC) lanes of `L` bytes ([`lane_bytes`]): the
    /// `c` channels of pixel `(y, x)` of the bordered input are adjacent,
    /// at lanes `(y*wp + x)*c ..`, written pixel by pixel as one run read
    /// a plane apart. Returns the sample's zero-activation count: `cover`
    /// is the per-axis tap coverage ([`axis_cover`](Self::axis_cover)),
    /// so a zero feeding `cover_y[y] * cover_x[x]` slots counts that many
    /// guarded MACs — the same total the naive loop reaches tap by tap (a
    /// padding tap is a skipped MAC, not a zero operand).
    fn fill_padded<const L: usize>(
        &self,
        qa: &QuantizedTensor,
        (cover_y, cover_x): (&[u64], &[u64]),
        padded: &mut Vec<u8>,
    ) -> u64 {
        let (c, h, w) = qa.shape;
        let p = self.padding;
        let wp = w + 2 * p;
        let pixel = c * L;
        padded.clear();
        padded.resize((h + 2 * p) * wp * pixel, 0);
        let mut zero_acts = 0u64;
        for (y, &cy) in cover_y.iter().enumerate() {
            let dst = &mut padded[((y + p) * wp + p) * pixel..][..w * pixel];
            let mut zeros = 0u64;
            for (x, (px, &cx)) in dst.chunks_exact_mut(pixel).zip(cover_x).enumerate() {
                let column = qa.data[y * w + x..].iter().step_by(h * w);
                let mut pixel_zeros = 0u64;
                for (lane, &q) in px.chunks_exact_mut(L).zip(column) {
                    lane.copy_from_slice(&q.to_le_bytes()[..L]);
                    pixel_zeros += u64::from(q == 0);
                }
                zeros += pixel_zeros * cx;
            }
            zero_acts += zeros * cy;
        }
        zero_acts
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

    /// Executes the convolution on a batch of already-quantized inputs —
    /// the one conv entry point of every forward. The naive kernel runs
    /// its scalar loop sample by sample; the packed kernel runs **one
    /// wide GEMM** ([`forward_packed`](Self::forward_packed)). Both are
    /// exact, so outputs and statistics are bit-identical across kernels
    /// and batch sizes. A batch of mixed grid geometry runs as batches of
    /// one.
    ///
    /// # Errors
    ///
    /// [`NnError::ShapeMismatch`] for the first input that does not fit,
    /// and [`NnError::InvalidBits`] for `wbits` outside `1..=16`.
    pub(crate) fn forward_quant_batch(
        &self,
        qas: &[&QuantizedTensor],
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        for qa in qas {
            self.check_shape(qa.shape)?;
        }
        let uniform = qas
            .iter()
            .all(|qa| qa.shape == qas[0].shape && qa.bits == qas[0].bits);
        match kernel {
            NnKernel::Naive => qas.iter().map(|qa| self.forward_naive(qa, wbits)).collect(),
            NnKernel::GemmPacked if uniform => self.forward_packed(qas, wbits, scratch),
            NnKernel::GemmPacked => qas
                .iter()
                .map(|qa| single(self.forward_packed(&[qa], wbits, scratch)))
                .collect(),
        }
    }

    /// The packed kernel on a batch of same-geometry inputs: each
    /// sample's im2col panel becomes `n` extra rows of a shared
    /// `(B·n) x k` activation panel, so the packed weight panel streams
    /// through cache once per batch instead of once per sample. Every
    /// output element is still an independent exact-`i64` dot product
    /// over the same operands as [`forward_naive`](Self::forward_naive).
    fn forward_packed(
        &self,
        qas: &[&QuantizedTensor],
        wbits: u32,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        let Some(first) = qas.first() else {
            return Ok(Vec::new());
        };
        let pw = self.packed_weights(wbits)?;
        let (_, h, w) = first.shape;
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
        let cover = (self.axis_cover(oh, h), self.axis_cover(ow, w));
        let cover = (cover.0.as_slice(), cover.1.as_slice());
        let mode = mode_for_bits(first.bits);
        let (bytes, row_bytes) = packed.begin_fill(total, klen, mode);
        let mut zero_acts = Vec::with_capacity(b);
        for (qa, block) in qas.iter().zip(bytes.chunks_exact_mut(n * row_bytes)) {
            zero_acts.push(if mode == SubwordMode::X1 {
                self.fill_padded::<2>(qa, cover, padded)
            } else {
                self.fill_padded::<1>(qa, cover, padded)
            });
            self.cut_rows(mode, qa.shape, (padded, stage), block, row_bytes);
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

    /// Executes the layer on a batch of already-quantized inputs (see
    /// [`Conv2d::forward_quant_batch`]). The packed kernel runs one
    /// `outputs x inputs x B` GEMM: each sample's activation vector is
    /// one row of a shared `B x inputs` right-hand panel, so the packed
    /// weight rows stream once per batch.
    ///
    /// # Errors
    ///
    /// Same as [`Conv2d::forward_quant_batch`].
    pub(crate) fn forward_quant_batch(
        &self,
        qas: &[&QuantizedTensor],
        wbits: u32,
        kernel: NnKernel,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        for qa in qas {
            self.check_shape(qa.shape)?;
        }
        let uniform = qas.iter().all(|qa| qa.bits == qas[0].bits);
        match kernel {
            NnKernel::Naive => qas.iter().map(|qa| self.forward_naive(qa, wbits)).collect(),
            NnKernel::GemmPacked if uniform => self.forward_packed(qas, wbits, scratch),
            NnKernel::GemmPacked => qas
                .iter()
                .map(|qa| single(self.forward_packed(&[qa], wbits, scratch)))
                .collect(),
        }
    }

    /// The packed kernel on a batch of inputs sharing one activation
    /// width. Every weight is consumed exactly once per sample and every
    /// activation once per output row, so the guard-skip counters are the
    /// packed zero counts directly.
    fn forward_packed(
        &self,
        qas: &[&QuantizedTensor],
        wbits: u32,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, LayerStats)>, NnError> {
        let Some(first) = qas.first() else {
            return Ok(Vec::new());
        };
        let pw = self.packed_weights(wbits)?;
        let b = qas.len();
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
        // sample's vector is one whole panel row.
        let mode = mode_for_bits(first.bits);
        let (bytes, row_bytes) = packed.begin_fill(b, self.inputs, mode);
        stage.resize(2 * row_bytes, 0);
        let mut zero_counts = Vec::with_capacity(b);
        for (qa, row) in qas.iter().zip(bytes.chunks_exact_mut(row_bytes)) {
            zero_counts.push(qa.data.iter().filter(|&&q| q == 0).count() as u64);
            match mode {
                SubwordMode::X1 => put_lanes::<2>(&qa.data, row),
                SubwordMode::X2 => put_lanes::<1>(&qa.data, row),
                SubwordMode::X4 => {
                    put_lanes::<1>(&qa.data, stage);
                    pack_nibbles(stage, row);
                }
            }
        }
        packed.finish_fill(); // no lane minimum, as in `Conv2d::forward_packed`
        gemm::gemm_packed(&pw.panel, packed, acc);

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

    /// Executes the layer on one sample — a batch of one through the
    /// layer's batch step, on the default MAC kernel and this thread's
    /// [`Scratch`]. `wbits`/`abits` only affect parameterized layers.
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
        with_thread_scratch(|scratch| {
            single(self.forward_batch_with(
                std::slice::from_ref(input),
                wbits,
                abits,
                NnKernel::default(),
                scratch,
            ))
        })
    }

    /// Executes the layer on a whole chunk of samples — the step every
    /// forward takes: parameterized layers quantize each input at `abits`
    /// (in sample order; quantization is per-sample, so grids and scales
    /// do not depend on the chunk) and run the chunk on `kernel` — one
    /// wide GEMM on the packed kernel; ReLU/pooling layers run per
    /// sample.
    ///
    /// # Errors
    ///
    /// [`NnError::ShapeMismatch`] when an input does not fit and
    /// [`NnError::InvalidBits`] for bit widths outside `1..=16`; the first
    /// failing sample (in sample order) of this layer wins.
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
                // bad shape surfaces as a shape error, not a quantization
                // one.
                let mut qas = Vec::with_capacity(inputs.len());
                for input in inputs {
                    self.validate_input(input)?;
                    qas.push(QuantizedTensor::quantize(input, abits)?);
                }
                let refs: Vec<&QuantizedTensor> = qas.iter().collect();
                self.forward_prequantized_batch(&refs, wbits, kernel, scratch)
            }
            Layer::ReLU => Ok(inputs
                .iter()
                .map(|input| {
                    let mut out = input.clone();
                    for v in out.as_mut_slice() {
                        *v = v.max(0.0);
                    }
                    (out, LayerStats::default())
                })
                .collect()),
            Layer::MaxPool2d { k, stride } => inputs
                .iter()
                .map(|input| {
                    let (c, h, w) = input.shape();
                    if h < *k || w < *k {
                        return Err(NnError::ShapeMismatch {
                            expected: (c, *k, *k),
                            actual: (c, h, w),
                        });
                    }
                    Ok((max_pool(input, *k, *stride), LayerStats::default()))
                })
                .collect(),
        }
    }

    /// A whole chunk of already-quantized inputs through one
    /// **parameterized** layer — the incremental-search fast path, fed
    /// from the per-`(sample, layer, abits)`
    /// [`crate::kernel::ActivationCache`]. Bit-identical to
    /// [`forward_batch_with`](Self::forward_batch_with) because
    /// quantization is a pure function of `(input, abits)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when an input does not fit or
    /// when called on a non-parameterized layer (ReLU / pooling layers
    /// take no quantized operands).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_identity_filter_passes_input_through() {
        // A 1x1 kernel with weight snapped exactly on the quant grid.
        let mut conv = Conv2d::random(1, 1, 1, 1, 0, 1);
        conv.weights_mut()[0] = 1.0;
        let input = Tensor::from_fn(1, 3, 3, |_, y, x| (y * 3 + x) as f32 / 10.0);
        let (out, stats) = Layer::Conv2d(conv).forward(&input, 16, 16).unwrap();
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
        let (out, _) = Layer::Conv2d(conv).forward(&input, 8, 8).unwrap();
        // (9 + 2 - 3)/2 + 1 = 5.
        assert_eq!(out.shape(), (8, 5, 5));
    }

    #[test]
    fn conv_rejects_wrong_channel_count() {
        let conv = Conv2d::random(3, 4, 3, 1, 0, 4);
        let input = Tensor::random(2, 8, 8, 5);
        assert!(matches!(
            Layer::Conv2d(conv).forward(&input, 8, 8),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn conv_mac_count_matches_dense_interior() {
        let conv = Conv2d::random(2, 4, 3, 1, 0, 6);
        let input = Tensor::random(2, 6, 6, 7);
        let (_, stats) = Layer::Conv2d(conv.clone()).forward(&input, 8, 8).unwrap();
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

    /// The packed fill writes every byte of every panel row: over panel,
    /// bordered-input and stage buffers dirtied by a larger fill, its
    /// panel equals `PackedPanel::pack` of the `pack_im2col` reference
    /// (in-bounds operands in `(ky, kx, ci)` order, zeros for padding taps
    /// and for the lanes up to the 16-lane step), and its per-sample
    /// zero-activation counts equal the reference walk's — for 1, 3, 4 and
    /// 12 channels (odd and even `k*c` runs, and more channels than the
    /// 11-wide rows have pixels), kernel sizes 1 to 11 with strides and
    /// padding around them, at every activation mode.
    #[test]
    fn fused_fill_writes_whole_rows() {
        let (h, w) = (13usize, 11usize);
        for c in [1usize, 3, 4, 12] {
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
                    dirty.fill(0xBE);
                    scratch.padded = vec![0xEF; 65536];
                    scratch.stage = vec![0xEF; 4096];
                    let results = conv
                        .forward_quant_batch(&refs, 16, NnKernel::GemmPacked, &mut scratch)
                        .unwrap();
                    let (oh, ow) = conv.out_hw(h, w);
                    let (n, klen) = (oh * ow, c * k * k);
                    let mut patches = vec![0i16; 2 * n * klen];
                    let mut zeros = Vec::new();
                    for (qa, block) in qas.iter().zip(patches.chunks_exact_mut(n * klen)) {
                        zeros.push(pack_im2col(&conv, qa, block));
                    }
                    let reference =
                        gemm::PackedPanel::pack(&patches, 2 * n, klen, mode_for_bits(bits));
                    let what = format!("c={c} k={k} s={stride} p={padding} bits={bits}");
                    assert_eq!(scratch.packed, reference, "{what}");
                    for ((_, stats), z) in results.iter().zip(zeros) {
                        assert_eq!(stats.zero_act_macs, 3 * z, "{what}");
                    }
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
        let (out, stats) = Layer::Dense(d).forward(&input, 16, 16).unwrap();
        assert_eq!(stats.macs, 2);
        let bias = out.get(0, 0, 0) - 0.25;
        assert!(bias.abs() < 0.06, "residual {bias}");
    }

    #[test]
    fn dense_flattens_multi_channel_input() {
        let d = Dense::random(2 * 3 * 3, 5, 10);
        let input = Tensor::random(2, 3, 3, 11);
        let (out, _) = Layer::Dense(d).forward(&input, 8, 8).unwrap();
        assert_eq!(out.shape(), (1, 1, 5));
    }

    #[test]
    fn coarse_quantization_changes_conv_output() {
        let conv = Layer::Conv2d(Conv2d::random(1, 4, 3, 1, 0, 12));
        let input = Tensor::random(1, 8, 8, 13);
        let (fine, _) = conv.forward(&input, 16, 16).unwrap();
        let (coarse, _) = conv.forward(&input, 2, 2).unwrap();
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
        let (_, stats) = Layer::Conv2d(conv).forward(&input, 8, 8).unwrap();
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

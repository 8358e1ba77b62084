//! The MAC-kernel layer: how conv/dense layers execute their quantized
//! multiply-accumulates.
//!
//! Mirroring the netlist engine selector of `dvafs-arith`
//! (`netlist::Engine::{Scalar, Bitsliced}`), the NN hot path has two
//! interchangeable kernels:
//!
//! * [`NnKernel::Naive`] — the original 7-deep convolution loop (and the
//!   2-deep dense loop), retained verbatim as the **reference oracle**;
//! * [`NnKernel::GemmPacked`] — the default: each sample's quantized
//!   activations are copied once into a zero-bordered, channel-interleaved
//!   buffer of lanes ([`Scratch`]), and every im2col row is cut from it
//!   with `k` contiguous copies into a panel that is *subword-packed* (the
//!   paper's Section II-C move in software) and consumed by the packed
//!   GEMM of [`dvafs_simd::gemm`] with exact accumulation. Each side
//!   independently selects the most-parallel [`SubwordMode`] its bit
//!   width allows via [`SubwordMode::for_precision`] — see
//!   `mode_for_bits` — so an 8-bit layer carries 2 operands per 16-bit
//!   lane word and a 4-bit layer 4. Per-`(layer, bits)` weight panels are
//!   memoized in a `WeightCache` across a precision sweep, conv filters in
//!   the `(ky, kx, ci)` order the activation rows are cut in.
//!
//! Accumulation is exact in both kernels, so the choice **never moves a
//! number**: outputs are byte-identical and the `zero_weight`/`zero_act`
//! guard-skip counters are reproduced exactly from the packed
//! representation (the `Naive == GemmPacked` property tests pin both).
//! Only wall time changes.

use crate::quant::QuantizedTensor;
use dvafs_arith::{Precision, SubwordMode};
use dvafs_simd::gemm::PackedPanel;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Selects the MAC kernel conv/dense layers execute on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum NnKernel {
    /// The original scalar layer loops — the reference oracle.
    Naive,
    /// Subword-packed GEMM: reduced-precision operands share lane words
    /// at the [`SubwordMode`] geometry — the default.
    #[default]
    GemmPacked,
}

impl NnKernel {
    /// All kernels, oracle first (test matrices iterate this).
    pub const ALL: [NnKernel; 2] = [NnKernel::Naive, NnKernel::GemmPacked];
}

impl fmt::Display for NnKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NnKernel::Naive => "naive",
            NnKernel::GemmPacked => "packed",
        })
    }
}

/// Samples per chunk of every batch entry point of `Network` (and of the
/// precision search, sparsity measurement and `dvafs serve`): big enough
/// to amortize one weight-panel stream over many activation columns,
/// small enough that the widened im2col/accumulator scratch stays
/// cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 16;

/// The [`SubwordMode`] the packed kernel selects for a `bits`-wide
/// operand — [`SubwordMode::for_precision`] is the mode-selection
/// authority: the narrowest-lane, most-parallel mode that still holds
/// the operands (4-bit → `X4`, 8-bit → `X2`, wider → `X1`).
///
/// # Panics
///
/// Panics when `bits` is outside `1..=16` (callers validate first).
#[must_use]
pub(crate) fn mode_for_bits(bits: u32) -> SubwordMode {
    SubwordMode::for_precision(Precision::new(bits).expect("bits validated to 1..=16"))
}

/// Reusable buffers of the packed GEMM path. One `Scratch` amortizes the
/// im2col panel and accumulator allocations across layers of a forward
/// pass — and, via the batch entry points of `Network`, across samples
/// of a dataset sweep. Buffers only grow; every use overwrites whatever
/// part it reads (the packed fill writes every byte of every panel row),
/// so reuse never affects results.
#[derive(Debug, Default)]
pub struct Scratch {
    /// GEMM accumulators (`m x n`, exact `i64`).
    pub(crate) acc: Vec<i64>,
    /// Subword-packed activation panel of the `GemmPacked` kernel, filled
    /// row by row in place by its fused path.
    pub(crate) packed: PackedPanel,
    /// One sample's quantized input as lanes at the activation mode's
    /// width, zero-bordered by the layer's padding and channel-interleaved
    /// (a pixel's channels adjacent), that the conv fill cuts its rows
    /// from.
    pub(crate) padded: Vec<u8>,
    /// `X4` activations staged one lane per byte (one conv sample's
    /// block of rows, or one dense row) before they are packed two lanes
    /// to a byte.
    pub(crate) stage: Vec<u8>,
}

impl Scratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Runs `f` with this thread's long-lived [`Scratch`], so convenience
/// wrappers and executor workers amortize the im2col/accumulator
/// allocations across calls instead of building a fresh `Scratch::new()`
/// each time. Falls back to a throwaway scratch when the thread-local is
/// already borrowed (a reentrant caller), which only costs allocations —
/// scratch contents never affect results.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::new()),
    })
}

/// One memoized weight quantization: the packed panel the GEMM consumes,
/// its scale, and the zero-weight counts the guard-skip statistics are
/// reproduced from.
#[derive(Debug)]
pub(crate) struct PackedWeights {
    /// Real value per grid step (`QuantizedTensor::scale`).
    pub scale: f64,
    /// Zero-weight count per spatial tap `ky*k + kx`, summed over filters
    /// and input channels (convolution only; empty for dense layers).
    /// Scaling each tap's count by the number of output positions where
    /// that tap is in bounds reproduces the naive loop's `zero_weight`
    /// counter exactly under padding.
    pub zeros_per_tap: Vec<u64>,
    /// Total zero weights (the dense layer's per-output-row zero count).
    pub zeros_total: u64,
    /// The quantized weights subword-packed at
    /// [`mode_for_bits`]`(bits)` — one filter/output neuron per panel
    /// row — pre-built at pack time so the `GemmPacked` hot path never
    /// re-packs weights.
    pub panel: PackedPanel,
}

/// Per-layer cache of [`PackedWeights`] keyed by bit width.
///
/// A precision sweep re-runs the same layer at many widths and the same
/// width across many samples; weight quantization is a pure function of
/// `(weights, bits)`, so it is computed once per key. `weights_mut`
/// (pruning, calibration) invalidates the cache. The cache is execution
/// state, not model identity: it is skipped by serialization, compares
/// equal regardless of contents, and clones empty.
///
/// Bit widths are bounded (`1..=16`), so the cache is one `OnceLock` slot
/// per width: hits on the forward hot path are lock-free reads — parallel
/// sample workers never contend — and a cold pack runs `get_or_init` (a
/// racing duplicate pack is possible and harmless: packing is pure, one
/// winner is kept).
#[derive(Default)]
pub(crate) struct WeightCache([OnceLock<PackedWeights>; 16]);

impl WeightCache {
    /// The packed weights for `bits` (`1..=16`, validated by the caller),
    /// packing on first use. A hit is a plain borrow, with no reference
    /// count to bump. Measured on a 2-vCPU Xeon, the 2-thread `fig6`
    /// precision search took 0.50 s wall with a cloned `Arc` per hit and
    /// 0.35 s with the borrow (medians of separate sets of runs); the
    /// cause of the difference was not established.
    pub fn get_or_pack(&self, bits: u32, pack: impl FnOnce() -> PackedWeights) -> &PackedWeights {
        self.0[bits as usize - 1].get_or_init(pack)
    }

    /// Drops every memoized quantization (weights changed). Requires
    /// `&mut self` — exactly what `weights_mut` holds — so no reader can
    /// observe a half-cleared cache.
    pub fn invalidate(&mut self) {
        for slot in &mut self.0 {
            let _ = slot.take();
        }
    }

    /// Number of memoized bit widths (test hook).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.0.iter().filter(|slot| slot.get().is_some()).count()
    }
}

impl Clone for WeightCache {
    fn clone(&self) -> Self {
        // A clone may diverge (pruning) — start cold rather than share.
        WeightCache::default()
    }
}

impl fmt::Debug for WeightCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WeightCache(..)")
    }
}

/// Memoized activation quantizations keyed by `(slot, bits)` — the
/// activation-side mirror of [`WeightCache`].
///
/// A precision scan re-quantizes the *same* input activation at the same
/// bit width many times (the weight-operand scan of one layer holds
/// `abits` at full precision across every candidate weight width);
/// quantization is a pure function of `(input, bits)`
/// (property-tested in [`crate::quant`]), so it is computed once per key.
/// The caller maps `slot` to a sample index for a fixed layer — the
/// incremental precision search creates one cache per layer scan, so the
/// effective key is `(sample, layer, abits)`.
///
/// The same discipline as [`WeightCache`]: bit widths are bounded
/// (`1..=16`), so each slot is one `OnceLock` per width — hits on the
/// parallel scan path are lock-free reads, a cold quantization runs
/// `get_or_init` (racing duplicates are pure and harmless, one winner is
/// kept) — and staleness is handled by ownership: the cache lives no
/// longer than the scan of one layer over one immutable network, and
/// [`invalidate`](Self::invalidate) (requiring `&mut self`, like
/// `WeightCache::invalidate`) drops every memo when the cached inputs are
/// replaced.
#[derive(Default)]
pub struct ActivationCache {
    slots: Vec<[OnceLock<Arc<QuantizedTensor>>; 16]>,
}

impl ActivationCache {
    /// A cache with `slots` entries (one per sample of the scanned set),
    /// all cold.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        ActivationCache {
            slots: (0..slots)
                .map(|_| std::array::from_fn(|_| OnceLock::new()))
                .collect(),
        }
    }

    /// The memoized quantization for `(slot, bits)` (`bits` in `1..=16`),
    /// quantizing on first use.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range or `bits` outside `1..=16`.
    pub fn get_or_quantize(
        &self,
        slot: usize,
        bits: u32,
        quantize: impl FnOnce() -> QuantizedTensor,
    ) -> Arc<QuantizedTensor> {
        assert!((1..=16).contains(&bits), "bits {bits} outside 1..=16");
        self.slots[slot][bits as usize - 1]
            .get_or_init(|| Arc::new(quantize()))
            .clone()
    }

    /// Drops every memoized quantization (the cached inputs changed).
    /// Requires `&mut self`, so no reader can observe a half-cleared cache.
    pub fn invalidate(&mut self) {
        for slot in &mut self.slots {
            for cell in slot {
                let _ = cell.take();
            }
        }
    }

    /// Number of memoized `(slot, bits)` entries (test hook).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .flat_map(|s| s.iter())
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// Whether nothing is memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for ActivationCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ActivationCache({} slots)", self.slots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_scratch_is_reused_and_reentrancy_safe() {
        // Two sequential borrows see the same buffer (capacity persists);
        // a nested borrow gets a fresh scratch instead of panicking.
        with_thread_scratch(|s| s.acc.resize(64, 7));
        let (outer_len, inner_len) = with_thread_scratch(|s| {
            let inner = with_thread_scratch(|nested| nested.acc.len());
            (s.acc.len(), inner)
        });
        assert_eq!(outer_len, 64, "thread-local scratch persists across calls");
        assert_eq!(
            inner_len, 0,
            "reentrant borrow falls back to a fresh scratch"
        );
    }

    #[test]
    fn mode_selection_follows_subword_authority() {
        for bits in 1u32..=16 {
            let mode = mode_for_bits(bits);
            assert_eq!(
                mode,
                SubwordMode::for_precision(Precision::new(bits).unwrap())
            );
            assert!(mode.lane_bits() >= bits, "{bits} bits must fit {mode}");
        }
        assert_eq!(mode_for_bits(4), SubwordMode::X4);
        assert_eq!(mode_for_bits(8), SubwordMode::X2);
        assert_eq!(mode_for_bits(16), SubwordMode::X1);
    }

    #[test]
    fn activation_cache_quantizes_once_per_key_and_invalidates() {
        use crate::tensor::Tensor;
        let mut cache = ActivationCache::new(2);
        let t = Tensor::random(1, 3, 3, 5);
        let mut quantizations = 0;
        for (slot, bits) in [(0usize, 8u32), (0, 8), (1, 8), (0, 4), (1, 8)] {
            let q = cache.get_or_quantize(slot, bits, || {
                quantizations += 1;
                QuantizedTensor::quantize(&t, bits).expect("valid bits")
            });
            assert_eq!(q.bits, bits);
        }
        assert_eq!(quantizations, 3, "one quantization per distinct key");
        assert_eq!(cache.len(), 3);
        cache.invalidate();
        assert!(cache.is_empty());
        assert!(format!("{cache:?}").contains("ActivationCache"));
    }

    /// Parallel-path hits are lock-free `OnceLock` reads: eight workers
    /// hammering the same `(slot, bits)` keys must agree bit-for-bit with
    /// a serial fill (no result drift), and every hit after the first
    /// returns the same memoized allocation (no re-quantization).
    #[test]
    fn activation_cache_hits_are_lock_free_under_parallel_scan() {
        use crate::tensor::Tensor;
        use dvafs_executor::Executor;
        let samples: Vec<Tensor> = (0..6).map(|s| Tensor::random(1, 4, 4, s)).collect();
        let cache = ActivationCache::new(samples.len());
        // 8 workers × (sample × bits) grid, every key claimed many times.
        let work: Vec<(usize, u32)> = (0..samples.len())
            .flat_map(|s| (1u32..=16).map(move |b| (s, b)))
            .cycle()
            .take(6 * 16 * 4)
            .collect();
        let parallel = Executor::new(8).par_map_indexed(&work, |_, &(slot, bits)| {
            let q = cache.get_or_quantize(slot, bits, || {
                QuantizedTensor::quantize(&samples[slot], bits).expect("valid bits")
            });
            (q.data.clone(), q.scale.to_bits())
        });
        for (&(slot, bits), (data, scale)) in work.iter().zip(&parallel) {
            let oracle = QuantizedTensor::quantize(&samples[slot], bits).expect("valid bits");
            assert_eq!(data, &oracle.data, "slot {slot} bits {bits} drifted");
            assert_eq!(*scale, oracle.scale.to_bits());
        }
        assert_eq!(cache.len(), 6 * 16, "every key memoized exactly once");
    }

    #[test]
    #[should_panic(expected = "outside 1..=16")]
    fn activation_cache_rejects_invalid_bits() {
        let cache = ActivationCache::new(1);
        let _ = cache.get_or_quantize(0, 17, || unreachable!("validated first"));
    }

    #[test]
    fn cache_packs_once_per_width_and_invalidates() {
        let mut cache = WeightCache::default();
        let mut packs = 0;
        for bits in [8u32, 8, 4, 8] {
            let _ = cache.get_or_pack(bits, || {
                packs += 1;
                PackedWeights {
                    scale: 1.0,
                    zeros_per_tap: vec![],
                    zeros_total: 0,
                    panel: PackedPanel::default(),
                }
            });
        }
        assert_eq!(packs, 2, "one pack per distinct width");
        assert_eq!(cache.len(), 2);
        cache.invalidate();
        assert_eq!(cache.len(), 0);
        assert!(format!("{:?}", cache.clone()).contains("WeightCache"));
    }
}

//! Subword-packed integer GEMM for quantized MAC workloads.
//!
//! The DVAFS claim is that reduced-precision MAC *arrays* are cheap; this
//! module is the software mirror of that array: instead of issuing one
//! guarded multiply-accumulate at a time (the naive 7-deep convolution
//! loop), operands are packed into dense lane-word panels and consumed by
//! a tiled matrix-matrix product with exact 64-bit accumulation.
//!
//! Exactness is the load-bearing property: every product of two `i16`
//! operands fits `i32`, and the sums are folded into `i64` accumulators
//! (with the one pairwise-`i32` overflow corner corrected, below).
//! Integer addition is associative, so any tiling or unrolling order
//! yields bit-identical results to the scalar reference loop — which is
//! what lets `dvafs-nn` swap its naive layer loops for [`gemm_packed`]
//! without moving a single output, and what the `Naive == GemmPacked`
//! property tests assert.
//!
//! The layout convention is dot-product friendly: the left operand `A` is
//! `m x k` row-major and the right operand is handed over **already
//! transposed** (`Bᵗ`, `n x k` row-major — e.g. one im2col patch per row),
//! so every inner product walks two contiguous slices.
//!
//! ## Subword-packed panels
//!
//! [`PackedPanel`]/[`gemm_packed`] are the software edition of the paper's
//! Section II-C subword reconfiguration: when a panel's operands fit 8
//! (or 4) bits, each 16-bit lane word carries 2 (or 4) of them, following
//! **exactly** the field rules of `dvafs_arith::subword::pack_lanes`
//! (lane 0 at the LSBs, two's-complement fields of
//! [`SubwordMode::lane_bits`] each — the correspondence is pinned by
//! test). A panel packed with [`PackedPanel::pack`] also keeps, for an
//! `X2` or `X4` mode, each row's lane sum `Σw`, and for `X4` its lanes
//! one byte each: the weight side of the VNNI byte dot products below,
//! built once per weight panel instead of once per multiply.
//!
//! ## Tiers
//!
//! [`gemm_packed`] runs the fastest of three tiers the host has (a
//! run-time feature check: the workspace targets baseline x86-64). Every
//! tier computes the same exact sums, so the choice never moves an
//! output, and the unit tests run each tier the host has against the
//! scalar oracle and print which ran.
//!
//! * **AVX-512 VNNI** (`avx512bw` + `avx512vl` + `avx512vnni`): register
//!   tiles over zmm chunks, for all nine mode pairs.
//! * **AVX2**: `vpmaddwd` register tiles over 16-lane steps, for hosts
//!   without VNNI, and for a byte pair whose weight panel was filled in
//!   place (it carries no byte lanes).
//! * **Scalar**: the decode loop of [`dot_packed`], one output at a time,
//!   everywhere else; it is the oracle the tiles are tested against.
//!
//! Both tile tiers share one blocked sweep in the sense of Goto & van de
//! Geijn ("Anatomy of High-Performance Matrix Multiplication", TOMS 2008):
//! each `MR`-row micro-panel of the left operand sweeps a [`COL_TILE`]-row
//! block of the right one in `MR x NR` tiles, loading each lane vector of
//! a tile once per step (or chunk) and feeding it to every output it
//! meets. Ragged edges run the same tile at one row or one column (a
//! one-row panel times a one-row panel is its `1 x 1` case). The tile
//! shapes were chosen by measurement on a 2-vCPU Xeon with AVX-512 VNNI:
//! AVX2 4×2; VNNI 4×3 for `X1 x X1` and 4×4 for every other pair.
//!
//! ## Exactness
//!
//! Partials accumulate in `i32` lanes for a bounded number of steps or
//! chunks (the spill cadence) and are then widened into `i64`; each
//! cadence is derived from the largest magnitude one step or chunk can
//! add, so no partial can wrap. Integer addition is associative, so any
//! tiling or unrolling order yields the scalar loop's exact sums.
//!
//! * **AVX2.** Every 16-lane step forms pairwise `i32` sums of products
//!   (`vpmaddwd`), bounded by `2·2^(wa-1)·2^(wb-1)`, so narrow pairs run
//!   whole blocks before they widen (`spill_steps`). `X1 x X1` pair sums
//!   already need 32 bits and widen every step, and their one full-width
//!   corner — a step of `MIN·MIN + MIN·MIN = 2^31` — is corrected
//!   explicitly: panels record at pack time whether they contain
//!   `-2^(w-1)`, and only when *both* do does the tile count the
//!   overflowing cross-terms and add back `2^32` per occurrence.
//! * **VNNI byte pairs** (`x2x2`, `x2x4`, `x4x2`, `x4x4`, 64 lanes per
//!   chunk) run on `vpdpbusd`, which multiplies unsigned by signed bytes
//!   (the `u8`-bias scheme of Rodriguez et al., "Lower Numerical
//!   Precision Deep Learning Inference and Training", Intel 2018). The
//!   weights are the signed bytes: an `X2` row as stored, an `X4` row
//!   from its byte copy. The activations are biased to `u8` in the tile,
//!   `X2` bytes by `xor 0x80` (`+128`) and `X4` nibbles by `xor 0x88`
//!   (`+8` each) before they widen to bytes, so every output then
//!   subtracts the exact correction `β·Σw` (`β` = 128 or 8). A chunk adds
//!   at most `4·255·128` to an `i32` lane, so partials run 16,448 chunks.
//!   `vpdpbusd` does not saturate, so no `MIN·MIN` fix-up is needed.
//! * **VNNI 16-bit pairs** (32 lanes per chunk) run on `vpdpwssd`. The
//!   mixed pairs sign-extend the narrow side and keep the AVX2 cadences.
//!   `X1 x X1` splits each activation into a signed high byte and an
//!   unsigned low byte, `a·b = 256·(a·b_hi) + a·b_lo`: a pair sum of
//!   `a·b_hi` stays within `2^23` and one of `a·b_lo` below `2^24`, over
//!   the whole `i16` range, `i16::MIN` included, so the partials run 128
//!   chunks instead of widening every step.
//!
//! The VNNI tiles reduce their outputs four at a time. Up to the chunk
//! count over which all 16 lanes of a partial still sum within `i32`
//! (8 chunks, 256 lanes, for split `X1 x X1`; 15 chunks for `X1 x X2`;
//! more for the narrower pairs), the reduction runs in `i32` and only the
//! totals widen, which keeps the zmm tiles level with AVX2 at the
//! smallest `k` (one chunk) and ahead of it from two chunks on. No
//! step-count crossover between the tiers remains.
//!
//! The result is bit-identical to the plain `i16` reference GEMM of the
//! unit tests for every input `pack_lanes` accepts.

use dvafs_arith::SubwordMode;

/// Rows of `Bᵗ` per block of [`gemm_packed`]'s tile kernel: one block of
/// `COL_TILE x k` operands stays cache-resident while every row of `A`
/// streams against it.
pub const COL_TILE: usize = 32;

/// Logical lanes one packed dot step consumes (and the lane count panel
/// rows are zero-padded to): 16 lanes per step means one full 256-bit
/// vector of re-expanded `i16` operands on the AVX2 path, and one decode
/// buffer on the scalar path. Padding lanes are zero, so they never move
/// a sum.
pub const PACK_STEP_LANES: usize = 16;

/// A row-major operand panel packed at a [`SubwordMode`]'s lane geometry —
/// the DVAFS subword move applied to GEMM storage.
///
/// Each row holds `k` logical operands as 16-bit lane words following the
/// field rules of `dvafs_arith::subword::pack_lanes`: `mode.lanes()`
/// two's-complement fields of `mode.lane_bits()` each, lane 0 at the
/// LSBs. `X1` stores one operand per word (the plain `i16` layout bit
/// for bit), `X2` two, `X4` four. Rows are padded with zero lanes to a
/// multiple of [`PACK_STEP_LANES`], so two panels of equal `k` always
/// walk the same step count regardless of their (possibly different)
/// modes — which is how a 4-bit weight panel dots against a 16-bit
/// activation panel.
#[derive(Debug, Clone, Default)]
pub struct PackedPanel {
    mode: SubwordMode,
    rows: usize,
    k: usize,
    words_per_row: usize,
    /// Whether any lane holds the mode's most negative value `-2^(w-1)`.
    /// Only the `X1 x X1` kernel cares: a step of two `MIN x MIN`
    /// products is the single pair sum that overflows `i32`, and the
    /// explicit cross-term correction is engaged only when both operand
    /// panels can produce it.
    has_min: bool,
    /// The lane words, row-major. Only the first `rows * words_per_row`
    /// are panel content: [`begin_fill`](Self::begin_fill) never shrinks
    /// the buffer, so a fill after a larger one leaves a stale tail
    /// instead of paying a zeroing pass when the larger fill comes back.
    words: Vec<u16>,
    /// An `X4` panel's lanes one byte each (the field sign-extended to
    /// `i8`), rows padded like the words: the weight side of the VNNI
    /// tier's byte dot products. Built by [`repack`](Self::repack), so a
    /// weight panel pays the expansion once; empty for other modes and
    /// for filled panels.
    lane_bytes: Vec<u8>,
    /// Each row's lane sum `Σw`, for an `X2` or `X4` panel built by
    /// [`repack`](Self::repack): the VNNI byte dot products read the
    /// activations biased to `u8` and subtract `bias · Σw` per output.
    /// Empty for `X1` panels and for filled panels.
    row_sums: Vec<i64>,
}

/// Equality compares the packed content; the byte lanes and row sums are
/// derived from it, so a filled panel equals the packed one with the same
/// lanes.
impl PartialEq for PackedPanel {
    fn eq(&self, other: &Self) -> bool {
        self.mode == other.mode
            && self.rows == other.rows
            && self.k == other.k
            && self.words_per_row == other.words_per_row
            && self.has_min == other.has_min
            && self.words() == other.words()
    }
}

impl Eq for PackedPanel {}

impl PackedPanel {
    /// Packs `values` (`rows x k`, row-major) at `mode`'s lane geometry.
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != rows * k` or a value does not fit the
    /// mode's lane width as a signed two's-complement field (the
    /// `pack_lanes` range `-2^(w-1) ..= 2^(w-1)-1`).
    #[must_use]
    pub fn pack(values: &[i16], rows: usize, k: usize, mode: SubwordMode) -> Self {
        let mut panel = PackedPanel::default();
        panel.repack(values, rows, k, mode);
        panel
    }

    /// Re-packs this panel in place (same contract as
    /// [`pack`](Self::pack)), reusing the buffers' capacity.
    ///
    /// The word buffer is sized once and written in place, row by row:
    /// an `X1` row is one bulk copy of its full words plus a scan for
    /// `i16::MIN`, and an `X2`/`X4` row has its full words written
    /// straight into their slots after a range check of the row. Only the
    /// ragged last word of a row runs the lane-at-a-time field rule.
    pub fn repack(&mut self, values: &[i16], rows: usize, k: usize, mode: SubwordMode) {
        assert_eq!(values.len(), rows * k, "panel must be rows x k");
        let lanes = mode.lanes();
        let wbits = mode.lane_bits();
        let lo = -(1i32 << (wbits - 1));
        let hi = (1i32 << (wbits - 1)) - 1;
        let mask = (1u32 << wbits) - 1;
        let padded_k = k.next_multiple_of(PACK_STEP_LANES);
        let words_per_row = padded_k / lanes;
        self.mode = mode;
        self.rows = rows;
        self.k = k;
        self.words_per_row = words_per_row;
        self.words.clear();
        self.words.resize(rows * words_per_row, 0);
        self.lane_bytes.clear();
        self.row_sums.clear();
        if mode != SubwordMode::X1 {
            self.row_sums.reserve_exact(rows);
        }
        if mode == SubwordMode::X4 {
            self.lane_bytes.reserve_exact(rows * padded_k);
        }
        let fits = |row: &[i16]| {
            if let Some(&v) = row.iter().find(|&&v| !(lo..=hi).contains(&i32::from(v))) {
                panic!("operand {v} does not fit a {wbits}-bit lane");
            }
        };
        // The pack_lanes field rule: lane l of word w is row lane
        // `w*lanes + l`, stored at bits `l*wbits..`, masked to its
        // two's-complement field. Padding lanes are zero. An `X2`/`X4` row
        // is then summed, and an `X4` row copied to bytes, while it is
        // still in cache.
        let full_words = k / lanes;
        let mut has_min = false;
        let out_rows = self.words.chunks_exact_mut(words_per_row.max(1));
        for (row, out) in
            values
                .chunks_exact(k.max(1))
                .zip(out_rows)
                .take(if k == 0 { 0 } else { rows })
        {
            let (full, tail) = out.split_at_mut(full_words);
            let body = &row[..full_words * lanes];
            match mode {
                SubwordMode::X1 => {
                    has_min |= body.contains(&i16::MIN);
                    for (w, &v) in full.iter_mut().zip(body) {
                        *w = v as u16;
                    }
                }
                SubwordMode::X2 => {
                    fits(body);
                    has_min |= body.contains(&-128);
                    for (w, pair) in full.iter_mut().zip(body.chunks_exact(2)) {
                        *w = u16::from(pair[0] as u8) | (u16::from(pair[1] as u8) << 8);
                    }
                }
                SubwordMode::X4 => {
                    fits(body);
                    has_min |= body.contains(&-8);
                    for (w, quad) in full.iter_mut().zip(body.chunks_exact(4)) {
                        *w = (quad[0] as u16 & 0xF)
                            | ((quad[1] as u16 & 0xF) << 4)
                            | ((quad[2] as u16 & 0xF) << 8)
                            | ((quad[3] as u16 & 0xF) << 12);
                    }
                }
            }
            for (word_idx, word) in (full_words..).zip(tail.iter_mut()) {
                let mut packed = 0u32;
                for l in 0..lanes {
                    let idx = word_idx * lanes + l;
                    let v = if idx < k { i32::from(row[idx]) } else { 0 };
                    assert!(
                        (lo..=hi).contains(&v),
                        "operand {v} does not fit a {wbits}-bit lane"
                    );
                    has_min |= v == lo;
                    packed |= ((v as u32) & mask) << (l as u32 * wbits);
                }
                *word = packed as u16;
            }
            if mode != SubwordMode::X1 {
                // In `i32` per 2^16 lanes, exact for any `i16`: the
                // baseline x86-64 target widens `i16` to `i64` slowly.
                let chunk_sum = |c: &[i16]| i64::from(c.iter().map(|&v| i32::from(v)).sum::<i32>());
                self.row_sums.push(row.chunks(1 << 16).map(chunk_sum).sum());
            }
            if mode == SubwordMode::X4 {
                self.lane_bytes.extend(row.iter().map(|&v| v as u8));
                self.lane_bytes
                    .resize(self.lane_bytes.len() + padded_k - k, 0);
            }
        }
        if mode != SubwordMode::X1 && k == 0 {
            self.row_sums.resize(rows, 0);
        }
        self.has_min = has_min;
    }

    /// Whether the panel carries the byte lanes the VNNI tier's weight
    /// side reads: the row sums of an `X2` or `X4` panel and, for `X4`,
    /// its lanes one byte each. [`repack`](Self::repack) builds them;
    /// a filled panel has none.
    fn has_lane_bytes(&self) -> bool {
        match self.mode {
            SubwordMode::X1 => false,
            SubwordMode::X2 => self.row_sums.len() == self.rows,
            SubwordMode::X4 => {
                self.row_sums.len() == self.rows
                    && self.lane_bytes.len() == self.rows * self.k.next_multiple_of(PACK_STEP_LANES)
            }
        }
    }

    /// Heap bytes the panel holds: its lane words, byte lanes and row
    /// sums, as allocated.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u16>()
            + self.lane_bytes.capacity()
            + self.row_sums.capacity() * std::mem::size_of::<i64>()
    }

    /// Resets this panel to a `rows x k` geometry at `mode`, handing the
    /// caller the word buffer **as little-endian bytes** and the row
    /// stride in bytes (`k` padded to [`PACK_STEP_LANES`] lanes, divided
    /// by `mode.lanes()`, times 2) to fill in place. A producer that
    /// already walks its operands — an im2col pass, say — can pack them
    /// directly instead of staging an `i16` buffer for
    /// [`repack`](Self::repack) to re-read. In bytes the `pack_lanes`
    /// field rule is plain: an `X1` operand is a little-endian `i16` (two
    /// bytes), an `X2` operand one `i8` byte, and an `X4` operand one
    /// nibble, the even lane of each pair in the low nibble. So lane `t`
    /// of an `X2` row is byte `t`, and a run of lanes copies as a run of
    /// bytes.
    ///
    /// Contract: the buffer's contents on entry are **unspecified** (the
    /// previous fill's bytes), so the caller writes every byte of every
    /// row, padding lanes past `k` included (as zeros). Every value must
    /// fit the mode's lane range without being its most negative value
    /// `-2^(w-1)` (this path skips [`repack`](Self::repack)'s range
    /// assert and records no such lane — callers feed symmetric quantizer
    /// grids, which stop at `±(2^(w-1) - 1)`; operands that reach the
    /// minimum go through [`pack`](Self::pack)). Finish with
    /// [`finish_fill`](Self::finish_fill) — the panel is not a valid dot
    /// operand until then.
    pub fn begin_fill(&mut self, rows: usize, k: usize, mode: SubwordMode) -> (&mut [u8], usize) {
        let words_per_row = k.next_multiple_of(PACK_STEP_LANES) / mode.lanes();
        let need = rows * words_per_row;
        self.mode = mode;
        self.rows = rows;
        self.k = k;
        self.words_per_row = words_per_row;
        self.has_min = false;
        self.lane_bytes.clear();
        self.row_sums.clear();
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
        (
            words_as_bytes_mut(&mut self.words[..need]),
            2 * words_per_row,
        )
    }

    /// Completes a [`begin_fill`](Self::begin_fill) fill. On a big-endian
    /// host this is where the little-endian words the caller wrote become
    /// native ones.
    pub fn finish_fill(&mut self) {
        if cfg!(target_endian = "big") {
            let need = self.rows * self.words_per_row;
            for word in &mut self.words[..need] {
                *word = u16::from_le(*word);
            }
        }
    }

    /// The subword mode the panel is packed at.
    #[must_use]
    pub fn mode(&self) -> SubwordMode {
        self.mode
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical operands per row (excluding zero padding).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Lane words per row (including the zero padding to
    /// [`PACK_STEP_LANES`] lanes).
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed lane words of every row (`rows * words_per_row`,
    /// row-major; without the stale tail a direct fill may leave).
    fn words(&self) -> &[u16] {
        &self.words[..self.rows * self.words_per_row]
    }

    /// The packed lane words of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn row_words(&self, i: usize) -> &[u16] {
        &self.words()[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Re-expands row `i` into its `k` logical operands (test/debug
    /// helper; the dot kernels decode lanes on the fly).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn unpack_row(&self, i: usize) -> Vec<i16> {
        let words = self.row_words(i);
        let mut out = Vec::with_capacity(self.k);
        let mut buf = [0i16; PACK_STEP_LANES];
        for step in 0..self.words_per_row * self.mode.lanes() / PACK_STEP_LANES {
            decode_step(words, step, self.mode, &mut buf);
            out.extend_from_slice(&buf);
        }
        out.truncate(self.k);
        out
    }

    /// Dot steps per row (each step consumes [`PACK_STEP_LANES`] lanes).
    fn steps(&self) -> usize {
        self.k.div_ceil(PACK_STEP_LANES)
    }
}

/// The memory of `words` as bytes, in address order (the view
/// [`PackedPanel::begin_fill`] hands out).
#[allow(unsafe_code)]
fn words_as_bytes_mut(words: &mut [u16]) -> &mut [u8] {
    // SAFETY: the byte slice covers exactly the `2 * words.len()` bytes of
    // `words` and holds its unique borrow for as long as it lives; `u8`
    // has alignment 1, and every bit pattern is a valid `u8` and a valid
    // `u16`, so writes through either view are sound.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), 2 * words.len()) }
}

/// Decodes step `step` (16 lanes) of a packed row into `i16` operands —
/// the scalar mirror of the AVX2 lane expanders, and the inverse of the
/// `pack_lanes` field rule.
#[inline]
fn decode_step(words: &[u16], step: usize, mode: SubwordMode, out: &mut [i16; PACK_STEP_LANES]) {
    match mode {
        SubwordMode::X1 => {
            for (o, &w) in out.iter_mut().zip(&words[step * 16..step * 16 + 16]) {
                *o = w as i16;
            }
        }
        SubwordMode::X2 => {
            for (i, &w) in words[step * 8..step * 8 + 8].iter().enumerate() {
                out[2 * i] = i16::from(w as u8 as i8);
                out[2 * i + 1] = i16::from((w >> 8) as u8 as i8);
            }
        }
        SubwordMode::X4 => {
            for (i, &w) in words[step * 4..step * 4 + 4].iter().enumerate() {
                for l in 0..4 {
                    let nib = ((w >> (4 * l)) & 0xF) as i16;
                    // Sign-extend the 4-bit field: 0..=7 stay, 8..=15 wrap
                    // to -8..=-1.
                    out[4 * i + l] = (nib ^ 8) - 8;
                }
            }
        }
    }
}

/// Exact dot product of row `ai` of `a` with row `bi` of `b` over the
/// re-expanded lanes. This is the portable scalar decode loop: 16 lanes per side per
/// step, every product widened to `i64`, exact for the full `pack_lanes`
/// range. [`gemm_packed`] runs it per output on hosts without AVX2, and
/// its tile kernel is tested against it.
///
/// # Panics
///
/// Panics when the panels disagree on `k` or a row index is out of range.
#[must_use]
pub fn dot_packed(a: &PackedPanel, ai: usize, b: &PackedPanel, bi: usize) -> i64 {
    assert_eq!(a.k(), b.k(), "dot operands must have equal logical length");
    let (ra, rb) = (a.row_words(ai), b.row_words(bi));
    let mut acc = 0i64;
    let mut ba = [0i16; PACK_STEP_LANES];
    let mut bb = [0i16; PACK_STEP_LANES];
    for s in 0..a.steps() {
        decode_step(ra, s, a.mode, &mut ba);
        decode_step(rb, s, b.mode, &mut bb);
        for (&x, &y) in ba.iter().zip(&bb) {
            acc += i64::from(x) * i64::from(y);
        }
    }
    acc
}

/// The scalar oracle of [`gemm_packed`]: one [`dot_packed`] per output
/// element, in the same [`COL_TILE`] order. Also the whole multiply on
/// hosts without AVX2.
fn gemm_packed_scalar(a: &PackedPanel, bt: &PackedPanel, out: &mut [i64]) {
    let n = bt.rows();
    for j0 in (0..n).step_by(COL_TILE) {
        let j1 = (j0 + COL_TILE).min(n);
        for i in 0..a.rows() {
            for j in j0..j1 {
                out[i * n + j] = dot_packed(a, i, bt, j);
            }
        }
    }
}

/// Steps the `i32` pair-sum partials of an `A x B` `vpmaddwd` (AVX2) or
/// `vpdpwssd` (VNNI, one pair sum per lane and chunk) tile may run before
/// they are widened into `i64`. A pair sum is bounded by
/// `2 * 2^(wa-1) * 2^(wb-1) = 2^(wa+wb-1)`, so `2^(30-(wa+wb-1))` steps
/// keep a partial under `2^30`, capped at 32768: `X1 x X2` 128, `X1 x X4`
/// 2048, the narrower pairs 32768. `X1 x X1` pair sums may already need
/// all 32 bits, so the AVX2 tile widens them every step.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const fn spill_steps(wa: u32, wb: u32) -> usize {
    let pair_log2 = wa + wb - 1;
    if pair_log2 >= 30 {
        1
    } else if 30 - pair_log2 >= 15 {
        32768
    } else {
        1 << (30 - pair_log2)
    }
}

/// The most chunks an `i32` partial can take when each chunk moves it by
/// at most `per_chunk`: the largest count whose worst case stays within
/// `i32`, in either sign.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const fn spill_bound(per_chunk: u64) -> usize {
    (i32::MAX as u64 / per_chunk) as usize
}

/// Chunks a `vpdpbusd` byte-lane partial runs before it widens: each
/// chunk adds 4 products of a biased activation byte (at most 255) and a
/// weight byte (at least -128) to every `i32` lane, at most
/// `4·255·128 = 130,560` in magnitude, so 16,448 chunks (1,052,672
/// lanes).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const BYTE_SPILL_CHUNKS: usize = spill_bound(4 * 255 * 128);

/// Chunks a split `X1 x X1` partial runs before it widens: each chunk
/// adds one pair of `i16 x u8` products, `2·32768·255 < 2^24`, to every
/// low-byte lane (the signed high-byte lanes stay within `2^23`), so 128
/// chunks (4,096 lanes).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const SPLIT_SPILL_CHUNKS: usize = spill_bound(2 * 32768 * 255);

/// One tier's register tile on one mode pair: the exact dots of rows
/// `i0..i0 + R` of the left panel with rows `j0..j0 + C` of the right
/// one. Implementations check that range before they read.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
trait Tile {
    fn tile<const R: usize, const C: usize>(&self, i0: usize, j0: usize) -> [[i64; C]; R];
}

/// The blocked sweep every tier runs (Goto & van de Geijn, TOMS 2008):
/// for each [`COL_TILE`] block of the `n` right-hand rows, every `MR`-row
/// micro-panel of the `m` left-hand rows sweeps the block in `MR x NR`
/// tiles. Ragged edges run the same tile at one row or one column, and
/// each tile is written into `out` (`m x n`) through bounds-checked
/// slices. Inlined into each tier's feature-enabled entry, so its tiles
/// inline too.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline(always)]
fn sweep<T: Tile, const MR: usize, const NR: usize>(t: &T, m: usize, n: usize, out: &mut [i64]) {
    fn store<const R: usize, const C: usize>(
        out: &mut [i64],
        n: usize,
        i0: usize,
        j0: usize,
        tile: &[[i64; C]; R],
    ) {
        for (r, row) in tile.iter().enumerate() {
            out[(i0 + r) * n + j0..][..C].copy_from_slice(row);
        }
    }
    for j0 in (0..n).step_by(COL_TILE) {
        let j1 = (j0 + COL_TILE).min(n);
        let mut i0 = 0;
        while i0 < m {
            let full_rows = m - i0 >= MR;
            let mut j = j0;
            while j < j1 {
                let full_cols = j1 - j >= NR;
                match (full_rows, full_cols) {
                    (true, true) => store(out, n, i0, j, &t.tile::<MR, NR>(i0, j)),
                    (true, false) => store(out, n, i0, j, &t.tile::<MR, 1>(i0, j)),
                    (false, true) => store(out, n, i0, j, &t.tile::<1, NR>(i0, j)),
                    (false, false) => store(out, n, i0, j, &t.tile::<1, 1>(i0, j)),
                }
                j += if full_cols { NR } else { 1 };
            }
            i0 += if full_rows { MR } else { 1 };
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod vnni;

/// The implementations of [`gemm_packed`]. Each computes the same exact
/// sums; [`gemm_packed`] runs the fastest one the host has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// The scalar decode loop of [`dot_packed`], per output: every host.
    Scalar,
    /// `vpmaddwd` tiles over 16-lane steps (x86-64 with AVX2).
    Avx2,
    /// `vpdpbusd`/`vpdpwssd` tiles over zmm chunks (x86-64 with
    /// AVX-512BW, AVX-512VL and AVX-512 VNNI).
    Vnni,
}

impl Tier {
    /// Every tier, the oracle first.
    #[cfg(test)]
    const ALL: [Tier; 3] = [Tier::Scalar, Tier::Avx2, Tier::Vnni];

    /// Whether the host has this tier.
    #[cfg(test)]
    fn available(self) -> bool {
        match self {
            Tier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Vnni => vnni::detected(),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 | Tier::Vnni => false,
        }
    }

    /// The tier's name in test logs.
    #[cfg(test)]
    fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Vnni => "avx512-vnni",
        }
    }

    /// The multiply on this tier, or `false` (nothing written) when the
    /// host lacks it, or when the VNNI tier's byte lanes are missing from
    /// a left panel that was filled in place.
    fn gemm(self, a: &PackedPanel, bt: &PackedPanel, out: &mut [i64]) -> bool {
        match self {
            Tier::Scalar => {
                gemm_packed_scalar(a, bt, out);
                true
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => avx2::gemm(a, bt, out),
            #[cfg(target_arch = "x86_64")]
            Tier::Vnni => vnni::gemm(a, bt, out),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 | Tier::Vnni => false,
        }
    }
}

/// Subword-packed GEMM: `out[i][j] = Σ_t a[i][t] * bt[j][t]`, exact in
/// `i64`: `a` is `m x k` (e.g. one quantized filter per row), `bt` the
/// **transposed** right operand, `n x k` (e.g. one im2col patch per
/// row), and `out` is `m x n` row-major, fully overwritten.
///
/// The multiply runs on the fastest tier the host has (see the module
/// docs): register tiles on AVX-512 VNNI or AVX2, where each `MR`-row
/// micro-panel of `a` sweeps a [`COL_TILE`]-row block of `bt` in
/// `MR x NR` tiles, so every weight and activation lane vector is loaded
/// once per tile and chunk and feeds several outputs, and each output is
/// reduced horizontally once. Edges run the same tile at one row or one
/// column. Elsewhere the scalar decode loop of [`dot_packed`] computes
/// the same exact sums, one output at a time; it is also the oracle the
/// tiles are tested against.
///
/// The operand panels may use different [`SubwordMode`]s — a reduced-
/// precision weight panel (2 or 4 operands per lane word) streams against
/// a full-precision activation panel, which is exactly the asymmetric
/// shape the fig6 precision scans produce.
///
/// This is also the **wide-panel batch entry**: rows of `bt` are just
/// independent dot operands, so a caller can concatenate many samples'
/// im2col panels into one `(B·n) x k` right operand and slice the
/// `m x (B·n)` output back apart per sample — every output element is
/// the same exact dot either way, so a fused multi-sample multiply is
/// bit-identical to `B` separate ones while streaming the left (weight)
/// panel through cache once per batch instead of once per sample
/// (`dvafs-nn`'s batch forward is built on exactly this; the
/// concatenation-equivalence test below pins it).
///
/// # Panics
///
/// Panics when the panels disagree on `k` or `out.len()` is not
/// `a.rows() * bt.rows()`.
pub fn gemm_packed(a: &PackedPanel, bt: &PackedPanel, out: &mut [i64]) {
    assert_eq!(a.k(), bt.k(), "panels must agree on k");
    assert_eq!(out.len(), a.rows() * bt.rows(), "out must be m x n");
    if a.k() == 0 {
        out.fill(0);
        return;
    }
    for tier in [Tier::Vnni, Tier::Avx2, Tier::Scalar] {
        if tier.gemm(a, bt, out) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvafs_arith::subword::pack_lanes;
    use rand::{Rng, SeedableRng};

    /// Plain `i16` GEMM, `out[i][j] = Σ_t a[i][t] * bt[j][t]` with every
    /// product widened to `i64` before it is summed: the reference every
    /// tier is checked against (`a` is `m x k`, `bt` the transposed right
    /// operand, `n x k`, both row-major).
    fn naive_gemm(a: &[i16], bt: &[i16], m: usize, k: usize, n: usize) -> Vec<i64> {
        let mut out = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for t in 0..k {
                    acc += i64::from(a[i * k + t]) * i64::from(bt[j * k + t]);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Random values spanning the full two's-complement lane range of a
    /// mode (MIN included — the packed kernels must stay exact there).
    fn random_lanes(len: usize, mode: SubwordMode, seed: u64) -> Vec<i16> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w = mode.lane_bits();
        let lo = -(1i32 << (w - 1));
        let hi = (1i32 << (w - 1)) - 1;
        (0..len).map(|_| rng.gen_range(lo..=hi) as i16).collect()
    }

    /// The panel's word stream follows the `pack_lanes` field rules
    /// verbatim: word `w` of a row is `pack_lanes` of row lanes
    /// `w*lanes..`, zero-padded past `k` — for every mode, at `k` on and
    /// around the 16-lane step (0, 1, 15, 16, 17, 21, 864) and up to 96
    /// rows, with each mode's lane extremes in play. `has_min` is set
    /// exactly when a lane holds the mode's most negative value, an
    /// `X2`/`X4` panel keeps each row's lane sum, and an `X4` panel its
    /// lanes one byte each (zero-padded like the words); a fresh panel's
    /// `heap_bytes` is its words, byte lanes and row sums as sized here.
    #[test]
    fn packed_panel_words_match_pack_lanes() {
        for mode in SubwordMode::ALL {
            let w = mode.lane_bits();
            let (lo, hi) = (-(1i32 << (w - 1)) as i16, ((1i32 << (w - 1)) - 1) as i16);
            for k in [0usize, 1, 15, 16, 17, 21, 864] {
                for rows in [1usize, 3, 96] {
                    let seed = k as u64 * 131 + rows as u64;
                    let mut values = random_lanes(rows * k, mode, seed);
                    // Lane extremes, and a panel without its minimum.
                    for (i, v) in values.iter_mut().enumerate() {
                        match i % 7 {
                            0 => *v = hi,
                            3 if seed.is_multiple_of(2) => *v = lo,
                            _ if seed % 2 == 1 => *v = (*v).max(lo + 1),
                            _ => {}
                        }
                    }
                    let panel = PackedPanel::pack(&values, rows, k, mode);
                    let what = format!("mode {mode} rows {rows} k {k}");
                    let lanes = mode.lanes();
                    for r in 0..rows {
                        let row = &values[r * k..(r + 1) * k];
                        for (wi, &word) in panel.row_words(r).iter().enumerate() {
                            let fields: Vec<i32> = (0..lanes)
                                .map(|l| row.get(wi * lanes + l).map_or(0, |&v| i32::from(v)))
                                .collect();
                            let expected = pack_lanes(&fields, mode).expect("lanes are in range");
                            assert_eq!(word, expected, "{what} row {r} word {wi}");
                        }
                        // And the re-expansion inverts the packing.
                        assert_eq!(panel.unpack_row(r), row, "{what} row {r}");
                    }
                    assert_eq!(panel.has_min, values.contains(&lo), "{what}");
                    let padded_k = k.next_multiple_of(PACK_STEP_LANES);
                    let sums: Vec<i64> = values
                        .chunks(k.max(1))
                        .take(if k == 0 { 0 } else { rows })
                        .map(|row| row.iter().map(|&v| i64::from(v)).sum())
                        .chain(std::iter::repeat(0))
                        .take(rows)
                        .collect();
                    let mut bytes = Vec::new();
                    for row in values.chunks(k.max(1)).take(if k == 0 { 0 } else { rows }) {
                        bytes.extend(row.iter().map(|&v| v as u8));
                        bytes.resize(bytes.len() + padded_k - k, 0);
                    }
                    let words = rows * (padded_k / lanes);
                    match mode {
                        SubwordMode::X1 => {
                            assert!(panel.row_sums.is_empty() && panel.lane_bytes.is_empty());
                            assert_eq!(
                                panel.heap_bytes(),
                                2 * words.max(if words > 0 { 4 } else { 0 })
                            );
                        }
                        SubwordMode::X2 => {
                            assert_eq!(panel.row_sums, sums, "{what}");
                            assert!(panel.lane_bytes.is_empty(), "{what}");
                            assert_eq!(
                                panel.heap_bytes(),
                                2 * words.max(if words > 0 { 4 } else { 0 }) + 8 * rows
                            );
                        }
                        SubwordMode::X4 => {
                            assert_eq!(panel.row_sums, sums, "{what}");
                            assert_eq!(panel.lane_bytes, bytes, "{what}");
                        }
                    }
                }
            }
        }
    }

    /// Runs `check` on every tier the host has, each called explicitly,
    /// and prints which tiers ran and which are absent (so a log from a
    /// host without AVX-512 VNNI says so instead of passing silently).
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
        println!("gemm tiers: {}", log.join(", "));
    }

    /// `a x bt` on `tier`, which the host has; both panels were packed.
    fn gemm_on(tier: Tier, a: &PackedPanel, bt: &PackedPanel) -> Vec<i64> {
        let mut out = vec![i64::MIN; a.rows() * bt.rows()]; // poisoned
        assert!(tier.gemm(a, bt, &mut out), "{} declined", tier.name());
        out
    }

    /// Packed dots — the scalar [`dot_packed`] and the `1 x 1` multiply
    /// on every tier — are bit-identical to `naive_gemm` on the
    /// re-expanded lanes, for every mode pair (including mixed
    /// precision) and ragged lengths, with the full lane range (MIN
    /// included) in play.
    #[test]
    fn dot_packed_matches_dot_i16_for_every_mode_pair() {
        on_every_tier(|tier| {
            for (i, &ma) in SubwordMode::ALL.iter().enumerate() {
                for (j, &mb) in SubwordMode::ALL.iter().enumerate() {
                    for k in [0usize, 1, 7, 16, 31, 150, 2049] {
                        let seed = (i * 3 + j) as u64 * 1000 + k as u64;
                        let a = random_lanes(k, ma, seed);
                        let b = random_lanes(k, mb, seed ^ 0xDEAD);
                        let pa = PackedPanel::pack(&a, 1, k, ma);
                        let pb = PackedPanel::pack(&b, 1, k, mb);
                        let want = naive_gemm(&a, &b, 1, k, 1)[0];
                        assert_eq!(dot_packed(&pa, 0, &pb, 0), want, "modes {ma}x{mb} k={k}");
                        assert_eq!(
                            gemm_on(tier, &pa, &pb),
                            [want],
                            "{} modes {ma}x{mb} k={k}",
                            tier.name()
                        );
                    }
                }
            }
        });
    }

    /// The `X1 x X1` cross-term corner: whole rows of `MIN x MIN` force
    /// every `vpmaddwd` pair sum to `+2^31` (which wraps uncorrected),
    /// and put the split `vpdpwssd` tile's high-byte partials at their
    /// bound. Every tier and the scalar oracle must return the exact sum
    /// for any length.
    #[test]
    fn packed_x1_min_times_min_is_corrected() {
        on_every_tier(|tier| {
            for k in [1usize, 8, 16, 17, 160, 2048] {
                let a = vec![i16::MIN; k];
                let pa = PackedPanel::pack(&a, 1, k, SubwordMode::X1);
                assert!(pa.has_min);
                let t = tier.name();
                assert_eq!(
                    gemm_on(tier, &pa, &pa),
                    [k as i64 * (1i64 << 30)],
                    "{t} k={k}"
                );
                assert_eq!(dot_packed(&pa, 0, &pa, 0), k as i64 * (1i64 << 30), "k={k}");
                // Mixed MIN/MAX rows exercise partially-overflowing steps.
                let b: Vec<i16> = (0..k)
                    .map(|t| if t % 3 == 0 { i16::MIN } else { i16::MAX })
                    .collect();
                let pb = PackedPanel::pack(&b, 1, k, SubwordMode::X1);
                assert_eq!(
                    gemm_on(tier, &pa, &pb),
                    naive_gemm(&a, &b, 1, k, 1),
                    "{t} mixed k={k}"
                );
                assert_eq!(
                    gemm_on(tier, &pb, &pb),
                    naive_gemm(&b, &b, 1, k, 1),
                    "{t} self k={k}"
                );
            }
        });
    }

    /// Every tier computes the same exact sums as the scalar decode loop,
    /// and so does the dispatched [`gemm_packed`].
    #[test]
    fn scalar_fallback_agrees_with_dispatch() {
        on_every_tier(|tier| {
            for &ma in &SubwordMode::ALL {
                for &mb in &SubwordMode::ALL {
                    for k in [5usize, 64, 333] {
                        let a = random_lanes(k, ma, 7 + k as u64);
                        let b = random_lanes(k, mb, 77 + k as u64);
                        let pa = PackedPanel::pack(&a, 1, k, ma);
                        let pb = PackedPanel::pack(&b, 1, k, mb);
                        let want = dot_packed(&pa, 0, &pb, 0);
                        let t = tier.name();
                        assert_eq!(gemm_on(tier, &pa, &pb), [want], "{t} {ma}x{mb} k={k}");
                        let mut dispatched = [i64::MIN];
                        gemm_packed(&pa, &pb, &mut dispatched);
                        assert_eq!(dispatched, [want], "dispatch {ma}x{mb} k={k}");
                    }
                }
            }
        });
    }

    /// Every tier stays exact across its `i32` spill boundaries with the
    /// extreme operands: for each mode pair, weights at the mode's most
    /// negative value (`-128` for `X2`, `i16::MIN` for `X1`) against
    /// activations at the largest and at the most negative value. The
    /// longest `k` crosses the longest cadence, the VNNI byte lanes'
    /// 16,448 chunks of 64 lanes, by one chunk and a ragged tail step, so
    /// it crosses every shorter boundary too (the split `X1 x X1` tile's
    /// 128 chunks of 32 lanes, the `vpmaddwd` tiles' 32,768 steps of 16).
    /// The shorter ones sit at each VNNI pair's last chunk count whose
    /// `i32` reduction tree is exact, and one chunk past it: 8 chunks of
    /// 32 lanes (split `X1 x X1`), 15 (`X1 x X2`), 255 (`X1 x X4`) and
    /// 1,028 chunks of 64 lanes (the byte pairs).
    #[test]
    fn spill_boundaries_hold_with_extreme_operands() {
        let mut ks: Vec<usize> = [(8, 32), (15, 32), (255, 32), (1028, 64)]
            .into_iter()
            .flat_map(|(chunks, lanes)| [chunks * lanes, (chunks + 1) * lanes])
            .collect();
        ks.push((BYTE_SPILL_CHUNKS + 1) * 64 + PACK_STEP_LANES);
        let lo = |mode: SubwordMode| -(1i64 << (mode.lane_bits() - 1));
        on_every_tier(|tier| {
            for &k in &ks {
                for &ma in &SubwordMode::ALL {
                    let w = lo(ma);
                    let pa = PackedPanel::pack(&vec![w as i16; k], 1, k, ma);
                    for &mb in &SubwordMode::ALL {
                        for x in [-lo(mb) - 1, lo(mb)] {
                            let pb = PackedPanel::pack(&vec![x as i16; k], 1, k, mb);
                            let want = k as i64 * w * x;
                            let t = tier.name();
                            assert_eq!(
                                gemm_on(tier, &pa, &pb),
                                [want],
                                "{t} k={k} {ma}x{mb} {w}*{x}"
                            );
                        }
                    }
                }
            }
        });
    }

    /// A random `rows x k` panel of `mode` lanes that holds the mode's most
    /// negative value exactly when `with_min` is set: then in the first
    /// two lanes of every row, so two such `X1` panels wrap a `vpmaddwd`
    /// pair sum in every output and the `MIN x MIN` correction is engaged.
    fn lanes_with_min(
        rows: usize,
        k: usize,
        mode: SubwordMode,
        seed: u64,
        with_min: bool,
    ) -> Vec<i16> {
        let min = (-(1i32 << (mode.lane_bits() - 1))) as i16;
        let mut v: Vec<i16> = random_lanes(rows * k, mode, seed)
            .into_iter()
            .map(|x| if x == min { min + 1 } else { x })
            .collect();
        if with_min {
            for row in v.chunks_exact_mut(k.max(1)) {
                for x in row.iter_mut().take(2) {
                    *x = min;
                }
            }
        }
        v
    }

    /// Every tier is bit-identical to the naive `i64` reference for
    /// every mode pair across the tile edges — every `m` up to `2·8+1`
    /// and `n` up to `2·4+1` (whole tiles of every tier's shape plus each
    /// ragged remainder), `k` around the 16-lane step and the 32- and
    /// 64-lane chunks, shapes past a [`COL_TILE`] block and with a long
    /// `k`, and `has_min` on neither, one or both panels — and at the
    /// `X1 x X2` / `X1 x X4` `i32` spill boundaries ±1 step, with
    /// worst-magnitude operands. So is the dispatched [`gemm_packed`].
    /// The NN kernel equivalence net rests on this.
    #[test]
    fn gemm_packed_matches_gemm_i16_across_shapes_and_modes() {
        let mut tiers = Vec::new();
        on_every_tier(|tier| tiers.push(tier));
        let check = |a: &[i16], bt: &[i16], (m, k, n): (usize, usize, usize), ma, mb| {
            let pa = PackedPanel::pack(a, m, k, ma);
            let pbt = PackedPanel::pack(bt, n, k, mb);
            let want = naive_gemm(a, bt, m, k, n);
            for &tier in &tiers {
                assert_eq!(
                    gemm_on(tier, &pa, &pbt),
                    want,
                    "{} m={m} k={k} n={n} {ma}x{mb} min={}/{}",
                    tier.name(),
                    pa.has_min,
                    pbt.has_min
                );
            }
            let mut out = vec![i64::MIN; m * n]; // poisoned: must be overwritten
            gemm_packed(&pa, &pbt, &mut out);
            assert_eq!(out, want, "dispatch m={m} k={k} n={n} {ma}x{mb}");
        };
        let mut shapes = Vec::new();
        for m in 1..=2 * 8 + 1 {
            for n in 1..=2 * 4 + 1 {
                for k in [0usize, 1, 15, 16, 17, 33, 64, 65, 129] {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes.extend([
            (8, 25, 33),  // n spills one past a COL_TILE block
            (4, 9, 32),   // n exactly one block
            (2, 150, 70), // two block boundaries, k longer than any unroll
        ]);
        for &ma in &SubwordMode::ALL {
            for &mb in &SubwordMode::ALL {
                for &(m, k, n) in &shapes {
                    for mins in 0..4u64 {
                        let seed = ((m * 128 + n) * 256 + k) as u64 * 4 + mins;
                        let a = lanes_with_min(m, k, ma, seed, mins & 1 != 0);
                        let bt = lanes_with_min(n, k, mb, seed ^ 0xB7, mins & 2 != 0);
                        check(&a, &bt, (m, k, n), ma, mb);
                    }
                }
            }
        }
        // The spill boundaries: 128 (X1 x X2) and 2048 (X1 x X4) pair sums
        // of MIN x MIN products push every i32 partial to exactly 2^30:
        // that many steps on the AVX2 tier, twice as many on the VNNI one
        // (a 32-lane chunk is two steps).
        for (wide, narrow, spill) in [
            (SubwordMode::X1, SubwordMode::X2, 128usize),
            (SubwordMode::X1, SubwordMode::X4, 2048),
        ] {
            for steps in [spill - 1, spill, spill + 1, 2 * spill - 1, 2 * spill + 1] {
                let k = steps * PACK_STEP_LANES;
                let (m, n) = (5, 3);
                let lo = |mode: SubwordMode| (-(1i32 << (mode.lane_bits() - 1))) as i16;
                for extreme in [true, false] {
                    let a = if extreme {
                        vec![lo(wide); m * k]
                    } else {
                        random_lanes(m * k, wide, 5)
                    };
                    let bt = if extreme {
                        vec![lo(narrow); n * k]
                    } else {
                        random_lanes(n * k, narrow, 6)
                    };
                    check(&a, &bt, (m, k, n), wide, narrow);
                    check(&bt, &a, (n, k, m), narrow, wide);
                }
            }
        }
    }

    /// The wide-panel batch entry: one fused multiply over `B` samples'
    /// concatenated right-hand panels is bit-identical, slice by slice,
    /// to `B` separate per-sample multiplies and to the plain reference,
    /// across mode pairs and a non-multiple-of-tile total width. This is
    /// the property `dvafs-nn`'s batch forward stands on.
    #[test]
    fn concatenated_wide_panel_matches_per_sample_gemms() {
        let (m, k, n, batches) = (5usize, 23usize, 13usize, 3usize);
        for &ma in &SubwordMode::ALL {
            for &mb in &SubwordMode::ALL {
                let a = random_lanes(m * k, ma, 11);
                let pa = PackedPanel::pack(&a, m, k, ma);
                let samples: Vec<Vec<i16>> = (0..batches)
                    .map(|s| random_lanes(n * k, mb, 110 + s as u64))
                    .collect();
                let wide: Vec<i16> = samples.concat();
                let total = batches * n;
                // Fused: one (B·n) x k right operand, one m x (B·n) output.
                let pwide = PackedPanel::pack(&wide, total, k, mb);
                let mut fused_packed = vec![i64::MIN; m * total];
                gemm_packed(&pa, &pwide, &mut fused_packed);
                let fused_plain = naive_gemm(&a, &wide, m, k, total);
                // Per sample: B separate m x n multiplies.
                for (s, bt) in samples.iter().enumerate() {
                    let pbt = PackedPanel::pack(bt, n, k, mb);
                    let mut solo = vec![i64::MIN; m * n];
                    gemm_packed(&pa, &pbt, &mut solo);
                    for i in 0..m {
                        let fused_row = &fused_packed[i * total + s * n..][..n];
                        let plain_row = &fused_plain[i * total + s * n..][..n];
                        let solo_row = &solo[i * n..][..n];
                        assert_eq!(fused_row, solo_row, "{ma}x{mb} sample {s} row {i}");
                        assert_eq!(plain_row, solo_row, "{ma}x{mb} naive_gemm sample {s}");
                    }
                }
            }
        }
    }

    /// `begin_fill` + caller stores + `finish_fill` must build a panel
    /// indistinguishable from `pack` — words, geometry and the `has_min`
    /// flag — including a ragged `k`, on values that stop one above the
    /// mode's most negative lane value, as a fill's contract asks.
    /// `begin_fill` hands back the previous panel's bytes, so the caller
    /// writes every word of every row (as its little-endian bytes), zero
    /// padding lanes and words included: the buffer is dirtied first (by
    /// a larger pack of most-negative lanes, which leaves a stale tail and
    /// sets `has_min`) so a missed word or a kept flag would show.
    #[test]
    fn direct_fill_matches_pack() {
        for mode in [SubwordMode::X1, SubwordMode::X2, SubwordMode::X4] {
            let min = (-(1i32 << (mode.lane_bits() - 1))) as i16;
            for &(rows, k) in &[(3usize, 23usize), (4, 16), (2, 1)] {
                let values: Vec<i16> = random_lanes(rows * k, mode, 42 + k as u64)
                    .into_iter()
                    .map(|v| v.max(min + 1))
                    .collect();
                let reference = PackedPanel::pack(&values, rows, k, mode);
                let (big_rows, big_k) = (rows + 3, k + 40);
                let mut direct =
                    PackedPanel::pack(&vec![min; big_rows * big_k], big_rows, big_k, mode);
                let (bytes, stride) = direct.begin_fill(rows, k, mode);
                let lanes = mode.lanes();
                let wbits = mode.lane_bits();
                let mask = ((1u32 << wbits) - 1) as u16;
                for (r, row) in values.chunks_exact(k).enumerate() {
                    let row_bytes = &mut bytes[r * stride..(r + 1) * stride];
                    for (w, pair) in row_bytes.chunks_exact_mut(2).enumerate() {
                        let mut word = 0u16;
                        for l in 0..lanes {
                            let v = row.get(w * lanes + l).copied().unwrap_or(0);
                            word |= ((v as u16) & mask) << (l as u16 * wbits as u16);
                        }
                        pair.copy_from_slice(&word.to_le_bytes());
                    }
                }
                direct.finish_fill();
                assert_eq!(direct, reference, "mode={mode:?} rows={rows} k={k}");
                // A filled panel carries no byte lanes, so as a weight
                // panel its byte pairs run on the AVX2 tier.
                assert!(!direct.has_lane_bytes());
                assert_eq!(reference.has_lane_bytes(), mode != SubwordMode::X1);
                // And it dots identically (exercises the padded tail lanes).
                let other =
                    PackedPanel::pack(&random_lanes(k, SubwordMode::X2, 7), 1, k, SubwordMode::X2);
                let mut got = vec![0i64; rows];
                let mut want = vec![0i64; rows];
                gemm_packed(&direct, &other, &mut got);
                gemm_packed(&reference, &other, &mut want);
                assert_eq!(got, want);
                for r in 0..rows {
                    assert_eq!(
                        dot_packed(&direct, r, &other, 0),
                        dot_packed(&reference, r, &other, 0)
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_packed_zero_k_clears_output() {
        let a = PackedPanel::pack(&[], 2, 0, SubwordMode::X2);
        let bt = PackedPanel::pack(&[], 3, 0, SubwordMode::X1);
        let mut out = vec![5i64; 6];
        gemm_packed(&a, &bt, &mut out);
        assert_eq!(out, vec![0i64; 6]);
    }

    #[test]
    fn repack_reuses_buffers_and_resets_state() {
        let mut panel = PackedPanel::pack(&[i16::MIN; 8], 1, 8, SubwordMode::X1);
        assert!(panel.has_min);
        panel.repack(&[1i16, -2, 3], 1, 3, SubwordMode::X4);
        assert_eq!(panel.mode(), SubwordMode::X4);
        assert_eq!(panel.k(), 3);
        assert!(!panel.has_min, "has_min must reset on repack");
        assert_eq!(panel.unpack_row(0), vec![1i16, -2, 3]);
        assert_eq!(panel.row_sums, [2]);
        assert_eq!(panel.lane_bytes.len(), PACK_STEP_LANES);
        assert_eq!(panel.lane_bytes[..4], [1, 0xFE, 3, 0]);
        panel.repack(&[5i16, -6], 2, 1, SubwordMode::X1);
        assert!(!panel.has_lane_bytes(), "X1 panels carry no byte lanes");
        assert!(panel.row_sums.is_empty() && panel.lane_bytes.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_rejects_out_of_range_lane() {
        let _ = PackedPanel::pack(&[8i16], 1, 1, SubwordMode::X4);
    }

    #[test]
    #[should_panic(expected = "rows x k")]
    fn pack_rejects_bad_dimensions() {
        let _ = PackedPanel::pack(&[0i16; 5], 2, 3, SubwordMode::X1);
    }
}

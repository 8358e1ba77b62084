//! The AVX-512 VNNI tier of [`gemm_packed`](super::gemm_packed):
//! `vpdpbusd` byte dot products for the 4/8-bit pairs and `vpdpwssd`
//! 16-bit dot products for the pairs with a 16-bit side, at zmm width.
//! `unsafe` is confined to this module: [`gemm`] checks its [`Tier`] and
//! the panel shapes itself, every full-width load stays inside a
//! panel row, and the tail chunk of a row is read with masked loads
//! (which do not fault on the masked-off bytes).
//!
//! A chunk is one zmm of logical lanes: 64 for the byte pairs, 32 for the
//! 16-bit ones. Panel rows are padded to 16 lanes (one
//! [`PACK_STEP_LANES`] step), so a row's last chunk may hold fewer steps;
//! its masked-off lanes load as zero on both sides.

use super::{
    spill_bound, spill_steps, sweep, PackedPanel, SubwordMode, Tier, Tile, BYTE_SPILL_CHUNKS,
    PACK_STEP_LANES, SPLIT_SPILL_CHUNKS,
};
use std::arch::x86_64::{
    __m256i, __m512i, _mm256_add_epi32, _mm256_add_epi64, _mm256_castsi256_si128,
    _mm256_cvtepi32_epi64, _mm256_extracti128_si256, _mm256_maskz_loadu_epi8, _mm256_set1_epi8,
    _mm256_slli_epi64, _mm256_storeu_si256, _mm256_xor_si256, _mm512_add_epi32, _mm512_add_epi64,
    _mm512_and_si512, _mm512_broadcast_i32x4, _mm512_castsi512_si256, _mm512_cvtepi8_epi16,
    _mm512_cvtepu8_epi16, _mm512_dpbusd_epi32, _mm512_dpwssd_epi32, _mm512_extracti64x4_epi64,
    _mm512_loadu_si512, _mm512_maskz_loadu_epi16, _mm512_maskz_loadu_epi8, _mm512_mullo_epi16,
    _mm512_or_si512, _mm512_permutex2var_epi64, _mm512_set1_epi16, _mm512_set1_epi32,
    _mm512_set1_epi8, _mm512_setr_epi64, _mm512_setzero_si512, _mm512_shuffle_epi8,
    _mm512_slli_epi16, _mm512_slli_epi64, _mm512_srai_epi16, _mm512_srai_epi64,
    _mm512_unpackhi_epi32, _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64,
    _mm512_xor_si512, _mm_add_epi32, _mm_maskz_loadu_epi8,
};
use std::marker::PhantomData;

/// A low-bit mask of `units` ones (`units` in `0..=64`).
#[inline(always)]
fn low_bits(units: usize) -> u64 {
    if units == 0 {
        0
    } else {
        u64::MAX >> (64 - units)
    }
}

/// One operand layout: how a chunk of a packed row is read into a
/// vector. Masks count the load's elements (bytes, or words for `X1`).
trait Load {
    /// The loaded chunk.
    type V: Copy;
    /// Bits per logical lane the layout holds (sets a pair's cadence).
    const BITS: u32;
    /// Bytes one 16-lane step of a row occupies.
    const STEP_BYTES: usize;
    /// Mask elements per 16-lane step.
    const STEP_UNITS: usize;
    /// A zero chunk (array initializer).
    ///
    /// # Safety
    ///
    /// AVX-512F must be available.
    unsafe fn zero() -> Self::V;
    /// Loads the chunk at `p`, reading only the elements `mask` selects.
    ///
    /// # Safety
    ///
    /// The tier's features must be available, and every selected element
    /// readable.
    unsafe fn load(p: *const u8, mask: u64) -> Self::V;
}

/// `X1` words: 32 `i16` lanes.
struct Words;
/// Signed bytes (an `X2` row, or the byte copy of an `X4` weight row),
/// sign-extended to 32 `i16` lanes.
struct WideBytes;
/// `X4` nibbles, sign-extended to 32 `i16` lanes.
struct WideNibbles;
/// `X1` words split into a signed high byte and an unsigned low byte,
/// each as 32 `i16` lanes: `b = 256·hi + lo`.
struct SplitWords;
/// Signed weight bytes, as they are: 64 `i8` lanes.
struct Bytes;
/// `X2` activation bytes biased to `u8` (`xor 0x80`, i.e. `+128`): 64
/// lanes.
struct BiasedBytes;
/// `X4` activation nibbles biased to `u8` (`xor 0x88`, i.e. `+8` per
/// nibble) and widened to one byte per lane: 64 lanes.
struct BiasedNibbles;

impl Load for Words {
    type V = __m512i;
    const BITS: u32 = 16;
    const STEP_BYTES: usize = 32;
    const STEP_UNITS: usize = 16;
    #[inline(always)]
    unsafe fn zero() -> __m512i {
        _mm512_setzero_si512()
    }
    #[inline(always)]
    unsafe fn load(p: *const u8, mask: u64) -> __m512i {
        _mm512_maskz_loadu_epi16(mask as u32, p.cast::<i16>())
    }
}

impl Load for WideBytes {
    type V = __m512i;
    const BITS: u32 = 8;
    const STEP_BYTES: usize = 16;
    const STEP_UNITS: usize = 16;
    #[inline(always)]
    unsafe fn zero() -> __m512i {
        _mm512_setzero_si512()
    }
    #[inline(always)]
    unsafe fn load(p: *const u8, mask: u64) -> __m512i {
        _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(mask as u32, p.cast::<i8>()))
    }
}

/// `pshufb` control of [`WideNibbles`]: in 128-bit lane `q`, word `2t + u`
/// takes byte `4q + t` into its high byte (`-128` zeroes the low one).
static NIBBLE_SPREAD: [i8; 64] = {
    let mut ctrl = [-128i8; 64];
    let mut i = 0;
    while i < 64 {
        let (q, word) = (i / 16, (i % 16) / 2);
        if i % 2 == 1 {
            ctrl[i] = (4 * q + word / 2) as i8;
        }
        i += 1;
    }
    ctrl
};

impl Load for WideNibbles {
    type V = __m512i;
    const BITS: u32 = 4;
    const STEP_BYTES: usize = 8;
    const STEP_UNITS: usize = 8;
    #[inline(always)]
    unsafe fn zero() -> __m512i {
        _mm512_setzero_si512()
    }
    /// As the AVX2 tier's `X4` expander, four 128-bit lanes at a time:
    /// every lane gets all 16 bytes, `pshufb` moves byte `l / 2` into the
    /// high byte of lane `l`, `x16` lifts even lanes' low nibble to the
    /// top, and an arithmetic shift sign-extends the top nibble.
    #[inline(always)]
    unsafe fn load(p: *const u8, mask: u64) -> __m512i {
        let bytes = _mm512_broadcast_i32x4(_mm_maskz_loadu_epi8(mask as u16, p.cast::<i8>()));
        let spread = _mm512_loadu_si512(NIBBLE_SPREAD.as_ptr().cast::<__m512i>());
        let high = _mm512_shuffle_epi8(bytes, spread);
        let up = _mm512_set1_epi32(0x0001_0010); // words 16, 1, 16, 1, ...
        _mm512_srai_epi16::<12>(_mm512_mullo_epi16(high, up))
    }
}

impl Load for SplitWords {
    type V = (__m512i, __m512i);
    const BITS: u32 = 16;
    const STEP_BYTES: usize = 32;
    const STEP_UNITS: usize = 16;
    #[inline(always)]
    unsafe fn zero() -> (__m512i, __m512i) {
        (_mm512_setzero_si512(), _mm512_setzero_si512())
    }
    #[inline(always)]
    unsafe fn load(p: *const u8, mask: u64) -> (__m512i, __m512i) {
        let w = Words::load(p, mask);
        (
            _mm512_srai_epi16::<8>(w),
            _mm512_and_si512(w, _mm512_set1_epi16(0xFF)),
        )
    }
}

impl Load for Bytes {
    type V = __m512i;
    const BITS: u32 = 8;
    const STEP_BYTES: usize = 16;
    const STEP_UNITS: usize = 16;
    #[inline(always)]
    unsafe fn zero() -> __m512i {
        _mm512_setzero_si512()
    }
    #[inline(always)]
    unsafe fn load(p: *const u8, mask: u64) -> __m512i {
        _mm512_maskz_loadu_epi8(mask, p.cast::<i8>())
    }
}

impl Load for BiasedBytes {
    type V = __m512i;
    const BITS: u32 = 8;
    const STEP_BYTES: usize = 16;
    const STEP_UNITS: usize = 16;
    #[inline(always)]
    unsafe fn zero() -> __m512i {
        _mm512_setzero_si512()
    }
    #[inline(always)]
    unsafe fn load(p: *const u8, mask: u64) -> __m512i {
        _mm512_xor_si512(Bytes::load(p, mask), _mm512_set1_epi8(i8::MIN))
    }
}

impl Load for BiasedNibbles {
    type V = __m512i;
    const BITS: u32 = 4;
    const STEP_BYTES: usize = 8;
    const STEP_UNITS: usize = 8;
    #[inline(always)]
    unsafe fn zero() -> __m512i {
        _mm512_setzero_si512()
    }
    /// Byte `i` holds lanes `2i` (low nibble) and `2i + 1` (high). After
    /// the bias, zero-extending it to word `i` and or-ing in the word
    /// shifted left by 4 puts lane `2i` in the word's low byte and lane
    /// `2i + 1` in its high byte, each masked to its nibble.
    #[inline(always)]
    unsafe fn load(p: *const u8, mask: u64) -> __m512i {
        let raw = _mm256_maskz_loadu_epi8(mask as u32, p.cast::<i8>());
        let w = _mm512_cvtepu8_epi16(_mm256_xor_si256(raw, _mm256_set1_epi8(0x88u8 as i8)));
        _mm512_and_si512(
            _mm512_or_si512(w, _mm512_slli_epi16::<4>(w)),
            _mm512_set1_epi16(0x0F0F),
        )
    }
}

/// A biased activation layout: each lane reads `value + BIAS`.
trait Biased: Load {
    /// The bias every lane carries.
    const BIAS: i64;
}

impl Biased for BiasedBytes {
    const BIAS: i64 = 128;
}

impl Biased for BiasedNibbles {
    const BIAS: i64 = 8;
}

/// One mode pair's chunk arithmetic: the left (weight) and right
/// (activation) layouts, the `i32` accumulator of one output, and how it
/// widens exactly into `i64` lanes.
trait Pair {
    /// The weight side.
    type A: Load;
    /// The activation side.
    type B: Load;
    /// One output's `i32` partials.
    type Acc: Copy;
    /// Logical lanes per chunk.
    const LANES: usize;
    /// Chunks the `i32` partials may run before they must widen.
    const SPILL: usize;
    /// Chunks over which the sum of all 16 lanes of a partial still fits
    /// `i32`: up to this many, the epilogue reduces in `i32` and widens
    /// only the totals.
    const TREE: usize;
    /// What each output subtracts per unit of its weight row's sum: the
    /// activations' bias (`0` when they carry none).
    const BIAS: i64;
    /// Zero partials.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available.
    unsafe fn zero() -> Self::Acc;
    /// Accumulates one chunk of one output.
    ///
    /// # Safety
    ///
    /// The tier's features must be available.
    unsafe fn dot(acc: Self::Acc, a: <Self::A as Load>::V, b: <Self::B as Load>::V) -> Self::Acc;
    /// The partials as exact `i64` lanes.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available.
    unsafe fn widen(acc: Self::Acc) -> __m512i;
    /// The exact totals of four outputs' partials that ran at most
    /// [`TREE`](Self::TREE) chunks.
    ///
    /// # Safety
    ///
    /// AVX-512F and AVX-512VL must be available.
    unsafe fn sum4(acc: [Self::Acc; 4]) -> __m256i;
}

/// The 16 `i32` lanes of `v` as 8 exact `i64` lanes, each the sum of one
/// adjacent pair.
///
/// # Safety
///
/// AVX-512F only.
#[inline(always)]
unsafe fn widen_pairs(v: __m512i) -> __m512i {
    let high = _mm512_srai_epi64::<32>(v);
    let low = _mm512_srai_epi64::<32>(_mm512_slli_epi64::<32>(v));
    _mm512_add_epi64(high, low)
}

/// The totals of four vectors of 16 `i32` lanes, as four `i64`s: a
/// transposing tree in `i32`, exact when every partial sum of a vector's
/// lanes fits.
///
/// # Safety
///
/// AVX-512F and AVX-512VL only.
#[inline(always)]
unsafe fn sum4_epi32([v0, v1, v2, v3]: [__m512i; 4]) -> __m256i {
    // Per 128-bit lane, [v0, v1, v0, v1] partials, then [v0, v1, v2, v3].
    let t01 = _mm512_add_epi32(_mm512_unpacklo_epi32(v0, v1), _mm512_unpackhi_epi32(v0, v1));
    let t23 = _mm512_add_epi32(_mm512_unpacklo_epi32(v2, v3), _mm512_unpackhi_epi32(v2, v3));
    let q = _mm512_add_epi32(
        _mm512_unpacklo_epi64(t01, t23),
        _mm512_unpackhi_epi64(t01, t23),
    );
    let y = _mm256_add_epi32(_mm512_castsi512_si256(q), _mm512_extracti64x4_epi64::<1>(q));
    let x = _mm_add_epi32(_mm256_castsi256_si128(y), _mm256_extracti128_si256::<1>(y));
    _mm256_cvtepi32_epi64(x)
}

/// The totals of four vectors of 8 `i64` lanes (wrapping: the exact
/// totals fit, so the order of the partial sums cannot matter).
///
/// # Safety
///
/// AVX-512F only.
#[inline(always)]
unsafe fn sum4_epi64([v0, v1, v2, v3]: [__m512i; 4]) -> __m256i {
    // Per 128-bit lane, [v0, v1] and [v2, v3] partials; then qwords
    // 0-3 and 4-7 each [v0, v1, v2, v3] partials.
    let t01 = _mm512_add_epi64(_mm512_unpacklo_epi64(v0, v1), _mm512_unpackhi_epi64(v0, v1));
    let t23 = _mm512_add_epi64(_mm512_unpacklo_epi64(v2, v3), _mm512_unpackhi_epi64(v2, v3));
    let even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    let odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    let q = _mm512_add_epi64(
        _mm512_permutex2var_epi64(t01, even, t23),
        _mm512_permutex2var_epi64(t01, odd, t23),
    );
    _mm256_add_epi64(_mm512_castsi512_si256(q), _mm512_extracti64x4_epi64::<1>(q))
}

/// A byte pair on `vpdpbusd`: 4 products of a biased activation byte
/// (`u8`) and a weight byte (`i8`) per `i32` lane and chunk. The sum then
/// carries `BIAS · Σw`, which the output subtracts.
struct ByteDot<B>(PhantomData<B>);

impl<B: Biased<V = __m512i>> Pair for ByteDot<B> {
    type A = Bytes;
    type B = B;
    type Acc = __m512i;
    const LANES: usize = 64;
    const SPILL: usize = BYTE_SPILL_CHUNKS;
    const TREE: usize = spill_bound(16 * 4 * 255 * 128);
    const BIAS: i64 = B::BIAS;
    #[inline(always)]
    unsafe fn zero() -> __m512i {
        _mm512_setzero_si512()
    }
    #[inline(always)]
    unsafe fn dot(acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
        _mm512_dpbusd_epi32(acc, b, a)
    }
    #[inline(always)]
    unsafe fn widen(acc: __m512i) -> __m512i {
        widen_pairs(acc)
    }
    #[inline(always)]
    unsafe fn sum4(acc: [__m512i; 4]) -> __m256i {
        sum4_epi32(acc)
    }
}

/// A pair with one 16-bit side on `vpdpwssd`: the narrow side is
/// sign-extended to `i16`, and each `i32` lane takes one pair sum per
/// chunk, bounded as in the AVX2 tier.
struct WordDot<A, B>(PhantomData<(A, B)>);

impl<A: Load<V = __m512i>, B: Load<V = __m512i>> Pair for WordDot<A, B> {
    type A = A;
    type B = B;
    type Acc = __m512i;
    const LANES: usize = 32;
    const SPILL: usize = spill_steps(A::BITS, B::BITS);
    const TREE: usize = spill_bound(16 << (A::BITS + B::BITS - 1));
    const BIAS: i64 = 0;
    #[inline(always)]
    unsafe fn zero() -> __m512i {
        _mm512_setzero_si512()
    }
    #[inline(always)]
    unsafe fn dot(acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
        _mm512_dpwssd_epi32(acc, a, b)
    }
    #[inline(always)]
    unsafe fn widen(acc: __m512i) -> __m512i {
        widen_pairs(acc)
    }
    #[inline(always)]
    unsafe fn sum4(acc: [__m512i; 4]) -> __m256i {
        sum4_epi32(acc)
    }
}

/// `X1 x X1` on `vpdpwssd` with the activation split, `a·b = 256·(a·hi) +
/// a·lo`: a pair sum of `a·hi` stays within `2^23` and one of `a·lo`
/// below `2^24`, `i16::MIN` included, so the partials run
/// [`SPLIT_SPILL_CHUNKS`] chunks before they widen.
struct SplitDot;

impl Pair for SplitDot {
    type A = Words;
    type B = SplitWords;
    type Acc = (__m512i, __m512i);
    const LANES: usize = 32;
    const SPILL: usize = SPLIT_SPILL_CHUNKS;
    const TREE: usize = spill_bound(16 * 2 * 32768 * 255);
    const BIAS: i64 = 0;
    #[inline(always)]
    unsafe fn zero() -> (__m512i, __m512i) {
        (_mm512_setzero_si512(), _mm512_setzero_si512())
    }
    #[inline(always)]
    unsafe fn dot(
        (hi, lo): (__m512i, __m512i),
        a: __m512i,
        (b_hi, b_lo): (__m512i, __m512i),
    ) -> (__m512i, __m512i) {
        (
            _mm512_dpwssd_epi32(hi, a, b_hi),
            _mm512_dpwssd_epi32(lo, a, b_lo),
        )
    }
    #[inline(always)]
    unsafe fn widen((hi, lo): (__m512i, __m512i)) -> __m512i {
        _mm512_add_epi64(_mm512_slli_epi64::<8>(widen_pairs(hi)), widen_pairs(lo))
    }
    #[inline(always)]
    unsafe fn sum4(acc: [(__m512i, __m512i); 4]) -> __m256i {
        let hi = sum4_epi32(acc.map(|(hi, _)| hi));
        let lo = sum4_epi32(acc.map(|(_, lo)| lo));
        _mm256_add_epi64(_mm256_slli_epi64::<8>(hi), lo)
    }
}

/// Per-output values of a tile reduced four outputs at a time.
trait Reduce {
    /// One output's value.
    type T: Copy;
    /// A zero value (padding for a short quad).
    ///
    /// # Safety
    ///
    /// AVX-512F must be available.
    unsafe fn zero() -> Self::T;
    /// The exact totals of four outputs.
    ///
    /// # Safety
    ///
    /// AVX-512F and AVX-512VL must be available.
    unsafe fn sum4(quad: [Self::T; 4]) -> __m256i;
}

/// A pair's `i32` partials over at most `P::TREE` chunks.
struct Partials<P>(PhantomData<P>);

impl<P: Pair> Reduce for Partials<P> {
    type T = P::Acc;
    #[inline(always)]
    unsafe fn zero() -> P::Acc {
        P::zero()
    }
    #[inline(always)]
    unsafe fn sum4(quad: [P::Acc; 4]) -> __m256i {
        P::sum4(quad)
    }
}

/// Widened `i64` partials.
struct Wide;

impl Reduce for Wide {
    type T = __m512i;
    #[inline(always)]
    unsafe fn zero() -> __m512i {
        _mm512_setzero_si512()
    }
    #[inline(always)]
    unsafe fn sum4(quad: [__m512i; 4]) -> __m256i {
        sum4_epi64(quad)
    }
}

/// The totals of an `R x C` tile's values, taken four outputs at a time
/// in row-major order.
///
/// # Safety
///
/// AVX-512F and AVX-512VL must be available.
#[inline(always)]
unsafe fn reduce<F: Reduce, const R: usize, const C: usize>(
    vals: &[[F::T; C]; R],
) -> [[i64; C]; R] {
    let mut out = [[0i64; C]; R];
    for g in (0..R * C).step_by(4) {
        let mut quad = [F::zero(); 4];
        for (t, v) in quad.iter_mut().enumerate().take(R * C - g) {
            *v = vals[(g + t) / C][(g + t) % C];
        }
        let mut sums = [0i64; 4];
        _mm256_storeu_si256(sums.as_mut_ptr().cast::<__m256i>(), F::sum4(quad));
        for (t, &sum) in sums.iter().enumerate().take(R * C - g) {
            out[(g + t) / C][(g + t) % C] = sum;
        }
    }
    out
}

/// The register tile: the exact dots of `R` rows of `a` (row stride `sa`
/// bytes) with `C` rows of `b` (stride `sb`) over `steps` 16-lane steps,
/// before any bias correction. Each chunk loads every operand vector of
/// the tile once. Up to `P::TREE` chunks, the `i32` partials are reduced
/// as they are; beyond, they widen into `i64` every `P::SPILL` chunks,
/// and the widened sums are reduced at the end.
///
/// # Safety
///
/// The tier's features must be available; rows `0..R` of `a` and `0..C`
/// of `b` must be readable for `steps` steps of their layout.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
#[inline]
unsafe fn tile<P: Pair, const R: usize, const C: usize>(
    a: *const u8,
    sa: usize,
    b: *const u8,
    sb: usize,
    steps: usize,
) -> [[i64; C]; R] {
    let per = P::LANES / PACK_STEP_LANES;
    let chunks = steps.div_ceil(per);
    let tail = steps - chunks.saturating_sub(1) * per;
    let full = (
        low_bits(per * P::A::STEP_UNITS),
        low_bits(per * P::B::STEP_UNITS),
    );
    let last = (
        low_bits(tail * P::A::STEP_UNITS),
        low_bits(tail * P::B::STEP_UNITS),
    );
    let (a_chunk, b_chunk) = (per * P::A::STEP_BYTES, per * P::B::STEP_BYTES);
    // The partials of chunks `c0..c1`.
    let block = |c0: usize, c1: usize| {
        let mut acc = [[P::zero(); C]; R];
        for ch in c0..c1 {
            let (am, bm) = if ch + 1 == chunks { last } else { full };
            let mut bv = [P::B::zero(); C];
            for (j, v) in bv.iter_mut().enumerate() {
                *v = P::B::load(b.add(j * sb + ch * b_chunk), bm);
            }
            for (i, acc_row) in acc.iter_mut().enumerate() {
                let av = P::A::load(a.add(i * sa + ch * a_chunk), am);
                for (acc, &v) in acc_row.iter_mut().zip(&bv) {
                    *acc = P::dot(*acc, av, v);
                }
            }
        }
        acc
    };
    if chunks <= P::TREE {
        return reduce::<Partials<P>, R, C>(&block(0, chunks));
    }
    let mut acc64 = [[_mm512_setzero_si512(); C]; R];
    for c0 in (0..chunks).step_by(P::SPILL) {
        let part = block(c0, chunks.min(c0 + P::SPILL));
        for (acc_row, part_row) in acc64.iter_mut().zip(&part) {
            for (acc, &part) in acc_row.iter_mut().zip(part_row) {
                *acc = _mm512_add_epi64(*acc, P::widen(part));
            }
        }
    }
    reduce::<Wide, R, C>(&acc64)
}

/// One mode pair's tiles over two panels, as byte rows. Built only by
/// [`gemm`], after its tier showed the features and it checked that
/// every row holds `steps` steps of its layout and that the slices cover
/// every row.
struct Tiles<'p, P> {
    /// The weight rows (`rows_a x sa` bytes), in `P::A`'s layout.
    a: &'p [u8],
    sa: usize,
    rows_a: usize,
    /// The activation rows (`rows_b x sb` bytes), in `P::B`'s layout.
    b: &'p [u8],
    sb: usize,
    rows_b: usize,
    steps: usize,
    /// The weight rows' lane sums (used when `P::BIAS` is not zero).
    sums: &'p [i64],
    pair: PhantomData<P>,
}

impl<P: Pair> Tile for Tiles<'_, P> {
    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&self, i0: usize, j0: usize) -> [[i64; C]; R] {
        assert!(
            i0 + R <= self.rows_a && j0 + C <= self.rows_b,
            "tile out of range"
        );
        // SAFETY: `gemm` built `self` after its tier showed the features.
        // Rows `i0..i0 + R` and `j0..j0 + C` exist (asserted above), and
        // `gemm` checked that each row holds `steps` steps of its layout
        // (`steps * STEP_BYTES <= stride`, and the slices cover every
        // row). Full-chunk loads stay inside the row; the tail chunk's
        // loads are masked to the row's remaining steps.
        let mut out = unsafe {
            tile::<P, R, C>(
                self.a.as_ptr().add(i0 * self.sa),
                self.sa,
                self.b.as_ptr().add(j0 * self.sb),
                self.sb,
                self.steps,
            )
        };
        if P::BIAS != 0 {
            for (out_row, &sum) in out.iter_mut().zip(&self.sums[i0..i0 + R]) {
                for o in out_row {
                    *o -= P::BIAS * sum;
                }
            }
        }
        out
    }
}

/// The shared sweep over one mode pair's `MR x NR` tiles.
///
/// # Safety
///
/// The tier's features must be available, and `tiles` must satisfy
/// [`Tiles`]' layout contract.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
unsafe fn run<P: Pair, const MR: usize, const NR: usize>(tiles: &Tiles<'_, P>, out: &mut [i64]) {
    sweep::<_, MR, NR>(tiles, tiles.rows_a, tiles.rows_b, out);
}

/// The bytes of a word buffer, in memory order.
fn word_bytes(words: &[u16]) -> &[u8] {
    // SAFETY: the byte slice covers exactly the `2 * words.len()` bytes
    // of `words` under its shared borrow; `u8` has alignment 1 and every
    // bit pattern is a valid `u8`.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), 2 * words.len()) }
}

/// [`gemm_packed`](super::gemm_packed) on this tier, or `false`
/// (nothing written) when `tier` does not reach `avx512-vnni`, or when a
/// byte pair's left panel carries no byte lanes (it was filled in place,
/// not packed).
///
/// # Panics
///
/// Panics when the panels disagree on `k` or `out` is not
/// `a.rows() x bt.rows()`.
pub(super) fn gemm(tier: Tier, a: &PackedPanel, bt: &PackedPanel, out: &mut [i64]) -> bool {
    use SubwordMode::{X1, X2, X4};
    if !tier.has_vnni() {
        return false;
    }
    assert_eq!(a.k(), bt.k(), "panels must agree on k");
    assert_eq!(out.len(), a.rows() * bt.rows(), "out must be m x n");
    let steps = a.steps();
    // The weight side as byte rows: an `X4` row is read from its byte
    // copy, every other row from its words.
    let (weights, sa) = if a.mode() == X4 {
        (&a.lane_bytes[..], a.k().next_multiple_of(PACK_STEP_LANES))
    } else {
        (word_bytes(a.words()), 2 * a.words_per_row())
    };
    let byte_pair = a.mode() != X1 && bt.mode() != X1;
    if (a.mode() == X4 || byte_pair) && !a.has_lane_bytes() {
        return false;
    }
    let acts = word_bytes(bt.words());
    let sb = 2 * bt.words_per_row();
    // The tiles of pair `$p` over both panels' byte rows, each layout
    // checked: every row holds `steps` steps of it, the slices cover every
    // row, and a biased pair has one weight sum per row.
    macro_rules! run {
        ($p:ty, $mr:literal, $nr:literal) => {{
            type P = $p;
            assert!(steps * <P as Pair>::A::STEP_BYTES <= sa && weights.len() >= a.rows() * sa);
            assert!(steps * <P as Pair>::B::STEP_BYTES <= sb && acts.len() >= bt.rows() * sb);
            assert!(<P as Pair>::BIAS == 0 || a.row_sums.len() == a.rows());
            let tiles = Tiles::<P> {
                a: weights,
                sa,
                rows_a: a.rows(),
                b: acts,
                sb,
                rows_b: bt.rows(),
                steps,
                sums: &a.row_sums,
                pair: PhantomData,
            };
            // SAFETY: a `Tier` that has VNNI proves the host has every
            // feature `run` enables (the `host::Tier` invariant), and the
            // asserts check the layout contract of `Tiles`.
            unsafe { run::<P, $mr, $nr>(&tiles, out) }
        }};
    }
    match (a.mode(), bt.mode()) {
        (X1, X1) => run!(SplitDot, 4, 3),
        (X1, X2) => run!(WordDot<Words, WideBytes>, 4, 4),
        (X1, X4) => run!(WordDot<Words, WideNibbles>, 4, 4),
        (X2 | X4, X1) => run!(WordDot<WideBytes, Words>, 4, 4),
        (X2 | X4, X2) => run!(ByteDot<BiasedBytes>, 4, 4),
        (X2 | X4, X4) => run!(ByteDot<BiasedNibbles>, 4, 4),
    }
    true
}

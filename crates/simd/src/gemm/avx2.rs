//! The AVX2 tier of [`gemm_packed`](super::gemm_packed): `vpmaddwd`
//! register tiles over 16-lane steps, for hosts without AVX-512 VNNI.
//! `unsafe` is confined to this module: [`gemm`] checks its [`Tier`] for
//! AVX2 and the panel shapes itself, and every pointer walks panel rows
//! whose lengths come from the panels.

use super::{spill_steps, sweep, PackedPanel, SubwordMode, Tier, Tile};
use std::arch::x86_64::{
    __m128i, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_and_si256, _mm256_cmpeq_epi16,
    _mm256_cmpeq_epi32, _mm256_cvtepi8_epi16, _mm256_loadu_si256, _mm256_madd_epi16,
    _mm256_mullo_epi16, _mm256_permute2x128_si256, _mm256_set1_epi16, _mm256_set1_epi32,
    _mm256_set1_epi64x, _mm256_setr_epi16, _mm256_setr_epi8, _mm256_setzero_si256,
    _mm256_shuffle_epi8, _mm256_srai_epi16, _mm256_srli_epi64, _mm256_storeu_si256,
    _mm256_sub_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi64, _mm256_xor_si256,
    _mm_loadu_si128,
};
use std::marker::PhantomData;

/// Rows of the left panel (`a`, the weights) per register tile.
const MR: usize = 4;

/// Rows of the right panel (`bt`, the activations) per register tile: an
/// `MR x NR` tile keeps `MR * NR` accumulators in vector registers, so
/// every expanded lane vector feeds several outputs.
const NR: usize = 2;

/// One subword mode's lane expander: 16 sign-extended `i16` lanes from
/// one step of a packed row, in natural lane order (the inverse of the
/// `pack_lanes` field rule, like the scalar `decode_step`).
trait Lanes {
    /// Bits per lane field.
    const BITS: u32;
    /// Words one 16-lane step spans.
    const WORDS: usize;
    /// Expands the step starting at `p`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `p` readable for `WORDS` `u16`s.
    unsafe fn load(p: *const u16) -> __m256i;
}

/// `X1` lanes: the word is the operand.
struct Bits16;
/// `X2` lanes: two byte fields per word.
struct Bits8;
/// `X4` lanes: four nibble fields per word.
struct Bits4;

impl Lanes for Bits16 {
    const BITS: u32 = 16;
    const WORDS: usize = 16;
    #[inline(always)]
    unsafe fn load(p: *const u16) -> __m256i {
        _mm256_loadu_si256(p.cast::<__m256i>())
    }
}

impl Lanes for Bits8 {
    const BITS: u32 = 8;
    const WORDS: usize = 8;
    #[inline(always)]
    unsafe fn load(p: *const u16) -> __m256i {
        _mm256_cvtepi8_epi16(_mm_loadu_si128(p.cast::<__m128i>()))
    }
}

impl Lanes for Bits4 {
    const BITS: u32 = 4;
    const WORDS: usize = 4;
    /// Lane `l` is nibble `l % 2` of byte `l / 2`: broadcast the 8
    /// bytes, move byte `l / 2` into the high byte of `i16` lane `l`,
    /// shift even lanes' low nibble up to the top (`x16`), and
    /// sign-extend the top nibble with an arithmetic shift.
    #[inline(always)]
    unsafe fn load(p: *const u16) -> __m256i {
        let bytes = _mm256_set1_epi64x(p.cast::<i64>().read_unaligned());
        const Z: i8 = -128; // pshufb: zero this byte
        let spread = _mm256_setr_epi8(
            Z, 0, Z, 0, Z, 1, Z, 1, Z, 2, Z, 2, Z, 3, Z, 3, //
            Z, 4, Z, 4, Z, 5, Z, 5, Z, 6, Z, 6, Z, 7, Z, 7,
        );
        let high = _mm256_shuffle_epi8(bytes, spread);
        let up = _mm256_setr_epi16(16, 1, 16, 1, 16, 1, 16, 1, 16, 1, 16, 1, 16, 1, 16, 1);
        _mm256_srai_epi16::<12>(_mm256_mullo_epi16(high, up))
    }
}

/// Widens 8 `i32` partials into 4 `i64` lanes (each the sum of one
/// adjacent pair), **biased by `+2^32` per lane**: flipping the sign
/// bit maps `x` to the `u32` `x + 2^31`, which zero-extends with a mask
/// and a shift. Unlike sign extension (`vpmovsxdq`, a cross-lane
/// shuffle) this runs on every vector ALU port, which is what bounds
/// the `X1 x X1` tile, whose partials widen every step. The caller
/// removes the bias, `4 * 2^32` per call across the four lanes, once
/// per output.
///
/// # Safety
///
/// AVX2 only.
#[inline(always)]
unsafe fn widen_biased(v: __m256i) -> __m256i {
    let x = _mm256_xor_si256(v, _mm256_set1_epi32(i32::MIN));
    let low = _mm256_and_si256(x, _mm256_set1_epi64x(0xFFFF_FFFF));
    _mm256_add_epi64(low, _mm256_srli_epi64::<32>(x))
}

/// Horizontal sums of four `i64` vectors, as one vector
/// `[Σv0, Σv1, Σv2, Σv3]`.
///
/// # Safety
///
/// AVX2 only.
#[inline(always)]
unsafe fn hsum4_epi64(v0: __m256i, v1: __m256i, v2: __m256i, v3: __m256i) -> __m256i {
    // [v0.0+v0.1, v1.0+v1.1, v0.2+v0.3, v1.2+v1.3], likewise v2/v3.
    let s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(v0, v1), _mm256_unpackhi_epi64(v0, v1));
    let s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(v2, v3), _mm256_unpackhi_epi64(v2, v3));
    _mm256_add_epi64(
        _mm256_permute2x128_si256::<0x20>(s01, s23),
        _mm256_permute2x128_si256::<0x31>(s01, s23),
    )
}

/// Horizontal sum of 4 `i64` lanes (wrapping: the exact total fits, so
/// the order of the partial sums cannot matter).
///
/// # Safety
///
/// AVX2 only.
#[inline(always)]
unsafe fn hsum_epi64(v: __m256i) -> i64 {
    let mut lanes = [0i64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), v);
    lanes.iter().fold(0i64, |s, &x| s.wrapping_add(x))
}

/// Horizontal sum of 8 `i32` lanes (exact in `i64`).
///
/// # Safety
///
/// AVX2 only.
#[inline(always)]
unsafe fn hsum_epi32(v: __m256i) -> i64 {
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), v);
    lanes.iter().map(|&x| i64::from(x)).sum()
}

/// The register tile: the exact dots of `R` rows of `a` (row stride
/// `sa` words) with `C` rows of `b` (stride `sb`) over `steps` steps.
/// Each step expands every lane vector of the tile once and feeds it to
/// all the outputs it meets; `vpmaddwd` pair sums accumulate in `i32`
/// for [`spill_steps`] steps, are widened into `i64`, and each output
/// is reduced horizontally once, at the end (where the widening bias
/// comes off).
///
/// With `MINFIX` (`X1 x X1` when both panels hold `i16::MIN`) the tile
/// also counts the `i32` lanes whose two products were both
/// `MIN x MIN`: that pair sum is `+2^31`, which wraps to `-2^31`, so
/// each occurrence adds back `2^32`. Exact over the full
/// two's-complement range.
///
/// # Safety
///
/// AVX2 must be available; rows `0..R` of `a` and `0..C` of `b` must be
/// readable for `steps` steps of their mode.
#[target_feature(enable = "avx2")]
unsafe fn tile<A: Lanes, B: Lanes, const R: usize, const C: usize, const MINFIX: bool>(
    a: *const u16,
    sa: usize,
    b: *const u16,
    sb: usize,
    steps: usize,
) -> [[i64; C]; R] {
    let spill = spill_steps(A::BITS, B::BITS);
    let zero = _mm256_setzero_si256();
    let min = _mm256_set1_epi16(i16::MIN);
    let ones = _mm256_set1_epi32(-1);
    let mut acc64 = [[zero; C]; R];
    let mut fixes = [[zero; C]; R];
    let mut widens = 0usize;
    let mut s = 0;
    while s < steps {
        let end = steps.min(s + spill);
        let mut acc32 = [[zero; C]; R];
        for t in s..end {
            let mut bv = [zero; C];
            let mut bmin = [zero; C];
            for (j, (v, vmin)) in bv.iter_mut().zip(&mut bmin).enumerate() {
                *v = B::load(b.add(j * sb + t * B::WORDS));
                if MINFIX {
                    *vmin = _mm256_cmpeq_epi16(*v, min);
                }
            }
            for (i, (acc_row, fix_row)) in acc32.iter_mut().zip(&mut fixes).enumerate() {
                let av = A::load(a.add(i * sa + t * A::WORDS));
                let amin = if MINFIX {
                    _mm256_cmpeq_epi16(av, min)
                } else {
                    zero
                };
                for (j, (acc, fix)) in acc_row.iter_mut().zip(fix_row).enumerate() {
                    *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(av, bv[j]));
                    if MINFIX {
                        // Both 16-bit halves MIN on both sides: the
                        // lane wrapped. The all-ones mask is -1, so
                        // subtracting it counts the lane.
                        let both = _mm256_and_si256(amin, bmin[j]);
                        *fix = _mm256_sub_epi32(*fix, _mm256_cmpeq_epi32(both, ones));
                    }
                }
            }
        }
        for (acc_row, part_row) in acc64.iter_mut().zip(&acc32) {
            for (acc, &part) in acc_row.iter_mut().zip(part_row) {
                *acc = _mm256_add_epi64(*acc, widen_biased(part));
            }
        }
        s = end;
        widens += 1;
    }
    let mut out = [[0i64; C]; R];
    if C == 2 && R.is_multiple_of(2) {
        // Two rows of two columns are four consecutive outputs. (`C - 1`
        // is column 1; spelled so the branch also compiles at `C == 1`.)
        for (pair, acc) in out.chunks_exact_mut(2).zip(acc64.chunks_exact(2)) {
            let sums = hsum4_epi64(acc[0][0], acc[0][C - 1], acc[1][0], acc[1][C - 1]);
            _mm256_storeu_si256(pair.as_mut_ptr().cast::<__m256i>(), sums);
        }
    } else {
        for (out_row, acc_row) in out.iter_mut().zip(&acc64) {
            for (o, &acc) in out_row.iter_mut().zip(acc_row) {
                *o = hsum_epi64(acc);
            }
        }
    }
    let bias = (widens as i64).wrapping_shl(34);
    for (out_row, fix_row) in out.iter_mut().zip(&fixes) {
        for (o, &fix) in out_row.iter_mut().zip(fix_row) {
            *o = o.wrapping_sub(bias);
            if MINFIX {
                *o = o.wrapping_add(hsum_epi32(fix) << 32);
            }
        }
    }
    out
}

/// The tiles of one mode pair over two panels. Built only by [`gemm`],
/// after its tier showed AVX2 and it checked that the panels agree on `k`.
struct Tiles<'p, A, B, const MINFIX: bool> {
    a: &'p PackedPanel,
    b: &'p PackedPanel,
    lanes: PhantomData<(A, B)>,
}

impl<A: Lanes, B: Lanes, const MINFIX: bool> Tile for Tiles<'_, A, B, MINFIX> {
    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&self, i0: usize, j0: usize) -> [[i64; C]; R] {
        let (a, b) = (self.a, self.b);
        assert!(
            i0 + R <= a.rows() && j0 + C <= b.rows(),
            "tile out of range"
        );
        let (sa, sb) = (a.words_per_row(), b.words_per_row());
        // SAFETY: `gemm` built `self` after its tier showed AVX2. Rows
        // `i0..i0 + R` of `a` and `j0..j0 + C` of `b` exist (asserted
        // above), and each holds the `words_per_row` words its mode
        // consumes over `steps()` steps (the panels agree on `k`, rows
        // are padded to whole steps, and `words` is at least
        // `rows * words_per_row` long).
        unsafe {
            tile::<A, B, R, C, MINFIX>(
                a.words.as_ptr().add(i0 * sa),
                sa,
                b.words.as_ptr().add(j0 * sb),
                sb,
                a.steps(),
            )
        }
    }
}

/// The shared sweep over one mode pair's tiles.
///
/// # Safety
///
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
unsafe fn run<A: Lanes, B: Lanes, const MINFIX: bool>(
    a: &PackedPanel,
    bt: &PackedPanel,
    out: &mut [i64],
) {
    let tiles = Tiles::<A, B, MINFIX> {
        a,
        b: bt,
        lanes: PhantomData,
    };
    sweep::<_, MR, NR>(&tiles, a.rows(), bt.rows(), out);
}

/// [`gemm_packed`](super::gemm_packed) on this tier, or `false`
/// (nothing written) when `tier` does not reach `avx2`.
///
/// # Panics
///
/// Panics when the panels disagree on `k` or `out` is not
/// `a.rows() x bt.rows()`.
pub(super) fn gemm(tier: Tier, a: &PackedPanel, bt: &PackedPanel, out: &mut [i64]) -> bool {
    if !tier.has_avx2() {
        return false;
    }
    assert_eq!(a.k(), bt.k(), "panels must agree on k");
    assert_eq!(out.len(), a.rows() * bt.rows(), "out must be m x n");
    // SAFETY: a `Tier` that has AVX2 proves the host has it (the
    // `host::Tier` invariant). The `MIN x MIN` correction runs only where
    // both `X1` panels can produce it.
    unsafe {
        use SubwordMode::{X1, X2, X4};
        match (a.mode(), bt.mode()) {
            (X1, X1) if a.has_min && bt.has_min => run::<Bits16, Bits16, true>(a, bt, out),
            (X1, X1) => run::<Bits16, Bits16, false>(a, bt, out),
            (X1, X2) => run::<Bits16, Bits8, false>(a, bt, out),
            (X1, X4) => run::<Bits16, Bits4, false>(a, bt, out),
            (X2, X1) => run::<Bits8, Bits16, false>(a, bt, out),
            (X2, X2) => run::<Bits8, Bits8, false>(a, bt, out),
            (X2, X4) => run::<Bits8, Bits4, false>(a, bt, out),
            (X4, X1) => run::<Bits4, Bits16, false>(a, bt, out),
            (X4, X2) => run::<Bits4, Bits8, false>(a, bt, out),
            (X4, X4) => run::<Bits4, Bits4, false>(a, bt, out),
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::super::{spill_bound, BYTE_SPILL_CHUNKS, SPLIT_SPILL_CHUNKS};
    use super::spill_steps;

    /// The `i32` cadences per pair, and that each keeps the worst-case
    /// partial in range: the `vpmaddwd` ones (this tier, and the mixed
    /// `vpdpwssd` pairs of the VNNI tier) under `2^30`, and the VNNI
    /// byte-lane and split `X1 x X1` ones at the largest chunk count
    /// whose worst case still fits `i32`.
    #[test]
    fn spill_cadences_are_the_documented_ones() {
        let table = [
            (16, 16, 1),
            (16, 8, 128),
            (16, 4, 2048),
            (8, 8, 32768),
            (8, 4, 32768),
            (4, 4, 32768),
        ];
        for (wa, wb, steps) in table {
            assert_eq!(spill_steps(wa, wb), steps, "{wa} x {wb}");
            assert_eq!(spill_steps(wb, wa), steps, "{wb} x {wa}");
            if steps > 1 {
                assert!((steps as u64) << (wa + wb - 1) <= 1 << 30);
            }
        }
        // vpdpbusd: 4 products of a biased activation byte (at most 255)
        // and a weight byte (at least -128) per i32 lane and chunk.
        // Split X1 x X1: 2 products of an i16 and an unsigned low byte.
        for (chunks, per_chunk) in [
            (BYTE_SPILL_CHUNKS, 4 * 255 * 128u64),
            (SPLIT_SPILL_CHUNKS, 2 * 32768 * 255),
        ] {
            assert_eq!(spill_bound(per_chunk), chunks);
            assert!(chunks as u64 * per_chunk <= i32::MAX as u64);
            assert!(
                (chunks as u64 + 1) * per_chunk > 1 << 31,
                "the bound is tight"
            );
        }
        assert_eq!(BYTE_SPILL_CHUNKS, 16_448);
        assert_eq!(SPLIT_SPILL_CHUNKS, 128);
    }
}

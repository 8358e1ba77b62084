//! Error metrics and bitslice packing for approximate arithmetic.
//!
//! Fig. 3b of the paper expresses accuracy as Root-Mean-Square Error (RMSE)
//! of the multiplier output, normalized so that different designs can share
//! one axis. These helpers compute absolute and full-scale-relative RMSE
//! over operand streams.
//!
//! This module also hosts the **packing/transpose layer** of the bitsliced
//! netlist engine ([`crate::netlist::BitSimulator`]): a Monte-Carlo stream
//! is consumed in [`WORD_LANES`]-sample words, each primary input becoming
//! one `u64` whose lane `s` is sample `s`'s bit. [`pack_stimuli`] /
//! [`unpack_stimuli`] transpose whole stimulus vectors, [`pack_value_bits`]
//! / [`unpack_value_bits`] transpose operand words into bit planes and
//! back; round-trips are exact and the ragged tail keeps only the valid
//! lanes.

use crate::multiplier::ApproximateMultiplier;
use crate::netlist::lane_mask;
use rand::{Rng, SeedableRng};

/// Samples per bitsliced word (re-exported from the netlist engine so the
/// packing layer and its callers agree on the chunk width).
pub const WORD_LANES: usize = crate::netlist::LANES;

/// Transposes up to [`WORD_LANES`] stimulus vectors (one `Vec<bool>` per
/// sample, all the same length) into per-input lane words: word `i`'s lane
/// `s` is `stimuli[s][i]`. The inverse of [`unpack_stimuli`].
///
/// # Panics
///
/// Panics if more than [`WORD_LANES`] stimuli are given or their lengths
/// differ.
#[must_use]
pub fn pack_stimuli(stimuli: &[Vec<bool>]) -> Vec<u64> {
    assert!(
        stimuli.len() <= WORD_LANES,
        "at most {WORD_LANES} samples fit one word, got {}",
        stimuli.len()
    );
    let Some(first) = stimuli.first() else {
        return Vec::new();
    };
    let mut words = vec![0u64; first.len()];
    for (s, stim) in stimuli.iter().enumerate() {
        assert_eq!(stim.len(), first.len(), "stimulus lengths must agree");
        for (i, &bit) in stim.iter().enumerate() {
            words[i] |= u64::from(bit) << s;
        }
    }
    words
}

/// Transposes per-input lane words back into `valid` stimulus vectors —
/// the inverse of [`pack_stimuli`], discarding lanes at and above `valid`.
///
/// # Panics
///
/// Panics if `valid` is not in `1..=`[`WORD_LANES`].
#[must_use]
pub fn unpack_stimuli(words: &[u64], valid: usize) -> Vec<Vec<bool>> {
    let _ = lane_mask(valid); // validates the range
    (0..valid)
        .map(|s| words.iter().map(|w| (w >> s) & 1 == 1).collect())
        .collect()
}

/// Transposes up to [`WORD_LANES`] operand values into `width` bit planes:
/// plane `j`'s lane `s` is bit `j` of `values[s]`. The inverse of
/// [`unpack_value_bits`].
///
/// # Panics
///
/// Panics if more than [`WORD_LANES`] values are given.
#[must_use]
pub fn pack_value_bits(values: &[u64], width: usize) -> Vec<u64> {
    assert!(
        values.len() <= WORD_LANES,
        "at most {WORD_LANES} samples fit one word, got {}",
        values.len()
    );
    let mut planes = vec![0u64; width];
    for (s, &v) in values.iter().enumerate() {
        for (j, plane) in planes.iter_mut().enumerate() {
            *plane |= ((v >> j) & 1) << s;
        }
    }
    planes
}

/// Transposes bit planes back into `valid` per-sample values (plane `j`
/// contributes bit `j`) — the inverse of [`pack_value_bits`].
///
/// # Panics
///
/// Panics if `valid` is not in `1..=`[`WORD_LANES`].
#[must_use]
pub fn unpack_value_bits(planes: &[u64], valid: usize) -> Vec<u64> {
    let _ = lane_mask(valid); // validates the range
    (0..valid)
        .map(|s| {
            planes
                .iter()
                .enumerate()
                .fold(0u64, |acc, (j, p)| acc | (((p >> s) & 1) << j))
        })
        .collect()
}

/// Full-scale product value of a 16×16 unsigned multiplier, used to
/// normalize RMSE onto the paper's relative axis.
pub const FULL_SCALE: f64 = 4294836225.0; // 65535 * 65535

/// RMSE of a set of signed errors.
///
/// # Example
///
/// ```
/// use dvafs_arith::metrics::rmse;
///
/// assert!((rmse(&[3.0, -4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
/// assert_eq!(rmse(&[]), 0.0);
/// ```
#[must_use]
pub fn rmse(errors: &[f64]) -> f64 {
    if errors.is_empty() {
        return 0.0;
    }
    (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt()
}

/// Deterministic uniform operand stream for error measurement.
#[must_use]
pub fn operand_stream(samples: usize, seed: u64) -> Vec<(u16, u16)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..samples).map(|_| (rng.gen(), rng.gen())).collect()
}

/// Number of operand pairs per Monte-Carlo chunk of a chunked stream.
///
/// The chunk layout is a property of the *experiment*, not of the machine
/// running it: it never depends on thread count, so any partitioning of the
/// chunks across workers reproduces the same samples.
pub const OPERAND_CHUNK: usize = 256;

/// The seed of chunk `chunk_index` of a stream rooted at `root_seed`.
///
/// A SplitMix64-style finalizer decorrelates neighbouring chunk seeds, so
/// `root_seed` and `root_seed + 1` do not share sample prefixes.
#[must_use]
pub fn chunk_seed(root_seed: u64, chunk_index: usize) -> u64 {
    let mut z =
        root_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(chunk_index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of [`OPERAND_CHUNK`]-sized chunks covering `samples` pairs.
#[must_use]
pub fn chunk_count(samples: usize) -> usize {
    samples.div_ceil(OPERAND_CHUNK)
}

/// One chunk of a chunked operand stream: `len` pairs drawn from
/// [`chunk_seed`]`(root_seed, chunk_index)`.
#[must_use]
pub fn operand_chunk(root_seed: u64, chunk_index: usize, len: usize) -> Vec<(u16, u16)> {
    operand_stream(len, chunk_seed(root_seed, chunk_index))
}

/// A `samples`-pair stream as independently seeded chunks.
///
/// Each chunk is self-contained — chunk `i` depends only on `(root_seed,
/// i)` — so chunks can be generated and consumed in parallel while the
/// concatenated stream stays bit-identical to a serial walk.
#[must_use]
pub fn operand_stream_chunked(samples: usize, root_seed: u64) -> Vec<Vec<(u16, u16)>> {
    (0..chunk_count(samples))
        .map(|c| {
            let len = OPERAND_CHUNK.min(samples - c * OPERAND_CHUNK);
            operand_chunk(root_seed, c, len)
        })
        .collect()
}

/// Sum of squared product errors of an approximate multiplier over a chunk
/// — the mergeable partial behind a chunked RMSE.
///
/// Products come from the multiplier's batched
/// [`evaluate_packed`](ApproximateMultiplier::evaluate_packed) entry point
/// in [`WORD_LANES`]-pair batches; the squared errors are accumulated in
/// sample order, so the sum is bit-identical to the one-`mul`-at-a-time
/// fold it replaces.
#[must_use]
pub fn sum_squared_error<M: ApproximateMultiplier + ?Sized>(m: &M, pairs: &[(u16, u16)]) -> f64 {
    let mut sum = 0.0f64;
    for batch in pairs.chunks(WORD_LANES) {
        for (&(a, b), p) in batch.iter().zip(m.evaluate_packed(batch)) {
            let exact = u64::from(a) * u64::from(b);
            let e = p as f64 - exact as f64;
            sum += e * e;
        }
    }
    sum
}

/// Sum of squared errors of a `bits`-MSB truncated multiplication over a
/// chunk (the DVAFS precision-to-RMSE mapping, chunked).
#[must_use]
pub fn precision_sum_squared_error(bits: u32, pairs: &[(u16, u16)]) -> f64 {
    let drop = 16 - bits;
    pairs
        .iter()
        .map(|&(a, b)| {
            let exact = u64::from(a) * u64::from(b);
            let aq = u64::from(a >> drop << drop);
            let bq = u64::from(b >> drop << drop);
            let e = (aq * bq) as f64 - exact as f64;
            e * e
        })
        .sum()
}

/// Folds per-chunk squared-error partials into a full-scale-relative RMSE.
///
/// The fold is sequential in slice order; callers keep partials in chunk
/// order so the result is independent of how chunks were computed.
#[must_use]
pub fn relative_rmse_from_partials(partials: &[f64], samples: usize) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    (partials.iter().sum::<f64>() / samples as f64).sqrt() / FULL_SCALE
}

/// Absolute product RMSE of an approximate multiplier over a stream.
#[must_use]
pub fn product_rmse<M: ApproximateMultiplier + ?Sized>(m: &M, pairs: &[(u16, u16)]) -> f64 {
    let mut errors = Vec::with_capacity(pairs.len());
    for batch in pairs.chunks(WORD_LANES) {
        errors.extend(
            batch
                .iter()
                .zip(m.evaluate_packed(batch))
                .map(|(&(a, b), p)| {
                    let exact = u64::from(a) * u64::from(b);
                    p as f64 - exact as f64
                }),
        );
    }
    rmse(&errors)
}

/// Product RMSE normalized to the full-scale 16×16 product — the x axis of
/// Fig. 3b.
#[must_use]
pub fn relative_rmse<M: ApproximateMultiplier + ?Sized>(m: &M, pairs: &[(u16, u16)]) -> f64 {
    product_rmse(m, pairs) / FULL_SCALE
}

/// RMSE of a reduced-precision (DAS/DVAFS) multiplication, where both
/// operands are truncated to `bits` MSBs of a 16-bit word, normalized to
/// full scale. This is how the DVAFS curve of Fig. 3b maps precision to the
/// shared RMSE axis.
#[must_use]
pub fn precision_relative_rmse(bits: u32, pairs: &[(u16, u16)]) -> f64 {
    let drop = 16 - bits;
    let errors: Vec<f64> = pairs
        .iter()
        .map(|&(a, b)| {
            let exact = u64::from(a) * u64::from(b);
            let aq = u64::from(a >> drop << drop);
            let bq = u64::from(b >> drop << drop);
            (aq * bq) as f64 - exact as f64
        })
        .collect();
    rmse(&errors) / FULL_SCALE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::TruncatedMultiplier;

    #[test]
    fn rmse_of_constant_error() {
        assert!((rmse(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stimuli_transpose_round_trips() {
        // 5 samples x 3 inputs, ragged (5 < 64): the round-trip is exact.
        let stimuli: Vec<Vec<bool>> = (0..5u64)
            .map(|s| (0..3).map(|i| (s >> i) & 1 == 1).collect())
            .collect();
        let words = pack_stimuli(&stimuli);
        assert_eq!(words.len(), 3);
        // Input 0's word lane-packs the LSBs of samples 0..5: 0,1,0,1,0.
        assert_eq!(words[0], 0b01010);
        assert_eq!(unpack_stimuli(&words, 5), stimuli);
        // A full 64-sample word round-trips too.
        let full: Vec<Vec<bool>> = (0..64u64).map(|s| vec![s % 3 == 0, s % 5 == 0]).collect();
        assert_eq!(unpack_stimuli(&pack_stimuli(&full), 64), full);
        assert!(pack_stimuli(&[]).is_empty());
    }

    #[test]
    fn value_bit_planes_round_trip() {
        let values: Vec<u64> = (0..70u64)
            .map(|v| v.wrapping_mul(0xACE1) & 0xFFFF)
            .collect();
        for chunk in values.chunks(WORD_LANES) {
            let planes = pack_value_bits(chunk, 16);
            assert_eq!(planes.len(), 16);
            assert_eq!(unpack_value_bits(&planes, chunk.len()), chunk);
        }
    }

    #[test]
    fn ragged_tail_masks_unused_lanes() {
        // Only the low `valid` lanes survive an unpack; bits planted above
        // them are discarded.
        let mut planes = pack_value_bits(&[3, 1, 2], 2);
        planes[0] |= 1 << 40;
        planes[1] |= 1 << 63;
        assert_eq!(unpack_value_bits(&planes, 3), vec![3, 1, 2]);
        let stimuli = unpack_stimuli(&planes, 3);
        assert_eq!(stimuli.len(), 3);
        assert_eq!(stimuli[0], vec![true, true]);
    }

    #[test]
    #[should_panic(expected = "at most 64 samples")]
    fn packing_rejects_oversized_words() {
        let _ = pack_value_bits(&[0u64; 65], 4);
    }

    #[test]
    fn operand_stream_is_deterministic() {
        assert_eq!(operand_stream(10, 7), operand_stream(10, 7));
        assert_ne!(operand_stream(10, 7), operand_stream(10, 8));
    }

    #[test]
    fn exact_multiplier_has_zero_rmse() {
        let m = TruncatedMultiplier::new(0);
        let pairs = operand_stream(100, 1);
        assert_eq!(product_rmse(&m, &pairs), 0.0);
        assert_eq!(relative_rmse(&m, &pairs), 0.0);
    }

    #[test]
    fn precision_rmse_monotone_in_bits() {
        let pairs = operand_stream(400, 2);
        let e4 = precision_relative_rmse(4, &pairs);
        let e8 = precision_relative_rmse(8, &pairs);
        let e12 = precision_relative_rmse(12, &pairs);
        let e16 = precision_relative_rmse(16, &pairs);
        assert!(e4 > e8 && e8 > e12 && e12 > e16);
        assert_eq!(e16, 0.0);
        // 8-bit truncation errors sit around 1e-3..1e-2 relative; the paper
        // plots DVAFS between 1e-6 and 1e-2 for 16..4 bits.
        assert!(e8 > 1e-4 && e8 < 1e-1, "e8={e8}");
    }

    #[test]
    fn chunked_stream_layout_is_stable() {
        let chunks = operand_stream_chunked(1000, 42);
        assert_eq!(chunks.len(), chunk_count(1000));
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), OPERAND_CHUNK);
        assert_eq!(chunks[3].len(), 1000 - 3 * OPERAND_CHUNK);
        // Chunk i is a pure function of (root, i): regenerating one chunk
        // in isolation reproduces the in-stream chunk.
        assert_eq!(chunks[2], operand_chunk(42, 2, OPERAND_CHUNK));
        // Nearby roots do not share chunks.
        assert_ne!(chunks[0], operand_stream_chunked(1000, 43)[0]);
    }

    #[test]
    fn chunk_seeds_are_decorrelated() {
        let seeds: std::collections::HashSet<u64> = (0..64).map(|c| chunk_seed(7, c)).collect();
        assert_eq!(seeds.len(), 64);
        assert_ne!(chunk_seed(7, 0), chunk_seed(8, 0));
    }

    #[test]
    fn partial_sums_reproduce_whole_stream_rmse() {
        let m = TruncatedMultiplier::new(8);
        let chunks = operand_stream_chunked(600, 9);
        let partials: Vec<f64> = chunks.iter().map(|c| sum_squared_error(&m, c)).collect();
        let merged = relative_rmse_from_partials(&partials, 600);
        let flat: Vec<(u16, u16)> = chunks.iter().flatten().copied().collect();
        let whole = relative_rmse(&m, &flat);
        // Same samples, same math up to summation association.
        assert!((merged - whole).abs() < whole * 1e-12 + 1e-18);
        assert_eq!(relative_rmse_from_partials(&[], 0), 0.0);
    }

    #[test]
    fn precision_partials_match_precision_rmse() {
        let chunks = operand_stream_chunked(512, 3);
        let flat: Vec<(u16, u16)> = chunks.iter().flatten().copied().collect();
        for bits in [4u32, 8, 12, 16] {
            let partials: Vec<f64> = chunks
                .iter()
                .map(|c| precision_sum_squared_error(bits, c))
                .collect();
            let merged = relative_rmse_from_partials(&partials, 512);
            let whole = precision_relative_rmse(bits, &flat);
            assert!((merged - whole).abs() < whole * 1e-12 + 1e-18, "{bits}b");
        }
    }
}

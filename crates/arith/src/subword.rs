//! Subword-parallel operating modes and packed-word helpers.
//!
//! DVAFS (Section II-C) reuses idle arithmetic cells at reduced precision:
//! a 16-bit multiplier processes `N` independent `16/N`-bit words per cycle.
//! [`SubwordMode`] enumerates the three modes of the paper's multiplier and
//! of Envision (`1×16b`, `2×8b`, `4×4b`), and the packing helpers convert
//! between lane values and the packed 16-bit operand a subword unit sees.

use crate::error::ArithError;
use crate::fixed::Precision;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Degree of subword parallelism `N` in a DVAFS data path.
///
/// # Example
///
/// ```
/// use dvafs_arith::SubwordMode;
///
/// let mode = SubwordMode::X4;
/// assert_eq!(mode.lanes(), 4);
/// assert_eq!(mode.lane_bits(), 4);
/// assert_eq!(mode.words_per_cycle(), 4);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum SubwordMode {
    /// One 16-bit word per cycle (full precision).
    #[default]
    X1,
    /// Two packed 8-bit words per cycle.
    X2,
    /// Four packed 4-bit words per cycle.
    X4,
}

impl SubwordMode {
    /// All modes, from full precision down.
    pub const ALL: [SubwordMode; 3] = [SubwordMode::X1, SubwordMode::X2, SubwordMode::X4];

    /// The largest lane count of any mode: the length of a stack array
    /// that holds the lane values of one packed word in every mode.
    pub const MAX_LANES: usize = 4;

    /// The number of parallel lanes `N`.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            SubwordMode::X1 => 1,
            SubwordMode::X2 => 2,
            SubwordMode::X4 => 4,
        }
    }

    /// Bits per lane (`16 / N`).
    #[must_use]
    pub fn lane_bits(self) -> u32 {
        16 / self.lanes() as u32
    }

    /// Words processed per cycle at constant clock — equal to [`lanes`].
    ///
    /// [`lanes`]: SubwordMode::lanes
    #[must_use]
    pub fn words_per_cycle(self) -> usize {
        self.lanes()
    }

    /// Picks the *narrowest-lane, most-parallel* mode whose lanes still
    /// hold `bits`-wide operands — the mode a DVAFS controller selects for
    /// a precision requirement, since more lanes per cycle is the entire
    /// point of subword reconfiguration. This is the mode-selection
    /// authority for the subword-packed GEMM kernel (`dvafs-simd`): a
    /// 4-bit operand goes four-to-a-word ([`X4`](SubwordMode::X4)), never
    /// one-to-a-word.
    ///
    /// # Example
    ///
    /// ```
    /// use dvafs_arith::{Precision, SubwordMode};
    ///
    /// // 4-bit operands select the most-parallel X4 mode, not X1 —
    /// // even though a 16-bit lane would also hold them.
    /// assert_eq!(SubwordMode::for_precision(Precision::new(4)?), SubwordMode::X4);
    /// assert_eq!(SubwordMode::for_precision(Precision::new(3)?), SubwordMode::X4);
    /// assert_eq!(SubwordMode::for_precision(Precision::new(5)?), SubwordMode::X2);
    /// assert_eq!(SubwordMode::for_precision(Precision::new(9)?), SubwordMode::X1);
    /// # Ok::<(), dvafs_arith::ArithError>(())
    /// ```
    #[must_use]
    pub fn for_precision(p: Precision) -> SubwordMode {
        match p.bits() {
            1..=4 => SubwordMode::X4,
            5..=8 => SubwordMode::X2,
            _ => SubwordMode::X1,
        }
    }
}

impl fmt::Display for SubwordMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}b", self.lanes(), self.lane_bits())
    }
}

/// Packs signed lane values into one 16-bit operand word.
///
/// Lane 0 occupies the LSBs. Each lane value must fit in the mode's lane
/// width as a signed two's-complement field.
///
/// # Errors
///
/// Returns [`ArithError::LaneCountMismatch`] when `lanes.len()` differs from
/// the mode's lane count, and [`ArithError::OperandOutOfRange`] when a lane
/// value does not fit its field.
///
/// # Example
///
/// ```
/// use dvafs_arith::subword::{pack_lanes, unpack_lanes};
/// use dvafs_arith::SubwordMode;
///
/// let w = pack_lanes(&[1, -1], SubwordMode::X2)?;
/// assert_eq!(unpack_lanes(w, SubwordMode::X2).collect::<Vec<_>>(), [1, -1]);
/// # Ok::<(), dvafs_arith::ArithError>(())
/// ```
#[inline]
pub fn pack_lanes(lanes: &[i32], mode: SubwordMode) -> Result<u16, ArithError> {
    if lanes.len() != mode.lanes() {
        return Err(ArithError::LaneCountMismatch {
            expected: mode.lanes(),
            actual: lanes.len(),
        });
    }
    let w = mode.lane_bits();
    let lo = -(1i32 << (w - 1));
    let hi = (1i32 << (w - 1)) - 1;
    let mask = (1u32 << w) - 1;
    let mut packed: u32 = 0;
    for (i, &v) in lanes.iter().enumerate() {
        if v < lo || v > hi {
            return Err(ArithError::OperandOutOfRange {
                value: i64::from(v),
                bits: w,
            });
        }
        packed |= ((v as u32) & mask) << (i as u32 * w);
    }
    Ok(packed as u16)
}

/// Unpacks a 16-bit operand word into its signed lane values, lane 0 (the
/// LSBs) first. The iterator allocates nothing, so a simulator can unpack
/// every word it touches.
pub fn unpack_lanes(word: u16, mode: SubwordMode) -> impl ExactSizeIterator<Item = i32> {
    let w = mode.lane_bits();
    let mask = (1u32 << w) - 1;
    (0..mode.lanes()).map(move |i| {
        let field = (u32::from(word) >> (i as u32 * w)) & mask;
        // Sign-extend the lane field.
        let shift = 32 - w;
        ((field << shift) as i32) >> shift
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_geometry() {
        assert_eq!(SubwordMode::X1.lanes(), 1);
        assert_eq!(SubwordMode::X1.lane_bits(), 16);
        assert_eq!(SubwordMode::X2.lanes(), 2);
        assert_eq!(SubwordMode::X2.lane_bits(), 8);
        assert_eq!(SubwordMode::X4.lanes(), 4);
        assert_eq!(SubwordMode::X4.lane_bits(), 4);
        assert!(SubwordMode::ALL
            .iter()
            .all(|m| m.lanes() <= SubwordMode::MAX_LANES));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(SubwordMode::X1.to_string(), "1x16b");
        assert_eq!(SubwordMode::X2.to_string(), "2x8b");
        assert_eq!(SubwordMode::X4.to_string(), "4x4b");
    }

    #[test]
    fn mode_for_precision_covers_all_bits() {
        for b in 1..=16 {
            let p = Precision::new(b).unwrap();
            let m = SubwordMode::for_precision(p);
            assert!(m.lane_bits() >= b, "{b} bits must fit in {m}");
        }
    }

    #[test]
    fn mode_for_precision_is_most_parallel() {
        // The contract is narrowest-lane/most-parallel, not merely
        // "fits": every narrower mode must be too small for the bits.
        for b in 1..=16 {
            let p = Precision::new(b).unwrap();
            let m = SubwordMode::for_precision(p);
            for other in SubwordMode::ALL {
                if other.lane_bits() < m.lane_bits() {
                    assert!(other.lane_bits() < b, "{b} bits should have picked {other}");
                }
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip_x4() {
        let lanes = [-8, 7, -1, 3];
        let w = pack_lanes(&lanes, SubwordMode::X4).unwrap();
        assert_eq!(unpack_lanes(w, SubwordMode::X4).collect::<Vec<_>>(), lanes);
    }

    #[test]
    fn pack_unpack_roundtrip_x2() {
        let lanes = [-128, 127];
        let w = pack_lanes(&lanes, SubwordMode::X2).unwrap();
        assert_eq!(unpack_lanes(w, SubwordMode::X2).collect::<Vec<_>>(), lanes);
    }

    #[test]
    fn pack_unpack_roundtrip_x1() {
        let lanes = [-32768];
        let w = pack_lanes(&lanes, SubwordMode::X1).unwrap();
        assert_eq!(unpack_lanes(w, SubwordMode::X1).collect::<Vec<_>>(), lanes);
    }

    #[test]
    fn pack_rejects_wrong_lane_count() {
        assert!(matches!(
            pack_lanes(&[1, 2], SubwordMode::X4),
            Err(ArithError::LaneCountMismatch {
                expected: 4,
                actual: 2
            })
        ));
    }

    #[test]
    fn pack_rejects_out_of_range_lane() {
        assert!(matches!(
            pack_lanes(&[8, 0, 0, 0], SubwordMode::X4),
            Err(ArithError::OperandOutOfRange { .. })
        ));
        assert!(pack_lanes(&[-8, 0, 0, 0], SubwordMode::X4).is_ok());
    }

    #[test]
    fn exhaustive_roundtrip_x4_single_lane_range() {
        for v in -8..=7 {
            let w = pack_lanes(&[v, 0, 0, 0], SubwordMode::X4).unwrap();
            assert_eq!(unpack_lanes(w, SubwordMode::X4).next(), Some(v));
        }
    }

    #[test]
    fn exhaustive_roundtrip_every_word_every_mode() {
        // Every u16 word is a valid packed operand in every mode (all
        // two's-complement field patterns are reachable), so
        // unpack -> pack must reproduce each of the 65536 words exactly,
        // and the unpacked lanes must sit inside the mode's signed range.
        for mode in SubwordMode::ALL {
            let w = mode.lane_bits();
            let lo = -(1i32 << (w - 1));
            let hi = (1i32 << (w - 1)) - 1;
            for word in 0..=u16::MAX {
                let lanes: Vec<i32> = unpack_lanes(word, mode).collect();
                assert_eq!(lanes.len(), mode.lanes());
                for &v in &lanes {
                    assert!((lo..=hi).contains(&v), "{mode}: lane {v} out of range");
                }
                let repacked = pack_lanes(&lanes, mode)
                    .unwrap_or_else(|e| panic!("{mode}: word {word:#06x} failed: {e}"));
                assert_eq!(repacked, word, "{mode}: word {word:#06x} did not roundtrip");
            }
        }
    }
}

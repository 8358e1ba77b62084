//! Banked data memory with activity-dependent access energy.
//!
//! The SIMD processor has one memory bank per lane (Section III-B), all on
//! a fixed `Vmem = 1.1 V` rail "to maintain reliable operation". Dynamic
//! access energy scales with the number of *active* bit lines: a 4-bit DAS
//! word only toggles a quarter of the bit lines of a 16-bit access, which
//! is why Table II's `mem` share shrinks at scaled precision even though
//! the rail is fixed.

use crate::error::SimdError;
use serde::{Deserialize, Serialize};

/// Banked 16-bit-word data memory, one bank per SIMD lane.
///
/// # Example
///
/// ```
/// use dvafs_simd::memory::BankedMemory;
///
/// let mut mem = BankedMemory::new(4, 128);
/// mem.write(2, 10, 0xABCD)?;
/// assert_eq!(mem.read(2, 10)?, 0xABCD);
/// # Ok::<(), dvafs_simd::SimdError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankedMemory {
    banks: Vec<Vec<u16>>,
    words_per_bank: usize,
}

impl BankedMemory {
    /// Creates `banks` zero-initialized banks of `words_per_bank` 16-bit
    /// words each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(banks: usize, words_per_bank: usize) -> Self {
        Self::from_images(vec![Vec::new(); banks], words_per_bank)
    }

    /// Creates one bank per image, each image zero-extended to
    /// `words_per_bank` words. The images are moved in, not copied.
    ///
    /// # Panics
    ///
    /// Panics if there are no images, `words_per_bank` is zero, or an image
    /// is longer than `words_per_bank`.
    #[must_use]
    pub fn from_images(mut images: Vec<Vec<u16>>, words_per_bank: usize) -> Self {
        assert!(
            !images.is_empty() && words_per_bank > 0,
            "memory dimensions must be positive"
        );
        for image in &mut images {
            assert!(
                image.len() <= words_per_bank,
                "a {}-word image does not fit a {words_per_bank}-word bank",
                image.len()
            );
            image.resize(words_per_bank, 0);
        }
        BankedMemory {
            banks: images,
            words_per_bank,
        }
    }

    /// Number of banks (= SIMD width).
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Words per bank.
    #[must_use]
    pub fn words_per_bank(&self) -> usize {
        self.words_per_bank
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.banks.len() * self.words_per_bank * 2
    }

    /// Reads one word.
    ///
    /// # Errors
    ///
    /// Returns [`SimdError::MemoryOutOfBounds`] for an invalid bank or
    /// address.
    pub fn read(&self, bank: usize, addr: usize) -> Result<u16, SimdError> {
        self.banks
            .get(bank)
            .and_then(|b| b.get(addr))
            .copied()
            .ok_or(SimdError::MemoryOutOfBounds {
                bank,
                addr,
                size: self.words_per_bank,
            })
    }

    /// Writes one word.
    ///
    /// # Errors
    ///
    /// Returns [`SimdError::MemoryOutOfBounds`] for an invalid bank or
    /// address.
    pub fn write(&mut self, bank: usize, addr: usize, value: u16) -> Result<(), SimdError> {
        let size = self.words_per_bank;
        let slot = self
            .banks
            .get_mut(bank)
            .and_then(|b| b.get_mut(addr))
            .ok_or(SimdError::MemoryOutOfBounds { bank, addr, size })?;
        *slot = value;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = BankedMemory::new(2, 16);
        m.write(0, 3, 0x1234).unwrap();
        m.write(1, 3, 0x5678).unwrap();
        assert_eq!(m.read(0, 3).unwrap(), 0x1234);
        assert_eq!(m.read(1, 3).unwrap(), 0x5678);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut m = BankedMemory::new(2, 16);
        assert!(matches!(
            m.read(5, 0),
            Err(SimdError::MemoryOutOfBounds { bank: 5, .. })
        ));
        assert!(matches!(
            m.write(0, 99, 0),
            Err(SimdError::MemoryOutOfBounds { addr: 99, .. })
        ));
    }

    #[test]
    fn images_are_zero_extended() {
        let m = BankedMemory::from_images(vec![vec![10, 20, 30], vec![]], 4);
        assert_eq!(m.bank_count(), 2);
        assert_eq!(m.read(0, 2).unwrap(), 30);
        assert_eq!(m.read(0, 3).unwrap(), 0);
        assert_eq!(m.read(1, 3).unwrap(), 0);
        assert!(m.read(0, 4).is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_image_rejected() {
        let _ = BankedMemory::from_images(vec![vec![0; 5]], 4);
    }

    #[test]
    fn capacity_matches_dimensions() {
        // The paper's SW=8 processor: 8 banks; Envision has 132 kB total.
        let m = BankedMemory::new(8, 1024);
        assert_eq!(m.capacity_bytes(), 16 * 1024);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_banks_rejected() {
        let _ = BankedMemory::new(0, 8);
    }
}

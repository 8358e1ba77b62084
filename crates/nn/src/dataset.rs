//! Synthetic structured classification datasets.
//!
//! Substitute for MNIST / ImageNet / LFW (none of which are available in
//! this environment). Each class is a deterministic spatial pattern —
//! Gabor-like gratings with class-specific orientation and frequency plus
//! per-sample noise and jitter — so images carry real, learnable structure
//! while remaining fully reproducible. The paper's Fig. 6 metric (relative
//! accuracy vs. the full-precision network) never consults true labels, so
//! any structured input distribution exercises the same quantization
//! search; labels are still provided for absolute-accuracy experiments.

use crate::tensor::Tensor;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A deterministic synthetic labeled image set.
///
/// # Example
///
/// ```
/// use dvafs_nn::dataset::SyntheticDataset;
///
/// let d = SyntheticDataset::digits(16, 1);
/// assert_eq!(d.len(), 16);
/// assert_eq!(d.images()[0].shape(), (1, 28, 28));
/// assert!(d.labels().iter().all(|&l| l < 10));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticDataset {
    images: Vec<Tensor>,
    labels: Vec<usize>,
    classes: usize,
}

impl SyntheticDataset {
    /// Generates `samples` images of `channels x height x width` across
    /// `classes` classes: [`range`](Self::range) over `0..samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` or `classes` is zero.
    #[must_use]
    pub fn new(
        samples: usize,
        classes: usize,
        channels: usize,
        height: usize,
        width: usize,
        seed: u64,
    ) -> Self {
        SyntheticDataset::range(0..samples, classes, channels, height, width, seed)
    }

    /// Samples `samples.start..samples.end` of the set
    /// [`new`](Self::new) generates from the same arguments with
    /// `samples.end` samples, bit for bit, labels included. Sample `i`
    /// draws three values from the seeded stream and then its own noise
    /// stream, so a range replays the draws of the samples before it and
    /// synthesizes only its own images: concatenating the ranges of any
    /// partition of `0..n` gives the `n`-sample set.
    ///
    /// # Panics
    ///
    /// Panics if the range or `classes` is empty.
    #[must_use]
    pub fn range(
        samples: Range<usize>,
        classes: usize,
        channels: usize,
        height: usize,
        width: usize,
        seed: u64,
    ) -> Self {
        assert!(
            !samples.is_empty() && classes > 0,
            "dataset dimensions must be positive"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // The Gaussian envelope depends only on the pixel, so it is one
        // `height x width` table per dataset (the same `f32` expression,
        // so the same bits).
        let envelope: Vec<f32> = (0..height)
            .flat_map(|y| {
                (0..width).map(move |x| {
                    let dy = y as f32 - height as f32 / 2.0;
                    let dx = x as f32 - width as f32 / 2.0;
                    (-(dx * dx + dy * dy) / (2.0 * (width as f32 / 3.0).powi(2))).exp()
                })
            })
            .collect();
        let mut images = Vec::with_capacity(samples.len());
        let mut labels = Vec::with_capacity(samples.len());
        for i in 0..samples.end {
            let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let jitter: f32 = rng.gen_range(0.9..1.1);
            let noise_seed: u64 = rng.gen();
            if i < samples.start {
                continue;
            }
            let class = i % classes;
            let mut noise_rng = rand::rngs::StdRng::seed_from_u64(noise_seed);
            // Class-specific orientation and spatial frequency.
            let angle = std::f32::consts::PI * class as f32 / classes as f32;
            let freq = (0.15 + 0.55 * (class as f32 / classes as f32)) * jitter;
            let (s, c) = angle.sin_cos();
            let img = Tensor::from_fn(channels, height, width, |ch, y, x| {
                let u = (x as f32 * c + y as f32 * s) * freq;
                let carrier = (u + phase + ch as f32 * 0.7).sin();
                carrier * envelope[y * width + x] + noise_rng.gen_range(-0.12..0.12)
            });
            images.push(img);
            labels.push(class);
        }
        SyntheticDataset {
            images,
            labels,
            classes,
        }
    }

    /// A 10-class digit-like set: `1 x 28 x 28` (the MNIST geometry used
    /// for LeNet-5).
    #[must_use]
    pub fn digits(samples: usize, seed: u64) -> Self {
        SyntheticDataset::new(samples, 10, 1, 28, 28, seed)
    }

    /// An ImageNet-like RGB set with configurable resolution (AlexNet uses
    /// 227, VGG16 224; tests use smaller sizes).
    #[must_use]
    pub fn image_like(samples: usize, size: usize, classes: usize, seed: u64) -> Self {
        SyntheticDataset::new(samples, classes, 3, size, size, seed)
    }

    /// The images.
    #[must_use]
    pub fn images(&self) -> &[Tensor] {
        &self.images
    }

    /// The labels (class index per image).
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the set is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticDataset::digits(8, 5);
        let b = SyntheticDataset::digits(8, 5);
        assert_eq!(a, b);
    }

    /// Any partition of `0..n` into ranges — single samples, ragged
    /// tails, the `DEFAULT_BATCH_SIZE` chunks `dvafs serve` uses —
    /// concatenates to `new`'s set bit for bit, labels included.
    #[test]
    fn ranges_concatenate_to_the_whole_set() {
        let (n, classes, channels, h, w, seed) = (23, 10, 3, 9, 7, 11);
        let whole = SyntheticDataset::new(n, classes, channels, h, w, seed);
        let bits = |images: &[Tensor]| -> Vec<u32> {
            images
                .iter()
                .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        let partitions: [Vec<usize>; 6] = [
            vec![n],
            vec![1, n],
            vec![n - 1, n],
            vec![16, n],
            vec![2, 3, 10, 21, n],
            (1..=n).collect(),
        ];
        for ends in partitions {
            let (mut images, mut labels) = (Vec::new(), Vec::new());
            let mut start = 0;
            for &end in &ends {
                let part = SyntheticDataset::range(start..end, classes, channels, h, w, seed);
                assert_eq!(part.len(), end - start);
                assert_eq!(part.classes(), classes);
                images.extend_from_slice(part.images());
                labels.extend_from_slice(part.labels());
                start = end;
            }
            assert_eq!(bits(&images), bits(whole.images()), "ends {ends:?}");
            assert_eq!(labels, whole.labels(), "ends {ends:?}");
        }
    }

    #[test]
    fn labels_cycle_through_classes() {
        let d = SyntheticDataset::new(8, 4, 1, 8, 8, 1);
        assert_eq!(d.labels(), &[0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn different_classes_produce_different_images() {
        let d = SyntheticDataset::new(2, 2, 1, 16, 16, 2);
        let diff: f32 = d.images()[0]
            .as_slice()
            .iter()
            .zip(d.images()[1].as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 1.0,
            "classes should be visually distinct, diff={diff}"
        );
    }

    #[test]
    fn image_like_has_rgb_channels() {
        let d = SyntheticDataset::image_like(2, 32, 100, 3);
        assert_eq!(d.images()[0].shape(), (3, 32, 32));
        assert_eq!(d.classes(), 100);
    }

    #[test]
    fn values_are_bounded() {
        let d = SyntheticDataset::digits(4, 9);
        for img in d.images() {
            assert!(img.max_abs() <= 1.2);
        }
    }
}

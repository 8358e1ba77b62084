//! Sequential networks with per-layer mixed precision.
//!
//! The key observation exploited by DVAFS (paper Fig. 6, \[22\]) is that the
//! required fixed-point precision varies **per layer**. [`QuantConfig`]
//! carries one weight/activation bit-width pair per layer and
//! [`Network::forward_batch`] runs the whole cascade on the integer MAC
//! path at that mixed precision.
//!
//! There is one layer walk: [`Network::forward_layers`] carries a chunk of
//! samples through a range of layers, each conv/dense layer fusing the
//! chunk into one wide GEMM. [`Network::forward_batch`] is its
//! whole-network case, the precision search runs it from the scanned
//! layer on (and its prefix pass one segment at a time), and the
//! dataset-level calls walk [`DEFAULT_BATCH_SIZE`]-sample chunks of it on
//! an [`Executor`].

use crate::dataset::SyntheticDataset;
use crate::error::NnError;
use crate::kernel::{with_thread_scratch, NnKernel, Scratch, DEFAULT_BATCH_SIZE};
use crate::layers::{Layer, LayerStats};
use crate::tensor::Tensor;
use dvafs_executor::Executor;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Bit widths for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerPrecision {
    /// Weight quantization in bits (`1..=16`).
    pub weights: u32,
    /// Input-activation quantization in bits (`1..=16`).
    pub activations: u32,
}

/// Per-layer quantization configuration of a network.
///
/// # Example
///
/// ```
/// use dvafs_nn::QuantConfig;
///
/// let mut cfg = QuantConfig::uniform(5, 16, 16);
/// cfg.set_layer(2, 4, 6);
/// assert_eq!(cfg.layer(2).weights, 4);
/// assert_eq!(cfg.layer(0).weights, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantConfig {
    entries: Vec<LayerPrecision>,
}

impl QuantConfig {
    /// Uniform precision for every layer.
    #[must_use]
    pub fn uniform(layers: usize, weights: u32, activations: u32) -> Self {
        QuantConfig {
            entries: vec![
                LayerPrecision {
                    weights,
                    activations
                };
                layers
            ],
        }
    }

    /// Number of layer entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the configuration is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The precision of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn layer(&self, i: usize) -> LayerPrecision {
        self.entries[i]
    }

    /// Overrides layer `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn set_layer(&mut self, i: usize, weights: u32, activations: u32) {
        self.entries[i] = LayerPrecision {
            weights,
            activations,
        };
    }

    /// The largest precision any layer requests (what the data path must
    /// support at that moment).
    #[must_use]
    pub fn max_bits(&self) -> u32 {
        self.entries
            .iter()
            .map(|e| e.weights.max(e.activations))
            .max()
            .unwrap_or(16)
    }
}

/// A sequential CNN.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
    /// The MAC kernel every forward pass executes on (execution strategy,
    /// not model identity: ignored by `PartialEq` and serialization, and
    /// guaranteed to never change a number — see [`crate::kernel`]).
    #[serde(skip)]
    kernel: NnKernel,
}

impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.layers == other.layers
    }
}

impl Network {
    /// Creates a network from a layer cascade.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "a network needs at least one layer");
        Network {
            name: name.into(),
            layers,
            kernel: NnKernel::default(),
        }
    }

    /// This network with an explicit MAC kernel (builder form).
    #[must_use]
    pub fn with_kernel(mut self, kernel: NnKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The network's name (e.g. `"LeNet-5"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All layers.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layers (e.g. for pruning).
    #[must_use]
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Layer count (including ReLU/pool stages).
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Indices of layers that carry weights (conv/dense) — the layers that
    /// appear on Fig. 6's x axis.
    #[must_use]
    pub fn parameterized_layers(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_parameterized())
            .map(|(i, _)| i)
            .collect()
    }

    /// Runs a whole chunk of samples through the cascade, returning each
    /// sample's output tensor and per-layer statistics in input order:
    /// [`forward_layers`](Self::forward_layers) over every layer.
    ///
    /// The chunk is carried layer-by-layer: each parameterized layer
    /// fuses every sample's im2col panel into **one wide GEMM**, so the
    /// per-`(layer, bits)` packed weight panel streams through cache once
    /// per chunk instead of once per sample. Every output element is still
    /// an independent exact-`i64` dot over the same operands — outputs,
    /// guard-skip counters and argmaxes are **bit-identical** to running
    /// each sample as a chunk of one, and to the naive kernel.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ConfigLengthMismatch`] when `config` does not
    /// have one entry per layer, and propagates layer errors in
    /// `(layer, sample)` order.
    pub fn forward_batch(
        &self,
        inputs: &[Tensor],
        config: &QuantConfig,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, Vec<LayerStats>)>, NnError> {
        self.forward_layers(0..self.layers.len(), inputs, config, scratch)
    }

    /// Carries a whole chunk through the layers with indices in `layers`,
    /// returning each sample's output and the statistics of every layer
    /// in the range — the crate's one layer walk. The inputs are only
    /// read: the range's first layer builds the chunk's next tensors, and
    /// from there on ReLU layers clamp them in place. `inputs` must be the
    /// tensors that entered `layers.start` in a full run; since layers are
    /// a pure function of their input and precision, running `0..k` and
    /// then `k..n` on its outputs is bit-identical to `0..n` under the
    /// same `config`, which is how the precision search resumes from
    /// cached activations. An empty range returns the inputs unchanged.
    ///
    /// # Errors
    ///
    /// Same as [`forward_batch`](Self::forward_batch).
    ///
    /// # Panics
    ///
    /// Panics when `layers` is not a range within `0..=layer_count()`.
    pub fn forward_layers(
        &self,
        layers: Range<usize>,
        inputs: &[Tensor],
        config: &QuantConfig,
        scratch: &mut Scratch,
    ) -> Result<Vec<(Tensor, Vec<LayerStats>)>, NnError> {
        assert!(
            layers.start <= layers.end && layers.end <= self.layers.len(),
            "layer range {layers:?} outside 0..{}",
            self.layers.len()
        );
        if config.len() != self.layers.len() {
            return Err(NnError::ConfigLengthMismatch {
                layers: self.layers.len(),
                entries: config.len(),
            });
        }
        if layers.is_empty() {
            return Ok(inputs.iter().map(|x| (x.clone(), Vec::new())).collect());
        }
        let mut xs: Vec<Tensor> = Vec::new();
        let mut stats: Vec<Vec<LayerStats>> = vec![Vec::with_capacity(layers.len()); inputs.len()];
        for i in layers.clone() {
            let (layer, p) = (&self.layers[i], config.layer(i));
            let (wbits, abits) = (p.weights, p.activations);
            // The first layer reads the caller's tensors; later layers run
            // on the chunk this call owns, so a ReLU clamps it in place.
            let layer_stats = if i == layers.start {
                let outs = layer.forward_batch_with(inputs, wbits, abits, self.kernel, scratch)?;
                let (outs, layer_stats) = outs.into_iter().unzip();
                xs = outs;
                layer_stats
            } else {
                layer.forward_owned(&mut xs, wbits, abits, self.kernel, scratch)?
            };
            for (per_sample, st) in stats.iter_mut().zip(layer_stats) {
                per_sample.push(st);
            }
        }
        Ok(xs.into_iter().zip(stats).collect())
    }

    /// Predictions over a whole dataset: [`predict_all_with`] on a serial
    /// executor.
    ///
    /// [`predict_all_with`]: Self::predict_all_with
    ///
    /// # Errors
    ///
    /// Propagates [`forward_batch`](Self::forward_batch) errors (lowest
    /// chunk first).
    pub fn predict_all(
        &self,
        data: &SyntheticDataset,
        config: &QuantConfig,
    ) -> Result<Vec<usize>, NnError> {
        self.predict_all_with(data, config, &Executor::serial())
    }

    /// Predictions over a whole dataset, run in parallel on `exec`:
    /// workers claim whole [`DEFAULT_BATCH_SIZE`]-sample chunks and carry
    /// each through [`forward_batch`](Self::forward_batch). Results merge
    /// in sample order, so every prediction is bit-identical for any
    /// thread count. Each worker reuses one thread-local [`Scratch`]
    /// across everything it claims (buffer contents never outlive a single
    /// pass, so reuse cannot affect results).
    ///
    /// # Errors
    ///
    /// Propagates [`forward_batch`](Self::forward_batch) errors (lowest
    /// chunk first, matching serial semantics).
    pub fn predict_all_with(
        &self,
        data: &SyntheticDataset,
        config: &QuantConfig,
        exec: &Executor,
    ) -> Result<Vec<usize>, NnError> {
        let chunks: Vec<&[Tensor]> = data.images().chunks(DEFAULT_BATCH_SIZE).collect();
        let per_chunk = exec.try_par_map_indexed(&chunks, |_, chunk| {
            with_thread_scratch(|scratch| {
                let outs = self.forward_batch(chunk, config, scratch)?;
                Ok::<Vec<usize>, NnError>(outs.iter().map(|(out, _)| out.argmax()).collect())
            })
        })?;
        Ok(per_chunk.into_iter().flatten().collect())
    }

    /// Heap bytes of the weight panels every layer has packed so far (see
    /// [`Layer::packed_bytes`]): the memory a long-lived network grows
    /// beyond its `f32` weights as it runs at new widths.
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.layers.iter().map(Layer::packed_bytes).sum()
    }

    /// Quantizes and packs every parameterized layer's weights for the
    /// widths in `config`, ahead of the first forward pass. Packing is
    /// memoized per (layer, width) — see
    /// [`Layer::warm_weights`](crate::layers::Layer::warm_weights) — so a
    /// long-lived owner (`dvafs serve`) pays the cost once per model and
    /// width, not once per request.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ConfigLengthMismatch`] when `config` does not
    /// cover every layer and [`NnError::InvalidBits`] for widths outside
    /// `1..=16`.
    pub fn warm_weights(&self, config: &QuantConfig) -> Result<(), NnError> {
        if config.len() != self.layers.len() {
            return Err(NnError::ConfigLengthMismatch {
                layers: self.layers.len(),
                entries: config.len(),
            });
        }
        for (i, layer) in self.layers.iter().enumerate() {
            layer.warm_weights(config.layer(i).weights)?;
        }
        Ok(())
    }

    /// Centers the network's output logits on a calibration set: the mean
    /// full-precision logit of every class is subtracted from the final
    /// dense layer's bias.
    ///
    /// Pseudo-trained (random) deep networks often collapse to one
    /// dominant class, which makes the *relative accuracy* metric
    /// degenerate (any quantization "agrees"). Centering restores diverse,
    /// small-margin decisions — the regime trained classifiers operate in
    /// and the one the paper's Fig. 6 search probes. The calibration set
    /// runs in [`DEFAULT_BATCH_SIZE`]-sample chunks and the logits are
    /// summed in sample order.
    ///
    /// # Panics
    ///
    /// Panics if inference fails or the final layer is not dense.
    pub fn calibrate_logits(&mut self, data: &SyntheticDataset) {
        let cfg = QuantConfig::uniform(self.layer_count(), 16, 16);
        let mut sums: Option<Vec<f64>> = None;
        let mut scratch = Scratch::new();
        for chunk in data.images().chunks(DEFAULT_BATCH_SIZE) {
            let outs = self
                .forward_batch(chunk, &cfg, &mut scratch)
                .expect("calibration inference");
            for (out, _) in outs {
                let sums = sums.get_or_insert_with(|| vec![0.0; out.len()]);
                for (s, &v) in sums.iter_mut().zip(out.as_slice()) {
                    *s += f64::from(v);
                }
            }
        }
        let means: Vec<f32> = sums
            .expect("dataset is non-empty")
            .into_iter()
            .map(|s| (s / data.len() as f64) as f32)
            .collect();
        let last = self
            .layers
            .iter_mut()
            .rev()
            .find_map(|l| match l {
                Layer::Dense(d) => Some(d),
                _ => None,
            })
            .expect("network ends in a dense classifier");
        for (b, m) in last.bias_mut().iter_mut().zip(means.iter()) {
            *b -= m;
        }
    }

    /// Fraction of inputs on which `config` predicts the same class as
    /// `reference_config` — the paper's *relative accuracy* metric
    /// (1.0 = identical behaviour, the 99 % criterion of Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if inference fails (configs are assumed validated).
    #[must_use]
    pub fn relative_accuracy(
        &self,
        data: &SyntheticDataset,
        config: &QuantConfig,
        reference_config: &QuantConfig,
    ) -> f64 {
        let reference = self
            .predict_all(data, reference_config)
            .expect("reference inference must succeed");
        self.relative_accuracy_vs_with(data, config, &reference, &Executor::serial())
    }

    /// Like [`relative_accuracy`](Self::relative_accuracy), but against
    /// precomputed reference predictions (avoids re-running the reference)
    /// and with the quantized inference parallelized over samples on
    /// `exec`; agreement counting is order-independent, so the score is
    /// bit-identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if inference fails or lengths mismatch.
    #[must_use]
    pub fn relative_accuracy_vs_with(
        &self,
        data: &SyntheticDataset,
        config: &QuantConfig,
        reference: &[usize],
        exec: &Executor,
    ) -> f64 {
        assert_eq!(reference.len(), data.len(), "reference length mismatch");
        let got = self
            .predict_all_with(data, config, exec)
            .expect("quantized inference must succeed");
        let agree = got
            .iter()
            .zip(reference.iter())
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / reference.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense};

    fn tiny_net() -> Network {
        Network::new(
            "tiny",
            vec![
                Layer::Conv2d(Conv2d::random(1, 4, 3, 1, 0, 100)),
                Layer::ReLU,
                Layer::MaxPool2d { k: 2, stride: 2 },
                Layer::Dense(Dense::random(4 * 3 * 3, 4, 101)),
            ],
        )
    }

    #[test]
    fn forward_produces_logits() {
        let net = tiny_net();
        let cfg = QuantConfig::uniform(net.layer_count(), 16, 16);
        let input = Tensor::random(1, 8, 8, 1);
        let (out, stats) = net
            .forward_batch(&[input], &cfg, &mut Scratch::new())
            .unwrap()
            .remove(0);
        assert_eq!(out.shape(), (1, 1, 4));
        assert_eq!(stats.len(), 4);
        assert!(stats[0].macs > 0);
        assert_eq!(stats[1].macs, 0); // relu performs no MACs
    }

    #[test]
    fn config_length_is_validated() {
        let net = tiny_net();
        let cfg = QuantConfig::uniform(2, 16, 16);
        let input = Tensor::random(1, 8, 8, 1);
        assert!(matches!(
            net.forward_batch(&[input], &cfg, &mut Scratch::new()),
            Err(NnError::ConfigLengthMismatch {
                layers: 4,
                entries: 2
            })
        ));
    }

    #[test]
    fn parameterized_layers_are_conv_and_dense() {
        let net = tiny_net();
        assert_eq!(net.parameterized_layers(), vec![0, 3]);
    }

    #[test]
    fn relative_accuracy_is_one_against_itself() {
        let net = tiny_net();
        let data = crate::dataset::SyntheticDataset::new(6, 4, 1, 8, 8, 7);
        let cfg = QuantConfig::uniform(net.layer_count(), 16, 16);
        assert_eq!(net.relative_accuracy(&data, &cfg, &cfg), 1.0);
    }

    #[test]
    fn one_bit_everywhere_degrades_agreement() {
        let net = tiny_net();
        let data = crate::dataset::SyntheticDataset::new(32, 4, 1, 8, 8, 8);
        let full = QuantConfig::uniform(net.layer_count(), 16, 16);
        let brutal = QuantConfig::uniform(net.layer_count(), 1, 1);
        let acc = net.relative_accuracy(&data, &brutal, &full);
        assert!(
            acc < 1.0,
            "1-bit quantization should break agreement, acc={acc}"
        );
    }

    #[test]
    fn quant_config_accessors() {
        let mut cfg = QuantConfig::uniform(3, 8, 10);
        assert_eq!(cfg.max_bits(), 10);
        cfg.set_layer(1, 16, 2);
        assert_eq!(cfg.max_bits(), 16);
        assert_eq!(cfg.layer(1).activations, 2);
        assert!(!cfg.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_network_rejected() {
        let _ = Network::new("empty", vec![]);
    }

    #[test]
    fn calibration_diversifies_predictions() {
        let mut net = tiny_net();
        let data = crate::dataset::SyntheticDataset::new(24, 4, 1, 8, 8, 99);
        let cfg = QuantConfig::uniform(net.layer_count(), 16, 16);
        net.calibrate_logits(&data);
        let preds = net.predict_all(&data, &cfg).unwrap();
        let distinct: std::collections::HashSet<usize> = preds.into_iter().collect();
        assert!(distinct.len() >= 2, "calibrated net still degenerate");
    }

    #[test]
    fn calibration_centers_mean_logits() {
        let mut net = tiny_net();
        let data = crate::dataset::SyntheticDataset::new(12, 4, 1, 8, 8, 98);
        net.calibrate_logits(&data);
        let cfg = QuantConfig::uniform(net.layer_count(), 16, 16);
        let mut sums = vec![0.0f64; 4];
        let outs = net
            .forward_batch(data.images(), &cfg, &mut Scratch::new())
            .unwrap();
        for (out, _) in outs {
            for (s, &v) in sums.iter_mut().zip(out.as_slice()) {
                *s += f64::from(v);
            }
        }
        for s in sums {
            let mean = s / 12.0;
            assert!(mean.abs() < 0.02, "class mean logit {mean} not centered");
        }
    }
}

//! Per-layer minimum-precision search (the generator behind Fig. 6).
//!
//! Following \[22\], each layer's weights (Fig. 6a) and input feature maps
//! (Fig. 6b) are quantized independently while the rest of the network
//! stays at full precision; the minimum bit width that keeps *relative
//! accuracy* (agreement with the full-precision network) at or above a
//! target — 99 % in the paper — is that layer's requirement. A DVAFS
//! processor then runs every layer at its own precision.
//!
//! The end-to-end experiment is the `fig6` scenario of the registry
//! (`dvafs::scenario`): `dvafs run fig6` (add `--fast` for the CI-sized
//! configuration) from `crates/bench`.
//!
//! The search's inference hot path runs on the network's MAC kernel
//! ([`crate::kernel::NnKernel`], the subword-packed GEMM by default with
//! per-layer weight panels memoized across the scan; `Network::with_kernel`
//! selects the naive oracle), in [`DEFAULT_BATCH_SIZE`]-sample chunks
//! carried layer by layer. The kernel never changes a search result —
//! only wall time (`tests/kernel_equivalence.rs` and
//! `tests/batch_equivalence.rs` pin the forward it runs on).

use crate::dataset::SyntheticDataset;
use crate::kernel::{with_thread_scratch, DEFAULT_BATCH_SIZE};
use crate::network::{Network, QuantConfig};
use crate::tensor::Tensor;
use dvafs_executor::Executor;
use serde::{Deserialize, Serialize};

/// Selects how the per-layer scan evaluates candidate bit widths.
///
/// Mirroring [`crate::kernel::NnKernel`] (and `netlist::Engine` in
/// `dvafs-arith`), the strategy is an execution choice, never a semantic
/// one: both strategies produce bit-identical [`LayerRequirement`]s for
/// every network, operand, target and thread count (property-tested in
/// `tests/search_equivalence.rs`), so only wall time changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// The original full-forward rescan — every candidate width re-runs
    /// the whole cascade. Retained verbatim as the **reference oracle**.
    Rescan,
    /// The default: the full-precision prefix of each scanned layer is
    /// computed once per `(sample, layer)` and reused across all candidate
    /// widths — turning the search from O(layers x widths x full-forward)
    /// into O(layers x widths x suffix-forward). Each candidate runs the
    /// network's one forward from the scanned layer on, which quantizes
    /// that layer's input again (nothing is memoized across widths).
    #[default]
    Incremental,
}

/// Which operand of a layer is being scaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Layer weights (Fig. 6a).
    Weights,
    /// Layer input feature maps / activations (Fig. 6b).
    Activations,
}

/// Result of the search for one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerRequirement {
    /// Index of the layer inside the network.
    pub layer_index: usize,
    /// Human-readable layer name.
    pub layer_name: String,
    /// Minimum bits meeting the target.
    pub bits: u32,
    /// Relative accuracy achieved at that width.
    pub relative_accuracy: f64,
}

/// Number of distinct classes a network predicts over a dataset at full
/// precision — a degeneracy check for pseudo-trained networks.
///
/// A collapsed classifier (1–2 distinct classes) makes the relative-accuracy
/// metric meaningless: any quantization "agrees" with the reference. Such
/// networks should be passed through [`Network::calibrate_logits`] before a
/// precision search.
///
/// # Panics
///
/// Panics if inference fails.
#[must_use]
pub fn prediction_diversity(net: &Network, data: &SyntheticDataset) -> usize {
    let cfg = QuantConfig::uniform(net.layer_count(), 16, 16);
    let preds = net.predict_all(data, &cfg).expect("inference must succeed");
    let distinct: std::collections::HashSet<usize> = preds.into_iter().collect();
    distinct.len()
}

/// Per-layer minimum-bit search at a relative-accuracy target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionSearch {
    target: f64,
    full_bits: u32,
    /// Execution strategy, not search identity: guaranteed to never change
    /// a [`LayerRequirement`], so it is skipped by serialization like
    /// `Network`'s kernel field.
    #[serde(skip)]
    strategy: SearchStrategy,
}

impl PrecisionSearch {
    /// Creates a search with the paper's 99 % relative-accuracy target.
    #[must_use]
    pub fn new() -> Self {
        PrecisionSearch {
            target: 0.99,
            full_bits: 16,
            strategy: SearchStrategy::default(),
        }
    }

    /// Overrides the scan strategy (builder form).
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The scan strategy candidate widths are evaluated on.
    #[must_use]
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy
    }

    /// Overrides the relative-accuracy target (`0 < target <= 1`).
    ///
    /// # Panics
    ///
    /// Panics if the target is outside `(0, 1]`.
    #[must_use]
    pub fn with_target(mut self, target: f64) -> Self {
        assert!(target > 0.0 && target <= 1.0, "target must be in (0, 1]");
        self.target = target;
        self
    }

    /// The relative-accuracy target.
    #[must_use]
    pub fn target(&self) -> f64 {
        self.target
    }

    /// Finds, for every parameterized layer, the minimum bit width of
    /// `operand` that keeps relative accuracy at or above the target while
    /// all other layers stay at full precision.
    ///
    /// Accuracy is not perfectly monotone in bits, so the scan walks down
    /// from full precision and stops at the last width that still meets
    /// the target.
    #[must_use]
    pub fn search(
        &self,
        net: &Network,
        data: &SyntheticDataset,
        operand: Operand,
    ) -> Vec<LayerRequirement> {
        self.search_with(net, data, operand, &Executor::serial())
    }

    /// Like [`search`](Self::search), with the per-layer scans distributed
    /// over `exec`'s workers (layers are independent: each scans with the
    /// rest of the network at full precision) and the reference inference
    /// parallelized over samples. Scan depth varies per layer, so workers
    /// claim layers dynamically; results merge in layer order and are
    /// bit-identical to a serial search for any thread count.
    #[must_use]
    pub fn search_with(
        &self,
        net: &Network,
        data: &SyntheticDataset,
        operand: Operand,
        exec: &Executor,
    ) -> Vec<LayerRequirement> {
        match self.strategy {
            SearchStrategy::Rescan => self.search_rescan(net, data, operand, exec),
            SearchStrategy::Incremental => self.search_incremental(net, data, operand, exec),
        }
    }

    /// The original full-forward scan, retained verbatim as the reference
    /// oracle [`SearchStrategy::Incremental`] is proven against.
    fn search_rescan(
        &self,
        net: &Network,
        data: &SyntheticDataset,
        operand: Operand,
        exec: &Executor,
    ) -> Vec<LayerRequirement> {
        let full = QuantConfig::uniform(net.layer_count(), self.full_bits, self.full_bits);
        let reference = net
            .predict_all_with(data, &full, exec)
            .expect("full-precision inference must succeed");
        let layers = net.parameterized_layers();
        // The scans nest a per-sample map inside the per-layer map, both on
        // `exec`: a thread that waits on a layer's samples helps with other
        // published maps meanwhile, so nesting needs no split of the
        // workers. (Determinism is unaffected — thread counts never change
        // results.)
        exec.par_map_indexed(&layers, |_, &li| {
            let mut best_bits = self.full_bits;
            let mut best_acc = 1.0;
            for bits in (1..self.full_bits).rev() {
                let mut cfg = full.clone();
                match operand {
                    Operand::Weights => cfg.set_layer(li, bits, self.full_bits),
                    Operand::Activations => cfg.set_layer(li, self.full_bits, bits),
                }
                let acc = net.relative_accuracy_vs_with(data, &cfg, &reference, exec);
                if acc >= self.target {
                    best_bits = bits;
                    best_acc = acc;
                } else {
                    break;
                }
            }
            LayerRequirement {
                layer_index: li,
                layer_name: net.layers()[li].name(),
                bits: best_bits,
                relative_accuracy: best_acc,
            }
        })
    }

    /// The prefix-cached scan behind [`SearchStrategy::Incremental`].
    ///
    /// The scan only ever perturbs one layer, so for every sample the
    /// full-precision cascade through layers `0..li` is **identical**
    /// across all candidate widths of layer `li`. One full-precision pass
    /// over the data records, per sample, (a) the tensor entering every
    /// parameterized layer and (b) the final argmax — which doubles as the
    /// reference prediction the rescan oracle computes via
    /// `predict_all_with`, on the same per-layer code path and therefore
    /// bit-identical. The inputs are kept layer-major (one sample-ordered
    /// list per parameterized layer), so a chunk of them is one contiguous
    /// slice, and each candidate width costs one
    /// [`Network::forward_batch_from`] from `li`, chunk by chunk.
    fn search_incremental(
        &self,
        net: &Network,
        data: &SyntheticDataset,
        operand: Operand,
        exec: &Executor,
    ) -> Vec<LayerRequirement> {
        let full = QuantConfig::uniform(net.layer_count(), self.full_bits, self.full_bits);
        let layers = net.parameterized_layers();
        // Prefix pass: one full-precision forward over the data, walking
        // the same layer calls `Network::forward_batch` makes, keeping each
        // parameterized layer's input instead of dropping it. Workers claim
        // whole chunks and carry them layer-by-layer (one wide GEMM per
        // layer).
        let images: Vec<&[Tensor]> = data.images().chunks(DEFAULT_BATCH_SIZE).collect();
        let per_chunk: Vec<(Vec<Vec<Tensor>>, Vec<usize>)> =
            exec.par_map_indexed(&images, |_, chunk| {
                with_thread_scratch(|scratch| {
                    let mut xs: Vec<Tensor> = chunk.to_vec();
                    let mut inputs = Vec::with_capacity(layers.len());
                    for (i, layer) in net.layers().iter().enumerate() {
                        let p = full.layer(i);
                        let (wbits, abits, kernel) = (p.weights, p.activations, net.kernel());
                        if layer.is_parameterized() {
                            let outs = layer
                                .forward_batch_with(&xs, wbits, abits, kernel, scratch)
                                .expect("full-precision inference must succeed");
                            let outs = outs.into_iter().map(|(out, _)| out).collect();
                            inputs.push(std::mem::replace(&mut xs, outs));
                        } else {
                            layer
                                .forward_owned(&mut xs, wbits, abits, kernel, scratch)
                                .expect("full-precision inference must succeed");
                        }
                    }
                    (inputs, xs.iter().map(Tensor::argmax).collect())
                })
            });
        let mut prefix: Vec<Vec<Tensor>> = vec![Vec::with_capacity(data.len()); layers.len()];
        let mut reference = Vec::with_capacity(data.len());
        for (inputs, argmaxes) in per_chunk {
            for (layer_inputs, chunk_inputs) in prefix.iter_mut().zip(inputs) {
                layer_inputs.extend(chunk_inputs);
            }
            reference.extend(argmaxes);
        }
        // Nested like the rescan oracle (see `search_rescan`): outer over
        // layers, inner over sample chunks, both on `exec`.
        exec.par_map_indexed(&layers, |rank, &li| {
            let chunks: Vec<(&[Tensor], &[usize])> = prefix[rank]
                .chunks(DEFAULT_BATCH_SIZE)
                .zip(reference.chunks(DEFAULT_BATCH_SIZE))
                .collect();
            let mut best_bits = self.full_bits;
            let mut best_acc = 1.0;
            for bits in (1..self.full_bits).rev() {
                let mut cfg = full.clone();
                match operand {
                    Operand::Weights => cfg.set_layer(li, bits, self.full_bits),
                    Operand::Activations => cfg.set_layer(li, self.full_bits, bits),
                }
                let agree: usize = exec
                    .par_map_indexed(&chunks, |_, &(inputs, want)| {
                        with_thread_scratch(|scratch| {
                            net.forward_batch_from(li, inputs, &cfg, scratch)
                                .expect("scan inference must succeed")
                                .iter()
                                .zip(want)
                                .filter(|((out, _), &want)| out.argmax() == want)
                                .count()
                        })
                    })
                    .into_iter()
                    .sum();
                let acc = agree as f64 / reference.len() as f64;
                if acc >= self.target {
                    best_bits = bits;
                    best_acc = acc;
                } else {
                    break;
                }
            }
            LayerRequirement {
                layer_index: li,
                layer_name: net.layers()[li].name(),
                bits: best_bits,
                relative_accuracy: best_acc,
            }
        })
    }

    /// Builds a mixed-precision configuration from independent weight and
    /// activation requirements (other layers' entries stay at full
    /// precision).
    #[must_use]
    pub fn to_config(
        &self,
        net: &Network,
        weights: &[LayerRequirement],
        activations: &[LayerRequirement],
    ) -> QuantConfig {
        let mut cfg = QuantConfig::uniform(net.layer_count(), self.full_bits, self.full_bits);
        for w in weights {
            let a = activations
                .iter()
                .find(|a| a.layer_index == w.layer_index)
                .map_or(self.full_bits, |a| a.bits);
            cfg.set_layer(w.layer_index, w.bits, a);
        }
        cfg
    }
}

impl Default for PrecisionSearch {
    fn default() -> Self {
        PrecisionSearch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Layer};

    fn tiny_net() -> Network {
        Network::new(
            "tiny",
            vec![
                Layer::Conv2d(Conv2d::random(1, 6, 3, 1, 0, 40)),
                Layer::ReLU,
                Layer::MaxPool2d { k: 2, stride: 2 },
                Layer::Dense(Dense::random(6 * 5 * 5, 8, 41)),
                Layer::ReLU,
                Layer::Dense(Dense::random(8, 4, 42)),
            ],
        )
    }

    fn data() -> SyntheticDataset {
        SyntheticDataset::new(24, 4, 1, 12, 12, 50)
    }

    #[test]
    fn search_returns_one_entry_per_parameterized_layer() {
        let net = tiny_net();
        let reqs = PrecisionSearch::new().search(&net, &data(), Operand::Weights);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].layer_index, 0);
        assert!(reqs.iter().all(|r| (1..=16).contains(&r.bits)));
    }

    #[test]
    fn requirements_meet_the_target() {
        let net = tiny_net();
        let d = data();
        let search = PrecisionSearch::new().with_target(0.9);
        for op in [Operand::Weights, Operand::Activations] {
            for r in search.search(&net, &d, op) {
                assert!(
                    r.relative_accuracy >= 0.9,
                    "{} at {} bits only reaches {}",
                    r.layer_name,
                    r.bits,
                    r.relative_accuracy
                );
            }
        }
    }

    #[test]
    fn looser_target_never_needs_more_bits() {
        let net = tiny_net();
        let d = data();
        let strict = PrecisionSearch::new()
            .with_target(0.99)
            .search(&net, &d, Operand::Weights);
        let loose = PrecisionSearch::new()
            .with_target(0.75)
            .search(&net, &d, Operand::Weights);
        for (s, l) in strict.iter().zip(loose.iter()) {
            assert!(
                l.bits <= s.bits,
                "{}: loose {} > strict {}",
                s.layer_name,
                l.bits,
                s.bits
            );
        }
    }

    #[test]
    fn parallel_search_is_bit_identical_to_serial() {
        let net = tiny_net();
        let d = data();
        let search = PrecisionSearch::new().with_target(0.9);
        for op in [Operand::Weights, Operand::Activations] {
            let serial = search.search(&net, &d, op);
            let parallel = search.search_with(&net, &d, op, &Executor::new(4));
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn to_config_merges_weight_and_activation_requirements() {
        let net = tiny_net();
        let d = data();
        let search = PrecisionSearch::new().with_target(0.8);
        let w = search.search(&net, &d, Operand::Weights);
        let a = search.search(&net, &d, Operand::Activations);
        let cfg = search.to_config(&net, &w, &a);
        assert_eq!(cfg.len(), net.layer_count());
        for r in &w {
            assert_eq!(cfg.layer(r.layer_index).weights, r.bits);
        }
        // The merged config should still score near the target.
        let full = QuantConfig::uniform(net.layer_count(), 16, 16);
        let acc = net.relative_accuracy(&d, &cfg, &full);
        assert!(acc >= 0.5, "merged config collapsed to {acc}");
    }

    #[test]
    #[should_panic(expected = "target must be in")]
    fn invalid_target_rejected() {
        let _ = PrecisionSearch::new().with_target(0.0);
    }

    #[test]
    fn incremental_matches_rescan_on_the_tiny_net() {
        // The full equivalence net lives in tests/search_equivalence.rs;
        // this is the in-module smoke check.
        let net = tiny_net();
        let d = data();
        for op in [Operand::Weights, Operand::Activations] {
            let rescan = PrecisionSearch::new()
                .with_target(0.9)
                .with_strategy(SearchStrategy::Rescan)
                .search(&net, &d, op);
            let incremental = PrecisionSearch::new()
                .with_target(0.9)
                .with_strategy(SearchStrategy::Incremental)
                .search(&net, &d, op);
            assert_eq!(rescan, incremental);
        }
    }
}

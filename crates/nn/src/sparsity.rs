//! Network sparsity: measurement and injection.
//!
//! CNNs are "extremely sparse" (paper Section IV-B, \[12\] \[22\]): trained
//! weights cluster around zero and ReLU zeroes a large fraction of
//! activations. Envision guards zero operands to skip their MACs, which
//! multiplies its energy savings (Table III lists per-layer weight and
//! input sparsities up to ~90 %). Since our weights are synthetic, this
//! module *injects* a target weight sparsity by magnitude pruning — the
//! same distribution shape pruned training produces — and measures the
//! activation sparsity a forward pass actually exhibits.

use crate::dataset::SyntheticDataset;
use crate::layers::Layer;
use crate::network::{Network, QuantConfig};
use serde::{Deserialize, Serialize};

/// Per-layer sparsity measured over a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparsityReport {
    /// Index of the parameterized layer.
    pub layer_index: usize,
    /// Layer name.
    pub layer_name: String,
    /// Fraction of zero weight operands over all executed MACs.
    pub weight_sparsity: f64,
    /// Fraction of zero activation operands over all executed MACs.
    pub input_sparsity: f64,
    /// MACs executed per input.
    pub macs_per_input: u64,
}

/// Prunes the smallest-magnitude weights of every parameterized layer so
/// that at least `target` of each layer's weights are exactly zero.
///
/// # Panics
///
/// Panics if `target` is outside `[0, 1)`.
pub fn prune_to_sparsity(net: &mut Network, target: f64) {
    assert!(
        (0.0..1.0).contains(&target),
        "sparsity target must be in [0, 1)"
    );
    for layer in net.layers_mut() {
        let weights: &mut [f32] = match layer {
            Layer::Conv2d(c) => c.weights_mut(),
            Layer::Dense(d) => d.weights_mut(),
            _ => continue,
        };
        let mut mags: Vec<f32> = weights.iter().map(|w| w.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).expect("weights are finite"));
        let cut = ((weights.len() as f64) * target).floor() as usize;
        if cut == 0 {
            continue;
        }
        let threshold = mags[cut - 1];
        for w in weights.iter_mut() {
            if w.abs() <= threshold {
                *w = 0.0;
            }
        }
    }
}

/// Measures per-layer weight and activation sparsity over a dataset at a
/// quantization configuration.
///
/// # Panics
///
/// Panics if inference fails (shapes/config assumed validated).
#[must_use]
pub fn measure_sparsity(
    net: &Network,
    data: &SyntheticDataset,
    config: &QuantConfig,
) -> Vec<SparsityReport> {
    let param_layers = net.parameterized_layers();
    let mut totals = vec![(0u64, 0u64, 0u64); param_layers.len()];
    // One batched forward per chunk, with the thread-local scratch shared
    // by the other convenience wrappers — the per-sample statistics do not
    // depend on the chunking.
    crate::kernel::with_thread_scratch(|scratch| {
        for chunk in data.images().chunks(crate::kernel::DEFAULT_BATCH_SIZE) {
            let results = net
                .forward_batch(chunk, config, scratch)
                .expect("inference must succeed");
            for (_, stats) in results {
                for (slot, &li) in param_layers.iter().enumerate() {
                    let s = stats[li];
                    totals[slot].0 += s.macs;
                    totals[slot].1 += s.zero_weight_macs;
                    totals[slot].2 += s.zero_act_macs;
                }
            }
        }
    });
    param_layers
        .iter()
        .zip(totals.iter())
        .map(|(&li, &(macs, zw, za))| SparsityReport {
            layer_index: li,
            layer_name: net.layers()[li].name(),
            weight_sparsity: if macs > 0 {
                zw as f64 / macs as f64
            } else {
                0.0
            },
            input_sparsity: if macs > 0 {
                za as f64 / macs as f64
            } else {
                0.0
            },
            macs_per_input: macs / data.len() as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense};

    fn net() -> Network {
        Network::new(
            "s",
            vec![
                Layer::Conv2d(Conv2d::random(1, 4, 3, 1, 0, 60)),
                Layer::ReLU,
                Layer::Dense(Dense::random(4 * 6 * 6, 4, 61)),
            ],
        )
    }

    #[test]
    fn pruning_reaches_target() {
        let mut n = net();
        prune_to_sparsity(&mut n, 0.5);
        for layer in n.layers() {
            if let Layer::Conv2d(c) = layer {
                let zeros = c.weights().iter().filter(|w| **w == 0.0).count();
                let frac = zeros as f64 / c.weights().len() as f64;
                assert!(frac >= 0.5, "conv sparsity {frac}");
            }
        }
    }

    #[test]
    fn zero_target_is_identity() {
        let mut a = net();
        let b = net();
        prune_to_sparsity(&mut a, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn measured_weight_sparsity_tracks_injection() {
        let mut n = net();
        prune_to_sparsity(&mut n, 0.6);
        let data = SyntheticDataset::new(4, 2, 1, 8, 8, 62);
        let cfg = QuantConfig::uniform(n.layer_count(), 8, 8);
        let reports = measure_sparsity(&n, &data, &cfg);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(
                r.weight_sparsity >= 0.5,
                "{} weight sparsity {}",
                r.layer_name,
                r.weight_sparsity
            );
            assert!(r.macs_per_input > 0);
        }
    }

    #[test]
    fn relu_induces_activation_sparsity_downstream() {
        let n = net();
        let data = SyntheticDataset::new(4, 2, 1, 8, 8, 63);
        let cfg = QuantConfig::uniform(n.layer_count(), 8, 8);
        let reports = measure_sparsity(&n, &data, &cfg);
        // The dense layer sits behind a ReLU: roughly half its input
        // activations are zero.
        let dense = &reports[1];
        assert!(
            dense.input_sparsity > 0.2,
            "post-ReLU input sparsity {}",
            dense.input_sparsity
        );
    }

    #[test]
    #[should_panic(expected = "sparsity target")]
    fn pruning_rejects_full_sparsity() {
        let mut n = net();
        prune_to_sparsity(&mut n, 1.0);
    }
}

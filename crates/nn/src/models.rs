//! The paper's network topologies: LeNet-5, AlexNet and VGG16.
//!
//! Two views are provided:
//!
//! * **Executable networks** ([`lenet5`], [`alexnet`], [`vgg16`]) with
//!   deterministic pseudo-trained weights. AlexNet and VGG16 take an input
//!   resolution and a channel-scale factor so the quantization experiments
//!   stay laptop-tractable (the paper's full-resolution weight sets are
//!   hundreds of megabytes of trained parameters we do not have).
//! * **Analytic per-layer MAC counts** at the paper's native resolutions
//!   ([`alexnet_conv_macs`], [`vgg16_conv_macs`], [`lenet5_conv_macs`]) —
//!   these drive Envision's Table III workload model and match the paper's
//!   MMACs/frame column (e.g. VGG16 conv1 = 87 MMACs, conv2 = 1850 MMACs).

use crate::dataset::SyntheticDataset;
use crate::layers::{Conv2d, Dense, Layer};
use crate::network::Network;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Output spatial size of a convolution/pool stage.
#[must_use]
fn out_size(input: usize, k: usize, stride: usize, pad: usize) -> usize {
    (input + 2 * pad - k) / stride + 1
}

fn scaled(channels: usize, scale: f64) -> usize {
    ((channels as f64 * scale).round() as usize).max(1)
}

/// LeNet-5 on 28×28 single-channel inputs (the MNIST geometry):
/// conv5x5x6 (pad 2) → pool → conv5x5x16 → pool → fc120 → fc84 → fc10.
#[must_use]
pub fn lenet5(seed: u64) -> Network {
    Network::new(
        "LeNet-5",
        vec![
            Layer::Conv2d(Conv2d::random(1, 6, 5, 1, 2, seed)),
            Layer::ReLU,
            Layer::MaxPool2d { k: 2, stride: 2 },
            Layer::Conv2d(Conv2d::random(6, 16, 5, 1, 0, seed.wrapping_add(1))),
            Layer::ReLU,
            Layer::MaxPool2d { k: 2, stride: 2 },
            Layer::Dense(Dense::random(16 * 5 * 5, 120, seed.wrapping_add(2))),
            Layer::ReLU,
            Layer::Dense(Dense::random(120, 84, seed.wrapping_add(3))),
            Layer::ReLU,
            Layer::Dense(Dense::random(84, 10, seed.wrapping_add(4))),
        ],
    )
}

/// AlexNet with a configurable input resolution and channel scale
/// (`input = 227`, `scale = 1.0` is the paper's network; smaller values
/// keep the precision search tractable).
///
/// # Panics
///
/// Panics if the input is too small for the layer cascade (`input >= 67`,
/// below which the final max-pool output vanishes).
#[must_use]
pub fn alexnet(input: usize, scale: f64, seed: u64) -> Network {
    // Below 67x67 the final 3x3/2 max-pool output vanishes (p5 = 0) and the
    // classifier head would get zero inputs.
    assert!(input >= 67, "AlexNet needs at least 67x67 inputs");
    let c1 = scaled(96, scale);
    let c2 = scaled(256, scale);
    let c3 = scaled(384, scale);
    let c4 = scaled(384, scale);
    let c5 = scaled(256, scale);
    let f1 = scaled(512, scale);
    let f2 = scaled(256, scale);

    let s1 = out_size(input, 11, 4, 0);
    let p1 = out_size(s1, 3, 2, 0);
    let s2 = out_size(p1, 5, 1, 2);
    let p2 = out_size(s2, 3, 2, 0);
    let s3 = out_size(p2, 3, 1, 1);
    let p5 = out_size(s3, 3, 2, 0);
    let flat = c5 * p5 * p5;

    Network::new(
        "AlexNet",
        vec![
            Layer::Conv2d(Conv2d::random(3, c1, 11, 4, 0, seed)),
            Layer::ReLU,
            Layer::MaxPool2d { k: 3, stride: 2 },
            Layer::Conv2d(Conv2d::random(c1, c2, 5, 1, 2, seed.wrapping_add(1))),
            Layer::ReLU,
            Layer::MaxPool2d { k: 3, stride: 2 },
            Layer::Conv2d(Conv2d::random(c2, c3, 3, 1, 1, seed.wrapping_add(2))),
            Layer::ReLU,
            Layer::Conv2d(Conv2d::random(c3, c4, 3, 1, 1, seed.wrapping_add(3))),
            Layer::ReLU,
            Layer::Conv2d(Conv2d::random(c4, c5, 3, 1, 1, seed.wrapping_add(4))),
            Layer::ReLU,
            Layer::MaxPool2d { k: 3, stride: 2 },
            Layer::Dense(Dense::random(flat, f1, seed.wrapping_add(5))),
            Layer::ReLU,
            Layer::Dense(Dense::random(f1, f2, seed.wrapping_add(6))),
            Layer::ReLU,
            Layer::Dense(Dense::random(f2, 10, seed.wrapping_add(7))),
        ],
    )
}

/// VGG16 with a configurable input resolution and channel scale
/// (`input = 224`, `scale = 1.0` is the paper's network).
///
/// # Panics
///
/// Panics if the input is not divisible by 32 (five pooling stages).
#[must_use]
pub fn vgg16(input: usize, scale: f64, seed: u64) -> Network {
    assert!(
        input >= 32 && input.is_multiple_of(32),
        "VGG16 input must be a multiple of 32"
    );
    let blocks: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    let mut layers = Vec::new();
    let mut in_c = 3usize;
    let mut seed_i = seed;
    for (base, reps) in blocks {
        let c = scaled(base, scale);
        for _ in 0..reps {
            layers.push(Layer::Conv2d(Conv2d::random(in_c, c, 3, 1, 1, seed_i)));
            layers.push(Layer::ReLU);
            in_c = c;
            seed_i = seed_i.wrapping_add(1);
        }
        layers.push(Layer::MaxPool2d { k: 2, stride: 2 });
    }
    let final_hw = input / 32;
    let flat = in_c * final_hw * final_hw;
    let f1 = scaled(512, scale);
    layers.push(Layer::Dense(Dense::random(
        flat,
        f1,
        seed_i.wrapping_add(1),
    )));
    layers.push(Layer::ReLU);
    layers.push(Layer::Dense(Dense::random(f1, f1, seed_i.wrapping_add(2))));
    layers.push(Layer::ReLU);
    layers.push(Layer::Dense(Dense::random(f1, 10, seed_i.wrapping_add(3))));
    Network::new("VGG16", layers)
}

/// A validated, fully-resolved model request: which topology, at what
/// input resolution and channel scale, from which weight seed.
///
/// [`lenet5`], [`alexnet`] and [`vgg16`] are the right constructors for
/// code that controls its own arguments — they `panic!` on geometry the
/// layer cascade cannot support. `ModelSpec` is the boundary-facing view
/// for callers handling *untrusted* input (the `dvafs serve` request
/// codec): [`ModelSpec::resolve`] applies per-model defaults, turns every
/// panic precondition into an `Err`, and the resulting spec builds the
/// network and its matching evaluation dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    name: &'static str,
    input: usize,
    scale: f64,
    seed: u64,
}

impl ModelSpec {
    /// Known model names, resolution defaults, and validation rules, in
    /// the order the paper introduces the networks.
    pub const KNOWN: [&'static str; 3] = ["lenet5", "alexnet", "vgg16"];

    /// The largest AlexNet input [`resolve`](Self::resolve) accepts: the
    /// paper's 227×227.
    pub const ALEXNET_MAX_INPUT: usize = 227;

    /// The largest VGG16 input [`resolve`](Self::resolve) accepts: the
    /// paper's 224×224.
    pub const VGG16_MAX_INPUT: usize = 224;

    /// The largest channel scale [`resolve`](Self::resolve) accepts: the
    /// paper's full-width networks.
    pub const MAX_SCALE: f64 = 1.0;

    /// Resolves a model request, applying defaults where the caller gave
    /// none: LeNet-5 is fixed at 28×28 / scale 1; AlexNet defaults to
    /// 67×67 at scale 0.125 and VGG16 to 32×32 at scale 0.0625 (the
    /// smallest geometries the cascades support — service-sized, like the
    /// fig6 scenarios).
    ///
    /// Geometry is bounded by the paper's networks, so one request cannot
    /// ask for a model too large to allocate: inputs up to
    /// [`ALEXNET_MAX_INPUT`](Self::ALEXNET_MAX_INPUT) and
    /// [`VGG16_MAX_INPUT`](Self::VGG16_MAX_INPUT), scales up to
    /// [`MAX_SCALE`](Self::MAX_SCALE).
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for an unknown model name, a
    /// non-finite or non-positive channel scale, a scale above
    /// [`MAX_SCALE`](Self::MAX_SCALE), or an input resolution the
    /// topology cannot support or the paper does not reach (AlexNet
    /// outside 67..=227; VGG16 not a multiple of 32 in 32..=224; LeNet-5
    /// anything but 28).
    pub fn resolve(
        name: &str,
        input: Option<usize>,
        scale: Option<f64>,
        seed: u64,
    ) -> Result<Self, String> {
        let scale_val = scale.unwrap_or(match name {
            "lenet5" => 1.0,
            "alexnet" => 0.125,
            _ => 0.0625,
        });
        if !scale_val.is_finite() || scale_val <= 0.0 {
            return Err(format!(
                "scale must be a positive finite number, got {scale_val}"
            ));
        }
        match name {
            "lenet5" => {
                let input = input.unwrap_or(28);
                if input != 28 {
                    return Err(format!("lenet5 is fixed at 28x28 inputs, got {input}"));
                }
                if scale.is_some() && scale_val != 1.0 {
                    return Err(format!("lenet5 has no channel scale, got {scale_val}"));
                }
                Ok(ModelSpec {
                    name: "lenet5",
                    input,
                    scale: 1.0,
                    seed,
                })
            }
            "alexnet" => {
                let input = input.unwrap_or(67);
                if input < 67 {
                    return Err(format!("alexnet needs at least 67x67 inputs, got {input}"));
                }
                if input > Self::ALEXNET_MAX_INPUT {
                    return Err(format!(
                        "alexnet inputs are at most {0}x{0} (the paper's), got {input}",
                        Self::ALEXNET_MAX_INPUT
                    ));
                }
                Self::check_max_scale(name, scale_val)?;
                Ok(ModelSpec {
                    name: "alexnet",
                    input,
                    scale: scale_val,
                    seed,
                })
            }
            "vgg16" => {
                let input = input.unwrap_or(32);
                if input < 32 || !input.is_multiple_of(32) {
                    return Err(format!(
                        "vgg16 input must be a positive multiple of 32, got {input}"
                    ));
                }
                if input > Self::VGG16_MAX_INPUT {
                    return Err(format!(
                        "vgg16 inputs are at most {0}x{0} (the paper's), got {input}",
                        Self::VGG16_MAX_INPUT
                    ));
                }
                Self::check_max_scale(name, scale_val)?;
                Ok(ModelSpec {
                    name: "vgg16",
                    input,
                    scale: scale_val,
                    seed,
                })
            }
            other => Err(format!(
                "unknown model {other:?} — available: {}",
                Self::KNOWN.join(", ")
            )),
        }
    }

    fn check_max_scale(name: &str, scale: f64) -> Result<(), String> {
        if scale > Self::MAX_SCALE {
            return Err(format!(
                "{name} channel scale is at most {} (the paper's network), got {scale}",
                Self::MAX_SCALE
            ));
        }
        Ok(())
    }

    /// The resolved model name (one of [`KNOWN`](Self::KNOWN)).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The resolved input resolution (height = width; LeNet-5 is 28).
    #[must_use]
    pub fn input(&self) -> usize {
        self.input
    }

    /// The resolved channel scale (LeNet-5 is 1.0).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The weight seed the network is built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the network. Cannot panic: every geometry precondition was
    /// checked by [`resolve`](Self::resolve).
    #[must_use]
    pub fn build(&self) -> Network {
        match self.name {
            "lenet5" => lenet5(self.seed),
            "alexnet" => alexnet(self.input, self.scale, self.seed),
            _ => vgg16(self.input, self.scale, self.seed),
        }
    }

    /// A deterministic evaluation set matching this model's input
    /// geometry: the MNIST-like digit set for LeNet-5, an RGB image-like
    /// set at the resolved resolution otherwise (10 classes either way).
    #[must_use]
    pub fn dataset(&self, samples: usize, seed: u64) -> SyntheticDataset {
        self.dataset_range(0..samples, seed)
    }

    /// Samples `samples` of [`dataset`](Self::dataset), bit for bit,
    /// synthesizing only those images (see [`SyntheticDataset::range`]).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[must_use]
    pub fn dataset_range(&self, samples: Range<usize>, seed: u64) -> SyntheticDataset {
        let channels = if self.name == "lenet5" { 1 } else { 3 };
        SyntheticDataset::range(samples, 10, channels, self.input, self.input, seed)
    }
}

/// Analytic per-layer MAC count of one convolution.
#[must_use]
pub fn conv_macs(in_c: usize, out_c: usize, k: usize, out_h: usize, out_w: usize) -> u64 {
    (in_c * out_c * k * k * out_h * out_w) as u64
}

/// Name + MAC count of a CONV layer at the paper's native resolution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerMacs {
    /// Layer label (paper notation, e.g. `"VGG2"`).
    pub name: String,
    /// Multiply-accumulates per frame.
    pub macs: u64,
}

impl LayerMacs {
    /// MACs in millions (the paper's MMACs/frame column).
    #[must_use]
    pub fn mmacs(&self) -> f64 {
        self.macs as f64 / 1e6
    }
}

/// AlexNet's five CONV layers at 227×227 (grouped convolutions as in the
/// original: conv2/4/5 see half the input channels).
#[must_use]
pub fn alexnet_conv_macs() -> Vec<LayerMacs> {
    vec![
        LayerMacs {
            name: "AlexNet1".into(),
            macs: conv_macs(3, 96, 11, 55, 55),
        },
        LayerMacs {
            name: "AlexNet2".into(),
            macs: conv_macs(48, 256, 5, 27, 27),
        },
        LayerMacs {
            name: "AlexNet3".into(),
            macs: conv_macs(256, 384, 3, 13, 13),
        },
        LayerMacs {
            name: "AlexNet4".into(),
            macs: conv_macs(192, 384, 3, 13, 13),
        },
        LayerMacs {
            name: "AlexNet5".into(),
            macs: conv_macs(192, 256, 3, 13, 13),
        },
    ]
}

/// VGG16's thirteen CONV layers at 224×224.
#[must_use]
pub fn vgg16_conv_macs() -> Vec<LayerMacs> {
    let spec: [(usize, usize, usize); 13] = [
        (3, 64, 224),
        (64, 64, 224),
        (64, 128, 112),
        (128, 128, 112),
        (128, 256, 56),
        (256, 256, 56),
        (256, 256, 56),
        (256, 512, 28),
        (512, 512, 28),
        (512, 512, 28),
        (512, 512, 14),
        (512, 512, 14),
        (512, 512, 14),
    ];
    spec.iter()
        .enumerate()
        .map(|(i, &(ic, oc, hw))| LayerMacs {
            name: format!("VGG{}", i + 1),
            macs: conv_macs(ic, oc, 3, hw, hw),
        })
        .collect()
}

/// LeNet-5's two CONV layers at the 28×28 MNIST geometry.
#[must_use]
pub fn lenet5_conv_macs() -> Vec<LayerMacs> {
    vec![
        LayerMacs {
            name: "LeNet1".into(),
            macs: conv_macs(1, 6, 5, 28, 28),
        },
        LayerMacs {
            name: "LeNet2".into(),
            macs: conv_macs(6, 16, 5, 10, 10),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDataset;
    use crate::kernel::Scratch;
    use crate::network::QuantConfig;
    use crate::tensor::Tensor;

    #[test]
    fn lenet5_forward_shape() {
        let net = lenet5(1);
        let cfg = QuantConfig::uniform(net.layer_count(), 16, 16);
        let input = Tensor::random(1, 28, 28, 2);
        let (out, _) = net
            .forward_batch(&[input], &cfg, &mut Scratch::new())
            .unwrap()
            .remove(0);
        assert_eq!(out.shape(), (1, 1, 10));
    }

    #[test]
    fn lenet5_has_five_parameterized_layers() {
        assert_eq!(lenet5(1).parameterized_layers().len(), 5);
    }

    #[test]
    fn alexnet_small_forward() {
        let net = alexnet(67, 0.125, 3);
        let cfg = QuantConfig::uniform(net.layer_count(), 16, 16);
        let input = Tensor::random(3, 67, 67, 4);
        let (out, _) = net
            .forward_batch(&[input], &cfg, &mut Scratch::new())
            .unwrap()
            .remove(0);
        assert_eq!(out.shape(), (1, 1, 10));
        assert_eq!(net.parameterized_layers().len(), 8);
    }

    #[test]
    fn vgg16_small_forward() {
        let net = vgg16(32, 0.0625, 5);
        let cfg = QuantConfig::uniform(net.layer_count(), 16, 16);
        let input = Tensor::random(3, 32, 32, 6);
        let (out, _) = net
            .forward_batch(&[input], &cfg, &mut Scratch::new())
            .unwrap()
            .remove(0);
        assert_eq!(out.shape(), (1, 1, 10));
        assert_eq!(net.parameterized_layers().len(), 16);
    }

    #[test]
    fn alexnet_macs_match_paper_table3() {
        let m = alexnet_conv_macs();
        // Paper Table III MMACs/frame: 104, 224, 150, 112.
        assert!((m[0].mmacs() - 104.0).abs() < 3.0, "conv1 {}", m[0].mmacs());
        assert!((m[1].mmacs() - 224.0).abs() < 3.0, "conv2 {}", m[1].mmacs());
        assert!((m[2].mmacs() - 150.0).abs() < 3.0, "conv3 {}", m[2].mmacs());
        assert!((m[3].mmacs() - 112.0).abs() < 3.0, "conv4 {}", m[3].mmacs());
    }

    #[test]
    fn vgg16_macs_match_paper_range() {
        let m = vgg16_conv_macs();
        assert_eq!(m.len(), 13);
        // Paper: VGG1 = 87, layers 2-13 span 462..1850 MMACs.
        assert!((m[0].mmacs() - 87.0).abs() < 1.0, "conv1 {}", m[0].mmacs());
        let rest: Vec<f64> = m[1..].iter().map(LayerMacs::mmacs).collect();
        let lo = rest.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = rest.iter().cloned().fold(0.0, f64::max);
        assert!((lo - 462.4).abs() < 2.0, "min {lo}");
        assert!((hi - 1849.7).abs() < 2.0, "max {hi}");
        // Paper total: 15346 MMACs.
        let total: f64 = m.iter().map(LayerMacs::mmacs).sum();
        assert!((total - 15346.0).abs() / 15346.0 < 0.02, "total {total}");
    }

    #[test]
    fn lenet_macs_are_sub_mmac() {
        let m = lenet5_conv_macs();
        assert!(m[0].mmacs() < 1.0 && m[1].mmacs() < 1.0);
    }

    #[test]
    fn networks_are_deterministic_per_seed() {
        let a = lenet5(9);
        let b = lenet5(9);
        let data = SyntheticDataset::digits(2, 1);
        let cfg = QuantConfig::uniform(a.layer_count(), 8, 8);
        assert_eq!(
            a.predict_all(&data, &cfg).unwrap(),
            b.predict_all(&data, &cfg).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn vgg_rejects_bad_input_size() {
        let _ = vgg16(50, 1.0, 0);
    }

    #[test]
    fn model_spec_defaults_match_direct_constructors() {
        let spec = ModelSpec::resolve("lenet5", None, None, 9).unwrap();
        assert_eq!(spec.name(), "lenet5");
        assert_eq!(spec.input(), 28);
        let data = spec.dataset(2, 1);
        let cfg = QuantConfig::uniform(spec.build().layer_count(), 8, 8);
        // Spec-built networks are the same networks: identical predictions.
        assert_eq!(
            spec.build().predict_all(&data, &cfg).unwrap(),
            lenet5(9).predict_all(&data, &cfg).unwrap()
        );
        let alex = ModelSpec::resolve("alexnet", None, None, 3).unwrap();
        assert_eq!(alex.input(), 67);
        assert_eq!(alex.build().parameterized_layers().len(), 8);
        assert_eq!(alex.dataset(2, 1).images()[0].shape(), (3, 67, 67));
        let vgg = ModelSpec::resolve("vgg16", Some(64), Some(0.0625), 5).unwrap();
        assert_eq!(vgg.build().parameterized_layers().len(), 16);
        assert_eq!(vgg.dataset(2, 1).images()[0].shape(), (3, 64, 64));
    }

    #[test]
    fn model_spec_rejects_untrusted_geometry_without_panicking() {
        for (name, input, scale) in [
            ("resnet", None, None),
            ("alexnet", Some(32), None),
            ("vgg16", Some(50), None),
            ("vgg16", Some(0), None),
            ("lenet5", Some(32), None),
            ("lenet5", None, Some(0.5)),
            ("alexnet", None, Some(0.0)),
            ("alexnet", None, Some(f64::NAN)),
            ("alexnet", None, Some(-1.0)),
            // Beyond the paper's networks: each would abort the process
            // on allocation in `build`, which no panic policy contains.
            ("alexnet", Some(228), None),
            ("alexnet", Some(200_000), None),
            ("alexnet", None, Some(1.5)),
            ("vgg16", Some(256), None),
            ("vgg16", None, Some(100_000.0)),
        ] {
            let r = ModelSpec::resolve(name, input, scale, 0);
            assert!(r.is_err(), "{name} {input:?} {scale:?} resolved: {r:?}");
        }
        // The paper's own geometries are the inclusive bounds.
        let alex = ModelSpec::resolve("alexnet", Some(227), Some(1.0), 0).unwrap();
        assert_eq!((alex.input(), alex.scale()), (227, 1.0));
        let vgg = ModelSpec::resolve("vgg16", Some(224), Some(1.0), 0).unwrap();
        assert_eq!((vgg.input(), vgg.scale()), (224, 1.0));
        let err = ModelSpec::resolve("alexnet", Some(200_000), None, 0).unwrap_err();
        assert!(err.contains("227"), "{err}");
        let err = ModelSpec::resolve("vgg16", None, Some(100_000.0), 0).unwrap_err();
        assert!(err.contains("at most 1"), "{err}");
        // The unknown-name error lists what is available.
        let err = ModelSpec::resolve("resnet", None, None, 0).unwrap_err();
        for known in ModelSpec::KNOWN {
            assert!(err.contains(known), "{err}");
        }
    }

    #[test]
    fn warm_weights_validates_and_is_idempotent() {
        let net = lenet5(4);
        let cfg = QuantConfig::uniform(net.layer_count(), 8, 8);
        net.warm_weights(&cfg).unwrap();
        net.warm_weights(&cfg).unwrap();
        // A warmed network predicts identically to a cold one.
        let data = SyntheticDataset::digits(2, 7);
        let cold = lenet5(4);
        assert_eq!(
            net.predict_all(&data, &cfg).unwrap(),
            cold.predict_all(&data, &cfg).unwrap()
        );
        let short = QuantConfig::uniform(1, 8, 8);
        assert!(matches!(
            net.warm_weights(&short),
            Err(crate::NnError::ConfigLengthMismatch { .. })
        ));
        let bad = QuantConfig::uniform(net.layer_count(), 0, 8);
        assert!(matches!(
            net.warm_weights(&bad),
            Err(crate::NnError::InvalidBits { .. })
        ));
    }
}

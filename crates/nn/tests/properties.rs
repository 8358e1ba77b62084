//! Property-based tests of the CNN substrate's quantization invariants.

use dvafs_nn::layers::{Conv2d, Dense, Layer};
use dvafs_nn::network::{Network, QuantConfig};
use dvafs_nn::quant::QuantizedTensor;
use dvafs_nn::tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantize/dequantize error never exceeds half a grid step per
    /// element, and indices fit the declared width.
    #[test]
    fn quantization_error_bounded(seed in any::<u64>(), bits in 2u32..=16) {
        let t = Tensor::random(2, 6, 6, seed);
        let q = QuantizedTensor::quantize(&t, bits).expect("valid bits");
        let qmax = q.qmax();
        prop_assert!(q.data.iter().all(|&v| i32::from(v).abs() <= qmax));
        let d = q.dequantize();
        // Half a grid step, plus headroom for f32 representation error in
        // the dequantized value (one ulp at the tensor's magnitude).
        let bound = q.scale * 0.5 + f64::from(f32::EPSILON) * f64::from(t.max_abs()) + 1e-12;
        for (&a, &b) in t.as_slice().iter().zip(d.as_slice()) {
            prop_assert!(
                f64::from((a - b).abs()) <= bound,
                "error {} exceeds bound {}", (a - b).abs(), bound
            );
        }
    }

    /// Quantization at 16 bits then again at fewer bits equals direct
    /// quantization only in error magnitude terms — but requantizing at
    /// the SAME width is exactly idempotent.
    #[test]
    fn requantization_idempotent(seed in any::<u64>(), bits in 2u32..=16) {
        let t = Tensor::random(1, 5, 5, seed);
        let q1 = QuantizedTensor::quantize(&t, bits).expect("valid");
        let d1 = q1.dequantize();
        let q2 = QuantizedTensor::quantize(&d1, bits).expect("valid");
        let d2 = q2.dequantize();
        for (&a, &b) in d1.as_slice().iter().zip(d2.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// ReLU is idempotent and never produces negatives.
    #[test]
    fn relu_idempotent(seed in any::<u64>()) {
        let t = Tensor::random(2, 4, 4, seed);
        let (once, _) = Layer::ReLU.forward(&t, 16, 16).expect("works");
        let (twice, _) = Layer::ReLU.forward(&once, 16, 16).expect("works");
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.as_slice().iter().all(|&v| v >= 0.0));
    }

    /// MaxPool never invents values: every output element is present in
    /// the input, and the output max equals the input max for full cover.
    #[test]
    fn maxpool_preserves_values(seed in any::<u64>()) {
        let t = Tensor::random(1, 6, 6, seed);
        let (out, _) = Layer::MaxPool2d { k: 2, stride: 2 }.forward(&t, 16, 16).expect("works");
        prop_assert!((out.max_abs() <= t.max_abs() + 1e-12) || out.as_slice().iter().any(|v| *v < 0.0));
        for &v in out.as_slice() {
            prop_assert!(t.as_slice().contains(&v));
        }
    }

    /// Forward passes are deterministic: same input, same config, same
    /// output.
    #[test]
    fn inference_deterministic(seed in any::<u64>(), bits in 2u32..=16) {
        let net = Network::new(
            "p",
            vec![
                Layer::Conv2d(Conv2d::random(1, 3, 3, 1, 0, 7)),
                Layer::ReLU,
                Layer::Dense(Dense::random(3 * 4 * 4, 4, 8)),
            ],
        );
        let cfg = QuantConfig::uniform(net.layer_count(), bits, bits);
        let input = Tensor::random(1, 6, 6, seed);
        let (a, _) = net.forward(&input, &cfg).expect("works");
        let (b, _) = net.forward(&input, &cfg).expect("works");
        prop_assert_eq!(a, b);
    }

    /// MAC statistics are conserved: zero-operand MACs never exceed the
    /// total and the total equals the analytic count for unpadded convs.
    #[test]
    fn mac_statistics_conserved(seed in any::<u64>(), bits in 2u32..=16) {
        let conv = Conv2d::random(2, 3, 3, 1, 0, 11);
        let analytic = conv.mac_count(7, 7);
        let layer = Layer::Conv2d(conv);
        let input = Tensor::random(2, 7, 7, seed);
        let (_, stats) = layer.forward(&input, bits, bits).expect("works");
        prop_assert_eq!(stats.macs, analytic);
        prop_assert!(stats.zero_weight_macs <= stats.macs);
        prop_assert!(stats.zero_act_macs <= stats.macs);
    }

    /// Fewer bits never decreases quantization-induced sparsity of the
    /// same tensor (coarser grids snap more values to zero).
    #[test]
    fn sparsity_monotone_in_coarseness(seed in any::<u64>(), bits in 3u32..=15) {
        let t = Tensor::random(1, 8, 8, seed);
        let fine = QuantizedTensor::quantize(&t, bits + 1).expect("valid");
        let coarse = QuantizedTensor::quantize(&t, bits).expect("valid");
        prop_assert!(coarse.zero_fraction() >= fine.zero_fraction() - 1e-12);
    }
}

//! The kernel-layer equivalence net: the subword-packed GEMM kernel must
//! be **bit-identical** to the retained naive oracle — outputs *and* the
//! `zero_weight`/`zero_act` guard-skip counters — over random layer
//! geometries, including the degenerate ones (padding at or beyond the
//! kernel size, stride larger than the kernel, 1x1 kernels), across mixed
//! 1..=16-bit operand widths (which drive the packed kernel through every
//! subword mode pair) and thread counts. Plus the memoization contract:
//! per-`(layer, bits)` weight packs are reused across a sweep and
//! invalidated by `weights_mut` (pruning).

use dvafs_executor::Executor;
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::kernel::{NnKernel, Scratch};
use dvafs_nn::layers::{Conv2d, Dense, Layer, LayerStats};
use dvafs_nn::models;
use dvafs_nn::network::{Network, QuantConfig};
use dvafs_nn::tensor::Tensor;
use dvafs_nn::NnError;
use proptest::prelude::*;

/// One layer on one input through a one-layer network on `kernel`.
fn run_layer(
    layer: &Layer,
    kernel: NnKernel,
    input: &Tensor,
    wbits: u32,
    abits: u32,
) -> Result<(Tensor, LayerStats), NnError> {
    let net = Network::new("one", vec![layer.clone()]).with_kernel(kernel);
    let cfg = QuantConfig::uniform(1, wbits, abits);
    let (out, stats) = net
        .forward_batch(std::slice::from_ref(input), &cfg, &mut Scratch::new())?
        .remove(0);
    Ok((out, stats[0]))
}

/// Runs one layer on the packed kernel and asserts bitwise-equal outputs
/// and equal statistics against the naive oracle.
fn assert_kernels_agree(layer: &Layer, input: &Tensor, wbits: u32, abits: u32) {
    let naive = run_layer(layer, NnKernel::Naive, input, wbits, abits);
    let packed = run_layer(layer, NnKernel::GemmPacked, input, wbits, abits);
    match (naive, packed) {
        (Ok((out_n, st_n)), Ok((out_p, st_p))) => {
            assert_eq!(st_n, st_p, "statistics diverged");
            let nb: Vec<u32> = out_n.as_slice().iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = out_p.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(out_n.shape(), out_p.shape(), "shape diverged");
            assert_eq!(nb, pb, "outputs diverged bitwise");
        }
        (Err(_), Err(_)) => {} // both reject — also agreement
        (n, p) => panic!("kernels disagree on fallibility: naive={n:?} packed={p:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conv2d: Naive == GemmPacked over random channels x kernel
    /// x stride x padding x precision, with the degenerate geometries
    /// explicitly in range (padding >= kernel, stride > kernel, 1x1
    /// kernels) and the paper's: LeNet's 5x5, VGG's 3x3 and AlexNet's
    /// 11x11 stride-4 windows over up to 48 channels, so a window row is
    /// a run of 1 to 528 lanes, odd and even. Independent 1..=16-bit
    /// weight/activation widths drive the packed kernel through every
    /// subword mode pair (X1/X2/X4 on either side), ragged k included.
    #[test]
    fn conv_gemm_matches_naive(
        seed in any::<u64>(),
        in_c in 1usize..=48,
        out_c in 1usize..=5,
        k_pick in 0usize..6,
        stride in 1usize..=5,
        padding in 0usize..=5,
        h in 4usize..=15,
        w in 4usize..=15,
        wbits in 1u32..=16,
        abits in 1u32..=16,
    ) {
        let k = [1usize, 2, 3, 4, 5, 11][k_pick];
        let conv = Conv2d::random(in_c, out_c, k, stride, padding, seed);
        let layer = Layer::Conv2d(conv);
        let input = Tensor::random(in_c, h, w, seed ^ 0x5eed);
        assert_kernels_agree(&layer, &input, wbits, abits);
    }

    /// Conv2d: the exact `mac_count` equals the MACs the forward pass
    /// actually executes, padding included.
    #[test]
    fn conv_mac_count_is_exact_under_padding(
        seed in any::<u64>(),
        k in 1usize..=4,
        stride in 1usize..=3,
        padding in 0usize..=5,
        h in 4usize..=9,
    ) {
        let conv = Conv2d::random(2, 3, k, stride, padding, seed);
        let analytic = conv.mac_count(h, h);
        let layer = Layer::Conv2d(conv);
        let input = Tensor::random(2, h, h, seed ^ 1);
        for kernel in NnKernel::ALL {
            let (_, stats) = run_layer(&layer, kernel, &input, 8, 8).expect("geometry is valid");
            prop_assert_eq!(stats.macs, analytic, "kernel {}", kernel);
        }
    }

    /// Dense: Naive == GemmPacked over random widths and precisions.
    #[test]
    fn dense_gemm_matches_naive(
        seed in any::<u64>(),
        inputs in 1usize..=40,
        outputs in 1usize..=12,
        wbits in 1u32..=16,
        abits in 1u32..=16,
    ) {
        let layer = Layer::Dense(Dense::random(inputs, outputs, seed));
        let input = Tensor::random(1, 1, inputs, seed ^ 0xfeed);
        assert_kernels_agree(&layer, &input, wbits, abits);
    }

    /// Whole-network agreement: same predictions on both kernels, serial
    /// or parallel.
    #[test]
    fn network_gemm_matches_naive_end_to_end(
        seed in any::<u64>(),
        bits in 2u32..=16,
        threads in 1usize..=4,
    ) {
        let data = SyntheticDataset::digits(6, seed ^ 3);
        let naive = models::lenet5(seed).with_kernel(NnKernel::Naive);
        let packed = models::lenet5(seed).with_kernel(NnKernel::GemmPacked);
        let cfg = QuantConfig::uniform(naive.layer_count(), bits, bits);
        let serial = naive.predict_all(&data, &cfg).expect("naive inference");
        let packed_batched = packed
            .predict_all(&data, &cfg)
            .expect("batched packed inference");
        let packed_parallel = packed
            .predict_all_with(&data, &cfg, &Executor::new(threads))
            .expect("parallel packed inference");
        prop_assert_eq!(&serial, &packed_batched);
        prop_assert_eq!(&serial, &packed_parallel);
    }

    /// Mixed per-layer widths (the fig6 scan shape: one layer reduced,
    /// the rest at full precision) keep both kernels bit-identical —
    /// this is precisely the asymmetric X2/X4-against-X1 panel pairing of
    /// the packed kernel.
    #[test]
    fn network_with_mixed_layer_widths_agrees(
        seed in any::<u64>(),
        wbits in 1u32..=16,
        abits in 1u32..=16,
        layer in 0usize..=10,
    ) {
        let data = SyntheticDataset::digits(2, seed ^ 9);
        let naive = models::lenet5(seed).with_kernel(NnKernel::Naive);
        let packed = models::lenet5(seed).with_kernel(NnKernel::GemmPacked);
        let mut cfg = QuantConfig::uniform(naive.layer_count(), 16, 16);
        cfg.set_layer(layer, wbits, abits);
        let oracle = naive.predict_all(&data, &cfg).expect("naive inference");
        let got = packed.predict_all(&data, &cfg).expect("packed inference");
        prop_assert_eq!(&oracle, &got);
    }
}

/// The fig6-sized AlexNet stand-in (67 px input, channel scale 0.125) at
/// 8/8 bits: its 11x11 stride-4 conv, 5x5 and 3x3 stack and dense tail
/// agree with the naive oracle as one network, outputs bit for bit and
/// every layer's statistics. The whole-network proptests above run
/// LeNet-5 only.
#[test]
fn alexnet_gemm_matches_naive_end_to_end() {
    let data = SyntheticDataset::image_like(2, 67, 10, 4);
    let net = models::alexnet(67, 0.125, 3);
    let cfg = QuantConfig::uniform(net.layer_count(), 8, 8);
    let run = |kernel| -> Vec<(Vec<u32>, Vec<LayerStats>)> {
        net.clone()
            .with_kernel(kernel)
            .forward_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("AlexNet forward succeeds")
            .into_iter()
            .map(|(out, stats)| (out.as_slice().iter().map(|v| v.to_bits()).collect(), stats))
            .collect()
    };
    assert_eq!(run(NnKernel::Naive), run(NnKernel::GemmPacked));
}

/// Degenerate geometries the random ranges may hit rarely, pinned
/// explicitly: padding >= kernel, stride > kernel, and 1x1 kernels.
#[test]
fn degenerate_conv_geometries_agree() {
    for (k, stride, padding) in [
        (1usize, 1usize, 0usize), // 1x1, the im2col identity case
        (1, 3, 2),                // stride > kernel
        (2, 1, 2),                // padding == kernel
        (3, 1, 4),                // padding > kernel: whole rows structural
        (3, 5, 3),                // stride and padding both past the kernel
    ] {
        let conv = Conv2d::random(2, 3, k, stride, padding, 99);
        let layer = Layer::Conv2d(conv);
        let input = Tensor::random(2, 6, 5, 100);
        for bits in [1u32, 4, 16] {
            assert_kernels_agree(&layer, &input, bits, bits);
        }
    }
}

/// Pruning through `weights_mut` invalidates the memoized quantization:
/// the next forward re-packs and the zero-weight counters move.
#[test]
fn pruning_invalidates_weight_memoization() {
    // One network instance throughout: cloning would reset the cache.
    let mut net = Network::new(
        "conv",
        vec![Layer::Conv2d(Conv2d::random(2, 4, 3, 1, 1, 7))],
    );
    // `Network::new` runs the default kernel: the memoized packed one.
    assert_eq!(NnKernel::default(), NnKernel::GemmPacked);
    let input = Tensor::random(2, 8, 8, 8);
    let cfg = QuantConfig::uniform(1, 8, 8);
    let fwd = |n: &Network| {
        n.forward_batch(std::slice::from_ref(&input), &cfg, &mut Scratch::new())
            .expect("forward succeeds")
            .remove(0)
            .1[0]
    };
    // Warm the cache at 8 bits; the second pass is the memoized hit.
    let before = fwd(&net);
    let again = fwd(&net);
    assert_eq!(before, again, "memoized pass must not move a number");

    // Prune half the weights to zero; the counters must change.
    let Layer::Conv2d(conv) = &mut net.layers_mut()[0] else {
        unreachable!("constructed as conv above")
    };
    let n = conv.weights_mut().len();
    for w in conv.weights_mut().iter_mut().take(n / 2) {
        *w = 0.0;
    }
    let after = fwd(&net);
    assert!(
        after.zero_weight_macs > before.zero_weight_macs,
        "pruned weights must raise the zero-weight count ({} -> {})",
        before.zero_weight_macs,
        after.zero_weight_macs
    );
    // And the re-packed stats still match the never-cached oracle.
    assert_eq!(after, fwd(&net.clone().with_kernel(NnKernel::Naive)));
}

/// Dense memoization: same contract through the network-level API.
#[test]
fn dense_pruning_reflected_after_memoization() {
    let mut net = models::lenet5(11);
    let data = SyntheticDataset::digits(2, 12);
    let cfg = QuantConfig::uniform(net.layer_count(), 8, 8);
    let stats = |net: &Network| {
        let first = &data.images()[..1];
        net.forward_batch(first, &cfg, &mut Scratch::new())
            .expect("forward")
            .remove(0)
            .1
    };
    // Two passes warm every layer's 8-bit pack.
    let stats_a = stats(&net);
    let stats_b = stats(&net);
    assert_eq!(stats_a, stats_b);
    // Prune the first dense layer and re-run: its zero counters move.
    let dense_idx = 6; // LeNet-5 fc120
    let Layer::Dense(d) = &mut net.layers_mut()[dense_idx] else {
        panic!("layer 6 is the first dense layer of LeNet-5");
    };
    for w in d.weights_mut().iter_mut().take(100) {
        *w = 0.0;
    }
    let stats_c = stats(&net);
    assert!(
        stats_c[dense_idx].zero_weight_macs > stats_a[dense_idx].zero_weight_macs,
        "pruning must be visible through the memoized path"
    );
}

//! The batch equivalence net: the fused-batch forward (one wide GEMM per
//! layer across a chunk of samples) must be **bit-identical** to running
//! each sample as a batch of one, and both to the naive oracle — output
//! tensors, the `zero_weight`/`zero_act` guard-skip counters, and
//! argmaxes — over random geometries and precisions. The dataset-level
//! entry points are checked on datasets of 1..=40 samples at thread counts
//! 1..=8, so the fixed `DEFAULT_BATCH_SIZE` chunking runs with several
//! chunks and ragged tails; the fused conv fill is checked against the
//! naive oracle on the degenerate conv geometries. Plus the precision
//! search: the incremental scan's chunked prefix, candidate layer and
//! suffix must reproduce the rescan oracle's requirements exactly on
//! datasets of more than one chunk.

use dvafs_executor::Executor;
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::kernel::{NnKernel, Scratch, DEFAULT_BATCH_SIZE};
use dvafs_nn::layers::{Conv2d, Dense, Layer, LayerStats};
use dvafs_nn::network::{Network, QuantConfig};
use dvafs_nn::precision::{Operand, PrecisionSearch, SearchStrategy};
use dvafs_nn::tensor::Tensor;
use proptest::prelude::*;

/// A small conv-pool-dense cascade (the fig6 shape in miniature).
fn tiny_net(seed: u64, kernel: NnKernel) -> Network {
    Network::new(
        "tiny",
        vec![
            Layer::Conv2d(Conv2d::random(1, 6, 3, 1, 1, seed)),
            Layer::ReLU,
            Layer::MaxPool2d { k: 2, stride: 2 },
            Layer::Dense(Dense::random(6 * 6 * 6, 8, seed ^ 1)),
            Layer::ReLU,
            Layer::Dense(Dense::random(8, 4, seed ^ 2)),
        ],
    )
    .with_kernel(kernel)
}

fn images(count: usize, seed: u64) -> Vec<Tensor> {
    (0..count)
        .map(|i| Tensor::random(1, 12, 12, seed ^ (i as u64) << 8))
        .collect()
}

/// Asserts two forward results equal: shapes, output bit patterns and
/// per-layer statistics.
fn assert_same(what: &str, want: &[(Tensor, Vec<LayerStats>)], got: &[(Tensor, Vec<LayerStats>)]) {
    assert_eq!(want.len(), got.len(), "{what}: result count diverged");
    for ((out_w, st_w), (out_g, st_g)) in want.iter().zip(got) {
        assert_eq!(st_w, st_g, "{what}: statistics diverged");
        assert_eq!(out_w.shape(), out_g.shape(), "{what}: shape diverged");
        let wb: Vec<u32> = out_w.as_slice().iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u32> = out_g.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(wb, gb, "{what}: outputs diverged bitwise");
    }
}

/// The naive oracle's prediction for every image, one sample at a time.
fn naive_predictions(seed: u64, images: &[Tensor], cfg: &QuantConfig) -> Vec<usize> {
    let naive = tiny_net(seed, NnKernel::Naive);
    images
        .iter()
        .map(|img| naive.predict(img, cfg).expect("oracle inference"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `forward_batch` over B samples == B batches of one
    /// (`Network::forward`) == the naive oracle's batch: outputs and
    /// per-layer statistics bitwise, with independent widths on the conv
    /// and the first dense layer (every subword mode pair).
    #[test]
    fn forward_batch_matches_batches_of_one_and_naive(
        seed in any::<u64>(),
        count in 1usize..=7,
        wbits in 1u32..=16,
        abits in 1u32..=16,
    ) {
        let imgs = images(count, seed ^ 0xba7c);
        let cfg = {
            let mut cfg = QuantConfig::uniform(6, 16, 16);
            cfg.set_layer(0, wbits, abits);
            cfg.set_layer(3, abits, wbits);
            cfg
        };
        let packed = tiny_net(seed, NnKernel::GemmPacked);
        let fused = packed
            .forward_batch(&imgs, &cfg, &mut Scratch::new())
            .expect("fused inference");
        let singles: Vec<_> = imgs
            .iter()
            .map(|img| packed.forward(img, &cfg).expect("batch-of-one inference"))
            .collect();
        let oracle = tiny_net(seed, NnKernel::Naive)
            .forward_batch(&imgs, &cfg, &mut Scratch::new())
            .expect("oracle inference");
        assert_same("batch of one", &singles, &fused);
        assert_same("naive", &oracle, &fused);
    }

    /// `evaluate_batch` and `predict_all_with` at thread counts 1..=8
    /// give the naive oracle's per-sample argmaxes on datasets of 1..=40
    /// samples: a single short chunk, exact multiples of the chunk size,
    /// and ragged tails after several chunks.
    #[test]
    fn predictions_agree_across_batch_sizes_and_threads(
        seed in any::<u64>(),
        count in 1usize..=40,
        threads in 1usize..=8,
        bits in 1u32..=16,
    ) {
        let data = SyntheticDataset::new(count, 4, 1, 12, 12, seed ^ 0xd0d0);
        let cfg = QuantConfig::uniform(6, bits, bits);
        let oracle = naive_predictions(seed, data.images(), &cfg);
        let packed = tiny_net(seed, NnKernel::GemmPacked);
        let batched = packed
            .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("batched inference");
        let parallel = packed
            .predict_all_with(&data, &cfg, &Executor::new(threads))
            .expect("parallel inference");
        prop_assert_eq!(&oracle, &batched, "evaluate_batch diverged");
        prop_assert_eq!(&oracle, &parallel, "predict_all_with diverged");
    }

    /// The fused conv fill on degenerate geometry: `kernel_equivalence`'s
    /// conv ranges (padding at or past the kernel, stride past the
    /// kernel, 1x1 kernels, multi-channel inputs, every subword mode pair)
    /// plus the 5x5 and 11x11 kernels of the scenario networks, through a
    /// one-layer `forward_batch` with 1..=4 samples — outputs and
    /// statistics bitwise equal to the naive oracle.
    #[test]
    fn fused_conv_fill_matches_naive_on_degenerate_geometry(
        seed in any::<u64>(),
        count in 1usize..=4,
        in_c in 1usize..=3,
        out_c in 1usize..=5,
        k in prop_oneof![1usize..=5, Just(11)],
        stride in 1usize..=5,
        padding in 0usize..=5,
        h in 4usize..=9,
        w in 4usize..=9,
        wbits in 1u32..=16,
        abits in 1u32..=16,
    ) {
        let (h, w) = (h.max(k), w.max(k));
        let conv = || Layer::Conv2d(Conv2d::random(in_c, out_c, k, stride, padding, seed));
        let net = |kernel| Network::new("conv", vec![conv()]).with_kernel(kernel);
        let inputs: Vec<Tensor> = (0..count)
            .map(|i| Tensor::random(in_c, h, w, seed ^ 0x5eed ^ (i as u64) << 16))
            .collect();
        let cfg = QuantConfig::uniform(1, wbits, abits);
        let oracle = net(NnKernel::Naive)
            .forward_batch(&inputs, &cfg, &mut Scratch::new())
            .expect("oracle inference");
        let fused = net(NnKernel::GemmPacked)
            .forward_batch(&inputs, &cfg, &mut Scratch::new())
            .expect("fused inference");
        assert_same("fused conv", &oracle, &fused);
    }

    /// The incremental precision search (chunked prefix pass kept
    /// layer-major, chunked forward from the candidate layer on)
    /// reproduces the rescan oracle's `LayerRequirement`s exactly on
    /// datasets of two and three chunks, at thread counts 1..=4.
    #[test]
    fn precision_search_agrees_across_paths(
        seed in any::<u64>(),
        samples in DEFAULT_BATCH_SIZE + 1..=40,
        threads in 1usize..=4,
        op_idx in 0usize..2,
    ) {
        let op = [Operand::Weights, Operand::Activations][op_idx];
        let data = SyntheticDataset::new(samples, 4, 1, 12, 12, seed ^ 0x5ca7);
        let exec = Executor::new(threads);
        let net = tiny_net(seed, NnKernel::GemmPacked);
        let search = PrecisionSearch::new().with_target(0.9);
        let rescan = search
            .with_strategy(SearchStrategy::Rescan)
            .search_with(&net, &data, op, &exec);
        let incremental = search
            .with_strategy(SearchStrategy::Incremental)
            .search_with(&net, &data, op, &exec);
        prop_assert_eq!(rescan, incremental, "search diverged across strategies");
    }
}

/// The chunk boundaries pinned explicitly: one sample, one short chunk,
/// exactly one chunk, one sample past it, and two chunks plus one.
#[test]
fn explicit_batch_boundaries_agree() {
    let cfg = QuantConfig::uniform(6, 8, 8);
    let packed = tiny_net(17, NnKernel::GemmPacked);
    for count in [1, 7, 16, 17, 33] {
        let data = SyntheticDataset::new(count, 4, 1, 12, 12, 404);
        let oracle = naive_predictions(17, data.images(), &cfg);
        let batched = packed
            .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("batched inference");
        let parallel = packed
            .predict_all_with(&data, &cfg, &Executor::new(2))
            .expect("parallel inference");
        assert_eq!(
            oracle, batched,
            "{count} samples: evaluate_batch moved a prediction"
        );
        assert_eq!(
            oracle, parallel,
            "{count} samples: predict_all_with moved a prediction"
        );
    }
}

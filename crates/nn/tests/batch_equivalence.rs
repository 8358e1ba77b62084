//! The batch-path equivalence net: the layer-major fused-batch forward
//! (`BatchPath::LayerMajor`, one wide GEMM per layer across samples) must
//! be **bit-identical** to the retained per-sample oracle
//! (`BatchPath::SampleMajor`) — output tensors, the
//! `zero_weight`/`zero_act` guard-skip counters, and argmaxes — over
//! random geometries and precisions, for all three MAC kernels, across
//! the batch boundaries that matter (B = 1, non-dividing B, B larger
//! than the sample count, ragged tails) and thread counts 1..=8; the
//! fused conv fill against the naive oracle on the degenerate conv
//! geometries. Plus the precision search: the incremental scan's batched
//! prefix and suffix must reproduce the per-sample scan's requirements
//! exactly.

use dvafs_executor::Executor;
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::kernel::{BatchPath, NnKernel, Scratch};
use dvafs_nn::layers::{Conv2d, Dense, Layer};
use dvafs_nn::network::{Network, QuantConfig};
use dvafs_nn::precision::{Operand, PrecisionSearch, SearchStrategy};
use dvafs_nn::tensor::Tensor;
use proptest::prelude::*;

/// A small conv-pool-dense cascade (the fig6 shape in miniature).
fn tiny_net(seed: u64, kernel: NnKernel, path: BatchPath, batch: usize) -> Network {
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
    .with_batch_path(path)
    .with_batch_size(batch)
}

fn images(count: usize, seed: u64) -> Vec<Tensor> {
    (0..count)
        .map(|i| Tensor::random(1, 12, 12, seed ^ (i as u64) << 8))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `forward_batch`: outputs and per-layer statistics bitwise equal
    /// across both paths for every kernel, any chunk width (including a
    /// single sample and widths past the fusable guard).
    #[test]
    fn forward_batch_paths_agree_bitwise(
        seed in any::<u64>(),
        count in 1usize..=7,
        kernel_idx in 0usize..3,
        wbits in 1u32..=16,
        abits in 1u32..=16,
    ) {
        let kernel = NnKernel::ALL[kernel_idx];
        let imgs = images(count, seed ^ 0xba7c);
        let cfg = {
            let mut cfg = QuantConfig::uniform(6, 16, 16);
            cfg.set_layer(0, wbits, abits);
            cfg.set_layer(3, abits, wbits);
            cfg
        };
        let sample = tiny_net(seed, kernel, BatchPath::SampleMajor, count);
        let layer = tiny_net(seed, kernel, BatchPath::LayerMajor, count);
        let oracle = sample
            .forward_batch(&imgs, &cfg, &mut Scratch::new())
            .expect("oracle inference");
        let fused = layer
            .forward_batch(&imgs, &cfg, &mut Scratch::new())
            .expect("fused inference");
        prop_assert_eq!(oracle.len(), fused.len());
        for ((out_s, st_s), (out_l, st_l)) in oracle.iter().zip(fused.iter()) {
            prop_assert_eq!(st_s, st_l, "statistics diverged");
            prop_assert_eq!(out_s.shape(), out_l.shape(), "shape diverged");
            let sb: Vec<u32> = out_s.as_slice().iter().map(|v| v.to_bits()).collect();
            let lb: Vec<u32> = out_l.as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(sb, lb, "outputs diverged bitwise");
        }
    }

    /// `evaluate_batch` / `predict_all_with`: same argmaxes on both paths
    /// over the batch boundaries that matter — B = 1, non-dividing B,
    /// B > sample count (all reachable from the ranges) — and thread
    /// counts 1..=8.
    #[test]
    fn predictions_agree_across_batch_sizes_and_threads(
        seed in any::<u64>(),
        count in 1usize..=9,
        batch in 1usize..=12,
        threads in 1usize..=8,
        kernel_idx in 0usize..3,
        bits in 1u32..=16,
    ) {
        let kernel = NnKernel::ALL[kernel_idx];
        let data = SyntheticDataset::new(count, 4, 1, 12, 12, seed ^ 0xd0d0);
        let cfg = QuantConfig::uniform(6, bits, bits);
        let sample = tiny_net(seed, kernel, BatchPath::SampleMajor, batch);
        let layer = tiny_net(seed, kernel, BatchPath::LayerMajor, batch);
        let oracle = sample
            .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("oracle inference");
        let fused = layer
            .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("fused inference");
        prop_assert_eq!(&oracle, &fused, "evaluate_batch diverged");
        let exec = Executor::new(threads);
        let parallel_sample = sample
            .predict_all_with(&data, &cfg, &exec)
            .expect("parallel oracle inference");
        let parallel_layer = layer
            .predict_all_with(&data, &cfg, &exec)
            .expect("parallel fused inference");
        prop_assert_eq!(&oracle, &parallel_sample, "parallel sample-major diverged");
        prop_assert_eq!(&oracle, &parallel_layer, "parallel layer-major diverged");
    }

    /// The fused conv fill on degenerate geometry: `kernel_equivalence`'s
    /// conv ranges (padding at or past the kernel, stride past the
    /// kernel, 1x1 kernels, multi-channel inputs, every subword mode pair)
    /// plus the 5x5 and 11x11 kernels of the scenario networks, through a
    /// one-layer `forward_batch` on `LayerMajor` with 1..=4 samples —
    /// outputs and statistics bitwise equal to the naive per-sample
    /// oracle.
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
        let net = |kernel, path| {
            Network::new("conv", vec![conv()])
                .with_kernel(kernel)
                .with_batch_path(path)
        };
        let inputs: Vec<Tensor> = (0..count)
            .map(|i| Tensor::random(in_c, h, w, seed ^ 0x5eed ^ (i as u64) << 16))
            .collect();
        let cfg = QuantConfig::uniform(1, wbits, abits);
        let oracle = net(NnKernel::Naive, BatchPath::SampleMajor)
            .forward_batch(&inputs, &cfg, &mut Scratch::new())
            .expect("oracle inference");
        let fused = net(NnKernel::GemmPacked, BatchPath::LayerMajor)
            .forward_batch(&inputs, &cfg, &mut Scratch::new())
            .expect("fused inference");
        prop_assert_eq!(oracle.len(), fused.len());
        for ((out_n, st_n), (out_f, st_f)) in oracle.iter().zip(fused.iter()) {
            prop_assert_eq!(st_n, st_f, "statistics diverged");
            prop_assert_eq!(out_n.shape(), out_f.shape(), "shape diverged");
            let nb: Vec<u32> = out_n.as_slice().iter().map(|v| v.to_bits()).collect();
            let fb: Vec<u32> = out_f.as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(nb, fb, "outputs diverged bitwise");
        }
    }

    /// The incremental precision search on `LayerMajor` (batched prefix
    /// pass, batched candidate layer, batched suffix) reproduces the
    /// per-sample scan's `LayerRequirement`s exactly, which in turn match
    /// the rescan oracle.
    #[test]
    fn precision_search_agrees_across_paths(
        seed in any::<u64>(),
        batch in 1usize..=7,
        threads in 1usize..=4,
        op_idx in 0usize..2,
    ) {
        let op = [Operand::Weights, Operand::Activations][op_idx];
        let data = SyntheticDataset::new(10, 4, 1, 12, 12, seed ^ 0x5ca7);
        let exec = Executor::new(threads);
        let search = PrecisionSearch::new().with_target(0.9);
        let mut results = Vec::new();
        for path in BatchPath::ALL {
            for strategy in SearchStrategy::ALL {
                let net = tiny_net(seed, NnKernel::GemmPacked, path, batch);
                results.push(search.with_strategy(strategy).search_with(&net, &data, op, &exec));
            }
        }
        for r in &results[1..] {
            prop_assert_eq!(&results[0], r, "search diverged across path/strategy");
        }
    }
}

/// The boundary widths pinned explicitly: B = 1 (every chunk degenerates
/// to the per-sample path), B that does not divide the sample count
/// (ragged tail), and B past the sample count (one short chunk).
#[test]
fn explicit_batch_boundaries_agree() {
    let data = SyntheticDataset::new(7, 4, 1, 12, 12, 404);
    let cfg = QuantConfig::uniform(6, 8, 8);
    let oracle = tiny_net(17, NnKernel::GemmPacked, BatchPath::SampleMajor, 7)
        .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
        .expect("oracle inference");
    for batch in [1usize, 3, 7, 16] {
        let fused = tiny_net(17, NnKernel::GemmPacked, BatchPath::LayerMajor, batch)
            .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("fused inference");
        assert_eq!(oracle, fused, "batch size {batch} moved a prediction");
    }
}

/// The path is execution strategy, not model identity: it defaults to
/// layer-major, never participates in equality, and `batch_size == 0`
/// reads as the default chunk width.
#[test]
fn batch_path_is_execution_strategy_only() {
    let a = tiny_net(5, NnKernel::GemmPacked, BatchPath::SampleMajor, 1);
    let b = tiny_net(5, NnKernel::GemmPacked, BatchPath::LayerMajor, 9);
    assert_eq!(a, b, "batch path/size must not affect network identity");
    assert_eq!(
        Network::new("n", vec![Layer::ReLU]).batch_path(),
        BatchPath::LayerMajor
    );
    let zero = tiny_net(5, NnKernel::GemmPacked, BatchPath::LayerMajor, 0);
    assert_eq!(zero.batch_size(), dvafs_nn::DEFAULT_BATCH_SIZE);
}

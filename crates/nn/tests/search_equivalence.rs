//! The search-strategy equivalence net: the prefix-cached incremental
//! precision search must produce **bit-identical** `LayerRequirement`s to
//! the retained full-forward rescan oracle — layer indices, names, bits,
//! and the exact f64 relative-accuracy — over random tiny networks x
//! operands x targets x thread counts 1..=8. Datasets of one
//! [`DEFAULT_BATCH_SIZE`] chunk and of several are both covered: only the
//! latter run the search's inner per-chunk map in parallel, nested in its
//! per-layer map. Plus the invalidation contract: mutating weights through
//! `weights_mut` between scans prunes the memoized state, so a warm network
//! still matches a cold clone.

use dvafs_executor::Executor;
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::kernel::DEFAULT_BATCH_SIZE;
use dvafs_nn::layers::{Conv2d, Dense, Layer};
use dvafs_nn::network::Network;
use dvafs_nn::precision::{LayerRequirement, Operand, PrecisionSearch, SearchStrategy};
use proptest::prelude::*;

/// Builds a random tiny conv/dense cascade whose geometry is derived from
/// the proptest parameters (always ends in a dense classifier).
fn tiny_net(
    seed: u64,
    channels: usize,
    h: usize,
    pool: bool,
    hidden: usize,
    classes: usize,
) -> Network {
    let mut layers = vec![
        Layer::Conv2d(Conv2d::random(1, channels, 3, 1, 0, seed)),
        Layer::ReLU,
    ];
    let mut d = h - 2;
    if pool {
        layers.push(Layer::MaxPool2d { k: 2, stride: 2 });
        d = (d - 2) / 2 + 1;
    }
    layers.push(Layer::Dense(Dense::random(
        channels * d * d,
        hidden,
        seed ^ 0xd1,
    )));
    layers.push(Layer::ReLU);
    layers.push(Layer::Dense(Dense::random(hidden, classes, seed ^ 0xd2)));
    Network::new("tiny", layers)
}

/// Bit-level equality of two requirement lists: every field, with the
/// f64 relative-accuracy compared through `to_bits` (an `==` on floats
/// would accept -0.0 vs 0.0).
fn assert_reqs_bit_identical(oracle: &[LayerRequirement], got: &[LayerRequirement]) {
    assert_eq!(oracle.len(), got.len(), "requirement count diverged");
    for (o, g) in oracle.iter().zip(got.iter()) {
        assert_eq!(o.layer_index, g.layer_index, "layer index diverged");
        assert_eq!(o.layer_name, g.layer_name, "layer name diverged");
        assert_eq!(o.bits, g.bits, "{}: bits diverged", o.layer_name);
        assert_eq!(
            o.relative_accuracy.to_bits(),
            g.relative_accuracy.to_bits(),
            "{}: relative accuracy diverged bitwise ({} vs {})",
            o.layer_name,
            o.relative_accuracy,
            g.relative_accuracy
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental == Rescan over random tiny networks, both operands,
    /// loose-to-paper targets, and independently chosen thread counts for
    /// each strategy (1..=8): results never depend on the strategy *or*
    /// on either strategy's worker count.
    #[test]
    fn incremental_matches_rescan(
        seed in any::<u64>(),
        channels in 2usize..=4,
        h in 8usize..=10,
        pool in any::<bool>(),
        hidden in 4usize..=8,
        classes in 3usize..=4,
        samples in 4usize..=8,
        weights_operand in any::<bool>(),
        target_i in 0usize..3,
        rescan_threads in 1usize..=8,
        incremental_threads in 1usize..=8,
    ) {
        let target = [0.7f64, 0.85, 0.99][target_i];
        let net = tiny_net(seed, channels, h, pool, hidden, classes);
        let data = SyntheticDataset::new(samples, classes, 1, h, h, seed ^ 0xda7a);
        let operand = if weights_operand { Operand::Weights } else { Operand::Activations };
        let oracle = PrecisionSearch::new()
            .with_target(target)
            .with_strategy(SearchStrategy::Rescan)
            .search_with(&net, &data, operand, &Executor::new(rescan_threads));
        let got = PrecisionSearch::new()
            .with_target(target)
            .with_strategy(SearchStrategy::Incremental)
            .search_with(&net, &data, operand, &Executor::new(incremental_threads));
        assert_reqs_bit_identical(&oracle, &got);
    }

    /// The same equivalence on datasets of two to four chunks, so the
    /// inner per-chunk map has several indices on every thread count.
    #[test]
    fn incremental_matches_rescan_over_several_chunks(
        seed in any::<u64>(),
        channels in 2usize..=3,
        pool in any::<bool>(),
        chunks in 2usize..=4,
        weights_operand in any::<bool>(),
        target_i in 0usize..3,
        rescan_threads in 1usize..=8,
        incremental_threads in 1usize..=8,
    ) {
        let target = [0.7f64, 0.85, 0.99][target_i];
        let net = tiny_net(seed, channels, 8, pool, 6, 3);
        // The last chunk is partial.
        let samples = chunks * DEFAULT_BATCH_SIZE - 5;
        let data = SyntheticDataset::new(samples, 3, 1, 8, 8, seed ^ 0xda7a);
        let operand = if weights_operand { Operand::Weights } else { Operand::Activations };
        let oracle = PrecisionSearch::new()
            .with_target(target)
            .with_strategy(SearchStrategy::Rescan)
            .search_with(&net, &data, operand, &Executor::new(rescan_threads));
        let got = PrecisionSearch::new()
            .with_target(target)
            .with_strategy(SearchStrategy::Incremental)
            .search_with(&net, &data, operand, &Executor::new(incremental_threads));
        assert_reqs_bit_identical(&oracle, &got);
    }
}

/// A VGG-style stack (VGG16's geometry, scaled down): two blocks of two
/// 3×3, stride-1, pad-1 convolutions, each block closed by a 2×2 max pool,
/// then the dense classifier. Three chunks of samples, both strategies, at
/// every thread count 1..=8 against the serial rescan oracle.
#[test]
fn vgg_style_stack_agrees_over_several_chunks_for_every_thread_count() {
    let conv = |i, o, seed| Layer::Conv2d(Conv2d::random(i, o, 3, 1, 1, seed));
    let net = Network::new(
        "vgg-style",
        vec![
            conv(3, 4, 70),
            Layer::ReLU,
            conv(4, 4, 71),
            Layer::ReLU,
            Layer::MaxPool2d { k: 2, stride: 2 },
            conv(4, 6, 72),
            Layer::ReLU,
            conv(6, 6, 73),
            Layer::ReLU,
            Layer::MaxPool2d { k: 2, stride: 2 },
            Layer::Dense(Dense::random(6 * 3 * 3, 12, 74)),
            Layer::ReLU,
            Layer::Dense(Dense::random(12, 5, 75)),
        ],
    );
    let data = SyntheticDataset::new(3 * DEFAULT_BATCH_SIZE - 7, 5, 3, 12, 12, 76);
    for operand in [Operand::Weights, Operand::Activations] {
        let oracle = PrecisionSearch::new()
            .with_strategy(SearchStrategy::Rescan)
            .search(&net, &data, operand);
        for threads in 1..=8 {
            let exec = Executor::new(threads);
            for strategy in [SearchStrategy::Rescan, SearchStrategy::Incremental] {
                let got = PrecisionSearch::new()
                    .with_strategy(strategy)
                    .search_with(&net, &data, operand, &exec);
                assert_reqs_bit_identical(&oracle, &got);
            }
        }
    }
}

/// A deeper fixed cascade (two conv blocks) at the paper's 99 % target,
/// swept over every thread count 1..=8 for both strategies.
#[test]
fn deep_cascade_agrees_for_every_thread_count() {
    let net = Network::new(
        "deep",
        vec![
            Layer::Conv2d(Conv2d::random(1, 4, 3, 1, 1, 60)),
            Layer::ReLU,
            Layer::MaxPool2d { k: 2, stride: 2 },
            Layer::Conv2d(Conv2d::random(4, 6, 3, 1, 0, 61)),
            Layer::ReLU,
            Layer::Dense(Dense::random(6 * 4 * 4, 10, 62)),
            Layer::ReLU,
            Layer::Dense(Dense::random(10, 4, 63)),
        ],
    );
    let data = SyntheticDataset::new(8, 4, 1, 12, 12, 64);
    for operand in [Operand::Weights, Operand::Activations] {
        let oracle = PrecisionSearch::new()
            .with_strategy(SearchStrategy::Rescan)
            .search(&net, &data, operand);
        for threads in 1..=8 {
            let got = PrecisionSearch::new()
                .with_strategy(SearchStrategy::Incremental)
                .search_with(&net, &data, operand, &Executor::new(threads));
            assert_reqs_bit_identical(&oracle, &got);
        }
    }
}

/// Mutating weights through `weights_mut` between scans must invalidate
/// every memoized quantization: a network whose caches were warmed by a
/// previous search still matches a cold clone of its mutated self (a
/// stale weight pack or activation memo would diverge here).
#[test]
fn weight_mutation_between_scans_prunes_the_memo() {
    let mut net = tiny_net(77, 3, 9, true, 6, 4);
    let data = SyntheticDataset::new(6, 4, 1, 9, 9, 78);
    let search = PrecisionSearch::new().with_target(0.8);

    // Warm every per-layer cache with one search per strategy.
    let before_rescan =
        search
            .with_strategy(SearchStrategy::Rescan)
            .search(&net, &data, Operand::Weights);
    let before_incremental =
        search
            .with_strategy(SearchStrategy::Incremental)
            .search(&net, &data, Operand::Weights);
    assert_reqs_bit_identical(&before_rescan, &before_incremental);

    // Prune half of the first conv's weights in place (weights_mut is the
    // invalidation point of every per-layer memo).
    let Layer::Conv2d(conv) = &mut net.layers_mut()[0] else {
        panic!("layer 0 is the conv layer");
    };
    let n = conv.weights_mut().len();
    for w in conv.weights_mut().iter_mut().take(n / 2) {
        *w = 0.0;
    }

    // A clone starts with cold caches: its rescan search is the oracle a
    // stale memo cannot match.
    let cold = net.clone();
    for operand in [Operand::Weights, Operand::Activations] {
        let oracle = search
            .with_strategy(SearchStrategy::Rescan)
            .search(&cold, &data, operand);
        let warm_incremental = search
            .with_strategy(SearchStrategy::Incremental)
            .search_with(&net, &data, operand, &Executor::new(4));
        let warm_rescan = search
            .with_strategy(SearchStrategy::Rescan)
            .search(&net, &data, operand);
        assert_reqs_bit_identical(&oracle, &warm_incremental);
        assert_reqs_bit_identical(&oracle, &warm_rescan);
    }
}

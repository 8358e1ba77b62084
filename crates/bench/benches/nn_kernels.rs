//! `gemm_vs_naive`: the NN MAC-kernel micro-benchmark.
//!
//! Times full-network batch forwards (LeNet-5 and the fig6-sized AlexNet
//! stand-in) on both MAC kernels — the retained naive oracle and the
//! default subword-packed GEMM — via the criterion harness, then re-times
//! them with plain wall clocks and writes the per-workload medians to
//! `BENCH_nn_kernels.csv` (CI uploads it next to `BENCH_sweep.json`).
//! The kernels are bit-identical by construction (asserted here too), so
//! the CSV is a pure wall-time record.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvafs::report::median_time_ms;
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::kernel::{NnKernel, Scratch};
use dvafs_nn::models;
use dvafs_nn::network::{Network, QuantConfig};
use std::hint::black_box;

/// The benchmarked workloads: name, network, dataset.
fn workloads() -> Vec<(&'static str, Network, SyntheticDataset)> {
    vec![
        (
            "lenet5_28px",
            models::lenet5(1),
            SyntheticDataset::digits(4, 2),
        ),
        (
            "alexnet_67px_s0.125",
            models::alexnet(67, 0.125, 3),
            SyntheticDataset::image_like(2, 67, 10, 4),
        ),
    ]
}

fn forward_all(net: &Network, data: &SyntheticDataset, cfg: &QuantConfig, scratch: &mut Scratch) {
    black_box(
        net.forward_batch(data.images(), cfg, scratch)
            .expect("forward succeeds"),
    );
}

fn bench_gemm_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_vs_naive");
    for (name, net, data) in workloads() {
        let cfg = QuantConfig::uniform(net.layer_count(), 8, 8);
        for kernel in NnKernel::ALL {
            let net = net.clone().with_kernel(kernel);
            group.bench_with_input(BenchmarkId::new(name, kernel), &cfg, |b, cfg| {
                let mut scratch = Scratch::new();
                b.iter(|| forward_all(&net, &data, cfg, &mut scratch));
            });
        }
    }
    group.finish();
}

/// Writes `BENCH_nn_kernels.csv`: one row per workload with the naive
/// and packed medians (the same [`median_time_ms`] primitive
/// `bench_sweep` uses, so the two artifacts share one definition of
/// "median wall time") and their ratio, after asserting both kernels
/// return identical predictions.
fn write_kernel_csv() {
    let mut csv = String::from("workload,bits,naive_ms,packed_ms,kernel_speedup\n");
    for (name, net, data) in workloads() {
        let cfg = QuantConfig::uniform(net.layer_count(), 8, 8);
        let naive_net = net.clone().with_kernel(NnKernel::Naive);
        let packed_net = net.clone().with_kernel(NnKernel::GemmPacked);
        let mut scratch = Scratch::new();
        let naive_out = naive_net
            .evaluate_batch(data.images(), &cfg, &mut scratch)
            .expect("naive inference");
        assert_eq!(
            naive_out,
            packed_net
                .evaluate_batch(data.images(), &cfg, &mut scratch)
                .expect("packed inference"),
            "{name}: packed kernel disagrees with naive"
        );
        // Warm caches and buffers, then take medians.
        forward_all(&naive_net, &data, &cfg, &mut scratch);
        forward_all(&packed_net, &data, &cfg, &mut scratch);
        let (naive_ms, ()) =
            median_time_ms(5, || forward_all(&naive_net, &data, &cfg, &mut scratch));
        let (packed_ms, ()) =
            median_time_ms(5, || forward_all(&packed_net, &data, &cfg, &mut scratch));
        let speedup = if packed_ms > 0.0 {
            naive_ms / packed_ms
        } else {
            0.0
        };
        csv.push_str(&format!(
            "{name},8,{naive_ms:.3},{packed_ms:.3},{speedup:.3}\n"
        ));
        println!("kernel {name:<24} naive {naive_ms:>9.3} ms  packed {packed_ms:>9.3} ms  speedup {speedup:.2}x");
    }
    // Benches run with the package directory as cwd; the CSV belongs at
    // the workspace root, next to BENCH_sweep.json (CI uploads both).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_nn_kernels.csv");
    std::fs::write(path, csv).expect("write BENCH_nn_kernels.csv");
    println!("wrote {path}");
}

fn bench_with_csv(c: &mut Criterion) {
    bench_gemm_vs_naive(c);
    write_kernel_csv();
}

criterion_group!(benches, bench_with_csv);
criterion_main!(benches);

//! # dvafs-bench — experiment harness
//!
//! All experiments live in the scenario registry ([`dvafs::scenario`]) and
//! are served by **one** CLI, the `dvafs` binary ([`cli`]):
//!
//! ```sh
//! cargo run -p dvafs-bench --release --bin dvafs -- list
//! cargo run -p dvafs-bench --release --bin dvafs -- run fig2 --format json
//! cargo run -p dvafs-bench --release --bin dvafs -- run --all --fast --out artifacts/
//! ```
//!
//! | scenario id | artefact |
//! |---|---|
//! | `table1` | Table I (k parameters) |
//! | `fig2` | Fig. 2a–d (f, slack, V, activity) |
//! | `fig3a` | Fig. 3a (energy/word, DAS/DVAS/DVAFS) |
//! | `fig3b` | Fig. 3b (energy vs RMSE vs baselines) |
//! | `fig4` | Fig. 4 (SIMD energy/word, SW=8/64) |
//! | `table2` | Table II (SIMD power split) |
//! | `fig6` | Fig. 6 (per-layer bits, LeNet-5/AlexNet) |
//! | `fig6_vgg` | Fig. 6 at VGG16 scale (16-layer search) |
//! | `fig8` | Fig. 8a/8b (Envision energy/word) |
//! | `table3` | Table III (per-layer power on Envision) |
//! | `cnn_layerwise` | Sec. IV/V end-to-end tuning on Envision |
//! | `ablations` | design-choice ablation studies |
//!
//! Every scenario accepts `--threads N` (default: `DVAFS_THREADS` or the
//! host's available parallelism) and produces **bit-identical output for
//! any thread count**. `--fast` is uniformly accepted; scenarios that are
//! already CI-sized treat it as a no-op — `dvafs list` documents per
//! scenario what it shrinks.
//!
//! Wall time is measured by the repository benchmark, not here:
//! `python3 perfbench/run.py` times every scenario and the serve path
//! (see `BENCHMARK.json`).

#![warn(missing_docs)]

pub mod cli;

pub use dvafs::scenario::EXPERIMENT_SEED;

#[cfg(test)]
mod tests {
    #[test]
    fn seed_is_fixed() {
        assert_eq!(super::EXPERIMENT_SEED, 0xDA7E2017);
    }
}

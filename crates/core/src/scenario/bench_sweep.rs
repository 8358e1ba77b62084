//! The `BENCH_sweep.json` emitter: wall time of **every registered
//! scenario**, serial vs parallel, scalar-engine vs bitsliced-engine,
//! naive-kernel vs subword-packed-kernel *and* rescan-search vs
//! incremental-search, plus thread count, host parallelism and the repeat
//! count — the per-commit performance record CI uploads as an artifact.
//!
//! Since the registry refactor this scenario times the real experiments
//! through [`super::registry`], so the perf trajectory covers every
//! figure and table, not just the parallelized multiplier sweeps. Each
//! scenario runs five ways, and while timing, the scenario also
//! *verifies* the determinism contract four times over: each scenario's
//! parallel [`ScenarioResult`] is asserted equal to the serial one, the
//! scalar-netlist-oracle run is asserted equal to the bitsliced one, the
//! naive-MAC-kernel-oracle run is asserted equal to the subword-packed
//! one, and the rescan-search-oracle run is asserted equal to the
//! incremental one, before a timing is recorded. The gate-level scenarios
//! (fig2/fig3a/fig3b/table1/ablations) are where `engine_speedup` bites;
//! `kernel_speedup` and `search_speedup` bite on the CNN scenarios
//! (fig6/fig6_vgg/cnn_layerwise); scenarios without any of them in the
//! loop time near 1x.
//!
//! Timing hygiene: one untimed serial warmup pass per scenario warms the
//! process-wide state (page cache, allocator, memoized calibrations)
//! before anything is measured, then each measurement is the **median of
//! N timed repeats** (`ScenarioCtx::repeats`, default 3, `--repeats N`
//! on the CLI) — the median also absorbs the per-configuration cold
//! start the shared warmup cannot reach (thread spin-up in the parallel
//! run, first-touch in the oracle runs); at `--repeats 1` those
//! first-run costs land in the recorded number, which is why only the
//! artifact-focused CI step and the smoke tests use it. The parallel
//! measurement defaults to the host parallelism
//! when the invoking context is serial — a 1-thread `run --all` must not
//! record a meaningless 1-thread "parallel" column, and nothing hardcodes
//! a worker count.
//!
//! Timings go to the JSON artifact only — the presentation text stays
//! byte-stable across thread counts and runs, so smoke tests can diff it
//! like any other scenario. Without `--fast` this runs every scenario at
//! paper scale many times (minutes of gate-level simulation); CI uses
//! `--fast`.

use super::{registry, DataTable, Scenario, ScenarioCtx, ScenarioResult};
use crate::report::{bench_sweep_json, median_time_ms, SweepTiming};
use dvafs_arith::netlist::Engine;
use dvafs_executor::Executor;
use dvafs_nn::{NnKernel, SearchStrategy};

/// The performance-sweep scenario (`dvafs run bench_sweep`).
pub struct BenchSweep;

impl Scenario for BenchSweep {
    fn id(&self) -> &'static str {
        "bench_sweep"
    }

    fn label(&self) -> &'static str {
        "BENCH sweep"
    }

    fn title(&self) -> &'static str {
        "serial vs parallel wall time per scenario"
    }

    fn fast_note(&self) -> &'static str {
        "runs every timed scenario in its own fast configuration"
    }

    fn run(&self, ctx: &ScenarioCtx) -> ScenarioResult {
        let repeats = ctx.repeats.max(1);
        // The baseline is always the *shipping* configuration — bitsliced
        // engine, subword-packed GEMM kernel, incremental search —
        // regardless of what the invoking context selected (a
        // `--kernel naive` run must not silently relabel the
        // serial_ms/packed_ms columns as naive and flatten kernel_speedup).
        let serial_ctx = ctx
            .serial()
            .with_engine(Engine::Bitsliced)
            .with_kernel(NnKernel::GemmPacked)
            .with_search(SearchStrategy::Incremental);
        // The scalar-oracle run: one thread, scalar netlist engine — the
        // pre-bitslicing baseline every engine_speedup column is against.
        let scalar_ctx = serial_ctx.clone().with_engine(Engine::Scalar);
        // The naive-oracle run: one thread, naive NN MAC kernel — the
        // pre-GEMM baseline every kernel_speedup column is against.
        let naive_ctx = serial_ctx.clone().with_kernel(NnKernel::Naive);
        // The rescan-oracle run: one thread, full-forward precision-search
        // rescan — the pre-incremental baseline every search_speedup
        // column is against.
        let rescan_ctx = serial_ctx.clone().with_search(SearchStrategy::Rescan);
        // The parallel run: the shipping configuration on the invoking
        // context's executor when it is actually parallel, otherwise on
        // the host parallelism (never a hardcoded count — a serial
        // `run --all` would otherwise record a "parallel" column that
        // measures nothing).
        let parallel_ctx = if ctx.threads() > 1 {
            ctx.clone()
        } else {
            ctx.clone().with_threads(Executor::host_parallelism())
        }
        .with_engine(Engine::Bitsliced)
        .with_kernel(NnKernel::GemmPacked)
        .with_search(SearchStrategy::Incremental);
        let mut timings = Vec::new();
        let mut r = ScenarioResult::new();

        // Warm the process-wide memoized delay-model calibrations so the
        // first timed run isn't charged their one-time grid searches.
        let _ = dvafs_tech::technology::Technology::lp40();
        let _ = dvafs_tech::technology::Technology::fdsoi28();

        for s in registry() {
            if s.id() == self.id() {
                continue; // timing the timer would recurse
            }
            // Untimed warmup: faults pages, fills caches, and exercises any
            // lazily initialized state before the first measurement.
            let _ = s.run(&serial_ctx);
            let (serial_ms, serial_result) = median_time_ms(repeats, || s.run(&serial_ctx));
            let (parallel_ms, parallel_result) = median_time_ms(repeats, || s.run(&parallel_ctx));
            let (scalar_ms, scalar_result) = median_time_ms(repeats, || s.run(&scalar_ctx));
            let (naive_ms, naive_result) = median_time_ms(repeats, || s.run(&naive_ctx));
            let (rescan_ms, rescan_result) = median_time_ms(repeats, || s.run(&rescan_ctx));
            assert!(
                serial_result == parallel_result,
                "{}: parallel result diverged from serial",
                s.id()
            );
            assert!(
                scalar_result == serial_result,
                "{}: scalar-engine result diverged from bitsliced",
                s.id()
            );
            assert!(
                naive_result == serial_result,
                "{}: naive-kernel result diverged from packed GEMM",
                s.id()
            );
            assert!(
                rescan_result == serial_result,
                "{}: rescan-search result diverged from incremental",
                s.id()
            );
            r.line(format_args!(
                "measured {}: serial and parallel runs bit-identical",
                s.id()
            ));
            timings.push(SweepTiming {
                figure: s.id().to_string(),
                serial_ms,
                parallel_ms,
                scalar_ms,
                naive_ms,
                rescan_ms,
            });
        }

        let mut data = DataTable::new(
            "timings",
            vec![
                "scenario",
                "serial_ms",
                "parallel_ms",
                "speedup",
                "scalar_ms",
                "engine_speedup",
                "naive_ms",
                "kernel_speedup",
                "rescan_ms",
                "search_speedup",
            ],
        );
        for t in &timings {
            data.push_row(vec![
                t.figure.clone().into(),
                t.serial_ms.into(),
                t.parallel_ms.into(),
                t.speedup().into(),
                t.scalar_ms.into(),
                t.engine_speedup().into(),
                t.naive_ms.into(),
                t.kernel_speedup().into(),
                t.rescan_ms.into(),
                t.search_speedup().into(),
            ]);
        }
        if parallel_ctx.threads() == 1 {
            // A 1-core host cannot measure thread scaling: the "parallel"
            // run is the serial run again. Flag the column so a
            // checked-in artifact from such a host is not misread.
            r.line("note: parallel run measured at 1 thread — the speedup column is a (1-core artifact)");
        }
        r.push_table(data);
        r.push_artifact(
            "BENCH_sweep.json",
            bench_sweep_json(&timings, parallel_ctx.threads(), ctx.fast, repeats),
        );
        r
    }
}

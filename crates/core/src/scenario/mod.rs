//! Pluggable paper experiments: every figure and table of the DATE 2017
//! evaluation as a named, machine-readable [`Scenario`].
//!
//! The original harness grew as one hand-rolled binary per artefact, each
//! with its own `main`, arg parsing and ad-hoc printing. This module turns
//! experiments into *data*:
//!
//! * [`Scenario`] — the experiment interface: an id (`"fig2"`), a banner
//!   label/title, and `run(&ScenarioCtx) -> ScenarioResult`;
//! * [`ScenarioCtx`] — everything a run needs: the root seed, fast-mode,
//!   the oracle selectors, and the deterministic parallel [`Executor`];
//! * [`ScenarioResult`] — structured tables plus the legacy presentation
//!   text, rendered to text/JSON/CSV by the one generic serializer in
//!   [`render`];
//! * [`registry`] — the static table of all scenarios, in paper order.
//!
//! The `dvafs` CLI in `crates/bench` (`dvafs list`, `dvafs run <id>`) is a
//! thin front-end over this module; the smoke tests diff its stdout
//! against [`render::render`] for every scenario.
//!
//! ## Determinism
//!
//! A scenario run is a pure function of its context: same seed, same
//! fast-mode ⇒ bit-identical [`ScenarioResult`] for *any* thread count
//! (the executor merges in index order) and for either oracle selector
//! ([`ScenarioCtx::engine`], [`ScenarioCtx::search`]).

mod ablations;
mod cnn_layerwise;
mod fig2;
mod fig3a;
mod fig3b;
mod fig4;
mod fig6;
mod fig6_vgg;
mod fig8;
pub mod render;
pub mod result;
mod table1;
mod table2;
mod table3;

pub use ablations::Ablations;
pub use cnn_layerwise::CnnLayerwise;
pub use fig2::Fig2;
pub use fig3a::Fig3a;
pub use fig3b::Fig3b;
pub use fig4::Fig4;
pub use fig6::Fig6;
pub use fig6_vgg::Fig6Vgg;
pub use fig8::Fig8;
pub use render::{banner_text, render, Format};
pub use result::{DataTable, ScenarioResult, Value};
pub use table1::Table1;
pub use table2::Table2;
pub use table3::Table3;

use dvafs_arith::netlist::Engine;
use dvafs_executor::Executor;
use dvafs_nn::SearchStrategy;
use dvafs_simd::energy::SimdEnergyModel;
use dvafs_simd::kernels::ConvKernel;
use dvafs_simd::processor::{KernelReport, ProcConfig, Processor};
use dvafs_tech::scaling::ScalingMode;

/// Shared root seed of every experiment (full determinism). The
/// multiplier-level sweeps additionally pin their own
/// [`crate::sweep::MultiplierSweep::DEFAULT_SEED`] so the golden fixtures
/// of Fig. 2/3a/3b stay stable independently of this value.
pub const EXPERIMENT_SEED: u64 = 0xDA7E2017;

/// Everything a scenario run depends on: root seed, fast-mode, and the
/// executor the sweeps parallelize on.
#[derive(Debug, Clone)]
pub struct ScenarioCtx {
    /// Root seed for stimulus generation, synthetic models and datasets.
    pub seed: u64,
    /// Reduced problem sizes for CI smoke runs (`--fast`). Scenarios that
    /// are already CI-sized ignore it — see [`Scenario::fast_note`].
    pub fast: bool,
    /// Netlist evaluation engine for the gate-level scenarios (bitsliced
    /// by default; scalar is the reference oracle). Never moves a number —
    /// only wall time (`tests/scenario_registry.rs` renders every scenario
    /// both ways).
    pub engine: Engine,
    /// Precision-search strategy for the fig6-family scenarios
    /// (prefix-cached incremental by default; the full-forward rescan is
    /// the reference oracle). Like the engine, it never moves a number —
    /// only wall time.
    pub search: SearchStrategy,
    exec: Executor,
}

impl ScenarioCtx {
    /// The default context: [`EXPERIMENT_SEED`], full problem sizes, the
    /// bitsliced netlist engine, and the environment-configured executor.
    #[must_use]
    pub fn new() -> Self {
        ScenarioCtx {
            seed: EXPERIMENT_SEED,
            fast: false,
            engine: Engine::default(),
            search: SearchStrategy::default(),
            exec: Executor::from_env(),
        }
    }

    /// Replaces the executor with an explicit worker count.
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_executor(Executor::new(threads))
    }

    /// Replaces the executor.
    #[must_use]
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// Sets fast-mode (reduced problem sizes).
    #[must_use]
    pub fn with_fast(mut self, fast: bool) -> Self {
        self.fast = fast;
        self
    }

    /// Replaces the netlist engine (see [`ScenarioCtx::engine`]).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the precision-search strategy (see [`ScenarioCtx::search`]).
    #[must_use]
    pub fn with_search(mut self, search: SearchStrategy) -> Self {
        self.search = search;
        self
    }

    /// Replaces the root seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The executor scenario sweeps run on.
    #[must_use]
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The executor's worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }
}

impl Default for ScenarioCtx {
    fn default() -> Self {
        ScenarioCtx::new()
    }
}

/// Simulates `kernel` on the SIMD processor at every `(sw, mode, bits)`
/// cell of `grid`, in parallel, and returns the reports in grid order
/// (Fig. 4 and Table II). Energy and power numbers are only meaningful if
/// the machine computed the right outputs, so every cell's outputs are
/// checked bit for bit against the subword-packed GEMM reference
/// ([`ConvKernel::expected_outputs_packed`]). A reference depends only on
/// the cell's (bits, shift, lane width), so each distinct one is computed
/// once.
///
/// # Panics
///
/// Panics when a cell's outputs differ from its reference.
fn simulate_checked(
    ctx: &ScenarioCtx,
    kernel: &ConvKernel,
    grid: &[(usize, ScalingMode, u32)],
) -> Vec<KernelReport> {
    let model = SimdEnergyModel::new();
    let reports = ctx
        .executor()
        .par_map_indexed(grid, |_, &(sw, mode, bits)| {
            let cfg = ProcConfig::new(sw, mode, bits).expect("valid config");
            Processor::with_model(cfg, model.clone())
                .run_kernel(kernel)
                .expect("kernel runs")
        });
    let key = |r: &KernelReport| (r.bits, r.shift, r.mode.lane_bits());
    let mut keys: Vec<(u32, u32, u32)> = reports.iter().map(key).collect();
    keys.sort_unstable();
    keys.dedup();
    let references = ctx
        .executor()
        .par_map_indexed(&keys, |_, &(bits, shift, lane_bits)| {
            kernel.expected_outputs_packed(bits, shift, lane_bits)
        });
    for r in &reports {
        let reference = &references[keys.binary_search(&key(r)).expect("every key listed")];
        assert!(r.outputs == *reference, "outputs must stay bit-exact");
    }
    reports
}

/// One registered paper experiment.
///
/// Implementations are stateless unit structs; all run state comes from
/// the [`ScenarioCtx`], so a scenario can be executed concurrently or
/// timed from outside (the repository benchmark, `perfbench/`, does).
pub trait Scenario: Sync {
    /// Stable machine id, the `dvafs run` argument (e.g. `"fig2"`).
    fn id(&self) -> &'static str;

    /// The banner label — the paper artefact name (e.g. `"Fig. 2"`).
    fn label(&self) -> &'static str;

    /// The banner title — what the experiment reproduces.
    fn title(&self) -> &'static str;

    /// What `--fast` shrinks for this scenario (`dvafs list` shows this).
    /// The default documents the common case: nothing, the workload is
    /// already CI-sized.
    fn fast_note(&self) -> &'static str {
        "no-op (workload is already CI-sized)"
    }

    /// Runs the experiment and returns its structured result.
    fn run(&self, ctx: &ScenarioCtx) -> ScenarioResult;
}

/// The scenario registry, in paper order (figures, tables, then the
/// repo-level ablations).
static REGISTRY: [&dyn Scenario; 12] = [
    &Fig2,
    &Fig3a,
    &Fig3b,
    &Fig4,
    &Fig6,
    &Fig6Vgg,
    &CnnLayerwise,
    &Fig8,
    &Table1,
    &Table2,
    &Table3,
    &Ablations,
];

/// All registered scenarios.
#[must_use]
pub fn registry() -> &'static [&'static dyn Scenario] {
    &REGISTRY
}

/// Looks a scenario up by id.
#[must_use]
pub fn find(id: &str) -> Option<&'static dyn Scenario> {
    REGISTRY.iter().copied().find(|s| s.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let mut ids: Vec<&str> = registry().iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), 12);
        for id in &ids {
            assert!(find(id).is_some(), "find({id})");
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12, "duplicate scenario ids");
        assert!(find("nope").is_none());
    }

    #[test]
    fn ctx_builders() {
        let ctx = ScenarioCtx::new()
            .with_threads(3)
            .with_fast(true)
            .with_seed(7);
        assert_eq!(ctx.threads(), 3);
        assert!(ctx.fast);
        assert_eq!(ctx.seed, 7);
        assert_eq!(ctx.engine, Engine::Bitsliced);
        assert_eq!(ctx.search, SearchStrategy::Incremental);
        // The oracle builders swap one selector and keep everything else.
        let oracle = ctx
            .with_engine(Engine::Scalar)
            .with_search(SearchStrategy::Rescan);
        assert_eq!(oracle.engine, Engine::Scalar);
        assert_eq!(oracle.search, SearchStrategy::Rescan);
        assert_eq!((oracle.threads(), oracle.fast, oracle.seed), (3, true, 7));
    }
}

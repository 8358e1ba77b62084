//! Multiplier-level evaluation sweeps: the data behind Fig. 2, Fig. 3a and
//! Fig. 3b.
//!
//! Every sweep runs on a [`Executor`]: work is partitioned by index
//! (grid cells, Monte-Carlo chunks) and merged in index order, so results
//! are **bit-identical** for any thread count — `cargo test` enforces this
//! with property tests over thread counts and seeds.

use dvafs_arith::activity::{
    extract_das_profile_with, extract_dvafs_profile_with, ActivityProfile,
};
use dvafs_arith::metrics::{
    operand_stream_chunked, precision_sum_squared_error, relative_rmse_from_partials,
    sum_squared_error,
};
use dvafs_arith::multiplier::{
    ApproximateMultiplier, KulkarniMultiplier, KyawMultiplier, LiuMultiplier, TruncatedMultiplier,
};
use dvafs_arith::netlist::Engine;
use dvafs_executor::Executor;
use dvafs_tech::power::{extract_k_params, EnergySample, KParams, MultiplierEnergyModel};
use dvafs_tech::scaling::{OperatingPoint, ScalingMode};
use dvafs_tech::technology::Technology;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// One point of a Fig. 3b energy-vs-RMSE curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RmsePoint {
    /// Design label.
    pub design: String,
    /// Product RMSE relative to full scale (x axis of Fig. 3b).
    pub rmse: f64,
    /// Energy relative to the design's own exact implementation (y axis).
    pub energy: f64,
}

/// The multiplier-level sweep harness.
///
/// # Example
///
/// ```
/// use dvafs::sweep::MultiplierSweep;
///
/// let sweep = MultiplierSweep::new();
/// let fig3a = sweep.fig3a();
/// assert_eq!(fig3a.len(), 12); // 3 regimes x 4 precisions
/// ```
#[derive(Debug, Clone)]
pub struct MultiplierSweep {
    tech: Technology,
    samples: usize,
    seed: u64,
    exec: Executor,
    engine: Engine,
    /// Activity profiles (DAS, DVAFS), extracted lazily on first use so the
    /// builder can finish configuring the engine and executor first. The
    /// choice of either never moves a number — only wall time.
    profiles: OnceLock<(ActivityProfile, ActivityProfile)>,
}

impl MultiplierSweep {
    /// Default root seed (activity extraction and Monte-Carlo streams).
    pub const DEFAULT_SEED: u64 = 0x5EE9;
    /// Operand-pair count of the activity extraction runs.
    const PROFILE_SAMPLES: usize = 200;

    /// Creates the sweep on the paper's 40 nm technology.
    #[must_use]
    pub fn new() -> Self {
        MultiplierSweep::with_seed(Self::DEFAULT_SEED)
    }

    /// Creates the sweep rooted at an explicit seed: activity profiles are
    /// re-extracted and Monte-Carlo operand chunks re-derived from it, so
    /// two sweeps with the same seed produce bit-identical figures.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        MultiplierSweep {
            tech: Technology::lp40(),
            samples: 2000,
            seed,
            exec: Executor::from_env(),
            engine: Engine::default(),
            profiles: OnceLock::new(),
        }
    }

    /// Overrides the Monte-Carlo sample count of the Fig. 3b RMSE streams
    /// (the paper-scale default is 2000).
    #[must_use]
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Runs this sweep on an explicit executor (thread count). The default
    /// is [`Executor::from_env`]; results do not depend on the choice.
    #[must_use]
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// Runs the gate-level toggle simulations on an explicit netlist
    /// engine. The default is the bitsliced engine; [`Engine::Scalar`] is
    /// the reference oracle. Results do not depend on the choice
    /// (`tests/bitslice_equivalence.rs` and the oracle sweep in
    /// `tests/scenario_registry.rs` enforce it); profiles
    /// already extracted are discarded so the requested engine really does
    /// the work.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self.profiles = OnceLock::new();
        self
    }

    /// The root seed of this sweep.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The executor sweeps run on.
    #[must_use]
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The netlist engine toggle simulations run on.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The (DAS, DVAFS) profiles, extracting them on first use: the seven
    /// per-precision/per-mode streams are independent toggle simulations,
    /// fanned out on the executor in 64-sample bitsliced words and merged
    /// in sweep order.
    fn profiles(&self) -> &(ActivityProfile, ActivityProfile) {
        self.profiles.get_or_init(|| {
            (
                extract_das_profile_with(Self::PROFILE_SAMPLES, self.seed, self.engine, &self.exec),
                extract_dvafs_profile_with(
                    Self::PROFILE_SAMPLES,
                    self.seed,
                    self.engine,
                    &self.exec,
                ),
            )
        })
    }

    /// The extracted DAS activity profile.
    #[must_use]
    pub fn das_profile(&self) -> &ActivityProfile {
        &self.profiles().0
    }

    /// The extracted DVAFS activity profile.
    #[must_use]
    pub fn dvafs_profile(&self) -> &ActivityProfile {
        &self.profiles().1
    }

    /// Table I: the extracted k parameters.
    #[must_use]
    pub fn table1(&self) -> Vec<KParams> {
        extract_k_params(&self.tech, self.das_profile(), self.dvafs_profile())
    }

    /// Fig. 2: operating points (frequency, slack, voltage, activity) for
    /// all regimes and precisions. Grid cells are derived in parallel and
    /// merged in grid order.
    #[must_use]
    pub fn fig2(&self) -> Vec<OperatingPoint> {
        // Extract the profiles up front, not lazily from inside a worker.
        let (das, dvafs) = self.profiles();
        self.exec
            .par_map_indexed(&ScalingMode::precision_grid(), |_, &(mode, bits)| {
                OperatingPoint::derive(&self.tech, mode, bits, das, dvafs)
            })
    }

    /// Fig. 3a: energy per word across regimes and precisions, normalized
    /// to the non-reconfigurable 16-bit baseline (2.16 pJ). Grid cells are
    /// evaluated in parallel and merged in grid order.
    #[must_use]
    pub fn fig3a(&self) -> Vec<EnergySample> {
        let model = MultiplierEnergyModel::new(
            self.tech.clone(),
            self.das_profile().clone(),
            self.dvafs_profile().clone(),
        );
        self.exec
            .par_map_indexed(&ScalingMode::precision_grid(), |_, &(mode, bits)| {
                model.energy_per_word(mode, bits)
            })
    }

    /// Fig. 3b: the DVAFS energy-vs-RMSE curve against the four baselines
    /// (\[3\], \[3\]+VS, \[4\], \[5\], \[8\]).
    ///
    /// The Monte-Carlo RMSE integrals run as per-error-model × per-chunk
    /// tasks: operand chunk `c` is seeded from the root seed and `c` alone
    /// (see [`dvafs_arith::metrics::chunk_seed`]), and per-chunk
    /// squared-error partials are folded in chunk order — so the curve is
    /// bit-identical whether the task grid runs on one thread or many.
    /// Design points that share an error model (`[3]+VS` computes the same
    /// products as `[3]`, only at a scaled supply) share one integration:
    /// its partials feed both rows, which is exactly the f64 fold each row
    /// performed when it integrated separately.
    #[must_use]
    pub fn fig3b(&self) -> Vec<RmsePoint> {
        let chunks = operand_stream_chunked(self.samples, self.seed);
        let (models, jobs) = self.fig3b_models_and_jobs();

        // One task per (error model, chunk), model-major so model m's
        // partials are the contiguous slice [m*chunks .. (m+1)*chunks],
        // already in chunk order.
        let tasks: Vec<(usize, usize)> = (0..models.len())
            .flat_map(|m| (0..chunks.len()).map(move |c| (m, c)))
            .collect();
        let partials = self
            .exec
            .par_map_indexed(&tasks, |_, &(m, c)| models[m].sum_squared_error(&chunks[c]));

        jobs.iter()
            .map(|job| RmsePoint {
                design: job.design.to_string(),
                rmse: relative_rmse_from_partials(
                    &partials[job.model * chunks.len()..(job.model + 1) * chunks.len()],
                    self.samples,
                ),
                energy: job.energy,
            })
            .collect()
    }

    /// The Fig. 3b error models (each integrated once per chunk) and the
    /// design points referencing them, in the figure's plotting order.
    fn fig3b_models_and_jobs(&self) -> (Vec<Fig3bModel>, Vec<Fig3bJob>) {
        // DVAFS: precision maps to RMSE, energy from the Fig. 3a model
        // normalized to its own full-precision (reconfigurable) point.
        let model = MultiplierEnergyModel::new(
            self.tech.clone(),
            self.das_profile().clone(),
            self.dvafs_profile().clone(),
        );
        let own_full = model.energy_per_word(ScalingMode::Dvafs, 16).relative;
        let mut models = Vec::new();
        let mut jobs = Vec::new();
        for bits in [12u32, 8, 4] {
            models.push(Fig3bModel::Precision(bits));
            jobs.push(Fig3bJob {
                design: "DVAFS",
                energy: model.energy_per_word(ScalingMode::Dvafs, bits).relative / own_full,
                model: models.len() - 1,
            });
        }

        // Liu [3] with and without voltage scaling, at several recovery
        // depths; the VS twin multiplies identically, so both rows share
        // one error model.
        for k in [0u32, 2, 6, 12] {
            models.push(Fig3bModel::baseline(LiuMultiplier::new(k)));
            jobs.push(Fig3bJob {
                design: "Liu [3]",
                energy: LiuMultiplier::new(k).relative_energy(),
                model: models.len() - 1,
            });
            jobs.push(Fig3bJob {
                design: "Liu [3]+VS",
                energy: LiuMultiplier::new(k)
                    .with_voltage_scaling()
                    .relative_energy(),
                model: models.len() - 1,
            });
        }
        // Kulkarni [4] and Kyaw [5]: fixed design points.
        for (design, m) in [
            (
                "Kulkarni [4]",
                Fig3bModel::baseline(KulkarniMultiplier::new()),
            ),
            ("Kyaw [5]", Fig3bModel::baseline(KyawMultiplier::new(8))),
        ] {
            let energy = m.relative_energy();
            models.push(m);
            jobs.push(Fig3bJob {
                design,
                energy,
                model: models.len() - 1,
            });
        }
        // de la Guia Solaz [8]: the run-time truncated multiplier sweep.
        for t in [4u32, 8, 12, 16, 20] {
            let m = Fig3bModel::baseline(TruncatedMultiplier::new(t));
            let energy = m.relative_energy();
            models.push(m);
            jobs.push(Fig3bJob {
                design: "Trunc [8]",
                energy,
                model: models.len() - 1,
            });
        }
        (models, jobs)
    }
}

/// One Fig. 3b error integrand: how to sum a design's squared product
/// error over an operand chunk.
enum Fig3bModel {
    /// DVAFS at a precision: squared error of MSB truncation.
    Precision(u32),
    /// A baseline approximate multiplier.
    Baseline(Box<dyn ApproximateMultiplier + Send + Sync>),
}

impl Fig3bModel {
    fn baseline<M: ApproximateMultiplier + Send + Sync + 'static>(multiplier: M) -> Self {
        Fig3bModel::Baseline(Box::new(multiplier))
    }

    fn relative_energy(&self) -> f64 {
        match self {
            Fig3bModel::Precision(_) => unreachable!("precision points precompute energy"),
            Fig3bModel::Baseline(m) => m.relative_energy(),
        }
    }

    fn sum_squared_error(&self, chunk: &[(u16, u16)]) -> f64 {
        match self {
            Fig3bModel::Precision(bits) => precision_sum_squared_error(*bits, chunk),
            Fig3bModel::Baseline(multiplier) => sum_squared_error(multiplier.as_ref(), chunk),
        }
    }
}

/// One plotted Fig. 3b design point: a label, the energy it plots at, and
/// the index of the error model whose RMSE it shares.
struct Fig3bJob {
    design: &'static str,
    energy: f64,
    model: usize,
}

impl Default for MultiplierSweep {
    fn default() -> Self {
        MultiplierSweep::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> MultiplierSweep {
        MultiplierSweep::new()
    }

    #[test]
    fn fig2_covers_all_modes_and_precisions() {
        let points = sweep().fig2();
        assert_eq!(points.len(), 12);
        // DVAFS frequencies follow Fig. 2a.
        let dvafs: Vec<f64> = points
            .iter()
            .filter(|p| p.mode == ScalingMode::Dvafs)
            .map(|p| p.frequency_mhz)
            .collect();
        assert_eq!(dvafs, vec![500.0, 500.0, 250.0, 125.0]);
    }

    #[test]
    fn table1_shape() {
        let t = sweep().table1();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].bits, 4);
        assert_eq!(t[0].n, 4);
        assert!(t[0].k0 > 5.0);
    }

    #[test]
    fn fig3b_dvafs_wins_at_low_accuracy() {
        let points = sweep().fig3b();
        // The lowest-energy point below 1e-3 relative RMSE must be DVAFS.
        let coarse: Vec<&RmsePoint> = points.iter().filter(|p| p.rmse > 1e-3).collect();
        let best = coarse
            .iter()
            .min_by(|a, b| a.energy.partial_cmp(&b.energy).expect("finite"))
            .expect("some coarse points exist");
        assert_eq!(best.design, "DVAFS", "best coarse point: {best:?}");
    }

    #[test]
    fn fig3b_truncated_is_competitive_at_high_accuracy() {
        // Paper: [8] consumes less energy than DVAFS at high accuracy.
        let points = sweep().fig3b();
        let dvafs_12b = points
            .iter()
            .find(|p| p.design == "DVAFS" && p.rmse < 1e-3)
            .expect("12-bit DVAFS point");
        let trunc_fine = points
            .iter()
            .filter(|p| p.design == "Trunc [8]" && p.rmse < dvafs_12b.rmse)
            .map(|p| p.energy)
            .fold(f64::INFINITY, f64::min);
        assert!(
            trunc_fine < dvafs_12b.energy * 1.5,
            "trunc {trunc_fine} vs DVAFS {}",
            dvafs_12b.energy
        );
    }

    #[test]
    fn seeds_change_samples_but_not_fig3a_orderings() {
        // Different seeds must draw different Monte-Carlo samples (the
        // measured baseline RMSEs move) while the Fig. 3a energy ordering
        // across regimes and precisions — the paper's claim — is seed-
        // independent.
        let a = MultiplierSweep::with_seed(1).with_samples(512);
        let b = MultiplierSweep::with_seed(2).with_samples(512);
        assert_eq!(a.seed(), 1);

        let rmse = |s: &MultiplierSweep| {
            s.fig3b()
                .iter()
                .filter(|p| p.design == "Liu [3]" && p.rmse > 0.0)
                .map(|p| p.rmse)
                .collect::<Vec<f64>>()
        };
        assert_ne!(rmse(&a), rmse(&b), "distinct seeds drew identical samples");

        let order = |s: &MultiplierSweep| {
            let mut fig3a = s.fig3a();
            fig3a.sort_by(|x, y| x.relative.partial_cmp(&y.relative).expect("finite"));
            fig3a
                .iter()
                .map(|e| (e.mode, e.bits))
                .collect::<Vec<(ScalingMode, u32)>>()
        };
        assert_eq!(order(&a), order(&b), "Fig. 3a ordering drifted with seed");
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let serial = MultiplierSweep::new()
            .with_samples(512)
            .with_executor(Executor::serial());
        let parallel = MultiplierSweep::new()
            .with_samples(512)
            .with_executor(Executor::new(4));
        assert_eq!(serial.fig2(), parallel.fig2());
        assert_eq!(serial.fig3a(), parallel.fig3a());
        assert_eq!(serial.fig3b(), parallel.fig3b());
        assert_eq!(serial.table1(), parallel.table1());
    }

    #[test]
    fn fig3b_rmse_values_span_paper_axis() {
        // Fig. 3b's x axis runs from ~1e-6 to ~1e-2.
        let points = sweep().fig3b();
        let lo = points
            .iter()
            .map(|p| p.rmse)
            .filter(|r| *r > 0.0)
            .fold(f64::INFINITY, f64::min);
        let hi = points.iter().map(|p| p.rmse).fold(0.0, f64::max);
        assert!(lo < 1e-4, "finest RMSE {lo}");
        assert!(hi > 1e-3, "coarsest RMSE {hi}");
    }
}

//! Measurement sweeps: Fig. 8a, Fig. 8b and Table III.
//!
//! These are the data sources behind the `fig8` and `table3` scenarios of
//! the experiment registry (`dvafs::scenario`) — run them with
//! `dvafs run fig8` / `dvafs run table3` from `crates/bench`.

use crate::chip::EnvisionChip;
use crate::workload::{alexnet_table3, lenet5_table3, vgg16_table3, LayerRun};
use dvafs_arith::activity::{extract_das_profile, ActivityProfile};
use dvafs_arith::subword::SubwordMode;
use dvafs_arith::Precision;
use dvafs_executor::Executor;
use dvafs_tech::scaling::ScalingMode;
use serde::{Deserialize, Serialize};

/// One point of the Fig. 8 energy/word curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Sample {
    /// Scaling regime.
    pub mode: ScalingMode,
    /// Precision in bits.
    pub bits: u32,
    /// Clock in MHz.
    pub f_mhz: f64,
    /// Rail voltage in volts.
    pub v: f64,
    /// Chip power in mW.
    pub power_mw: f64,
    /// Energy per operation relative to the 16-bit baseline.
    pub energy_rel: f64,
}

/// The Fig. 8 sweep generator for one chip model.
#[derive(Debug, Clone)]
pub struct Fig8Sweep {
    chip: EnvisionChip,
    das_profile: ActivityProfile,
    exec: Executor,
}

impl Fig8Sweep {
    /// Creates the sweep with a freshly extracted DAS profile (for the
    /// DVAS critical-path scaling at constant clock).
    #[must_use]
    pub fn new(chip: EnvisionChip) -> Self {
        Fig8Sweep {
            chip,
            das_profile: extract_das_profile(150, 0xF168),
            exec: Executor::from_env(),
        }
    }

    /// Runs the sweep grids on an explicit executor (thread count). The
    /// samples do not depend on the choice.
    #[must_use]
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The chip under measurement.
    #[must_use]
    pub fn chip(&self) -> &EnvisionChip {
        &self.chip
    }

    fn das_depth(&self, bits: u32) -> f64 {
        self.das_profile
            .at_bits(bits)
            .map_or(1.0, |e| e.depth_ratio)
    }

    fn layer(mode: SubwordMode, f_mhz: f64, bits: u32) -> LayerRun {
        let lane = mode.lane_bits().min(bits);
        LayerRun::dense(mode, f_mhz, lane, lane, 100.0)
    }

    /// One sample of the constant-200 MHz sweep (Fig. 8a). Energy per
    /// operation accounts for the extra words subword modes process.
    #[must_use]
    pub fn at_constant_frequency(&self, mode: ScalingMode, bits: u32) -> Fig8Sample {
        let f = 200.0;
        let chip = &self.chip;
        let vnom = chip.technology().nominal_voltage();
        // DVAS scales only the MAC array's rail at a fixed clock; DVAFS
        // scales the whole chip once the subword mode shortens the path.
        let (sub, v_as, v_rest) = match mode {
            ScalingMode::Das => (SubwordMode::X1, vnom, vnom),
            ScalingMode::Dvas => (
                SubwordMode::X1,
                chip.technology()
                    .voltage_solver()
                    .min_voltage(1.0 / self.das_depth(bits)),
                vnom,
            ),
            ScalingMode::Dvafs => {
                let m = SubwordMode::for_precision(
                    Precision::new(bits).expect("sweep precisions are valid"),
                );
                let v = chip.voltage_for_mode_at_nominal_clock(m);
                (m, v, v)
            }
        };
        let layer = Self::layer(sub, f, bits);
        let power_mw = chip.power_mw_rails(&layer, v_as, v_rest);
        let v = v_as;
        let gops = chip.effective_gops(sub, f);
        Fig8Sample {
            mode,
            bits,
            f_mhz: f,
            v,
            power_mw,
            energy_rel: 0.0, // filled by the sweep
        }
        .with_energy(power_mw / gops)
    }

    /// One sample of the constant-76 GOPS sweep (Fig. 8b): DVAFS lowers
    /// the clock by the subword factor; DAS/DVAS cannot.
    #[must_use]
    pub fn at_constant_throughput(&self, mode: ScalingMode, bits: u32) -> Fig8Sample {
        match mode {
            ScalingMode::Das | ScalingMode::Dvas => self.at_constant_frequency(mode, bits),
            ScalingMode::Dvafs => {
                let sub = SubwordMode::for_precision(
                    Precision::new(bits).expect("sweep precisions are valid"),
                );
                let f = 200.0 / sub.lanes() as f64;
                let layer = Self::layer(sub, f, bits);
                let chip = &self.chip;
                let v = chip.voltage_for_frequency(f);
                let power_mw = chip.power_mw_at(&layer, v);
                let gops = chip.effective_gops(sub, f);
                Fig8Sample {
                    mode,
                    bits,
                    f_mhz: f,
                    v,
                    power_mw,
                    energy_rel: 0.0,
                }
                .with_energy(power_mw / gops)
            }
        }
    }

    /// Full Fig. 8a sweep, normalized to the 16-bit point.
    #[must_use]
    pub fn fig8a(&self) -> Vec<Fig8Sample> {
        self.sweep(|m, b| self.at_constant_frequency(m, b))
    }

    /// Full Fig. 8b sweep, normalized to the 16-bit point.
    #[must_use]
    pub fn fig8b(&self) -> Vec<Fig8Sample> {
        self.sweep(|m, b| self.at_constant_throughput(m, b))
    }

    fn sweep<F: Fn(ScalingMode, u32) -> Fig8Sample + Sync>(&self, f: F) -> Vec<Fig8Sample> {
        let mut out = self
            .exec
            .par_map_indexed(&ScalingMode::precision_grid(), |_, &(mode, bits)| {
                f(mode, bits)
            });
        // The 16-bit DAS cell is the figure's normalization anchor; it is
        // grid cell 0 by `precision_grid`'s documented contract.
        let baseline = out[0].energy_rel;
        for s in &mut out {
            s.energy_rel /= baseline;
        }
        out
    }
}

impl Fig8Sample {
    fn with_energy(mut self, e: f64) -> Self {
        self.energy_rel = e;
        self
    }
}

/// One computed row of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// The layer workload.
    pub layer: LayerRun,
    /// Rail voltage in volts.
    pub v: f64,
    /// Average power in mW.
    pub power_mw: f64,
    /// Efficiency in TOPS/W.
    pub tops_per_w: f64,
}

/// A network's Table III block with its totals row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSummary {
    /// Network name.
    pub name: String,
    /// Per-layer rows.
    pub rows: Vec<Table3Row>,
    /// Total work per frame in MMACs.
    pub total_mmacs: f64,
    /// Time-averaged power in mW (the paper's "Total" power row).
    pub avg_power_mw: f64,
    /// Whole-network efficiency in TOPS/W.
    pub avg_tops_per_w: f64,
    /// Achievable frame rate in frames/s.
    pub fps: f64,
}

/// Computes a network's Table III block on a chip model, evaluating the
/// per-layer rows in parallel on `exec`. Rows merge in layer order and the
/// frame totals fold in layer order, so the summary is bit-identical for
/// any thread count.
#[must_use]
pub fn summarize_with(
    chip: &EnvisionChip,
    name: &str,
    layers: &[LayerRun],
    exec: &Executor,
) -> NetworkSummary {
    // One pass per layer computes the row and the quantities the totals
    // fold over; the folds themselves stay sequential in layer order.
    let rows_and_times = exec.par_map_indexed(layers, |_, l| {
        let row = Table3Row {
            layer: l.clone(),
            v: chip.voltage_for_frequency(l.f_mhz),
            power_mw: chip.power_mw(l),
            tops_per_w: chip.tops_per_w(l),
        };
        (row, chip.layer_time_s(l), chip.layer_energy_mj(l))
    });
    let total_time: f64 = rows_and_times.iter().map(|(_, t, _)| t).sum();
    let total_energy_mj: f64 = rows_and_times.iter().map(|(_, _, e)| e).sum();
    let rows: Vec<Table3Row> = rows_and_times.into_iter().map(|(r, _, _)| r).collect();
    let total_mmacs: f64 = layers.iter().map(|l| l.mmacs_per_frame).sum();
    let total_ops = total_mmacs * 2e6;
    NetworkSummary {
        name: name.to_string(),
        rows,
        total_mmacs,
        avg_power_mw: total_energy_mj / total_time,
        // TOPS/W = ops / energy: (ops) / (mJ * 1e-3 J) / 1e12.
        avg_tops_per_w: total_ops / (total_energy_mj * 1e-3) / 1e12,
        fps: 1.0 / total_time,
    }
}

/// The complete Table III: VGG16, AlexNet and LeNet-5 blocks (serial).
#[must_use]
pub fn table3(chip: &EnvisionChip) -> Vec<NetworkSummary> {
    table3_with(chip, &Executor::serial())
}

/// The complete Table III with per-layer rows evaluated in parallel on
/// `exec`; bit-identical to [`table3`] for any thread count.
#[must_use]
pub fn table3_with(chip: &EnvisionChip, exec: &Executor) -> Vec<NetworkSummary> {
    vec![
        summarize_with(chip, "VGG16", &vgg16_table3(), exec),
        summarize_with(chip, "AlexNet", &alexnet_table3(), exec),
        summarize_with(chip, "LeNet-5", &lenet5_table3(), exec),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Fig8Sweep {
        Fig8Sweep::new(EnvisionChip::new())
    }

    #[test]
    fn fig8a_baseline_is_unity() {
        let s = sweep();
        let samples = s.fig8a();
        let base = samples
            .iter()
            .find(|x| x.mode == ScalingMode::Das && x.bits == 16)
            .unwrap();
        assert!((base.energy_rel - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig8a_gains_match_paper_factors() {
        // Paper: 2.4x (DAS) and 3.8x (DVAS) less energy per 4b op at 200MHz.
        let s = sweep();
        let e = |m, b| s.at_constant_frequency(m, b).energy_rel;
        let das_gain = e(ScalingMode::Das, 16) / e(ScalingMode::Das, 4);
        let dvas_gain = e(ScalingMode::Das, 16) / e(ScalingMode::Dvas, 4);
        assert!(das_gain > 1.8 && das_gain < 5.0, "DAS gain {das_gain}");
        assert!(dvas_gain > das_gain, "DVAS must beat DAS");
        assert!(dvas_gain > 2.3 && dvas_gain < 6.0, "DVAS gain {dvas_gain}");
    }

    #[test]
    fn fig8b_dvafs_hits_paper_region() {
        let s = sweep();
        // Paper: 300 mW -> 18 mW at 4x4b / 50 MHz constant throughput.
        let p = s.at_constant_throughput(ScalingMode::Dvafs, 4);
        assert_eq!(p.f_mhz, 50.0);
        assert!(
            p.power_mw > 10.0 && p.power_mw < 26.0,
            "power {}",
            p.power_mw
        );
        // Improvement over DAS at constant throughput: paper 6.9x.
        let das = s.at_constant_throughput(ScalingMode::Das, 4);
        let gain = das.energy_rel / p.energy_rel;
        assert!(gain > 3.0 && gain < 12.0, "DVAFS vs DAS gain {gain}");
    }

    #[test]
    fn fig8_energy_monotone_in_precision_for_dvafs() {
        let s = sweep();
        let samples = s.fig8b();
        let dvafs: Vec<f64> = samples
            .iter()
            .filter(|x| x.mode == ScalingMode::Dvafs)
            .map(|x| x.energy_rel)
            .collect();
        // Ordered 16, 12, 8, 4: energy strictly decreasing.
        assert!(dvafs.windows(2).all(|w| w[0] > w[1]), "{dvafs:?}");
    }

    #[test]
    fn parallel_fig8_and_table3_bit_identical_to_serial() {
        let serial = sweep().with_executor(Executor::serial());
        let parallel = sweep().with_executor(Executor::new(4));
        assert_eq!(serial.fig8a(), parallel.fig8a());
        assert_eq!(serial.fig8b(), parallel.fig8b());

        let chip = EnvisionChip::new();
        let st = table3(&chip);
        let pt = table3_with(&chip, &Executor::new(4));
        assert_eq!(st, pt);
    }

    #[test]
    fn table3_totals_in_paper_region() {
        let chip = EnvisionChip::new();
        let t = table3(&chip);
        assert_eq!(t.len(), 3);
        let vgg = &t[0];
        let alex = &t[1];
        let lenet = &t[2];
        // Paper totals: VGG 26 mW / 2 TOPS/W, AlexNet 44 mW / 1.8 TOPS/W,
        // LeNet 25 mW / 3 TOPS/W. Allow the model a factor ~2 window.
        assert!(
            vgg.avg_power_mw > 13.0 && vgg.avg_power_mw < 60.0,
            "VGG {}",
            vgg.avg_power_mw
        );
        assert!(
            alex.avg_power_mw > 22.0 && alex.avg_power_mw < 100.0,
            "Alex {}",
            alex.avg_power_mw
        );
        assert!(
            lenet.avg_power_mw > 5.0 && lenet.avg_power_mw < 50.0,
            "LeNet {}",
            lenet.avg_power_mw
        );
        assert!(vgg.avg_tops_per_w > 1.0 && vgg.avg_tops_per_w < 5.0);
        // LeNet runs at the deepest scaling: best efficiency of the three.
        assert!(lenet.avg_tops_per_w > vgg.avg_tops_per_w * 0.8);
    }

    #[test]
    fn table3_frame_rates_ordering() {
        // Paper: VGG16 3.3 fps, AlexNet 47 fps, LeNet-5 13 kfps.
        let chip = EnvisionChip::new();
        let t = table3(&chip);
        let (vgg, alex, lenet) = (&t[0], &t[1], &t[2]);
        assert!(vgg.fps < alex.fps && alex.fps < lenet.fps);
        assert!(vgg.fps > 1.0 && vgg.fps < 10.0, "VGG fps {}", vgg.fps);
        assert!(lenet.fps > 5_000.0, "LeNet fps {}", lenet.fps);
    }

    #[test]
    fn lenet_first_layer_is_most_efficient_row() {
        // Paper: LeNet1 reaches 13.6 TOPS/W (4x4b, 1b inputs, very sparse).
        let chip = EnvisionChip::new();
        let t = table3(&chip);
        let lenet1 = &t[2].rows[0];
        assert!(
            lenet1.tops_per_w > 5.0,
            "LeNet1 efficiency {}",
            lenet1.tops_per_w
        );
        let all_max = t
            .iter()
            .flat_map(|n| n.rows.iter())
            .map(|r| r.tops_per_w)
            .fold(0.0, f64::max);
        assert!(
            (lenet1.tops_per_w - all_max).abs() < 1e-9,
            "LeNet1 must top the table"
        );
    }
}

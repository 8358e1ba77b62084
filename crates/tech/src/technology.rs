//! Technology descriptors for the two process nodes of the paper.
//!
//! * **40 nm LP LVT, 1.1 V nominal** — the node the multiplier and the SIMD
//!   processor are synthesized into (Sections III-A, III-B).
//! * **28 nm FDSOI, 1.05 V nominal** — Envision's node (Section V),
//!   operated at 1.03 / 0.80 / 0.65 V in Table III.
//!
//! Each descriptor carries a delay model calibrated to the paper's own
//! voltage/slack anchor points, the nominal clock, rail limits and the rail
//! quantization step.

use crate::delay::DelayModel;
use crate::voltage::VoltageSolver;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A process-technology descriptor with its calibrated delay model.
///
/// # Example
///
/// ```
/// use dvafs_tech::technology::Technology;
///
/// let t = Technology::lp40();
/// assert_eq!(t.name(), "40nm LP LVT");
/// assert!((t.nominal_voltage() - 1.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Technology {
    name: String,
    nominal_voltage: f64,
    min_voltage: f64,
    voltage_step: f64,
    nominal_frequency_mhz: f64,
    delay: DelayModel,
}

impl Technology {
    /// The 40 nm LP LVT node of the multiplier / SIMD evaluation:
    /// 1.1 V nominal, 500 MHz reference clock, delay model calibrated to
    /// the paper's (0.9 V, 2×) and (0.75 V, 8×) anchors.
    #[must_use]
    pub fn lp40() -> Self {
        // Calibration is a deterministic (vth, alpha) grid search over the
        // anchor points, which every sweep and scenario used to pay per
        // construction. Memoize the search once per process; the returned
        // descriptor is bit-identical either way.
        static LP40: OnceLock<Technology> = OnceLock::new();
        LP40.get_or_init(|| {
            let delay = DelayModel::calibrate(1.1, &[(0.9, 2.0), (0.75, 8.0)])
                .expect("paper anchors are well-formed");
            Technology {
                name: "40nm LP LVT".to_string(),
                nominal_voltage: 1.1,
                min_voltage: 0.70,
                voltage_step: 0.01,
                nominal_frequency_mhz: 500.0,
                delay,
            }
        })
        .clone()
    }

    /// Envision's 28 nm FDSOI node: 1.05 V nominal rail, 200 MHz nominal
    /// clock; calibrated to Table III's (0.80 V, 2×) and (0.65 V, 4×)
    /// operating points.
    #[must_use]
    pub fn fdsoi28() -> Self {
        // Memoized like lp40(): the grid search runs once per process.
        static FDSOI28: OnceLock<Technology> = OnceLock::new();
        FDSOI28
            .get_or_init(|| {
                let delay = DelayModel::calibrate(1.05, &[(0.80, 2.0), (0.65, 4.0)])
                    .expect("paper anchors are well-formed");
                Technology {
                    name: "28nm FDSOI".to_string(),
                    nominal_voltage: 1.05,
                    // Envision's lowest measured operating rail (Table III).
                    min_voltage: 0.65,
                    voltage_step: 0.01,
                    nominal_frequency_mhz: 200.0,
                    delay,
                }
            })
            .clone()
    }

    /// Technology name, e.g. `"40nm LP LVT"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nominal supply voltage in volts.
    #[must_use]
    pub fn nominal_voltage(&self) -> f64 {
        self.nominal_voltage
    }

    /// Lowest functional rail in volts.
    #[must_use]
    pub fn min_voltage(&self) -> f64 {
        self.min_voltage
    }

    /// Rail quantization step in volts.
    #[must_use]
    pub fn voltage_step(&self) -> f64 {
        self.voltage_step
    }

    /// Nominal clock frequency in MHz.
    #[must_use]
    pub fn nominal_frequency_mhz(&self) -> f64 {
        self.nominal_frequency_mhz
    }

    /// Nominal clock period in nanoseconds.
    #[must_use]
    pub fn nominal_period_ns(&self) -> f64 {
        1e3 / self.nominal_frequency_mhz
    }

    /// A voltage solver configured with this technology's rail limits.
    #[must_use]
    pub fn voltage_solver(&self) -> VoltageSolver {
        VoltageSolver::new(self.delay, self.min_voltage, self.voltage_step)
    }

    /// Relative dynamic energy of operating one capacitance at voltage `v`
    /// versus nominal: `(v / vnom)^2`.
    #[must_use]
    pub fn voltage_energy_factor(&self, v: f64) -> f64 {
        let r = v / self.nominal_voltage;
        r * r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp40_parameters() {
        let t = Technology::lp40();
        assert!((t.nominal_voltage() - 1.1).abs() < 1e-12);
        assert!((t.nominal_frequency_mhz() - 500.0).abs() < 1e-12);
        assert!((t.nominal_period_ns() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fdsoi28_parameters() {
        let t = Technology::fdsoi28();
        assert!((t.nominal_voltage() - 1.05).abs() < 1e-12);
        assert!((t.nominal_frequency_mhz() - 200.0).abs() < 1e-12);
        assert!((t.nominal_period_ns() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn voltage_energy_factor_is_quadratic() {
        let t = Technology::lp40();
        assert!((t.voltage_energy_factor(1.1) - 1.0).abs() < 1e-12);
        assert!((t.voltage_energy_factor(0.55) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn solver_respects_technology_limits() {
        let t = Technology::lp40();
        let s = t.voltage_solver();
        assert!(s.min_voltage(1e6) >= t.min_voltage() - 1e-9);
        assert!(s.min_voltage(1.0) <= t.nominal_voltage() + 1e-9);
    }

    #[test]
    fn envision_voltages_recovered_by_solver() {
        // Table III rows: 200 MHz @ ~1.03 V, 100 MHz @ 0.80 V, 50 MHz @ 0.65 V.
        let t = Technology::fdsoi28();
        let s = t.voltage_solver();
        let v2 = s.min_voltage(2.0);
        let v4 = s.min_voltage(4.0);
        assert!((v2 - 0.80).abs() < 0.05, "v2={v2}");
        assert!((v4 - 0.65).abs() < 0.05, "v4={v4}");
    }
}

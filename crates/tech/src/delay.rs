//! Alpha-power-law gate-delay model and its calibration.
//!
//! Gate delay under a scaled supply follows Sakurai–Newton's alpha-power
//! law, `d(V) ∝ V / (V − Vth)^α`. The paper never states `(α, Vth)` for its
//! 40 nm LP LVT flow, but it publishes two anchor points (Section III-A):
//! at constant 500 MOPS throughput the multiplier still closes timing at
//! **0.9 V with 2× the nominal delay budget** (DVAS, 4 b) and at **0.75 V
//! with 8× the budget** (DVAFS, 4×4 b). [`DelayModel::calibrate`] fits the
//! law to such anchors, so every voltage this repository reports descends
//! from the paper's own numbers.

use crate::error::TechError;
use serde::{Deserialize, Serialize};

/// Sakurai–Newton alpha-power-law delay model, normalized to a nominal
/// supply.
///
/// # Example
///
/// ```
/// use dvafs_tech::delay::DelayModel;
///
/// let m = DelayModel::new(1.1, 0.55, 1.8)?;
/// assert!((m.delay_factor(1.1)? - 1.0).abs() < 1e-12);
/// assert!(m.delay_factor(0.9)? > 1.0); // slower at lower voltage
/// # Ok::<(), dvafs_tech::TechError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayModel {
    vnom: f64,
    vth: f64,
    alpha: f64,
}

impl DelayModel {
    /// Creates a delay model.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidCalibration`] if `vth` is not strictly
    /// between 0 and `vnom`, or `alpha` is not in `(0.5, 4.0)`.
    pub fn new(vnom: f64, vth: f64, alpha: f64) -> Result<Self, TechError> {
        if !(vth > 0.0 && vth < vnom) {
            return Err(TechError::InvalidCalibration {
                reason: format!("vth {vth} must lie strictly between 0 and vnom {vnom}"),
            });
        }
        if !(0.5..4.0).contains(&alpha) {
            return Err(TechError::InvalidCalibration {
                reason: format!("alpha {alpha} outside plausible range 0.5..4.0"),
            });
        }
        Ok(DelayModel { vnom, vth, alpha })
    }

    /// Nominal supply voltage in volts.
    #[must_use]
    pub fn nominal_voltage(&self) -> f64 {
        self.vnom
    }

    /// Fitted threshold voltage in volts.
    #[must_use]
    pub fn threshold_voltage(&self) -> f64 {
        self.vth
    }

    /// Fitted velocity-saturation exponent.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Gate delay at supply `v`, relative to the delay at the nominal
    /// supply (1.0 at `vnom`, monotonically increasing as `v` drops).
    ///
    /// # Errors
    ///
    /// Returns [`TechError::VoltageOutOfRange`] when `v` is not in
    /// `(vth, 2*vnom)`.
    pub fn delay_factor(&self, v: f64) -> Result<f64, TechError> {
        let max = 2.0 * self.vnom;
        if v <= self.vth + 1e-6 || v > max {
            return Err(TechError::VoltageOutOfRange {
                voltage: v,
                min: self.vth,
                max,
            });
        }
        let raw = |u: f64| u / (u - self.vth).powf(self.alpha);
        Ok(raw(v) / raw(self.vnom))
    }

    /// Fits `(vth, alpha)` to delay-ratio anchor points by deterministic
    /// grid search minimizing squared log error.
    ///
    /// Each anchor is `(voltage, delay_ratio)`: "at `voltage`, the circuit
    /// may be `delay_ratio` times slower than at nominal".
    ///
    /// The grid steps `vth` by 5 mV from 0.05 V to 20 mV below the lowest
    /// anchor and `alpha` by 0.01 from 0.6 to 3.5, and the first point in
    /// that order with the smallest error wins. For a fixed `vth` the log
    /// error of every anchor is linear in `alpha`,
    /// `ln d(v) − ln r = ln(v/vnom) − ln r − alpha·ln((v − vth)/(vnom − vth))`,
    /// so a row's summed squared error is a quadratic in `alpha`. Each row
    /// is evaluated only around that quadratic's vertex, which returns the
    /// full grid's model bit for bit at about 1/50 of its cost (proven
    /// against the full grid in the tests).
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidCalibration`] when `anchors` is empty,
    /// `vnom` or an anchor entry is not finite (NaN included), or an
    /// anchor is outside `0 < v < vnom` or has a ratio of 1 or less.
    pub fn calibrate(vnom: f64, anchors: &[(f64, f64)]) -> Result<Self, TechError> {
        if anchors.is_empty() {
            return Err(TechError::InvalidCalibration {
                reason: "at least one anchor point is required".to_string(),
            });
        }
        if !vnom.is_finite() {
            return Err(TechError::InvalidCalibration {
                reason: format!("nominal voltage {vnom} V must be finite"),
            });
        }
        for &(v, r) in anchors {
            // `is_finite` is false for NaN, which every comparison below
            // would let through (and the `vth` walk would never end).
            if !(v.is_finite() && r.is_finite()) {
                return Err(TechError::InvalidCalibration {
                    reason: format!("anchor ({v} V, {r}x) must be finite"),
                });
            }
            if v <= 0.0 || v >= vnom || r <= 1.0 {
                return Err(TechError::InvalidCalibration {
                    reason: format!("anchor ({v} V, {r}x) must have 0 < v < vnom and ratio > 1"),
                });
            }
        }
        let v_lo = anchors
            .iter()
            .map(|&(v, _)| v)
            .fold(f64::INFINITY, f64::min);
        // The alpha grid, accumulated exactly as a walk of it would be.
        let alphas: Vec<f64> = std::iter::successors(Some(0.6), |&a| Some(a + 0.01))
            .take_while(|&a| a < 3.5)
            .collect();
        let mut best: Option<(f64, DelayModel)> = None;
        // vth must stay below the lowest anchor voltage.
        let mut vth = 0.05;
        while vth < v_lo - 0.02 {
            for &alpha in &alphas[Self::vertex_window(vnom, vth, anchors, &alphas)] {
                if let Some((err, model)) = Self::fit_error(vnom, vth, alpha, anchors) {
                    if best.as_ref().is_none_or(|(e, _)| err < *e) {
                        best = Some((err, model));
                    }
                }
            }
            vth += 0.005;
        }
        best.map(|(_, m)| m)
            .ok_or_else(|| TechError::InvalidCalibration {
                reason: "no feasible (vth, alpha) found for the anchors".to_string(),
            })
    }

    /// The summed squared log error of the model `(vth, alpha)` over the
    /// anchors, or `None` when the model itself is invalid.
    fn fit_error(vnom: f64, vth: f64, alpha: f64, anchors: &[(f64, f64)]) -> Option<(f64, Self)> {
        let model = DelayModel::new(vnom, vth, alpha).ok()?;
        let err = anchors
            .iter()
            .map(|&(v, r)| {
                let pred = model.delay_factor(v).unwrap_or(f64::INFINITY);
                let d = pred.ln() - r.ln();
                d * d
            })
            .sum();
        Some((err, model))
    }

    /// The `alpha` indices of one `vth` row that can hold the row's first
    /// smallest error: a window that starts at the grid point nearest the
    /// quadratic's vertex and grows at either end while that end's error
    /// is within rounding of the window's minimum. Beyond an end that is
    /// not, the quadratic only rises, so no later point can beat the
    /// window. (Non-finite errors never stop the growth, so such a row is
    /// walked whole, as the full grid would.)
    fn vertex_window(
        vnom: f64,
        vth: f64,
        anchors: &[(f64, f64)],
        alphas: &[f64],
    ) -> std::ops::RangeInclusive<usize> {
        let (ab, bb) = anchors.iter().fold((0.0, 0.0), |(ab, bb), &(v, r)| {
            let a = (v / vnom).ln() - r.ln();
            let b = ((v - vth) / (vnom - vth)).ln();
            (ab + a * b, bb + b * b)
        });
        let last = alphas.len() - 1;
        // `as` saturates: a vertex below the grid (or NaN) starts at 0.
        let start = (((ab / bb) - alphas[0]) / 0.01).round().max(0.0) as usize;
        let err = |k: usize| {
            Self::fit_error(vnom, vth, alphas[k], anchors).map_or(f64::INFINITY, |(e, _)| e)
        };
        let (mut lo, mut hi) = (start.min(last), start.min(last));
        let mut min = err(lo);
        let (mut err_lo, mut err_hi) = (min, min);
        loop {
            // Rounding moves an error by ~1e-15 of its size and the margin
            // is far wider, so an end beyond it cannot be a rounding-level
            // tie; true near-ties only widen the window. An error that does
            // not compare (NaN) counts as near.
            let margin = 1e-9 * (1.0 + min.abs());
            let near = |e: f64| e.partial_cmp(&(min + margin)) != Some(std::cmp::Ordering::Greater);
            let grow_lo = lo > 0 && near(err_lo);
            let grow_hi = hi < last && near(err_hi);
            if !(grow_lo || grow_hi) {
                return lo..=hi;
            }
            if grow_lo {
                lo -= 1;
                err_lo = err(lo);
                min = min.min(err_lo);
            }
            if grow_hi {
                hi += 1;
                err_hi = err(hi);
                min = min.min(err_hi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full `(vth, alpha)` grid walk that `calibrate` replaced, kept
    /// verbatim as its oracle: every grid point, in grid order.
    fn calibrate_full_grid(vnom: f64, anchors: &[(f64, f64)]) -> Result<DelayModel, TechError> {
        if anchors.is_empty() {
            return Err(TechError::InvalidCalibration {
                reason: "at least one anchor point is required".to_string(),
            });
        }
        for &(v, r) in anchors {
            if v <= 0.0 || v >= vnom || r <= 1.0 {
                return Err(TechError::InvalidCalibration {
                    reason: format!("anchor ({v} V, {r}x) must have 0 < v < vnom and ratio > 1"),
                });
            }
        }
        let v_lo = anchors
            .iter()
            .map(|&(v, _)| v)
            .fold(f64::INFINITY, f64::min);
        let mut best: Option<(f64, DelayModel)> = None;
        let mut vth = 0.05;
        while vth < v_lo - 0.02 {
            let mut alpha = 0.6;
            while alpha < 3.5 {
                if let Ok(model) = DelayModel::new(vnom, vth, alpha) {
                    let err: f64 = anchors
                        .iter()
                        .map(|&(v, r)| {
                            let pred = model.delay_factor(v).unwrap_or(f64::INFINITY);
                            let d = pred.ln() - r.ln();
                            d * d
                        })
                        .sum();
                    if best.as_ref().is_none_or(|(e, _)| err < *e) {
                        best = Some((err, model));
                    }
                }
                alpha += 0.01;
            }
            vth += 0.005;
        }
        best.map(|(_, m)| m)
            .ok_or_else(|| TechError::InvalidCalibration {
                reason: "no feasible (vth, alpha) found for the anchors".to_string(),
            })
    }

    /// Bit-level equality of two fits (`==` on floats would accept -0.0
    /// against 0.0).
    fn bits(m: &DelayModel) -> [u64; 3] {
        [m.vnom.to_bits(), m.vth.to_bits(), m.alpha.to_bits()]
    }

    #[test]
    fn calibration_matches_the_full_grid_on_the_paper_anchors() {
        for (vnom, anchors) in [
            (1.1, &[(0.9, 2.0), (0.75, 8.0)]),
            (1.05, &[(0.80, 2.0), (0.65, 4.0)]),
        ] {
            let fast = DelayModel::calibrate(vnom, anchors).unwrap();
            let grid = calibrate_full_grid(vnom, anchors).unwrap();
            assert_eq!(bits(&fast), bits(&grid), "{vnom} V, {anchors:?}");
        }
    }

    #[test]
    fn calibration_errors_match_the_full_grid() {
        // Empty, out of range, and infeasible (no vth below the anchor).
        for (vnom, anchors) in [
            (1.1, vec![]),
            (1.1, vec![(1.2, 2.0)]),
            (1.1, vec![(0.9, 0.5)]),
            (1.1, vec![(0.06, 2.0)]),
        ] {
            let fast = DelayModel::calibrate(vnom, &anchors).unwrap_err();
            let grid = calibrate_full_grid(vnom, &anchors).unwrap_err();
            assert_eq!(fast.to_string(), grid.to_string(), "{anchors:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random anchor sets of one to three points, with the ratio
        /// falling as the voltage rises or not: the windowed walk returns
        /// the full grid's model bit for bit.
        #[test]
        fn calibration_matches_the_full_grid_on_random_anchors(
            vnom in 0.8f64..1.3,
            count in 1usize..=3,
            fractions in proptest::array::uniform4(0.2f64..0.98),
            ratios in proptest::array::uniform4(1.01f64..30.0),
        ) {
            let anchors: Vec<(f64, f64)> = fractions
                .iter()
                .zip(&ratios)
                .take(count)
                .map(|(&f, &r)| (f * vnom, r))
                .collect();
            let fast = DelayModel::calibrate(vnom, &anchors);
            let grid = calibrate_full_grid(vnom, &anchors);
            match (fast, grid) {
                (Ok(fast), Ok(grid)) => prop_assert_eq!(bits(&fast), bits(&grid)),
                (Err(fast), Err(grid)) => prop_assert_eq!(fast.to_string(), grid.to_string()),
                (fast, grid) => prop_assert!(false, "{fast:?} vs {grid:?}"),
            }
        }
    }

    #[test]
    fn nominal_delay_is_unity() {
        let m = DelayModel::new(1.1, 0.5, 1.5).unwrap();
        assert!((m.delay_factor(1.1).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delay_monotone_decreasing_in_voltage() {
        let m = DelayModel::new(1.1, 0.5, 1.5).unwrap();
        let mut prev = f64::INFINITY;
        let mut v = 0.6;
        while v <= 1.1 {
            let d = m.delay_factor(v).unwrap();
            assert!(d < prev, "delay must fall as voltage rises (v={v})");
            prev = d;
            v += 0.05;
        }
    }

    #[test]
    fn rejects_voltage_at_or_below_threshold() {
        let m = DelayModel::new(1.1, 0.5, 1.5).unwrap();
        assert!(m.delay_factor(0.5).is_err());
        assert!(m.delay_factor(0.3).is_err());
        assert!(m.delay_factor(3.0).is_err());
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(DelayModel::new(1.1, 0.0, 1.5).is_err());
        assert!(DelayModel::new(1.1, 1.2, 1.5).is_err());
        assert!(DelayModel::new(1.1, 0.5, 0.1).is_err());
    }

    #[test]
    fn calibration_hits_paper_40nm_anchors() {
        // Paper Section III-A: 0.9 V at 2x budget, 0.75 V at 8x budget.
        let m = DelayModel::calibrate(1.1, &[(0.9, 2.0), (0.75, 8.0)]).unwrap();
        let d09 = m.delay_factor(0.9).unwrap();
        let d075 = m.delay_factor(0.75).unwrap();
        assert!((d09 - 2.0).abs() / 2.0 < 0.25, "d(0.9)={d09}");
        assert!((d075 - 8.0).abs() / 8.0 < 0.30, "d(0.75)={d075}");
    }

    #[test]
    fn calibration_hits_envision_28nm_anchors() {
        // Envision Table III: 0.80 V at half rate, 0.65 V at quarter rate.
        let m = DelayModel::calibrate(1.05, &[(0.80, 2.0), (0.65, 4.0)]).unwrap();
        let d08 = m.delay_factor(0.80).unwrap();
        let d065 = m.delay_factor(0.65).unwrap();
        assert!((d08 - 2.0).abs() / 2.0 < 0.30, "d(0.80)={d08}");
        assert!((d065 - 4.0).abs() / 4.0 < 0.30, "d(0.65)={d065}");
    }

    #[test]
    fn calibration_rejects_bad_anchors() {
        assert!(DelayModel::calibrate(1.1, &[]).is_err());
        assert!(DelayModel::calibrate(1.1, &[(1.2, 2.0)]).is_err());
        assert!(DelayModel::calibrate(1.1, &[(0.9, 0.5)]).is_err());
    }

    /// Non-finite inputs are rejected at once. A lone NaN anchor voltage
    /// used to fold the lowest voltage to +inf, so the `vth` walk never
    /// ended; beside a finite anchor it was ignored, and NaN or infinite
    /// ratios and nominal voltages were fitted. The calls run on a helper
    /// thread so that a hang fails the test.
    #[test]
    fn calibration_rejects_non_finite_inputs_promptly() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let cases = [
            (1.1, vec![(nan, 2.0)]),
            (1.1, vec![(0.75, 8.0), (nan, 2.0)]),
            (1.1, vec![(0.9, nan)]),
            (1.1, vec![(0.9, inf)]),
            (1.1, vec![(-inf, 2.0)]),
            (1.1, vec![(nan, nan)]),
            (nan, vec![(0.9, 2.0)]),
            (inf, vec![(0.9, 2.0)]),
        ];
        let count = cases.len();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            for (vnom, anchors) in cases {
                let result = DelayModel::calibrate(vnom, &anchors);
                if tx.send((vnom, anchors, result)).is_err() {
                    return;
                }
            }
        });
        for _ in 0..count {
            let (vnom, anchors, result) = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("calibrate did not return");
            assert!(
                matches!(result, Err(TechError::InvalidCalibration { .. })),
                "{vnom} V, {anchors:?}: {result:?}"
            );
        }
        worker.join().expect("the calibration thread panicked");
    }

    #[test]
    fn calibration_is_deterministic() {
        let a = DelayModel::calibrate(1.1, &[(0.9, 2.0), (0.75, 8.0)]).unwrap();
        let b = DelayModel::calibrate(1.1, &[(0.9, 2.0), (0.75, 8.0)]).unwrap();
        assert_eq!(a, b);
    }
}

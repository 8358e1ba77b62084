//! Per-event energy model of the SIMD processor, calibrated to Table II.
//!
//! The simulator counts architectural events (instruction fetches, scalar
//! ALU operations, vector MACs, vector register accesses, memory words);
//! this module converts them into the three-domain energy split of the
//! paper's Table II:
//!
//! * **mem** — banked SRAM accesses at a fixed `Vmem`; dynamic energy
//!   scales with the fraction of active bit lines (gated LSBs are quiet);
//! * **nas** — fetch/decode/control at `Vnas`; a shared-front-end constant
//!   plus a per-lane term (operand routing grows with `SW`);
//! * **as** — the vector MAC data path at `Vas`, whose per-cycle energy
//!   follows the gate-level activity factors extracted by
//!   [`dvafs_arith::activity`], plus a wire-load factor that grows slowly
//!   with `SW` (long broadcast and reduction wires in wide arrays).
//!
//! Base energies are calibrated so the `SW = 8` and `SW = 64` processors
//! reproduce the paper's 16-bit anchor rows (36 mW / 289 mW with
//! 31/46/23 % and 31/32/37 % splits).

use dvafs_arith::activity::{extract_das_profile, extract_dvafs_profile, ActivityProfile};
use dvafs_arith::subword::SubwordMode;
use dvafs_tech::domains::{DomainRails, PowerDomain};
use dvafs_tech::energy::EnergyBreakdown;
use dvafs_tech::scaling::ScalingMode;
use serde::{Deserialize, Serialize};

/// Architectural event counts accumulated over a program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// Instructions fetched and decoded.
    pub instructions: u64,
    /// Scalar ALU operations executed.
    pub scalar_ops: u64,
    /// Vector MAC operations (per lane: one packed MAC each).
    pub lane_macs: u64,
    /// Other vector ALU lane-operations (add, relu, shift, broadcast, clear).
    pub lane_alu: u64,
    /// Vector register file lane-accesses.
    pub lane_vreg: u64,
    /// Data-memory words read (per lane).
    pub mem_reads: u64,
    /// Data-memory words written (per lane).
    pub mem_writes: u64,
}

/// Calibrated per-event base energies (picojoules, at nominal voltage).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyCoefficients {
    /// Shared fetch/decode front-end energy per instruction.
    pub fetch_decode_base_pj: f64,
    /// Per-lane fetch/decode and control distribution energy.
    pub fetch_decode_per_lane_pj: f64,
    /// Scalar ALU operation energy.
    pub scalar_op_pj: f64,
    /// Full-precision 16-bit packed MAC energy per lane (at `SW = 8`).
    pub mac_pj: f64,
    /// Other vector ALU lane-operation energy.
    pub vector_alu_pj: f64,
    /// Vector register file lane-access energy.
    pub vreg_pj: f64,
    /// 16-bit memory word access energy (all bit lines active).
    pub mem_word_pj: f64,
    /// Exponent of the wire-load growth of the `as` domain with `SW`.
    pub wire_exponent: f64,
}

impl Default for EnergyCoefficients {
    fn default() -> Self {
        // Calibrated against Table II's two 16-bit anchor rows
        // (36 mW at SW=8, 289 mW at SW=64, 500 MHz, 1.1 V).
        EnergyCoefficients {
            fetch_decode_base_pj: 11.7,
            fetch_decode_per_lane_pj: 2.43,
            scalar_op_pj: 1.70,
            mac_pj: 6.31,
            vector_alu_pj: 0.87,
            vreg_pj: 0.58,
            mem_word_pj: 9.95,
            wire_exponent: 0.23,
        }
    }
}

/// Converts event counts into a Table II-style three-domain energy split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimdEnergyModel {
    coefficients: EnergyCoefficients,
    das_profile: ActivityProfile,
    dvafs_profile: ActivityProfile,
}

impl SimdEnergyModel {
    /// Number of operand pairs used when extracting activity profiles.
    const PROFILE_SAMPLES: usize = 150;
    /// Seed for deterministic profile extraction.
    const PROFILE_SEED: u64 = 0xD7AF5;

    /// Creates the model with freshly extracted gate-level activity
    /// profiles and default calibration.
    #[must_use]
    pub fn new() -> Self {
        SimdEnergyModel {
            coefficients: EnergyCoefficients::default(),
            das_profile: extract_das_profile(Self::PROFILE_SAMPLES, Self::PROFILE_SEED),
            dvafs_profile: extract_dvafs_profile(Self::PROFILE_SAMPLES, Self::PROFILE_SEED),
        }
    }

    /// The calibration constants in use.
    #[must_use]
    pub fn coefficients(&self) -> &EnergyCoefficients {
        &self.coefficients
    }

    /// The extracted DAS activity profile.
    #[must_use]
    pub fn das_profile(&self) -> &ActivityProfile {
        &self.das_profile
    }

    /// The extracted DVAFS activity profile.
    #[must_use]
    pub fn dvafs_profile(&self) -> &ActivityProfile {
        &self.dvafs_profile
    }

    /// Relative MAC activity factor for a scaling regime at a per-word
    /// precision (1.0 at 16 bits).
    ///
    /// # Panics
    ///
    /// Panics if the profiles lack the precision (profiles cover 16/12/8/4
    /// and the subword modes).
    #[must_use]
    pub fn mac_activity_factor(&self, scaling: ScalingMode, bits: u32) -> f64 {
        let das = self
            .das_profile
            .at_bits(bits)
            .expect("DAS profile covers the sweep precisions");
        match scaling {
            ScalingMode::Das | ScalingMode::Dvas => das.activity_per_cycle,
            ScalingMode::Dvafs => {
                let mode = SubwordMode::for_precision(
                    dvafs_arith::Precision::new(bits).expect("validated by caller"),
                );
                if mode.lanes() > 1 {
                    self.dvafs_profile
                        .at_bits(mode.lane_bits())
                        .expect("DVAFS profile covers subword modes")
                        .activity_per_cycle
                } else {
                    das.activity_per_cycle
                }
            }
        }
    }

    /// Active-bit-line fraction of a memory access at a given per-word
    /// precision and packing.
    #[must_use]
    pub fn mem_activity_factor(scaling: ScalingMode, bits: u32) -> f64 {
        match scaling {
            // Gated LSBs leave bit lines quiet.
            ScalingMode::Das | ScalingMode::Dvas => f64::from(bits) / 16.0,
            // Packed subwords use the full word width (but carry N words).
            ScalingMode::Dvafs => {
                let mode = SubwordMode::for_precision(
                    dvafs_arith::Precision::new(bits).expect("validated by caller"),
                );
                if mode.lanes() > 1 {
                    1.0
                } else {
                    f64::from(bits) / 16.0
                }
            }
        }
    }

    /// Wire-load growth factor of the `as` domain for a SIMD width.
    #[must_use]
    pub fn wire_factor(&self, sw: usize) -> f64 {
        (sw as f64 / 8.0).powf(self.coefficients.wire_exponent)
    }

    /// Converts event counts into a three-domain energy breakdown (joules).
    ///
    /// `rails` carries the operating voltages; `vnom` the technology's
    /// nominal voltage; `scaling`/`bits` select the activity factors.
    #[must_use]
    pub fn breakdown(
        &self,
        counts: &EventCounts,
        sw: usize,
        rails: DomainRails,
        vnom: f64,
        scaling: ScalingMode,
        bits: u32,
    ) -> EnergyBreakdown {
        let c = &self.coefficients;
        let pj = 1e-12;
        let f_as = rails.energy_factor(PowerDomain::AccuracyScalable, vnom);
        let f_nas = rails.energy_factor(PowerDomain::NonScalable, vnom);
        let f_mem = rails.energy_factor(PowerDomain::Memory, vnom);
        let wire = self.wire_factor(sw);
        let mac_act = self.mac_activity_factor(scaling, bits);
        let mem_act = Self::mem_activity_factor(scaling, bits);

        let mut out = EnergyBreakdown::new();
        // nas: fetch/decode/control + scalar ALU.
        let fd = c.fetch_decode_base_pj + c.fetch_decode_per_lane_pj * sw as f64;
        out.add(
            PowerDomain::NonScalable,
            (counts.instructions as f64 * fd + counts.scalar_ops as f64 * c.scalar_op_pj)
                * f_nas
                * pj,
        );
        // as: MACs at the extracted activity factor, other vector ALU ops,
        // vector register file traffic.
        out.add(
            PowerDomain::AccuracyScalable,
            (counts.lane_macs as f64 * c.mac_pj * mac_act
                + counts.lane_alu as f64 * c.vector_alu_pj * mac_act.sqrt()
                + counts.lane_vreg as f64 * c.vreg_pj)
                * wire
                * f_as
                * pj,
        );
        // mem: word accesses at the active-bit-line fraction.
        out.add(
            PowerDomain::Memory,
            (counts.mem_reads + counts.mem_writes) as f64 * c.mem_word_pj * mem_act * f_mem * pj,
        );
        out
    }
}

impl Default for SimdEnergyModel {
    fn default() -> Self {
        SimdEnergyModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SimdEnergyModel {
        SimdEnergyModel::new()
    }

    #[test]
    fn mac_activity_at_full_precision_is_unity() {
        let m = model();
        for s in ScalingMode::ALL {
            assert!((m.mac_activity_factor(s, 16) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn das_mac_activity_falls_with_precision() {
        let m = model();
        let a8 = m.mac_activity_factor(ScalingMode::Das, 8);
        let a4 = m.mac_activity_factor(ScalingMode::Das, 4);
        assert!(a8 > a4 && a4 < 0.2);
    }

    #[test]
    fn dvafs_per_cycle_activity_above_das() {
        // Reused cells keep toggling: k3 < k0.
        let m = model();
        assert!(
            m.mac_activity_factor(ScalingMode::Dvafs, 4)
                > m.mac_activity_factor(ScalingMode::Das, 4)
        );
    }

    #[test]
    fn mem_activity_tracks_active_bits() {
        assert!((SimdEnergyModel::mem_activity_factor(ScalingMode::Das, 4) - 0.25).abs() < 1e-12);
        assert!((SimdEnergyModel::mem_activity_factor(ScalingMode::Dvafs, 4) - 1.0).abs() < 1e-12);
        assert!(
            (SimdEnergyModel::mem_activity_factor(ScalingMode::Dvafs, 12) - 0.75).abs() < 1e-12
        );
    }

    #[test]
    fn wire_factor_grows_sublinearly() {
        let m = model();
        assert!((m.wire_factor(8) - 1.0).abs() < 1e-12);
        let w64 = m.wire_factor(64);
        assert!(w64 > 1.2 && w64 < 2.0, "wire factor {w64}");
    }

    #[test]
    fn breakdown_scales_with_rails() {
        let m = model();
        let counts = EventCounts {
            instructions: 1000,
            scalar_ops: 200,
            lane_macs: 800,
            lane_alu: 100,
            lane_vreg: 1600,
            mem_reads: 800,
            mem_writes: 100,
        };
        let nominal = m.breakdown(
            &counts,
            8,
            DomainRails::uniform(1.1),
            1.1,
            ScalingMode::Das,
            16,
        );
        let scaled = m.breakdown(
            &counts,
            8,
            DomainRails::new(0.9, 1.1, 1.1),
            1.1,
            ScalingMode::Das,
            16,
        );
        assert!(
            scaled.domain(PowerDomain::AccuracyScalable)
                < nominal.domain(PowerDomain::AccuracyScalable)
        );
        assert_eq!(
            scaled.domain(PowerDomain::Memory),
            nominal.domain(PowerDomain::Memory)
        );
    }

    #[test]
    fn zero_counts_give_zero_energy() {
        let m = model();
        let b = m.breakdown(
            &EventCounts::default(),
            8,
            DomainRails::uniform(1.1),
            1.1,
            ScalingMode::Das,
            16,
        );
        assert_eq!(b.total(), 0.0);
    }
}

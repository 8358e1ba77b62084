//! The cycle-level processor: execution loop, run reports, Table II rows.

use crate::energy::{EventCounts, SimdEnergyModel};
use crate::error::SimdError;
use crate::isa::{Instr, Program, SCALAR_REGS, VECTOR_REGS};
use crate::kernels::{compile_with_style, CompiledKernel, ConvKernel, KernelStyle};
use crate::memory::BankedMemory;
use dvafs_arith::subword::{pack_lanes, unpack_lanes, SubwordMode};
use dvafs_arith::Precision;
use dvafs_tech::domains::{DomainRails, PowerDomain};
use dvafs_tech::energy::EnergyBreakdown;
use dvafs_tech::scaling::{OperatingPoint, ScalingMode};
use dvafs_tech::technology::Technology;
use serde::{Deserialize, Serialize};

/// Configuration of one processor instantiation + operating point.
///
/// # Example
///
/// ```
/// use dvafs_simd::processor::ProcConfig;
/// use dvafs_tech::ScalingMode;
///
/// let c = ProcConfig::new(64, ScalingMode::Dvafs, 8)?;
/// assert_eq!(c.sw(), 64);
/// assert_eq!(c.mode().lanes(), 2);
/// # Ok::<(), dvafs_simd::SimdError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcConfig {
    sw: usize,
    scaling: ScalingMode,
    bits: u32,
    mode: SubwordMode,
    cycle_limit: u64,
    tech: Technology,
}

impl ProcConfig {
    /// Creates a configuration for SIMD width `sw` in the given scaling
    /// regime and per-word precision. DVAFS selects the subword mode from
    /// the precision; DAS/DVAS always run `1x16b` lanes with gated inputs.
    ///
    /// # Errors
    ///
    /// Returns [`SimdError::InvalidConfig`] for a zero width or a precision
    /// outside `1..=16`.
    pub fn new(sw: usize, scaling: ScalingMode, bits: u32) -> Result<Self, SimdError> {
        if sw == 0 {
            return Err(SimdError::InvalidConfig {
                reason: "SIMD width must be positive".to_string(),
            });
        }
        let precision = Precision::new(bits).map_err(|e| SimdError::InvalidConfig {
            reason: e.to_string(),
        })?;
        let mode = match scaling {
            ScalingMode::Das | ScalingMode::Dvas => SubwordMode::X1,
            ScalingMode::Dvafs => SubwordMode::for_precision(precision),
        };
        Ok(ProcConfig {
            sw,
            scaling,
            bits,
            mode,
            cycle_limit: 20_000_000,
            tech: Technology::lp40(),
        })
    }

    /// SIMD width (number of lanes and memory banks).
    #[must_use]
    pub fn sw(&self) -> usize {
        self.sw
    }

    /// Scaling regime.
    #[must_use]
    pub fn scaling(&self) -> ScalingMode {
        self.scaling
    }

    /// Per-word operand precision in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Subword mode of the vector lanes.
    #[must_use]
    pub fn mode(&self) -> SubwordMode {
        self.mode
    }

    /// The technology node (40 nm LP by default).
    #[must_use]
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Overrides the cycle budget (default 20 M).
    #[must_use]
    pub fn with_cycle_limit(mut self, limit: u64) -> Self {
        self.cycle_limit = limit;
        self
    }
}

/// Result of one program execution with full energy accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Executed cycles (single-issue: one instruction per cycle).
    pub cycles: u64,
    /// Event counts for the energy model.
    pub counts: EventCounts,
    /// Three-domain energy breakdown in joules.
    pub energy: EnergyBreakdown,
    /// Rail voltages of the operating point.
    pub rails: DomainRails,
    /// Clock frequency in MHz (scaled by `N` in DVAFS).
    pub frequency_mhz: f64,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
    /// Average power in watts.
    pub avg_power_w: f64,
}

impl RunReport {
    /// Energy per processed word in joules, given the word count.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    #[must_use]
    pub fn energy_per_word(&self, words: u64) -> f64 {
        assert!(words > 0, "word count must be positive");
        self.energy.total() / words as f64
    }

    /// Domain share in percent (Table II's `mem`/`nas`/`as` columns).
    #[must_use]
    pub fn share(&self, domain: PowerDomain) -> f64 {
        self.energy.percentage(domain)
    }
}

/// Result of running a compiled convolution kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelReport {
    /// The generic run report.
    pub run: RunReport,
    /// Outputs read back from memory, ordered by output index.
    pub outputs: Vec<i32>,
    /// Compilation parameters used (for verification).
    pub bits: u32,
    /// Post-MAC shift used by the program.
    pub shift: u32,
    /// Subword mode of the run.
    pub mode: SubwordMode,
    /// Processed words (MAC operand pairs).
    pub words: u64,
}

impl KernelReport {
    /// Verifies the read-back outputs against an exact recomputation of
    /// the kernel at the same precision and shift.
    #[must_use]
    pub fn outputs_match(&self, kernel: &ConvKernel) -> bool {
        let expected = kernel.expected_outputs(self.bits, self.shift, self.mode.lane_bits());
        expected == self.outputs
    }

    /// Like [`outputs_match`](Self::outputs_match), but recomputes the
    /// reference through the subword-packed GEMM
    /// ([`ConvKernel::expected_outputs_packed`]) — the check the fig4 and
    /// table2 scenarios assert on every simulated run. The two references
    /// agree bit for bit (`kernels` unit tests).
    #[must_use]
    pub fn outputs_match_packed(&self, kernel: &ConvKernel) -> bool {
        let expected = kernel.expected_outputs_packed(self.bits, self.shift, self.mode.lane_bits());
        expected == self.outputs
    }

    /// Energy per processed word in joules.
    #[must_use]
    pub fn energy_per_word(&self) -> f64 {
        self.run.energy_per_word(self.words)
    }
}

/// The DVAFS-compatible SIMD RISC vector processor.
#[derive(Debug, Clone)]
pub struct Processor {
    config: ProcConfig,
    model: SimdEnergyModel,
}

impl Processor {
    /// Creates a processor with a freshly extracted energy model.
    #[must_use]
    pub fn new(config: ProcConfig) -> Self {
        Processor {
            config,
            model: SimdEnergyModel::new(),
        }
    }

    /// Creates a processor reusing an existing energy model (cheaper when
    /// sweeping many operating points).
    #[must_use]
    pub fn with_model(config: ProcConfig, model: SimdEnergyModel) -> Self {
        Processor { config, model }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ProcConfig {
        &self.config
    }

    /// Rail voltages of this configuration's operating point, derived from
    /// the calibrated technology model (memory rail fixed at nominal).
    #[must_use]
    pub fn rails(&self) -> DomainRails {
        let tech = &self.config.tech;
        let vnom = tech.nominal_voltage();
        // Derive the as/nas voltages from the same machinery as the
        // multiplier analysis; DVAFS profile entries come from the model.
        let op = OperatingPoint::derive(
            tech,
            self.config.scaling,
            self.config.bits,
            self.model.das_profile(),
            self.model.dvafs_profile(),
        );
        DomainRails::new(op.v_as, op.v_nas, vnom)
    }

    /// Clock frequency in MHz at constant computational throughput.
    #[must_use]
    pub fn frequency_mhz(&self) -> f64 {
        self.config.tech.nominal_frequency_mhz() / self.config.mode.lanes() as f64
    }

    /// Executes a program against a memory image.
    ///
    /// # Errors
    ///
    /// Propagates ISA-level faults ([`SimdError::InvalidRegister`],
    /// [`SimdError::MemoryOutOfBounds`], [`SimdError::InvalidTarget`]) and
    /// [`SimdError::CycleLimitExceeded`].
    // Lane loops index several vector registers with the same lane/subword
    // pair (including aliasing reads and writes of one register file), which
    // iterator chains cannot express without split_at_mut contortions.
    #[allow(clippy::needless_range_loop)]
    pub fn run(
        &self,
        program: &Program,
        memory: &mut BankedMemory,
    ) -> Result<RunReport, SimdError> {
        let sw = self.config.sw;
        let n = self.config.mode.lanes();
        let mut scalar = [0i32; SCALAR_REGS];
        let mut vregs = vec![vec![vec![0i64; n]; sw]; VECTOR_REGS];
        let mut counts = EventCounts::default();
        let mut pc = 0usize;
        let mut cycles = 0u64;
        let instrs = program.instrs();

        let sreg = |r: usize| -> Result<usize, SimdError> {
            if r < SCALAR_REGS {
                Ok(r)
            } else {
                Err(SimdError::InvalidRegister {
                    index: r,
                    count: SCALAR_REGS,
                    kind: "scalar",
                })
            }
        };
        let vreg = |r: usize| -> Result<usize, SimdError> {
            if r < VECTOR_REGS {
                Ok(r)
            } else {
                Err(SimdError::InvalidRegister {
                    index: r,
                    count: VECTOR_REGS,
                    kind: "vector",
                })
            }
        };

        loop {
            if cycles >= self.config.cycle_limit {
                return Err(SimdError::CycleLimitExceeded {
                    limit: self.config.cycle_limit,
                });
            }
            let instr = *instrs.get(pc).ok_or(SimdError::InvalidTarget {
                target: pc,
                len: instrs.len(),
            })?;
            counts.instructions += 1;
            cycles += 1;
            pc += 1;
            match instr {
                Instr::Li { rd, imm } => {
                    scalar[sreg(rd)?] = imm;
                    counts.scalar_ops += 1;
                }
                Instr::Add { rd, rs1, rs2 } => {
                    scalar[sreg(rd)?] = scalar[sreg(rs1)?].wrapping_add(scalar[sreg(rs2)?]);
                    counts.scalar_ops += 1;
                }
                Instr::Addi { rd, rs1, imm } => {
                    scalar[sreg(rd)?] = scalar[sreg(rs1)?].wrapping_add(imm);
                    counts.scalar_ops += 1;
                }
                Instr::Bne { rs1, rs2, target } => {
                    counts.scalar_ops += 1;
                    if scalar[sreg(rs1)?] != scalar[sreg(rs2)?] {
                        if target >= instrs.len() {
                            return Err(SimdError::InvalidTarget {
                                target,
                                len: instrs.len(),
                            });
                        }
                        pc = target;
                    }
                }
                Instr::Jump { target } => {
                    if target >= instrs.len() {
                        return Err(SimdError::InvalidTarget {
                            target,
                            len: instrs.len(),
                        });
                    }
                    pc = target;
                }
                Instr::Halt => break,
                Instr::Nop => {}
                Instr::LoadScalar { rd, rs1, offset } => {
                    let base = scalar[sreg(rs1)?];
                    let addr = usize::try_from(base.wrapping_add(offset)).map_err(|_| {
                        SimdError::MemoryOutOfBounds {
                            bank: 0,
                            addr: 0,
                            size: memory.words_per_bank(),
                        }
                    })?;
                    let word = memory.read(0, addr)?;
                    scalar[sreg(rd)?] = i32::from(word as i16);
                    counts.mem_reads += 1;
                    counts.scalar_ops += 1;
                }
                Instr::VLoad { vd, rs1, offset } => {
                    let vd = vreg(vd)?;
                    let base = scalar[sreg(rs1)?];
                    let addr = usize::try_from(base.wrapping_add(offset)).map_err(|_| {
                        SimdError::MemoryOutOfBounds {
                            bank: 0,
                            addr: 0,
                            size: memory.words_per_bank(),
                        }
                    })?;
                    for lane in 0..sw {
                        let word = memory.read(lane, addr)?;
                        let values = unpack_lanes(word, self.config.mode);
                        for (s, v) in values.into_iter().enumerate() {
                            vregs[vd][lane][s] = i64::from(v);
                        }
                    }
                    counts.mem_reads += sw as u64;
                    counts.lane_vreg += sw as u64;
                }
                Instr::VStore { vs, rs1, offset } => {
                    let vs = vreg(vs)?;
                    let base = scalar[sreg(rs1)?];
                    let addr = usize::try_from(base.wrapping_add(offset)).map_err(|_| {
                        SimdError::MemoryOutOfBounds {
                            bank: 0,
                            addr: 0,
                            size: memory.words_per_bank(),
                        }
                    })?;
                    let w = self.config.mode.lane_bits();
                    let lo = -(1i64 << (w - 1));
                    let hi = (1i64 << (w - 1)) - 1;
                    for lane in 0..sw {
                        let clamped: Vec<i32> = vregs[vs][lane]
                            .iter()
                            .map(|&v| v.clamp(lo, hi) as i32)
                            .collect();
                        let word = pack_lanes(&clamped, self.config.mode)
                            .expect("clamped values fit the lane width");
                        memory.write(lane, addr, word)?;
                    }
                    counts.mem_writes += sw as u64;
                    counts.lane_vreg += sw as u64;
                }
                Instr::VBroadcast { vd, rs } => {
                    let vd = vreg(vd)?;
                    let v = i64::from(scalar[sreg(rs)?]);
                    for lane in vregs[vd].iter_mut() {
                        lane.iter_mut().for_each(|slot| *slot = v);
                    }
                    counts.lane_alu += sw as u64;
                    counts.lane_vreg += sw as u64;
                }
                Instr::VMac { vacc, vs1, vs2 } => {
                    let (vacc, vs1, vs2) = (vreg(vacc)?, vreg(vs1)?, vreg(vs2)?);
                    for lane in 0..sw {
                        for s in 0..n {
                            let p = vregs[vs1][lane][s] * vregs[vs2][lane][s];
                            vregs[vacc][lane][s] += p;
                        }
                    }
                    counts.lane_macs += sw as u64;
                    counts.lane_vreg += 3 * sw as u64;
                }
                Instr::VAdd { vd, vs1, vs2 } => {
                    let (vd, vs1, vs2) = (vreg(vd)?, vreg(vs1)?, vreg(vs2)?);
                    for lane in 0..sw {
                        for s in 0..n {
                            vregs[vd][lane][s] = vregs[vs1][lane][s] + vregs[vs2][lane][s];
                        }
                    }
                    counts.lane_alu += sw as u64;
                    counts.lane_vreg += 2 * sw as u64;
                }
                Instr::VRelu { vd, vs } => {
                    let (vd, vs) = (vreg(vd)?, vreg(vs)?);
                    for lane in 0..sw {
                        for s in 0..n {
                            vregs[vd][lane][s] = vregs[vs][lane][s].max(0);
                        }
                    }
                    counts.lane_alu += sw as u64;
                    counts.lane_vreg += 2 * sw as u64;
                }
                Instr::VClear { vd } => {
                    let vd = vreg(vd)?;
                    for lane in vregs[vd].iter_mut() {
                        lane.iter_mut().for_each(|slot| *slot = 0);
                    }
                    counts.lane_alu += sw as u64;
                    counts.lane_vreg += sw as u64;
                }
                Instr::VShr { vd, vs, amount } => {
                    let (vd, vs) = (vreg(vd)?, vreg(vs)?);
                    for lane in 0..sw {
                        for s in 0..n {
                            vregs[vd][lane][s] = vregs[vs][lane][s] >> amount.min(62);
                        }
                    }
                    counts.lane_alu += sw as u64;
                    counts.lane_vreg += 2 * sw as u64;
                }
            }
        }

        let rails = self.rails();
        let vnom = self.config.tech.nominal_voltage();
        let energy = self.model.breakdown(
            &counts,
            sw,
            rails,
            vnom,
            self.config.scaling,
            self.config.bits,
        );
        let frequency_mhz = self.frequency_mhz();
        let runtime_s = cycles as f64 / (frequency_mhz * 1e6);
        let avg_power_w = if runtime_s > 0.0 {
            energy.total() / runtime_s
        } else {
            0.0
        };
        Ok(RunReport {
            cycles,
            counts,
            energy,
            rails,
            frequency_mhz,
            runtime_s,
            avg_power_w,
        })
    }

    /// Compiles and runs a convolution kernel, reading the outputs back.
    ///
    /// # Errors
    ///
    /// Propagates compilation ([`SimdError::InvalidConfig`]) and execution
    /// errors.
    pub fn run_kernel(&self, kernel: &ConvKernel) -> Result<KernelReport, SimdError> {
        self.run_kernel_styled(kernel, KernelStyle::Unrolled)
    }

    /// Like [`run_kernel`](Self::run_kernel) with an explicit
    /// code-generation style (unrolled vs. branch loops).
    ///
    /// # Errors
    ///
    /// Propagates compilation and execution errors.
    pub fn run_kernel_styled(
        &self,
        kernel: &ConvKernel,
        style: KernelStyle,
    ) -> Result<KernelReport, SimdError> {
        let compiled: CompiledKernel = compile_with_style(
            kernel,
            self.config.sw,
            self.config.mode,
            self.config.bits,
            style,
        )?;
        let words_per_bank = (compiled.out_base + compiled.blocks)
            .max(compiled.bank_images.iter().map(Vec::len).max().unwrap_or(0));
        let mut memory = BankedMemory::new(self.config.sw, words_per_bank);
        for (lane, image) in compiled.bank_images.iter().enumerate() {
            memory.load_bank(lane, 0, image)?;
        }
        let run = self.run(&compiled.program, &mut memory)?;
        // Read outputs back in output-index order.
        let mut outputs = vec![0i32; kernel.outputs()];
        for b in 0..compiled.blocks {
            for lane in 0..self.config.sw {
                let word = memory.read(lane, compiled.out_base + b)?;
                for (s, v) in unpack_lanes(word, self.config.mode).into_iter().enumerate() {
                    outputs[compiled.output_index(b, lane, s)] = v;
                }
            }
        }
        Ok(KernelReport {
            run,
            outputs,
            bits: compiled.bits,
            shift: compiled.shift,
            mode: compiled.mode,
            words: kernel.mac_count(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_model() -> SimdEnergyModel {
        SimdEnergyModel::new()
    }

    #[test]
    fn scalar_loop_executes() {
        // Sum 1..=5 with a branch loop.
        let mut p = Program::new();
        p.push(Instr::Li { rd: 1, imm: 0 }); // acc
        p.push(Instr::Li { rd: 2, imm: 5 }); // limit
        p.push(Instr::Li { rd: 3, imm: 0 }); // i
        let loop_top = p.push(Instr::Addi {
            rd: 3,
            rs1: 3,
            imm: 1,
        });
        p.push(Instr::Add {
            rd: 1,
            rs1: 1,
            rs2: 3,
        });
        p.push(Instr::Bne {
            rs1: 3,
            rs2: 2,
            target: loop_top,
        });
        // Store the scalar via broadcast + vstore to observe it.
        p.push(Instr::VBroadcast { vd: 0, rs: 1 });
        p.push(Instr::VStore {
            vs: 0,
            rs1: 0,
            offset: 0,
        });
        p.push(Instr::Halt);
        let config = ProcConfig::new(2, ScalingMode::Das, 16).unwrap();
        let proc = Processor::with_model(config, shared_model());
        let mut mem = BankedMemory::new(2, 4);
        let report = proc.run(&p, &mut mem).unwrap();
        assert_eq!(mem.read(0, 0).unwrap() as i16, 15);
        assert_eq!(mem.read(1, 0).unwrap() as i16, 15);
        assert!(report.cycles > 10);
    }

    #[test]
    fn kernel_outputs_are_bit_exact_in_all_regimes() {
        let kernel = ConvKernel::random(7, 64, 11);
        let model = shared_model();
        for (scaling, bits) in [
            (ScalingMode::Das, 16),
            (ScalingMode::Das, 8),
            (ScalingMode::Dvas, 12),
            (ScalingMode::Dvas, 4),
            (ScalingMode::Dvafs, 16),
            (ScalingMode::Dvafs, 8),
            (ScalingMode::Dvafs, 4),
        ] {
            let config = ProcConfig::new(8, scaling, bits).unwrap();
            let proc = Processor::with_model(config, model.clone());
            let report = proc.run_kernel(&kernel).unwrap();
            assert!(
                report.outputs_match(&kernel),
                "{scaling:?} at {bits} bits produced wrong outputs"
            );
        }
    }

    #[test]
    fn dvafs_runs_fewer_cycles_at_lower_clock() {
        let kernel = ConvKernel::random(9, 256, 12);
        let model = shared_model();
        let full = Processor::with_model(
            ProcConfig::new(8, ScalingMode::Dvafs, 16).unwrap(),
            model.clone(),
        )
        .run_kernel(&kernel)
        .unwrap();
        let quad = Processor::with_model(
            ProcConfig::new(8, ScalingMode::Dvafs, 4).unwrap(),
            model.clone(),
        )
        .run_kernel(&kernel)
        .unwrap();
        // ~4x fewer cycles at 1/4 the clock: constant throughput.
        let cyc_ratio = full.run.cycles as f64 / quad.run.cycles as f64;
        assert!((cyc_ratio - 4.0).abs() < 0.4, "cycle ratio {cyc_ratio}");
        assert_eq!(quad.run.frequency_mhz, 125.0);
        let t_ratio = quad.run.runtime_s / full.run.runtime_s;
        assert!((t_ratio - 1.0).abs() < 0.15, "runtime ratio {t_ratio}");
    }

    #[test]
    fn energy_ordering_das_dvas_dvafs_at_4b() {
        let kernel = ConvKernel::random(9, 256, 13);
        let model = shared_model();
        let energy = |scaling| {
            Processor::with_model(ProcConfig::new(8, scaling, 4).unwrap(), model.clone())
                .run_kernel(&kernel)
                .unwrap()
                .energy_per_word()
        };
        let das = energy(ScalingMode::Das);
        let dvas = energy(ScalingMode::Dvas);
        let dvafs = energy(ScalingMode::Dvafs);
        assert!(das > dvas, "das {das} dvas {dvas}");
        assert!(dvas > dvafs, "dvas {dvas} dvafs {dvafs}");
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let mut p = Program::new();
        p.push(Instr::Jump { target: 0 });
        let config = ProcConfig::new(2, ScalingMode::Das, 16)
            .unwrap()
            .with_cycle_limit(100);
        let proc = Processor::with_model(config, shared_model());
        let mut mem = BankedMemory::new(2, 4);
        assert!(matches!(
            proc.run(&p, &mut mem),
            Err(SimdError::CycleLimitExceeded { limit: 100 })
        ));
    }

    #[test]
    fn invalid_register_is_reported() {
        let mut p = Program::new();
        p.push(Instr::Li { rd: 99, imm: 0 });
        let proc = Processor::with_model(
            ProcConfig::new(2, ScalingMode::Das, 16).unwrap(),
            shared_model(),
        );
        let mut mem = BankedMemory::new(2, 4);
        assert!(matches!(
            proc.run(&p, &mut mem),
            Err(SimdError::InvalidRegister { index: 99, .. })
        ));
    }

    #[test]
    fn running_off_the_end_is_an_error() {
        let mut p = Program::new();
        p.push(Instr::Nop);
        let proc = Processor::with_model(
            ProcConfig::new(2, ScalingMode::Das, 16).unwrap(),
            shared_model(),
        );
        let mut mem = BankedMemory::new(2, 4);
        assert!(matches!(
            proc.run(&p, &mut mem),
            Err(SimdError::InvalidTarget { .. })
        ));
    }

    #[test]
    fn looped_and_unrolled_kernels_agree() {
        let kernel = ConvKernel::random(7, 128, 55);
        let model = shared_model();
        for (scaling, bits) in [
            (ScalingMode::Das, 16u32),
            (ScalingMode::Dvafs, 8),
            (ScalingMode::Dvafs, 4),
        ] {
            let cfg = ProcConfig::new(8, scaling, bits).unwrap();
            let proc = Processor::with_model(cfg, model.clone());
            let unrolled = proc
                .run_kernel_styled(&kernel, KernelStyle::Unrolled)
                .unwrap();
            let looped = proc
                .run_kernel_styled(&kernel, KernelStyle::Looped)
                .unwrap();
            assert_eq!(unrolled.outputs, looped.outputs, "{scaling:?} {bits}b");
            assert!(looped.outputs_match(&kernel));
            // Loops trade cycles for code size.
            assert!(looped.run.cycles > unrolled.run.cycles);
        }
    }

    #[test]
    fn looped_code_size_is_constant_in_workload() {
        use crate::kernels::compile_with_style as cws;
        let small = ConvKernel::random(4, 64, 1);
        let large = ConvKernel::random(16, 512, 2);
        let a = cws(&small, 8, SubwordMode::X1, 16, KernelStyle::Looped).unwrap();
        let b = cws(&large, 8, SubwordMode::X1, 16, KernelStyle::Looped).unwrap();
        assert_eq!(a.program.len(), b.program.len());
        // Unrolled code grows with the workload.
        let c = cws(&large, 8, SubwordMode::X1, 16, KernelStyle::Unrolled).unwrap();
        assert!(c.program.len() > 10 * a.program.len());
    }

    #[test]
    fn load_scalar_reads_bank_zero_sign_extended() {
        let mut p = Program::new();
        p.push(Instr::LoadScalar {
            rd: 1,
            rs1: 0,
            offset: 2,
        });
        p.push(Instr::VBroadcast { vd: 0, rs: 1 });
        p.push(Instr::VStore {
            vs: 0,
            rs1: 0,
            offset: 0,
        });
        p.push(Instr::Halt);
        let proc = Processor::with_model(
            ProcConfig::new(2, ScalingMode::Das, 16).unwrap(),
            shared_model(),
        );
        let mut mem = BankedMemory::new(2, 4);
        mem.write(0, 2, (-123i16) as u16).unwrap();
        proc.run(&p, &mut mem).unwrap();
        assert_eq!(mem.read(0, 0).unwrap() as i16, -123);
    }

    #[test]
    fn relu_and_vadd_semantics() {
        let mut p = Program::new();
        p.push(Instr::Li { rd: 1, imm: -5 });
        p.push(Instr::VBroadcast { vd: 0, rs: 1 });
        p.push(Instr::VRelu { vd: 1, vs: 0 });
        p.push(Instr::Li { rd: 2, imm: 3 });
        p.push(Instr::VBroadcast { vd: 2, rs: 2 });
        p.push(Instr::VAdd {
            vd: 3,
            vs1: 1,
            vs2: 2,
        });
        p.push(Instr::VStore {
            vs: 3,
            rs1: 0,
            offset: 0,
        });
        p.push(Instr::Halt);
        let proc = Processor::with_model(
            ProcConfig::new(2, ScalingMode::Das, 16).unwrap(),
            shared_model(),
        );
        let mut mem = BankedMemory::new(2, 2);
        proc.run(&p, &mut mem).unwrap();
        // relu(-5) + 3 = 3.
        assert_eq!(mem.read(0, 0).unwrap() as i16, 3);
    }
}

//! Convolution benchmark generation (the paper's SIMD workload).
//!
//! Section III-B evaluates the processor on "a large convolution kernel".
//! [`ConvKernel`] describes a 1-D convolution `out[o] = Σ_t w[t]·x[o+t]`
//! (the im2col-collapsed inner loop of a CONV layer); [`compile`] lowers it
//! to a program plus banked-memory image for any SIMD width, subword mode
//! and operand precision, keeping the *computational throughput constant*:
//! in `Nx` subword mode every vector instruction carries `N` output words
//! per lane, so the instruction count — and with it the clock needed for a
//! fixed frame rate — drops by `N`.

use crate::error::SimdError;
use crate::isa::{Instr, Program};
use dvafs_arith::subword::{pack_lanes, SubwordMode};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A 1-D convolution workload with canonical 16-bit operands.
///
/// # Example
///
/// ```
/// use dvafs_simd::kernels::ConvKernel;
///
/// let k = ConvKernel::random(9, 64, 1);
/// assert_eq!(k.taps(), 9);
/// assert_eq!(k.outputs(), 64);
/// assert_eq!(k.mac_count(), 9 * 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvKernel {
    taps: usize,
    outputs: usize,
    weights: Vec<i32>,
    inputs: Vec<i32>,
}

impl ConvKernel {
    /// Creates a kernel with deterministic pseudo-random 16-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if `taps` or `outputs` is zero.
    #[must_use]
    pub fn random(taps: usize, outputs: usize, seed: u64) -> Self {
        assert!(
            taps > 0 && outputs > 0,
            "kernel dimensions must be positive"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        ConvKernel {
            taps,
            outputs,
            weights: (0..taps).map(|_| rng.gen_range(-32768..=32767)).collect(),
            inputs: (0..outputs + taps)
                .map(|_| rng.gen_range(-32768..=32767))
                .collect(),
        }
    }

    /// Filter length (`K*K*C` of the collapsed CONV loop).
    #[must_use]
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Number of output elements.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Total multiply-accumulate operations (= processed operand words).
    #[must_use]
    pub fn mac_count(&self) -> u64 {
        (self.taps * self.outputs) as u64
    }

    /// The canonical weights.
    #[must_use]
    pub fn weights(&self) -> &[i32] {
        &self.weights
    }

    /// The canonical input signal.
    #[must_use]
    pub fn inputs(&self) -> &[i32] {
        &self.inputs
    }

    /// The effective operand at a reduced precision: the `bits` MSBs of the
    /// canonical 16-bit value, re-scaled onto the lane grid
    /// (`v >> (16 - bits)`).
    #[must_use]
    pub fn effective(value: i32, bits: u32) -> i32 {
        value >> (16 - bits)
    }

    /// Reference outputs at a precision/shift, exactly as the processor
    /// computes them (accumulate effective products, arithmetic shift,
    /// clamp to the store width).
    #[must_use]
    pub fn expected_outputs(&self, bits: u32, shift: u32, store_bits: u32) -> Vec<i32> {
        let lo = -(1i64 << (store_bits - 1));
        let hi = (1i64 << (store_bits - 1)) - 1;
        (0..self.outputs)
            .map(|o| {
                let acc: i64 = (0..self.taps)
                    .map(|t| {
                        i64::from(Self::effective(self.weights[t], bits))
                            * i64::from(Self::effective(self.inputs[o + t], bits))
                    })
                    .sum();
                (acc >> shift).clamp(lo, hi) as i32
            })
            .collect()
    }

    /// An effective operand as the GEMM's `i16` lane value. The canonical
    /// operands are 16-bit by construction ([`random`](Self::random)
    /// draws from `-32768..=32767` and `effective` only narrows), so the
    /// cast never wraps; the debug assertion pins that invariant for
    /// hand-built kernels.
    fn effective_i16(value: i32, bits: u32) -> i16 {
        let e = Self::effective(value, bits);
        debug_assert!(
            i32::from(e as i16) == e,
            "ConvKernel operands must be canonical 16-bit values (effective {e})"
        );
        e as i16
    }

    /// [`expected_outputs`](Self::expected_outputs) computed through the
    /// subword-packed GEMM ([`crate::gemm::gemm_packed`]) instead of the
    /// naive tap loop: the sliding input windows form an im2col panel (one
    /// patch per row) multiplied against the 1-row weight matrix, both
    /// packed at the most-parallel [`SubwordMode`] the precision allows
    /// ([`SubwordMode::for_precision`]). Effective operands span the full
    /// `bits`-wide two's-complement range (`effective` can produce
    /// `-2^(bits-1)`), which the packed panels accept by contract, so the
    /// result stays bit-identical to the naive reference (`kernels` unit
    /// tests). The fig4 and table2 scenarios check every simulated run
    /// against it, computing it once per distinct `(bits, shift,
    /// store_bits)`.
    ///
    /// # Panics
    ///
    /// Panics when `bits` is outside `1..=16` (compilation validated it).
    #[must_use]
    pub fn expected_outputs_packed(&self, bits: u32, shift: u32, store_bits: u32) -> Vec<i32> {
        let lo = -(1i64 << (store_bits - 1));
        let hi = (1i64 << (store_bits - 1)) - 1;
        let mode = SubwordMode::for_precision(
            dvafs_arith::Precision::new(bits).expect("compiled precision is 1..=16"),
        );
        let w: Vec<i16> = self
            .weights
            .iter()
            .map(|&v| Self::effective_i16(v, bits))
            .collect();
        let mut patches = Vec::with_capacity(self.outputs * self.taps);
        for o in 0..self.outputs {
            patches.extend(
                self.inputs[o..o + self.taps]
                    .iter()
                    .map(|&v| Self::effective_i16(v, bits)),
            );
        }
        let pw = crate::gemm::PackedPanel::pack(&w, 1, self.taps, mode);
        let pp = crate::gemm::PackedPanel::pack(&patches, self.outputs, self.taps, mode);
        let mut acc = vec![0i64; self.outputs];
        crate::gemm::gemm_packed(&pw, &pp, &mut acc);
        acc.into_iter()
            .map(|a| (a >> shift).clamp(lo, hi) as i32)
            .collect()
    }
}

/// A kernel lowered to a program and memory image for one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledKernel {
    /// The executable program (fully unrolled inner loop).
    pub program: Program,
    /// Initial contents of each memory bank.
    pub bank_images: Vec<Vec<u16>>,
    /// Word address of the first output in every bank.
    pub out_base: usize,
    /// Outer blocks (output groups of `SW * N` elements).
    pub blocks: usize,
    /// Post-MAC re-quantization shift.
    pub shift: u32,
    /// Operand precision in bits.
    pub bits: u32,
    /// Subword mode of the compilation.
    pub mode: SubwordMode,
    /// SIMD width the image was laid out for.
    pub sw: usize,
}

impl CompiledKernel {
    /// Output slot index for `(block, lane, subword)`.
    #[must_use]
    pub fn output_index(&self, block: usize, lane: usize, sub: usize) -> usize {
        let n = self.mode.lanes();
        block * self.sw * n + lane * n + sub
    }
}

/// Code-generation style for a kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelStyle {
    /// Fully unrolled inner loop: weights as immediates, no branches.
    /// Fastest (one tap per 4 cycles) but large program memory.
    #[default]
    Unrolled,
    /// Nested branch loops with weights loaded from memory bank 0:
    /// constant, small program memory at ~2x the cycles per tap — how a
    /// real C-programmable processor (or Envision's 16 kB instruction
    /// store) runs large layers.
    Looped,
}

/// Lowers a kernel for a SIMD width, subword mode and precision.
///
/// # Errors
///
/// Returns [`SimdError::InvalidConfig`] when `outputs` is not divisible by
/// `sw * mode.lanes()` or the precision exceeds the mode's lane width.
pub fn compile(
    kernel: &ConvKernel,
    sw: usize,
    mode: SubwordMode,
    bits: u32,
) -> Result<CompiledKernel, SimdError> {
    compile_with_style(kernel, sw, mode, bits, KernelStyle::Unrolled)
}

/// Lowers a kernel with an explicit code-generation style.
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_with_style(
    kernel: &ConvKernel,
    sw: usize,
    mode: SubwordMode,
    bits: u32,
    style: KernelStyle,
) -> Result<CompiledKernel, SimdError> {
    let n = mode.lanes();
    let slots = sw * n;
    if !kernel.outputs().is_multiple_of(slots) {
        return Err(SimdError::InvalidConfig {
            reason: format!(
                "outputs {} not divisible by sw*lanes = {slots}",
                kernel.outputs()
            ),
        });
    }
    if bits > mode.lane_bits() {
        return Err(SimdError::InvalidConfig {
            reason: format!("{bits}-bit operands do not fit {mode} lanes"),
        });
    }
    let blocks = kernel.outputs() / slots;
    let taps = kernel.taps();
    // Accumulator magnitude ~ taps * 2^(2 bits - 2); shift so the stored
    // value fits the lane width with headroom.
    let store_bits = mode.lane_bits();
    let log_taps = (taps as f64).log2().ceil() as u32;
    let shift = (2 * bits + log_taps).saturating_sub(store_bits + 1).min(31);

    let out_base = blocks * taps;
    // Looped style stores the effective weights after the output region
    // (in every bank, so bank 0 has them for the scalar unit).
    let weight_base = out_base + blocks;

    // Memory image: bank l, address b*taps + t holds the packed effective
    // inputs of that lane's N output slots o = b*SW*N + l*N + s at tap t,
    // i.e. inputs o0+t .. o0+t+N: one N-wide window of the input signal.
    // Each image has room for the whole bank, so the processor moves it
    // into its memory as is.
    let effective: Vec<i32> = kernel
        .inputs()
        .iter()
        .map(|&x| ConvKernel::effective(x, bits))
        .collect();
    let mut bank_images: Vec<Vec<u16>> = (0..sw)
        .map(|_| Vec::with_capacity(weight_base + taps))
        .collect();
    for (l, image) in bank_images.iter_mut().enumerate() {
        for b in 0..blocks {
            let o0 = b * slots + l * n;
            image.extend(
                effective[o0..o0 + taps + n - 1]
                    .windows(n)
                    .map(|lanes| pack_lanes(lanes, mode).expect("effective values fit lane width")),
            );
        }
    }
    if style == KernelStyle::Looped {
        for image in &mut bank_images {
            // Reserve the output region, then append the weights.
            image.resize(weight_base, 0);
            for t in 0..taps {
                image.push(ConvKernel::effective(kernel.weights()[t], bits) as u16);
            }
        }
    }

    let mut program = Program::new();
    match style {
        KernelStyle::Unrolled => {
            // Per tap: load weight immediate, broadcast, load inputs, MAC;
            // per block: clear + shift + store.
            for b in 0..blocks {
                program.push(Instr::VClear { vd: 0 });
                for t in 0..taps {
                    program.push(Instr::Li {
                        rd: 3,
                        imm: ConvKernel::effective(kernel.weights()[t], bits),
                    });
                    program.push(Instr::VBroadcast { vd: 2, rs: 3 });
                    program.push(Instr::VLoad {
                        vd: 1,
                        rs1: 0,
                        offset: (b * taps + t) as i32,
                    });
                    program.push(Instr::VMac {
                        vacc: 0,
                        vs1: 1,
                        vs2: 2,
                    });
                }
                program.push(Instr::VShr {
                    vd: 0,
                    vs: 0,
                    amount: shift,
                });
                program.push(Instr::VStore {
                    vs: 0,
                    rs1: 0,
                    offset: (out_base + b) as i32,
                });
            }
            program.push(Instr::Halt);
        }
        KernelStyle::Looped => {
            // Register map: r1 input addr, r3 weight addr, r4 block count,
            // r5 out addr, r6 blocks, r7 tap count, r8 taps, r9 weight.
            program.push(Instr::Li { rd: 4, imm: 0 });
            program.push(Instr::Li {
                rd: 6,
                imm: blocks as i32,
            });
            program.push(Instr::Li { rd: 1, imm: 0 });
            program.push(Instr::Li {
                rd: 5,
                imm: out_base as i32,
            });
            let outer = program.push(Instr::VClear { vd: 0 });
            program.push(Instr::Li {
                rd: 3,
                imm: weight_base as i32,
            });
            program.push(Instr::Li { rd: 7, imm: 0 });
            program.push(Instr::Li {
                rd: 8,
                imm: taps as i32,
            });
            let inner = program.push(Instr::LoadScalar {
                rd: 9,
                rs1: 3,
                offset: 0,
            });
            program.push(Instr::VBroadcast { vd: 2, rs: 9 });
            program.push(Instr::VLoad {
                vd: 1,
                rs1: 1,
                offset: 0,
            });
            program.push(Instr::VMac {
                vacc: 0,
                vs1: 1,
                vs2: 2,
            });
            program.push(Instr::Addi {
                rd: 3,
                rs1: 3,
                imm: 1,
            });
            program.push(Instr::Addi {
                rd: 1,
                rs1: 1,
                imm: 1,
            });
            program.push(Instr::Addi {
                rd: 7,
                rs1: 7,
                imm: 1,
            });
            program.push(Instr::Bne {
                rs1: 7,
                rs2: 8,
                target: inner,
            });
            program.push(Instr::VShr {
                vd: 0,
                vs: 0,
                amount: shift,
            });
            program.push(Instr::VStore {
                vs: 0,
                rs1: 5,
                offset: 0,
            });
            program.push(Instr::Addi {
                rd: 5,
                rs1: 5,
                imm: 1,
            });
            program.push(Instr::Addi {
                rd: 4,
                rs1: 4,
                imm: 1,
            });
            program.push(Instr::Bne {
                rs1: 4,
                rs2: 6,
                target: outer,
            });
            program.push(Instr::Halt);
        }
    }

    Ok(CompiledKernel {
        program,
        bank_images,
        out_base,
        blocks,
        shift,
        bits,
        mode,
        sw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_operand_keeps_msbs() {
        assert_eq!(ConvKernel::effective(0x7FFF, 4), 7);
        assert_eq!(ConvKernel::effective(-32768, 4), -8);
        assert_eq!(ConvKernel::effective(0x1234, 16), 0x1234);
        assert_eq!(ConvKernel::effective(-1, 8), -1);
    }

    #[test]
    fn compile_rejects_indivisible_outputs() {
        let k = ConvKernel::random(3, 10, 1);
        assert!(matches!(
            compile(&k, 8, SubwordMode::X1, 16),
            Err(SimdError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn compile_rejects_oversized_precision() {
        let k = ConvKernel::random(3, 64, 1);
        assert!(compile(&k, 8, SubwordMode::X4, 8).is_err());
        assert!(compile(&k, 8, SubwordMode::X4, 4).is_ok());
    }

    #[test]
    fn instruction_count_drops_with_subword_parallelism() {
        let k = ConvKernel::random(9, 256, 2);
        let c1 = compile(&k, 8, SubwordMode::X1, 16).unwrap();
        let c4 = compile(&k, 8, SubwordMode::X4, 4).unwrap();
        // 4x fewer blocks -> ~4x fewer instructions at constant work.
        let ratio = c1.program.len() as f64 / c4.program.len() as f64;
        assert!((ratio - 4.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn memory_image_is_packed_per_mode() {
        let k = ConvKernel::random(4, 64, 3);
        let c = compile(&k, 8, SubwordMode::X2, 8).unwrap();
        assert_eq!(c.bank_images.len(), 8);
        // blocks = 64 / (8*2) = 4; image holds blocks*taps input words.
        assert_eq!(c.blocks, 4);
        assert_eq!(c.bank_images[0].len(), 16);
    }

    #[test]
    fn gemm_reference_is_bit_identical_to_naive_reference() {
        let k = ConvKernel::random(13, 96, 9);
        for bits in [16u32, 12, 8, 4, 1] {
            for shift in [0u32, 7, 20] {
                for store_bits in [16u32, 8] {
                    assert_eq!(
                        k.expected_outputs(bits, shift, store_bits),
                        k.expected_outputs_packed(bits, shift, store_bits),
                        "packed: bits={bits} shift={shift} store={store_bits}"
                    );
                }
            }
        }
    }

    #[test]
    fn expected_outputs_change_with_precision() {
        let k = ConvKernel::random(8, 32, 4);
        let full = k.expected_outputs(16, 10, 16);
        let coarse = k.expected_outputs(4, 0, 16);
        assert_eq!(full.len(), 32);
        assert_ne!(full, coarse);
    }

    #[test]
    fn output_index_is_bijective() {
        let k = ConvKernel::random(2, 64, 5);
        let c = compile(&k, 4, SubwordMode::X4, 4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for b in 0..c.blocks {
            for l in 0..4 {
                for s in 0..4 {
                    assert!(seen.insert(c.output_index(b, l, s)));
                }
            }
        }
        assert_eq!(seen.len(), 64);
        assert_eq!(*seen.iter().max().unwrap(), 63);
    }
}

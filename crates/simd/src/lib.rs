//! # dvafs-simd — a DVAFS-compatible SIMD RISC vector processor
//!
//! Cycle-level simulator of the processor evaluated in Section III-B of the
//! DVAFS paper. The original was generated with a commercial ASIP design
//! tool and synthesized in 40 nm LP; this crate substitutes a hand-written
//! model with the same architectural knobs:
//!
//! * a parametrized SIMD width `SW` (the paper instantiates 8 and 64);
//! * subword-parallel vector lanes (`1x16b`, `2x8b`, `4x4b` DVAFS modes),
//!   each lane hosting the behavioral DVAFS MAC of [`dvafs_arith`];
//! * **three power domains**: banked data memories on a fixed `Vmem` rail,
//!   fetch/decode/control on `Vnas`, vector arithmetic on `Vas`;
//! * per-event energy accounting calibrated to the paper's Table II
//!   operating points, with voltages derived from the calibrated
//!   [`dvafs_tech`] models.
//!
//! The paper's benchmark — a large convolution kernel at constant
//! computational throughput — is generated by [`kernels`] and the
//! mem/nas/as split of Table II and the energy/word curves of Fig. 4 fall
//! out of [`processor::Processor::run`].
//!
//! ## Example
//!
//! ```
//! use dvafs_simd::kernels::ConvKernel;
//! use dvafs_simd::processor::{ProcConfig, Processor};
//! use dvafs_tech::ScalingMode;
//!
//! let config = ProcConfig::new(8, ScalingMode::Dvafs, 4)?;
//! let kernel = ConvKernel::random(9, 64, 42);
//! let report = Processor::new(config).run_kernel(&kernel)?;
//! assert!(report.outputs_match(&kernel));
//! # Ok::<(), dvafs_simd::SimdError>(())
//! ```

#![warn(missing_docs)]

pub mod energy;
pub mod error;
pub mod gemm;
pub mod host;
pub mod isa;
pub mod kernels;
pub mod memory;
pub mod processor;

pub use error::SimdError;
pub use processor::{ProcConfig, Processor, RunReport};

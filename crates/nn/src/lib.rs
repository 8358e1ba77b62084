//! # dvafs-nn — fixed-point CNN substrate
//!
//! Convolutional-network machinery for the Deep Learning side of the DVAFS
//! paper (Sections IV and V): CNN inference on an integer MAC data path
//! with *per-layer* weight/activation precision, the per-layer minimum-bit
//! search behind Fig. 6, and the sparsity statistics that feed Envision's
//! Table III.
//!
//! ## Substitutions
//!
//! The paper evaluates pretrained LeNet-5 / AlexNet / VGG16 on MNIST,
//! ImageNet and LFW. Neither the datasets nor the trained weights are
//! available here, so:
//!
//! * [`dataset`] generates synthetic structured classification sets;
//! * [`models`] builds the papers' topologies with deterministic
//!   pseudo-trained weights (He-scaled, optionally pruned to a target
//!   sparsity);
//! * accuracy is measured **relative to the same network at full
//!   precision** — exactly the paper's "99 % relative accuracy" criterion
//!   (\[22\]), which never references true labels.
//!
//! ## Example
//!
//! ```
//! use dvafs_nn::models;
//! use dvafs_nn::network::QuantConfig;
//! use dvafs_nn::dataset::SyntheticDataset;
//!
//! let net = models::lenet5(7);
//! let data = SyntheticDataset::digits(8, 11);
//! let full = QuantConfig::uniform(net.layer_count(), 16, 16);
//! let coarse = QuantConfig::uniform(net.layer_count(), 4, 4);
//! let agreement = net.relative_accuracy(&data, &coarse, &full);
//! assert!((0.0..=1.0).contains(&agreement));
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod error;
pub mod kernel;
pub mod layers;
pub mod models;
pub mod network;
pub mod precision;
pub mod quant;
pub mod sparsity;
pub mod tensor;

pub use error::NnError;
pub use kernel::{NnKernel, Scratch, DEFAULT_BATCH_SIZE};
pub use network::{Network, QuantConfig};
pub use precision::SearchStrategy;
pub use tensor::Tensor;

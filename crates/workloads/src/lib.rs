//! # loas-workloads — evaluation workloads for the LoAS reproduction
//!
//! The paper evaluates on LTH-pruned, direct-coded SNNs (AlexNet, VGG16,
//! ResNet19 on CIFAR-10; a SpikeTransformer feed-forward layer) whose
//! sparsity statistics are published in Table II. Trained checkpoints are
//! not available offline, and the accelerators under study are
//! data-value-agnostic: cycles, traffic and energy depend only on where the
//! non-zeros are. So this crate *synthesises* workloads whose sparsity
//! structure matches Table II exactly in expectation, in place of the
//! trained networks:
//!
//! * [`SparsityProfile`] — the Table II statistics + a three-category
//!   firing-model calibration that hits origin sparsity, silent density, and
//!   FT-silent density simultaneously;
//! * [`WorkloadGenerator`] / [`LayerWorkload`] — seeded, reproducible
//!   generation of spike tensors and pruned weight matrices;
//! * [`networks`] — the full per-layer shape tables (CIFAR-10 im2col
//!   geometry; the selected layers A-L4 / V-L8 / R-L19 / T-HFF match the
//!   published `(T, M, N, K)` tuples exactly);
//! * [`AnnWorkload`] — the dual-sparse ANN comparison workloads of Fig. 18.
//!
//! # Examples
//!
//! Generate the paper's V-L8 layer:
//!
//! ```
//! use loas_workloads::{networks, WorkloadGenerator};
//!
//! let generator = WorkloadGenerator::default();
//! let v_l8 = &networks::selected_layers()[1];
//! let workload = v_l8.generate(&generator)?;
//! assert_eq!(workload.shape.k, 2304);
//! # Ok::<(), loas_workloads::WorkloadError>(())
//! ```

#![warn(missing_docs)]

mod ann;
mod draw;
mod error;
mod generator;
pub mod networks;
mod shape;
mod sparsity;

pub use ann::{generate_ann, AnnWorkload};
pub use error::WorkloadError;
pub use generator::{LayerWorkload, WorkloadGenerator, DEFAULT_SEED};
pub use shape::LayerShape;
pub use sparsity::{FiringModel, SparsityProfile, TemporalScalingModel};

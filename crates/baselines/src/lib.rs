//! # loas-baselines — prior-accelerator models for the LoAS comparison
//!
//! The paper constructs its baselines by re-targeting three ANN spMspM
//! accelerators to dual-sparse SNNs (multipliers removed, 16 PEs, shared
//! 256 KB SRAM, timesteps processed sequentially with `t` innermost —
//! Section V) and two dense SNN systolic designs (Section VI-B):
//!
//! * [`SparTenSnn`] — inner-product with bitmask inner-join (SparTen);
//! * [`GospaSnn`] — outer-product with psum spill traffic (GoSPA);
//! * [`GammaSnn`] — Gustavson's with FiberCache + merger (Gamma);
//! * [`Ptb`] — partially-temporal-parallel dense systolic array;
//! * [`Stellar`] — fully-temporal-parallel FS-neuron design with spike
//!   skipping but dense weights;
//! * [`run_sparten_ann`] / [`run_gamma_ann`] — the dual-sparse **ANN**
//!   reference points of Fig. 18.
//!
//! All models implement [`loas_core::Accelerator`] over the same
//! [`loas_core::PreparedLayer`] inputs as LoAS, so comparisons are
//! apples-to-apples. Each config implements [`loas_core::ModelConfig`];
//! each model is one variant of `loas_engine::AcceleratorSpec`, which
//! names, builds and hashes it.
//!
//! # Examples
//!
//! ```
//! use loas_baselines::SparTenSnn;
//! use loas_core::{Accelerator, Loas, PreparedLayer};
//! use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};
//!
//! let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2)?;
//! let workload = WorkloadGenerator::default()
//!     .generate("demo", LayerShape::new(4, 16, 32, 256), &profile)?;
//! let prepared = PreparedLayer::new(&workload);
//! let loas = Loas::default().run_layer(&prepared);
//! let sparten = SparTenSnn::default().run_layer(&prepared);
//! assert!(loas.speedup_over(&sparten) > 1.0);
//! # Ok::<(), loas_workloads::WorkloadError>(())
//! ```

#![warn(missing_docs)]

mod ann;
mod common;
mod gamma;
mod gospa;
mod ptb;
mod sparten;
mod stellar;
mod systolic;

pub use ann::{run_gamma_ann, run_sparten_ann, AnnPrepared};
pub use common::{BASELINE_CACHE_BYTES, BASELINE_HBM_GBPS, BASELINE_PES};
pub use gamma::{GammaConfig, GammaConfigBuilder, GammaSnn};
pub use gospa::{GospaConfig, GospaConfigBuilder, GospaSnn};
pub use ptb::{Ptb, PtbConfig, PtbConfigBuilder};
pub use sparten::{SparTenConfig, SparTenConfigBuilder, SparTenSnn};
pub use stellar::{Stellar, StellarConfig, StellarConfigBuilder};
pub use systolic::SystolicArray;

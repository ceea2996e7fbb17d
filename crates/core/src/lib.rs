//! # loas-core — the LoAS accelerator: fully temporal-parallel dataflow for
//! dual-sparse SNNs
//!
//! This crate implements the primary contribution of *"LoAS: Fully
//! Temporal-Parallel Dataflow for Dual-Sparse Spiking Neural Networks"*
//! (MICRO 2024):
//!
//! * [`dataflow`] — the Section III design-space analysis showing that FTP
//!   (the timestep loop placed innermost in inner-product spMspM and
//!   spatially unrolled, Algorithm 1) is the unique placement meeting all
//!   three SNN-friendliness goals;
//! * [`compress`] — FTP-friendly spike compression (Fig. 8): `T`-bit packed
//!   spike words behind a non-silent-neuron bitmask;
//! * [`InnerJoinUnit`] — the FTP-friendly inner-join (Figs. 9-10): one fast
//!   prefix-sum for weight offsets, one cheap *laggy* prefix-sum for spike
//!   offsets, with optimistic pseudo-accumulation and per-timestep
//!   correction;
//! * [`Tppe`] / [`ParallelLif`] / [`Compressor`] — the processing element,
//!   the one-shot parallel LIF unit, and the output compressor (Fig. 7);
//! * [`Loas`] — the end-to-end cycle-level accelerator model (Table III
//!   configuration) reporting cycles, SRAM/DRAM traffic by class, cache
//!   behaviour, and energy;
//! * [`kernel`] — the two-phase layer kernel: a pure, cache-friendly
//!   pair-intersection sweep (parallelizable across row tiles with
//!   deterministic collection) feeding the sequential traffic phase;
//! * [`AreaPowerModel`] — the Table IV / Fig. 15 / Fig. 16(a) area & power
//!   model;
//! * [`PreparedLayer`] / [`Accelerator`] / [`LayerReport`] — the shared
//!   workload and reporting interface all baseline models implement too;
//! * [`Machine`] / [`Roofline`] — the memory system every model runs on:
//!   one off-chip ledger and global cache, and one roofline and energy
//!   roll-up that closes every model's report;
//! * [`catalog`] — typed model configurations: every model's config is a
//!   [`ModelConfig`] whose fields the serve JSON schema lists, overrides
//!   and validates by name. The models themselves are a closed set, one
//!   variant each of `loas_engine::AcceleratorSpec`.
//!
//! # Examples
//!
//! ```
//! use loas_core::{Accelerator, Loas, PreparedLayer};
//! use loas_workloads::{networks, WorkloadGenerator};
//!
//! let generator = WorkloadGenerator::default();
//! let v_l8 = networks::selected_layers()[1].generate(&generator)?;
//! let report = Loas::default().run_layer(&PreparedLayer::new(&v_l8));
//! println!("V-L8 on LoAS: {} cycles", report.stats.cycles.get());
//! # Ok::<(), loas_workloads::WorkloadError>(())
//! ```

#![warn(missing_docs)]

mod accelerator;
mod accumulator;
mod area_power;
pub mod catalog;
pub mod compress;
mod compressor;
mod config;
pub mod dataflow;
mod hash;
mod inner_join;
pub mod kernel;
mod layer_memo;
mod machine;
mod metrics;
mod plif;
mod portable;
mod prepared;
mod tppe;

pub use accelerator::Loas;
pub use accumulator::{Accumulator, AccumulatorBank};
pub use area_power::AreaPowerModel;
pub use catalog::{CatalogError, ConfigField, ConfigValue, ModelConfig};
pub use compressor::{CompressedRow, Compressor};
pub use config::{check_precision, LoasConfig, LoasConfigBuilder};
pub use hash::ContentHasher;
pub use inner_join::{reference_sums, InnerJoinUnit, JoinOutcome, JoinScratch};
pub use layer_memo::{MemoCounts, MemoStats};
pub use machine::{Machine, Roofline};
pub use metrics::{Accelerator, LayerReport, NetworkReport};
pub use plif::{ParallelLif, PlifOutcome};
pub use portable::{PortableError, PORTABLE_FORMAT};
pub use prepared::{row_nnz, PreparedLayer, TrafficSpans};
pub use tppe::{Tppe, TppeOutcome};

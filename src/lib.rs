//! # loas — reproduction of *LoAS: Fully Temporal-Parallel Dataflow for
//! Dual-Sparse Spiking Neural Networks* (MICRO 2024)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sparse`] — bitmasks, packed spike words, fibers, CSR, prefix-sum
//!   circuit models, golden spMspM;
//! * [`snn`] — LIF dynamics, spike tensors, layers/networks (golden
//!   functional models), direct encoding, the fine-tuned preprocessing;
//! * [`sim`] — the cycle-level modeling substrate (HBM, FiberCache, FIFOs,
//!   crossbars, energy/area);
//! * [`workloads`] — Table II sparsity calibration and the
//!   AlexNet/VGG16/ResNet19/SpikeTransformer workload generators;
//! * [`core`] — the paper's contribution: FTP dataflow, FTP-friendly
//!   compression and inner-join, TPPEs, P-LIF, and the `Loas` accelerator
//!   model;
//! * [`baselines`] — SparTen-SNN, GoSPA-SNN, Gamma-SNN, PTB, Stellar, and
//!   the dual-sparse ANN reference designs;
//! * [`engine`] — the deterministic, multi-threaded simulation-campaign
//!   runner (sharded job execution, prepared-layer caching, streaming
//!   reports, result memoization);
//! * [`serve`] — the persistent serving front end: durable on-disk job
//!   queue, content-addressed result memoization, and cross-process shard
//!   execution with byte-exact report merging.
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Examples
//!
//! Simulate the paper's V-L8 layer on LoAS and SparTen-SNN:
//!
//! ```
//! use loas::{Accelerator, Loas, PreparedLayer, SparTenSnn};
//! use loas::workloads::{networks, WorkloadGenerator};
//!
//! let generator = WorkloadGenerator::default();
//! let v_l8 = networks::selected_layers()[1].generate(&generator)?;
//! let prepared = PreparedLayer::new(&v_l8);
//! let loas = Loas::default().run_layer(&prepared);
//! let sparten = SparTenSnn::default().run_layer(&prepared);
//! assert!(loas.speedup_over(&sparten) > 1.0);
//! # Ok::<(), loas::workloads::WorkloadError>(())
//! ```

#![warn(missing_docs)]

pub use loas_baselines as baselines;
pub use loas_core as core;
pub use loas_engine as engine;
pub use loas_serve as serve;
pub use loas_sim as sim;
pub use loas_snn as snn;
pub use loas_sparse as sparse;
pub use loas_workloads as workloads;

pub use loas_baselines::{
    GammaConfig, GammaSnn, GospaConfig, GospaSnn, Ptb, PtbConfig, SparTenConfig, SparTenSnn,
    Stellar, StellarConfig,
};
pub use loas_core::{
    Accelerator, ConfigValue, LayerReport, Loas, LoasConfig, ModelConfig, ModelEntry,
    NetworkReport, PreparedLayer,
};
pub use loas_engine::{AcceleratorSpec, Campaign, CampaignOutcome, Engine, WorkloadSpec};
pub use loas_snn::{LifParams, SnnLayer, SnnNetwork, SpikeTensor};
pub use loas_workloads::{LayerShape, LayerWorkload, SparsityProfile, WorkloadGenerator};

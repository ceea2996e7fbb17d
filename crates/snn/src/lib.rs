//! # loas-snn — the SNN algorithmic substrate of the LoAS reproduction
//!
//! Golden functional models of everything the accelerators compute:
//!
//! * [`LifParams`] — Leaky-Integrate-and-Fire dynamics with hard reset and
//!   power-of-two leak (Eqs. 1-3 of the paper);
//! * [`SpikeTensor`] — the `M×K×T` binary spike tensor with both the
//!   per-timestep and the packed per-neuron views, plus Table II sparsity
//!   statistics;
//! * [`SnnLayer`] / [`SnnNetwork`] — dual-sparse layers (sparse weights +
//!   LIF) and layer-by-layer network inference, the correctness oracle for
//!   all accelerator simulators;
//! * [`DirectEncoder`] — seeded direct-coding front end;
//! * [`preprocess`] — the fine-tuned silent-neuron preprocessing and the
//!   Fig. 11 accuracy-recovery model;
//! * [`SparsityStats`] — Table II accounting.
//!
//! # Examples
//!
//! Run one dual-sparse layer end to end:
//!
//! ```
//! use loas_snn::{LifParams, SnnLayer, SpikeTensor};
//! use loas_sparse::DenseMatrix;
//!
//! let weights = DenseMatrix::from_vec(2, 2, vec![3i8, 0, 0, 2]).unwrap();
//! let layer = SnnLayer::new(weights, LifParams::new(1, 1))?;
//! let mut spikes = SpikeTensor::zeros(1, 2, 4);
//! spikes.set(0, 0, 0, true);
//! let out = layer.forward(&spikes)?;
//! assert!(out.spikes.get(0, 0, 0));
//! # Ok::<(), loas_snn::SnnError>(())
//! ```

#![warn(missing_docs)]

mod encoding;
mod error;
mod layer;
mod lif;
mod network;
pub mod preprocess;
mod stats;
mod tensor;

pub use encoding::DirectEncoder;
pub use error::SnnError;
pub use layer::{LayerOutput, SnnLayer};
pub use lif::LifParams;
pub use network::SnnNetwork;
pub use preprocess::FineTuneAccuracyModel;
pub use stats::SparsityStats;
pub use tensor::SpikeTensor;

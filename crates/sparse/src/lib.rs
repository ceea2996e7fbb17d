//! # loas-sparse — sparse formats and kernels for the LoAS reproduction
//!
//! This crate is the format substrate beneath the LoAS accelerator model
//! (MICRO 2024, "LoAS: Fully Temporal-Parallel Dataflow for Dual-Sparse
//! Spiking Neural Networks"). It provides:
//!
//! * [`Bitmask`] — the 1-bit-per-coordinate compression format shared by
//!   LoAS and SparTen-style inner-join designs;
//! * [`PackedSpikes`] — the FTP-friendly packed spike word (all `T`
//!   timesteps of one pre-synaptic neuron in one word, Fig. 8);
//! * [`Fiber`] / [`SpikeFiber`] / [`WeightFiber`] — compressed fibers
//!   (bitmask + pointer + payload);
//! * [`CsrMatrix`] — the coordinate-list format with explicit coordinate
//!   bit-widths (the costly per-timestep spike format GoSPA-style
//!   baselines pay for);
//! * [`spmspm`] — golden spMspM references in IP/OP/Gustavson loop orders,
//!   the correctness oracle for every accelerator model in the workspace.
//!
//! # Examples
//!
//! Compress one row of packed spikes and look values up by coordinate:
//!
//! ```
//! use loas_sparse::{PackedSpikes, SpikeFiber};
//!
//! let row = vec![
//!     PackedSpikes::from_bits(0b0101, 4)?, // fires at t0, t2
//!     PackedSpikes::silent(4)?,            // silent neuron: dropped
//!     PackedSpikes::from_bits(0b1110, 4)?, // fires at t1, t2, t3
//! ];
//! let fiber = SpikeFiber::from_packed_row(&row);
//! assert_eq!(fiber.nnz(), 2);
//! assert!(fiber.value_at(1).is_none());
//! assert_eq!(fiber.value_at(2).unwrap().fire_count(), 3);
//! # Ok::<(), loas_sparse::SparseError>(())
//! ```

#![warn(missing_docs)]

mod bitmask;
mod csr;
mod error;
mod fiber;
mod matrix;
mod packed;
pub mod spmspm;

pub use bitmask::{chunked_and_counts, Bitmask, ChunkedAndCounts, Ones};
pub use csr::{coordinate_bits, CsrMatrix};
pub use error::SparseError;
pub use fiber::{zero_fraction, Fiber, SpikeFiber, WeightFiber, POINTER_BITS};
pub use matrix::{BitMatrix, DenseMatrix};
pub use packed::{PackedSpikes, MAX_TIMESTEPS};

//! # loas-sim — cycle-level simulation substrate for the LoAS reproduction
//!
//! The paper evaluates LoAS and its baselines with a cycle-level simulator
//! that "tiles the loop and maps it to hardware" (Section V). This crate
//! provides the shared modeling primitives all accelerator models in the
//! workspace are built from:
//!
//! * [`Cycle`] / [`ClockDomain`] — cycle bookkeeping at the 800 MHz design
//!   point;
//! * [`Fifo`] — the depth-bounded FIFOs inside a TPPE;
//! * [`HbmModel`] — off-chip bandwidth roofline + traffic ledger (128 GB/s,
//!   16 channels);
//! * [`SramCache`] — the banked set-associative FiberCache (256 KB, 16-way)
//!   with LRU tags for the Fig. 14 miss-rate comparison;
//! * [`ScratchBuffer`] / [`DoubleBuffer`] — capacity checks and load/compute
//!   overlap;
//! * [`Crossbar`] — the swizzle-switch distribution network;
//! * [`EnergyModel`] — per-event energy rollup seeded from Table IV powers;
//! * [`Component`] / [`ComponentTable`] / [`AffineScaling`] — area/power
//!   accounting for Table IV, Fig. 15, and the Fig. 16(a) T-scaling study;
//! * [`SimStats`] / [`TrafficLedger`] — the record every accelerator model
//!   reports.
//!
//! # Examples
//!
//! ```
//! use loas_sim::{EnergyModel, HbmModel, SimStats, TrafficClass};
//!
//! let mut hbm = HbmModel::loas_default();
//! hbm.read(TrafficClass::Weight, 4096);
//! let mut stats = SimStats::new();
//! stats.dram = hbm.take_ledger();
//! let energy = EnergyModel::default().energy_of(&stats);
//! assert!(energy.dram_pj > 0.0);
//! ```

#![warn(missing_docs)]

mod area;
mod clock;
mod crossbar;
mod energy;
mod fifo;
mod memory;
mod stats;

pub use area::{AffineScaling, Component, ComponentTable};
pub use clock::{ClockDomain, Cycle};
pub use crossbar::Crossbar;
pub use energy::{EnergyBreakdown, EnergyModel, EnergyParams};
pub use fifo::Fifo;
pub use memory::{
    check_cache_geometry, Access, DoubleBuffer, HbmModel, LineSpan, ScratchBuffer, SramCache,
};
pub use stats::{CacheStats, OpCounts, SimStats, TrafficClass, TrafficLedger};

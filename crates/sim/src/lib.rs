//! # loas-sim — cycle-level simulation substrate for the LoAS reproduction
//!
//! The paper evaluates LoAS and its baselines with a cycle-level simulator
//! that "tiles the loop and maps it to hardware" (Section V). This crate
//! provides the modeling primitives the accelerator models in the
//! workspace share:
//!
//! * [`Cycle`] / [`ClockDomain`] — cycle bookkeeping at the 800 MHz design
//!   point;
//! * [`HbmModel`] — off-chip bandwidth for the roofline (128 GB/s);
//! * [`SramCache`] — the banked set-associative FiberCache (256 KB, 16-way)
//!   with LRU tags for the Fig. 14 miss-rate comparison, and the
//!   [`Footprint`] that decides when a replay cannot evict;
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
//! let mut stats = SimStats::new();
//! stats.dram.record(TrafficClass::Weight, 4096);
//! assert_eq!(HbmModel::loas_default().transfer_cycles(4096).get(), 26);
//! let energy = EnergyModel::default().energy_of(&stats);
//! assert!(energy.dram_pj > 0.0);
//! ```

#![warn(missing_docs)]

mod area;
mod clock;
mod crossbar;
mod energy;
mod memory;
mod stats;

pub use area::{AffineScaling, Component, ComponentTable};
pub use clock::{ClockDomain, Cycle};
pub use crossbar::Crossbar;
pub use energy::{
    EnergyBreakdown, EnergyModel, EnergyParams, FAST_PREFIX_POWER_MW, LAGGY_PREFIX_POWER_MW,
};
pub use memory::{
    check_cache_geometry, Access, Footprint, HbmModel, LineSpan, SramCache, MAX_CACHE_LINES,
};
pub use stats::{CacheStats, OpCounts, SimStats, TrafficClass, TrafficLedger};

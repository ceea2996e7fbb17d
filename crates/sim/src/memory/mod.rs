//! Memory hierarchy models: off-chip HBM, on-chip cache, scratchpads.

mod buffer;
mod dram;
mod sram;

pub use buffer::{DoubleBuffer, ScratchBuffer};
pub use dram::HbmModel;
pub use sram::{check_cache_geometry, Access, Footprint, LineSpan, SramCache, MAX_CACHE_LINES};

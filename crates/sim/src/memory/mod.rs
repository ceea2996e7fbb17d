//! Memory hierarchy models: off-chip HBM and the on-chip cache.

mod dram;
mod sram;

pub use dram::HbmModel;
pub use sram::{check_cache_geometry, Access, Footprint, LineSpan, SramCache, MAX_CACHE_LINES};

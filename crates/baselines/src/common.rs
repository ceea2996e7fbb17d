//! The paper's shared baseline parameters (Section V) and roofline.
//!
//! Each baseline declares its config once with
//! [`loas_core::model_config!`]: every field with its doc, type and
//! paper default, from which the struct, `Default`, the builder and the
//! spec schema follow. The defaults name these constants where the paper
//! sets a value for every design.

use loas_core::Roofline;

/// PE count shared by all baselines — the paper configures every design to
/// 16 PEs and the same 256 KB global SRAM for fairness (Section V).
pub const BASELINE_PES: usize = 16;

/// Global SRAM capacity shared by all baselines.
pub const BASELINE_CACHE_BYTES: usize = 256 * 1024;

/// Off-chip bandwidth shared by all baselines (GB/s).
pub const BASELINE_HBM_GBPS: f64 = 128.0;

/// The baselines' roofline: the shared HBM bandwidth, and the
/// 16-bank, 16-byte-port SRAM of the LoAS configuration whatever the cache
/// geometry.
pub(crate) const BASELINE_ROOFLINE: Roofline = Roofline {
    hbm_gbps: BASELINE_HBM_GBPS,
    sram_bytes_per_cycle: 16 * 16,
};

#[cfg(test)]
mod tests {
    use super::*;
    use loas_core::Machine;
    use loas_sim::{SramCache, TrafficClass};

    #[test]
    fn machine_roofline_applies() {
        let mut m = Machine::new(SramCache::loas_default());
        // 160000 bytes at 160 B/cycle = 1000 cycles of DRAM time.
        m.dram.record(TrafficClass::Weight, 160_000);
        let report = m.finish(&BASELINE_ROOFLINE, "w", "a", 10);
        assert_eq!(report.stats.cycles.get(), 1000);
        assert_eq!(report.stats.stall_cycles.get(), 990);
    }

    #[test]
    fn compute_bound_when_traffic_small() {
        let mut m = Machine::new(SramCache::loas_default());
        m.dram.record(TrafficClass::Weight, 16);
        let report = m.finish(&BASELINE_ROOFLINE, "w", "a", 500);
        assert_eq!(report.stats.cycles.get(), 500);
    }
}

//! Shared machinery for baseline accelerator models.

use loas_core::LayerReport;
use loas_sim::{ClockDomain, Cycle, EnergyModel, HbmModel, SimStats, SramCache};

/// PE count shared by all baselines — the paper configures every design to
/// 16 PEs and the same 256 KB global SRAM for fairness (Section V).
pub const BASELINE_PES: usize = 16;

/// Global SRAM capacity shared by all baselines.
pub const BASELINE_CACHE_BYTES: usize = 256 * 1024;

/// Off-chip bandwidth shared by all baselines (GB/s).
pub const BASELINE_HBM_GBPS: f64 = 128.0;

/// Generates a `LoasConfig`-style non-consuming builder for a baseline
/// configuration struct: one setter per listed field, terminated by a
/// `build()` that panics with the config's `check()` message.
macro_rules! config_builder {
    ($config:ident, $builder:ident, { $( $field:ident : $ty:ty ),* $(,)? }) => {
        #[doc = concat!("Builder for [`", stringify!($config), "`] (paper defaults).")]
        #[derive(Debug, Clone)]
        pub struct $builder {
            config: $config,
        }

        impl $builder {
            $(
                #[doc = concat!("Sets `", stringify!($field), "`.")]
                pub fn $field(mut self, value: $ty) -> Self {
                    self.config.$field = value;
                    self
                }
            )*

            /// Finalises the configuration.
            ///
            /// # Panics
            ///
            /// Panics on degenerate values (see the config's field docs).
            pub fn build(self) -> $config {
                if let Err(message) = self.config.check() {
                    panic!("{message}");
                }
                self.config
            }
        }

        impl $config {
            /// A builder starting from the paper defaults.
            pub fn builder() -> $builder {
                $builder {
                    config: $config::default(),
                }
            }
        }
    };
}

pub(crate) use config_builder;

/// A baseline machine: HBM + cache + stats under construction.
#[derive(Debug)]
pub(crate) struct Machine {
    pub hbm: HbmModel,
    pub cache: SramCache,
    pub stats: SimStats,
    energy: EnergyModel,
}

impl Machine {
    /// Creates the standard baseline machine (16 PEs' worth of memory
    /// system: 256 KB cache, 128 GB/s HBM).
    pub fn standard() -> Self {
        Machine::with_cache(BASELINE_CACHE_BYTES, 64, 16, 16)
    }

    /// Creates a baseline machine with explicit shared-cache geometry (the
    /// knob baseline-config sweeps turn); HBM stays at the shared 128 GB/s.
    pub fn with_cache(cache_bytes: usize, line_bytes: usize, ways: usize, banks: usize) -> Self {
        Machine {
            hbm: HbmModel::new(BASELINE_HBM_GBPS, 16, ClockDomain::default()),
            cache: SramCache::new(cache_bytes, line_bytes, ways, banks),
            stats: SimStats::new(),
            energy: EnergyModel::default(),
        }
    }

    /// Finalises a report: applies the bandwidth rooflines
    /// (`max(compute, dram, sram)` — all baselines share the 16-bank,
    /// 16-byte-port SRAM of the LoAS configuration), folds in ledgers, and
    /// rolls up energy.
    pub fn finish(mut self, workload: &str, accelerator: &str, compute_cycles: u64) -> LayerReport {
        let dram_cycles = self.hbm.transfer_cycles(self.hbm.ledger().total()).get();
        self.stats.dram = self.hbm.take_ledger();
        let (sram, cache_stats) = self.cache.take_results();
        self.stats.sram = sram;
        self.stats.cache = cache_stats;
        let sram_cycles = self.stats.sram.total().div_ceil(16 * 16);
        let total = compute_cycles.max(dram_cycles).max(sram_cycles);
        self.stats.cycles = Cycle(total);
        if total > compute_cycles {
            self.stats.stall_cycles += Cycle(total - compute_cycles);
        }
        let energy = self.energy.energy_of(&self.stats);
        LayerReport {
            workload: workload.to_owned(),
            accelerator: accelerator.to_owned(),
            stats: self.stats,
            energy,
            output: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_sim::TrafficClass;

    #[test]
    fn machine_roofline_applies() {
        let mut m = Machine::standard();
        // 160000 bytes at 160 B/cycle = 1000 cycles of DRAM time.
        m.hbm.read(TrafficClass::Weight, 160_000);
        let report = m.finish("w", "a", 10);
        assert_eq!(report.stats.cycles.get(), 1000);
        assert_eq!(report.stats.stall_cycles.get(), 990);
    }

    #[test]
    fn compute_bound_when_traffic_small() {
        let mut m = Machine::standard();
        m.hbm.read(TrafficClass::Weight, 16);
        let report = m.finish("w", "a", 500);
        assert_eq!(report.stats.cycles.get(), 500);
    }
}

//! The memory system every model runs on (Section V): the global cache,
//! HBM and Table IV's energy constants, shared by LoAS and the baselines.
//!
//! A model charges its traffic to a [`Machine`] and folds it into a
//! [`SimStats`]; [`Roofline::report`] closes every model's report the same
//! way. The two stay apart so that a model can keep stats that do not
//! depend on the bandwidth (LoAS memoizes its replay before the roofline)
//! and close them at any bandwidth point.

use crate::metrics::LayerReport;
use loas_sim::{
    ClockDomain, Cycle, EnergyModel, HbmModel, LineSpan, SimStats, SramCache, TrafficClass,
    TrafficLedger,
};
use loas_snn::SpikeTensor;

/// A model's memory system under construction: the off-chip ledger, the
/// global cache and the op counts.
#[derive(Debug)]
pub struct Machine {
    /// Off-chip traffic by class.
    pub dram: TrafficLedger,
    /// The global cache: its tags, hit/miss counters and SRAM traffic.
    pub cache: SramCache,
    /// Op counts and stalls (the ledgers are folded in by
    /// [`Machine::into_stats`]).
    pub stats: SimStats,
}

impl Machine {
    /// A machine with nothing charged yet around `cache`.
    pub fn new(cache: SramCache) -> Self {
        Machine {
            dram: TrafficLedger::new(),
            cache,
            stats: SimStats::new(),
        }
    }

    /// Reads `span` through the cache as `class` and refetches its missed
    /// lines off-chip; returns the misses.
    pub fn fetch(&mut self, span: LineSpan, class: TrafficClass) -> u64 {
        let missed = self.cache.access_span(span, class);
        self.dram
            .record(class, missed * self.cache.line_bytes() as u64);
        missed
    }

    /// The stats with the off-chip ledger and the cache's traffic and
    /// counters folded in (`cycles` still unset).
    pub fn into_stats(mut self) -> SimStats {
        self.stats.dram = self.dram;
        let (sram, cache) = self.cache.take_results();
        self.stats.sram = sram;
        self.stats.cache = cache;
        self.stats
    }

    /// Closes the report on `roofline` (see [`Roofline::report`]).
    pub fn finish(
        self,
        roofline: &Roofline,
        workload: &str,
        accelerator: &str,
        compute: u64,
    ) -> LayerReport {
        roofline.report(workload, accelerator, compute, self.into_stats(), None)
    }
}

/// The bandwidths a report's roofline reads: off-chip HBM and the banked
/// SRAM's aggregate ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Off-chip bandwidth in GB/s.
    pub hbm_gbps: f64,
    /// SRAM bytes per cycle over every bank's port.
    pub sram_bytes_per_cycle: u64,
}

impl Roofline {
    /// Closes a layer's report: compute overlapped with off-chip streaming
    /// and with the SRAM ports, `max(compute, dram, sram)` cycles with the
    /// excess over `compute` counted as stall, then the energy roll-up.
    ///
    /// # Panics
    ///
    /// Panics when the bandwidth is not positive.
    pub fn report(
        &self,
        workload: &str,
        accelerator: &str,
        compute: u64,
        mut stats: SimStats,
        output: Option<SpikeTensor>,
    ) -> LayerReport {
        let hbm = HbmModel::new(self.hbm_gbps, ClockDomain::default());
        let dram_cycles = hbm.transfer_cycles(stats.dram.total()).get();
        let sram_cycles = stats
            .sram
            .total()
            .div_ceil(self.sram_bytes_per_cycle.max(1));
        let total = compute.max(dram_cycles).max(sram_cycles);
        stats.cycles = Cycle(total);
        if total > compute {
            stats.stall_cycles += Cycle(total - compute);
        }
        let energy = EnergyModel::default().energy_of(&stats);
        LayerReport {
            workload: workload.to_owned(),
            accelerator: accelerator.to_owned(),
            stats,
            energy,
            output,
        }
    }
}

//! Per-event energy model.
//!
//! Energy is computed from [`SimStats`] as
//! `E = Σ_traffic bytes · pJ/B + Σ_ops count · pJ/op + Σ_circuits active_cycles · pJ/cycle`.
//! Circuit per-cycle energies derive from the paper's Table IV component
//! powers at the 800 MHz synthesis clock (e.g. the fast prefix-sum circuit:
//! 1.46 mW → 1.825 pJ/cycle). Memory energies use CACTI-ballpark constants
//! for a 32 nm node; all reported results are normalized ratios, exactly as
//! the paper reports them.

use crate::clock::ClockDomain;
use crate::stats::SimStats;

/// Table IV: the fast prefix-sum circuit's power in mW, one TPPE at 800 MHz.
pub const FAST_PREFIX_POWER_MW: f64 = 1.46;

/// Table IV: the laggy prefix-sum circuit's power in mW, one TPPE at 800 MHz.
pub const LAGGY_PREFIX_POWER_MW: f64 = 0.32;

/// Per-event energy constants, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Off-chip DRAM/HBM energy per byte (~3.9 pJ/bit for HBM2).
    pub dram_pj_per_byte: f64,
    /// On-chip SRAM energy per byte (256 KB-class array, 32 nm).
    pub sram_pj_per_byte: f64,
    /// One accumulate (AND + add) — the SNN compute primitive.
    pub accumulate_pj: f64,
    /// One 8-bit multiply-accumulate (ANN baselines).
    pub mac_pj: f64,
    /// Fast prefix-sum circuit, per active cycle (Table IV: 1.46 mW).
    pub fast_prefix_pj_per_cycle: f64,
    /// Laggy prefix-sum circuit, per active cycle (Table IV: 0.32 mW).
    pub laggy_prefix_pj_per_cycle: f64,
    /// One LIF membrane update + threshold compare.
    pub lif_pj: f64,
    /// One merger element operation (OP/Gustavson designs).
    pub merge_pj: f64,
    /// Background (leakage + clock tree) energy per cycle for the whole
    /// accelerator — how slow designs lose efficiency by running longer.
    pub background_pj_per_cycle: f64,
}

impl EnergyParams {
    /// Defaults for the 32 nm / 800 MHz design point of the paper.
    pub fn loas_default() -> Self {
        let clock = ClockDomain::default();
        EnergyParams {
            dram_pj_per_byte: 31.2,
            sram_pj_per_byte: 3.0,
            accumulate_pj: 0.1,
            mac_pj: 0.8,
            fast_prefix_pj_per_cycle: clock.mw_to_pj_per_cycle(FAST_PREFIX_POWER_MW),
            laggy_prefix_pj_per_cycle: clock.mw_to_pj_per_cycle(LAGGY_PREFIX_POWER_MW),
            lif_pj: 0.3,
            merge_pj: 1.2,
            // ~40 mW of leakage + clock for a 188.9 mW design at 800 MHz.
            background_pj_per_cycle: 50.0,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::loas_default()
    }
}

/// Energy rollup by source, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Off-chip traffic energy.
    pub dram_pj: f64,
    /// On-chip SRAM traffic energy.
    pub sram_pj: f64,
    /// Datapath energy (accumulates, MACs, LIF, merges).
    pub compute_pj: f64,
    /// Sparsity-handling energy (prefix-sum circuits).
    pub sparsity_pj: f64,
    /// Background (leakage + clock) energy over the run.
    pub static_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.dram_pj + self.sram_pj + self.compute_pj + self.sparsity_pj + self.static_pj
    }

    /// Total energy in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.total_pj() / 1e6
    }

    /// Fraction of energy spent on data movement (DRAM + SRAM) — the paper
    /// observes ~60% for both SNN and ANN runs (Fig. 18 discussion).
    pub fn data_movement_fraction(&self) -> f64 {
        let total = self.total_pj();
        if total == 0.0 {
            0.0
        } else {
            (self.dram_pj + self.sram_pj) / total
        }
    }
}

/// Computes energy from simulation statistics with the
/// [`EnergyParams::loas_default`] constants.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Rolls up the energy of one simulation record.
    pub fn energy_of(&self, stats: &SimStats) -> EnergyBreakdown {
        let p = self.params;
        EnergyBreakdown {
            dram_pj: stats.dram.total() as f64 * p.dram_pj_per_byte,
            sram_pj: stats.sram.total() as f64 * p.sram_pj_per_byte,
            compute_pj: stats.ops.accumulates as f64 * p.accumulate_pj
                + stats.ops.macs as f64 * p.mac_pj
                + stats.ops.lif_updates as f64 * p.lif_pj
                + stats.ops.merges as f64 * p.merge_pj,
            sparsity_pj: stats.ops.fast_prefix_cycles as f64 * p.fast_prefix_pj_per_cycle
                + stats.ops.laggy_prefix_cycles as f64 * p.laggy_prefix_pj_per_cycle,
            static_pj: stats.cycles.get() as f64 * p.background_pj_per_cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TrafficClass;

    #[test]
    fn defaults_derive_from_table4_powers() {
        let p = EnergyParams::loas_default();
        assert!((p.fast_prefix_pj_per_cycle - 1.825).abs() < 1e-9);
        assert!((p.laggy_prefix_pj_per_cycle - 0.4).abs() < 1e-9);
        assert!(
            p.fast_prefix_pj_per_cycle > 4.0 * p.laggy_prefix_pj_per_cycle,
            "fast prefix-sum must dominate (paper: 51.8% vs 11.4% of TPPE power)"
        );
    }

    #[test]
    fn prefix_energies_are_the_table4_powers() {
        let p = EnergyParams::loas_default();
        let clock = ClockDomain::default();
        assert_eq!(
            p.fast_prefix_pj_per_cycle,
            clock.mw_to_pj_per_cycle(FAST_PREFIX_POWER_MW)
        );
        assert_eq!(
            p.laggy_prefix_pj_per_cycle,
            clock.mw_to_pj_per_cycle(LAGGY_PREFIX_POWER_MW)
        );
    }

    #[test]
    fn energy_rollup() {
        let mut stats = SimStats::new();
        stats.dram.record(TrafficClass::Weight, 1000);
        stats.sram.record(TrafficClass::Input, 1000);
        stats.ops.accumulates = 10;
        stats.ops.fast_prefix_cycles = 4;
        let e = EnergyModel::default().energy_of(&stats);
        let p = EnergyParams::loas_default();
        assert!((e.dram_pj - 1000.0 * p.dram_pj_per_byte).abs() < 1e-9);
        assert!((e.sram_pj - 1000.0 * p.sram_pj_per_byte).abs() < 1e-9);
        assert!((e.compute_pj - 1.0).abs() < 1e-9);
        assert!((e.sparsity_pj - 4.0 * p.fast_prefix_pj_per_cycle).abs() < 1e-9);
        assert!(e.total_pj() > 0.0);
        assert!(
            e.data_movement_fraction() > 0.9,
            "DRAM should dominate here"
        );
    }

    #[test]
    fn dram_byte_costs_more_than_sram_byte() {
        let p = EnergyParams::loas_default();
        assert!(p.dram_pj_per_byte > 5.0 * p.sram_pj_per_byte);
    }

    #[test]
    fn empty_stats_zero_energy() {
        let e = EnergyModel::default().energy_of(&SimStats::new());
        assert_eq!(e.total_pj(), 0.0);
        assert_eq!(e.data_movement_fraction(), 0.0);
    }
}

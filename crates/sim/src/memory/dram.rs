//! Off-chip HBM model.
//!
//! Table III: "128 GB/s over 16 64-bit HBM channels". The model is the
//! bandwidth half of a roofline: accelerator models ledger what crosses
//! the chip boundary in a [`crate::TrafficLedger`], and the execution-time
//! model takes `max(compute, dram_cycles)`.
//!
//! Only the aggregate bandwidth is modelled. The channel count splits it
//! but does not change it, and no per-channel interleaving or conflict is
//! simulated, so a configuration's channel count changes no report.

use crate::clock::{ClockDomain, Cycle};

/// An HBM-style off-chip memory's aggregate bandwidth.
///
/// # Examples
///
/// ```
/// use loas_sim::HbmModel;
///
/// let hbm = HbmModel::loas_default();
/// assert_eq!(hbm.transfer_cycles(1600).get(), 10); // 160 B/cycle
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HbmModel {
    bandwidth_gbps: f64,
    clock: ClockDomain,
}

impl HbmModel {
    /// The paper's configuration: 128 GB/s at the 800 MHz accelerator
    /// clock.
    pub fn loas_default() -> Self {
        HbmModel::new(128.0, ClockDomain::default())
    }

    /// Creates an HBM model with `bandwidth_gbps` aggregate bandwidth.
    ///
    /// # Panics
    ///
    /// Panics when the bandwidth is not positive.
    pub fn new(bandwidth_gbps: f64, clock: ClockDomain) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        HbmModel {
            bandwidth_gbps,
            clock,
        }
    }

    /// Aggregate bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_gbps
    }

    /// Sustained bytes per accelerator cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.clock.bytes_per_cycle(self.bandwidth_gbps)
    }

    /// Cycles to transfer `bytes` at the sustained bandwidth.
    pub fn transfer_cycles(&self, bytes: u64) -> Cycle {
        Cycle((bytes as f64 / self.bytes_per_cycle()).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table3() {
        let hbm = HbmModel::loas_default();
        assert!((hbm.bandwidth_gbps() - 128.0).abs() < 1e-12);
        assert!((hbm.bytes_per_cycle() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_cycles_round_up() {
        let hbm = HbmModel::loas_default();
        assert_eq!(hbm.transfer_cycles(0).get(), 0);
        assert_eq!(hbm.transfer_cycles(1).get(), 1);
        assert_eq!(hbm.transfer_cycles(161).get(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        HbmModel::new(0.0, ClockDomain::default());
    }
}

//! Cycle bookkeeping primitives.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// A cycle count in the accelerator clock domain (800 MHz in the paper's
/// synthesis, Table III).
///
/// # Examples
///
/// ```
/// use loas_sim::Cycle;
///
/// let a = Cycle(10) + Cycle(5);
/// assert_eq!(a.get(), 15);
/// assert_eq!(Cycle(3).max(Cycle(9)), Cycle(9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Zero cycles.
    pub const ZERO: Cycle = Cycle(0);

    /// The raw cycle count.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Saturating subtraction (useful for overlap accounting).
    pub fn saturating_sub(self, other: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(other.0))
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Cycle {
        Cycle(v)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock domain, converting bandwidth to bytes per cycle and power to
/// per-cycle energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    freq_ghz: f64,
}

impl ClockDomain {
    /// The paper's synthesis clock: 800 MHz.
    pub const LOAS_DEFAULT_GHZ: f64 = 0.8;

    /// Creates a clock domain at `freq_ghz` GHz.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not positive.
    pub fn new(freq_ghz: f64) -> Self {
        assert!(freq_ghz > 0.0, "clock frequency must be positive");
        ClockDomain { freq_ghz }
    }

    /// Converts a sustained bandwidth in GB/s into bytes per cycle.
    pub fn bytes_per_cycle(&self, gb_per_s: f64) -> f64 {
        gb_per_s / self.freq_ghz
    }

    /// Converts a component power in mW into pJ consumed per active cycle
    /// (`pJ/cycle = mW / GHz`).
    pub fn mw_to_pj_per_cycle(&self, mw: f64) -> f64 {
        mw / self.freq_ghz
    }
}

impl Default for ClockDomain {
    fn default() -> Self {
        ClockDomain::new(Self::LOAS_DEFAULT_GHZ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let mut c = Cycle(5);
        c += Cycle(7);
        assert_eq!(c, Cycle(12));
        assert_eq!(c.saturating_sub(Cycle(20)), Cycle::ZERO);
        let total: Cycle = [Cycle(1), Cycle(2), Cycle(3)].into_iter().sum();
        assert_eq!(total.get(), 6);
    }

    #[test]
    fn clock_conversions() {
        let clk = ClockDomain::default();
        // 128 GB/s at 800 MHz = 160 B/cycle (Table III HBM).
        assert!((clk.bytes_per_cycle(128.0) - 160.0).abs() < 1e-9);
        // 1.46 mW at 800 MHz = 1.825 pJ/cycle (fast prefix-sum, Table IV).
        assert!((clk.mw_to_pj_per_cycle(1.46) - 1.825).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        ClockDomain::new(0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cycle(7).to_string(), "7 cycles");
    }
}

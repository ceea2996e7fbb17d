//! Area and power model (Table IV, Fig. 15, Fig. 16(a)).
//!
//! Component values are the paper's synthesized numbers (Synopsys DC,
//! 32 nm, 800 MHz; CACTI for memories). The timestep scaling follows the
//! affine model the paper's own Fig. 16(a) percentages imply: only the
//! accumulators and the input data buffer grow with `T`.

use loas_sim::{AffineScaling, Component, ComponentTable};

/// Table IV (right): one TPPE at the calibration point `T = 4`.
pub mod tppe_t4 {
    /// Accumulators (1 pseudo + 4 correction): area in mm².
    pub const ACCUMULATORS_AREA: f64 = 2e-3;
    /// Accumulators: power in mW.
    pub const ACCUMULATORS_POWER: f64 = 0.16;
    /// Fast prefix-sum circuit: area in mm².
    pub const FAST_PREFIX_AREA: f64 = 0.04;
    /// Fast prefix-sum circuit: power in mW.
    pub const FAST_PREFIX_POWER: f64 = loas_sim::FAST_PREFIX_POWER_MW;
    /// Laggy prefix-sum circuit: area in mm².
    pub const LAGGY_PREFIX_AREA: f64 = 5e-3;
    /// Laggy prefix-sum circuit: power in mW.
    pub const LAGGY_PREFIX_POWER: f64 = loas_sim::LAGGY_PREFIX_POWER_MW;
    /// Everything else (FIFOs, buffers, control): area in mm².
    pub const OTHERS_AREA: f64 = 0.01;
    /// Everything else: power in mW.
    pub const OTHERS_POWER: f64 = 0.88;
    /// TPPE total area (Table IV prints the rounded 0.06).
    pub const TOTAL_AREA: f64 =
        ACCUMULATORS_AREA + FAST_PREFIX_AREA + LAGGY_PREFIX_AREA + OTHERS_AREA;
    /// TPPE total power (Table IV prints 2.82).
    pub const TOTAL_POWER: f64 =
        ACCUMULATORS_POWER + FAST_PREFIX_POWER + LAGGY_PREFIX_POWER + OTHERS_POWER;
}

/// Table IV (left): system-level components for the Table III configuration.
pub mod system {
    /// 16 P-LIF units: area in mm².
    pub const PLIFS_AREA: f64 = 0.02;
    /// 16 P-LIF units: power in mW.
    pub const PLIFS_POWER: f64 = 1.2;
    /// 256 KB global cache: area in mm².
    pub const GLOBAL_CACHE_AREA: f64 = 0.80;
    /// 256 KB global cache: power in mW.
    pub const GLOBAL_CACHE_POWER: f64 = 124.5;
    /// Crossbars, scheduler, compressor, misc: area in mm².
    pub const OTHERS_AREA: f64 = 0.30;
    /// Crossbars, scheduler, compressor, misc: power in mW.
    pub const OTHERS_POWER: f64 = 18.1;
}

/// Fig. 16(a) calibration: the T-dependent share of a TPPE at `T = 4`
/// (12.5% of area, 8.4% of power).
const T_SHARE_AREA_AT_4: f64 = 0.125;
const T_SHARE_POWER_AT_4: f64 = 0.084;

/// The LoAS area/power model, parameterised by timestep count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaPowerModel {
    tppes: usize,
    area_scaling: AffineScaling,
    power_scaling: AffineScaling,
}

impl AreaPowerModel {
    /// The Table III instance (16 TPPEs).
    pub fn loas_default() -> Self {
        AreaPowerModel::new(16)
    }

    /// Creates a model for `tppes` TPPEs.
    pub fn new(tppes: usize) -> Self {
        AreaPowerModel {
            tppes,
            area_scaling: AffineScaling::from_share(tppe_t4::TOTAL_AREA, T_SHARE_AREA_AT_4, 4),
            power_scaling: AffineScaling::from_share(tppe_t4::TOTAL_POWER, T_SHARE_POWER_AT_4, 4),
        }
    }

    /// One TPPE's area in mm² at `t` timesteps.
    pub fn tppe_area_mm2(&self, t: usize) -> f64 {
        self.area_scaling.at(t)
    }

    /// One TPPE's power in mW at `t` timesteps.
    pub fn tppe_power_mw(&self, t: usize) -> f64 {
        self.power_scaling.at(t)
    }

    /// The T-dependent share of TPPE area (the yellow region of Fig. 16(a)).
    pub fn tppe_area_t_share(&self, t: usize) -> f64 {
        self.area_scaling.share_at(t)
    }

    /// The T-dependent share of TPPE power.
    pub fn tppe_power_t_share(&self, t: usize) -> f64 {
        self.power_scaling.share_at(t)
    }

    /// The Table IV (right) TPPE component table at `T = 4`.
    pub fn tppe_table(&self) -> ComponentTable {
        [
            Component::new(
                "Accumulators",
                tppe_t4::ACCUMULATORS_AREA,
                tppe_t4::ACCUMULATORS_POWER,
            ),
            Component::new(
                "Fast Prefix",
                tppe_t4::FAST_PREFIX_AREA,
                tppe_t4::FAST_PREFIX_POWER,
            ),
            Component::new(
                "Laggy Prefix",
                tppe_t4::LAGGY_PREFIX_AREA,
                tppe_t4::LAGGY_PREFIX_POWER,
            ),
            Component::new("Others", tppe_t4::OTHERS_AREA, tppe_t4::OTHERS_POWER),
        ]
        .into_iter()
        .collect()
    }

    /// The TPPE table of the two-fast-prefix ablation variant: the laggy
    /// circuit replaced with a second fast circuit (what a SparTen-style
    /// join would cost inside a TPPE — original SparTen uses two, footnote
    /// 10, and the fast circuit dominates area and power).
    pub fn tppe_two_fast_table(&self) -> ComponentTable {
        [
            Component::new(
                "Accumulators",
                tppe_t4::ACCUMULATORS_AREA,
                tppe_t4::ACCUMULATORS_POWER,
            ),
            Component::new(
                "Fast Prefix",
                tppe_t4::FAST_PREFIX_AREA,
                tppe_t4::FAST_PREFIX_POWER,
            ),
            Component::new(
                "Fast Prefix #2",
                tppe_t4::FAST_PREFIX_AREA,
                tppe_t4::FAST_PREFIX_POWER,
            ),
            Component::new("Others", tppe_t4::OTHERS_AREA, tppe_t4::OTHERS_POWER),
        ]
        .into_iter()
        .collect()
    }

    /// The Table IV (left) system component table at `t` timesteps.
    pub fn system_table(&self, t: usize) -> ComponentTable {
        [
            Component::new(
                format!("{} TPPEs", self.tppes),
                self.tppe_area_mm2(t) * self.tppes as f64,
                self.tppe_power_mw(t) * self.tppes as f64,
            ),
            Component::new(
                format!("{} PLIFs", self.tppes),
                system::PLIFS_AREA,
                system::PLIFS_POWER,
            ),
            Component::new(
                "Global cache",
                system::GLOBAL_CACHE_AREA,
                system::GLOBAL_CACHE_POWER,
            ),
            Component::new("Others", system::OTHERS_AREA, system::OTHERS_POWER),
        ]
        .into_iter()
        .map(|c| Component::new(c.name.clone(), c.area_mm2, c.power_mw))
        .collect()
    }
}

impl Default for AreaPowerModel {
    fn default() -> Self {
        AreaPowerModel::loas_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tppe_table_matches_table4() {
        let model = AreaPowerModel::loas_default();
        let table = model.tppe_table();
        assert!((table.total_area_mm2() - 0.057).abs() < 1e-9);
        assert!((table.total_power_mw() - 2.82).abs() < 1e-9);
        // Fig. 15: fast prefix-sum is 51.8% of TPPE power, laggy 11.4%.
        assert!((table.power_share("Fast Prefix").unwrap() - 0.518).abs() < 0.01);
        assert!((table.power_share("Laggy Prefix").unwrap() - 0.114).abs() < 0.01);
        // Fast prefix dominates area at ~2/3 (paper: 66.7%).
        assert!((table.area_share("Fast Prefix").unwrap() - 0.667).abs() < 0.05);
    }

    #[test]
    fn system_table_matches_table4() {
        let model = AreaPowerModel::loas_default();
        let table = model.system_table(4);
        // Totals: 2.08 mm², 188.9 mW (Table IV prints rounded values).
        assert!((table.total_area_mm2() - 2.08).abs() < 0.05);
        assert!((table.total_power_mw() - 188.9).abs() < 1.0);
        // Fig. 15: global cache ~65.9% of system power, TPPEs ~23.9%.
        assert!((table.power_share("Global cache").unwrap() - 0.659).abs() < 0.01);
        assert!((table.power_share("16 TPPEs").unwrap() - 0.239).abs() < 0.01);
    }

    #[test]
    fn fig16a_scaling() {
        let model = AreaPowerModel::loas_default();
        // Shares: 12.5 / 22.2 / 36.3 % area, 8.4 / 15.5 / 26.8 % power.
        assert!((model.tppe_area_t_share(4) - 0.125).abs() < 1e-9);
        assert!((model.tppe_area_t_share(8) - 0.222).abs() < 3e-3);
        assert!((model.tppe_area_t_share(16) - 0.363).abs() < 3e-3);
        assert!((model.tppe_power_t_share(8) - 0.155).abs() < 3e-3);
        assert!((model.tppe_power_t_share(16) - 0.268).abs() < 3e-3);
        // Growth from T=4 to T=16: 1.37x area, 1.25x power.
        assert!((model.tppe_area_mm2(16) / model.tppe_area_mm2(4) - 1.37).abs() < 0.01);
        assert!((model.tppe_power_mw(16) / model.tppe_power_mw(4) - 1.25).abs() < 0.01);
    }
}

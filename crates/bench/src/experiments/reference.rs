//! The paper's published values, kept next to the measured results so every
//! table the harness prints can show `paper vs measured` side by side from
//! one source of truth: each `paper:` note formats its numbers from these
//! constants, and a constant no note or test reads does not belong here.

/// Fig. 5 — partial-sum traffic of sequential timesteps.
pub mod fig05 {
    /// Mean psum-traffic growth at T = 4 over T = 1.
    pub const PSUM_TRAFFIC_T4_OVER_T1: f64 = 4.0;
}

/// Fig. 11 — accuracy of the fine-tuned preprocessing.
pub mod fig11 {
    /// Accuracy points lost to masking (low, high).
    pub const MASK_ACCURACY_DROP: (f64, f64) = (1.5, 2.0);
    /// Fine-tuning epochs to recover the accuracy.
    pub const RECOVERY_EPOCHS: usize = 5;
}

/// Fig. 12 — network-level speedup of LoAS(FT) over the three spMspM
/// baselines, as stated in Section VI-A: averages 6.79x / 5.99x / 3.25x
/// (SparTen / GoSPA / Gamma), range 4.08x (VGG16) to 8.51x (ResNet19) vs
/// SparTen-SNN.
pub mod fig12 {
    /// Mean speedup over SparTen-SNN.
    pub const MEAN_SPEEDUP_VS_SPARTEN: f64 = 6.79;
    /// Mean speedup over GoSPA-SNN.
    pub const MEAN_SPEEDUP_VS_GOSPA: f64 = 5.99;
    /// Mean speedup over Gamma-SNN.
    pub const MEAN_SPEEDUP_VS_GAMMA: f64 = 3.25;
    /// Speedup vs SparTen-SNN on VGG16 (the minimum).
    pub const VGG16_VS_SPARTEN: f64 = 4.08;
    /// Speedup vs SparTen-SNN on ResNet19 (the maximum).
    pub const RESNET19_VS_SPARTEN: f64 = 8.51;
    /// Energy-efficiency gains (AlexNet, VGG16, ResNet19) over
    /// (SparTen-SNN, GoSPA-SNN, Gamma-SNN).
    pub const ENERGY_GAINS: [[f64; 3]; 3] =
        [[3.68, 3.09, 2.40], [3.17, 1.50, 2.33], [3.54, 1.34, 2.47]];
}

/// Fig. 13 — traffic ratios relative to LoAS (Section VI-A "Detailed
/// Analysis"): `(on_chip_sram, off_chip_dram)` per network.
pub mod fig13 {
    /// SparTen-SNN / LoAS traffic on (AlexNet, VGG16, ResNet19).
    pub const SPARTEN_OVER_LOAS: [(f64, f64); 3] = [(3.93, 3.70), (3.57, 2.22), (4.07, 2.24)];
    /// GoSPA-SNN / LoAS traffic.
    pub const GOSPA_OVER_LOAS: [(f64, f64); 3] = [(2.87, 4.49), (2.19, 2.78), (2.98, 3.03)];
    /// Gamma-SNN / LoAS DRAM traffic (SRAM is reported as the 13.4x mean).
    pub const GAMMA_DRAM_OVER_LOAS: [f64; 3] = [2.16, 1.76, 1.91];
    /// Gamma-SNN mean SRAM amplification over LoAS.
    pub const GAMMA_MEAN_SRAM_OVER_LOAS: f64 = 13.4;
}

/// Fig. 14 — SRAM miss-rate ratio (SparTen-SNN vs LoAS on the ResNet19
/// layer) and format-traffic ratio (LoAS vs SparTen-SNN).
pub mod fig14 {
    /// SparTen-SNN's normalized miss rate vs LoAS.
    pub const SPARTEN_MISS_RATE_RATIO: f64 = 16.0;
    /// LoAS's miss rate, the base of that ratio (%).
    pub const LOAS_MISS_RATE_PCT: f64 = 1.47;
    /// LoAS's compressed-format off-chip traffic vs SparTen-SNN.
    pub const LOAS_FORMAT_OVER_SPARTEN: f64 = 2.1;
}

/// Table IV / Fig. 15 — area (mm²) and power (mW) of LoAS.
pub mod table4 {
    /// Total area.
    pub const TOTAL_AREA_MM2: f64 = 2.08;
    /// Total power.
    pub const TOTAL_POWER_MW: f64 = 188.9;
    /// Global-cache share of system power (%).
    pub const CACHE_POWER_PCT: f64 = 65.9;
    /// TPPE share of system power (%).
    pub const TPPE_POWER_PCT: f64 = 23.9;
    /// Fast prefix-sum share of TPPE power (%).
    pub const FAST_PREFIX_POWER_PCT: f64 = 51.8;
    /// Laggy prefix-sum share of TPPE power (%).
    pub const LAGGY_PREFIX_POWER_PCT: f64 = 11.4;
}

/// Fig. 16(a) — TPPE scaling with timesteps.
pub mod fig16 {
    /// T-dependent area shares at T = 4, 8, 16 (%).
    pub const AREA_SHARES_PCT: [f64; 3] = [12.5, 22.2, 36.3];
    /// T-dependent power shares at T = 4, 8, 16 (%).
    pub const POWER_SHARES_PCT: [f64; 3] = [8.4, 15.5, 26.8];
    /// Area growth T=16 over T=4.
    pub const AREA_GROWTH_16_OVER_4: f64 = 1.37;
    /// Power growth T=16 over T=4.
    pub const POWER_GROWTH_16_OVER_4: f64 = 1.25;
}

/// Fig. 17 — scalability statements.
pub mod fig17 {
    /// Performance drop scaling B sparsity from 98.2% to 25% (%).
    pub const LOW_SPARSITY_PERF_DROP_PCT: f64 = 88.0;
    /// Performance loss doubling timesteps, 4 -> 8 (%).
    pub const DOUBLE_T_PERF_LOSS_PCT: f64 = 14.0;
}

/// Fig. 18 — dual-sparse SNN (LoAS) vs dual-sparse ANN.
pub mod fig18 {
    /// Energy-efficiency gain over SparTen-ANN.
    pub const ENERGY_VS_SPARTEN_ANN: f64 = 2.5;
    /// Energy-efficiency gain over Gamma-ANN.
    pub const ENERGY_VS_GAMMA_ANN: f64 = 1.2;
    /// SNN memory-traffic reduction vs SparTen-ANN (%).
    pub const TRAFFIC_REDUCTION_VS_SPARTEN_PCT: f64 = 60.0;
    /// Gamma-ANN SRAM amplification vs LoAS.
    pub const GAMMA_ANN_SRAM_OVER_LOAS: f64 = 3.5;
    /// Data-movement share of energy for both networks (%).
    pub const DATA_MOVEMENT_PCT: f64 = 60.0;
}

/// Fig. 19 — dual-sparse LoAS vs dense SNN accelerators on VGG16.
pub mod fig19 {
    /// Speedup over PTB.
    pub const SPEEDUP_VS_PTB: f64 = 46.9;
    /// Speedup over Stellar.
    pub const SPEEDUP_VS_STELLAR: f64 = 7.1;
    /// Energy gain over PTB.
    pub const ENERGY_VS_PTB: f64 = 6.0;
    /// Energy gain over Stellar.
    pub const ENERGY_VS_STELLAR: f64 = 2.5;
    /// (DRAM, SRAM) reduction vs PTB.
    pub const TRAFFIC_VS_PTB: (f64, f64) = (3.0, 12.5);
    /// (DRAM, SRAM) reduction vs Stellar.
    pub const TRAFFIC_VS_STELLAR: (f64, f64) = (2.7, 6.6);
}

/// Table II — the published workload statistics (percent).
pub mod table2 {
    /// Rows: (name, layers, T, origin, packed, packed+FT, weight).
    pub const ROWS: [(&str, usize, usize, f64, f64, f64, f64); 6] = [
        ("AlexNet", 7, 4, 81.2, 71.3, 76.7, 98.2),
        ("VGG16", 14, 4, 82.3, 74.1, 79.6, 98.2),
        ("ResNet19", 19, 4, 68.6, 59.6, 66.1, 96.8),
        ("A-L4", 1, 4, 75.8, 63.2, 69.7, 98.9),
        ("V-L8", 1, 4, 88.1, 76.5, 86.8, 96.8),
        ("R-L19", 1, 4, 57.9, 51.4, 55.7, 99.1),
    ];
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig12_range_brackets_mean() {
        const {
            assert!(super::fig12::VGG16_VS_SPARTEN < super::fig12::MEAN_SPEEDUP_VS_SPARTEN);
            assert!(super::fig12::RESNET19_VS_SPARTEN > super::fig12::MEAN_SPEEDUP_VS_SPARTEN);
        }
    }

    #[test]
    fn table2_rows_complete() {
        assert_eq!(super::table2::ROWS.len(), 6);
    }
}

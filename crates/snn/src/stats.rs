//! Sparsity accounting in the paper's Table II conventions.

use crate::preprocess;
use crate::tensor::SpikeTensor;
use loas_sparse::{zero_fraction, WeightFiber};

/// The sparsity statistics of one dual-sparse workload, matching Table II's
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparsityStats {
    /// `AvSpA-origin`: fraction of zero entries of `A` across `M·K·T` (%).
    pub spike_origin_pct: f64,
    /// `AvSpA-packed`: fraction of silent neurons across `M·K` (%).
    pub silent_pct: f64,
    /// `AvSpA-packed+FT`: silent fraction after fine-tuned preprocessing (%).
    pub silent_ft_pct: f64,
    /// `AvSpB`: fraction of zero weights (%).
    pub weight_pct: f64,
    /// Mean spikes per non-silent neuron (the sequential-timestep work
    /// amplification factor; not in Table II but central to the analysis).
    pub mean_fires_per_nonsilent: f64,
}

impl SparsityStats {
    /// Measures all statistics from a workload's spike tensor and the
    /// column fibers of its weights.
    pub fn measure(spikes: &SpikeTensor, weights: &[WeightFiber]) -> Self {
        let ft = preprocess::mask_low_activity(spikes, 1);
        SparsityStats {
            spike_origin_pct: spikes.origin_sparsity() * 100.0,
            silent_pct: spikes.packed_sparsity() * 100.0,
            silent_ft_pct: ft.packed_sparsity() * 100.0,
            weight_pct: zero_fraction(weights) * 100.0,
            mean_fires_per_nonsilent: spikes.mean_fires_per_nonsilent(),
        }
    }

    /// Formats the row the way Table II prints it:
    /// `origin  packed(+FT)  weight`.
    pub fn table_row(&self) -> String {
        format!(
            "{:5.1}  {:5.1}({:5.1})  {:5.1}",
            self.spike_origin_pct, self.silent_pct, self.silent_ft_pct, self.weight_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_consistency() {
        let mut a = SpikeTensor::zeros(2, 2, 4);
        a.set(0, 0, 0, true);
        a.set(0, 0, 1, true); // neuron (0,0) fires twice -> survives FT
        a.set(1, 1, 2, true); // neuron (1,1) fires once -> masked by FT
        let w = [
            WeightFiber::from_weights(&[1, 0]),
            WeightFiber::from_weights(&[0, 0]),
        ];
        let s = SparsityStats::measure(&a, &w);
        assert!((s.spike_origin_pct - (1.0 - 3.0 / 16.0) * 100.0).abs() < 1e-9);
        assert!((s.silent_pct - 50.0).abs() < 1e-9);
        assert!((s.silent_ft_pct - 75.0).abs() < 1e-9);
        assert!((s.weight_pct - 75.0).abs() < 1e-9);
        assert!((s.mean_fires_per_nonsilent - 1.5).abs() < 1e-9);
    }

    #[test]
    fn ft_silent_never_below_origin_silent() {
        let mut a = SpikeTensor::zeros(4, 4, 4);
        for i in 0..4 {
            a.set(i, i, 0, true);
        }
        let w = vec![WeightFiber::from_weights(&[0; 4]); 4];
        let s = SparsityStats::measure(&a, &w);
        assert!(s.silent_ft_pct >= s.silent_pct);
    }

    #[test]
    fn table_row_formats() {
        let s = SparsityStats {
            spike_origin_pct: 81.2,
            silent_pct: 71.3,
            silent_ft_pct: 76.7,
            weight_pct: 98.2,
            mean_fires_per_nonsilent: 2.5,
        };
        let row = s.table_row();
        assert!(row.contains("81.2"));
        assert!(row.contains("76.7"));
    }
}

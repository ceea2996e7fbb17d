//! PTB: the partially-temporal-parallel dense systolic baseline (HPCA'22,
//! Sections II-E and VI-B).
//!
//! PTB maps time-windows to systolic-array columns and LIF neurons to rows.
//! For the Fig. 19 comparison the paper sets a 16x4 array producing 16
//! full-sum outputs for 4 timesteps in parallel, running a *dense* SNN
//! workload: no weight sparsity, no spike skipping — every `(m, n)` pair
//! pays the full `K`-deep reduction. PTB targets large-timestep DVS
//! workloads; at `T = 4` (one timestep per column) its utilization is low
//! (Section VII), modeled as [`PtbConfig::utilization`].

use crate::common::{config_builder, Machine};
use crate::systolic::SystolicArray;
use loas_core::{Accelerator, LayerReport, PreparedLayer};
use loas_sim::TrafficClass;

/// Typed configuration of the PTB model. Registered in the accelerator
/// catalog as `"ptb"`; the array geometry is flattened to plain fields so
/// campaign specs can sweep it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtbConfig {
    /// Systolic-array rows — LIF neurons (paper comparison: 16).
    pub array_rows: usize,
    /// Systolic-array columns — time windows (paper comparison: 4).
    pub array_cols: usize,
    /// Effective utilization at small timestep counts (PTB is designed for
    /// `T > 100` DVS streams; at `T = 4` windows underfill the array).
    pub utilization: f64,
    /// Weight precision in bits.
    pub weight_bits: usize,
}

impl Default for PtbConfig {
    fn default() -> Self {
        PtbConfig {
            array_rows: 16,
            array_cols: 4,
            utilization: 0.6,
            weight_bits: 8,
        }
    }
}

impl PtbConfig {
    /// Checks the cross-field invariants (builder panics on violations;
    /// the serve spec parser surfaces them as schema errors).
    ///
    /// # Errors
    ///
    /// A message naming the first degenerate field.
    pub fn check(&self) -> Result<(), String> {
        if self.array_rows == 0 || self.array_cols == 0 {
            return Err("empty systolic array".to_owned());
        }
        let in_range = self.utilization > 0.0 && self.utilization <= 1.0;
        if !in_range {
            return Err("utilization must be in (0, 1]".to_owned());
        }
        loas_core::check_precision(self.weight_bits, None)
    }

    fn validated(self) -> Self {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
        self
    }

    /// The configured array geometry.
    pub fn array(&self) -> SystolicArray {
        SystolicArray::new(self.array_rows, self.array_cols)
    }
}

config_builder!(PtbConfig, PtbConfigBuilder, {
    array_rows: usize,
    array_cols: usize,
    utilization: f64,
    weight_bits: usize,
});

loas_core::impl_model_config!(PtbConfig, "ptb", {
    array_rows: usize,
    array_cols: usize,
    utilization: f64,
    weight_bits: usize,
});

/// The PTB dense baseline model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ptb {
    params: PtbConfig,
}

impl Ptb {
    /// Creates the model with the given configuration.
    pub fn new(params: PtbConfig) -> Self {
        Ptb { params }
    }
}

impl Accelerator for Ptb {
    fn name(&self) -> String {
        "PTB".to_owned()
    }

    fn run_layer(&mut self, layer: &PreparedLayer) -> LayerReport {
        let p = self.params;
        let array = p.array();
        let shape = layer.shape;
        let mut machine = Machine::standard();

        // ---- Off-chip: everything dense.
        machine
            .hbm
            .read_bits(TrafficClass::Input, layer.a_dense_bits());
        machine.hbm.read(
            TrafficClass::Weight,
            (shape.k * shape.n * p.weight_bits / 8) as u64,
        );
        machine
            .hbm
            .write_bits(TrafficClass::Output, (shape.m * shape.n * shape.t) as u64);

        // ---- On-chip: each output-stationary pass streams a K-deep weight
        // tile for `rows` outputs and the spike rows for `cols` timesteps.
        let passes = array.passes((shape.m * shape.n) as u64);
        let weight_stream = passes * (shape.k * array.rows * p.weight_bits / 8) as u64;
        let input_stream = passes * (shape.k * array.cols).div_ceil(8) as u64;
        machine
            .cache
            .read_untagged(TrafficClass::Weight, weight_stream);
        machine
            .cache
            .read_untagged(TrafficClass::Input, input_stream);
        machine.cache.write(
            TrafficClass::Output,
            (shape.m * shape.n * shape.t / 8) as u64,
        );

        // ---- Compute: dense K-deep reduction per output, derated by the
        // small-T utilization penalty.
        let ideal = array.total_cycles((shape.m * shape.n) as u64, shape.k as u64);
        let compute = (ideal.get() as f64 / p.utilization).ceil() as u64;
        machine.stats.ops.accumulates = (shape.m * shape.n * shape.k * shape.t) as u64;
        machine.stats.ops.lif_updates = (shape.m * shape.n * shape.t) as u64;
        machine.finish(&layer.name, &self.name(), compute)
    }
}

/// The accelerator-catalog entry for this model.
pub(crate) fn catalog_entry() -> loas_core::ModelEntry {
    loas_core::ModelEntry::new(
        "ptb",
        "PTB: dense, partially temporal-parallel systolic baseline",
        5,
        || Box::new(PtbConfig::default()),
        |config| {
            let config = config
                .as_any()
                .downcast_ref::<PtbConfig>()
                .expect("ptb entry built with a PtbConfig");
            Box::new(Ptb::new(*config))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_core::Loas;
    use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};

    fn layer() -> PreparedLayer {
        let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
        let w = WorkloadGenerator::default()
            .generate("ptb-test", LayerShape::new(4, 64, 64, 512), &profile)
            .unwrap();
        PreparedLayer::new(&w)
    }

    #[test]
    fn dense_execution_ignores_sparsity() {
        let l = layer();
        let report = Ptb::default().run_layer(&l);
        // Dense accumulate count: M*N*K*T regardless of sparsity.
        assert_eq!(report.stats.ops.accumulates, (64 * 64 * 512 * 4) as u64);
    }

    #[test]
    fn far_slower_than_loas_on_dual_sparse() {
        let l = layer();
        let ptb = Ptb::default().run_layer(&l);
        let loas = Loas::default().run_layer(&l);
        let speedup = loas.speedup_over(&ptb).recip();
        assert!(
            speedup < 1.0 / 10.0,
            "LoAS should be >10x faster on 98% sparse weights (got {:.1}x)",
            1.0 / speedup
        );
    }

    #[test]
    fn dense_weight_traffic() {
        let l = layer();
        let report = Ptb::default().run_layer(&l);
        assert_eq!(
            report.stats.dram.get(TrafficClass::Weight),
            (512 * 64) as u64
        );
    }
}

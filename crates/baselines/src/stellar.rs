//! Stellar: the fully-temporal-parallel dense baseline with FS neurons
//! (HPCA'24, Sections II-E and VI-B).
//!
//! Stellar processes timesteps in parallel like LoAS — but for Few-Spikes
//! (FS) neurons, whose accumulate and fire stages are decoupled, making
//! temporal parallelism trivial. Its spatiotemporal row-stationary dataflow
//! plus spike skipping let it skip *input* zeros (neurons silent across the
//! window), but it has **no weight sparsity support**: every surviving
//! input still meets a dense weight column (Table I).

use crate::common::{config_builder, Machine};
use crate::systolic::SystolicArray;
use loas_core::{Accelerator, LayerReport, PreparedLayer};
use loas_sim::TrafficClass;

/// Typed configuration of the Stellar model. Registered in the
/// accelerator catalog as `"stellar"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StellarConfig {
    /// Systolic-array rows (configured to 16 PEs as in the paper
    /// comparison).
    pub array_rows: usize,
    /// Systolic-array columns.
    pub array_cols: usize,
    /// Weight precision in bits.
    pub weight_bits: usize,
}

impl Default for StellarConfig {
    fn default() -> Self {
        StellarConfig {
            array_rows: 16,
            array_cols: 4,
            weight_bits: 8,
        }
    }
}

impl StellarConfig {
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

config_builder!(StellarConfig, StellarConfigBuilder, {
    array_rows: usize,
    array_cols: usize,
    weight_bits: usize,
});

loas_core::impl_model_config!(StellarConfig, "stellar", {
    array_rows: usize,
    array_cols: usize,
    weight_bits: usize,
});

/// The Stellar dense baseline model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stellar {
    params: StellarConfig,
}

impl Stellar {
    /// Creates the model with the given configuration.
    pub fn new(params: StellarConfig) -> Self {
        Stellar { params }
    }
}

impl Accelerator for Stellar {
    fn name(&self) -> String {
        "Stellar".to_owned()
    }

    fn run_layer(&mut self, layer: &PreparedLayer) -> LayerReport {
        let p = self.params;
        let array = p.array();
        let shape = layer.shape;
        let mut machine = Machine::standard();

        // ---- Off-chip: weights dense; spikes packed across the window
        // (Stellar's FS coding keeps per-neuron temporal words), outputs
        // packed.
        let (a_payload, a_format) = layer.a_compressed_bits();
        machine.hbm.read_bits(TrafficClass::Input, a_payload);
        machine.hbm.read_bits(TrafficClass::Format, a_format);
        machine.hbm.read(
            TrafficClass::Weight,
            (shape.k * shape.n * p.weight_bits / 8) as u64,
        );
        machine
            .hbm
            .write_bits(TrafficClass::Output, (shape.m * shape.n * shape.t) as u64);

        // ---- Compute: spike skipping shortens the reduction depth to the
        // non-silent neuron count of each row; weights stay dense, so every
        // surviving input costs one cycle against the stationary row.
        let mut compute = 0u64;
        let tiles = shape.m.div_ceil(array.rows);
        let mut weight_stream = 0u64;
        for tile in 0..tiles {
            let rows = (tile * array.rows)..((tile + 1) * array.rows).min(shape.m);
            let tile_outputs = (rows.len() * shape.n) as u64;
            let k_eff = rows
                .map(|m| layer.a_fibers[m].nnz() as u64)
                .max()
                .unwrap_or(0);
            // Every 16 outputs of the tile form one pass of depth k_eff
            // (the non-silent neurons; zero spikes are skipped).
            let passes = array.passes(tile_outputs);
            compute += passes * array.pass_cycles(k_eff);
            weight_stream += passes * (k_eff * array.rows as u64 * p.weight_bits as u64) / 8;
            machine.stats.ops.accumulates += tile_outputs * k_eff * shape.t as u64;
        }
        machine
            .cache
            .read_untagged(TrafficClass::Weight, weight_stream);
        machine.cache.read_untagged(
            TrafficClass::Input,
            (layer.a_nnz() * shape.t).div_ceil(8) as u64 * shape.n.div_ceil(array.rows) as u64,
        );
        machine.cache.write(
            TrafficClass::Output,
            (shape.m * shape.n * shape.t / 8) as u64,
        );
        machine.stats.ops.lif_updates = (shape.m * shape.n * shape.t) as u64;
        machine.finish(&layer.name, &self.name(), compute)
    }
}

/// The accelerator-catalog entry for this model.
pub(crate) fn catalog_entry() -> loas_core::ModelEntry {
    loas_core::ModelEntry::new(
        "stellar",
        "Stellar: dense fully temporal-parallel FS-neuron baseline",
        6,
        || Box::new(StellarConfig::default()),
        |config| {
            let config = config
                .as_any()
                .downcast_ref::<StellarConfig>()
                .expect("stellar entry built with a StellarConfig");
            Box::new(Stellar::new(*config))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptb::Ptb;
    use loas_core::Loas;
    use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};

    fn layer() -> PreparedLayer {
        let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
        let w = WorkloadGenerator::default()
            .generate("stellar-test", LayerShape::new(4, 64, 64, 512), &profile)
            .unwrap();
        PreparedLayer::new(&w)
    }

    #[test]
    fn faster_than_ptb_thanks_to_spike_skipping() {
        // Fig. 19: Stellar outperforms PTB across all metrics.
        let l = layer();
        let stellar = Stellar::default().run_layer(&l);
        let ptb = Ptb::default().run_layer(&l);
        assert!(stellar.stats.cycles < ptb.stats.cycles);
    }

    #[test]
    fn slower_than_loas_without_weight_sparsity() {
        // Fig. 19: LoAS keeps ~7x speedup via dual-sparsity.
        let l = layer();
        let stellar = Stellar::default().run_layer(&l);
        let loas = Loas::default().run_layer(&l);
        assert!(
            loas.speedup_over(&stellar) > 2.0,
            "got {:.2}x",
            loas.speedup_over(&stellar)
        );
    }

    #[test]
    fn weights_travel_dense() {
        let l = layer();
        let report = Stellar::default().run_layer(&l);
        assert_eq!(
            report.stats.dram.get(TrafficClass::Weight),
            (512 * 64) as u64
        );
    }
}

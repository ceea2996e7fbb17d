//! GoSPA-SNN: the outer-product (OP) dataflow baseline (Section V).
//!
//! GoSPA (ISCA'21) streams non-zero activations against the matching row of
//! `B`, accumulating rank-1 partial products. The SNN adaptation processes
//! timesteps sequentially with `t` innermost. Its two modeled
//! inefficiencies, per Sections II-D and VI:
//!
//! * **Psum expansion**: the live partial-sum matrix is `M·N·T` — `T` times
//!   larger than the ANN case. What exceeds the on-chip psum scratch spills
//!   to DRAM and is read back for reduction (Fig. 5: ~`T`× more psum
//!   traffic at `T = 4`).
//! * **Per-spike coordinates**: each spike is stored as a CSR coordinate
//!   (`log2(M)` bits per spike per timestep), the largest compressed-format
//!   footprint of all designs (Fig. 14).
//!
//! Every spike at column `k`, in any row and timestep, costs the same
//! stream cycles and products, so the model sums the stream in closed form
//! from the per-column spike counts. This module's tests keep the
//! per-spike loop as the oracle.

use crate::common::BASELINE_ROOFLINE;
use loas_core::{Accelerator, LayerReport, Machine, PreparedLayer};
use loas_sim::{SramCache, TrafficClass};

loas_core::model_config! {
    model = "gospa", builder = GospaConfigBuilder;
    /// Typed configuration of the GoSPA-SNN model (spec name `"gospa"`).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct GospaConfig {
        /// Accumulation lanes fed by one streamed activation per cycle.
        pub lanes: usize = 16,
        /// On-chip psum scratch in bytes (GoSPA allocates a small dedicated
        /// psum memory; the rest of the 256 KB holds inputs).
        pub psum_buffer_bytes: usize = 64 * 1024,
        /// Psum precision in bytes.
        pub psum_bytes: usize = 2,
        /// Weight precision in bits.
        pub weight_bits: usize = 8,
    }
}

impl GospaConfig {
    /// Checks the cross-field invariants (builder panics on violations;
    /// the serve spec parser surfaces them as schema errors).
    ///
    /// # Errors
    ///
    /// A message naming the first degenerate field.
    pub fn check(&self) -> Result<(), String> {
        if self.lanes == 0 {
            return Err("need at least one accumulation lane".to_owned());
        }
        loas_core::check_precision(self.weight_bits, Some(self.psum_bytes))
    }
}

/// The GoSPA-SNN baseline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GospaSnn {
    params: GospaConfig,
}

impl Default for GospaSnn {
    /// Paper parameters.
    fn default() -> Self {
        GospaSnn::new(GospaConfig::default())
    }
}

impl GospaSnn {
    /// Creates the model with the given configuration.
    pub fn new(params: GospaConfig) -> Self {
        GospaSnn { params }
    }

    /// Off-chip psum traffic (bytes) for a given live-psum footprint: what
    /// exceeds the scratch is written out once and merged on the return
    /// stream (read + write counted together as the spill crossing).
    pub fn psum_spill_bytes(&self, live_psum_bytes: u64) -> u64 {
        live_psum_bytes.saturating_sub(self.params.psum_buffer_bytes as u64)
    }

    /// The machine with the off-chip streams charged — `A` in per-timestep
    /// CSR (coordinates only: the costliest format for unary spikes), `B`
    /// in CSR with values, psum spills, outputs dense — and the spill
    /// bytes.
    fn offchip(&self, layer: &PreparedLayer) -> (Machine, u64) {
        let p = self.params;
        let shape = layer.shape;
        let mut machine = Machine::new(SramCache::loas_default());
        let dram = &mut machine.dram;
        let (_, a_format_bits) = layer.a_csr_bits();
        dram.record_bits(TrafficClass::Format, a_format_bits);
        let b_nnz = layer.b_nnz();
        let coord_bits = loas_sparse::coordinate_bits(shape.n);
        dram.record_bits(TrafficClass::Weight, (b_nnz * p.weight_bits) as u64);
        dram.record_bits(TrafficClass::Format, (b_nnz * coord_bits) as u64);
        let live_psum = (shape.m * shape.n * shape.t * p.psum_bytes) as u64;
        let spill = self.psum_spill_bytes(live_psum);
        dram.record(TrafficClass::Psum, spill / 2);
        dram.record(TrafficClass::Psum, spill - spill / 2);
        dram.record_bits(TrafficClass::Output, (shape.m * shape.n * shape.t) as u64);
        (machine, spill)
    }

    /// The report assembly: op counts, the spill's write-port cycles, then
    /// the shared roofline.
    fn finish(
        &self,
        layer: &PreparedLayer,
        mut machine: Machine,
        compute: u64,
        products: u64,
        spill: u64,
    ) -> LayerReport {
        let shape = layer.shape;
        machine.stats.ops.accumulates = products;
        machine.stats.ops.lif_updates = (shape.m * shape.n * shape.t) as u64;
        // Spill transfers also occupy the compute pipeline's write port.
        machine.finish(
            &BASELINE_ROOFLINE,
            &layer.name,
            &self.name(),
            compute + spill / 16,
        )
    }
}

impl Accelerator for GospaSnn {
    fn name(&self) -> String {
        "GoSPA-SNN".to_owned()
    }

    fn run_layer(&mut self, layer: &PreparedLayer) -> LayerReport {
        let p = self.params;
        let shape = layer.shape;
        let (mut machine, spill) = self.offchip(layer);

        // GoSPA streams one non-zero activation per cycle; each occupies the
        // 16 accumulation lanes for `max(1, ⌈nnzB_row(k) / lanes⌉)` cycles
        // and makes `nnzB_row(k)` products, whatever its row and timestep.
        let mut compute = 0u64;
        let mut products = 0u64;
        for (&spikes, &nnz_b) in layer.col_spikes.iter().zip(layer.b_row_nnz.iter()) {
            let (spikes, nnz_b) = (u64::from(spikes), nnz_b as u64);
            compute += spikes * (nnz_b.div_ceil(p.lanes as u64)).max(1);
            products += spikes * nnz_b;
        }
        let coord_bits = loas_sparse::coordinate_bits(shape.n);
        let b_row_bytes = |nnz: usize| ((nnz * (p.weight_bits + coord_bits)).div_ceil(8)) as u64;
        let psum_bytes = (shape.m * shape.n * p.psum_bytes) as u64;
        for plane in layer.workload.spikes.planes() {
            // On-chip: the timestep's CSR stream (coordinates) + B rows
            // (read once per (k, t) on average thanks to k-major order).
            machine.cache.read_untagged(
                TrafficClass::Format,
                (plane.popcount() as u64 * loas_sparse::coordinate_bits(shape.m) as u64)
                    .div_ceil(8),
            );
            machine
                .cache
                .read_untagged(TrafficClass::Weight, b_row_bytes(layer.b_nnz()));
            // B rows walk through the cache tags in k-major order once per
            // timestep: hot after the first pass — the output-stationary
            // dataflow's low miss rate (Fig. 14).
            let mut addr = 0u64;
            for &nnz in layer.b_row_nnz.iter() {
                let bytes = b_row_bytes(nnz);
                if nnz > 0 {
                    machine
                        .cache
                        .access_range(addr, bytes, TrafficClass::Weight);
                }
                addr += bytes;
            }
            // Completed psums cross SRAM once on the way out (+ LIF read).
            machine.cache.write(TrafficClass::Psum, psum_bytes);
            machine.cache.read_untagged(TrafficClass::Psum, psum_bytes);
        }
        self.finish(layer, machine, compute, products, spill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};

    fn layer(t: usize, m: usize) -> PreparedLayer {
        let profile = SparsityProfile::from_percentages(80.0, 70.0, 76.0, 95.0).unwrap();
        let w = WorkloadGenerator::default()
            .generate(
                &format!("gospa-test-{t}-{m}"),
                LayerShape::new(t, m, 32, 128),
                &profile,
            )
            .unwrap();
        PreparedLayer::new(&w)
    }

    #[test]
    fn psum_traffic_grows_with_timesteps() {
        // Fig. 5: T=4 induces ~4x more off-chip psum traffic than T=1.
        let profile = SparsityProfile::from_percentages(80.0, 70.0, 76.0, 95.0).unwrap();
        let generator = WorkloadGenerator::default();
        // Large M*N so psums exceed the scratch at both T values.
        let w1 = generator
            .generate("gospa-t1", LayerShape::new(1, 512, 256, 64), &profile)
            .unwrap();
        let w4 = generator
            .generate("gospa-t4", LayerShape::new(4, 512, 256, 64), &profile)
            .unwrap();
        let r1 = GospaSnn::default().run_layer(&PreparedLayer::new(&w1));
        let r4 = GospaSnn::default().run_layer(&PreparedLayer::new(&w4));
        let psum1 = r1.stats.dram.get(TrafficClass::Psum);
        let psum4 = r4.stats.dram.get(TrafficClass::Psum);
        assert!(psum4 >= 4 * psum1.max(1), "psum {psum1} -> {psum4}");
    }

    #[test]
    fn small_layers_fit_on_chip() {
        let report = GospaSnn::default().run_layer(&layer(1, 16));
        assert_eq!(report.stats.dram.get(TrafficClass::Psum), 0);
    }

    #[test]
    fn format_traffic_dominates_input() {
        // Per-spike CSR coordinates: format is the price GoSPA pays.
        let report = GospaSnn::default().run_layer(&layer(4, 64));
        assert!(
            report.stats.dram.get(TrafficClass::Format)
                > report.stats.dram.get(TrafficClass::Input)
        );
    }

    /// The oracle: the stream walked spike by spike, and the `B` rows by
    /// per-access address arithmetic. It shares only the off-chip
    /// preamble and the report assembly with the model.
    fn reference(model: GospaSnn, layer: &PreparedLayer) -> LayerReport {
        let p = model.params;
        let shape = layer.shape;
        let (mut machine, spill) = model.offchip(layer);
        let coord_bits = loas_sparse::coordinate_bits(shape.n);
        let mut b_row_addr = vec![0u64; shape.k];
        let mut addr = 0u64;
        for (k, slot) in b_row_addr.iter_mut().enumerate() {
            *slot = addr;
            addr += ((layer.b_row_nnz[k] * (p.weight_bits + coord_bits)).div_ceil(8)) as u64;
        }
        let (mut compute, mut products) = (0u64, 0u64);
        for plane in layer.workload.spikes.planes() {
            let mut spikes_t = 0u64;
            for m in 0..shape.m {
                for k in plane.row(m).iter_ones() {
                    let nnz_b = layer.b_row_nnz[k] as u64;
                    compute += (nnz_b.div_ceil(p.lanes as u64)).max(1);
                    products += nnz_b;
                    spikes_t += 1;
                }
            }
            machine.cache.read_untagged(
                TrafficClass::Format,
                (spikes_t * loas_sparse::coordinate_bits(shape.m) as u64).div_ceil(8),
            );
            machine.cache.read_untagged(
                TrafficClass::Weight,
                ((layer.b_nnz() * (p.weight_bits + coord_bits)) as u64).div_ceil(8),
            );
            for (&row_addr, &nnz) in b_row_addr.iter().zip(layer.b_row_nnz.iter()) {
                if nnz > 0 {
                    let bytes = ((nnz * (p.weight_bits + coord_bits)).div_ceil(8)) as u64;
                    machine
                        .cache
                        .access_range(row_addr, bytes, TrafficClass::Weight);
                }
            }
            let psum_bytes = (shape.m * shape.n * p.psum_bytes) as u64;
            machine.cache.write(TrafficClass::Psum, psum_bytes);
            machine.cache.read_untagged(TrafficClass::Psum, psum_bytes);
        }
        model.finish(layer, machine, compute, products, spill)
    }

    /// The closed-form stream sums against the per-spike oracle, on
    /// layers with and without psum spills, a fine-tuned layer, and lane
    /// counts that do and do not divide the `B` rows.
    #[test]
    fn span_and_reference_walks_are_byte_identical() {
        let spilling = layer(4, 512);
        for l in [layer(4, 64), layer(1, 16), spilling.fine_tuned(), spilling] {
            for lanes in [1, 3, 16] {
                let mut model = GospaSnn::new(GospaConfig::builder().lanes(lanes).build());
                assert_eq!(
                    model.run_layer(&l).to_portable(),
                    reference(model, &l).to_portable(),
                    "{} at {lanes} lanes",
                    l.name
                );
            }
        }
    }

    #[test]
    fn spill_helper_saturates() {
        let g = GospaSnn::default();
        assert_eq!(g.psum_spill_bytes(0), 0);
        assert_eq!(g.psum_spill_bytes(64 * 1024), 0);
        assert_eq!(g.psum_spill_bytes(64 * 1024 + 100), 100);
    }
}

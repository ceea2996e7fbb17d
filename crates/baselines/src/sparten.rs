//! SparTen-SNN: the inner-product (IP) dataflow baseline (Section V).
//!
//! SparTen (MICRO'19) is an inner-join spMspM accelerator. The paper's
//! SparTen-SNN baseline removes the multipliers, keeps 16 PEs and the shared
//! 256 KB SRAM, and — conservatively — places the timestep loop innermost
//! but processes it **sequentially**: for every output pair `(m, n)` the
//! inner-join runs once per timestep against that timestep's spike train.
//!
//! Modeling notes (Section II-D):
//! * The spike train itself is the bitmask *and* the data, so only one fast
//!   prefix-sum circuit is needed (footnote 10) — but every spike bit, 0 or
//!   1, must be fetched from DRAM: `A` travels dense (`M·K·T` bits).
//! * The expensive inner-join runs `T` extra rounds per output (Fig. 4),
//!   re-scanning `bm-B` each round and re-fetching each matched weight per
//!   timestep (no temporal reuse of matched pairs).
//! * Between timestep rounds the join pipeline drains and restarts
//!   ([`SparTenConfig::timestep_restart_cycles`]).
//!
//! # Aggregated sweep (simulator performance)
//!
//! The per-`(row, column, timestep)` AND-popcount sweep only enters the
//! report through sums that are linear in the per-timestep match counts,
//! so the model replaces the whole `O(M·N·T·K/64)` sweep with the `O(nnz)`
//! identity `Σ_{n,t} |A_t[m] ∧ B[n]| = Σ_k fires(m, k) · rowNNZ_B(k)`
//! folded per tile. The identity needs byte-aligned weights
//! (`weight_bits % 8 == 0`, true for the paper configuration) so that
//! per-access byte rounding stays exact under aggregation; other widths
//! run the scalar per-`(pair, timestep)` loop. Both share the tag walk of
//! the `bm-B` rounds, and this module's tests check them against each
//! other on byte-aligned weights.

use crate::common::{config_builder, Machine, BASELINE_CACHE_BYTES, BASELINE_PES};
use loas_core::{Accelerator, LayerReport, PreparedLayer};
use loas_sim::TrafficClass;
use loas_sparse::POINTER_BITS;

/// Typed configuration of the SparTen-SNN model (the paper's Section V
/// parameters by default). Registered in the accelerator catalog as
/// `"sparten"`, so every field is sweepable through campaign specs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparTenConfig {
    /// Processing elements (paper: 16).
    pub pes: usize,
    /// Inner-join chunk width in bits (SparTen uses 128-bit bitmask words).
    pub chunk_bits: usize,
    /// Pipeline drain/refill cycles between sequential timestep rounds of
    /// the same output pair.
    pub timestep_restart_cycles: u64,
    /// Weight precision in bits.
    pub weight_bits: usize,
    /// Shared SRAM capacity in bytes (paper: 256 KB).
    pub cache_bytes: usize,
    /// Shared SRAM line size in bytes.
    pub cache_line_bytes: usize,
    /// Shared SRAM associativity.
    pub cache_ways: usize,
    /// Shared SRAM banks.
    pub cache_banks: usize,
}

impl Default for SparTenConfig {
    fn default() -> Self {
        SparTenConfig {
            pes: BASELINE_PES,
            chunk_bits: 128,
            timestep_restart_cycles: 8,
            weight_bits: 8,
            cache_bytes: BASELINE_CACHE_BYTES,
            cache_line_bytes: 64,
            cache_ways: 16,
            cache_banks: 16,
        }
    }
}

impl SparTenConfig {
    /// Checks the cross-field invariants (builder panics on violations;
    /// the serve spec parser surfaces them as schema errors).
    ///
    /// # Errors
    ///
    /// A message naming the first degenerate field.
    pub fn check(&self) -> Result<(), String> {
        if self.pes == 0 {
            return Err("need at least one PE".to_owned());
        }
        if self.chunk_bits == 0 {
            return Err("degenerate chunk width".to_owned());
        }
        loas_core::check_precision(self.weight_bits, None)?;
        loas_sim::check_cache_geometry(
            self.cache_bytes,
            self.cache_line_bytes,
            self.cache_ways,
            self.cache_banks,
        )
    }

    fn validated(self) -> Self {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
        self
    }
}

config_builder!(SparTenConfig, SparTenConfigBuilder, {
    pes: usize,
    chunk_bits: usize,
    timestep_restart_cycles: u64,
    weight_bits: usize,
    cache_bytes: usize,
    cache_line_bytes: usize,
    cache_ways: usize,
    cache_banks: usize,
});

loas_core::impl_model_config!(SparTenConfig, "sparten", {
    pes: usize,
    chunk_bits: usize,
    timestep_restart_cycles: u64,
    weight_bits: usize,
    cache_bytes: usize,
    cache_line_bytes: usize,
    cache_ways: usize,
    cache_banks: usize,
});

/// The SparTen-SNN baseline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparTenSnn {
    params: SparTenConfig,
}

impl Default for SparTenSnn {
    /// Paper parameters.
    fn default() -> Self {
        SparTenSnn::new(SparTenConfig::default())
    }
}

impl SparTenSnn {
    /// Creates the model with the given configuration.
    pub fn new(params: SparTenConfig) -> Self {
        SparTenSnn { params }
    }

    /// Whether the aggregated sweep is exact for these parameters
    /// (per-timestep weight-byte rounding must be linear).
    fn kernel_path(&self) -> bool {
        self.params.weight_bits.is_multiple_of(8)
    }

    /// Simulates `layer`, with the aggregated sweep when `aggregated` and
    /// the scalar per-`(pair, timestep)` loop otherwise.
    fn simulate(&self, layer: &PreparedLayer, aggregated: bool) -> LayerReport {
        let p = self.params;
        let shape = layer.shape;
        let mut machine = Machine::with_cache(
            p.cache_bytes,
            p.cache_line_bytes,
            p.cache_ways,
            p.cache_banks,
        );
        let chunks = (shape.k.div_ceil(p.chunk_bits)).max(1) as u64;

        // ---- Off-chip: A travels dense (no compression possible on raw
        // spike trains used as bitmask+data) and is charged through the
        // cache tags, as are the B bitmask fibers — so the T x re-scan of
        // bm-B spills to DRAM whenever B exceeds the shared 256 KB cache
        // (Section II-D: "the timesteps will impose multiple extra
        // rounds"). Matched weight values stream once (compulsory); outputs
        // are dense spike trains.
        let (b_payload, _) = layer.b_compressed_bits(p.weight_bits);
        machine.hbm.read_bits(TrafficClass::Weight, b_payload);
        machine
            .hbm
            .write_bits(TrafficClass::Output, (shape.m * shape.n * shape.t) as u64);
        let line = machine.cache.line_bytes() as u64;

        // Address map for cache tags: A planes then B fibers.
        let a_plane_bytes = (shape.m * shape.k).div_ceil(8) as u64;
        let b_base = a_plane_bytes * shape.t as u64;
        let mut b_addr = Vec::with_capacity(shape.n);
        let mut addr = b_base;
        for fiber in layer.b_fibers.iter() {
            b_addr.push(addr);
            addr += fiber.storage_bits(p.weight_bits).div_ceil(8) as u64;
        }

        let mut compute = 0u64;
        let planes = layer.workload.spikes.planes();
        let row_bytes = shape.k.div_ceil(8) as u64;
        let b_bm_bytes = (shape.k + POINTER_BITS).div_ceil(8) as u64;

        let mut tile_start = 0usize;
        while tile_start < shape.m {
            let tile_end = (tile_start + p.pes).min(shape.m);
            let rows = tile_start..tile_end;
            // Each PE holds its row's spike trains (per timestep) while the
            // column loop sweeps: one SRAM pass per (row, t) per layer.
            for m in rows.clone() {
                for t in 0..shape.t {
                    let missed = machine.cache.access_range(
                        a_plane_bytes * t as u64 + (m as u64) * row_bytes,
                        row_bytes,
                        TrafficClass::Input,
                    );
                    machine.hbm.read(TrafficClass::Input, missed * line);
                }
            }
            // bm-B is re-broadcast once per timestep round (the join unit
            // scans it anew each round); rounds that fall out of the cache
            // refetch from DRAM.
            for &addr in &b_addr {
                for _ in 0..shape.t {
                    let missed = machine
                        .cache
                        .access_range(addr, b_bm_bytes, TrafficClass::Format);
                    machine.hbm.read(TrafficClass::Format, missed * line);
                }
            }
            // SparTen assigns (row-chunk, column-chunk) pairs to PEs
            // greedily, so unlike LoAS it keeps all 16 PEs busy even when
            // the tile has fewer than 16 rows: account work at pair
            // granularity divided across PEs.
            let mut tile_work = 0u64;
            if aggregated {
                // The tile's total per-timestep match count in
                // O(nnz_tile) — every fired (m, k, t) bit meets
                // rowNNZ_B(k) columns. The per-(pair, timestep) weight
                // fetches and op counts are commutative sums, folded per
                // tile.
                let fired_tile: u64 = rows
                    .clone()
                    .flat_map(|m| layer.a_fibers[m].iter())
                    .map(|(k, word)| word.fire_count() as u64 * layer.b_row_nnz[k] as u64)
                    .sum();
                let rounds = (rows.len() * shape.n * shape.t) as u64;
                tile_work += rounds * (chunks + p.timestep_restart_cycles + 1) + fired_tile;
                machine.cache.read_untagged(
                    TrafficClass::Weight,
                    fired_tile * (p.weight_bits / 8) as u64,
                );
                machine.stats.ops.accumulates += fired_tile;
                machine.stats.ops.fast_prefix_cycles += rounds * chunks + fired_tile;
                machine.stats.ops.lif_updates += rounds;
            } else {
                for fiber_b in layer.b_fibers.iter() {
                    for m in rows.clone() {
                        for plane in planes {
                            let matches_t =
                                plane.row(m).and_count(fiber_b.bitmask()).expect("equal K") as u64;
                            tile_work += chunks + matches_t + p.timestep_restart_cycles + 1; // LIF step

                            // Matched weights fetched per timestep round: no
                            // temporal reuse (Fig. 4's inefficiency).
                            machine.cache.read_untagged(
                                TrafficClass::Weight,
                                (matches_t * p.weight_bits as u64).div_ceil(8),
                            );
                            machine.stats.ops.accumulates += matches_t;
                            machine.stats.ops.fast_prefix_cycles += chunks + matches_t;
                            machine.stats.ops.lif_updates += 1;
                        }
                    }
                }
            }
            compute += tile_work.div_ceil(p.pes as u64);
            // Dense output spike trains written per tile.
            for _m in rows {
                machine
                    .cache
                    .write(TrafficClass::Output, (shape.n * shape.t).div_ceil(8) as u64);
            }
            tile_start = tile_end;
        }
        machine.finish(&layer.name, &self.name(), compute)
    }
}

impl Accelerator for SparTenSnn {
    fn name(&self) -> String {
        "SparTen-SNN".to_owned()
    }

    fn run_layer(&mut self, layer: &PreparedLayer) -> LayerReport {
        self.simulate(layer, self.kernel_path())
    }
}

/// The accelerator-catalog entry for this model.
pub(crate) fn catalog_entry() -> loas_core::ModelEntry {
    loas_core::ModelEntry::new(
        "sparten",
        "SparTen-SNN: inner-product (IP) spMspM baseline with bitmask inner-join",
        1,
        || Box::new(SparTenConfig::default()),
        |config| {
            let config = config
                .as_any()
                .downcast_ref::<SparTenConfig>()
                .expect("sparten entry built with a SparTenConfig");
            Box::new(SparTenSnn::new(*config))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_core::Loas;
    use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};

    fn layer() -> PreparedLayer {
        let profile = SparsityProfile::from_percentages(80.0, 70.0, 76.0, 95.0).unwrap();
        let w = WorkloadGenerator::default()
            .generate("sparten-test", LayerShape::new(4, 32, 16, 256), &profile)
            .unwrap();
        PreparedLayer::new(&w)
    }

    #[test]
    fn slower_than_loas_on_dual_sparse_workloads() {
        let l = layer();
        let sparten = SparTenSnn::default().run_layer(&l);
        let loas = Loas::default().run_layer(&l);
        assert!(
            sparten.stats.cycles > loas.stats.cycles,
            "sequential timesteps must cost more: sparten {} vs loas {}",
            sparten.stats.cycles.get(),
            loas.stats.cycles.get()
        );
    }

    #[test]
    fn fetches_dense_input_spikes() {
        // A is charged at cache-line granularity through the tags: the
        // total must be the dense footprint within line-rounding effects.
        let l = layer();
        let report = SparTenSnn::default().run_layer(&l);
        let dense_bytes = l.a_dense_bits().div_ceil(8);
        let input = report.stats.dram.get(TrafficClass::Input);
        assert!(
            input >= dense_bytes / 2 && input <= dense_bytes * 2,
            "input {input} vs dense {dense_bytes}"
        );
    }

    #[test]
    fn accumulates_scale_with_timesteps() {
        // Sequential timesteps re-run the join: total accumulates equal the
        // per-timestep match sum, which exceeds LoAS's packed matches.
        let l = layer();
        let sparten = SparTenSnn::default().run_layer(&l);
        let loas = Loas::default().run_layer(&l);
        assert!(sparten.stats.ops.fast_prefix_cycles > loas.stats.ops.fast_prefix_cycles);
    }

    #[test]
    fn kernel_and_reference_sweeps_are_byte_identical() {
        // The O(nnz) aggregated sweep must reproduce the scalar
        // per-(pair, timestep) loop bit for bit.
        let l = layer();
        let mut model = SparTenSnn::default();
        assert_eq!(
            model.run_layer(&l).to_portable(),
            model.simulate(&l, false).to_portable()
        );
    }

    #[test]
    fn odd_weight_widths_fall_back_to_the_scalar_sweep() {
        let model = SparTenSnn::new(SparTenConfig {
            weight_bits: 6,
            ..SparTenConfig::default()
        });
        assert!(!model.kernel_path(), "6-bit weights round per access");
        assert!(SparTenSnn::default().kernel_path());
    }

    #[test]
    fn sram_traffic_exceeds_loas() {
        // The T x re-broadcast of bm-B (Fig. 4) shows up as on-chip traffic.
        let l = layer();
        let sparten = SparTenSnn::default().run_layer(&l);
        let loas = Loas::default().run_layer(&l);
        assert!(sparten.stats.sram.total() > 2 * loas.stats.sram.total());
    }
}

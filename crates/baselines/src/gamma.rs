//! Gamma-SNN: the Gustavson's dataflow baseline (Section V).
//!
//! Gamma (ASPLOS'21) processes one row of `A` at a time: every non-zero
//! `A[m, k]` fetches row `k` of `B` from the FiberCache and a hardware
//! merger folds the scaled rows into the output row, emitting one merged
//! element per cycle. The SNN adaptation runs timesteps sequentially, so:
//!
//! * every `B`-row fetch repeats per timestep → the `t` dimension multiplies
//!   FiberCache (SRAM) traffic (~13× LoAS in Fig. 13/14);
//! * partial output rows stay on chip through the merger, keeping off-chip
//!   traffic the lowest of the baselines, but the inflated partial-row
//!   working set raises the cache miss rate (Fig. 14 discussion).
//!
//! # Two-phase execution (simulator performance)
//!
//! The per-`(m, t, k)` FiberCache walk was the slowest model in the
//! workspace: every fired bit re-probed its `B` row line by line through
//! the tag model. The [`loas_core::SweepStrategy::Kernel`] path
//! (default) is cache-model-aware instead: per-`B`-row [`LineSpan`]s are
//! precomputed once per layer, the repeated same-row fetches go through
//! the batched span API, and every row carries a
//! [`SpanResidency`] token so a row that provably stayed resident since
//! its last fetch (no evictions in its sets — the common case, since the
//! paper sizes the FiberCache to keep `B` hot) takes the all-hits fast
//! path with no tag compares at all. The pre-span per-line walk survives
//! as [`loas_core::SweepStrategy::Reference`]; both produce
//! byte-identical reports (asserted in tests and ci.sh).

use crate::common::{config_builder, Machine, BASELINE_CACHE_BYTES, BASELINE_PES};
use loas_core::{Accelerator, LayerReport, PreparedLayer, SweepStrategy};
use loas_sim::{LineSpan, SpanResidency, TrafficClass};

/// Typed configuration of the Gamma-SNN model. Registered in the
/// accelerator catalog as `"gamma"`; the FiberCache geometry fields are
/// the knobs the Gamma cache-size campaign sweep turns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaConfig {
    /// Row-processing PEs (paper: 16).
    pub pes: usize,
    /// Merged elements emitted per cycle per PE (Gamma's merger: 1).
    pub merge_rate: u64,
    /// Merger radix: a row touching more than `radix` fibers needs extra
    /// merge rounds through partial rows (Gamma's 64-way merger).
    pub merge_radix: usize,
    /// Weight precision in bits.
    pub weight_bits: usize,
    /// Psum precision in bytes (for partial output rows).
    pub psum_bytes: usize,
    /// FiberCache capacity in bytes (paper: the shared 256 KB).
    pub cache_bytes: usize,
    /// FiberCache line size in bytes.
    pub cache_line_bytes: usize,
    /// FiberCache associativity.
    pub cache_ways: usize,
    /// FiberCache banks.
    pub cache_banks: usize,
}

impl Default for GammaConfig {
    fn default() -> Self {
        GammaConfig {
            pes: BASELINE_PES,
            merge_rate: 1,
            merge_radix: 64,
            weight_bits: 8,
            psum_bytes: 2,
            cache_bytes: BASELINE_CACHE_BYTES,
            cache_line_bytes: 64,
            cache_ways: 16,
            cache_banks: 16,
        }
    }
}

impl GammaConfig {
    /// The FiberCache capacities the workspace's built-in cache sweep
    /// visits — shared by the bench `sweeps` table and the served
    /// `loas-serve spec --gamma-cache` campaign, so the two can never
    /// drift apart.
    pub const CACHE_SWEEP_POINTS: [usize; 4] = [64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024];

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
        if self.merge_rate == 0 {
            return Err("merger must emit at least one element per cycle".to_owned());
        }
        if self.merge_radix <= 1 {
            return Err("radix-1 mergers never converge".to_owned());
        }
        if self.psum_bytes == 0 {
            return Err("degenerate psum precision".to_owned());
        }
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

config_builder!(GammaConfig, GammaConfigBuilder, {
    pes: usize,
    merge_rate: u64,
    merge_radix: usize,
    weight_bits: usize,
    psum_bytes: usize,
    cache_bytes: usize,
    cache_line_bytes: usize,
    cache_ways: usize,
    cache_banks: usize,
});

loas_core::impl_model_config!(GammaConfig, "gamma", {
    pes: usize,
    merge_rate: u64,
    merge_radix: usize,
    weight_bits: usize,
    psum_bytes: usize,
    cache_bytes: usize,
    cache_line_bytes: usize,
    cache_ways: usize,
    cache_banks: usize,
});

impl GammaConfig {
    /// Merge rounds needed for `fibers` input fibers: `ceil(log_radix)`,
    /// minimum one.
    pub fn merge_rounds(&self, fibers: usize) -> u64 {
        let mut rounds = 1u64;
        let mut reach = self.merge_radix;
        while reach < fibers {
            rounds += 1;
            reach = reach.saturating_mul(self.merge_radix);
        }
        rounds
    }
}

/// The Gamma-SNN baseline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaSnn {
    params: GammaConfig,
    sweep: SweepStrategy,
}

impl Default for GammaSnn {
    /// Paper parameters, sweep strategy from the `LOAS_SWEEP` environment.
    fn default() -> Self {
        GammaSnn::new(GammaConfig::default())
    }
}

impl GammaSnn {
    /// Creates the model with the given configuration.
    pub fn new(params: GammaConfig) -> Self {
        GammaSnn {
            params,
            sweep: SweepStrategy::from_env(),
        }
    }

    /// Selects the traffic-path strategy explicitly (overriding the
    /// `LOAS_SWEEP` environment default).
    pub fn with_sweep(mut self, sweep: SweepStrategy) -> Self {
        self.sweep = sweep;
        self
    }
}

impl Accelerator for GammaSnn {
    fn name(&self) -> String {
        "Gamma-SNN".to_owned()
    }

    fn run_layer(&mut self, layer: &PreparedLayer) -> LayerReport {
        let p = self.params;
        let shape = layer.shape;
        let mut machine = Machine::with_cache(
            p.cache_bytes,
            p.cache_line_bytes,
            p.cache_ways,
            p.cache_banks,
        );
        let coord_bits = loas_sparse::coordinate_bits(shape.n);

        // ---- Off-chip: A as per-timestep spike-train row fibers (the raw
        // train doubles as the coordinate mask, like SparTen — coordinate
        // CSR would *exceed* dense at SNN densities); B fibers once (the
        // FiberCache keeps them resident); output rows leave compressed
        // after the merger; partial rows merge on chip (no psum DRAM
        // traffic — Gust's strength).
        machine.hbm.read_bits(
            TrafficClass::Input,
            (shape.m * shape.t * (shape.k + loas_sparse::POINTER_BITS)) as u64,
        );
        // B rows arrive as bitmask fibers (the shared weight format of this
        // substrate): N-bit row mask + pointer per row, read once into the
        // FiberCache.
        machine.hbm.read_bits(
            TrafficClass::Format,
            (shape.k * (shape.n + loas_sparse::POINTER_BITS)) as u64,
        );
        let line = machine.cache.line_bytes() as u64;
        // Gamma has no output-side spike compressor (that is a LoAS
        // contribution): output spike trains leave dense.
        machine
            .hbm
            .write_bits(TrafficClass::Output, (shape.m * shape.n * shape.t) as u64);

        // Address map: B rows live in the FiberCache; partial output rows
        // contend with them for capacity (the Fig. 14 miss-rate effect).
        let mut b_row_addr = vec![0u64; shape.k];
        let mut addr = 0u64;
        for (k, slot) in b_row_addr.iter_mut().enumerate() {
            *slot = addr;
            addr += ((layer.b_row_nnz[k] * (p.weight_bits + coord_bits)).div_ceil(8)) as u64;
        }
        let psum_row_base = addr;
        let psum_row_bytes = (shape.n * p.psum_bytes) as u64;

        let mut compute = 0u64;
        let mut products = 0u64;
        let tiles = shape.m.div_ceil(p.pes);
        match self.sweep {
            // The pre-span oracle: per-access address arithmetic, per-line
            // tag walks.
            SweepStrategy::Reference => {
                for tile in 0..tiles {
                    let rows = (tile * p.pes)..((tile + 1) * p.pes).min(shape.m);
                    let mut worst = 0u64;
                    for m in rows {
                        let mut row_cycles = 0u64;
                        for (t, plane) in layer.workload.spikes.planes().iter().enumerate() {
                            let mut fibers = 0usize;
                            let mut row_products = 0u64;
                            for k in plane.row(m).iter_ones() {
                                let nnz_b = layer.b_row_nnz[k] as u64;
                                // Fetch B row k from the FiberCache (repeated every
                                // timestep and every row of A that needs it).
                                let bytes = ((layer.b_row_nnz[k] * (p.weight_bits + coord_bits))
                                    .div_ceil(8))
                                    as u64;
                                let missed = machine.cache.access_range(
                                    b_row_addr[k],
                                    bytes.max(1),
                                    TrafficClass::Weight,
                                );
                                machine.hbm.read(TrafficClass::Weight, missed * line);
                                row_products += nnz_b.max(1);
                                fibers += 1;
                            }
                            // Merge: one element per cycle through the radix-64
                            // merger; more fibers than the radix force extra rounds
                            // through partial rows (re-read + re-write).
                            let rounds = p.merge_rounds(fibers);
                            row_cycles += (row_products / p.merge_rate) * rounds;
                            products += row_products;
                            // The partial output row streams through the cache once
                            // per timestep (write + readback by the merger).
                            machine.cache.access_range(
                                psum_row_base + (m % p.pes) as u64 * psum_row_bytes,
                                psum_row_bytes,
                                TrafficClass::Psum,
                            );
                            machine.cache.write(TrafficClass::Psum, psum_row_bytes);
                            let _ = t;
                        }
                        worst = worst.max(row_cycles);
                    }
                    compute += worst;
                }
            }
            // The cache-model-aware walk: per-B-row spans precomputed once,
            // residency tokens so an unevicted row's refetch is all-hits
            // with no tag compares. Access order is identical to the
            // oracle, so reports are byte-identical.
            SweepStrategy::Kernel => {
                let line_bytes = machine.cache.line_bytes();
                let b_row_span: Vec<LineSpan> = b_row_addr
                    .iter()
                    .zip(layer.b_row_nnz.iter())
                    .map(|(&addr, &nnz)| {
                        let bytes = ((nnz * (p.weight_bits + coord_bits)).div_ceil(8)) as u64;
                        LineSpan::of_range(addr, bytes.max(1), line_bytes)
                    })
                    .collect();
                let mut b_row_residency = vec![SpanResidency::default(); shape.k];
                let psum_span: Vec<LineSpan> = (0..p.pes)
                    .map(|pe| {
                        LineSpan::of_range(
                            psum_row_base + pe as u64 * psum_row_bytes,
                            psum_row_bytes,
                            line_bytes,
                        )
                    })
                    .collect();
                let mut psum_residency = vec![SpanResidency::default(); p.pes];
                let planes = layer.workload.spikes.planes();
                for tile in 0..tiles {
                    let rows = (tile * p.pes)..((tile + 1) * p.pes).min(shape.m);
                    let mut worst = 0u64;
                    for m in rows {
                        let mut row_cycles = 0u64;
                        let pe = m % p.pes;
                        for plane in planes {
                            let mut fibers = 0usize;
                            let mut row_products = 0u64;
                            for k in plane.row(m).iter_ones() {
                                let missed = machine.cache.access_span_resident(
                                    b_row_span[k],
                                    &mut b_row_residency[k],
                                    TrafficClass::Weight,
                                );
                                if missed > 0 {
                                    machine.hbm.read(TrafficClass::Weight, missed * line);
                                }
                                row_products += (layer.b_row_nnz[k] as u64).max(1);
                                fibers += 1;
                            }
                            let rounds = p.merge_rounds(fibers);
                            row_cycles += (row_products / p.merge_rate) * rounds;
                            products += row_products;
                            machine.cache.access_span_resident(
                                psum_span[pe],
                                &mut psum_residency[pe],
                                TrafficClass::Psum,
                            );
                            machine.cache.write(TrafficClass::Psum, psum_row_bytes);
                        }
                        worst = worst.max(row_cycles);
                    }
                    compute += worst;
                }
            }
        }

        machine.stats.ops.accumulates = products;
        machine.stats.ops.merges = products;
        machine.stats.ops.lif_updates = (shape.m * shape.n * shape.t) as u64;
        machine.finish(&layer.name, &self.name(), compute)
    }
}

/// The accelerator-catalog entry for this model.
pub(crate) fn catalog_entry() -> loas_core::ModelEntry {
    loas_core::ModelEntry::new(
        "gamma",
        "Gamma-SNN: Gustavson spMspM baseline with FiberCache + merger",
        3,
        || Box::new(GammaConfig::default()),
        |config| {
            let config = config
                .as_any()
                .downcast_ref::<GammaConfig>()
                .expect("gamma entry built with a GammaConfig");
            Box::new(GammaSnn::new(*config))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_core::Loas;
    use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};

    fn layer() -> PreparedLayer {
        let profile = SparsityProfile::from_percentages(70.0, 60.0, 66.0, 96.0).unwrap();
        let w = WorkloadGenerator::default()
            .generate("gamma-test", LayerShape::new(4, 64, 32, 256), &profile)
            .unwrap();
        PreparedLayer::new(&w)
    }

    #[test]
    fn sram_traffic_far_exceeds_loas() {
        // The t-dimension multiplies FiberCache traffic (paper: ~13x LoAS).
        let l = layer();
        let gamma = GammaSnn::default().run_layer(&l);
        let loas = Loas::default().run_layer(&l);
        assert!(
            gamma.stats.sram.total() > 3 * loas.stats.sram.total(),
            "gamma {} vs loas {}",
            gamma.stats.sram.total(),
            loas.stats.sram.total()
        );
    }

    #[test]
    fn no_psum_dram_traffic() {
        let report = GammaSnn::default().run_layer(&layer());
        assert_eq!(report.stats.dram.get(TrafficClass::Psum), 0);
    }

    #[test]
    fn offchip_below_gospa_snn() {
        // Fig. 13: among the baselines Gamma-SNN stays well below the
        // psum-spilling OP design off chip (Gust's strength).
        let l = layer();
        let gamma = GammaSnn::default().run_layer(&l);
        let gospa = crate::gospa::GospaSnn::default().run_layer(&l);
        assert!(
            gamma.stats.dram.total() <= gospa.stats.dram.total(),
            "gamma {} vs gospa {}",
            gamma.stats.dram.total(),
            gospa.stats.dram.total()
        );
    }

    #[test]
    fn span_and_reference_walks_are_byte_identical() {
        // The residency-token walk must reproduce the per-line oracle bit
        // for bit — including on a sweep-shrunk cache where the fast path
        // is frequently invalidated by capacity evictions.
        let l = layer();
        for cache_bytes in [16 * 1024usize, BASELINE_CACHE_BYTES] {
            let config = GammaConfig::builder().cache_bytes(cache_bytes).build();
            let golden = GammaSnn::new(config)
                .with_sweep(SweepStrategy::Reference)
                .run_layer(&l)
                .to_portable();
            let span = GammaSnn::new(config)
                .with_sweep(SweepStrategy::Kernel)
                .run_layer(&l)
                .to_portable();
            assert_eq!(span, golden, "divergence at {cache_bytes} B");
        }
    }

    #[test]
    fn merges_counted() {
        let report = GammaSnn::default().run_layer(&layer());
        assert!(report.stats.ops.merges > 0);
        assert_eq!(report.stats.ops.merges, report.stats.ops.accumulates);
    }
}

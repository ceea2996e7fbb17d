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
//! # Cache accounting (simulator performance)
//!
//! The model first builds the [`Footprint`] of its FiberCache walk, the
//! no-eviction decision's input LoAS's replay builds too: the lines of
//! every `B` row that `A` fires at all, plus the psum rows of the PEs in
//! use. The footprint picks the walk:
//!
//! * **It fits** ([`SramCache::fits_without_eviction`]: no set receives
//!   more than `ways` of its lines). Nothing is ever evicted, so each
//!   distinct line misses exactly once and every other touch hits, in any
//!   access order. Hits, misses, SRAM and HBM traffic follow from the
//!   per-column spike counts and the line counts, and no tag is touched.
//!   Only the per-`(m, t)` merge compute is walked, because merge rounds
//!   and the per-tile maximum are not linear. One line depends on order:
//!   the last `B` line can be psum row 0's first line, and it is a weight
//!   miss only if a `B` row fetched for `A[0, ·, 0]` touches it before
//!   psum row 0 is first accessed. Every fig13-grid layer fits the
//!   paper's 256 KB FiberCache.
//! * **It does not fit.** Every fetch goes through the tag model along
//!   per-`B`-row [`LineSpan`]s.
//!
//! Either walk charges a [`Machine`] that closes on the roofline every
//! model shares ([`loas_core::Roofline`]). This module's tests keep the
//! per-`(m, t, k)` address walk, line by line through the tags, as the
//! oracle both walks must match byte for byte.

use crate::common::{BASELINE_CACHE_BYTES, BASELINE_PES, BASELINE_ROOFLINE};
use loas_core::{Accelerator, LayerReport, Machine, PreparedLayer};
use loas_sim::{Footprint, LineSpan, SramCache, TrafficClass};

loas_core::model_config! {
    model = "gamma", builder = GammaConfigBuilder;
    /// Typed configuration of the Gamma-SNN model (spec name `"gamma"`); the
    /// FiberCache geometry fields are the knobs the Gamma cache-size campaign
    /// sweep turns.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct GammaConfig {
        /// Row-processing PEs (paper: 16).
        pub pes: usize = BASELINE_PES,
        /// Merged elements emitted per cycle per PE (Gamma's merger: 1).
        pub merge_rate: u64 = 1,
        /// Merger radix: a row touching more than `radix` fibers needs extra
        /// merge rounds through partial rows (Gamma's 64-way merger).
        pub merge_radix: usize = 64,
        /// Weight precision in bits.
        pub weight_bits: usize = 8,
        /// Psum precision in bytes (for partial output rows).
        pub psum_bytes: usize = 2,
        /// FiberCache capacity in bytes (paper: the shared 256 KB).
        pub cache_bytes: usize = BASELINE_CACHE_BYTES,
        /// FiberCache line size in bytes.
        pub cache_line_bytes: usize = 64,
        /// FiberCache associativity.
        pub cache_ways: usize = 16,
        /// FiberCache banks.
        pub cache_banks: usize = 16,
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
        loas_core::check_precision(self.weight_bits, Some(self.psum_bytes))?;
        loas_sim::check_cache_geometry(
            self.cache_bytes,
            self.cache_line_bytes,
            self.cache_ways,
            self.cache_banks,
        )
    }

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
}

impl Default for GammaSnn {
    /// Paper parameters.
    fn default() -> Self {
        GammaSnn::new(GammaConfig::default())
    }
}

impl GammaSnn {
    /// Creates the model with the given configuration.
    pub fn new(params: GammaConfig) -> Self {
        GammaSnn { params }
    }

    /// The machine with the off-chip streams charged: `A` as per-timestep
    /// spike-train row fibers (the raw train doubles as the coordinate
    /// mask, like SparTen — coordinate CSR would *exceed* dense at SNN
    /// densities), `B` fibers once (the FiberCache keeps them resident),
    /// output rows after the merger. Partial rows merge on chip (no psum
    /// DRAM traffic — Gust's strength).
    fn offchip(&self, layer: &PreparedLayer) -> Machine {
        let p = self.params;
        let shape = layer.shape;
        let mut machine = Machine::new(SramCache::new(
            p.cache_bytes,
            p.cache_line_bytes,
            p.cache_ways,
            p.cache_banks,
        ));
        let dram = &mut machine.dram;
        dram.record_bits(
            TrafficClass::Input,
            (shape.m * shape.t * (shape.k + loas_sparse::POINTER_BITS)) as u64,
        );
        // B rows arrive as bitmask fibers (the shared weight format of this
        // substrate): N-bit row mask + pointer per row, read once into the
        // FiberCache.
        dram.record_bits(
            TrafficClass::Format,
            (shape.k * (shape.n + loas_sparse::POINTER_BITS)) as u64,
        );
        // Gamma has no output-side spike compressor (that is a LoAS
        // contribution): output spike trains leave dense.
        dram.record_bits(TrafficClass::Output, (shape.m * shape.n * shape.t) as u64);
        machine
    }

    /// The report assembly: op counts, then the shared roofline.
    fn finish(
        &self,
        layer: &PreparedLayer,
        mut machine: Machine,
        compute: u64,
        products: u64,
    ) -> LayerReport {
        let shape = layer.shape;
        machine.stats.ops.accumulates = products;
        machine.stats.ops.merges = products;
        machine.stats.ops.lif_updates = (shape.m * shape.n * shape.t) as u64;
        machine.finish(&BASELINE_ROOFLINE, &layer.name, &self.name(), compute)
    }

    /// Walks the rows of `A` in PE-tile order, one `(m, t)` merge at a
    /// time: `fetch(k)` for each fired `B` row, then `merged(pe)` once the
    /// PE has folded them into its partial row. Returns the compute cycles
    /// (each tile waits for its slowest row) and the merged products.
    fn walk_rows(
        &self,
        layer: &PreparedLayer,
        machine: &mut Machine,
        mut fetch: impl FnMut(&mut Machine, usize),
        mut merged: impl FnMut(&mut Machine, usize),
    ) -> (u64, u64) {
        let p = self.params;
        let m_rows = layer.shape.m;
        let planes = layer.workload.spikes.planes();
        let mut compute = 0u64;
        let mut products = 0u64;
        for tile in 0..m_rows.div_ceil(p.pes) {
            let rows = (tile * p.pes)..((tile + 1) * p.pes).min(m_rows);
            let mut worst = 0u64;
            for m in rows {
                let mut row_cycles = 0u64;
                let pe = m % p.pes;
                for plane in planes {
                    let mut fibers = 0usize;
                    let mut row_products = 0u64;
                    for k in plane.row(m).iter_ones() {
                        fetch(machine, k);
                        row_products += (layer.b_row_nnz[k] as u64).max(1);
                        fibers += 1;
                    }
                    let rounds = p.merge_rounds(fibers);
                    row_cycles += (row_products / p.merge_rate) * rounds;
                    products += row_products;
                    merged(machine, pe);
                }
                worst = worst.max(row_cycles);
            }
            compute += worst;
        }
        (compute, products)
    }
}

/// The `(weight, psum)` FiberCache misses of the kernel walk when its
/// footprint cannot evict (every distinct line then misses exactly once),
/// or `None` when it can. The
/// footprint is the lines of every `B` row that `A` fires at all and of
/// the psum rows of the PEs in use.
fn unevicted_misses(
    cache: &SramCache,
    layer: &PreparedLayer,
    b_row_span: &[LineSpan],
    psum_span: &[LineSpan],
) -> Option<(u64, u64)> {
    let shape = layer.shape;
    let pes_used = if shape.t == 0 {
        0
    } else {
        psum_span.len().min(shape.m)
    };
    // The rows are laid out in ascending address order, `B` before the
    // psum rows.
    let mut footprint = Footprint::default();
    for (&span, &spikes) in b_row_span.iter().zip(&layer.col_spikes) {
        if spikes > 0 {
            footprint.push(span);
        }
    }
    let (b_end, b_lines) = (footprint.bounds().end, footprint.lines());
    for &span in &psum_span[..pes_used] {
        footprint.push(span);
    }
    if !cache.fits_without_eviction(&footprint) {
        return None;
    }
    let lines = footprint.lines();
    // The last `B` line can be psum row 0's first line. Psum row 0 is
    // first accessed right after the fetches of `A[0, ·, 0]`, so the line
    // misses as a weight only if one of those rows touches it.
    let boundary = psum_span.first().copied().unwrap_or_default();
    let psum_first = pes_used > 0
        && !boundary.is_empty()
        && b_end > boundary.first_line
        && !layer.workload.spikes.planes()[0]
            .row(0)
            .iter_ones()
            .any(|k| b_row_span[k].end() > boundary.first_line);
    let weight = b_lines - u64::from(psum_first);
    Some((weight, lines - weight))
}

impl Accelerator for GammaSnn {
    fn name(&self) -> String {
        "Gamma-SNN".to_owned()
    }

    fn run_layer(&mut self, layer: &PreparedLayer) -> LayerReport {
        let p = self.params;
        let shape = layer.shape;
        let mut machine = self.offchip(layer);
        let line_bytes = machine.cache.line_bytes();
        let line = line_bytes as u64;
        let coord_bits = loas_sparse::coordinate_bits(shape.n);

        // Address map: B rows live in the FiberCache; partial output rows
        // contend with them for capacity (the Fig. 14 miss-rate effect).
        let mut addr = 0u64;
        let b_row_span: Vec<LineSpan> = (layer.b_row_nnz.iter())
            .map(|&nnz| {
                let bytes = ((nnz * (p.weight_bits + coord_bits)).div_ceil(8)) as u64;
                let span = LineSpan::of_range(addr, bytes.max(1), line_bytes);
                addr += bytes;
                span
            })
            .collect();
        let psum_row_bytes = (shape.n * p.psum_bytes) as u64;
        let psum_span: Vec<LineSpan> = (0..p.pes)
            .map(|pe| {
                LineSpan::of_range(
                    addr + pe as u64 * psum_row_bytes,
                    psum_row_bytes,
                    line_bytes,
                )
            })
            .collect();

        // When the footprint cannot evict, the counts follow from it and
        // only compute is walked; otherwise every B-row fetch and psum
        // pass goes through the tags, in the order of the oracle.
        let (compute, products) = if let Some((weight_misses, psum_misses)) =
            unevicted_misses(&machine.cache, layer, &b_row_span, &psum_span)
        {
            let walked = self.walk_rows(layer, &mut machine, |_, _| {}, |_, _| {});
            let weight_touches: u64 = (layer.col_spikes.iter().zip(&b_row_span))
                .map(|(&spikes, span)| u64::from(spikes) * span.n_lines)
                .sum();
            let psum_touches = shape.t as u64
                * (0..shape.m)
                    .map(|m| psum_span[m % p.pes].n_lines)
                    .sum::<u64>();
            let cache = &mut machine.cache;
            cache.record_unevicted(Some(TrafficClass::Weight), weight_touches, weight_misses);
            cache.record_unevicted(Some(TrafficClass::Psum), psum_touches, psum_misses);
            cache.write(
                TrafficClass::Psum,
                (shape.m * shape.t) as u64 * psum_row_bytes,
            );
            machine
                .dram
                .record(TrafficClass::Weight, weight_misses * line);
            walked
        } else {
            self.walk_rows(
                layer,
                &mut machine,
                |machine, k| {
                    machine.fetch(b_row_span[k], TrafficClass::Weight);
                },
                |machine, pe| {
                    machine.cache.access_span(psum_span[pe], TrafficClass::Psum);
                    machine.cache.write(TrafficClass::Psum, psum_row_bytes);
                },
            )
        };
        self.finish(layer, machine, compute, products)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_core::Loas;
    use loas_sparse::WeightFiber;
    use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};
    use proptest::prelude::*;

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

    /// The oracle: every `(m, t, k)` fetch walks the FiberCache tags line
    /// by line through per-access address arithmetic. It shares only the
    /// off-chip preamble and the report assembly with the model.
    fn reference(p: GammaConfig, layer: &PreparedLayer) -> LayerReport {
        let model = GammaSnn::new(p);
        let shape = layer.shape;
        let mut machine = model.offchip(layer);
        let line = machine.cache.line_bytes() as u64;
        let coord_bits = loas_sparse::coordinate_bits(shape.n);
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
        for tile in 0..shape.m.div_ceil(p.pes) {
            let rows = (tile * p.pes)..((tile + 1) * p.pes).min(shape.m);
            let mut worst = 0u64;
            for m in rows {
                let mut row_cycles = 0u64;
                for plane in layer.workload.spikes.planes() {
                    let mut fibers = 0usize;
                    let mut row_products = 0u64;
                    for k in plane.row(m).iter_ones() {
                        // Fetch B row k from the FiberCache (repeated every
                        // timestep and every row of A that needs it).
                        let bytes = ((layer.b_row_nnz[k] * (p.weight_bits + coord_bits))
                            .div_ceil(8)) as u64;
                        let missed = machine.cache.access_range(
                            b_row_addr[k],
                            bytes.max(1),
                            TrafficClass::Weight,
                        );
                        machine.dram.record(TrafficClass::Weight, missed * line);
                        row_products += (layer.b_row_nnz[k] as u64).max(1);
                        fibers += 1;
                    }
                    // Merge: one element per cycle through the radix-64
                    // merger; more fibers than the radix force extra
                    // rounds through partial rows.
                    row_cycles += (row_products / p.merge_rate) * p.merge_rounds(fibers);
                    products += row_products;
                    // The partial output row streams through the cache
                    // once per timestep (write + readback by the merger).
                    machine.cache.access_range(
                        psum_row_base + (m % p.pes) as u64 * psum_row_bytes,
                        psum_row_bytes,
                        TrafficClass::Psum,
                    );
                    machine.cache.write(TrafficClass::Psum, psum_row_bytes);
                }
                worst = worst.max(row_cycles);
            }
            compute += worst;
        }
        model.finish(layer, machine, compute, products)
    }

    #[test]
    fn span_and_reference_walks_are_byte_identical() {
        // Both kernel branches — the footprint count when the cache cannot
        // evict, the span walk when it can — must reproduce the per-line
        // oracle bit for bit, over random small layers and FiberCaches.
        let cases = (
            (1usize..=6, 1usize..=40, 1usize..=64, 1usize..=256),
            (any::<u64>(), 0usize..2, 0usize..3),
            (10u32..=19, 0usize..3, 0usize..3),
            (0usize..5, 1usize..=4, 0usize..3),
        );
        let mut runner = proptest::TestRunner::new("gamma::span_and_reference_walks");
        let (mut fitting, mut evicting) = (0, 0);
        for _ in 0..128 {
            let ((t, m, n, k), (seed, spikes, weights), geometry, precision) =
                cases.generate(&mut runner);
            let (origin, silent, silent_ft) = [(70.0, 55.0, 62.0), (95.0, 90.0, 92.0)][spikes];
            let weight_sparsity = [30.0, 90.0, 98.0][weights];
            let profile =
                SparsityProfile::from_percentages(origin, silent, silent_ft, weight_sparsity);
            let Ok(workload) = WorkloadGenerator::new(seed).generate(
                "gamma-prop",
                LayerShape::new(t, m, n, k),
                &profile.unwrap(),
            ) else {
                continue; // infeasible profile draw: nothing to check
            };
            let layer = PreparedLayer::new(workload);
            let (capacity_log2, ways, line) = geometry;
            let (ways, line) = ([1, 2, 16][ways], [32, 64, 128][line]);
            let (weight_bits, psum_bytes, pes) = precision;
            let config = GammaConfig {
                pes: [1, 3, 16][pes],
                weight_bits: [1, 4, 8, 13, 32][weight_bits],
                psum_bytes,
                cache_bytes: (1usize << capacity_log2).max(line * ways),
                cache_line_bytes: line,
                cache_ways: ways,
                ..GammaConfig::default()
            };
            let golden = reference(config, &layer);
            assert_eq!(
                GammaSnn::new(config).run_layer(&layer).to_portable(),
                golden.to_portable(),
                "{config:?} on {:?}",
                layer.shape
            );
            // The footprint fits exactly when the oracle misses as often as
            // on a direct-mapped cache with a set for every line id.
            let boundless = GammaConfig {
                cache_bytes: line << 16,
                cache_ways: 1,
                ..config
            };
            if golden.stats.cache.misses == reference(boundless, &layer).stats.cache.misses {
                fitting += 1;
            } else {
                evicting += 1;
            }
        }
        assert!(
            fitting > 0 && evicting > 0,
            "{fitting} fit, {evicting} evict"
        );
    }

    #[test]
    fn psum_row_zero_can_claim_the_shared_boundary_line() {
        // Both `B` rows and every psum row share line 0. It misses as a
        // weight only if `A[0, ·, 0]` fetches a `B` row before psum row 0
        // is first accessed.
        let profile = SparsityProfile::from_percentages(70.0, 60.0, 66.0, 96.0).unwrap();
        let mut workload = WorkloadGenerator::default()
            .generate("boundary", LayerShape::new(4, 2, 4, 2), &profile)
            .unwrap();
        workload.weights = vec![WeightFiber::from_weights(&[1, 1]); 4].into();
        for k in 0..2 {
            for m in 0..2 {
                for t in 0..4 {
                    workload.spikes.set(m, k, t, false);
                }
            }
        }
        workload.spikes.set(1, 0, 0, true);
        workload.spikes.set(0, 1, 1, true);
        let config = GammaConfig::default();
        for (fired, weight_dram) in [(false, 0), (true, 64)] {
            workload.spikes.set(0, 1, 0, fired);
            let layer = PreparedLayer::new(&workload);
            let report = GammaSnn::new(config).run_layer(&layer);
            assert_eq!(report.stats.cache.misses, 1);
            assert_eq!(
                report.stats.dram.get(TrafficClass::Weight),
                weight_dram,
                "A[0, 1, 0] fired: {fired}"
            );
            assert_eq!(
                report.to_portable(),
                reference(config, &layer).to_portable()
            );
        }
    }

    #[test]
    fn merges_counted() {
        let report = GammaSnn::default().run_layer(&layer());
        assert!(report.stats.ops.merges > 0);
        assert_eq!(report.stats.ops.merges, report.stats.ops.accumulates);
    }
}

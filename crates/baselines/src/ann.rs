//! Dual-sparse **ANN** accelerator models for the SNN-vs-ANN comparison of
//! Fig. 18: SparTen (IP) and Gamma (Gustavson) running an 8-bit VGG16 with
//! 43.9% activation sparsity and 98.2% weight sparsity in a single pass
//! (no timesteps).

use crate::common::BASELINE_ROOFLINE;
use loas_core::kernel::{PairSweepKernel, RowBlocks, SweepMode};
use loas_core::{weight_views, LayerReport, Machine};
use loas_sim::{SramCache, TrafficClass};
use loas_sparse::{Bitmask, WeightFiber, POINTER_BITS};
use loas_workloads::AnnWorkload;

/// Precomputed compressed views of an ANN workload.
#[derive(Debug, Clone)]
pub struct AnnPrepared {
    /// Workload name.
    pub name: String,
    /// `M`, `K`, `N` (with `t = 1`).
    pub shape: loas_workloads::LayerShape,
    /// Non-zero bitmask of each activation row.
    pub a_row_masks: Vec<Bitmask>,
    /// Non-zero activation count.
    pub a_nnz: usize,
    /// Compressed weight columns.
    pub b_fibers: Vec<WeightFiber>,
    /// Per-row non-zero weight counts (for Gustavson).
    pub b_row_nnz: Vec<usize>,
    /// Structure-of-arrays layout of the activation row masks, consumed by
    /// the pair-intersection kernel.
    pub row_blocks: RowBlocks,
}

impl AnnPrepared {
    /// Prepares all compressed views of an ANN workload.
    pub fn new(workload: &AnnWorkload) -> Self {
        let shape = workload.shape;
        let a_row_masks: Vec<Bitmask> = (0..shape.m)
            .map(|m| Bitmask::from_bools(workload.activations.row(m).iter().map(|&v| v != 0)))
            .collect();
        let a_nnz = a_row_masks.iter().map(Bitmask::popcount).sum();
        let (b_fibers, b_row_nnz) = weight_views(&workload.weights);
        let row_blocks = RowBlocks::from_masks(&a_row_masks);
        AnnPrepared {
            name: workload.name.clone(),
            shape,
            a_row_masks,
            a_nnz,
            b_fibers,
            b_row_nnz,
            row_blocks,
        }
    }
}

/// SparTen running the dual-sparse ANN (two fast prefix-sum circuits; 8-bit
/// activations need explicit value fetches, unlike spike trains). The pair
/// intersections run as one pure [`PairSweepKernel`] pass over the layer,
/// and the per-pair sums fold into layer totals.
pub fn run_sparten_ann(prepared: &AnnPrepared) -> LayerReport {
    let shape = prepared.shape;
    let chunks = (shape.k.div_ceil(128)).max(1) as u64;
    let mut machine = sparten_ann_offchip(prepared);

    // Pure phase: one kernel pass over the layer. The per-pair sums (MACs,
    // prefix-sum activity, matched value fetches) are linear, so the
    // layer totals fold exactly; only the per-tile peak is not.
    let b_words: Vec<&[u64]> = prepared
        .b_fibers
        .iter()
        .map(|fiber| fiber.bitmask().words())
        .collect();
    let sweep = PairSweepKernel::new(128, None).sweep_layer(
        &prepared.row_blocks,
        &b_words,
        SweepMode::TemporalParallel,
        1,
    );
    let pes = crate::common::BASELINE_PES;
    let mask_bytes = shape.k.div_ceil(8) as u64;
    let mut compute = 0u64;
    for start in (0..shape.m).step_by(pes) {
        let rows = start..(start + pes).min(shape.m);
        // The tile reads each row's and each column's bitmask once and
        // writes its outputs; each column waits for its slowest row.
        machine.cache.read_untagged(
            TrafficClass::Format,
            (rows.len() + shape.n) as u64 * mask_bytes,
        );
        for n in 0..shape.n {
            let peak = sweep.column_matches(rows.clone(), n).iter().max();
            compute += chunks + peak.map_or(0, |&peak| u64::from(peak)) + 1;
        }
        machine
            .cache
            .write(TrafficClass::Output, (rows.len() * shape.n) as u64);
    }
    // Matched activations *and* weights are fetched by value; both
    // offsets come from fast prefix-sums (two circuits).
    let matches = sweep.totals.matches;
    machine.stats.ops.macs += matches;
    machine.stats.ops.fast_prefix_cycles += 2 * ((shape.m * shape.n) as u64 * chunks + matches);
    machine.cache.read_untagged(TrafficClass::Input, matches);
    machine.cache.read_untagged(TrafficClass::Weight, matches);
    machine.finish(&BASELINE_ROOFLINE, &prepared.name, "SparTen-ANN", compute)
}

/// SparTen-ANN's machine: [`ann_offchip`] with `B` as column fibers, a
/// K-bit mask + pointer each.
fn sparten_ann_offchip(prepared: &AnnPrepared) -> Machine {
    let shape = prepared.shape;
    ann_offchip(prepared, shape.n * (shape.k + POINTER_BITS))
}

/// A dual-sparse ANN reference's machine with the off-chip streams
/// charged: compressed activations (bitmask + 8-bit values), 8-bit
/// weights behind `b_format_bits` of bitmask fibers, dense 8-bit outputs.
fn ann_offchip(prepared: &AnnPrepared, b_format_bits: usize) -> Machine {
    let shape = prepared.shape;
    let mut machine = Machine::new(SramCache::loas_default());
    let dram = &mut machine.dram;
    dram.record_bits(
        TrafficClass::Format,
        (shape.m * (shape.k + POINTER_BITS)) as u64,
    );
    dram.record_bits(TrafficClass::Input, (prepared.a_nnz * 8) as u64);
    let b_nnz: usize = prepared.b_fibers.iter().map(WeightFiber::nnz).sum();
    dram.record_bits(TrafficClass::Weight, (b_nnz * 8) as u64);
    dram.record_bits(TrafficClass::Format, b_format_bits as u64);
    dram.record(TrafficClass::Output, (shape.m * shape.n) as u64);
    machine
}

/// Gamma running the dual-sparse ANN (row-wise Gustavson with a hardware
/// merger; one pass, no timestep amplification).
pub fn run_gamma_ann(prepared: &AnnPrepared) -> LayerReport {
    let shape = prepared.shape;
    let pes = crate::common::BASELINE_PES;
    let coord_bits = loas_sparse::coordinate_bits(shape.n);
    // B rows in the shared bitmask-fiber format (consistent with the SNN
    // designs): N-bit row mask + pointer per row.
    let mut machine = ann_offchip(prepared, shape.k * (shape.n + POINTER_BITS));

    let mut compute = 0u64;
    let psum_row_bytes = (shape.n * 2) as u64;
    let tiles = shape.m.div_ceil(pes);
    for tile in 0..tiles {
        let rows = (tile * pes)..((tile + 1) * pes).min(shape.m);
        let mut worst = 0u64;
        for m in rows {
            let mut row_cycles = 0u64;
            for k in prepared.a_row_masks[m].iter_ones() {
                let nnz_b = prepared.b_row_nnz[k] as u64;
                row_cycles += nnz_b.max(1);
                machine.stats.ops.macs += nnz_b;
                machine.cache.read_untagged(
                    TrafficClass::Weight,
                    ((prepared.b_row_nnz[k] * (8 + coord_bits)).div_ceil(8)) as u64,
                );
            }
            machine
                .cache
                .read_untagged(TrafficClass::Psum, psum_row_bytes);
            machine.cache.write(TrafficClass::Psum, psum_row_bytes);
            worst = worst.max(row_cycles);
        }
        compute += worst;
    }
    machine.finish(&BASELINE_ROOFLINE, &prepared.name, "Gamma-ANN", compute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_workloads::{generate_ann, LayerShape, WorkloadGenerator};

    fn prepared() -> AnnPrepared {
        let w = generate_ann(
            &WorkloadGenerator::default(),
            "ann-test",
            LayerShape::new(1, 32, 128, 256),
            0.439,
            0.982,
        )
        .unwrap();
        AnnPrepared::new(&w)
    }

    #[test]
    fn prepared_counts_consistent() {
        let p = prepared();
        assert_eq!(p.a_row_masks.len(), 32);
        let row_total: usize = p.b_row_nnz.iter().sum();
        let col_total: usize = p.b_fibers.iter().map(WeightFiber::nnz).sum();
        assert_eq!(row_total, col_total);
    }

    #[test]
    fn sparten_ann_uses_macs_not_accumulates() {
        let report = run_sparten_ann(&prepared());
        assert!(report.stats.ops.macs > 0);
        assert_eq!(report.stats.ops.accumulates, 0);
    }

    #[test]
    fn gamma_ann_dram_stays_at_or_below_sparten_ann() {
        // The Fig. 18 trade-off: Gamma's Gustavson dataflow avoids input
        // re-fetch, keeping DRAM at or below the IP design (both share the
        // bitmask weight format; pointers differ by row vs column count).
        let p = prepared();
        let sparten = run_sparten_ann(&p);
        let gamma = run_gamma_ann(&p);
        assert!(
            gamma.stats.dram.total() as f64 <= sparten.stats.dram.total() as f64 * 1.1,
            "gamma {} vs sparten {}",
            gamma.stats.dram.total(),
            sparten.stats.dram.total()
        );
    }

    /// The oracle: the scalar per-pair loop. It shares only the off-chip
    /// preamble and the report assembly with [`run_sparten_ann`].
    fn reference_sparten_ann(prepared: &AnnPrepared) -> LayerReport {
        let shape = prepared.shape;
        let pes = crate::common::BASELINE_PES;
        let chunks = (shape.k.div_ceil(128)).max(1) as u64;
        let mut machine = sparten_ann_offchip(prepared);
        let mut compute = 0u64;
        let mut tile_start = 0usize;
        while tile_start < shape.m {
            let rows = tile_start..(tile_start + pes).min(shape.m);
            for _ in rows.clone() {
                machine
                    .cache
                    .read_untagged(TrafficClass::Format, shape.k.div_ceil(8) as u64);
            }
            for fiber_b in &prepared.b_fibers {
                machine
                    .cache
                    .read_untagged(TrafficClass::Format, shape.k.div_ceil(8) as u64);
                let mut worst = 0u64;
                for m in rows.clone() {
                    let matches = prepared.a_row_masks[m]
                        .and_count(fiber_b.bitmask())
                        .expect("equal K") as u64;
                    worst = worst.max(chunks + matches + 1);
                    machine.stats.ops.macs += matches;
                    machine.stats.ops.fast_prefix_cycles += 2 * (chunks + matches);
                    machine.cache.read_untagged(TrafficClass::Input, matches);
                    machine.cache.read_untagged(TrafficClass::Weight, matches);
                }
                compute += worst;
            }
            machine
                .cache
                .write(TrafficClass::Output, (rows.len() * shape.n) as u64);
            tile_start = rows.end;
        }
        machine.finish(&BASELINE_ROOFLINE, &prepared.name, "SparTen-ANN", compute)
    }

    #[test]
    fn ann_kernel_and_reference_sweeps_are_byte_identical() {
        let p = prepared();
        assert_eq!(
            run_sparten_ann(&p).to_portable(),
            reference_sparten_ann(&p).to_portable()
        );
    }

    #[test]
    fn reports_carry_names() {
        let p = prepared();
        assert_eq!(run_sparten_ann(&p).accelerator, "SparTen-ANN");
        assert_eq!(run_gamma_ann(&p).accelerator, "Gamma-ANN");
    }
}

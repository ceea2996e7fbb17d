//! Pre-compressed layer workloads shared by all accelerator models.
//!
//! Building fibers and bitmasks is workload preparation, not accelerator
//! work; every model (LoAS and baselines) consumes the same
//! [`PreparedLayer`] so that cross-accelerator comparisons see identical
//! inputs. Each operand is held once: `A` as the workload's spike planes
//! plus its row fibers, `B` as the workload's column fibers, which the
//! prepared layer shares rather than copies.

use crate::layer_memo::{LayerMemo, MemoKey, MemoStats};
use loas_sim::LineSpan;
use loas_snn::LifParams;
use loas_sparse::{Bitmask, SpikeFiber, WeightFiber, POINTER_BITS};
use loas_workloads::{LayerShape, LayerWorkload};
use std::sync::Arc;

/// Precomputed cache-line spans of every traffic object the LoAS replay
/// touches, for one `(weight_bits, line_bytes)` geometry.
///
/// The tag-accurate traffic phase used to re-derive line numbers from
/// abstract byte addresses on every probe. The address map is a pure
/// function of the prepared fibers, so the spans are computed once per
/// layer and geometry ([`PreparedLayer::traffic_spans`]) and the replay
/// does zero address arithmetic per pair: row/column objects are fixed
/// [`LineSpan`]s, and the per-pair payload probe only varies in length
/// from a precomputed `(first_line, intra-line offset)` base
/// ([`TrafficSpans::a_payload_span`]).
///
/// The address map matches the original replay exactly: `A` fibers laid
/// out back to back (bitmask + pointer bytes, then packed payload), then
/// `B` fibers (bitmask + pointer bytes, then weight payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficSpans {
    /// Weight precision the `B` payload spans assume.
    pub weight_bits: usize,
    /// Cache-line size all spans assume.
    pub line_bytes: usize,
    /// Bitmask + pointer bytes of one `A` row (uniform across rows).
    pub a_bm_bytes: u64,
    /// Per-row span of the `bm-A` (+ pointer) load.
    pub a_bm_span: Vec<LineSpan>,
    /// Per-row first line of the packed payload region.
    pub a_payload_line: Vec<u64>,
    /// Per-row byte offset of the payload start within its first line.
    pub a_payload_intra: Vec<u64>,
    /// Bitmask + pointer bytes of one `B` fiber (uniform across columns).
    pub b_bm_bytes: u64,
    /// Per-column span of the `bm-B` (+ pointer) broadcast.
    pub b_bm_span: Vec<LineSpan>,
    /// Per-column span of the non-zero weight payload.
    pub b_payload_span: Vec<LineSpan>,
    /// Compressed output bytes written per output row.
    pub out_row_bytes: u64,
}

impl TrafficSpans {
    /// Builds the span table for a prepared layer under the given
    /// geometry, replicating the replay's original address map byte for
    /// byte (asserted against the address-arithmetic formulas by the
    /// equivalence property tests).
    pub fn build(layer: &PreparedLayer, weight_bits: usize, line_bytes: usize) -> Self {
        let shape = layer.shape;
        let bm_bytes = (shape.k + POINTER_BITS).div_ceil(8) as u64;
        let line = line_bytes as u64;
        let mut a_bm_span = Vec::with_capacity(shape.m);
        let mut a_payload_line = Vec::with_capacity(shape.m);
        let mut a_payload_intra = Vec::with_capacity(shape.m);
        let mut addr = 0u64;
        for fiber in &layer.a_fibers {
            a_bm_span.push(LineSpan::of_range(addr, bm_bytes, line_bytes));
            let payload = addr + bm_bytes;
            a_payload_line.push(payload / line);
            a_payload_intra.push(payload % line);
            addr += fiber.storage_bits(shape.t).div_ceil(8) as u64;
        }
        let mut b_bm_span = Vec::with_capacity(shape.n);
        let mut b_payload_span = Vec::with_capacity(shape.n);
        for fiber in layer.b_fibers.iter() {
            b_bm_span.push(LineSpan::of_range(addr, bm_bytes, line_bytes));
            let payload_bytes = (fiber.nnz() * weight_bits).div_ceil(8) as u64;
            b_payload_span.push(LineSpan::of_range(
                addr + bm_bytes,
                payload_bytes,
                line_bytes,
            ));
            addr += fiber.storage_bits(weight_bits).div_ceil(8) as u64;
        }
        let out_row_bits = (shape.n + POINTER_BITS) as u64 + (shape.n as u64 / 10) * shape.t as u64;
        TrafficSpans {
            weight_bits,
            line_bytes,
            a_bm_bytes: bm_bytes,
            a_bm_span,
            a_payload_line,
            a_payload_intra,
            b_bm_bytes: bm_bytes,
            b_bm_span,
            b_payload_span,
            out_row_bytes: out_row_bits.div_ceil(8),
        }
    }

    /// The span of the first `payload_bytes` bytes of row `m`'s packed
    /// payload — the only per-pair varying probe of the replay.
    #[inline]
    pub fn a_payload_span(&self, m: usize, payload_bytes: u64) -> LineSpan {
        LineSpan::tail(
            self.a_payload_line[m],
            self.a_payload_intra[m],
            payload_bytes,
            self.line_bytes,
        )
    }
}

/// A layer workload with every compressed view precomputed (built from
/// 64-bit words; the `B` side is the workload's own fibers, shared with
/// [`PreparedLayer::fine_tuned`]).
#[derive(Debug, Clone)]
pub struct PreparedLayer {
    /// Workload name.
    pub name: String,
    /// The `(T, M, N, K)` shape.
    pub shape: LayerShape,
    /// The original workload (spike planes + weight fibers + LIF).
    pub workload: LayerWorkload,
    /// Per-row compressed spike fibers (LoAS format: non-silent bitmask +
    /// packed words).
    pub a_fibers: Vec<SpikeFiber>,
    /// Per-column compressed weight fibers: the workload's `weights`,
    /// shared.
    pub b_fibers: Arc<[WeightFiber]>,
    /// Per-row non-zero weight counts of `B` viewed row-wise (for OP/Gust
    /// models: `B`'s row `k`).
    pub b_row_nnz: Arc<[usize]>,
    /// Per-column total spike counts (`Σ_{m,t} A[m, k, t]`), the `A` half
    /// of the `O(K)` fired-count aggregate
    /// ([`crate::kernel::fired_grand_total`]).
    pub col_spikes: Vec<u32>,
    /// Results derived from this layer under some config, kept for the
    /// other jobs that share the layer ([`crate::layer_memo`]).
    pub(crate) memo: LayerMemo,
}

impl PreparedLayer {
    /// Prepares all compressed views of a workload (pass it by value to
    /// skip a copy).
    pub fn new(workload: impl Into<LayerWorkload>) -> Self {
        let workload = workload.into();
        let a_fibers = workload.spikes.to_row_fibers();
        let b_fibers = Arc::clone(&workload.weights);
        let b_row_nnz = row_nnz(&b_fibers, workload.shape.k).into();
        PreparedLayer::from_views(workload, a_fibers, b_fibers, b_row_nnz)
    }

    /// The fine-tuned variant ([`LayerWorkload::with_preprocessing`]). FT
    /// silences exactly the neurons that fire once, so the `A` fibers are
    /// this layer's words that fire more than once; the `B` side (FT never
    /// changes it) is shared with `self`.
    pub fn fine_tuned(&self) -> Self {
        let a_fibers = self
            .a_fibers
            .iter()
            .map(|fiber| fiber.filtered(|word| word.fire_count() > 1))
            .collect();
        PreparedLayer::from_views(
            self.workload.with_preprocessing(),
            a_fibers,
            Arc::clone(&self.b_fibers),
            Arc::clone(&self.b_row_nnz),
        )
    }

    fn from_views(
        workload: LayerWorkload,
        a_fibers: Vec<SpikeFiber>,
        b_fibers: Arc<[WeightFiber]>,
        b_row_nnz: Arc<[usize]>,
    ) -> Self {
        let shape = workload.shape;
        let mut col_spikes = vec![0u32; shape.k];
        for (k, word) in a_fibers.iter().flat_map(SpikeFiber::iter) {
            col_spikes[k] += word.fire_count() as u32;
        }
        PreparedLayer {
            name: workload.name.clone(),
            shape,
            workload,
            a_fibers,
            b_fibers,
            b_row_nnz,
            col_spikes,
            memo: LayerMemo::default(),
        }
    }

    /// The traffic-span table for a given accelerator geometry, built on
    /// first use and memoized.
    pub fn traffic_spans(&self, weight_bits: usize, line_bytes: usize) -> Arc<TrafficSpans> {
        let key = MemoKey::Spans {
            weight_bits,
            line_bytes,
        };
        self.memo
            .get_or_insert_with(key, || TrafficSpans::build(self, weight_bits, line_bytes))
    }

    /// Hit, miss and eviction counts of the layer's memo.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// LIF parameters of the output stage.
    pub fn lif(&self) -> LifParams {
        self.workload.lif
    }

    /// Non-silent bitmask of row `m` (the `bm-A` a TPPE holds).
    pub fn a_mask(&self, m: usize) -> &Bitmask {
        self.a_fibers[m].bitmask()
    }

    /// Total non-silent neurons across all rows.
    pub fn a_nnz(&self) -> usize {
        self.a_fibers.iter().map(SpikeFiber::nnz).sum()
    }

    /// Total non-zero weights.
    pub fn b_nnz(&self) -> usize {
        self.b_fibers.iter().map(WeightFiber::nnz).sum()
    }

    /// Total spikes across all timesteps.
    pub fn spike_count(&self) -> usize {
        self.workload.spikes.spike_count()
    }

    /// Compressed size of `A` in LoAS format, split as
    /// `(payload_bits, format_bits)`: packed words vs bitmasks + pointers.
    pub fn a_compressed_bits(&self) -> (u64, u64) {
        let payload = (self.a_nnz() * self.shape.t) as u64;
        let format = self
            .a_fibers
            .iter()
            .map(|f| (f.bitmask().storage_bits() + POINTER_BITS) as u64)
            .sum();
        (payload, format)
    }

    /// Compressed size of `B` in fiber format, split as
    /// `(payload_bits, format_bits)`.
    pub fn b_compressed_bits(&self, weight_bits: usize) -> (u64, u64) {
        let payload = (self.b_nnz() * weight_bits) as u64;
        let format = self
            .b_fibers
            .iter()
            .map(|f| (f.bitmask().storage_bits() + POINTER_BITS) as u64)
            .sum();
        (payload, format)
    }

    /// Size of `A` fetched densely as raw spike trains (SparTen-SNN: every
    /// spike bit crosses the memory boundary, Section II-D).
    pub fn a_dense_bits(&self) -> u64 {
        (self.shape.m * self.shape.k * self.shape.t) as u64
    }

    /// Size of `A` in per-timestep CSR (GoSPA-SNN), split as
    /// `(payload_bits, format_bits)`; spike CSR stores only coordinates, so
    /// payload is zero and everything is format overhead (computed in
    /// closed form from each plane's spike count).
    pub fn a_csr_bits(&self) -> (u64, u64) {
        (0, crate::compress::csr_bits(&self.workload.spikes))
    }
}

/// Per-row non-zero counts of a `K`-row `B` (its row `k` for the OP and
/// Gustavson models), in one pass over the non-zeros of its column fibers.
pub fn row_nnz(b_fibers: &[WeightFiber], k: usize) -> Vec<usize> {
    let mut counts = vec![0; k];
    for row in b_fibers
        .iter()
        .flat_map(|fiber| fiber.bitmask().iter_ones())
    {
        counts[row] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_snn::SpikeTensor;
    use loas_sparse::{CsrMatrix, DenseMatrix, PackedSpikes};
    use loas_workloads::{SparsityProfile, WorkloadGenerator};
    use proptest::prelude::*;

    /// The per-timestep CSR views GoSPA's format charges for.
    fn csr_per_t(p: &PreparedLayer) -> Vec<CsrMatrix<()>> {
        let planes = p.workload.spikes.planes();
        planes.iter().map(CsrMatrix::from_bit_matrix).collect()
    }

    /// `a_csr_bits` from materialized per-timestep CSR matrices (the
    /// reference for the closed form).
    fn a_csr_bits_reference(p: &PreparedLayer) -> (u64, u64) {
        let format = csr_per_t(p).iter().map(|c| c.storage_bits(0) as u64).sum();
        (0, format)
    }

    /// The non-zero count of each row of a dense `B`.
    fn dense_row_nnz(weights: &DenseMatrix<i8>) -> Vec<usize> {
        (0..weights.rows())
            .map(|k| weights.row(k).iter().filter(|&&w| w != 0).count())
            .collect()
    }

    /// A pseudo-random `m x k x t` spike tensor with about `density_pct`%
    /// of its bits set.
    fn random_tensor((m, k, t): (usize, usize, usize), seed: u64, density_pct: u64) -> SpikeTensor {
        let mut state = seed;
        // Bits past `K` are set too; `from_row_words` drops them.
        SpikeTensor::from_row_words(m, k, t, |_, words| {
            for word in words.iter_mut() {
                for bit in 0..64 {
                    // splitmix64
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    if (z ^ (z >> 31)) % 100 < density_pct {
                        *word |= 1 << bit;
                    }
                }
            }
        })
    }

    /// A pseudo-random workload: spikes at about `density`% of the
    /// `M·K·T` positions, non-zero weights at about `weight_density`% of
    /// the `K·N` positions. Also returns the weights dense.
    fn random_workload(
        (t, m, n, k): (usize, usize, usize, usize),
        seed: u64,
        density: u64,
        weight_density: u64,
    ) -> (LayerWorkload, DenseMatrix<i8>) {
        let mut state = seed;
        let weights = (0..k * n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let draw = state >> 33;
                if draw % 100 < weight_density {
                    (draw % 255) as i8 | 1
                } else {
                    0
                }
            })
            .collect();
        let dense = DenseMatrix::from_vec(k, n, weights).unwrap();
        let workload = LayerWorkload {
            name: "random".to_owned(),
            shape: LayerShape::new(t, m, n, k),
            spikes: random_tensor((m, k, t), seed, density),
            weights: (0..n)
                .map(|c| WeightFiber::from_weights(&dense.column(c)))
                .collect(),
            lif: LifParams::new(16, 1),
        };
        (workload, dense)
    }

    fn assert_same_views(a: &PreparedLayer, b: &PreparedLayer) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.a_fibers, b.a_fibers);
        assert_eq!(a.b_fibers, b.b_fibers);
        assert_eq!(a.b_row_nnz, b.b_row_nnz);
        assert_eq!(a.col_spikes, b.col_spikes);
        assert_eq!(a.traffic_spans(8, 64), b.traffic_spans(8, 64));
    }

    proptest! {
        #[test]
        fn word_level_views_match_per_bit_references(
            shape in (1usize..=16, 0usize..6, 1usize..9, 0usize..200),
            seed in any::<u64>(),
            density in 0u64..100,
            weight_density in 0u64..100,
        ) {
            let (w, dense) = random_workload(shape, seed, density, weight_density);
            let p = PreparedLayer::new(&w);
            prop_assert_eq!(&p.b_row_nnz[..], &dense_row_nnz(&dense)[..]);
            let per_bit: Vec<SpikeFiber> = (0..w.shape.m)
                .map(|m| {
                    let row: Vec<PackedSpikes> =
                        (0..w.shape.k).map(|k| w.spikes.packed_word(m, k)).collect();
                    SpikeFiber::from_packed_row(&row)
                })
                .collect();
            prop_assert_eq!(&p.a_fibers, &per_bit);
            let mut col_spikes = vec![0u32; w.shape.k];
            for (k, word) in per_bit.iter().flat_map(SpikeFiber::iter) {
                col_spikes[k] += word.fire_count() as u32;
            }
            prop_assert_eq!(&p.col_spikes, &col_spikes);
            prop_assert_eq!(p.a_csr_bits(), a_csr_bits_reference(&p));
        }

        #[test]
        fn generated_weight_fibers_are_the_dense_columns(
            shape in (0usize..4, 0usize..40, 0usize..200),
            weight_case in 0usize..4,
            seed in any::<u64>(),
        ) {
            // `K` runs across 64-bit word boundaries, `N` may be 0 and the
            // weight sparsity may be 0 or 1.
            let (m, n, k) = shape;
            let weight_pct = [0.0, 50.0, 98.2, 100.0][weight_case];
            let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, weight_pct).unwrap();
            let w = WorkloadGenerator::new(seed)
                .generate("fibers", LayerShape::new(4, m, n, k), &profile)
                .unwrap();
            let dense = DenseMatrix::from_columns(k, &w.weights);
            prop_assert_eq!(w.weights.len(), n);
            for (c, fiber) in w.weights.iter().enumerate() {
                prop_assert_eq!(fiber, &WeightFiber::from_weights(&dense.column(c)));
            }
            let p = PreparedLayer::new(&w);
            prop_assert_eq!(&p.b_row_nnz[..], &dense_row_nnz(&dense)[..]);
        }

        #[test]
        fn fine_tuned_matches_preparing_the_masked_workload(
            shape in (1usize..=16, 0usize..6, 1usize..9, 0usize..200),
            seed in any::<u64>(),
            density in 0u64..100,
        ) {
            let (w, _) = random_workload(shape, seed, density, 30);
            let base = PreparedLayer::new(&w);
            let ft = base.fine_tuned();
            assert_same_views(&ft, &PreparedLayer::new(w.with_preprocessing()));
            prop_assert!(Arc::ptr_eq(&ft.b_fibers, &base.b_fibers));
            prop_assert!(Arc::ptr_eq(&ft.b_row_nnz, &base.b_row_nnz));
        }
    }

    fn prepared() -> PreparedLayer {
        let generator = WorkloadGenerator::default();
        let profile = SparsityProfile::from_percentages(75.0, 60.0, 70.0, 90.0).unwrap();
        let w = generator
            .generate("prep-test", LayerShape::new(4, 8, 6, 64), &profile)
            .unwrap();
        PreparedLayer::new(&w)
    }

    #[test]
    fn every_prepared_layer_shares_the_workload_weights() {
        let generator = WorkloadGenerator::default();
        let profile = SparsityProfile::from_percentages(75.0, 60.0, 70.0, 90.0).unwrap();
        let w = generator
            .generate("shared-b", LayerShape::new(4, 8, 6, 64), &profile)
            .unwrap();
        for layer in [
            PreparedLayer::new(&w),
            PreparedLayer::new(w.with_preprocessing()),
            PreparedLayer::new(&w).fine_tuned(),
        ] {
            assert!(Arc::ptr_eq(&layer.b_fibers, &w.weights), "{}", layer.name);
        }
    }

    #[test]
    fn fiber_counts_match_shape() {
        let p = prepared();
        assert_eq!(p.a_fibers.len(), 8);
        assert_eq!(p.b_fibers.len(), 6);
        assert_eq!(csr_per_t(&p).len(), 4);
        assert_eq!(p.b_row_nnz.len(), 64);
    }

    #[test]
    fn nnz_consistency() {
        let p = prepared();
        let total_row_nnz: usize = p.b_row_nnz.iter().sum();
        assert_eq!(
            total_row_nnz,
            p.b_nnz(),
            "row-wise and column-wise B nnz agree"
        );
        let csr_nnz: usize = csr_per_t(&p).iter().map(|c| c.nnz()).sum();
        assert_eq!(csr_nnz, p.spike_count());
    }

    #[test]
    fn compressed_sizes_positive_and_ordered() {
        let p = prepared();
        let (a_payload, a_format) = p.a_compressed_bits();
        assert_eq!(a_payload, (p.a_nnz() * 4) as u64);
        assert!(a_format >= (p.shape.m * p.shape.k) as u64);
        // LoAS packed A must be far smaller than dense A at this sparsity.
        assert!(
            a_payload + a_format
                < p.a_dense_bits() + (p.shape.m as u64 * POINTER_BITS as u64) + p.a_dense_bits()
        );
        let (_, csr_format) = p.a_csr_bits();
        assert!(csr_format > 0);
    }

    #[test]
    fn row_masks_and_col_spikes_mirror_the_tensor() {
        // The sweep reads each row's `bm-A` from its fiber: the OR of the
        // row's plane rows.
        let p = prepared();
        for m in 0..p.shape.m {
            let mut mask = vec![0u64; p.shape.k.div_ceil(64)];
            for plane in p.workload.spikes.planes() {
                for (word, &bits) in mask.iter_mut().zip(plane.row(m).words()) {
                    *word |= bits;
                }
            }
            assert_eq!(p.a_mask(m).words(), &mask[..], "row {m}");
        }
        let total: u32 = p.col_spikes.iter().sum();
        assert_eq!(total as usize, p.spike_count());
    }

    #[test]
    fn a_word_matches_fiber_payload() {
        let p = prepared();
        for m in 0..p.shape.m {
            for (k, word) in p.a_fibers[m].iter() {
                assert_eq!(p.workload.spikes.packed_word(m, k), *word);
                assert!(!word.is_silent());
            }
        }
    }
}

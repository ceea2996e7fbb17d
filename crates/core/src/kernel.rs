//! The two-phase layer kernel: a cache-friendly pair-intersection sweep.
//!
//! [`Loas::run_layer`] and the AND-popcount baselines spend essentially all
//! of their time intersecting row bitmasks of `A` with column bitmasks of
//! `B` — `O(M·N·K/64)` word operations interleaved, in the pre-kernel code
//! path, with the sequential tag-accurate cache model. This module splits
//! that work out as a **pure compute phase**:
//!
//! * [`PairSweepKernel`] — streams every fiber-B (words hoisted once) over
//!   fixed blocks of rows and produces per-pair match counts plus the
//!   per-chunk stall/laggy bookkeeping of the inner-join cycle model. It
//!   reads `A` where it is already held: each row's non-silent bitmask
//!   words from its fiber (the `bm-A` a TPPE holds), and, for the
//!   sequential-timestep ablation only, the per-timestep plane rows of the
//!   spike tensor;
//! * [`LayerSweep`] — the layer's result: per-pair matches and drain
//!   cycles plus the op-count totals the traffic phase folds into
//!   [`SimStats`]. Nothing in it depends on the TPPE count: the replay
//!   takes each row tile's synchronous-broadcast barrier as the maximum of
//!   the tile's drains ([`LayerSweep::tile_worst`]), so one sweep serves
//!   every tile height.
//!
//! Because the sweep is pure (no cache or DRAM state), it parallelizes
//! across row blocks with scoped threads; every pair has its own slot and
//! the totals are integer sums, so reports are byte-identical for every
//! worker count.
//!
//! In fully temporal-parallel mode the per-timestep `fired` counts are not
//! even swept: `fired` only ever enters the report through *global* sums
//! (`accumulates += matches + corrections` with
//! `corrections = T·matches − fired`), and
//! `Σ_{m,n,t} |A_t[m] ∧ B[n]| = Σ_k rowNNZ_B(k) · colSpikes_A(k)`, which
//! [`fired_grand_total`] computes in `O(K)` from precomputed column spike
//! counts. The sequential-timestep ablation, which needs per-timestep
//! counts per pair for its cycle model, sweeps the tensor's plane rows
//! as well.
//!
//! [`Loas::run_layer`]: crate::Loas
//! [`SimStats`]: loas_sim::SimStats

use loas_sparse::{BitMatrix, Fiber};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest timestep count a packed spike word can carry (`u16` lanes).
pub use loas_sparse::MAX_TIMESTEPS;

/// Per-pair counts from one intersection sweep, in the terms of the
/// inner-join cycle model ([`crate::InnerJoinUnit`] semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairCounts {
    /// AND-matched positions (`|bm_a ∧ bm_b|`).
    pub matches: u64,
    /// Bitmask chunks streamed (at least one, even for empty masks).
    pub chunks: u64,
    /// Cycles lost to FIFO backpressure (`Σ_chunk max(0, c − fifo)`).
    pub stalls: u64,
    /// Chunks that produced at least one match (laggy-circuit activations).
    pub laggy_chunks: u64,
    /// Total fired bits across matched positions (`Σ_t |A_t ∧ B|`).
    pub fired: u64,
    /// Per-timestep match counts (`|A_t ∧ B|`), valid for `planes` lanes.
    pub t_counts: [u32; MAX_TIMESTEPS],
}

/// Which cycle model the per-pair drain uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Fully temporal-parallel LoAS: a pair drains in
    /// `max(chunks, matches + stalls) + 1` cycles (P-LIF one-shot) and the
    /// per-timestep counts are never materialized (see
    /// [`fired_grand_total`]).
    TemporalParallel,
    /// The sequential-timestep ablation: each timestep re-runs the join, so
    /// a pair drains in `Σ_t (max(chunks, |A_t ∧ B|) + 1)` cycles and the
    /// sweep reads the plane rows.
    SequentialT,
}

/// Sums of the per-pair counts over a set of pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepTotals {
    /// Σ matches.
    pub matches: u64,
    /// Σ FIFO-backpressure stalls.
    pub stalls: u64,
    /// Σ laggy-circuit chunk activations.
    pub laggy_chunks: u64,
    /// Σ fired bits (only filled by sweeps that read the plane rows; the
    /// temporal-parallel kernel leaves it zero and the caller uses
    /// [`fired_grand_total`]).
    pub fired: u64,
}

impl std::ops::AddAssign for SweepTotals {
    fn add_assign(&mut self, other: SweepTotals) {
        self.matches += other.matches;
        self.stalls += other.stalls;
        self.laggy_chunks += other.laggy_chunks;
        self.fired += other.fired;
    }
}

/// The pure-compute result of one layer: every `(m, n)` pair's counts,
/// for any row tiling. Only the synchronous-broadcast barrier depends on
/// the tile height, and [`LayerSweep::tile_worst`] takes it from the
/// per-pair drains, so one sweep serves every TPPE count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LayerSweep {
    /// Rows of `A` (the column stride of the per-pair vectors).
    pub rows: usize,
    /// Per-pair match counts, column-major: `matches[n * rows + m]` is row
    /// `m` against fiber-B `n`.
    pub matches: Vec<u32>,
    /// Per-pair drain cycles in the same layout, including the per-pair
    /// tail of the [`SweepMode`] (at most `T·(K + 1)`, so `u32` holds them
    /// for any `K` below 2²⁸).
    pub drain: Vec<u32>,
    /// Sums over every pair.
    pub totals: SweepTotals,
}

impl LayerSweep {
    /// A zeroed sweep of `rows × columns` pairs.
    pub fn zeroed(rows: usize, columns: usize) -> Self {
        LayerSweep {
            rows,
            matches: vec![0; rows * columns],
            drain: vec![0; rows * columns],
            totals: SweepTotals::default(),
        }
    }

    /// The match counts of rows `rows` against fiber-B `n`.
    pub fn column_matches(&self, rows: Range<usize>, n: usize) -> &[u32] {
        &self.matches[n * self.rows + rows.start..n * self.rows + rows.end]
    }

    /// The worst drain of the row tile `rows` at fiber-B `n`: the cycles
    /// the tile's slowest TPPE holds the broadcast.
    pub fn tile_worst(&self, rows: Range<usize>, n: usize) -> u64 {
        let drains = &self.drain[n * self.rows + rows.start..n * self.rows + rows.end];
        u64::from(drains.iter().copied().max().unwrap_or(0))
    }
}

/// Rows one sweep block covers. A block sweeps every fiber-B over rows
/// whose mask words stay in L1, and blocks are the unit intra-layer
/// workers claim.
const ROW_BLOCK: usize = 32;

/// The pure pair-intersection kernel of one layer sweep.
///
/// # Examples
///
/// ```
/// use loas_core::kernel::PairSweepKernel;
/// use loas_snn::SpikeTensor;
/// use loas_sparse::{Bitmask, PackedSpikes};
///
/// let row = vec![PackedSpikes::from_bits(0b0101, 4).unwrap(); 8];
/// let a = SpikeTensor::from_packed_rows(&[row], 4).unwrap();
/// let mask = Bitmask::ones(8); // every neuron of the row fires
/// let planes: Vec<&[u64]> = a.planes().iter().map(|p| p.row(0).words()).collect();
/// let kernel = PairSweepKernel::new(128, Some(8));
/// let b = Bitmask::from_indices(8, &[1, 5]).unwrap();
/// let counts = kernel.pair_counts(mask.words(), planes, b.words());
/// assert_eq!(counts.matches, 2);
/// assert_eq!(counts.fired, 4); // two matches firing at two timesteps each
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSweepKernel {
    chunk_words: usize,
    fifo: u64,
    /// Whether the host CPU has a hardware popcount — detected once at
    /// construction and dispatched on once per call, outside the pair
    /// loops.
    popcnt: bool,
}

impl PairSweepKernel {
    /// A kernel streaming `chunk_bits`-wide bitmask chunks with the given
    /// FIFO depth (`None` models an unbounded FIFO — the two-fast-prefix
    /// ablation, which never backpressures).
    pub fn new(chunk_bits: usize, fifo_depth: Option<usize>) -> Self {
        PairSweepKernel {
            chunk_words: (chunk_bits / 64).max(1),
            fifo: fifo_depth.map_or(u64::MAX, |d| d as u64),
            popcnt: popcnt_available(),
        }
    }

    /// Chunks streamed per pair for a `row_words`-word mask (at least one,
    /// matching the scan-cycle floor of the join model).
    pub fn chunks_for(&self, row_words: usize) -> u64 {
        (row_words.div_ceil(self.chunk_words) as u64).max(1)
    }

    /// Mask-only sweep of one pair: matches plus the per-chunk stall/laggy
    /// bookkeeping. `a` and `b` must have equal lengths (the layer's `K`
    /// words). `#[inline(always)]` so the body compiles again inside each
    /// hardware-popcount wrapper (the portable `count_ones` lowers to a
    /// ~12-op SWAR sequence on baseline x86-64, which would dominate).
    #[inline(always)]
    fn mask_counts(&self, a: &[u64], b: &[u64]) -> (u64, u64, u64) {
        let mut matches = 0u64;
        let mut stalls = 0u64;
        let mut laggy = 0u64;
        if self.chunk_words == 2 {
            // The Table III configuration (128-bit chunks): a hand-tiled
            // pass over word pairs, bounds checks hoisted by chunks_exact.
            let mut chunks_a = a.chunks_exact(2);
            let mut chunks_b = b.chunks_exact(2);
            for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
                let chunk_matches =
                    ((ca[0] & cb[0]).count_ones() + (ca[1] & cb[1]).count_ones()) as u64;
                matches += chunk_matches;
                stalls += chunk_matches.saturating_sub(self.fifo);
                laggy += (chunk_matches > 0) as u64;
            }
            let tail_a = chunks_a.remainder();
            let tail_b = chunks_b.remainder();
            if let (Some(aw), Some(bw)) = (tail_a.first(), tail_b.first()) {
                let chunk_matches = (aw & bw).count_ones() as u64;
                matches += chunk_matches;
                stalls += chunk_matches.saturating_sub(self.fifo);
                laggy += (chunk_matches > 0) as u64;
            }
            return (matches, stalls, laggy);
        }
        for (ca, cb) in a.chunks(self.chunk_words).zip(b.chunks(self.chunk_words)) {
            let mut chunk_matches = 0u64;
            for (aw, bw) in ca.iter().zip(cb) {
                chunk_matches += (aw & bw).count_ones() as u64;
            }
            matches += chunk_matches;
            stalls += chunk_matches.saturating_sub(self.fifo);
            laggy += (chunk_matches > 0) as u64;
        }
        (matches, stalls, laggy)
    }

    /// Full sweep of one pair: mask counts plus the per-timestep plane
    /// counts. `mask` holds the row's non-silent bitmask words, `planes`
    /// yields its `T` per-timestep plane-row words and `b` holds the
    /// fiber-B words, all of the layer's `K`. `#[inline(always)]` so the
    /// sweep's hardware-popcount wrapper compiles it again.
    #[inline(always)]
    pub fn pair_counts<'a>(
        &self,
        mask: &[u64],
        planes: impl IntoIterator<Item = &'a [u64]>,
        b: &[u64],
    ) -> PairCounts {
        debug_assert_eq!(mask.len(), b.len(), "fiber-B word count");
        let (matches, stalls, laggy_chunks) = self.mask_counts(mask, b);
        let mut counts = PairCounts {
            matches,
            chunks: self.chunks_for(mask.len().max(b.len())),
            stalls,
            laggy_chunks,
            fired: 0,
            t_counts: [0; MAX_TIMESTEPS],
        };
        for (t, plane) in planes.into_iter().enumerate() {
            let fired_t = and_count_words(plane, b);
            counts.t_counts[t] = fired_t as u32;
            counts.fired += fired_t;
        }
        counts
    }

    /// Sweeps one row block against every fiber-B into `out`, whose row
    /// `offset` is the block's first row, through the popcount dispatch
    /// once for the whole block.
    fn sweep_block(
        &self,
        layer: SweepInputs<'_>,
        rows: Range<usize>,
        out: &mut LayerSweep,
        offset: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.popcnt {
            // SAFETY: `popcnt` was set by the runtime feature check.
            return unsafe { self.sweep_block_popcnt(layer, rows, out, offset) };
        }
        self.sweep_block_inline(layer, rows, out, offset)
    }

    /// [`PairSweepKernel::sweep_block`] compiled with hardware popcount.
    ///
    /// # Safety
    ///
    /// The CPU must support `popcnt`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn sweep_block_popcnt(
        &self,
        layer: SweepInputs<'_>,
        rows: Range<usize>,
        out: &mut LayerSweep,
        offset: usize,
    ) {
        self.sweep_block_inline(layer, rows, out, offset)
    }

    #[inline(always)]
    fn sweep_block_inline(
        &self,
        layer: SweepInputs<'_>,
        rows: Range<usize>,
        out: &mut LayerSweep,
        offset: usize,
    ) {
        let mut totals = SweepTotals::default();
        for (n, b) in layer.b_words.iter().enumerate() {
            debug_assert!(b.len() < 1 << 22, "drain cycles overflow u32");
            let chunks = self.chunks_for(b.len());
            let at = n * out.rows + offset;
            let matches = &mut out.matches[at..at + rows.len()];
            let drain = &mut out.drain[at..at + rows.len()];
            for ((m, matches), drain) in rows.clone().zip(matches).zip(drain) {
                let mask = layer.a_masks[m];
                debug_assert_eq!(mask.len(), b.len(), "fiber-B word count");
                match layer.mode {
                    SweepMode::TemporalParallel => {
                        let (pair_matches, stalls, laggy) = self.mask_counts(mask, b);
                        *matches = pair_matches as u32;
                        *drain = (chunks.max(pair_matches + stalls) + 1) as u32;
                        totals.matches += pair_matches;
                        totals.stalls += stalls;
                        totals.laggy_chunks += laggy;
                    }
                    SweepMode::SequentialT => {
                        let planes = layer.planes.iter().map(|plane| plane.row(m).words());
                        let counts = self.pair_counts(mask, planes, b);
                        *matches = counts.matches as u32;
                        *drain = counts.t_counts[..layer.planes.len()]
                            .iter()
                            .map(|&fired_t| chunks.max(u64::from(fired_t)) + 1)
                            .sum::<u64>() as u32;
                        totals.matches += counts.matches;
                        totals.stalls += counts.stalls;
                        totals.laggy_chunks += counts.laggy_chunks;
                        totals.fired += counts.fired;
                    }
                }
            }
        }
        out.totals += totals;
    }

    /// Sweeps a whole layer: the pure compute phase, with no memory-system
    /// state touched. `a_masks` holds each row's non-silent bitmask words
    /// and `b_words` each fiber-B's, all of the layer's `K`; `planes` are
    /// the per-timestep planes of `A`, read only by
    /// [`SweepMode::SequentialT`]. Rows go in fixed blocks of 32
    /// (`ROW_BLOCK`), fanned out over `workers` scoped threads (`1` runs
    /// inline). Each pair's counts land in their own slot and the totals
    /// are integer sums, so the result is identical for any worker count.
    pub fn sweep_layer(
        &self,
        a_masks: &[&[u64]],
        planes: &[BitMatrix],
        b_words: &[&[u64]],
        mode: SweepMode,
        workers: usize,
    ) -> LayerSweep {
        let layer = SweepInputs {
            a_masks,
            planes,
            b_words,
            mode,
        };
        let rows = a_masks.len();
        let mut sweep = LayerSweep::zeroed(rows, b_words.len());
        let blocks: Vec<Range<usize>> = (0..rows)
            .step_by(ROW_BLOCK)
            .map(|start| start..(start + ROW_BLOCK).min(rows))
            .collect();
        if workers.min(blocks.len()) <= 1 {
            for block in blocks {
                let offset = block.start;
                self.sweep_block(layer, block, &mut sweep, offset);
            }
            return sweep;
        }
        // Workers sweep claimed blocks into block-local sweeps; the results
        // are copied into place afterwards.
        let next = AtomicUsize::new(0);
        let swept: Vec<(usize, LayerSweep)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.min(blocks.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        while let Some(block) = blocks.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let mut local = LayerSweep::zeroed(block.len(), b_words.len());
                            self.sweep_block(layer, block.clone(), &mut local, 0);
                            done.push((block.start, local));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("sweep workers do not panic"))
                .collect()
        });
        for (start, local) in swept {
            for n in 0..b_words.len() {
                let at = n * rows + start;
                let block = n * local.rows..(n + 1) * local.rows;
                sweep.matches[at..at + local.rows].copy_from_slice(&local.matches[block.clone()]);
                sweep.drain[at..at + local.rows].copy_from_slice(&local.drain[block]);
            }
            sweep.totals += local.totals;
        }
        sweep
    }
}

/// One layer's sweep inputs, shared by every row block (see
/// [`PairSweepKernel::sweep_layer`]).
#[derive(Clone, Copy)]
struct SweepInputs<'a> {
    a_masks: &'a [&'a [u64]],
    planes: &'a [BitMatrix],
    b_words: &'a [&'a [u64]],
    mode: SweepMode,
}

/// Each fiber's bitmask words, the form in which
/// [`PairSweepKernel::sweep_layer`] reads both operands.
pub fn mask_words<V>(fibers: &[Fiber<V>]) -> Vec<&[u64]> {
    fibers.iter().map(|fiber| fiber.bitmask().words()).collect()
}

/// Whether the host CPU exposes a hardware popcount (detected once per
/// [`PairSweepKernel`] construction; std caches the cpuid result).
fn popcnt_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[inline(always)]
fn and_count_words(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(aw, bw)| (aw & bw).count_ones() as u64)
        .sum()
}

/// `Σ_{m,n,t} |A_t[m] ∧ B[n]|` in `O(K)`: every matched `(m, k, n)` triple
/// contributes the fire count of word `(m, k)`, and column `k` of `A` meets
/// `rowNNZ_B(k)` fiber-Bs.
pub fn fired_grand_total(col_spikes: &[u32], b_row_nnz: &[usize]) -> u64 {
    debug_assert_eq!(col_spikes.len(), b_row_nnz.len(), "K dimension");
    col_spikes
        .iter()
        .zip(b_row_nnz)
        .map(|(&spikes, &nnz)| spikes as u64 * nnz as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_snn::SpikeTensor;
    use loas_sparse::{Bitmask, PackedSpikes, SpikeFiber};

    /// A `K`-wide `T = 4` spike tensor whose rows fire the given
    /// `(position, bits)` words, with its row fibers.
    fn a_side(rows: &[Vec<(usize, u16)>], k: usize) -> (SpikeTensor, Vec<SpikeFiber>) {
        let rows: Vec<Vec<PackedSpikes>> = rows
            .iter()
            .map(|words| {
                let mut row = vec![PackedSpikes::silent(4).unwrap(); k];
                for &(pos, bits) in words {
                    row[pos] = PackedSpikes::from_bits(bits, 4).unwrap();
                }
                row
            })
            .collect();
        let tensor = SpikeTensor::from_packed_rows(&rows, 4).unwrap();
        let fibers = tensor.to_row_fibers();
        (tensor, fibers)
    }

    fn plane_rows(tensor: &SpikeTensor, m: usize) -> Vec<&[u64]> {
        tensor.planes().iter().map(|p| p.row(m).words()).collect()
    }

    #[test]
    fn pair_counts_match_bitmask_ops() {
        let (a, fibers) = a_side(&[vec![(0, 0b0110), (5, 0b1111), (130, 0b0001)]], 200);
        let b = Bitmask::from_indices(200, &[0, 5, 131]).unwrap();
        let kernel = PairSweepKernel::new(128, Some(8));
        let counts = kernel.pair_counts(mask_words(&fibers)[0], plane_rows(&a, 0), b.words());
        assert_eq!(counts.matches, 2);
        assert_eq!(counts.chunks, 2);
        assert_eq!(counts.stalls, 0);
        assert_eq!(counts.laggy_chunks, 1);
        // k=0 fires at t1,t2; k=5 fires everywhere.
        assert_eq!(counts.fired, 6);
        assert_eq!(&counts.t_counts[..4], &[1, 2, 2, 1]);
    }

    #[test]
    fn empty_masks_still_scan_one_chunk() {
        let kernel = PairSweepKernel::new(128, Some(8));
        let counts = kernel.pair_counts(&[], [], &[]);
        assert_eq!(counts.matches, 0);
        assert_eq!(counts.chunks, 1);
    }

    #[test]
    fn unbounded_fifo_never_stalls() {
        let positions: Vec<(usize, u16)> = (0..30).map(|i| (i, 1u16)).collect();
        let (a, fibers) = a_side(&[positions], 64);
        let (mask, planes) = (mask_words(&fibers)[0], plane_rows(&a, 0));
        let b = Bitmask::ones(64);
        let bounded =
            PairSweepKernel::new(128, Some(8)).pair_counts(mask, planes.clone(), b.words());
        let unbounded = PairSweepKernel::new(128, None).pair_counts(mask, planes, b.words());
        assert_eq!(bounded.stalls, 22);
        assert_eq!(unbounded.stalls, 0);
        assert_eq!(bounded.matches, unbounded.matches);
    }

    /// The layer sweep agrees with per-pair `pair_counts` and is identical
    /// for any worker count.
    #[test]
    fn sweep_layer_is_worker_count_invariant() {
        // More rows than two blocks, so the workers split the layer.
        let rows: Vec<Vec<(usize, u16)>> = (0..77)
            .map(|m| vec![(m * 7 % 90, 0b1010), (m * 13 % 90, 0b0111)])
            .collect();
        let (a, fibers) = a_side(&rows, 90);
        let a_masks = mask_words(&fibers);
        let mut b_masks: Vec<Bitmask> = (0..5)
            .map(|n| Bitmask::from_indices(90, &[n * 11 % 90, n * 17 % 90, 3]).unwrap())
            .collect();
        b_masks.push(Bitmask::ones(90));
        let b_words: Vec<&[u64]> = b_masks.iter().map(|b| b.words()).collect();
        let kernel = PairSweepKernel::new(128, Some(1));
        for mode in [SweepMode::TemporalParallel, SweepMode::SequentialT] {
            let reference = kernel.sweep_layer(&a_masks, a.planes(), &b_words, mode, 1);
            let mut totals = SweepTotals::default();
            for (n, b) in b_words.iter().enumerate() {
                for (m, mask) in a_masks.iter().enumerate() {
                    let counts = kernel.pair_counts(mask, plane_rows(&a, m), b);
                    let drain = match mode {
                        SweepMode::TemporalParallel => {
                            counts.chunks.max(counts.matches + counts.stalls) + 1
                        }
                        SweepMode::SequentialT => counts.t_counts[..4]
                            .iter()
                            .map(|&fired_t| counts.chunks.max(u64::from(fired_t)) + 1)
                            .sum(),
                    };
                    assert_eq!(
                        reference.column_matches(m..m + 1, n),
                        [counts.matches as u32]
                    );
                    assert_eq!(
                        reference.tile_worst(m..m + 1, n),
                        drain,
                        "{mode:?} ({m}, {n})"
                    );
                    totals += SweepTotals {
                        matches: counts.matches,
                        stalls: counts.stalls,
                        laggy_chunks: counts.laggy_chunks,
                        fired: if mode == SweepMode::SequentialT {
                            counts.fired
                        } else {
                            0
                        },
                    };
                }
            }
            assert_eq!(reference.totals, totals, "{mode:?}");
            assert!(totals.stalls > 0, "the FIFO of one backpressures");
            for workers in [2, 3, 8] {
                let swept = kernel.sweep_layer(&a_masks, a.planes(), &b_words, mode, workers);
                assert_eq!(swept, reference, "{mode:?} at {workers} workers");
            }
        }
    }

    #[test]
    fn fired_grand_total_matches_per_pair_sweep() {
        let rows: Vec<Vec<(usize, u16)>> = (0..6)
            .map(|m| vec![(m * 5 % 70, 0b1100), ((m * 9 + 2) % 70, 0b0011)])
            .collect();
        let (a, fibers) = a_side(&rows, 70);
        let b_masks: Vec<Bitmask> = (0..4)
            .map(|n| Bitmask::from_indices(70, &[n * 3, n * 7 + 1, 12]).unwrap())
            .collect();
        let b_words: Vec<&[u64]> = b_masks.iter().map(|b| b.words()).collect();
        let kernel = PairSweepKernel::new(128, Some(8));
        let per_pair = kernel
            .sweep_layer(
                &mask_words(&fibers),
                a.planes(),
                &b_words,
                SweepMode::SequentialT,
                1,
            )
            .totals
            .fired;
        let mut col_spikes = vec![0u32; 70];
        for f in &fibers {
            for (k, word) in f.iter() {
                col_spikes[k] += word.fire_count() as u32;
            }
        }
        let mut b_row_nnz = vec![0usize; 70];
        for b in &b_masks {
            for k in b.iter_ones() {
                b_row_nnz[k] += 1;
            }
        }
        assert_eq!(fired_grand_total(&col_spikes, &b_row_nnz), per_pair);
    }
}

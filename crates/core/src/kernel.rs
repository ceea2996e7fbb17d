//! The two-phase layer kernel: a cache-friendly pair-intersection sweep.
//!
//! [`Loas::run_layer`] and the AND-popcount baselines spend essentially all
//! of their time intersecting row bitmasks of `A` with column bitmasks of
//! `B` — `O(M·N·K/64)` word operations interleaved, in the pre-kernel code
//! path, with the sequential tag-accurate cache model. This module splits
//! that work out as a **pure compute phase**:
//!
//! * [`RowBlocks`] — a structure-of-arrays layout of the `A`-side data:
//!   per row, the non-silent bitmask words followed by the `T` per-timestep
//!   plane-row words, contiguous, so one pair sweep is a single linear pass
//!   with no bounds-checked `get(i).copied().unwrap_or(0)` lookups;
//! * [`PairSweepKernel`] — for one fiber-B (words hoisted once), streams
//!   all row pairs of a tile and produces per-pair match counts plus the
//!   per-chunk stall/laggy bookkeeping of the inner-join cycle model;
//! * [`TileSweep`] — the per-tile result: per-pair matches, the per-column
//!   worst-TPPE drain, and the op-count aggregates the traffic phase folds
//!   into [`SimStats`] after replaying the memory system sequentially.
//!
//! Because the sweep is pure (no cache or DRAM state), it parallelizes
//! across row tiles with scoped threads; results are collected in tile
//! order, so reports are byte-identical for every worker count.
//!
//! In fully temporal-parallel mode the per-timestep `fired` counts are not
//! even swept: `fired` only ever enters the report through *global* sums
//! (`accumulates += matches + corrections` with
//! `corrections = T·matches − fired`), and
//! `Σ_{m,n,t} |A_t[m] ∧ B[n]| = Σ_k rowNNZ_B(k) · colSpikes_A(k)`, which
//! [`fired_grand_total`] computes in `O(K)` from precomputed column spike
//! counts. The sequential-timestep ablation, which needs per-timestep
//! counts per pair for its cycle model, sweeps the plane rows of the
//! [`RowBlocks`] layout linearly instead.
//!
//! [`Loas::run_layer`]: crate::Loas
//! [`SimStats`]: loas_sim::SimStats

use loas_snn::SpikeTensor;
use loas_sparse::Bitmask;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Largest timestep count a packed spike word can carry (`u16` lanes).
pub use loas_sparse::MAX_TIMESTEPS;

/// Structure-of-arrays `A`-side data: per row, `row_words` bitmask words
/// followed by `planes × row_words` per-timestep plane-row words, all
/// contiguous in one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBlocks {
    rows: usize,
    row_words: usize,
    planes: usize,
    words: Vec<u64>,
}

impl RowBlocks {
    /// Builds the layout from a spike tensor's plane words: each row's mask
    /// is the OR of its `T` plane rows (its non-silent neurons), followed by
    /// copies of them. Panics when `T` exceeds [`MAX_TIMESTEPS`].
    pub fn from_tensor(spikes: &SpikeTensor) -> Self {
        let timesteps = spikes.timesteps();
        assert!(
            timesteps <= MAX_TIMESTEPS,
            "timesteps {timesteps} exceed the packed-word limit {MAX_TIMESTEPS}"
        );
        let row_words = spikes.k().div_ceil(64);
        let stride = row_words * (timesteps + 1);
        let mut words = vec![0u64; spikes.m() * stride];
        for m in 0..spikes.m() {
            let (mask, planes) = words[m * stride..(m + 1) * stride].split_at_mut(row_words);
            for (t, plane) in spikes.planes().iter().enumerate() {
                let row = plane.row(m).words();
                planes[t * row_words..(t + 1) * row_words].copy_from_slice(row);
                for (w, &bits) in mask.iter_mut().zip(row) {
                    *w |= bits;
                }
            }
        }
        RowBlocks {
            rows: spikes.m(),
            row_words,
            planes: timesteps,
            words,
        }
    }

    /// Builds a plane-less layout (mask words only) from plain row
    /// bitmasks — the `A` side of single-pass ANN models.
    ///
    /// # Panics
    ///
    /// Panics when the masks have unequal lengths.
    pub fn from_masks(masks: &[Bitmask]) -> Self {
        let k = masks.first().map(Bitmask::len).unwrap_or(0);
        let row_words = k.div_ceil(64);
        let mut words = vec![0u64; masks.len() * row_words];
        for (m, mask) in masks.iter().enumerate() {
            assert_eq!(mask.len(), k, "row masks must share the K dimension");
            words[m * row_words..m * row_words + mask.words().len()].copy_from_slice(mask.words());
        }
        RowBlocks {
            rows: masks.len(),
            row_words,
            planes: 0,
            words,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Words per row of one plane (or of the mask).
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// Number of per-timestep planes (0 for mask-only layouts).
    pub fn planes(&self) -> usize {
        self.planes
    }

    fn stride(&self) -> usize {
        self.row_words * (self.planes + 1)
    }

    /// Mask words of row `m`.
    pub fn mask(&self, m: usize) -> &[u64] {
        let base = m * self.stride();
        &self.words[base..base + self.row_words]
    }

    /// Plane-row words of row `m` at timestep `t`.
    pub fn plane(&self, m: usize, t: usize) -> &[u64] {
        assert!(t < self.planes, "plane {t} out of range {}", self.planes);
        let base = m * self.stride() + (t + 1) * self.row_words;
        &self.words[base..base + self.row_words]
    }

    /// The full contiguous block of row `m`: mask words then plane rows.
    pub fn block(&self, m: usize) -> &[u64] {
        let stride = self.stride();
        &self.words[m * stride..(m + 1) * stride]
    }
}

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

/// Which cycle model the per-column worst-TPPE drain uses.
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

/// One tile's worth of pure-compute results, consumed by the sequential
/// traffic phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TileSweep {
    /// Rows covered by this tile.
    pub rows: Range<usize>,
    /// Per-pair match counts, column-major over the tile:
    /// `matches[n * rows.len() + r]` is row `rows.start + r` against
    /// fiber-B `n`.
    pub matches: Vec<u32>,
    /// Per-column worst-TPPE drain cycles (the synchronous-broadcast
    /// barrier), already including the per-pair tail of the active
    /// [`SweepMode`].
    pub worst: Vec<u64>,
    /// Σ matches over the tile's pairs.
    pub matches_total: u64,
    /// Σ FIFO-backpressure stalls over the tile's pairs.
    pub stall_total: u64,
    /// Σ laggy-circuit chunk activations over the tile's pairs.
    pub laggy_chunk_total: u64,
    /// Σ fired bits over the tile's pairs (only filled by sweeps that read
    /// the plane rows; the temporal-parallel kernel leaves it zero and the
    /// caller uses [`fired_grand_total`]).
    pub fired_total: u64,
}

/// The pure pair-intersection kernel of one layer sweep.
///
/// # Examples
///
/// ```
/// use loas_core::kernel::{PairSweepKernel, RowBlocks};
/// use loas_snn::SpikeTensor;
/// use loas_sparse::PackedSpikes;
///
/// let row = vec![PackedSpikes::from_bits(0b0101, 4).unwrap(); 8];
/// let blocks = RowBlocks::from_tensor(&SpikeTensor::from_packed_rows(&[row], 4).unwrap());
/// let kernel = PairSweepKernel::new(128, Some(8));
/// let b = loas_sparse::Bitmask::from_indices(8, &[1, 5]).unwrap();
/// let counts = kernel.pair_counts(&blocks, 0, b.words());
/// assert_eq!(counts.matches, 2);
/// assert_eq!(counts.fired, 4); // two matches firing at two timesteps each
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSweepKernel {
    chunk_words: usize,
    fifo: u64,
    /// Whether the host CPU has a hardware popcount — detected once at
    /// construction so the per-pair loops pay no dispatch cost.
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
    /// words). Dispatches to a hardware-popcount build of the same loop
    /// when the CPU has one (the portable `count_ones` lowers to a ~12-op
    /// SWAR sequence on baseline x86-64, which dominates the sweep).
    #[inline]
    fn mask_counts(&self, a: &[u64], b: &[u64]) -> (u64, u64, u64) {
        #[cfg(target_arch = "x86_64")]
        if self.popcnt {
            // SAFETY: `popcnt` was set by the runtime feature check.
            return unsafe { self.mask_counts_popcnt(a, b) };
        }
        self.mask_counts_portable(a, b)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn mask_counts_popcnt(&self, a: &[u64], b: &[u64]) -> (u64, u64, u64) {
        self.mask_counts_portable(a, b)
    }

    /// The dispatch target: `#[inline(always)]` so the body re-compiles
    /// inside the `target_feature` wrapper with hardware popcount.
    #[inline(always)]
    fn mask_counts_portable(&self, a: &[u64], b: &[u64]) -> (u64, u64, u64) {
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
    /// counts, in one linear pass over the row's contiguous block.
    pub fn pair_counts(&self, blocks: &RowBlocks, m: usize, b: &[u64]) -> PairCounts {
        debug_assert_eq!(blocks.row_words(), b.len(), "fiber-B word count");
        let (matches, stalls, laggy_chunks) = self.mask_counts(blocks.mask(m), b);
        let mut counts = PairCounts {
            matches,
            chunks: self.chunks_for(blocks.row_words().max(b.len())),
            stalls,
            laggy_chunks,
            fired: 0,
            t_counts: [0; MAX_TIMESTEPS],
        };
        for t in 0..blocks.planes() {
            let fired_t = self.and_count(blocks.plane(m, t), b);
            counts.t_counts[t] = fired_t as u32;
            counts.fired += fired_t;
        }
        counts
    }

    /// `|a ∧ b|` over word slices, through the construction-time popcount
    /// dispatch.
    #[inline]
    fn and_count(&self, a: &[u64], b: &[u64]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if self.popcnt {
            // SAFETY: `popcnt` was set by the runtime feature check.
            return unsafe { and_count_words_popcnt(a, b) };
        }
        and_count_words_portable(a, b)
    }

    /// Sweeps one row tile against every fiber-B: the pure compute phase of
    /// a layer. Fiber-B words are hoisted once per column and streamed over
    /// the tile's contiguous row blocks.
    pub fn sweep_tile(
        &self,
        blocks: &RowBlocks,
        rows: Range<usize>,
        b_words: &[&[u64]],
        mode: SweepMode,
    ) -> TileSweep {
        let row_count = rows.len();
        let chunks = self.chunks_for(blocks.row_words());
        let mut sweep = TileSweep {
            rows: rows.clone(),
            matches: vec![0u32; row_count * b_words.len()],
            worst: vec![0u64; b_words.len()],
            ..TileSweep::default()
        };
        for (n, b) in b_words.iter().enumerate() {
            debug_assert_eq!(blocks.row_words(), b.len(), "fiber-B word count");
            let mut worst = 0u64;
            for (r, m) in rows.clone().enumerate() {
                match mode {
                    SweepMode::TemporalParallel => {
                        let (matches, stalls, laggy) = self.mask_counts(blocks.mask(m), b);
                        sweep.matches[n * row_count + r] = matches as u32;
                        sweep.matches_total += matches;
                        sweep.stall_total += stalls;
                        sweep.laggy_chunk_total += laggy;
                        worst = worst.max(chunks.max(matches + stalls) + 1);
                    }
                    SweepMode::SequentialT => {
                        let counts = self.pair_counts(blocks, m, b);
                        sweep.matches[n * row_count + r] = counts.matches as u32;
                        sweep.matches_total += counts.matches;
                        sweep.stall_total += counts.stalls;
                        sweep.laggy_chunk_total += counts.laggy_chunks;
                        sweep.fired_total += counts.fired;
                        let mut drain = 0u64;
                        for &fired_t in &counts.t_counts[..blocks.planes()] {
                            drain += chunks.max(fired_t as u64) + 1;
                        }
                        worst = worst.max(drain);
                    }
                }
            }
            sweep.worst[n] = worst;
        }
        sweep
    }

    /// Sweeps a whole layer tile by tile, fanning the tiles out over
    /// `workers` scoped threads (`1` runs inline). Tiles are claimed off a
    /// shared counter but each worker writes its own pre-allocated slot, so
    /// the returned tile order — and therefore every downstream report —
    /// is identical for any worker count.
    pub fn sweep_layer(
        &self,
        blocks: &RowBlocks,
        b_words: &[&[u64]],
        tile_rows: usize,
        mode: SweepMode,
        workers: usize,
    ) -> Vec<TileSweep> {
        assert!(tile_rows > 0, "tile height must be positive");
        let tiles: Vec<Range<usize>> = (0..blocks.rows())
            .step_by(tile_rows)
            .map(|start| start..(start + tile_rows).min(blocks.rows()))
            .collect();
        let workers = workers.max(1).min(tiles.len().max(1));
        if workers <= 1 {
            return tiles
                .into_iter()
                .map(|rows| self.sweep_tile(blocks, rows, b_words, mode))
                .collect();
        }
        let slots: Vec<OnceLock<TileSweep>> = (0..tiles.len()).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(rows) = tiles.get(index) else {
                        break;
                    };
                    let sweep = self.sweep_tile(blocks, rows.clone(), b_words, mode);
                    slots[index].set(sweep).expect("each tile is claimed once");
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("all tiles swept"))
            .collect()
    }
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn and_count_words_popcnt(a: &[u64], b: &[u64]) -> u64 {
    and_count_words_portable(a, b)
}

#[inline(always)]
fn and_count_words_portable(a: &[u64], b: &[u64]) -> u64 {
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
pub(crate) mod tests {
    use super::*;
    use loas_sparse::{PackedSpikes, SpikeFiber};
    use proptest::prelude::*;

    fn fiber(words: &[(usize, u16)], k: usize, t: usize) -> SpikeFiber {
        let mut row = vec![PackedSpikes::silent(t).unwrap(); k];
        for &(pos, bits) in words {
            row[pos] = PackedSpikes::from_bits(bits, t).unwrap();
        }
        SpikeFiber::from_packed_row(&row)
    }

    /// The layout built from `K`-wide row fibers: each fiber's bitmask
    /// becomes the mask words and its packed words are scattered bit by
    /// bit into `timesteps` plane rows (the reference for
    /// [`RowBlocks::from_tensor`]).
    pub(crate) fn row_blocks_from_fibers(
        fibers: &[SpikeFiber],
        k: usize,
        timesteps: usize,
    ) -> RowBlocks {
        let row_words = k.div_ceil(64);
        let stride = row_words * (timesteps + 1);
        let mut words = vec![0u64; fibers.len() * stride];
        for (m, fiber) in fibers.iter().enumerate() {
            assert_eq!(fiber.len(), k, "row fibers must share the K dimension");
            let base = m * stride;
            words[base..base + row_words].copy_from_slice(fiber.bitmask().words());
            for (k_pos, packed) in fiber.iter() {
                let (word, bit) = (k_pos / 64, k_pos % 64);
                for t in packed.firing_timesteps() {
                    words[base + (t + 1) * row_words + word] |= 1u64 << bit;
                }
            }
        }
        RowBlocks {
            rows: fibers.len(),
            row_words,
            planes: timesteps,
            words,
        }
    }

    /// A pseudo-random `m x k x t` spike tensor with about `density_pct`%
    /// of its bits set.
    pub(crate) fn random_tensor(
        (m, k, t): (usize, usize, usize),
        seed: u64,
        density_pct: u64,
    ) -> SpikeTensor {
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

    fn blocks(fibers: &[SpikeFiber]) -> RowBlocks {
        let k = fibers.first().map_or(0, SpikeFiber::len);
        row_blocks_from_fibers(fibers, k, 4)
    }

    proptest! {
        #[test]
        fn tensor_blocks_match_fiber_reference(
            shape in (0usize..6, 0usize..200, 1usize..=16),
            seed in any::<u64>(),
            density in 0u64..100,
        ) {
            let a = random_tensor(shape, seed, density);
            let (_, k, t) = shape;
            let per_bit: Vec<SpikeFiber> = (0..a.m())
                .map(|m| {
                    let row: Vec<PackedSpikes> = (0..k).map(|ki| a.packed_word(m, ki)).collect();
                    SpikeFiber::from_packed_row(&row)
                })
                .collect();
            prop_assert_eq!(RowBlocks::from_tensor(&a), row_blocks_from_fibers(&per_bit, k, t));
        }
    }

    #[test]
    fn row_blocks_mirror_fiber_and_planes() {
        let fibers = vec![
            fiber(&[(0, 0b0110), (130, 0b1111)], 200, 4),
            fiber(&[(64, 0b0001)], 200, 4),
        ];
        let blocks = blocks(&fibers);
        assert_eq!(blocks.rows(), 2);
        assert_eq!(blocks.row_words(), 4);
        assert_eq!(blocks.planes(), 4);
        for (m, f) in fibers.iter().enumerate() {
            assert_eq!(blocks.mask(m), f.bitmask().words());
        }
        // Plane bits: row 0 fires at k=0 for t in {1,2} and k=130 for all t.
        assert_eq!(blocks.plane(0, 0)[0], 0);
        assert_eq!(blocks.plane(0, 1)[0], 1);
        assert_eq!(blocks.plane(0, 1)[2], 1 << 2);
        assert_eq!(blocks.plane(1, 0)[1], 1);
        assert_eq!(blocks.plane(1, 1)[1], 0);
        assert_eq!(blocks.block(0).len(), 4 * 5);
    }

    #[test]
    fn pair_counts_match_bitmask_ops() {
        let f = fiber(&[(0, 0b0110), (5, 0b1111), (130, 0b0001)], 200, 4);
        let blocks = blocks(std::slice::from_ref(&f));
        let b = Bitmask::from_indices(200, &[0, 5, 131]).unwrap();
        let kernel = PairSweepKernel::new(128, Some(8));
        let counts = kernel.pair_counts(&blocks, 0, b.words());
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
        let blocks = RowBlocks::from_masks(&[Bitmask::zeros(0)]);
        let kernel = PairSweepKernel::new(128, Some(8));
        let counts = kernel.pair_counts(&blocks, 0, &[]);
        assert_eq!(counts.matches, 0);
        assert_eq!(counts.chunks, 1);
    }

    #[test]
    fn unbounded_fifo_never_stalls() {
        let positions: Vec<(usize, u16)> = (0..30).map(|i| (i, 1u16)).collect();
        let f = fiber(&positions, 64, 4);
        let blocks = blocks(std::slice::from_ref(&f));
        let b = Bitmask::ones(64);
        let bounded = PairSweepKernel::new(128, Some(8)).pair_counts(&blocks, 0, b.words());
        let unbounded = PairSweepKernel::new(128, None).pair_counts(&blocks, 0, b.words());
        assert_eq!(bounded.stalls, 22);
        assert_eq!(unbounded.stalls, 0);
        assert_eq!(bounded.matches, unbounded.matches);
    }

    #[test]
    fn sweep_layer_is_worker_count_invariant() {
        let fibers: Vec<SpikeFiber> = (0..13)
            .map(|m| fiber(&[(m * 7 % 90, 0b1010), (m * 13 % 90, 0b0111)], 90, 4))
            .collect();
        let blocks = blocks(&fibers);
        let b_masks: Vec<Bitmask> = (0..5)
            .map(|n| Bitmask::from_indices(90, &[n * 11 % 90, n * 17 % 90, 3]).unwrap())
            .collect();
        let b_words: Vec<&[u64]> = b_masks.iter().map(|b| b.words()).collect();
        let kernel = PairSweepKernel::new(128, Some(8));
        let reference = kernel.sweep_layer(&blocks, &b_words, 4, SweepMode::TemporalParallel, 1);
        assert_eq!(reference.len(), 4);
        for workers in [2, 4, 8] {
            let swept =
                kernel.sweep_layer(&blocks, &b_words, 4, SweepMode::TemporalParallel, workers);
            assert_eq!(swept, reference, "workers={workers}");
        }
        for workers in [1, 2, 4] {
            let seq = kernel.sweep_layer(&blocks, &b_words, 4, SweepMode::SequentialT, workers);
            assert_eq!(
                seq,
                kernel.sweep_layer(&blocks, &b_words, 4, SweepMode::SequentialT, 1),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn fired_grand_total_matches_per_pair_sweep() {
        let fibers: Vec<SpikeFiber> = (0..6)
            .map(|m| fiber(&[(m * 5 % 70, 0b1100), ((m * 9 + 2) % 70, 0b0011)], 70, 4))
            .collect();
        let blocks = blocks(&fibers);
        let b_masks: Vec<Bitmask> = (0..4)
            .map(|n| Bitmask::from_indices(70, &[n * 3, n * 7 + 1, 12]).unwrap())
            .collect();
        let b_words: Vec<&[u64]> = b_masks.iter().map(|b| b.words()).collect();
        let kernel = PairSweepKernel::new(128, Some(8));
        let per_pair: u64 = kernel
            .sweep_layer(&blocks, &b_words, 16, SweepMode::SequentialT, 1)
            .iter()
            .map(|tile| tile.fired_total)
            .sum();
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

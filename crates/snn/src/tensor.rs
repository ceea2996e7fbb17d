//! The spike tensor `A ∈ {0,1}^{M×K×T}` and its sparsity statistics.
//!
//! The tensor is stored as one bit-plane per timestep (the "unpacked real
//! data" view of Fig. 8) and exposes the packed per-neuron view ("packed
//! real data") that LoAS's compression operates on.

use crate::error::SnnError;
use loas_sparse::{BitMatrix, Bitmask, PackedSpikes, SpikeFiber, MAX_TIMESTEPS};

/// A binary spike tensor of shape `M × K × T`.
///
/// # Examples
///
/// ```
/// use loas_snn::SpikeTensor;
///
/// let mut a = SpikeTensor::zeros(2, 3, 4);
/// a.set(0, 1, 2, true);
/// assert!(a.get(0, 1, 2));
/// assert_eq!(a.packed_word(0, 1).fire_count(), 1);
/// assert_eq!(a.spike_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeTensor {
    m: usize,
    k: usize,
    timesteps: usize,
    planes: Vec<BitMatrix>,
}

impl SpikeTensor {
    /// Creates an all-zero spike tensor.
    pub fn zeros(m: usize, k: usize, timesteps: usize) -> Self {
        SpikeTensor {
            m,
            k,
            timesteps,
            planes: (0..timesteps).map(|_| BitMatrix::zeros(m, k)).collect(),
        }
    }

    /// Builds a tensor from packed per-neuron words, row-major (`rows[m][k]`).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] when rows have unequal lengths.
    pub fn from_packed_rows(
        rows: &[Vec<PackedSpikes>],
        timesteps: usize,
    ) -> Result<Self, SnnError> {
        let m = rows.len();
        let k = rows.first().map(Vec::len).unwrap_or(0);
        let mut tensor = SpikeTensor::zeros(m, k, timesteps);
        for (mi, row) in rows.iter().enumerate() {
            if row.len() != k {
                return Err(SnnError::ShapeMismatch {
                    expected: k,
                    actual: row.len(),
                    dimension: "K",
                });
            }
            for (ki, word) in row.iter().enumerate() {
                for t in word.firing_timesteps() {
                    if t >= timesteps {
                        return Err(SnnError::ShapeMismatch {
                            expected: timesteps,
                            actual: t + 1,
                            dimension: "T",
                        });
                    }
                    tensor.set(mi, ki, t, true);
                }
            }
        }
        Ok(tensor)
    }

    /// Number of rows `M` (output pixels / batch positions).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of columns `K` (pre-synaptic neurons).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of timesteps `T`.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// The spike at `(m, k, t)`.
    ///
    /// # Panics
    ///
    /// Panics when any coordinate is out of range.
    pub fn get(&self, m: usize, k: usize, t: usize) -> bool {
        assert!(
            t < self.timesteps,
            "timestep {t} out of range {}",
            self.timesteps
        );
        self.planes[t].get(m, k)
    }

    /// Sets the spike at `(m, k, t)`.
    ///
    /// # Panics
    ///
    /// Panics when any coordinate is out of range.
    pub fn set(&mut self, m: usize, k: usize, t: usize, value: bool) {
        assert!(
            t < self.timesteps,
            "timestep {t} out of range {}",
            self.timesteps
        );
        self.planes[t].set(m, k, value);
    }

    /// The spike plane of timestep `t` (`A[·,·,t]`).
    ///
    /// # Panics
    ///
    /// Panics when `t >= T`.
    pub fn plane(&self, t: usize) -> &BitMatrix {
        assert!(
            t < self.timesteps,
            "timestep {t} out of range {}",
            self.timesteps
        );
        &self.planes[t]
    }

    /// All planes in timestep order.
    pub fn planes(&self) -> &[BitMatrix] {
        &self.planes
    }

    /// The packed word of pre-synaptic neuron `(m, k)` across all timesteps.
    ///
    /// # Panics
    ///
    /// Panics when out of range or when `T > 16`.
    pub fn packed_word(&self, m: usize, k: usize) -> PackedSpikes {
        let mut word = PackedSpikes::silent(self.timesteps).expect("T bounded by MAX_TIMESTEPS");
        for (t, plane) in self.planes.iter().enumerate() {
            if plane.get(m, k) {
                word.set(t, true);
            }
        }
        word
    }

    /// All row fibers, in row order: each row's non-silent mask (the OR of
    /// its plane rows), plus a packed word for each neuron it keeps,
    /// gathered from the `T` plane words of the neuron's 64-neuron word.
    /// Panics when `T > 16`.
    pub fn to_row_fibers(&self) -> Vec<SpikeFiber> {
        let t = self.timesteps;
        assert!(t <= MAX_TIMESTEPS, "{t} timesteps exceed {MAX_TIMESTEPS}");
        (0..self.m)
            .map(|m| {
                let rows: Vec<&[u64]> = self.planes.iter().map(|p| p.row(m).words()).collect();
                let mask: Vec<u64> = (0..self.k.div_ceil(64))
                    .map(|w| rows.iter().fold(0, |any, row| any | row[w]))
                    .collect();
                let nonsilent = mask.iter().map(|w| w.count_ones() as usize).sum();
                let mut words = Vec::with_capacity(nonsilent);
                for (w, &word_mask) in mask.iter().enumerate() {
                    let mut planes = [0u64; MAX_TIMESTEPS];
                    planes[..t]
                        .iter_mut()
                        .zip(&rows)
                        .for_each(|(p, row)| *p = row[w]);
                    let mut rest = word_mask;
                    while rest != 0 {
                        let bit = rest.trailing_zeros();
                        let bits = (planes[..t].iter().rev())
                            .fold(0, |acc, plane| acc << 1 | (plane >> bit & 1) as u16);
                        words.push(PackedSpikes::from_bits(bits, t).expect("T at most 16"));
                        rest &= rest - 1;
                    }
                }
                SpikeFiber::from_parts(Bitmask::from_words(self.k, mask), words)
                    .expect("one word per non-silent neuron")
            })
            .collect()
    }

    /// The bitmask over neurons of row `m` firing more than `max_fires`
    /// times: a bit-sliced saturating counter over the plane words, where
    /// `above[j]` holds the neurons seen firing more than `j` times so far.
    pub(crate) fn fires_above_mask(&self, m: usize, max_fires: usize) -> Bitmask {
        let words = self.k.div_ceil(64);
        let mut above = vec![vec![0u64; words]; max_fires.min(self.timesteps) + 1];
        for row in self.planes.iter().map(|plane| plane.row(m).words()) {
            for j in (0..above.len()).rev() {
                for w in 0..words {
                    let below = if j == 0 { u64::MAX } else { above[j - 1][w] };
                    above[j][w] |= below & row[w];
                }
            }
        }
        Bitmask::from_words(self.k, above.pop().unwrap_or_default())
    }

    /// Builds a tensor from plane words, rows in order: `fill(m, words)`
    /// sets row `m`'s spikes in a zeroed buffer of its `T` plane rows, each
    /// `K.div_ceil(64)` words (neuron `k` is bit `k % 64` of word `k / 64`
    /// of a row). Bits past `K` are dropped.
    pub fn from_row_words(
        m: usize,
        k: usize,
        timesteps: usize,
        mut fill: impl FnMut(usize, &mut [u64]),
    ) -> Self {
        let row_words = k.div_ceil(64);
        let mut rows = vec![Vec::new(); timesteps];
        let mut buffer = vec![0u64; timesteps * row_words];
        for mi in 0..m {
            buffer.fill(0);
            fill(mi, &mut buffer);
            for (t, plane) in rows.iter_mut().enumerate() {
                plane.push(Bitmask::from_words(
                    k,
                    buffer[t * row_words..][..row_words].to_vec(),
                ));
            }
        }
        let planes = rows
            .into_iter()
            .map(|r| BitMatrix::from_rows(k, r))
            .collect();
        SpikeTensor {
            m,
            k,
            timesteps,
            planes,
        }
    }

    /// Total number of spikes across the whole tensor.
    pub fn spike_count(&self) -> usize {
        self.planes.iter().map(BitMatrix::popcount).sum()
    }

    /// The paper's `AvSpA-origin`: fraction of zero bits across all `M·K·T`
    /// positions.
    pub fn origin_sparsity(&self) -> f64 {
        let total = self.m * self.k * self.timesteps;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.spike_count() as f64 / total as f64
    }

    /// Number of silent neurons (packed word all zero).
    pub fn silent_count(&self) -> usize {
        let nonsilent: usize = (0..self.m)
            .map(|m| self.fires_above_mask(m, 0).popcount())
            .sum();
        self.m * self.k - nonsilent
    }

    /// The paper's `AvSpA-packed`: fraction of silent neurons among all
    /// `M·K` packed positions ("the density of silent neurons" in Table II's
    /// caption — the fraction of packed words that are zero).
    pub fn packed_sparsity(&self) -> f64 {
        let total = self.m * self.k;
        if total == 0 {
            return 0.0;
        }
        self.silent_count() as f64 / total as f64
    }

    /// Average number of spikes per *non-silent* neuron — the factor by
    /// which sequential-timestep inner-joins redo work relative to FTP.
    pub fn mean_fires_per_nonsilent(&self) -> f64 {
        let nonsilent = self.m * self.k - self.silent_count();
        if nonsilent == 0 {
            return 0.0;
        }
        self.spike_count() as f64 / nonsilent as f64
    }
}

/// A pseudo-random `m x k x t` tensor with about `density_pct`% of its
/// bits set, for property tests.
#[cfg(test)]
pub(crate) fn random_tensor(
    (m, k, t): (usize, usize, usize),
    seed: u64,
    density_pct: u64,
) -> SpikeTensor {
    let mut state = seed;
    let mut a = SpikeTensor::zeros(m, k, t);
    for mi in 0..m {
        for ki in 0..k {
            for ti in 0..t {
                // splitmix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                if (z ^ (z >> 31)) % 100 < density_pct {
                    a.set(mi, ki, ti, true);
                }
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-bit row fibers: every packed word read bit by bit, silent
    /// ones dropped (the reference for [`SpikeTensor::to_row_fibers`]).
    fn row_fibers_per_bit(a: &SpikeTensor) -> Vec<SpikeFiber> {
        (0..a.m())
            .map(|m| {
                let row: Vec<PackedSpikes> = (0..a.k()).map(|k| a.packed_word(m, k)).collect();
                SpikeFiber::from_packed_row(&row)
            })
            .collect()
    }

    /// The per-bit count of neurons firing more than `max_fires` times.
    fn fires_above_per_bit(a: &SpikeTensor, m: usize, max_fires: usize) -> Bitmask {
        Bitmask::from_bools((0..a.k()).map(|k| a.packed_word(m, k).fire_count() > max_fires))
    }

    proptest! {
        #[test]
        fn word_level_views_match_per_bit_reference(
            shape in (0usize..6, 0usize..200, 1usize..=16),
            seed in any::<u64>(),
            density in 0u64..100,
            max_fires in 0usize..=2,
        ) {
            let a = random_tensor(shape, seed, density);
            prop_assert_eq!(a.to_row_fibers(), row_fibers_per_bit(&a));
            for m in 0..a.m() {
                prop_assert_eq!(
                    a.fires_above_mask(m, max_fires),
                    fires_above_per_bit(&a, m, max_fires)
                );
            }
            let silent = (0..a.m())
                .map(|m| (0..a.k()).filter(|&k| a.packed_word(m, k).is_silent()).count())
                .sum::<usize>();
            prop_assert_eq!(a.silent_count(), silent);
        }

        #[test]
        fn from_row_words_matches_per_bit_sets(
            shape in (0usize..6, 0usize..200, 1usize..=16),
            seed in any::<u64>(),
            density in 0u64..100,
        ) {
            let a = random_tensor(shape, seed, density);
            let row_words = a.k().div_ceil(64);
            let rebuilt = SpikeTensor::from_row_words(a.m(), a.k(), a.timesteps(), |m, words| {
                for t in 0..a.timesteps() {
                    words[t * row_words..(t + 1) * row_words]
                        .copy_from_slice(a.plane(t).row(m).words());
                }
            });
            prop_assert_eq!(rebuilt, a);
        }
    }

    fn sample() -> SpikeTensor {
        let mut a = SpikeTensor::zeros(2, 3, 4);
        // neuron (0,0): fires t0, t2
        a.set(0, 0, 0, true);
        a.set(0, 0, 2, true);
        // neuron (0,2): fires t1
        a.set(0, 2, 1, true);
        // neuron (1,1): fires all timesteps
        for t in 0..4 {
            a.set(1, 1, t, true);
        }
        a
    }

    #[test]
    fn get_set_roundtrip() {
        let a = sample();
        assert!(a.get(0, 0, 0));
        assert!(!a.get(0, 0, 1));
        assert!(a.get(1, 1, 3));
    }

    #[test]
    fn packed_word_matches_planes() {
        let a = sample();
        let w = a.packed_word(0, 0);
        assert_eq!(w.to_vec(), vec![true, false, true, false]);
        assert!(a.packed_word(0, 1).is_silent());
        assert!(a.packed_word(1, 1).is_all_ones());
    }

    #[test]
    fn sparsity_statistics() {
        let a = sample();
        // 7 spikes over 2*3*4 = 24 positions.
        assert_eq!(a.spike_count(), 7);
        assert!((a.origin_sparsity() - (1.0 - 7.0 / 24.0)).abs() < 1e-12);
        // silent neurons: (0,1), (1,0), (1,2) -> 3 of 6.
        assert_eq!(a.silent_count(), 3);
        assert!((a.packed_sparsity() - 0.5).abs() < 1e-12);
        // 7 spikes over 3 non-silent neurons.
        assert!((a.mean_fires_per_nonsilent() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_fiber_drops_silent() {
        let a = sample();
        let fiber = &a.to_row_fibers()[0];
        assert_eq!(fiber.nnz(), 2);
        assert_eq!(fiber.bitmask().iter_ones().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(fiber.values()[0], a.packed_word(0, 0));
        assert_eq!(a.fires_above_mask(0, 0), *fiber.bitmask());
    }

    #[test]
    fn from_row_words_drops_bits_past_k() {
        let a = SpikeTensor::from_row_words(1, 3, 2, |_, words| words.fill(u64::MAX));
        assert_eq!(a.spike_count(), 6);
        assert_eq!(a.plane(1).row(0).words(), &[0b111]);
    }

    #[test]
    fn packed_rows_roundtrip() {
        let a = sample();
        let rows: Vec<Vec<PackedSpikes>> = (0..a.m())
            .map(|m| (0..a.k()).map(|k| a.packed_word(m, k)).collect())
            .collect();
        let rebuilt = SpikeTensor::from_packed_rows(&rows, 4).unwrap();
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn empty_tensor_statistics_are_zero() {
        let a = SpikeTensor::zeros(0, 0, 0);
        assert_eq!(a.origin_sparsity(), 0.0);
        assert_eq!(a.packed_sparsity(), 0.0);
        assert_eq!(a.mean_fires_per_nonsilent(), 0.0);
    }
}

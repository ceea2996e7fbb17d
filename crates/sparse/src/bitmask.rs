//! Fixed-width bitmasks backed by `u64` words.
//!
//! Bitmasks are the coordinate format used throughout LoAS and SparTen-style
//! inner-join designs: a row (or column) of a sparse matrix is described by a
//! bit string with `1`s at the positions of non-zero values. The inner-join
//! unit ANDs two bitmasks and converts the matched positions into memory
//! offsets with prefix-sum (`rank`) circuits.

use crate::error::SparseError;

const WORD_BITS: usize = 64;

/// A fixed-length sequence of bits backed by `u64` words.
///
/// # Examples
///
/// ```
/// use loas_sparse::Bitmask;
///
/// let mut bm = Bitmask::zeros(8);
/// bm.set(1, true);
/// bm.set(5, true);
/// assert_eq!(bm.popcount(), 2);
/// assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![1, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Bitmask {
    len: usize,
    words: Vec<u64>,
}

impl Bitmask {
    /// Creates an all-zero bitmask of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Bitmask {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Creates an all-one bitmask of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut bm = Bitmask {
            len,
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
        };
        bm.clear_tail();
        bm
    }

    /// Builds a bitmask from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0;
        for bit in bits {
            if len % WORD_BITS == 0 {
                words.push(0);
            }
            if bit {
                *words.last_mut().expect("word pushed above") |= 1 << (len % WORD_BITS);
            }
            len += 1;
        }
        Bitmask { len, words }
    }

    /// Builds a `len`-bit bitmask from its `len.div_ceil(64)` words
    /// (little-endian bit order, as [`Bitmask::words`]); bits at positions
    /// `>= len` are cleared. Panics on a wrong word count.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), len.div_ceil(WORD_BITS), "words for {len} bits");
        let mut bm = Bitmask { len, words };
        bm.clear_tail();
        bm
    }

    /// Builds a `len`-bit bitmask with ones at the given positions.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if any index is `>= len`.
    pub fn from_indices(len: usize, indices: &[usize]) -> Result<Self, SparseError> {
        let mut bm = Bitmask::zeros(len);
        for &i in indices {
            if i >= len {
                return Err(SparseError::IndexOutOfBounds { index: i, len });
            }
            bm.set(i, true);
        }
        Ok(bm)
    }

    /// Number of bits in the mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Sets the bit at `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let word = &mut self.words[index / WORD_BITS];
        let bit = 1u64 << (index % WORD_BITS);
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Number of set bits.
    pub fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits, in `[0, 1]`. Returns 0 for an empty mask.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.popcount() as f64 / self.len as f64
        }
    }

    /// Fraction of clear bits, in `[0, 1]` (the sparsity in the paper's
    /// `AvSp` notation). Returns 0 for an empty mask.
    pub fn sparsity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            1.0 - self.density()
        }
    }

    /// Bitwise AND of two equal-length masks (the inner-join AND-result).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when the lengths differ.
    pub fn and(&self, other: &Bitmask) -> Result<Bitmask, SparseError> {
        self.check_len(other)?;
        Ok(Bitmask {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        })
    }

    /// Number of positions where both masks have a set bit, without
    /// materialising the AND-result.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when the lengths differ.
    pub fn and_count(&self, other: &Bitmask) -> Result<usize, SparseError> {
        self.check_len(other)?;
        Ok(self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum())
    }

    /// Bitwise OR of two equal-length masks.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when the lengths differ.
    pub fn or(&self, other: &Bitmask) -> Result<Bitmask, SparseError> {
        self.check_len(other)?;
        Ok(Bitmask {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        })
    }

    /// Number of set bits strictly before `index` (exclusive rank).
    ///
    /// This is exactly the quantity the prefix-sum circuits of SparTen and
    /// LoAS compute: the memory offset of the non-zero value whose coordinate
    /// bit sits at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > len` (equality is allowed and returns the total
    /// popcount).
    pub fn rank(&self, index: usize) -> usize {
        assert!(
            index <= self.len,
            "rank index {index} out of range {}",
            self.len
        );
        let full_words = index / WORD_BITS;
        let mut count: usize = self.words[..full_words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let rem = index % WORD_BITS;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            count += (self.words[full_words] & mask).count_ones() as usize;
        }
        count
    }

    /// Position of the `i`-th set bit (0-based), or `None` if fewer than
    /// `i + 1` bits are set.
    pub fn select(&self, i: usize) -> Option<usize> {
        let mut remaining = i;
        for (w, &word) in self.words.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if remaining < ones {
                let mut word = word;
                for _ in 0..remaining {
                    word &= word - 1; // clear lowest set bit
                }
                return Some(w * WORD_BITS + word.trailing_zeros() as usize);
            }
            remaining -= ones;
        }
        None
    }

    /// Iterator over the positions of set bits, in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            mask: self,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Underlying words (little-endian bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Per-chunk AND-popcounts of two masks streamed `chunk_words` words at
    /// a time — the quantity an inner-join circuit's priority encoder sees
    /// per bitmask chunk. Missing words (when the masks have different word
    /// counts) read as zero, and at least one chunk is always yielded, so a
    /// pair of empty masks still models one scan cycle.
    pub fn chunked_and_counts<'a>(
        &'a self,
        other: &'a Bitmask,
        chunk_words: usize,
    ) -> ChunkedAndCounts<'a> {
        chunked_and_counts(&self.words, &other.words, chunk_words)
    }

    /// Extracts bits `[start, start + width)` as a new bitmask. Bits past the
    /// end of the mask read as zero, so the final chunk of a stream is padded.
    pub fn slice(&self, start: usize, width: usize) -> Bitmask {
        let mut out = Bitmask::zeros(width);
        let end = (start + width).min(self.len);
        for (offset, i) in (start..end).enumerate() {
            if self.get(i) {
                out.set(offset, true);
            }
        }
        out
    }

    /// Storage footprint of the mask itself, in bits (1 bit per position, as
    /// in the paper's bitmask compression format).
    pub fn storage_bits(&self) -> usize {
        self.len
    }

    fn check_len(&self, other: &Bitmask) -> Result<(), SparseError> {
        if self.len != other.len {
            return Err(SparseError::DimensionMismatch {
                dimension: "bits",
                left: self.len,
                right: other.len,
            });
        }
        Ok(())
    }

    fn clear_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl FromIterator<bool> for Bitmask {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Bitmask::from_bools(iter)
    }
}

/// Per-chunk AND-popcounts over raw word slices (the slice-level form of
/// [`Bitmask::chunked_and_counts`], used by hot kernels that keep their
/// masks in structure-of-arrays layouts). Words past the end of either
/// slice read as zero; at least one chunk is always yielded.
///
/// # Panics
///
/// Panics when `chunk_words` is zero.
pub fn chunked_and_counts<'a>(
    a: &'a [u64],
    b: &'a [u64],
    chunk_words: usize,
) -> ChunkedAndCounts<'a> {
    assert!(chunk_words > 0, "chunk width must be positive");
    ChunkedAndCounts {
        a,
        b,
        words: a.len().max(b.len()),
        chunk_words,
        pos: 0,
        yielded: false,
    }
}

/// Iterator over per-chunk AND-popcounts, produced by
/// [`Bitmask::chunked_and_counts`] / [`chunked_and_counts`].
#[derive(Debug, Clone)]
pub struct ChunkedAndCounts<'a> {
    a: &'a [u64],
    b: &'a [u64],
    words: usize,
    chunk_words: usize,
    pos: usize,
    yielded: bool,
}

impl Iterator for ChunkedAndCounts<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.pos >= self.words && self.yielded {
            return None;
        }
        let end = (self.pos + self.chunk_words).min(self.words);
        // The overlap of both slices streams word pairs; the tail where one
        // slice has run out contributes nothing (zero AND anything).
        let lo = self.pos.min(self.a.len()).min(self.b.len());
        let hi = end.min(self.a.len()).min(self.b.len());
        let count = self.a[lo..hi]
            .iter()
            .zip(&self.b[lo..hi])
            .map(|(aw, bw)| (aw & bw).count_ones() as u64)
            .sum();
        self.pos = end;
        self.yielded = true;
        Some(count)
    }
}

/// Iterator over set-bit positions of a [`Bitmask`], produced by
/// [`Bitmask::iter_ones`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    mask: &'a Bitmask,
    word_index: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * WORD_BITS + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.mask.words.len() {
                return None;
            }
            self.current = self.mask.words[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmask::zeros(70);
        assert_eq!(z.len(), 70);
        assert_eq!(z.popcount(), 0);
        let o = Bitmask::ones(70);
        assert_eq!(o.popcount(), 70);
        assert!(o.get(69));
    }

    #[test]
    fn ones_clears_tail_bits() {
        let o = Bitmask::ones(65);
        assert_eq!(o.words()[1], 1);
        assert_eq!(o.popcount(), 65);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmask::zeros(130);
        bm.set(0, true);
        bm.set(64, true);
        bm.set(129, true);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1));
        bm.set(64, false);
        assert!(!bm.get(64));
        assert_eq!(bm.popcount(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmask::zeros(8).get(8);
    }

    #[test]
    fn from_indices_rejects_out_of_range() {
        let err = Bitmask::from_indices(4, &[5]).unwrap_err();
        assert_eq!(err, SparseError::IndexOutOfBounds { index: 5, len: 4 });
    }

    #[test]
    fn and_count_matches_and_popcount() {
        let a = Bitmask::from_indices(128, &[0, 5, 64, 100, 127]).unwrap();
        let b = Bitmask::from_indices(128, &[5, 63, 64, 127]).unwrap();
        let anded = a.and(&b).unwrap();
        assert_eq!(anded.popcount(), a.and_count(&b).unwrap());
        assert_eq!(anded.iter_ones().collect::<Vec<_>>(), vec![5, 64, 127]);
    }

    #[test]
    fn and_length_mismatch_errors() {
        let a = Bitmask::zeros(8);
        let b = Bitmask::zeros(9);
        assert!(matches!(
            a.and(&b),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rank_counts_strictly_before() {
        let bm = Bitmask::from_indices(128, &[3, 64, 65, 127]).unwrap();
        assert_eq!(bm.rank(0), 0);
        assert_eq!(bm.rank(3), 0);
        assert_eq!(bm.rank(4), 1);
        assert_eq!(bm.rank(65), 2);
        assert_eq!(bm.rank(128), 4);
    }

    #[test]
    fn select_inverts_rank() {
        let bm = Bitmask::from_indices(200, &[1, 7, 66, 150, 199]).unwrap();
        for (i, pos) in bm.iter_ones().enumerate() {
            assert_eq!(bm.select(i), Some(pos));
            assert_eq!(bm.rank(pos), i);
        }
        assert_eq!(bm.select(5), None);
    }

    #[test]
    fn slice_pads_past_end() {
        let bm = Bitmask::from_indices(10, &[0, 9]).unwrap();
        let chunk = bm.slice(8, 8);
        assert_eq!(chunk.len(), 8);
        assert_eq!(chunk.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn density_and_sparsity_sum_to_one() {
        let bm = Bitmask::from_indices(10, &[0, 1, 2]).unwrap();
        assert!((bm.density() - 0.3).abs() < 1e-12);
        assert!((bm.sparsity() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn from_bools_collect() {
        let bm: Bitmask = [true, false, true].into_iter().collect();
        assert_eq!(bm.len(), 3);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn chunked_and_counts_cover_all_words() {
        let a = Bitmask::from_indices(300, &[0, 1, 64, 129, 299]).unwrap();
        let b = Bitmask::from_indices(300, &[1, 64, 130, 299]).unwrap();
        // 5 words in 2-word chunks: 3 chunks, matches at 1, 64 (chunk 0)
        // and 299 (chunk 2).
        let counts: Vec<u64> = a.chunked_and_counts(&b, 2).collect();
        assert_eq!(counts, vec![2, 0, 1]);
        assert_eq!(
            counts.iter().sum::<u64>() as usize,
            a.and_count(&b).unwrap()
        );
    }

    #[test]
    fn chunked_and_counts_empty_masks_yield_one_chunk() {
        let a = Bitmask::zeros(0);
        let b = Bitmask::zeros(0);
        assert_eq!(a.chunked_and_counts(&b, 2).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn chunked_and_counts_pads_shorter_slice() {
        // Raw-slice form with unequal lengths: missing words read as zero.
        let counts: Vec<u64> = chunked_and_counts(&[u64::MAX, u64::MAX, 1], &[0b1011], 2).collect();
        assert_eq!(counts, vec![3, 0]);
    }

    #[test]
    #[should_panic(expected = "chunk width")]
    fn chunked_and_counts_rejects_zero_width() {
        let a = Bitmask::zeros(8);
        let _ = a.chunked_and_counts(&a, 0);
    }
}

//! Compressed fibers: bitmask + pointer + non-zero payload.
//!
//! A *fiber* (terminology from Gamma/Sparseloop, adopted by the paper) is one
//! compressed row or column of a sparse matrix. LoAS stores a fiber as a
//! bitmask marking non-zero coordinates, a pointer to the payload, and the
//! densely packed non-zero values (Fig. 8, step 3). Rows of the spike matrix
//! `A` carry [`PackedSpikes`] payloads; columns of the weight matrix `B`
//! carry `i8` payloads.

use crate::bitmask::Bitmask;
use crate::error::SparseError;
use crate::packed::PackedSpikes;

/// Bits used for the pointer field stored after each bitmask in the global
/// cache line layout (Section IV-D).
pub const POINTER_BITS: usize = 32;

/// A compressed fiber with coordinates in a [`Bitmask`] and payload values
/// stored densely in coordinate order.
///
/// # Examples
///
/// ```
/// use loas_sparse::Fiber;
///
/// let dense = [0i8, 3, 0, -2];
/// let fiber = Fiber::from_dense(&dense, |w| *w == 0);
/// assert_eq!(fiber.nnz(), 2);
/// assert_eq!(fiber.value_at(1), Some(&3));
/// assert_eq!(fiber.value_at(0), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fiber<V> {
    bitmask: Bitmask,
    values: Vec<V>,
}

impl<V> Fiber<V> {
    /// Builds a fiber from a dense slice, dropping elements for which
    /// `is_zero` returns true.
    pub fn from_dense(dense: &[V], is_zero: impl Fn(&V) -> bool) -> Self
    where
        V: Clone,
    {
        let mut bitmask = Bitmask::zeros(dense.len());
        let mut values = Vec::new();
        for (i, v) in dense.iter().enumerate() {
            if !is_zero(v) {
                bitmask.set(i, true);
                values.push(v.clone());
            }
        }
        Fiber { bitmask, values }
    }

    /// Builds a fiber from parts.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ValueCountMismatch`] when the number of values
    /// differs from the bitmask popcount.
    pub fn from_parts(bitmask: Bitmask, values: Vec<V>) -> Result<Self, SparseError> {
        if bitmask.popcount() != values.len() {
            return Err(SparseError::ValueCountMismatch {
                expected: bitmask.popcount(),
                actual: values.len(),
            });
        }
        Ok(Fiber { bitmask, values })
    }

    /// The coordinate bitmask.
    pub fn bitmask(&self) -> &Bitmask {
        &self.bitmask
    }

    /// The densely packed non-zero values, in coordinate order.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Uncompressed length of the fiber (number of coordinates).
    pub fn len(&self) -> usize {
        self.bitmask.len()
    }

    /// Whether the fiber covers zero coordinates.
    pub fn is_empty(&self) -> bool {
        self.bitmask.is_empty()
    }

    /// Number of stored non-zero values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The value at dense coordinate `k`, or `None` when that coordinate is
    /// zero. Lookup uses the bitmask `rank` — exactly the prefix-sum offset
    /// computation done in hardware.
    pub fn value_at(&self, k: usize) -> Option<&V> {
        if k < self.len() && self.bitmask.get(k) {
            Some(&self.values[self.bitmask.rank(k)])
        } else {
            None
        }
    }

    /// Iterator over `(coordinate, value)` pairs in ascending coordinate
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> + '_ {
        self.bitmask.iter_ones().zip(self.values.iter())
    }

    /// The fiber of the entries whose value `keep` accepts; the others
    /// become zero coordinates.
    pub fn filtered(&self, mut keep: impl FnMut(&V) -> bool) -> Self
    where
        V: Clone,
    {
        // Compacts in place without a branch per entry: every value is
        // written at the kept count, which only a kept value advances.
        let mut values = self.values.clone();
        let mut kept = 0;
        let mut next = self.values.iter();
        let words = (self.bitmask.words().iter())
            .map(|&word| {
                let (mut rest, mut kept_bits) = (word, 0);
                while rest != 0 {
                    let value = next.next().expect("one value per set bit");
                    let keeps = keep(value);
                    values[kept] = value.clone();
                    kept += keeps as usize;
                    kept_bits |= rest & rest.wrapping_neg() & (keeps as u64).wrapping_neg();
                    rest &= rest - 1;
                }
                kept_bits
            })
            .collect();
        values.truncate(kept);
        Fiber {
            bitmask: Bitmask::from_words(self.len(), words),
            values,
        }
    }

    /// Reconstructs the dense row, filling zeros with `zero`.
    pub fn to_dense(&self, zero: V) -> Vec<V>
    where
        V: Clone,
    {
        let mut out = vec![zero; self.len()];
        for (k, v) in self.iter() {
            out[k] = v.clone();
        }
        out
    }

    /// Storage footprint in bits: bitmask + pointer + payload
    /// (`bits_per_value` bits per non-zero). This is the quantity the
    /// traffic model charges when a fiber crosses a memory boundary.
    pub fn storage_bits(&self, bits_per_value: usize) -> usize {
        self.bitmask.storage_bits() + POINTER_BITS + self.nnz() * bits_per_value
    }
}

/// A compressed row of the spike matrix `A`: payload entries are the packed
/// `T`-bit spike words of the non-silent neurons (Fig. 8).
pub type SpikeFiber = Fiber<PackedSpikes>;

/// A compressed column of the weight matrix `B`: payload entries are signed
/// 8-bit weights (Table III).
pub type WeightFiber = Fiber<i8>;

impl SpikeFiber {
    /// Compresses one row of packed spike words, dropping silent neurons.
    pub fn from_packed_row(row: &[PackedSpikes]) -> Self {
        Fiber::from_dense(row, |w| w.is_silent())
    }
}

impl WeightFiber {
    /// Compresses one dense weight column/row, dropping zeros.
    pub fn from_weights(dense: &[i8]) -> Self {
        Fiber::from_dense(dense, |w| *w == 0)
    }
}

/// Fraction of zero positions across `fibers` (the paper's `AvSpB` for the
/// column fibers of `B`); 0 when they hold no positions.
pub fn zero_fraction<V>(fibers: &[Fiber<V>]) -> f64 {
    let positions: usize = fibers.iter().map(Fiber::len).sum();
    if positions == 0 {
        return 0.0;
    }
    let nnz: usize = fibers.iter().map(Fiber::nnz).sum();
    (positions - nnz) as f64 / positions as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_and_value_at() {
        let fiber = WeightFiber::from_weights(&[0, 7, 0, 0, -1, 2]);
        assert_eq!(fiber.nnz(), 3);
        assert_eq!(fiber.value_at(1), Some(&7));
        assert_eq!(fiber.value_at(4), Some(&-1));
        assert_eq!(fiber.value_at(5), Some(&2));
        assert_eq!(fiber.value_at(0), None);
        assert_eq!(fiber.value_at(99), None);
    }

    #[test]
    fn to_dense_roundtrip() {
        let dense = vec![0i8, 3, 0, -2, 0];
        let fiber = WeightFiber::from_weights(&dense);
        assert_eq!(fiber.to_dense(0), dense);
    }

    #[test]
    fn filtered_equals_filtering_the_dense_row() {
        // Values across word boundaries, kept and dropped in runs.
        let dense: Vec<i8> = (0..150).map(|i| [0, 3, -1, 0, 2, 5][i % 6]).collect();
        let fiber = WeightFiber::from_weights(&dense);
        let kept: Vec<i8> = dense.iter().map(|&w| if w > 1 { w } else { 0 }).collect();
        assert_eq!(fiber.filtered(|&w| w > 1), WeightFiber::from_weights(&kept));
    }

    #[test]
    fn from_parts_validates_count() {
        let bm = Bitmask::from_indices(4, &[0, 2]).unwrap();
        assert!(Fiber::from_parts(bm.clone(), vec![1i8]).is_err());
        let fiber = Fiber::from_parts(bm, vec![1i8, 2]).unwrap();
        assert_eq!(fiber.value_at(2), Some(&2));
    }

    #[test]
    fn spike_fiber_drops_silent_neurons() {
        // Fig. 8: row 0 of A = [1010, 0000, 0000, 0111] -> bitmask 1001
        // (positions 0 and 3 set), 2 payload words.
        let row = vec![
            PackedSpikes::from_bits(0b0101, 4).unwrap(), // fires t0,t2 (displayed 1010 in paper order)
            PackedSpikes::silent(4).unwrap(),
            PackedSpikes::silent(4).unwrap(),
            PackedSpikes::from_bits(0b1110, 4).unwrap(), // fires t1,t2,t3 (displayed 0111)
        ];
        let fiber = SpikeFiber::from_packed_row(&row);
        assert_eq!(fiber.nnz(), 2);
        assert_eq!(fiber.bitmask().iter_ones().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn storage_bits_accounting() {
        let fiber = WeightFiber::from_weights(&[0, 1, 2, 0]);
        // 4-bit mask + 32-bit pointer + 2 * 8-bit weights
        assert_eq!(fiber.storage_bits(8), 4 + POINTER_BITS + 16);
    }

    #[test]
    fn iter_yields_coordinate_order() {
        let fiber = WeightFiber::from_weights(&[0, 5, 0, 6]);
        let pairs: Vec<(usize, i8)> = fiber.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(pairs, vec![(1, 5), (3, 6)]);
    }

    #[test]
    fn zero_fraction_counts_every_position() {
        let columns = [
            WeightFiber::from_weights(&[0, 5, 0]),
            WeightFiber::from_weights(&[1, 0, 0]),
        ];
        assert!((zero_fraction(&columns) - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(zero_fraction::<i8>(&[]), 0.0);
        assert_eq!(zero_fraction(&[WeightFiber::from_weights(&[])]), 0.0);
    }
}

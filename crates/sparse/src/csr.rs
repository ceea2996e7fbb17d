//! The coordinate-list compressed format (CSR) with explicit coordinate
//! bit-widths.
//!
//! GoSPA-style accelerators compress each timestep's spike plane with CSR,
//! spending `ceil(log2(cols))` bits per non-zero coordinate. The paper's
//! Section IV-A example shows why this is wasteful for unary spikes: two
//! 4-bit coordinates to record two 1-bit spikes is a 25% compression
//! efficiency. These types exist so the baseline traffic models charge the
//! same format overhead the paper charges.

use crate::error::SparseError;
use crate::matrix::{BitMatrix, DenseMatrix};

/// Number of bits needed to address `positions` coordinates (at least 1).
pub fn coordinate_bits(positions: usize) -> usize {
    if positions <= 1 {
        1
    } else {
        (usize::BITS - (positions - 1).leading_zeros()) as usize
    }
}

/// A compressed-sparse-row matrix with payload type `V`.
///
/// For unary spike planes use `CsrMatrix<()>`: the payload is empty and only
/// coordinates are stored, exactly like a spike CSR in GoSPA.
///
/// # Examples
///
/// ```
/// use loas_sparse::{BitMatrix, CsrMatrix};
///
/// let mut plane = BitMatrix::zeros(2, 8);
/// plane.set(0, 3, true);
/// plane.set(1, 0, true);
/// plane.set(1, 7, true);
/// let csr = CsrMatrix::from_bit_matrix(&plane);
/// assert_eq!(csr.nnz(), 3);
/// assert_eq!(csr.row_entries(1).map(|(c, _)| c).collect::<Vec<_>>(), vec![0, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CsrMatrix<V> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<V>,
}

impl<V> CsrMatrix<V> {
    /// Builds a CSR matrix from per-row `(column, value)` pairs (columns must
    /// be ascending within each row).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if a column index is out of
    /// range.
    pub fn from_rows(
        rows: usize,
        cols: usize,
        entries: Vec<Vec<(usize, V)>>,
    ) -> Result<Self, SparseError> {
        assert_eq!(entries.len(), rows, "one entry list per row required");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in entries {
            for (c, v) in row {
                if c >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: c,
                        len: cols,
                    });
                }
                col_idx.push(c as u32);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of non-zeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row_nnz(&self, r: usize) -> usize {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Iterator over `(column, value)` entries of row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, &V)> + '_ {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        self.col_idx[span.clone()]
            .iter()
            .map(|&c| c as usize)
            .zip(self.values[span].iter())
    }

    /// Bits per stored coordinate (`ceil(log2(cols))`, the paper's footnote 5
    /// neglects offsets just like we do here; row pointers are charged via
    /// [`CsrMatrix::storage_bits`]).
    pub fn coordinate_bits(&self) -> usize {
        coordinate_bits(self.cols)
    }

    /// Total storage in bits: per-nnz coordinates + per-nnz payload +
    /// row-pointer array.
    pub fn storage_bits(&self, bits_per_value: usize) -> usize {
        let ptr_bits = coordinate_bits(self.nnz().max(1)) * (self.rows + 1);
        self.nnz() * (self.coordinate_bits() + bits_per_value) + ptr_bits
    }
}

impl CsrMatrix<()> {
    /// Compresses one spike plane (a [`BitMatrix`]) into coordinate-only CSR.
    pub fn from_bit_matrix(plane: &BitMatrix) -> Self {
        let entries = (0..plane.rows())
            .map(|r| plane.row(r).iter_ones().map(|c| (c, ())).collect())
            .collect();
        Self::from_rows(plane.rows(), plane.cols(), entries)
            .expect("bit-matrix coordinates are in range by construction")
    }
}

impl CsrMatrix<i8> {
    /// Compresses a dense weight matrix row-wise.
    pub fn from_dense(dense: &DenseMatrix<i8>) -> Self {
        let entries = (0..dense.rows())
            .map(|r| {
                dense
                    .row(r)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0)
                    .map(|(c, &v)| (c, v))
                    .collect()
            })
            .collect();
        Self::from_rows(dense.rows(), dense.cols(), entries)
            .expect("dense coordinates are in range by construction")
    }

    /// Reconstructs the dense matrix.
    pub fn to_dense(&self) -> DenseMatrix<i8> {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, &v) in self.row_entries(r) {
                out.set(r, c, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinate_bits_matches_paper_examples() {
        // 128 columns -> 7-bit coordinates (paper footnote 5).
        assert_eq!(coordinate_bits(128), 7);
        assert_eq!(coordinate_bits(16), 4);
        assert_eq!(coordinate_bits(2), 1);
        assert_eq!(coordinate_bits(1), 1);
        assert_eq!(coordinate_bits(129), 8);
    }

    #[test]
    fn csr_from_bit_matrix() {
        let mut plane = BitMatrix::zeros(3, 16);
        plane.set(0, 1, true);
        plane.set(2, 15, true);
        plane.set(2, 0, true);
        let csr = CsrMatrix::from_bit_matrix(&plane);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row_nnz(0), 1);
        assert_eq!(csr.row_nnz(1), 0);
        assert_eq!(
            csr.row_entries(2).map(|(c, _)| c).collect::<Vec<_>>(),
            vec![0, 15]
        );
        assert_eq!(csr.coordinate_bits(), 4);
    }

    #[test]
    fn csr_dense_roundtrip() {
        let dense = DenseMatrix::from_vec(2, 3, vec![0i8, 4, 0, -1, 0, 3]).unwrap();
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn spike_csr_storage_is_expensive() {
        // The Section IV-A inefficiency: a 128-wide row with 2 spikes costs
        // 2 * 7 coordinate bits, versus 2 packed bits in LoAS's payload.
        let mut plane = BitMatrix::zeros(1, 128);
        plane.set(0, 3, true);
        plane.set(0, 90, true);
        let csr = CsrMatrix::from_bit_matrix(&plane);
        let bits = csr.storage_bits(0);
        assert!(bits >= 14, "coordinate storage should dominate: {bits}");
    }

    #[test]
    fn from_rows_rejects_bad_column() {
        let err = CsrMatrix::from_rows(1, 4, vec![vec![(4, 1i8)]]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
    }
}

//! Dense matrices and bit-matrices used by golden references and workload
//! generators.

use crate::bitmask::Bitmask;
use crate::error::SparseError;
use crate::fiber::Fiber;

/// A dense row-major matrix.
///
/// # Examples
///
/// ```
/// use loas_sparse::DenseMatrix;
///
/// let mut m = DenseMatrix::<i32>::zeros(2, 3);
/// m.set(1, 2, 42);
/// assert_eq!(*m.get(1, 2), 42);
/// assert_eq!(m.row(1), &[0, 0, 42]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Clone + Default> DenseMatrix<T> {
    /// Creates a `rows x cols` matrix filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// The `rows x columns.len()` matrix whose columns are `columns`
    /// decompressed (the dense view of `B` the golden references read).
    pub fn from_columns(rows: usize, columns: &[Fiber<T>]) -> Self {
        let mut matrix = DenseMatrix::zeros(rows, columns.len());
        for (c, column) in columns.iter().enumerate() {
            for (r, value) in column.iter() {
                matrix.set(r, c, value.clone());
            }
        }
        matrix
    }
}

impl<T> DenseMatrix<T> {
    /// Builds a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ValueCountMismatch`] when `data.len() != rows *
    /// cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, SparseError> {
        if data.len() != rows * cols {
            return Err(SparseError::ValueCountMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element reference at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn get(&self, row: usize, col: usize) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) out of range"
        );
        &self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) out of range"
        );
        self.data[row * self.cols + col] = value;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` collected into a vector.
    ///
    /// # Panics
    ///
    /// Panics when `c >= cols`.
    pub fn column(&self, c: usize) -> Vec<T>
    where
        T: Clone,
    {
        assert!(c < self.cols, "column {c} out of range {}", self.cols);
        (0..self.rows).map(|r| self.get(r, c).clone()).collect()
    }
}

/// A dense binary matrix stored as one [`Bitmask`] per row — the natural
/// representation of one timestep's spike plane `A[·, ·, t]`.
///
/// # Examples
///
/// ```
/// use loas_sparse::BitMatrix;
///
/// let mut plane = BitMatrix::zeros(2, 4);
/// plane.set(0, 3, true);
/// assert!(plane.get(0, 3));
/// assert_eq!(plane.row(0).popcount(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    row_masks: Vec<Bitmask>,
}

impl BitMatrix {
    /// Creates an all-zero `rows x cols` bit matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMatrix {
            rows,
            cols,
            row_masks: (0..rows).map(|_| Bitmask::zeros(cols)).collect(),
        }
    }

    /// Builds a `cols`-wide bit matrix from its row bitmasks. Panics when a
    /// row is not `cols` bits long.
    pub fn from_rows(cols: usize, row_masks: Vec<Bitmask>) -> Self {
        assert!(row_masks.iter().all(|r| r.len() == cols), "{cols}-bit rows");
        BitMatrix {
            rows: row_masks.len(),
            cols,
            row_masks,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        self.row_masks[row].get(col)
    }

    /// Sets the bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        self.row_masks[row].set(col, value);
    }

    /// Row `r` as a bitmask.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row(&self, r: usize) -> &Bitmask {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        &self.row_masks[r]
    }

    /// Column `c` collected into a bitmask of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics when `c >= cols`.
    pub fn column(&self, c: usize) -> Bitmask {
        assert!(c < self.cols, "column {c} out of range {}", self.cols);
        Bitmask::from_bools((0..self.rows).map(|r| self.get(r, c)))
    }

    /// Total number of set bits.
    pub fn popcount(&self) -> usize {
        self.row_masks.iter().map(Bitmask::popcount).sum()
    }

    /// Fraction of set bits.
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.popcount() as f64 / total as f64
        }
    }

    /// Fraction of clear bits (the paper's sparsity convention).
    pub fn sparsity(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            1.0 - self.density()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_matrix_indexing() {
        let mut m = DenseMatrix::<i32>::zeros(3, 2);
        m.set(2, 1, 7);
        assert_eq!(*m.get(2, 1), 7);
        assert_eq!(m.row(2), &[0, 7]);
        assert_eq!(m.column(1), vec![0, 0, 7]);
    }

    #[test]
    fn dense_matrix_from_vec_validates() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1i8, 2, 3]).is_err());
    }

    #[test]
    fn from_columns_inverts_column_compression() {
        let m = DenseMatrix::from_vec(3, 2, vec![1i8, 0, 0, -4, 7, 0]).unwrap();
        let columns: Vec<_> = (0..2)
            .map(|c| crate::WeightFiber::from_weights(&m.column(c)))
            .collect();
        assert_eq!(DenseMatrix::from_columns(3, &columns), m);
        assert_eq!(DenseMatrix::<i8>::from_columns(5, &[]).rows(), 5);
    }

    #[test]
    fn bit_matrix_row_column() {
        let mut p = BitMatrix::zeros(3, 5);
        p.set(0, 0, true);
        p.set(1, 0, true);
        p.set(2, 4, true);
        assert_eq!(p.column(0).popcount(), 2);
        assert_eq!(p.row(2).iter_ones().collect::<Vec<_>>(), vec![4]);
        assert_eq!(p.popcount(), 3);
        assert!((p.density() - 3.0 / 15.0).abs() < 1e-12);
        assert!((p.sparsity() - 12.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_matrix_oob_panics() {
        BitMatrix::zeros(1, 1).get(1, 0);
    }
}

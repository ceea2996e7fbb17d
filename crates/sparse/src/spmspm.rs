//! Golden (functional) spMspM references in all three canonical loop orders.
//!
//! Every accelerator model in this repository is validated against these
//! references: whatever the dataflow, the numerical result of
//! `O[m,n,t] = Σ_k A[m,k,t] · B[k,n]` (Eq. 1) must be identical. The three
//! loop orders mirror Fig. 3 of the paper: inner-product (IP),
//! outer-product (OP), and Gustavson's (Gust); each places the timestep loop
//! innermost as the paper's Section III analysis prescribes.

use crate::error::SparseError;
use crate::matrix::{BitMatrix, DenseMatrix};

/// The spMspM result: one `M x N` accumulation plane per timestep.
pub type PsumPlanes = Vec<DenseMatrix<i32>>;

fn check_shapes(
    spikes: &[BitMatrix],
    weights: &DenseMatrix<i8>,
) -> Result<(usize, usize, usize), SparseError> {
    let t = spikes.len();
    if t == 0 {
        return Ok((0, 0, weights.cols()));
    }
    let m = spikes[0].rows();
    let k = spikes[0].cols();
    for plane in spikes {
        if plane.rows() != m || plane.cols() != k {
            return Err(SparseError::DimensionMismatch {
                dimension: "spike plane",
                left: m * k,
                right: plane.rows() * plane.cols(),
            });
        }
    }
    if weights.rows() != k {
        return Err(SparseError::DimensionMismatch {
            dimension: "K",
            left: k,
            right: weights.rows(),
        });
    }
    Ok((m, k, weights.cols()))
}

/// Dense reference: straightforward triple loop with `t` innermost.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] when plane shapes disagree or
/// `K` differs between spikes and weights.
///
/// # Examples
///
/// ```
/// use loas_sparse::{BitMatrix, DenseMatrix, spmspm};
///
/// let mut a = BitMatrix::zeros(1, 2);
/// a.set(0, 0, true);
/// let b = DenseMatrix::from_vec(2, 1, vec![3i8, 5]).unwrap();
/// let o = spmspm::dense_reference(&[a], &b).unwrap();
/// assert_eq!(*o[0].get(0, 0), 3);
/// ```
pub fn dense_reference(
    spikes: &[BitMatrix],
    weights: &DenseMatrix<i8>,
) -> Result<PsumPlanes, SparseError> {
    let (m, k, n) = check_shapes(spikes, weights)?;
    let t = spikes.len();
    let mut out: PsumPlanes = (0..t).map(|_| DenseMatrix::zeros(m, n)).collect();
    for mi in 0..m {
        for ni in 0..n {
            for ki in 0..k {
                let w = *weights.get(ki, ni) as i32;
                if w == 0 {
                    continue;
                }
                for (ti, plane) in spikes.iter().enumerate() {
                    if plane.get(mi, ki) {
                        let cur = *out[ti].get(mi, ni);
                        out[ti].set(mi, ni, cur + w);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Inner-product order (`m -> n -> k -> t`), the order FTP builds on
/// (Algorithm 1). Skips zero weights and silent spike positions the way an
/// inner-join does.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
pub fn inner_product(
    spikes: &[BitMatrix],
    weights: &DenseMatrix<i8>,
) -> Result<PsumPlanes, SparseError> {
    let (m, k, n) = check_shapes(spikes, weights)?;
    let t = spikes.len();
    let mut out: PsumPlanes = (0..t).map(|_| DenseMatrix::zeros(m, n)).collect();
    for mi in 0..m {
        for ni in 0..n {
            let mut acc = vec![0i32; t];
            for ki in 0..k {
                let w = *weights.get(ki, ni) as i32;
                if w == 0 {
                    continue;
                }
                // parallel-for t (Algorithm 1, line 4): spatially unrolled.
                for (ti, plane) in spikes.iter().enumerate() {
                    if plane.get(mi, ki) {
                        acc[ti] += w;
                    }
                }
            }
            for ti in 0..t {
                out[ti].set(mi, ni, acc[ti]);
            }
        }
    }
    Ok(out)
}

/// Outer-product order (`k -> m -> n -> t`): every non-zero of `A`'s column
/// `k` meets every non-zero of `B`'s row `k`, producing rank-1 partial-sum
/// updates (the GoSPA-style dataflow).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
pub fn outer_product(
    spikes: &[BitMatrix],
    weights: &DenseMatrix<i8>,
) -> Result<PsumPlanes, SparseError> {
    let (m, k, n) = check_shapes(spikes, weights)?;
    let t = spikes.len();
    let mut out: PsumPlanes = (0..t).map(|_| DenseMatrix::zeros(m, n)).collect();
    for ki in 0..k {
        for mi in 0..m {
            // A column entry (mi, ki) across timesteps.
            for ni in 0..n {
                let w = *weights.get(ki, ni) as i32;
                if w == 0 {
                    continue;
                }
                for (ti, plane) in spikes.iter().enumerate() {
                    if plane.get(mi, ki) {
                        let cur = *out[ti].get(mi, ni);
                        out[ti].set(mi, ni, cur + w);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Gustavson's order (`m -> k -> n -> t`): for each row of `A`, scale the
/// matching rows of `B` and merge into the output row (the Gamma-style
/// dataflow).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
pub fn gustavson(
    spikes: &[BitMatrix],
    weights: &DenseMatrix<i8>,
) -> Result<PsumPlanes, SparseError> {
    let (m, k, n) = check_shapes(spikes, weights)?;
    let t = spikes.len();
    let mut out: PsumPlanes = (0..t).map(|_| DenseMatrix::zeros(m, n)).collect();
    for mi in 0..m {
        for ki in 0..k {
            for ni in 0..n {
                let w = *weights.get(ki, ni) as i32;
                if w == 0 {
                    continue;
                }
                for (ti, plane) in spikes.iter().enumerate() {
                    if plane.get(mi, ki) {
                        let cur = *out[ti].get(mi, ni);
                        out[ti].set(mi, ni, cur + w);
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<BitMatrix>, DenseMatrix<i8>) {
        // T=2, M=2, K=3, N=2
        let mut a0 = BitMatrix::zeros(2, 3);
        a0.set(0, 0, true);
        a0.set(0, 2, true);
        a0.set(1, 1, true);
        let mut a1 = BitMatrix::zeros(2, 3);
        a1.set(0, 1, true);
        a1.set(1, 0, true);
        a1.set(1, 2, true);
        let b = DenseMatrix::from_vec(3, 2, vec![2i8, 0, -3, 4, 0, 5]).unwrap();
        (vec![a0, a1], b)
    }

    #[test]
    fn all_orders_agree() {
        let (spikes, weights) = sample();
        let dense = dense_reference(&spikes, &weights).unwrap();
        assert_eq!(inner_product(&spikes, &weights).unwrap(), dense);
        assert_eq!(outer_product(&spikes, &weights).unwrap(), dense);
        assert_eq!(gustavson(&spikes, &weights).unwrap(), dense);
    }

    #[test]
    fn hand_computed_values() {
        let (spikes, weights) = sample();
        let o = dense_reference(&spikes, &weights).unwrap();
        // t0, m0: k0 + k2 active -> B[0,:] + B[2,:] = [2+0, 0+5]
        assert_eq!(*o[0].get(0, 0), 2);
        assert_eq!(*o[0].get(0, 1), 5);
        // t0, m1: k1 active -> [-3, 4]
        assert_eq!(*o[0].get(1, 0), -3);
        assert_eq!(*o[0].get(1, 1), 4);
        // t1, m1: k0 + k2 -> [2, 5]
        assert_eq!(*o[1].get(1, 0), 2);
        assert_eq!(*o[1].get(1, 1), 5);
    }

    #[test]
    fn shape_mismatch_detected() {
        let (mut spikes, weights) = sample();
        spikes[1] = BitMatrix::zeros(2, 4);
        assert!(dense_reference(&spikes, &weights).is_err());
        let spikes = vec![BitMatrix::zeros(2, 5)];
        assert!(inner_product(&spikes, &weights).is_err());
    }

    #[test]
    fn empty_timesteps_ok() {
        let weights = DenseMatrix::from_vec(3, 2, vec![0i8; 6]).unwrap();
        let o = dense_reference(&[], &weights).unwrap();
        assert!(o.is_empty());
    }
}

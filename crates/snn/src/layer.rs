//! A dual-sparse SNN layer: sparse weights + LIF neurons (golden model).

use crate::error::SnnError;
use crate::lif::LifParams;
use crate::tensor::SpikeTensor;
use loas_sparse::spmspm::{self, PsumPlanes};
use loas_sparse::{DenseMatrix, WeightFiber};

/// One SNN layer with weight matrix `B ∈ Z^{K×N}` and LIF firing.
///
/// The `forward` method is the *golden functional model*: every accelerator
/// simulator in the workspace must produce bit-identical output spikes.
///
/// # Examples
///
/// ```
/// use loas_snn::{LifParams, SnnLayer, SpikeTensor};
/// use loas_sparse::DenseMatrix;
///
/// let weights = DenseMatrix::from_vec(2, 1, vec![3i8, 0]).unwrap();
/// let layer = SnnLayer::new(weights, LifParams::new(1, 1)).unwrap();
/// let mut input = SpikeTensor::zeros(1, 2, 2);
/// input.set(0, 0, 0, true);
/// let out = layer.forward(&input).unwrap();
/// assert!(out.spikes.get(0, 0, 0)); // 3 > v_th = 1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SnnLayer {
    weights: DenseMatrix<i8>,
    lif: LifParams,
}

/// The full result of a layer forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerOutput {
    /// Pre-LIF accumulation planes `O[m,n,t]` (Eq. 1).
    pub psums: PsumPlanes,
    /// Output spike tensor `C ∈ {0,1}^{M×N×T}` (Eq. 2).
    pub spikes: SpikeTensor,
    /// Final membrane potentials `U[m,n,T-1]` (Eq. 3).
    pub membranes: DenseMatrix<i32>,
}

impl SnnLayer {
    /// Creates a layer from a dense weight matrix and LIF parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] for an empty weight matrix.
    pub fn new(weights: DenseMatrix<i8>, lif: LifParams) -> Result<Self, SnnError> {
        if weights.rows() == 0 || weights.cols() == 0 {
            return Err(SnnError::ShapeMismatch {
                expected: 1,
                actual: 0,
                dimension: "weights",
            });
        }
        Ok(SnnLayer { weights, lif })
    }

    /// The weight matrix `B`.
    pub fn weights(&self) -> &DenseMatrix<i8> {
        &self.weights
    }

    /// The LIF parameters.
    pub fn lif(&self) -> LifParams {
        self.lif
    }

    /// Input dimension `K`.
    pub fn k(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension `N`.
    pub fn n(&self) -> usize {
        self.weights.cols()
    }

    /// Weight sparsity (`AvSpB`).
    pub fn weight_sparsity(&self) -> f64 {
        self.weights.sparsity()
    }

    /// Column `n` of `B` compressed into a weight fiber (the `fiber-B`
    /// broadcast to TPPEs).
    ///
    /// # Panics
    ///
    /// Panics when `n` is out of range.
    pub fn weight_fiber(&self, n: usize) -> WeightFiber {
        WeightFiber::from_weights(&self.weights.column(n))
    }

    /// Golden forward pass: spMspM (Eq. 1) then LIF scan (Eqs. 2-3).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] when `input.k() != self.k()`.
    pub fn forward(&self, input: &SpikeTensor) -> Result<LayerOutput, SnnError> {
        if input.k() != self.k() {
            return Err(SnnError::ShapeMismatch {
                expected: self.k(),
                actual: input.k(),
                dimension: "K",
            });
        }
        let psums = spmspm::inner_product(input.planes(), &self.weights)?;
        let t = input.timesteps();
        let (m, n) = (input.m(), self.n());
        let mut spikes = SpikeTensor::zeros(m, n, t);
        let mut membranes = DenseMatrix::zeros(m, n);
        for mi in 0..m {
            for ni in 0..n {
                let inputs: Vec<i32> = (0..t).map(|ti| *psums[ti].get(mi, ni)).collect();
                let (train, u) = self.lif.run(&inputs);
                for (ti, fired) in train.into_iter().enumerate() {
                    if fired {
                        spikes.set(mi, ni, ti, true);
                    }
                }
                membranes.set(mi, ni, u);
            }
        }
        Ok(LayerOutput {
            psums,
            spikes,
            membranes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> SnnLayer {
        // K=3, N=2
        let weights = DenseMatrix::from_vec(3, 2, vec![2i8, 0, -3, 4, 0, 5]).unwrap();
        SnnLayer::new(weights, LifParams::new(1, 0)).unwrap()
    }

    #[test]
    fn forward_shapes() {
        let l = layer();
        let input = SpikeTensor::zeros(4, 3, 2);
        let out = l.forward(&input).unwrap();
        assert_eq!(out.spikes.m(), 4);
        assert_eq!(out.spikes.k(), 2); // output tensor K = layer N
        assert_eq!(out.spikes.timesteps(), 2);
        assert_eq!(out.psums.len(), 2);
    }

    #[test]
    fn forward_matches_manual_lif() {
        let l = layer();
        let mut input = SpikeTensor::zeros(1, 3, 2);
        input.set(0, 0, 0, true); // t0: k0 -> O[0,0,0]=2, O[0,1,0]=0
        input.set(0, 1, 1, true); // t1: k1 -> O[0,0,1]=-3, O[0,1,1]=4
        let out = l.forward(&input).unwrap();
        // (0,0): t0 X=2 > 1 -> fire, reset. t1 X=-3 -> no fire.
        assert!(out.spikes.get(0, 0, 0));
        assert!(!out.spikes.get(0, 0, 1));
        assert_eq!(*out.membranes.get(0, 0), -3);
        // (0,1): t0 X=0 no fire (U=0), t1 X=4 fire.
        assert!(!out.spikes.get(0, 1, 0));
        assert!(out.spikes.get(0, 1, 1));
        assert_eq!(*out.membranes.get(0, 1), 0);
    }

    #[test]
    fn k_mismatch_rejected() {
        let l = layer();
        let input = SpikeTensor::zeros(1, 4, 2);
        assert!(matches!(
            l.forward(&input),
            Err(SnnError::ShapeMismatch { dimension: "K", .. })
        ));
    }

    #[test]
    fn weight_fibers_compress_columns() {
        let l = layer();
        let f0 = l.weight_fiber(0);
        assert_eq!(f0.nnz(), 2); // column 0 = [2, -3, 0]
        assert_eq!(f0.value_at(1), Some(&-3));
        assert!((l.weight_sparsity() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_weights_rejected() {
        assert!(SnnLayer::new(DenseMatrix::zeros(0, 4), LifParams::default()).is_err());
    }

    #[test]
    fn membrane_dependency_across_timesteps() {
        // Accumulation below threshold at t0 must carry into t1 (the
        // temporal dependency that forbids naive timestep parallelism).
        let weights = DenseMatrix::from_vec(1, 1, vec![3i8]).unwrap();
        let l = SnnLayer::new(weights, LifParams::new(4, 0)).unwrap();
        let mut input = SpikeTensor::zeros(1, 1, 2);
        input.set(0, 0, 0, true);
        input.set(0, 0, 1, true);
        let out = l.forward(&input).unwrap();
        // t0: X=3 no fire; t1: X=3+3=6 > 4 fire.
        assert!(!out.spikes.get(0, 0, 0));
        assert!(out.spikes.get(0, 0, 1));
    }
}

//! Multi-layer SNN networks (golden functional model).

use crate::error::SnnError;
use crate::layer::{LayerOutput, SnnLayer};
use crate::tensor::SpikeTensor;

/// A feed-forward dual-sparse SNN: a sequence of [`SnnLayer`]s where the
/// output spikes of layer `l` are the input spikes of layer `l + 1`
/// (SpinalFlow-style layer-by-layer processing order, Fig. 1).
///
/// # Examples
///
/// ```
/// use loas_snn::{LifParams, SnnLayer, SnnNetwork, SpikeTensor};
/// use loas_sparse::DenseMatrix;
///
/// let l1 = SnnLayer::new(DenseMatrix::from_vec(2, 2, vec![2i8, 0, 0, 2]).unwrap(),
///                        LifParams::new(1, 0)).unwrap();
/// let l2 = SnnLayer::new(DenseMatrix::from_vec(2, 1, vec![3i8, 3]).unwrap(),
///                        LifParams::new(1, 0)).unwrap();
/// let net = SnnNetwork::new(vec![l1, l2]).unwrap();
/// let input = SpikeTensor::zeros(1, 2, 2);
/// let outputs = net.forward(&input).unwrap();
/// assert_eq!(outputs.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SnnNetwork {
    layers: Vec<SnnLayer>,
}

impl SnnNetwork {
    /// Creates a network from layers, validating that adjacent dimensions
    /// chain (`N_l == K_{l+1}`).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::EmptyNetwork`] for zero layers, or
    /// [`SnnError::ShapeMismatch`] when adjacent layers do not chain.
    pub fn new(layers: Vec<SnnLayer>) -> Result<Self, SnnError> {
        if layers.is_empty() {
            return Err(SnnError::EmptyNetwork);
        }
        for pair in layers.windows(2) {
            if pair[0].n() != pair[1].k() {
                return Err(SnnError::ShapeMismatch {
                    expected: pair[0].n(),
                    actual: pair[1].k(),
                    dimension: "N->K",
                });
            }
        }
        Ok(SnnNetwork { layers })
    }

    /// The layers in order.
    pub fn layers(&self) -> &[SnnLayer] {
        &self.layers
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Runs the whole network, returning every layer's full output
    /// (processing all timesteps of one layer before moving to the next, as
    /// dataflow SNN accelerators do).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the first layer.
    pub fn forward(&self, input: &SpikeTensor) -> Result<Vec<LayerOutput>, SnnError> {
        let mut outputs = Vec::with_capacity(self.layers.len());
        let mut current = input.clone();
        for layer in &self.layers {
            let out = layer.forward(&current)?;
            current = out.spikes.clone();
            outputs.push(out);
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lif::LifParams;
    use loas_sparse::DenseMatrix;

    fn two_layer() -> SnnNetwork {
        let l1 = SnnLayer::new(
            DenseMatrix::from_vec(2, 3, vec![2i8, 0, 1, 0, 3, 0]).unwrap(),
            LifParams::new(1, 0),
        )
        .unwrap();
        let l2 = SnnLayer::new(
            DenseMatrix::from_vec(3, 1, vec![5i8, 0, 2]).unwrap(),
            LifParams::new(1, 0),
        )
        .unwrap();
        SnnNetwork::new(vec![l1, l2]).unwrap()
    }

    #[test]
    fn forward_chains_layers() {
        let net = two_layer();
        let mut input = SpikeTensor::zeros(1, 2, 2);
        input.set(0, 0, 0, true); // t0 spike into k0
        let outputs = net.forward(&input).unwrap();
        assert_eq!(outputs.len(), 2);
        // Layer 1, t0: row [2,0,1] -> O = [2,0,1]; fires n0 (2>1), not n2 (1>1 false).
        assert!(outputs[0].spikes.get(0, 0, 0));
        assert!(!outputs[0].spikes.get(0, 2, 0));
        // Layer 2, t0: input spike at k0 -> O = 5 -> fires.
        assert!(outputs[1].spikes.get(0, 0, 0));
    }

    #[test]
    fn dimension_chaining_validated() {
        let l1 = SnnLayer::new(DenseMatrix::zeros(2, 3), LifParams::default()).unwrap();
        let l2 = SnnLayer::new(DenseMatrix::zeros(4, 1), LifParams::default()).unwrap();
        assert!(matches!(
            SnnNetwork::new(vec![l1, l2]),
            Err(SnnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_network_rejected() {
        assert!(matches!(
            SnnNetwork::new(vec![]),
            Err(SnnError::EmptyNetwork)
        ));
    }
}

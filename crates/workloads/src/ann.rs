//! ANN-mode workloads for the dual-sparse SNN vs dual-sparse ANN comparison
//! (Fig. 18).
//!
//! The paper's ANN reference is a VGG16 with 8-bit weights at 98.2% sparsity
//! and 8-bit activations at 43.9% sparsity, processed in a single "timestep".

use crate::draw;
use crate::error::WorkloadError;
use crate::generator::WorkloadGenerator;
use crate::shape::LayerShape;
use loas_sparse::{zero_fraction, Fiber, WeightFiber};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One dual-sparse ANN layer workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnWorkload {
    /// Display name.
    pub name: String,
    /// Shape with `t = 1`.
    pub shape: LayerShape,
    /// 8-bit unsigned activations, `M × K`, as their `M` row fibers.
    pub activations: Arc<[Fiber<u8>]>,
    /// 8-bit signed weights, `K × N`, as their `N` column fibers.
    pub weights: Arc<[WeightFiber]>,
}

impl AnnWorkload {
    /// Realised activation sparsity.
    pub fn activation_sparsity(&self) -> f64 {
        zero_fraction(&self.activations)
    }

    /// Realised weight sparsity.
    pub fn weight_sparsity(&self) -> f64 {
        zero_fraction(&self.weights)
    }
}

/// Generates an ANN workload with the given activation/weight sparsities.
///
/// # Errors
///
/// Returns [`WorkloadError::FractionOutOfRange`] for sparsities outside
/// `[0, 1]`.
pub fn generate_ann(
    generator: &WorkloadGenerator,
    name: &str,
    shape: LayerShape,
    activation_sparsity: f64,
    weight_sparsity: f64,
) -> Result<AnnWorkload, WorkloadError> {
    for (pname, v) in [
        ("activation_sparsity", activation_sparsity),
        ("weight_sparsity", weight_sparsity),
    ] {
        if !(0.0..=1.0).contains(&v) {
            return Err(WorkloadError::FractionOutOfRange {
                name: pname,
                value: v,
            });
        }
    }
    let mut rng = StdRng::seed_from_u64(generator.seed() ^ name.len() as u64 ^ 0xA99);
    // Row by row, the draws of one row-major pass over the `M × K` values.
    let activations = (0..shape.m)
        .map(|_| {
            let row = draw::pruned(&mut rng, shape.k, activation_sparsity, |rng| {
                rng.gen_range(1..=255u8)
            });
            Fiber::from_dense(&row, |&v| v == 0)
        })
        .collect();
    let weights = draw::pruned_columns(&mut rng, shape.k, shape.n, weight_sparsity);
    Ok(AnnWorkload {
        name: name.to_owned(),
        shape: LayerShape { t: 1, ..shape },
        activations,
        weights: weights.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparsities_track_targets() {
        let generator = WorkloadGenerator::default();
        let w = generate_ann(
            &generator,
            "ann",
            LayerShape::new(1, 64, 64, 512),
            0.439,
            0.982,
        )
        .unwrap();
        assert!((w.activation_sparsity() - 0.439).abs() < 0.02);
        assert!((w.weight_sparsity() - 0.982).abs() < 0.01);
        assert_eq!(w.shape.t, 1);
    }

    #[test]
    fn bad_sparsity_rejected() {
        let generator = WorkloadGenerator::default();
        assert!(generate_ann(&generator, "x", LayerShape::new(1, 2, 2, 2), 1.5, 0.5).is_err());
    }

    #[test]
    fn deterministic() {
        let generator = WorkloadGenerator::new(3);
        let shape = LayerShape::new(1, 8, 8, 64);
        let a = generate_ann(&generator, "d", shape, 0.4, 0.9).unwrap();
        let b = generate_ann(&generator, "d", shape, 0.4, 0.9).unwrap();
        assert_eq!(a, b);
    }
}

//! Seeded dual-sparse workload generation.
//!
//! The accelerators under study are data-value-agnostic: cycles, traffic,
//! and energy depend only on the *positions* of non-zeros. The generator
//! therefore synthesises spike tensors and weight matrices whose sparsity
//! structure matches the Table II statistics exactly in expectation (see
//! [`crate::SparsityProfile`]), with fully seeded, reproducible randomness.
//! Weights are drawn straight into the compressed form every model reads,
//! `B`'s column fibers; only golden references densify them.

use crate::draw;
use crate::error::WorkloadError;
use crate::shape::LayerShape;
use crate::sparsity::{CountSampler, SparsityProfile};
use loas_snn::{preprocess, LifParams, SnnLayer, SparsityStats, SpikeTensor};
use loas_sparse::{DenseMatrix, WeightFiber, MAX_TIMESTEPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The workspace-wide default generation seed (all reported experiments use
/// it; [`WorkloadGenerator::default`] and the campaign engine share it).
pub const DEFAULT_SEED: u64 = 0x10A5;

/// One generated dual-sparse layer workload: the unit every accelerator
/// model consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWorkload {
    /// Display name (e.g. `"VGG16-L8"`).
    pub name: String,
    /// The `(T, M, N, K)` shape.
    pub shape: LayerShape,
    /// Input spike tensor `A ∈ {0,1}^{M×K×T}`.
    pub spikes: SpikeTensor,
    /// Weight matrix `B ∈ Z^{K×N}` (8-bit, Table III) as its `N` column
    /// fibers, shared with the fine-tuned variant and every prepared view.
    pub weights: Arc<[WeightFiber]>,
    /// LIF parameters for the output stage.
    pub lif: LifParams,
}

impl LayerWorkload {
    /// Measures the realised sparsity statistics (Table II accounting).
    pub fn stats(&self) -> SparsityStats {
        SparsityStats::measure(&self.spikes, &self.weights)
    }

    /// The fine-tuned-preprocessing variant: neurons firing at most once are
    /// masked silent (Section V). Shapes are unchanged and the weights
    /// are shared.
    pub fn with_preprocessing(&self) -> LayerWorkload {
        LayerWorkload {
            name: format!("{}+FT", self.name),
            shape: self.shape,
            spikes: preprocess::mask_low_activity(&self.spikes, 1),
            weights: Arc::clone(&self.weights),
            lif: self.lif,
        }
    }

    /// Builds the golden [`SnnLayer`] for functional verification.
    ///
    /// # Panics
    ///
    /// Panics if the weight matrix is empty.
    pub fn golden_layer(&self) -> SnnLayer {
        SnnLayer::new(
            DenseMatrix::from_columns(self.shape.k, &self.weights),
            self.lif,
        )
        .expect("generated weights are non-empty")
    }
}

/// Copies, so by-value consumers (`PreparedLayer::new`) take `&LayerWorkload`.
impl From<&LayerWorkload> for LayerWorkload {
    fn from(workload: &LayerWorkload) -> Self {
        workload.clone()
    }
}

/// Seeded generator for dual-sparse workloads.
///
/// # Examples
///
/// ```
/// use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};
///
/// let generator = WorkloadGenerator::new(42);
/// let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2)?;
/// let w = generator.generate("demo", LayerShape::new(4, 8, 16, 128), &profile)?;
/// assert_eq!(w.spikes.timesteps(), 4);
/// assert_eq!(w.weights.len(), 16); // N column fibers of K = 128 weights
/// assert_eq!(w.weights[0].len(), 128);
/// # Ok::<(), loas_workloads::WorkloadError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadGenerator {
    seed: u64,
}

impl WorkloadGenerator {
    /// Creates a generator with a master seed.
    pub fn new(seed: u64) -> Self {
        WorkloadGenerator { seed }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates one layer workload with the target profile.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when the profile cannot be realised at the
    /// shape's timestep count (see [`crate::FiringModel::solve`]), including
    /// a `T` above [`MAX_TIMESTEPS`].
    pub fn generate(
        &self,
        name: &str,
        shape: LayerShape,
        profile: &SparsityProfile,
    ) -> Result<LayerWorkload, WorkloadError> {
        let sampler = profile.firing_model(shape.t)?.count_sampler();
        let mut rng = self.rng_for(name);
        let mut timestep_pool: Vec<usize> = (0..shape.t).collect();
        let spikes = SpikeTensor::from_row_words(shape.m, shape.k, shape.t, |_, words| {
            spike_row(&mut rng, &sampler, &mut timestep_pool, shape.k, words)
        });
        let weights = draw::pruned_columns(&mut rng, shape.k, shape.n, profile.weight);
        Ok(LayerWorkload {
            name: name.to_owned(),
            shape,
            spikes,
            weights: weights.into(),
            lif: Self::default_lif(shape, profile),
        })
    }

    /// A LIF setting that produces plausible (high) output sparsity: the
    /// threshold scales with the expected accumulation magnitude.
    fn default_lif(shape: LayerShape, profile: &SparsityProfile) -> LifParams {
        let expected_matches = shape.k as f64 * (1.0 - profile.silent) * (1.0 - profile.weight);
        // Mean |weight| is ~64 for uniform +-[1,127]; threshold at ~1.5x the
        // expected net drift keeps output firing sparse.
        let v_th = (expected_matches * 32.0).max(16.0) as i32;
        LifParams::new(v_th, 1)
    }

    fn rng_for(&self, name: &str) -> StdRng {
        // Stable FNV-1a over the name, mixed with the master seed, so each
        // workload has an independent but reproducible stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        StdRng::seed_from_u64(self.seed ^ h)
    }
}

/// Draws one row of `K` neurons into `words`, its `T` plane rows of
/// `K.div_ceil(64)` words each: per neuron a spike count, then that many
/// distinct timesteps by a partial Fisher-Yates shuffle of `pool`.
fn spike_row(
    rng: &mut StdRng,
    sampler: &CountSampler,
    pool: &mut [usize],
    k: usize,
    words: &mut [u64],
) {
    let t = pool.len();
    let row_words = k.div_ceil(64);
    for word in 0..row_words {
        // The 64 neurons of this word, one plane word per timestep, stored
        // once all of them are drawn.
        let mut planes = [0u64; MAX_TIMESTEPS];
        for bit in 0..(k - word * 64).min(64) {
            let count = sampler.sample(draw::unit(rng), draw::unit(rng));
            // Each drawn timestep is final once swapped into place.
            for i in 0..count {
                pool.swap(i, rng.gen_range(i..t));
                planes[pool[i]] |= 1 << bit;
            }
        }
        for (plane, &bits) in planes[..t].iter().enumerate() {
            words[plane * row_words + word] = bits;
        }
    }
}

impl Default for WorkloadGenerator {
    /// The workspace-wide default seed (all reported experiments use it).
    fn default() -> Self {
        WorkloadGenerator::new(DEFAULT_SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vgg_profile() -> SparsityProfile {
        SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let generator = WorkloadGenerator::new(7);
        let shape = LayerShape::new(4, 16, 8, 64);
        let a = generator.generate("x", shape, &vgg_profile()).unwrap();
        let b = generator.generate("x", shape, &vgg_profile()).unwrap();
        assert_eq!(a.spikes, b.spikes);
        assert_eq!(a.weights, b.weights);
        let c = generator.generate("y", shape, &vgg_profile()).unwrap();
        assert_ne!(a.spikes, c.spikes, "different names give different streams");
    }

    #[test]
    fn realised_sparsity_tracks_profile() {
        let generator = WorkloadGenerator::default();
        let shape = LayerShape::new(4, 64, 32, 512); // 32k neurons
        let profile = vgg_profile();
        let w = generator.generate("cal", shape, &profile).unwrap();
        let stats = w.stats();
        assert!(
            (stats.spike_origin_pct / 100.0 - profile.spike_origin).abs() < 0.01,
            "origin sparsity {} vs target {}",
            stats.spike_origin_pct,
            profile.spike_origin * 100.0
        );
        assert!(
            (stats.silent_pct / 100.0 - profile.silent).abs() < 0.01,
            "silent {} vs target {}",
            stats.silent_pct,
            profile.silent * 100.0
        );
        assert!(
            (stats.silent_ft_pct / 100.0 - profile.silent_ft).abs() < 0.01,
            "silent+FT {} vs target {}",
            stats.silent_ft_pct,
            profile.silent_ft * 100.0
        );
        assert!(
            (stats.weight_pct / 100.0 - profile.weight).abs() < 0.01,
            "weight {} vs target {}",
            stats.weight_pct,
            profile.weight * 100.0
        );
    }

    #[test]
    fn preprocessing_variant_increases_silence() {
        let generator = WorkloadGenerator::default();
        let shape = LayerShape::new(4, 32, 8, 256);
        let w = generator.generate("ft", shape, &vgg_profile()).unwrap();
        let ft = w.with_preprocessing();
        assert!(ft.spikes.packed_sparsity() >= w.spikes.packed_sparsity());
        assert_eq!(ft.weights, w.weights);
        assert!(ft.name.ends_with("+FT"));
    }

    #[test]
    fn golden_layer_runs() {
        let generator = WorkloadGenerator::default();
        let shape = LayerShape::new(4, 4, 8, 32);
        let w = generator.generate("g", shape, &vgg_profile()).unwrap();
        let out = w.golden_layer().forward(&w.spikes).unwrap();
        assert_eq!(out.spikes.m(), 4);
        assert_eq!(out.spikes.k(), 8);
    }

    #[test]
    fn weights_are_nonzero_when_kept() {
        let generator = WorkloadGenerator::default();
        let shape = LayerShape::new(4, 2, 16, 128);
        let w = generator.generate("w", shape, &vgg_profile()).unwrap();
        // Every kept weight must be non-zero (zero means pruned).
        let nnz: usize = w.weights.iter().map(WeightFiber::nnz).sum();
        assert!(nnz > 0, "some weights survive at 98.2% sparsity");
        assert!(w.weights.iter().flat_map(|f| f.values()).all(|&v| v != 0));
    }
}

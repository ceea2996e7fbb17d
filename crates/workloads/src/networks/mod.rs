//! The evaluation networks of Table II.
//!
//! Layer geometry follows the CIFAR-10 versions of each network viewed
//! through im2col (`M` = output spatial positions, `K` = `Cin·kh·kw`,
//! `N` = `Cout`); the selected layers A-L4 / V-L8 / R-L19 match the
//! `(T, M, N, K)` tuples printed in Table II exactly. Sparsity profiles are
//! the Table II network averages (applied to every layer of a network run,
//! since the paper publishes only the averages) and the per-layer values for
//! the selected layers.

mod alexnet;
mod resnet19;
mod transformer;
mod vgg16;

pub use alexnet::alexnet;
pub use resnet19::resnet19;
pub use transformer::spike_transformer_hff;
pub use vgg16::vgg16;

use crate::error::WorkloadError;
use crate::generator::{LayerWorkload, WorkloadGenerator};
use crate::shape::LayerShape;
use crate::sparsity::SparsityProfile;

/// The number of timesteps used across all Table II workloads.
pub const DEFAULT_TIMESTEPS: usize = 4;

/// One layer of a network spec: a name, a shape, and a sparsity profile.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Display name (e.g. `"VGG16-L8"`).
    pub name: String,
    /// The `(T, M, N, K)` shape.
    pub shape: LayerShape,
    /// The sparsity statistics to realise.
    pub profile: SparsityProfile,
}

impl LayerSpec {
    /// Generates the workload for this layer.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures from the profile.
    pub fn generate(&self, generator: &WorkloadGenerator) -> Result<LayerWorkload, WorkloadError> {
        generator.generate(&self.name, self.shape, &self.profile)
    }

    /// The quick-mode (CI) variant: `M`/`N`/`K` shrunk to the workspace
    /// quick shapes. Sparsity statistics and model behaviour are
    /// scale-free, so trends hold while runtimes drop by orders of
    /// magnitude. Every quick-mode consumer (bench context, campaign CLI)
    /// shares this one definition.
    pub fn shrunk_for_quick(&self) -> LayerSpec {
        let mut shrunk = self.clone();
        shrunk.shape.m = shrunk.shape.m.clamp(1, 16);
        shrunk.shape.n = shrunk.shape.n.min(32);
        shrunk.shape.k = shrunk.shape.k.min(512);
        shrunk
    }
}

/// A whole evaluation network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Network name (Table II's `SNN` column).
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Number of layers (`NL` in Table II).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Generates every layer's workload.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn generate(
        &self,
        generator: &WorkloadGenerator,
    ) -> Result<Vec<LayerWorkload>, WorkloadError> {
        self.layers.iter().map(|l| l.generate(generator)).collect()
    }

    /// Total dense operation count across layers.
    pub fn dense_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.shape.dense_ops()).sum()
    }
}

/// Table II network-average profiles.
pub mod profiles {
    use super::SparsityProfile;

    /// AlexNet: 81.2 / 71.3 (76.7) / 98.2.
    pub fn alexnet() -> SparsityProfile {
        SparsityProfile::from_percentages(81.2, 71.3, 76.7, 98.2)
            .expect("paper values are consistent")
    }

    /// VGG16: 82.3 / 74.1 (79.6) / 98.2.
    pub fn vgg16() -> SparsityProfile {
        SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2)
            .expect("paper values are consistent")
    }

    /// ResNet19: 68.6 / 59.6 (66.1) / 96.8.
    pub fn resnet19() -> SparsityProfile {
        SparsityProfile::from_percentages(68.6, 59.6, 66.1, 96.8)
            .expect("paper values are consistent")
    }

    /// AlexNet layer 4 (A-L4): 75.8 / 63.2 (69.7) / 98.9.
    pub fn a_l4() -> SparsityProfile {
        SparsityProfile::from_percentages(75.8, 63.2, 69.7, 98.9)
            .expect("paper values are consistent")
    }

    /// VGG16 layer 8 (V-L8): 88.1 / 76.5 (86.8) / 96.8.
    pub fn v_l8() -> SparsityProfile {
        SparsityProfile::from_percentages(88.1, 76.5, 86.8, 96.8)
            .expect("paper values are consistent")
    }

    /// ResNet19 layer 19 (R-L19): 57.9 / 51.4 (55.7) / 99.1.
    pub fn r_l19() -> SparsityProfile {
        SparsityProfile::from_percentages(57.9, 51.4, 55.7, 99.1)
            .expect("paper values are consistent")
    }

    /// SpikeTransformer hidden feed-forward (T-HFF). Table II publishes only
    /// the `packed+FT` (86.8%) and weight (96.8%) values; the remaining
    /// statistics (origin 88.1%, packed 76.5%) are V-L8's, the published
    /// layer with the same `packed+FT` and weight values.
    pub fn t_hff() -> SparsityProfile {
        SparsityProfile::from_percentages(88.1, 76.5, 86.8, 96.8)
            .expect("paper values are consistent")
    }
}

/// The three selected single layers of Table II plus the transformer layer.
pub fn selected_layers() -> Vec<LayerSpec> {
    vec![
        LayerSpec {
            name: "A-L4".to_owned(),
            shape: LayerShape::new(DEFAULT_TIMESTEPS, 64, 256, 3456),
            profile: profiles::a_l4(),
        },
        LayerSpec {
            name: "V-L8".to_owned(),
            shape: LayerShape::new(DEFAULT_TIMESTEPS, 16, 512, 2304),
            profile: profiles::v_l8(),
        },
        LayerSpec {
            name: "R-L19".to_owned(),
            shape: LayerShape::new(DEFAULT_TIMESTEPS, 16, 512, 2304),
            profile: profiles::r_l19(),
        },
        spike_transformer_hff(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_counts_match_table2() {
        assert_eq!(alexnet().depth(), 7);
        assert_eq!(vgg16().depth(), 14);
        assert_eq!(resnet19().depth(), 19);
    }

    #[test]
    fn selected_layer_shapes_match_table2() {
        let layers = selected_layers();
        assert_eq!(layers[0].shape, LayerShape::new(4, 64, 256, 3456));
        assert_eq!(layers[1].shape, LayerShape::new(4, 16, 512, 2304));
        assert_eq!(layers[2].shape, LayerShape::new(4, 16, 512, 2304));
        assert_eq!(layers[3].shape, LayerShape::new(4, 784, 3072, 3072));
    }

    #[test]
    fn network_embedded_selected_layers_match() {
        // A-L4 is AlexNet's 4th layer, V-L8 is VGG16's 8th.
        assert_eq!(alexnet().layers[3].shape, LayerShape::new(4, 64, 256, 3456));
        assert_eq!(vgg16().layers[7].shape, LayerShape::new(4, 16, 512, 2304));
        assert_eq!(
            resnet19().layers[18].shape,
            LayerShape::new(4, 16, 512, 2304)
        );
    }

    #[test]
    fn all_profiles_solvable() {
        for spec in [alexnet(), vgg16(), resnet19()] {
            for layer in &spec.layers {
                layer
                    .profile
                    .firing_model(layer.shape.t)
                    .unwrap_or_else(|e| panic!("{} unsolvable: {e}", layer.name));
            }
        }
        for layer in selected_layers() {
            layer.profile.firing_model(layer.shape.t).unwrap();
        }
    }

    #[test]
    fn generate_small_network_smoke() {
        // Generate only the smallest network end-to-end to keep tests fast.
        let generator = WorkloadGenerator::default();
        let spec = alexnet();
        let last = spec.layers.last().unwrap();
        let w = last.generate(&generator).unwrap();
        assert_eq!(w.shape, last.shape);
    }
}

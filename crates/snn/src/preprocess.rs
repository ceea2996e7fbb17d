//! The fine-tuned silent-neuron preprocessing (Section V, Fig. 11).
//!
//! The paper's preprocessing masks every pre-synaptic neuron that fires at
//! most once across the timestep window, turning it silent; a short
//! fine-tuning run (< 5 epochs) recovers the original accuracy. The effect
//! the hardware sees is purely a higher silent-neuron density (Table II's
//! `AvSpA packed(+FT)` column), which LoAS exploits by skipping those
//! neurons entirely.
//!
//! Without the trained networks, the accuracy trend of Fig. 11 is
//! reproduced with a synthetic recovery model ([`FineTuneAccuracyModel`]):
//! masking costs a small accuracy drop which fine-tuning recovers
//! exponentially. The hardware evaluation never consumes these accuracy
//! numbers — only the resulting sparsity — so the substitution does not
//! affect any performance result.

use crate::tensor::SpikeTensor;

/// Masks all pre-synaptic neurons that fire at most `max_fires` times across
/// the window (the paper uses `max_fires = 1`), returning the preprocessed
/// tensor: every plane row is ANDed with the row's mask of neurons firing
/// more than `max_fires` times (a bit-sliced counter over plane words).
///
/// # Examples
///
/// ```
/// use loas_snn::{preprocess, SpikeTensor};
///
/// let mut a = SpikeTensor::zeros(1, 2, 4);
/// a.set(0, 0, 1, true);                  // fires once -> masked
/// a.set(0, 1, 0, true);
/// a.set(0, 1, 2, true);                  // fires twice -> kept
/// let ft = preprocess::mask_low_activity(&a, 1);
/// assert!(ft.packed_word(0, 0).is_silent());
/// assert_eq!(ft.packed_word(0, 1).fire_count(), 2);
/// ```
pub fn mask_low_activity(tensor: &SpikeTensor, max_fires: usize) -> SpikeTensor {
    let row_words = tensor.k().div_ceil(64);
    SpikeTensor::from_row_words(tensor.m(), tensor.k(), tensor.timesteps(), |m, words| {
        let keep = tensor.fires_above_mask(m, max_fires);
        for (t, plane) in tensor.planes().iter().enumerate() {
            let out = &mut words[t * row_words..(t + 1) * row_words];
            for ((o, &w), &kept) in out.iter_mut().zip(plane.row(m).words()).zip(keep.words()) {
                *o = w & kept;
            }
        }
    })
}

/// Synthetic accuracy-recovery model for the Fig. 11 trend.
///
/// `accuracy_after(e) = baseline − drop · exp(−e / recovery_epochs)`, with
/// `accuracy_after(0)` being the accuracy right after masking ("Mask" in
/// Fig. 11) and the curve approaching the original accuracy as fine-tuning
/// progresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FineTuneAccuracyModel {
    /// Accuracy of the original (unmasked) dual-sparse SNN, in percent.
    pub baseline: f64,
    /// Accuracy drop right after masking, in percentage points.
    pub mask_drop: f64,
    /// Recovery time constant, in epochs.
    pub recovery_epochs: f64,
}

impl FineTuneAccuracyModel {
    /// The VGG16 preset (CIFAR-10 ballpark from the paper's Fig. 11: ~91.5%
    /// baseline, ~1.5 point mask drop, full recovery within 5 epochs).
    pub fn vgg16() -> Self {
        FineTuneAccuracyModel {
            baseline: 91.5,
            mask_drop: 1.6,
            recovery_epochs: 1.4,
        }
    }

    /// The ResNet19 preset (~92.5% baseline, ~2 point mask drop).
    pub fn resnet19() -> Self {
        FineTuneAccuracyModel {
            baseline: 92.5,
            mask_drop: 2.1,
            recovery_epochs: 1.6,
        }
    }

    /// Accuracy in percent after `epochs` epochs of fine-tuning (0 = the
    /// "Mask" point; the original accuracy is [`Self::baseline`]).
    pub fn accuracy_after(&self, epochs: f64) -> f64 {
        self.baseline - self.mask_drop * (-epochs / self.recovery_epochs).exp()
    }

    /// The five points plotted in Fig. 11: Origin, Mask, FT-e1, FT-e5,
    /// FT-e10.
    pub fn figure11_points(&self) -> Vec<(String, f64)> {
        vec![
            ("Origin".to_owned(), self.baseline),
            ("Mask".to_owned(), self.accuracy_after(0.0)),
            ("FT-e1".to_owned(), self.accuracy_after(1.0)),
            ("FT-e5".to_owned(), self.accuracy_after(5.0)),
            ("FT-e10".to_owned(), self.accuracy_after(10.0)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::random_tensor;
    use proptest::prelude::*;

    /// The per-bit masking: every neuron's fire count read bit by bit and
    /// every bit of a masked neuron cleared (the reference for
    /// [`mask_low_activity`]).
    fn mask_low_activity_per_bit(tensor: &SpikeTensor, max_fires: usize) -> SpikeTensor {
        let mut out = tensor.clone();
        for m in 0..tensor.m() {
            for k in 0..tensor.k() {
                if tensor.packed_word(m, k).fire_count() <= max_fires {
                    for t in 0..tensor.timesteps() {
                        out.set(m, k, t, false);
                    }
                }
            }
        }
        out
    }

    proptest! {
        #[test]
        fn word_level_masking_matches_per_bit_reference(
            shape in (0usize..6, 0usize..200, 1usize..=16),
            seed in any::<u64>(),
            density in 0u64..100,
            max_fires in 0usize..=2,
        ) {
            let a = random_tensor(shape, seed, density);
            prop_assert_eq!(
                mask_low_activity(&a, max_fires),
                mask_low_activity_per_bit(&a, max_fires)
            );
        }
    }

    #[test]
    fn masking_increases_silent_fraction() {
        let mut a = SpikeTensor::zeros(2, 4, 4);
        a.set(0, 0, 0, true); // fires once
        a.set(0, 1, 0, true);
        a.set(0, 1, 1, true); // fires twice
        a.set(1, 3, 2, true); // fires once
        let before = a.packed_sparsity();
        let ft = mask_low_activity(&a, 1);
        assert!(ft.packed_sparsity() > before);
        assert_eq!(ft.spike_count(), 2);
        // Kept neuron untouched.
        assert_eq!(ft.packed_word(0, 1).fire_count(), 2);
    }

    #[test]
    fn masking_zero_threshold_only_removes_silent() {
        let mut a = SpikeTensor::zeros(1, 2, 4);
        a.set(0, 0, 0, true);
        let same = mask_low_activity(&a, 0);
        assert_eq!(same, a, "threshold 0 keeps single-fire neurons");
    }

    #[test]
    fn masked_tensor_never_gains_spikes() {
        let mut a = SpikeTensor::zeros(3, 3, 4);
        for i in 0..3 {
            a.set(i, i, 0, true);
            a.set(i, i, 3, true);
        }
        let ft = mask_low_activity(&a, 1);
        assert!(ft.spike_count() <= a.spike_count());
    }

    #[test]
    fn accuracy_recovers_monotonically() {
        let model = FineTuneAccuracyModel::vgg16();
        let masked = model.accuracy_after(0.0);
        assert!(masked < model.baseline);
        let e1 = model.accuracy_after(1.0);
        let e5 = model.accuracy_after(5.0);
        let e10 = model.accuracy_after(10.0);
        assert!(masked < e1 && e1 < e5 && e5 < e10);
        // Paper: "with a very small number of fine-tuning (<5 epochs), the
        // accuracy can be fully recovered" — within half a point by e5.
        assert!(model.baseline - e5 < 0.5);
    }

    #[test]
    fn figure11_points_has_expected_labels() {
        let pts = FineTuneAccuracyModel::resnet19().figure11_points();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].0, "Origin");
        assert_eq!(pts[2].0, "FT-e1");
    }
}

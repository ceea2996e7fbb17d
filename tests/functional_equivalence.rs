//! Cross-crate functional equivalence: every datapath in the workspace must
//! produce bit-identical results to the golden SNN model.

use loas::sparse::spmspm;
use loas::workloads::networks::profiles;
use loas::{
    Accelerator, LayerShape, Loas, LoasConfig, PreparedLayer, SparsityProfile, WorkloadGenerator,
};

fn workload(seed: u64, shape: LayerShape, profile: &SparsityProfile) -> loas::LayerWorkload {
    WorkloadGenerator::new(seed)
        .generate(&format!("equiv-{seed}"), shape, profile)
        .expect("profile feasible")
}

#[test]
fn all_spmspm_orders_agree_on_generated_workloads() {
    for seed in [1u64, 2, 3] {
        let w = workload(seed, LayerShape::new(4, 12, 10, 96), &profiles::vgg16());
        let dense = spmspm::dense_reference(w.spikes.planes(), &w.weights).unwrap();
        assert_eq!(
            spmspm::inner_product(w.spikes.planes(), &w.weights).unwrap(),
            dense
        );
        assert_eq!(
            spmspm::outer_product(w.spikes.planes(), &w.weights).unwrap(),
            dense
        );
        assert_eq!(
            spmspm::gustavson(w.spikes.planes(), &w.weights).unwrap(),
            dense
        );
    }
}

#[test]
fn loas_verified_datapath_is_bit_exact_across_profiles() {
    for (seed, profile) in [
        (11u64, profiles::alexnet()),
        (12, profiles::vgg16()),
        (13, profiles::resnet19()),
    ] {
        let w = workload(seed, LayerShape::new(4, 20, 12, 128), &profile);
        let golden = w.golden_layer().forward(&w.spikes).unwrap();
        let report = Loas::default()
            .with_verification(true)
            .run_layer(&PreparedLayer::new(&w));
        assert_eq!(
            report.output.as_ref().unwrap(),
            &golden.spikes,
            "seed {seed}: accelerator output diverged from golden"
        );
    }
}

#[test]
fn loas_bit_exact_at_other_timestep_counts() {
    for t in [1usize, 2, 8] {
        // Use a profile that stays feasible at this T.
        let profile = SparsityProfile::from_percentages(80.0, 65.0, 72.0, 95.0).unwrap();
        let shape = LayerShape::new(t, 8, 8, 64);
        let Ok(w) = WorkloadGenerator::new(42).generate(&format!("t{t}"), shape, &profile) else {
            continue; // profile infeasible at this T: nothing to check
        };
        let golden = w.golden_layer().forward(&w.spikes).unwrap();
        let mut loas =
            Loas::new(LoasConfig::builder().timesteps(t).build()).with_verification(true);
        let report = loas.run_layer(&PreparedLayer::new(&w));
        assert_eq!(report.output.as_ref().unwrap(), &golden.spikes, "T={t}");
    }
}

#[test]
fn preprocessing_never_adds_spikes_and_keeps_weights() {
    let w = workload(21, LayerShape::new(4, 16, 8, 96), &profiles::vgg16());
    let ft = w.with_preprocessing();
    assert!(ft.spikes.spike_count() <= w.spikes.spike_count());
    assert_eq!(ft.weights, w.weights);
    // Masked neurons are exactly those firing <= 1 times.
    for m in 0..w.spikes.m() {
        for k in 0..w.spikes.k() {
            let orig = w.spikes.packed_word(m, k);
            let masked = ft.spikes.packed_word(m, k);
            if orig.fires_at_most_once() {
                assert!(masked.is_silent());
            } else {
                assert_eq!(orig, masked);
            }
        }
    }
}

//! Property test of the per-layer memo: a sequence of LoAS configs run
//! back to back on one shared [`PreparedLayer`] (reusing its memoized
//! sweeps, replays and span tables) must report byte for byte what each
//! config reports on a freshly prepared layer.

use loas_core::{Accelerator, Loas, LoasConfig, PreparedLayer, SweepStrategy};
use loas_workloads::{LayerShape, LayerWorkload, SparsityProfile, WorkloadGenerator};
use proptest::prelude::*;

/// A config decoded from `code`. Each field takes one of a few values, so
/// a short sequence repeats tile heights and bandwidth-free configs.
fn config(code: u32, timesteps: usize) -> LoasConfig {
    let pick = |shift: u32, options: usize| (code >> shift) as usize % options;
    LoasConfig {
        timesteps,
        tppes: [1, 3, 4, 16][pick(0, 4)],
        hbm_gbps: [16.0, 64.0, 128.0][pick(2, 3)],
        hbm_channels: [1, 4, 16][pick(4, 3)],
        cache_bytes: [1024, 4096, 256 * 1024][pick(6, 3)],
        fifo_depth: [1, 2, 8][pick(8, 3)],
        two_fast_prefix: pick(10, 2) == 1,
        temporal_parallel: pick(11, 2) == 1,
        discard_low_activity_outputs: pick(12, 2) == 1,
        ..LoasConfig::table3()
    }
}

fn workload(shape: (usize, usize, usize, usize), seed: u64) -> Option<LayerWorkload> {
    let (t, m, n, k) = shape;
    let profile = SparsityProfile::from_percentages(75.0, 55.0, 62.0, 90.0).ok()?;
    WorkloadGenerator::new(seed)
        .generate("memo-prop", LayerShape::new(t, m, n, k), &profile)
        .ok()
}

fn report(config: &LoasConfig, layer: &PreparedLayer) -> String {
    Loas::new(config.clone())
        .with_sweep(SweepStrategy::Kernel)
        .run_layer(layer)
        .to_portable()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shared_layer_reports_match_fresh_layers(
        shape in (1usize..=8, 1usize..=20, 1usize..=12, 16usize..=192),
        seed in any::<u64>(),
        codes in proptest::collection::vec(any::<u32>(), 1..12),
    ) {
        let Some(workload) = workload(shape, seed) else {
            continue; // infeasible profile draw: nothing to check
        };
        let shared = PreparedLayer::new(&workload);
        for &code in &codes {
            let config = config(code, shape.0);
            let fresh = PreparedLayer::new(&workload);
            prop_assert_eq!(report(&config, &shared), report(&config, &fresh));
        }
        let stats = shared.memo_stats();
        prop_assert_eq!(stats.replays.hits + stats.replays.misses, codes.len() as u64);
    }
}

//! Property test of the v2 spec schema: any runnable campaign assembled
//! from random workloads and random catalog configurations must survive
//! `campaign_to_json` → `campaign_from_json` with identical content
//! hashes (memo keys), identical accelerators, and a fixed-point
//! serialization.

use loas_baselines::{GammaConfig, GospaConfig, PtbConfig, SparTenConfig, StellarConfig};
use loas_core::LoasConfig;
use loas_engine::{AcceleratorSpec, Campaign, WorkloadSpec};
use loas_serve::spec_io::{campaign_from_json, campaign_to_json};
use loas_workloads::{LayerShape, SparsityProfile};
use proptest::prelude::*;

/// One random accelerator spec: a catalog model with (for even draws)
/// non-default configuration overrides picked from each model's sweepable
/// knobs.
fn accelerator(model: u64, knob: u64, tweak: bool, t: usize) -> AcceleratorSpec {
    let pow2 = |lo: u32, span: u64| 1usize << (lo as u64 + knob % span) as u32;
    match model % 6 {
        0 => {
            let mut config = SparTenConfig::default();
            if tweak {
                config = SparTenConfig::builder()
                    .pes(pow2(2, 4))
                    .cache_bytes(pow2(16, 4))
                    .build();
            }
            AcceleratorSpec::from_config(config)
        }
        1 => {
            let mut config = GospaConfig::default();
            if tweak {
                config = GospaConfig::builder()
                    .lanes(pow2(2, 4))
                    .psum_buffer_bytes(pow2(12, 6))
                    .build();
            }
            AcceleratorSpec::from_config(config)
        }
        2 => {
            let mut config = GammaConfig::default();
            if tweak {
                config = GammaConfig::builder()
                    .cache_bytes(pow2(14, 6))
                    .merge_radix(pow2(2, 6))
                    .build();
            }
            AcceleratorSpec::from_config(config)
        }
        3 => {
            let mut config = PtbConfig::default();
            if tweak {
                config = PtbConfig::builder()
                    .array_rows(pow2(2, 4))
                    .utilization(0.1 + (knob % 9) as f64 / 10.0)
                    .build();
            }
            AcceleratorSpec::from_config(config)
        }
        4 => {
            let mut config = StellarConfig::default();
            if tweak {
                config = StellarConfig::builder().array_rows(pow2(2, 4)).build();
            }
            AcceleratorSpec::from_config(config)
        }
        _ => {
            // LoAS runs only workloads of its own window: a spec pairing
            // it with another `t` is refused.
            let mut config = LoasConfig {
                timesteps: t,
                ..LoasConfig::table3()
            };
            if tweak {
                config = LoasConfig::builder()
                    .tppes(pow2(2, 4))
                    .timesteps(t)
                    .hbm_gbps(2.0f64.powi((knob % 9) as i32 + 3))
                    .discard_low_activity_outputs(knob.is_multiple_of(2))
                    .build();
            }
            AcceleratorSpec::from_config(config)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn v2_specs_round_trip_with_identical_content_hashes(
        shape in (1usize..=16, 1usize..=32, 1usize..=32, 1usize..=512),
        fractions in (0.3f64..0.95, 0.2f64..0.8, 0.0f64..0.15, 0.5f64..0.999),
        seed in any::<u64>(),
        choice in (any::<u64>(), any::<u64>(), any::<bool>()),
    ) {
        let (t, m, n, k) = shape;
        let (origin, silent, ft_extra, weight) = fractions;
        let (model, knob, tweak) = choice;
        let profile = SparsityProfile {
            spike_origin: origin,
            silent,
            silent_ft: (silent + ft_extra).min(1.0),
            weight,
        };
        let workload =
            WorkloadSpec::new("prop-w", LayerShape::new(t, m, n, k), profile).with_seed(seed);
        let accelerator = accelerator(model, knob, tweak, t);
        let mut campaign = Campaign::new("prop-campaign");
        campaign.push_layer(workload, accelerator);

        let text = campaign_to_json(&campaign);
        let parsed = campaign_from_json(&text).expect("serialized specs parse");
        prop_assert_eq!(parsed.len(), campaign.len());
        let (a, b) = (&campaign.jobs()[0], &parsed.jobs()[0]);
        // Identical workload content keys (bit-exact fractions + seed)...
        prop_assert_eq!(a.workload.key(), b.workload.key());
        // ...identical typed accelerator (model + every config field)...
        prop_assert_eq!(&a.accelerator, &b.accelerator);
        prop_assert_eq!(
            a.accelerator.config().fields(),
            b.accelerator.config().fields()
        );
        // ...and therefore the identical content hash / memo key.
        prop_assert_eq!(a.memo_key(), b.memo_key());
        // Serialization is a fixed point.
        prop_assert_eq!(campaign_to_json(&parsed), text);
    }
}

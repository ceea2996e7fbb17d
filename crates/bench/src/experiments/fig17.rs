//! Fig. 17 — scalability of LoAS across weight sparsity, timesteps, and
//! layer size.
//!
//! All three panels share **one campaign**: the weight-sparsity sweep, the
//! T=8 VGG16 network replay, and the layer-size comparison are jobs in a
//! single sharded batch (the T=4 VGG16 reference rides the cross-experiment
//! network-report cache).

use crate::context::{Context, Design};
use crate::report::{num, ratio, Table};
use loas_core::LoasConfig;
use loas_engine::{AcceleratorSpec, Campaign, WorkloadSpec};
use loas_workloads::networks::{self, profiles};
use loas_workloads::{LayerShape, SparsityProfile, TemporalScalingModel};

fn scaled_profile(base: &SparsityProfile, weight_pct: f64) -> SparsityProfile {
    SparsityProfile::from_percentages(
        base.spike_origin * 100.0,
        base.silent * 100.0,
        base.silent_ft * 100.0,
        weight_pct,
    )
    .expect("sweep values are valid percentages")
}

/// Regenerates the three Fig. 17 sweeps.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    // The T=4 VGG16 reference (shared with Fig. 12/13 via the report cache).
    let t4 = ctx
        .network_report(&networks::vgg16(), Design::Loas)
        .total_cycles()
        .get() as f64;

    let mut campaign = Campaign::new("fig17");

    // ---- Panel 1 jobs: B sparsity {98.2 (High), 68.4 (Medium), 25 (Low)}
    // on the VGG16 selected layer (V-L8 shape at network scale is
    // representative and keeps the sweep tractable).
    let base_shape = if ctx.is_quick() {
        LayerShape::new(4, 16, 32, 512)
    } else {
        LayerShape::new(4, 16, 512, 2304) // V-L8
    };
    let sparsity_points = [
        ("High 98.2%", 98.2),
        ("Medium 68.4%", 68.4),
        ("Low 25.0%", 25.0),
    ];
    let sparsity_jobs: Vec<usize> = sparsity_points
        .iter()
        .map(|(_, weight_pct)| {
            let workload = WorkloadSpec::new(
                format!("fig17-b-{weight_pct}"),
                base_shape,
                scaled_profile(&profiles::vgg16(), *weight_pct),
            )
            .with_seed(ctx.generator().seed());
            campaign.push_layer(workload, AcceleratorSpec::loas())
        })
        .collect();

    // ---- Panel 2 jobs: the whole VGG16 network at T=8, profile
    // extrapolated by the temporal mixture.
    let temporal =
        TemporalScalingModel::fit(&profiles::vgg16(), 4, TemporalScalingModel::DEFAULT_ALPHA)
            .expect("VGG16 fits the temporal mixture");
    let profile8 = temporal.profile_at(8).expect("T=8 profile feasible");
    let mut spec8 = networks::vgg16();
    spec8.name = "VGG16-T8".to_owned();
    for layer in &mut spec8.layers {
        layer.shape.t = 8;
        layer.profile = profile8;
        layer.name = format!("{}-T8", layer.name);
    }
    spec8.layers = spec8.layers.iter().map(|l| ctx.shrink_layer(l)).collect();
    let t8_jobs = campaign.push_network(
        &spec8,
        AcceleratorSpec::loas_with(LoasConfig::builder().timesteps(8).build()),
        ctx.generator().seed(),
    );

    // ---- Panel 3 jobs: layer size — V-L8 vs the SpikeTransformer HFF
    // layer (quick mode keeps only V-L8; the transformer layer is huge).
    let selected = networks::selected_layers();
    let picks: Vec<&loas_workloads::networks::LayerSpec> = if ctx.is_quick() {
        vec![&selected[1]]
    } else {
        vec![&selected[1], &selected[3]] // V-L8 and T-HFF
    };
    let size_jobs: Vec<(usize, &loas_workloads::networks::LayerSpec)> = picks
        .into_iter()
        .map(|spec| {
            let workload = WorkloadSpec::from_layer(spec).with_seed(ctx.generator().seed());
            (campaign.push_layer(workload, AcceleratorSpec::loas()), spec)
        })
        .collect();

    let outcome = ctx.run_campaign(&campaign);

    // ---- Panel 1 table.
    let mut sparsity_panel = Table::new(
        "Fig. 17 (left) — LoAS vs weight sparsity of B (VGG16, normalized perf)",
        vec!["B sparsity", "cycles", "performance"],
    );
    let high_cycles = outcome.layer_report(sparsity_jobs[0]).stats.cycles.get() as f64;
    for ((label, _), &job) in sparsity_points.iter().zip(&sparsity_jobs) {
        let cycles = outcome.layer_report(job).stats.cycles.get() as f64;
        sparsity_panel.push_row(
            *label,
            vec![format!("{cycles:.0}"), num(high_cycles / cycles)],
        );
    }
    use super::reference::fig17::*;
    let (high, low) = (sparsity_points[0].1, sparsity_points[2].1);
    sparsity_panel.push_note(format!("paper: scaling B sparsity from {high}% to {low}% cuts performance by ~{LOW_SPARSITY_PERF_DROP_PCT}%"));

    // ---- Panel 2 table.
    let mut t_panel = Table::new(
        "Fig. 17 (middle) — LoAS vs timesteps (VGG16)",
        vec!["T", "cycles", "performance vs T=4"],
    );
    t_panel.push_row("T=4", vec![format!("{t4:.0}"), ratio(1.0)]);
    let t8 = outcome.records[t8_jobs]
        .iter()
        .map(|record| record.report.stats.cycles.get())
        .sum::<u64>() as f64;
    t_panel.push_row("T=8", vec![format!("{t8:.0}"), ratio(t4 / t8)]);
    t_panel.push_note(format!(
        "paper: doubling timesteps loses only ~{DOUBLE_T_PERF_LOSS_PCT}% performance (FTP scales)"
    ));

    // ---- Panel 3 table.
    let mut size_panel = Table::new(
        "Fig. 17 (right) — LoAS vs layer size",
        vec!["layer", "dense ops", "cycles", "cycles per M dense-ops"],
    );
    for (job, spec) in size_jobs {
        let ops = spec.shape.dense_ops() as f64;
        let cycles = outcome.layer_report(job).stats.cycles.get() as f64;
        size_panel.push_row(
            spec.name.clone(),
            vec![
                format!("{:.1}M", ops / 1e6),
                format!("{cycles:.0}"),
                num(cycles / (ops / 1e6)),
            ],
        );
    }
    size_panel.push_note("paper: LoAS scales well even on the much larger transformer layer");
    vec![sparsity_panel, t_panel, size_panel]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denser_weights_cost_performance() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert!(t.is_consistent());
        }
        // Performance column monotonically decreases down the sparsity
        // sweep.
        let perf: Vec<f64> = tables[0]
            .rows
            .iter()
            .map(|(_, c)| c[1].parse().unwrap())
            .collect();
        assert!(perf[0] >= perf[1] && perf[1] >= perf[2], "{perf:?}");
    }

    #[test]
    fn doubling_t_costs_less_than_halving() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        let ratio_cell = &tables[1].rows[1].1[1];
        let perf: f64 = ratio_cell.trim_end_matches('x').parse().unwrap();
        assert!(
            perf > 0.55,
            "T=8 keeps well over half the T=4 performance: {perf}"
        );
    }
}

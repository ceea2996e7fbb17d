//! Fig. 18 — dual-sparse SNN (LoAS) vs dual-sparse ANN (SparTen, Gamma) on
//! VGG16: energy efficiency and memory traffic.

use crate::context::{Context, Design};
use crate::report::{pct, ratio, Table};
use loas_baselines::{run_gamma_ann, run_sparten_ann, AnnPrepared};
use loas_core::LayerReport;
use loas_sim::{EnergyBreakdown, SimStats};
use loas_workloads::{generate_ann, networks, LayerShape};

/// The ANN reference point: 8-bit VGG16, 43.9% activation sparsity, 98.2%
/// weight sparsity (Section VI-B).
const ANN_ACT_SPARSITY: f64 = 0.439;
const ANN_WEIGHT_SPARSITY: f64 = 0.982;

fn sum_reports(reports: &[LayerReport]) -> (SimStats, EnergyBreakdown) {
    let mut stats = SimStats::new();
    let mut energy = EnergyBreakdown::default();
    for r in reports {
        stats.merge_sequential(&r.stats);
        energy.dram_pj += r.energy.dram_pj;
        energy.sram_pj += r.energy.sram_pj;
        energy.compute_pj += r.energy.compute_pj;
        energy.sparsity_pj += r.energy.sparsity_pj;
        energy.static_pj += r.energy.static_pj;
    }
    (stats, energy)
}

/// Regenerates Fig. 18.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    let spec = networks::vgg16();
    let snn = ctx.network_report(&spec, Design::Loas);
    let (snn_stats, snn_energy) = (snn.total_stats(), snn.total_energy());

    // ANN VGG16: same layer shapes with t = 1.
    let mut sparten_reports = Vec::new();
    let mut gamma_reports = Vec::new();
    for layer in &spec.layers {
        let mut shape = layer.shape;
        if ctx.is_quick() {
            shape.m = shape.m.clamp(1, 16);
            shape.n = shape.n.min(32);
            shape.k = shape.k.min(512);
        }
        let shape = LayerShape { t: 1, ..shape };
        let ann = generate_ann(
            ctx.generator(),
            &format!("{}-ann", layer.name),
            shape,
            ANN_ACT_SPARSITY,
            ANN_WEIGHT_SPARSITY,
        )
        .expect("ANN sparsities valid");
        let prepared = AnnPrepared::new(&ann);
        sparten_reports.push(run_sparten_ann(&prepared));
        gamma_reports.push(run_gamma_ann(&prepared));
    }
    let (sparten_stats, sparten_energy) = sum_reports(&sparten_reports);
    let (gamma_stats, gamma_energy) = sum_reports(&gamma_reports);

    let mut t = Table::new(
        "Fig. 18 — dual-sparse SNN (LoAS) vs dual-sparse ANN (VGG16)",
        vec![
            "design",
            "energy eff. (vs LoAS=1)",
            "DRAM MB",
            "SRAM MB",
            "data movement %",
        ],
    );
    let loas_e = snn_energy.total_pj();
    for (name, stats, energy) in [
        ("LoAS (SNN, T=4)", &snn_stats, &snn_energy),
        ("SparTen-ANN", &sparten_stats, &sparten_energy),
        ("Gamma-ANN", &gamma_stats, &gamma_energy),
    ] {
        t.push_row(
            name,
            vec![
                ratio(loas_e / energy.total_pj().max(1e-12)).replace('x', "x (higher=worse)"),
                format!("{:.2}", stats.dram.total_mb()),
                format!("{:.2}", stats.sram.total_mb()),
                pct(energy.data_movement_fraction() * 100.0),
            ],
        );
    }
    t.push_note("paper: LoAS ~2.5x / ~1.2x more energy-efficient than SparTen-ANN / Gamma-ANN; ~60% less traffic than SparTen-ANN; Gamma-ANN trades 3.5x SRAM for lower DRAM; ~60% of energy is data movement for both");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Energy-efficiency gains of the SNN over the two ANN designs.
    fn energy_gains(ctx: &mut Context) -> (f64, f64) {
        let tables = run(ctx);
        let parse = |row: usize| -> f64 {
            tables[0].rows[row].1[0]
                .split('x')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        // Row 0 is LoAS itself (1.0); rows 1-2 hold LoAS_energy / ann_energy,
        // i.e. values < 1 mean the ANN spent more.
        (1.0 / parse(1), 1.0 / parse(2))
    }

    #[test]
    fn snn_beats_both_ann_designs() {
        let mut ctx = Context::quick();
        let (vs_sparten, vs_gamma) = energy_gains(&mut ctx);
        assert!(vs_sparten > 1.0, "vs SparTen-ANN {vs_sparten}");
        assert!(vs_gamma > 0.5, "vs Gamma-ANN {vs_gamma}");
    }

    #[test]
    fn table_is_consistent() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        assert!(tables[0].is_consistent());
        assert_eq!(tables[0].rows.len(), 3);
    }
}

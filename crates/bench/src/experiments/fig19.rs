//! Fig. 19 — dual-sparse LoAS vs dense SNN accelerators (PTB, Stellar) on
//! VGG16 with 4 timesteps.

use crate::context::{Context, Design};
use crate::report::{ratio, Table};
use loas_workloads::networks;

/// Regenerates Fig. 19: speedup, energy efficiency, and traffic, normalized
/// to LoAS.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    let spec = networks::vgg16();
    let loas = ctx.network_report(&spec, Design::Loas);
    let mut t = Table::new(
        "Fig. 19 — LoAS vs dense SNN accelerators (VGG16, T=4)",
        vec![
            "design",
            "LoAS speedup",
            "LoAS energy gain",
            "DRAM vs LoAS",
            "SRAM vs LoAS",
        ],
    );
    let loas_stats = loas.total_stats();
    t.push_row("LoAS", vec![ratio(1.0), ratio(1.0), ratio(1.0), ratio(1.0)]);
    for design in [Design::Ptb, Design::Stellar] {
        let report = ctx.network_report(&spec, design);
        let stats = report.total_stats();
        t.push_row(
            design.name(),
            vec![
                ratio(loas.speedup_over(&report)),
                ratio(loas.energy_gain_over(&report)),
                ratio(stats.dram.total() as f64 / loas_stats.dram.total().max(1) as f64),
                ratio(stats.sram.total() as f64 / loas_stats.sram.total().max(1) as f64),
            ],
        );
    }
    use super::reference::fig19::*;
    let ((ptb_dram, ptb_sram), (stellar_dram, stellar_sram)) = (TRAFFIC_VS_PTB, TRAFFIC_VS_STELLAR);
    t.push_note(format!("paper: {SPEEDUP_VS_PTB:.1}x speedup / ~{ENERGY_VS_PTB}x energy / {ptb_dram}x DRAM / {ptb_sram:.1}x SRAM vs PTB; {SPEEDUP_VS_STELLAR:.1}x speedup / ~{ENERGY_VS_STELLAR:.1}x energy / {stellar_dram:.1}x DRAM / {stellar_sram:.1}x SRAM vs Stellar; Stellar beats PTB everywhere"));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loas_dominates_and_stellar_beats_ptb() {
        let mut ctx = Context::quick();
        let t = &run(&mut ctx)[0];
        assert!(t.is_consistent());
        let speed = |row: usize| -> f64 { t.rows[row].1[0].trim_end_matches('x').parse().unwrap() };
        let ptb = speed(1);
        let stellar = speed(2);
        assert!(ptb > 1.0, "LoAS faster than PTB: {ptb}");
        assert!(stellar > 1.0, "LoAS faster than Stellar: {stellar}");
        assert!(ptb > stellar, "Stellar beats PTB: {ptb} vs {stellar}");
    }
}

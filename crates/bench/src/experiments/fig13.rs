//! Fig. 13 — off-chip (KB) and on-chip (MB) memory traffic across the three
//! networks and five designs.
//!
//! Like Fig. 12, the full `networks x designs` grid executes as **one
//! sharded campaign** on the context's engine (prefetched below); the
//! cross-experiment report cache means a session that already ran Fig. 12
//! reuses every report here without re-simulating.

use crate::context::{Context, Design};
use crate::report::{ratio, Table};
use loas_workloads::networks;

/// Regenerates both Fig. 13 panels plus the Section VI-A traffic-ratio
/// analysis table.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    let specs = [networks::alexnet(), networks::vgg16(), networks::resnet19()];
    // One engine campaign for every missing (network, design) pair — not
    // a mini-campaign per table cell.
    ctx.prefetch_network_reports(&specs, &Design::SPMSPM_SET);
    let headers = vec![
        "network",
        "SparTen-SNN",
        "GoSPA-SNN",
        "Gamma-SNN",
        "LoAS",
        "LoAS(FT)",
    ];
    let mut offchip = Table::new("Fig. 13 (top) — off-chip traffic (KB)", headers.clone());
    let mut onchip = Table::new("Fig. 13 (bottom) — on-chip SRAM traffic (MB)", headers);
    let mut ratios = Table::new(
        "Section VI-A — traffic relative to LoAS (SRAM x, DRAM x)",
        vec!["network", "SparTen-SNN", "GoSPA-SNN", "Gamma-SNN"],
    );
    for spec in &specs {
        let loas = ctx.network_report(spec, Design::Loas).total_stats();
        let mut off_cells = Vec::new();
        let mut on_cells = Vec::new();
        let mut ratio_cells = Vec::new();
        for design in Design::SPMSPM_SET {
            let stats = ctx.network_report(spec, design).total_stats();
            off_cells.push(format!("{:.0}", stats.dram.total_kb()));
            on_cells.push(format!("{:.2}", stats.sram.total_mb()));
            if !matches!(design, Design::Loas | Design::LoasFt) {
                ratio_cells.push(format!(
                    "{} / {}",
                    ratio(stats.sram.total() as f64 / loas.sram.total().max(1) as f64),
                    ratio(stats.dram.total() as f64 / loas.dram.total().max(1) as f64),
                ));
            }
        }
        offchip.push_row(spec.name.clone(), off_cells);
        onchip.push_row(spec.name.clone(), on_cells);
        ratios.push_row(spec.name.clone(), ratio_cells);
    }
    use super::reference::fig13::*;
    let pairs = |pairs: [(f64, f64); 3]| pairs.map(|(s, d)| format!("{s:.2}/{d:.2}")).join(", ");
    let (sparten, gospa) = (pairs(SPARTEN_OVER_LOAS), pairs(GOSPA_OVER_LOAS));
    let [gamma_a, gamma_v, gamma_r] = GAMMA_DRAM_OVER_LOAS;
    ratios.push_note(format!("paper (SRAM/DRAM vs LoAS): SparTen {sparten}; GoSPA {gospa}; Gamma mean SRAM {GAMMA_MEAN_SRAM_OVER_LOAS:.1}x, DRAM {gamma_a:.2}/{gamma_v:.2}/{gamma_r:.2}"));
    vec![offchip, onchip, ratios]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loas_has_least_traffic_of_all_designs() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert!(t.is_consistent());
        }
        // Every baseline-vs-LoAS ratio in the third table must be >= 1 for
        // SRAM (the first number of each cell).
        for (_, cells) in &tables[2].rows {
            for cell in cells {
                let sram: f64 = cell
                    .split('/')
                    .next()
                    .unwrap()
                    .trim()
                    .trim_end_matches('x')
                    .parse()
                    .unwrap();
                assert!(sram >= 1.0, "baseline SRAM below LoAS: {cell}");
            }
        }
    }
}

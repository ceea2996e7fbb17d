//! `breakdown` — cycles, traffic and energy by component for each design of
//! the Fig. 12/13 comparison, one table per network.
//!
//! Not a paper figure: it is the per-component view behind Fig. 12's
//! energy ratios and Fig. 13's traffic panels, for calibrating the models
//! against [`super::reference`]. It reads the same cached network reports
//! as `fig12` and `fig13`, so after either it simulates nothing.

use crate::context::{Context, Design};
use crate::report::Table;
use loas_workloads::networks;

/// Regenerates one breakdown table per network: a row per
/// [`Design::SPMSPM_SET`] member. The five `E.*` cells are the
/// components of the report's total energy, in µJ, so they sum to
/// `total_energy().total_pj()` up to rounding.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    let specs = [networks::alexnet(), networks::vgg16(), networks::resnet19()];
    ctx.prefetch_network_reports(&specs, &Design::SPMSPM_SET);
    let mut tables = Vec::new();
    for spec in &specs {
        let mut table = Table::new(
            format!(
                "Breakdown — {}: cycles, traffic (MB) and energy (µJ)",
                spec.name
            ),
            vec![
                "design", "cycles", "dramMB", "sramMB", "E.dram", "E.sram", "E.comp", "E.spars",
                "E.static", "miss%",
            ],
        );
        for design in Design::SPMSPM_SET {
            let report = ctx.network_report(spec, design);
            let stats = report.total_stats();
            let energy = report.total_energy();
            let uj = |pj: f64| format!("{:.3}", pj / 1e6);
            table.push_row(
                design.name(),
                vec![
                    stats.cycles.get().to_string(),
                    format!("{:.2}", stats.dram.total_mb()),
                    format!("{:.2}", stats.sram.total_mb()),
                    uj(energy.dram_pj),
                    uj(energy.sram_pj),
                    uj(energy.compute_pj),
                    uj(energy.sparsity_pj),
                    uj(energy.static_pj),
                    format!("{:.3}", stats.cache.miss_rate() * 100.0),
                ],
            );
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_consistently_and_energy_cells_sum_to_the_total() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        let specs = [networks::alexnet(), networks::vgg16(), networks::resnet19()];
        assert_eq!(tables.len(), specs.len());
        for (table, spec) in tables.iter().zip(&specs) {
            assert!(table.is_consistent(), "{}", table.title);
            assert!(table.title.contains(&spec.name), "{}", table.title);
            // Cells skip the label column, so cells[3..8] sit under headers[4..9].
            assert_eq!(
                table.headers[4..9],
                ["E.dram", "E.sram", "E.comp", "E.spars", "E.static"]
            );
            assert_eq!(table.rows.len(), Design::SPMSPM_SET.len());
            for ((label, cells), design) in table.rows.iter().zip(Design::SPMSPM_SET) {
                assert_eq!(label, design.name());
                let summed_uj: f64 = cells[3..8]
                    .iter()
                    .map(|cell| cell.parse::<f64>().unwrap())
                    .sum();
                let total_uj = ctx.network_report(spec, design).total_energy().total_pj() / 1e6;
                // Five cells, each rounded to 0.0005 µJ at most.
                assert!(
                    (summed_uj - total_uj).abs() <= 5.0 * 0.0005 + 1e-9,
                    "{} {}: cells sum to {summed_uj} µJ, report total {total_uj} µJ",
                    spec.name,
                    design.name()
                );
            }
        }
    }
}

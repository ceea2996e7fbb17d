//! Fig. 12 — overall performance and energy efficiency of LoAS vs the three
//! spMspM baselines on AlexNet / VGG16 / ResNet19 (normalized to
//! SparTen-SNN).

use crate::context::{Context, Design};
use crate::report::{ratio, Table};
use loas_workloads::networks;

/// Regenerates both Fig. 12 panels: speedup and energy efficiency,
/// normalized to SparTen-SNN. The full `networks x designs` grid is
/// executed as one sharded campaign on the context's engine.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    let specs = [networks::alexnet(), networks::vgg16(), networks::resnet19()];
    ctx.prefetch_network_reports(&specs, &Design::SPMSPM_SET);
    let mut speedup = Table::new(
        "Fig. 12 (top) — speedup, normalized to SparTen-SNN",
        vec![
            "network",
            "SparTen-SNN",
            "GoSPA-SNN",
            "Gamma-SNN",
            "LoAS",
            "LoAS(FT)",
        ],
    );
    let mut energy = Table::new(
        "Fig. 12 (bottom) — energy efficiency, normalized to SparTen-SNN",
        vec![
            "network",
            "SparTen-SNN",
            "GoSPA-SNN",
            "Gamma-SNN",
            "LoAS",
            "LoAS(FT)",
        ],
    );
    for spec in &specs {
        let baseline = ctx.network_report(spec, Design::SparTen);
        let mut speed_cells = Vec::new();
        let mut energy_cells = Vec::new();
        for design in Design::SPMSPM_SET {
            let report = ctx.network_report(spec, design);
            speed_cells.push(ratio(report.speedup_over(&baseline)));
            energy_cells.push(ratio(report.energy_gain_over(&baseline)));
        }
        speedup.push_row(spec.name.clone(), speed_cells);
        energy.push_row(spec.name.clone(), energy_cells);
    }
    speedup.push_note(format!(
        "paper: LoAS(FT) mean speedups {:.2}x / {:.2}x / {:.2}x vs SparTen/GoSPA/Gamma; range {:.2}x (VGG16) to {:.2}x (ResNet19) vs SparTen",
        super::reference::fig12::MEAN_SPEEDUP_VS_SPARTEN,
        super::reference::fig12::MEAN_SPEEDUP_VS_GOSPA,
        super::reference::fig12::MEAN_SPEEDUP_VS_GAMMA,
        super::reference::fig12::VGG16_VS_SPARTEN,
        super::reference::fig12::RESNET19_VS_SPARTEN,
    ));
    energy.push_note(
        "paper: energy gains up to 3.68x (AlexNet vs SparTen-SNN); see reference::fig12::ENERGY_GAINS",
    );
    vec![speedup, energy]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// LoAS(FT) speedup over each baseline, averaged over the three
    /// networks.
    fn mean_speedups(ctx: &mut Context) -> (f64, f64, f64) {
        let specs = [networks::alexnet(), networks::vgg16(), networks::resnet19()];
        ctx.prefetch_network_reports(
            &specs,
            &[
                Design::LoasFt,
                Design::SparTen,
                Design::Gospa,
                Design::Gamma,
            ],
        );
        let mut vs = [0.0f64; 3];
        for spec in &specs {
            let ft = ctx.network_report(spec, Design::LoasFt);
            for (i, design) in [Design::SparTen, Design::Gospa, Design::Gamma]
                .into_iter()
                .enumerate()
            {
                vs[i] += ft.speedup_over(&ctx.network_report(spec, design));
            }
        }
        (vs[0] / 3.0, vs[1] / 3.0, vs[2] / 3.0)
    }

    #[test]
    fn tables_render_consistently() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert!(t.is_consistent(), "{}", t.title);
            assert_eq!(t.rows.len(), 3);
        }
    }

    #[test]
    fn loas_wins_on_every_network_even_quick() {
        let mut ctx = Context::quick();
        let (s, g, gm) = mean_speedups(&mut ctx);
        assert!(s > 1.0, "vs SparTen {s}");
        assert!(g > 1.0, "vs GoSPA {g}");
        assert!(gm > 1.0, "vs Gamma {gm}");
    }
}

//! Fig. 14 — off-chip traffic breakup (weight / input / psum / format /
//! output) for the three selected layers, normalized to LoAS, plus the
//! SRAM miss-rate comparison on the ResNet19 layer.
//!
//! The `3 layers x 4 designs` grid runs as one campaign on the context's
//! engine: each layer is generated and prepared once and shared by all
//! four design jobs.

use crate::context::{Context, Design};
use crate::report::{num, Table};
use loas_engine::Campaign;
use loas_sim::TrafficClass;
use loas_workloads::networks;

const DESIGNS: [Design; 4] = [Design::SparTen, Design::Gospa, Design::Gamma, Design::Loas];

/// Regenerates Fig. 14 on A-L4 / V-L8 / R-L19.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    use super::reference::fig14::*;
    let layer_specs: Vec<_> = networks::selected_layers()
        .iter()
        .take(3)
        .map(|spec| ctx.shrink_layer(spec))
        .collect();

    // One campaign: every (layer, design) pair as a job. LoAS(FT) is not
    // part of this figure, so no fine-tuned workload variants appear and
    // each layer maps to exactly one cached preparation.
    let mut campaign = Campaign::new("fig14");
    let mut job_ids = Vec::new();
    for layer_spec in &layer_specs {
        let workload = ctx.workload_spec(layer_spec);
        let per_design: Vec<usize> = DESIGNS
            .iter()
            .map(|design| campaign.push_layer(workload.clone(), design.accelerator_spec()))
            .collect();
        job_ids.push(per_design);
    }
    let outcome = ctx.run_campaign(&campaign);

    let mut tables = Vec::new();
    let mut miss = Table::new(
        "Fig. 14 (inset) — SRAM miss rate on R-L19 (normalized to LoAS)",
        vec!["design", "miss rate %", "vs LoAS"],
    );
    for (layer_spec, per_design) in layer_specs.iter().zip(&job_ids) {
        let mut t = Table::new(
            format!(
                "Fig. 14 — off-chip traffic breakup on {} (normalized to LoAS total)",
                layer_spec.name
            ),
            vec![
                "design", "weight", "input", "psum", "output", "format", "total",
            ],
        );
        let loas_total = outcome
            .layer_report(per_design[3])
            .stats
            .dram
            .total()
            .max(1) as f64;
        let mut loas_miss = 0.0;
        for (design, &job) in DESIGNS.iter().zip(per_design) {
            let stats = &outcome.layer_report(job).stats;
            let cells: Vec<String> = [
                TrafficClass::Weight,
                TrafficClass::Input,
                TrafficClass::Psum,
                TrafficClass::Output,
                TrafficClass::Format,
            ]
            .iter()
            .map(|&c| num(stats.dram.get(c) as f64 / loas_total))
            .chain([num(stats.dram.total() as f64 / loas_total)])
            .collect();
            t.push_row(design.name(), cells);
            if layer_spec.name == "R-L19" {
                let rate = stats.cache.miss_rate() * 100.0;
                if matches!(design, Design::Loas) {
                    loas_miss = rate;
                }
                miss.push_row(design.name(), vec![format!("{rate:.3}"), String::new()]);
            }
        }
        if layer_spec.name == "R-L19" {
            for (_, cells) in &mut miss.rows {
                let rate: f64 = cells[0].parse().unwrap();
                cells[1] = num(rate / loas_miss.max(1e-9));
            }
        }
        t.push_note(format!("paper: SparTen-SNN largest input traffic (dense spikes); GoSPA-SNN largest psum and format traffic; LoAS format ~{LOAS_FORMAT_OVER_SPARTEN:.1}x SparTen's (extra non-silent bitmasks)"));
        tables.push(t);
    }
    miss.push_note(format!("paper: SparTen-SNN {SPARTEN_MISS_RATE_RATIO:.0}x the LoAS miss rate ({LOAS_MISS_RATE_PCT:.2}%); GoSPA lowest (output-stationary). Absolute rates depend on access-granularity conventions: here every cache line an access spans counts"));
    tables.push(miss);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualitative_breakup_claims_hold() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert!(t.is_consistent(), "{}", t.title);
        }
        // In every layer table: SparTen has the largest input row, GoSPA
        // the largest psum.
        for t in &tables[..3] {
            let get = |row: usize, col: usize| -> f64 { t.rows[row].1[col].parse().unwrap() };
            let input_col = 1;
            let psum_col = 2;
            let sparten_input = get(0, input_col);
            let gospa_psum = get(1, psum_col);
            for row in 0..4 {
                // 15% slack: Gamma's per-row pointers sit on top of the
                // same dense spike-train footprint SparTen fetches, and the
                // cells round to two decimals.
                assert!(
                    get(row, input_col) <= sparten_input * 1.15 + 0.01,
                    "{} row {row}",
                    t.title
                );
                assert!(get(row, psum_col) <= gospa_psum, "{}", t.title);
            }
        }
    }

    #[test]
    fn layers_are_prepared_once_for_all_designs() {
        let mut ctx = Context::quick();
        run(&mut ctx);
        let stats = ctx.engine().cache_stats();
        assert_eq!(stats.generated, 3, "one preparation per selected layer");
        assert_eq!(stats.hits, 12 - 3, "the other 9 jobs share a preparation");
    }
}

//! Ablation studies of LoAS's three design choices (Section IV): the FTP
//! dataflow, the FTP-friendly inner-join, and the packed spike compression —
//! plus a global-cache capacity sweep. These isolate each contribution on
//! the paper's V-L8 layer.
//!
//! The configuration variants run as **one campaign** sharing a single
//! cached preparation of V-L8; the compression ablation reads the same
//! prepared layer straight from the engine cache.

use crate::context::Context;
use crate::report::{num, ratio, Table};
use loas_core::{compress, AreaPowerModel, LoasConfig};
use loas_engine::{AcceleratorSpec, Campaign};
use loas_workloads::networks;

const CACHE_POINTS_KB: [usize; 4] = [64, 128, 256, 512];

/// Runs all four ablations.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    let v_l8_spec = ctx.shrink_layer(&networks::selected_layers()[1]);
    let workload = ctx.workload_spec(&v_l8_spec);

    let mut campaign = Campaign::new("ablations");
    let ftp_job = campaign.push_layer(workload.clone(), AcceleratorSpec::loas());
    let seq_job = campaign.push_layer(
        workload.clone(),
        AcceleratorSpec::loas_with(LoasConfig::builder().temporal_parallel(false).build()),
    );
    let two_fast_job = campaign.push_layer(
        workload.clone(),
        AcceleratorSpec::loas_with(LoasConfig::builder().two_fast_prefix(true).build()),
    );
    let cache_jobs: Vec<usize> = CACHE_POINTS_KB
        .iter()
        .map(|&kb| {
            campaign.push_layer(
                workload.clone(),
                AcceleratorSpec::loas_with(LoasConfig::builder().cache_bytes(kb * 1024).build()),
            )
        })
        .collect();
    let outcome = ctx.run_campaign(&campaign);
    let ftp = outcome.layer_report(ftp_job);
    let seq = outcome.layer_report(seq_job);
    let two_fast = outcome.layer_report(two_fast_job);

    // ---- Ablation 1: FTP vs sequential timesteps on identical hardware.
    let mut dataflow = Table::new(
        "Ablation — FTP dataflow vs sequential timesteps (V-L8, same hardware & compression)",
        vec![
            "variant",
            "cycles",
            "speedup",
            "accumulates",
            "laggy cycles",
        ],
    );
    for r in [seq, ftp] {
        dataflow.push_row(
            r.accelerator.clone(),
            vec![
                format!("{}", r.stats.cycles.get()),
                ratio(seq.stats.cycles.get() as f64 / r.stats.cycles.get().max(1) as f64),
                format!("{}", r.stats.ops.accumulates),
                format!("{}", r.stats.ops.laggy_prefix_cycles),
            ],
        );
    }
    dataflow.push_note("isolates goal (3) of Section III: parallelizing t removes the T x latency; the pseudo/correction accumulates are the price (extra accumulate ops, cheap adders)");

    // ---- Ablation 2: fast+laggy inner-join vs two fast prefix-sums.
    let model = AreaPowerModel::loas_default();
    let laggy_table = model.tppe_table();
    let two_table = model.tppe_two_fast_table();
    let mut join = Table::new(
        "Ablation — FTP-friendly inner-join (fast+laggy) vs two fast prefix-sums (V-L8)",
        vec![
            "variant",
            "cycles",
            "throughput penalty",
            "TPPE mW",
            "TPPE mm2",
        ],
    );
    join.push_row(
        "fast + laggy (LoAS)",
        vec![
            format!("{}", ftp.stats.cycles.get()),
            ratio(ftp.stats.cycles.get() as f64 / two_fast.stats.cycles.get().max(1) as f64),
            format!("{:.2}", laggy_table.total_power_mw()),
            format!("{:.3}", laggy_table.total_area_mm2()),
        ],
    );
    join.push_row(
        "two fast (SparTen-style)",
        vec![
            format!("{}", two_fast.stats.cycles.get()),
            ratio(1.0),
            format!("{:.2}", two_table.total_power_mw()),
            format!("{:.3}", two_table.total_area_mm2()),
        ],
    );
    join.push_note(format!(
        "paper claim: the laggy circuit nearly halves prefix-sum cost with almost no throughput penalty — measured penalty {} at {:.0}% of the two-fast power",
        ratio(ftp.stats.cycles.get() as f64 / two_fast.stats.cycles.get().max(1) as f64),
        laggy_table.total_power_mw() / two_table.total_power_mw() * 100.0
    ));

    // ---- Ablation 3: compression formats for the input spikes (reads the
    // same cached preparation the simulation jobs used).
    let layer = ctx.prepared_layer(&v_l8_spec);
    let (_, comp) = compress::compress_tensor(&layer.workload.spikes);
    let mut formats = Table::new(
        "Ablation — input spike storage formats (V-L8)",
        vec!["format", "bits", "vs packed"],
    );
    let packed_bits = comp.total_bits();
    formats.push_row(
        "packed + bitmask (LoAS)",
        vec![format!("{packed_bits}"), ratio(1.0)],
    );
    formats.push_row(
        "dense spike trains",
        vec![
            format!("{}", comp.dense_bits),
            ratio(comp.dense_bits as f64 / packed_bits.max(1) as f64),
        ],
    );
    formats.push_row(
        "per-timestep CSR",
        vec![
            format!("{}", comp.csr_bits),
            ratio(comp.csr_bits as f64 / packed_bits.max(1) as f64),
        ],
    );
    formats.push_note(format!(
        "compression efficiency (spikes per payload bit): {:.2}",
        comp.efficiency()
    ));

    // ---- Ablation 4: global cache capacity sweep.
    let mut cache = Table::new(
        "Ablation — global cache capacity (V-L8)",
        vec!["capacity", "cycles", "off-chip KB", "miss rate %"],
    );
    for (&kb, &job) in CACHE_POINTS_KB.iter().zip(&cache_jobs) {
        let report = outcome.layer_report(job);
        cache.push_row(
            format!("{kb} KB"),
            vec![
                format!("{}", report.stats.cycles.get()),
                format!("{:.1}", report.stats.dram.total_kb()),
                num(report.stats.cache.miss_rate() * 100.0),
            ],
        );
    }
    cache.push_note("Table III picks 256 KB: 'enough to capture good on-chip data reuse'");
    vec![dataflow, join, formats, cache]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_ablations_render() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert!(t.is_consistent(), "{}", t.title);
        }
    }

    #[test]
    fn ftp_beats_sequential_and_laggy_halves_power() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        // Dataflow ablation: FTP speedup (row 1, col 1) > 1.
        let ftp_speedup: f64 = tables[0].rows[1].1[1]
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(ftp_speedup > 1.5, "FTP speedup {ftp_speedup}");
        // Join ablation: laggy power below two-fast power.
        let laggy_mw: f64 = tables[1].rows[0].1[2].parse().unwrap();
        let two_mw: f64 = tables[1].rows[1].1[2].parse().unwrap();
        assert!(laggy_mw < two_mw);
        // Format ablation: packed beats dense and CSR.
        for row in 1..3 {
            let vs: f64 = tables[2].rows[row].1[1]
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!(vs > 1.0, "packed must be smallest ({vs})");
        }
        // Cache sweep: larger cache never increases off-chip traffic.
        let kb: Vec<f64> = tables[3]
            .rows
            .iter()
            .map(|(_, c)| c[1].parse().unwrap())
            .collect();
        assert!(kb.windows(2).all(|w| w[1] <= w[0] * 1.001), "{kb:?}");
    }

    #[test]
    fn all_variants_share_one_preparation() {
        let mut ctx = Context::quick();
        run(&mut ctx);
        assert_eq!(
            ctx.engine().cache_stats().generated,
            1,
            "seven config variants + the compression ablation share one V-L8 preparation"
        );
    }
}

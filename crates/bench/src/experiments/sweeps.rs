//! Architectural scaling sweeps beyond the paper's figures: TPPE count,
//! off-chip bandwidth, timestep count, and — through a typed baseline
//! config — a **baseline**-config sweep (Gamma-SNN's FiberCache
//! capacity, the ablation knob the Gamma paper itself sweeps). These
//! probe the design points the paper's discussion section gestures at
//! (scaling LoAS up, and how far the FTP advantage carries as `T` grows
//! toward the silent-neuron erosion of Fig. 16(b)).
//!
//! All four sweeps run as **one campaign**: the V-L8 workload is prepared
//! once and shared by the configuration-variant jobs, and the
//! timestep-sweep workloads ride in the same sharded batch.

use crate::context::Context;
use crate::report::{num, ratio, Table};
use loas_baselines::GammaConfig;
use loas_core::LoasConfig;
use loas_engine::{AcceleratorSpec, Campaign, WorkloadSpec};
use loas_workloads::networks::{self, profiles};
use loas_workloads::TemporalScalingModel;

const TPPE_POINTS: [usize; 4] = [4, 8, 16, 32];
const BW_POINTS: [f64; 5] = [16.0, 32.0, 64.0, 128.0, 256.0];
const T_POINTS: [usize; 4] = [2, 4, 8, 16];
/// Shared with `loas-serve spec --gamma-cache`, so the served sweep and
/// this table can never drift apart.
const GAMMA_CACHE_POINTS: [usize; 4] = GammaConfig::CACHE_SWEEP_POINTS;

/// Runs the four sweeps.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    let v_l8_spec = ctx.shrink_layer(&networks::selected_layers()[1]);
    let v_l8 = ctx.workload_spec(&v_l8_spec);

    // ---- Build the whole sweep grid as one campaign.
    let mut campaign = Campaign::new("sweeps");
    let pe_jobs: Vec<usize> = TPPE_POINTS
        .iter()
        .map(|&tppes| {
            campaign.push_layer(
                v_l8.clone(),
                AcceleratorSpec::loas_with(LoasConfig::builder().tppes(tppes).build()),
            )
        })
        .collect();
    let bw_jobs: Vec<usize> = BW_POINTS
        .iter()
        .map(|&gbps| {
            campaign.push_layer(
                v_l8.clone(),
                AcceleratorSpec::loas_with(LoasConfig::builder().hbm_gbps(gbps).build()),
            )
        })
        .collect();
    // Timestep sweep: sparsity extrapolated by the temporal mixture
    // (Fig. 16(b) model), fresh workload per T.
    let temporal =
        TemporalScalingModel::fit(&profiles::v_l8(), 4, TemporalScalingModel::DEFAULT_ALPHA)
            .expect("V-L8 fits the temporal mixture");
    let mut t_jobs: Vec<(usize, usize)> = Vec::new(); // (T, job id)
    for t in T_POINTS {
        let Ok(profile) = temporal.profile_at(t) else {
            continue;
        };
        // Skip T points whose extrapolated profile the firing-model solve
        // cannot realise (generation's only failure mode), as the
        // pre-campaign loop did — a panic would abort the whole repro run.
        if profile.firing_model(t).is_err() {
            continue;
        }
        let mut shape = v_l8_spec.shape;
        shape.t = t;
        let workload = WorkloadSpec::new(format!("tsweep-{t}"), shape, profile)
            .with_seed(ctx.generator().seed());
        let job = campaign.push_layer(
            workload,
            AcceleratorSpec::loas_with(LoasConfig::builder().timesteps(t).build()),
        );
        t_jobs.push((t, job));
    }
    // Baseline-config sweep: Gamma-SNN's FiberCache
    // capacity, a typed non-LoAS config riding in the same campaign.
    let gamma_jobs: Vec<usize> = GAMMA_CACHE_POINTS
        .iter()
        .map(|&bytes| {
            campaign.push_layer(
                v_l8.clone(),
                AcceleratorSpec::from_config(GammaConfig::builder().cache_bytes(bytes).build()),
            )
        })
        .collect();
    let outcome = ctx.run_campaign(&campaign);

    // ---- Sweep 1: TPPE count (spatial scaling). V-L8 has M = 16 rows, so
    // scaling past the row count exposes the row-tile mapping limit the
    // paper notes for small-M layers.
    let mut pes = Table::new(
        "Sweep — TPPE count (V-L8)",
        vec!["TPPEs", "cycles", "speedup vs 16", "note"],
    );
    // Table III's 16-TPPE point is the normalization base.
    let base_cycles = outcome.layer_report(pe_jobs[2]).stats.cycles.get() as f64;
    for (&tppes, &job) in TPPE_POINTS.iter().zip(&pe_jobs) {
        let cycles = outcome.layer_report(job).stats.cycles.get() as f64;
        let note = if tppes > v_l8_spec.shape.m {
            "rows < TPPEs: extra PEs idle"
        } else {
            ""
        };
        pes.push_row(
            format!("{tppes}"),
            vec![
                format!("{cycles:.0}"),
                ratio(base_cycles / cycles),
                note.to_owned(),
            ],
        );
    }
    pes.push_note("the row-per-TPPE mapping caps useful spatial scaling at M rows");

    // ---- Sweep 2: off-chip bandwidth.
    let mut bw = Table::new(
        "Sweep — HBM bandwidth (V-L8)",
        vec!["GB/s", "cycles", "stall cycles", "bound"],
    );
    for (&gbps, &job) in BW_POINTS.iter().zip(&bw_jobs) {
        let report = outcome.layer_report(job);
        let stalls = report.stats.stall_cycles.get();
        bw.push_row(
            format!("{gbps:.0}"),
            vec![
                format!("{}", report.stats.cycles.get()),
                format!("{stalls}"),
                if stalls > 0 { "memory" } else { "compute" }.to_owned(),
            ],
        );
    }
    bw.push_note(
        "Table III's 128 GB/s keeps V-L8 compute-bound; the knee shows where FTP would starve",
    );

    // ---- Sweep 3: timesteps 2..16, reporting cycles per timestep — the
    // FTP scaling story end to end.
    let mut tsweep = Table::new(
        "Sweep — timesteps (V-L8 profile extrapolated)",
        vec!["T", "cycles", "cycles per timestep", "silent %"],
    );
    for (t, job) in t_jobs {
        let cycles = outcome.layer_report(job).stats.cycles.get();
        tsweep.push_row(
            format!("T={t}"),
            vec![
                format!("{cycles}"),
                num(cycles as f64 / t as f64),
                num(temporal.silent_at(t) * 100.0),
            ],
        );
    }
    tsweep.push_note(
        "FTP amortizes timesteps: cycles grow sublinearly in T until silence erodes (Fig. 16(b))",
    );

    // ---- Sweep 4: Gamma-SNN FiberCache capacity — the baseline-config
    // sweep the closed-enum spec layer could not express.
    let mut gamma = Table::new(
        "Sweep — Gamma-SNN FiberCache capacity (V-L8)",
        vec!["cache", "cycles", "DRAM bytes", "miss rate"],
    );
    for (&bytes, &job) in GAMMA_CACHE_POINTS.iter().zip(&gamma_jobs) {
        let report = outcome.layer_report(job);
        gamma.push_row(
            format!("{}KB", bytes / 1024),
            vec![
                format!("{}", report.stats.cycles.get()),
                format!("{}", report.stats.dram.total()),
                num(report.stats.cache.miss_rate()),
            ],
        );
    }
    gamma.push_note(
        "typed GammaConfig jobs through the accelerator catalog: capacity relieves the t-repeated fiber refetches",
    );
    vec![pes, bw, tsweep, gamma]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_render_consistently() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert!(t.is_consistent(), "{}", t.title);
        }
    }

    #[test]
    fn gamma_cache_capacity_relieves_dram_traffic() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        let dram: Vec<u64> = tables[3]
            .rows
            .iter()
            .map(|(_, c)| c[1].parse().unwrap())
            .collect();
        assert_eq!(dram.len(), GAMMA_CACHE_POINTS.len());
        assert!(
            dram.windows(2).all(|w| w[1] <= w[0]),
            "a larger FiberCache must never add DRAM traffic: {dram:?}"
        );
    }

    #[test]
    fn more_tppes_never_slow_the_layer() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        let cycles: Vec<f64> = tables[0]
            .rows
            .iter()
            .map(|(_, c)| c[0].parse().unwrap())
            .collect();
        assert!(
            cycles.windows(2).all(|w| w[1] <= w[0] * 1.001),
            "cycles must be non-increasing in TPPEs: {cycles:?}"
        );
    }

    #[test]
    fn ftp_cycles_grow_sublinearly_in_t() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        let per_t: Vec<f64> = tables[2]
            .rows
            .iter()
            .map(|(_, c)| c[1].parse().unwrap())
            .collect();
        assert!(per_t.len() >= 3);
        // Cycles per timestep shrink as T grows (amortization).
        assert!(
            per_t.last().unwrap() < per_t.first().unwrap(),
            "per-timestep cost must fall: {per_t:?}"
        );
    }

    #[test]
    fn low_bandwidth_becomes_memory_bound() {
        let mut ctx = Context::quick();
        let tables = run(&mut ctx);
        let bounds: Vec<&str> = tables[1].rows.iter().map(|(_, c)| c[2].as_str()).collect();
        // The highest bandwidth point must be compute-bound.
        assert_eq!(*bounds.last().unwrap(), "compute");
    }

    #[test]
    fn v_l8_is_prepared_once_for_all_config_variants() {
        let mut ctx = Context::quick();
        run(&mut ctx);
        let stats = ctx.engine().cache_stats();
        // 1x V-L8 + one workload per feasible timestep point.
        assert!(
            stats.generated <= 1 + T_POINTS.len(),
            "generated {}",
            stats.generated
        );
        // Every V-L8 job but the first shares its preparation; each
        // timestep point's workload is generated for its one job.
        assert_eq!(
            stats.hits,
            TPPE_POINTS.len() + BW_POINTS.len() + GAMMA_CACHE_POINTS.len() - 1
        );
    }
}

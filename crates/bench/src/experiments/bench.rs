//! `bench` — the tracked simulator-performance record (`BENCH_PR*.json`).
//!
//! Not a paper figure: this experiment measures the *simulator itself* on
//! the Fig. 13 grid (AlexNet + VGG16 + ResNet19 across the five spMspM
//! designs) and persists the numbers that future perf PRs are judged
//! against. One record is committed per perf PR (`BENCH_PR3.json`,
//! `BENCH_PR5.json`, ...), forming the bench trajectory ci.sh enforces —
//! the current PR's record must not regress kernel pairs/s or end-to-end
//! wall time by more than 20% against its predecessor:
//!
//! * **simulation wall clock** — every design simulated single-threaded
//!   over the same prepared layers, per design and in total;
//! * **kernel throughput** — pairs/second of the pure intersection phase,
//!   measured through the criterion shim's `measure_median`;
//! * **campaign wall time** — the whole grid as one cold-store engine
//!   campaign (fresh engine, one worker): generation + preparation +
//!   simulation end to end.
//!
//! The JSON lands at `BENCH_PR5.json` (override with `LOAS_BENCH_OUT`).
//! `repro all` skips this experiment — run it explicitly with
//! `repro bench` (CI runs `repro --quick bench` as a perf smoke).
//!

use crate::context::{Context, Design};
use crate::report::Table;
use loas_core::kernel::SweepMode;
use loas_core::PreparedLayer;
use loas_engine::Campaign;
use loas_workloads::networks::{self, NetworkSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The perf PR this benchmark record belongs to (the trajectory key).
const BENCH_PR: u32 = 5;

/// Where the benchmark record is written.
fn output_path() -> String {
    std::env::var("LOAS_BENCH_OUT").unwrap_or_else(|_| format!("BENCH_PR{BENCH_PR}.json"))
}

fn grid() -> [NetworkSpec; 3] {
    [networks::alexnet(), networks::vgg16(), networks::resnet19()]
}

/// The prepared layers one design consumes (FT designs take the masked
/// workload variant), generated once through the context's engine cache.
fn design_layers(ctx: &Context, design: Design) -> Vec<Arc<PreparedLayer>> {
    let specs: Vec<_> = grid()
        .iter()
        .flat_map(|net| net.layers.clone())
        .map(|layer| {
            let spec = ctx.workload_spec(&layer);
            if design.uses_ft_workload() {
                spec.fine_tuned()
            } else {
                spec
            }
        })
        .collect();
    ctx.engine()
        .prepare(&specs)
        .expect("fig13 grid profiles are feasible")
}

/// One single-threaded simulation pass of `design` over its grid layers.
fn timed_pass(design: Design, layers: &[Arc<PreparedLayer>]) -> f64 {
    let mut model = design.accelerator_spec().build();
    let start = Instant::now();
    let mut checksum = 0u64;
    for layer in layers {
        checksum = checksum.wrapping_add(model.run_layer(layer).stats.cycles.get());
    }
    std::hint::black_box(checksum);
    start.elapsed().as_secs_f64()
}

/// Runs the benchmark, writes the JSON record, and returns the summary
/// table.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    run_to(ctx, &output_path())
}

/// [`run`] with an explicit record path (tests inject a temp path here
/// instead of mutating the process environment, which would race the
/// parallel test harness's `env::var` readers).
fn run_to(ctx: &mut Context, path: &str) -> Vec<Table> {
    let designs = Design::SPMSPM_SET;

    // ---- Simulation wall clock per design, one thread.
    let rows: Vec<(Design, f64)> = designs
        .into_iter()
        .map(|design| (design, timed_pass(design, &design_layers(ctx, design))))
        .collect();
    let kernel_total: f64 = rows.iter().map(|&(_, seconds)| seconds).sum();

    // ---- Kernel throughput: the pure intersection phase alone, via the
    // criterion shim (median of repeated full-grid sweeps).
    let layers = design_layers(ctx, Design::Loas);
    let pairs: u64 = layers
        .iter()
        .map(|layer| (layer.shape.m * layer.shape.n) as u64)
        .sum();
    let window = if ctx.is_quick() { 200 } else { 2000 };
    // Fiber-B word refs hoisted out of the timed closure: the persisted
    // pairs/s baseline must measure only the intersection sweep.
    let grid_b_words: Vec<Vec<&[u64]>> = layers
        .iter()
        .map(|layer| {
            layer
                .b_fibers
                .iter()
                .map(|fiber| fiber.bitmask().words())
                .collect()
        })
        .collect();
    let mut criterion =
        criterion::Criterion::default().measurement_time(Duration::from_millis(window));
    let median = criterion
        .measure_median("pair_sweep_fig13_grid", |bencher| {
            bencher.iter(|| {
                let kernel = loas_core::kernel::PairSweepKernel::new(128, Some(8));
                let mut total = 0u64;
                for (layer, b_words) in layers.iter().zip(&grid_b_words) {
                    let sweep = kernel.sweep_layer(
                        &layer.row_blocks,
                        b_words,
                        SweepMode::TemporalParallel,
                        1,
                    );
                    total += sweep.totals.matches;
                }
                total
            })
        })
        .expect("the sweep closure iterates");
    let pairs_per_sec = pairs as f64 / median.as_secs_f64().max(1e-12);

    // ---- End-to-end: the grid as one cold engine campaign (fresh engine,
    // fresh generation, one worker — nothing shared with the runs above).
    let mut campaign = Campaign::new("fig13-grid-bench");
    for net in grid() {
        let shrunk = NetworkSpec {
            name: net.name.clone(),
            layers: net.layers.iter().map(|l| ctx.shrink_layer(l)).collect(),
        };
        for design in designs {
            campaign.push_network(&shrunk, design.accelerator_spec(), ctx.generator().seed());
        }
    }
    let cold_engine = loas_engine::Engine::new(1);
    let outcome = cold_engine.run(&campaign).expect("grid profiles feasible");

    // ---- Persist the record.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"format\": \"loas-bench/1\",\n");
    json.push_str(&format!("  \"pr\": {BENCH_PR},\n"));
    json.push_str(&format!("  \"quick\": {},\n", ctx.is_quick()));
    json.push_str(
        "  \"grid\": \"fig13 (AlexNet+VGG16+ResNet19 x SparTen-SNN/GoSPA-SNN/Gamma-SNN/LoAS/LoAS-FT)\",\n",
    );
    json.push_str(&format!("  \"layers\": {},\n", layers.len()));
    json.push_str(&format!("  \"jobs\": {},\n", campaign.len()));
    json.push_str(&format!("  \"pairs\": {pairs},\n"));
    json.push_str("  \"workers\": 1,\n");
    json.push_str(&format!(
        "  \"kernel_pairs_per_sec\": {pairs_per_sec:.0},\n"
    ));
    for &(design, kernel) in &rows {
        json.push_str(&format!(
            "  \"{}\": {{\"kernel_seconds\": {kernel:.4}}},\n",
            design.name().replace(['(', ')'], "")
        ));
    }
    json.push_str(&format!("  \"kernel_seconds\": {kernel_total:.4},\n"));
    json.push_str(&format!(
        "  \"campaign_wall_seconds\": {:.4}\n",
        outcome.wall_seconds
    ));
    json.push_str("}\n");
    std::fs::write(path, json).unwrap_or_else(|error| panic!("cannot write {path}: {error}"));

    // ---- Summary table.
    let mut table = Table::new(
        "bench — simulator wall clock, fig13 grid, 1 thread",
        vec!["design", "kernel (s)"],
    );
    for &(design, kernel) in &rows {
        table.push_row(design.name().to_owned(), vec![format!("{kernel:.3}")]);
    }
    table.push_row("total".to_owned(), vec![format!("{kernel_total:.3}")]);
    table.push_note(format!(
        "kernel sweep: {:.1}M pairs/s over {pairs} pairs; cold 1-worker campaign ({} jobs): {:.2}s; record: {path}",
        pairs_per_sec / 1e6,
        campaign.len(),
        outcome.wall_seconds
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_writes_record_and_reports_consistent_speedups() {
        let dir = std::env::temp_dir().join(format!("loas-bench-pr5-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_PR5.json");
        let mut ctx = Context::quick();
        let tables = run_to(&mut ctx, path.to_str().expect("utf-8 temp path"));
        assert_eq!(tables.len(), 1);
        assert!(tables[0].is_consistent());
        let written = std::fs::read_to_string(&path).expect("record written");
        assert!(written.contains("\"format\": \"loas-bench/1\""));
        assert!(written.contains(&format!("\"pr\": {BENCH_PR}")));
        assert!(written.contains("\"kernel_seconds\""));
        assert!(!written.contains("\"speedup\""));
        assert!(written.contains("\"campaign_wall_seconds\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

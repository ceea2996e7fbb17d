//! Full-network inference: run AlexNet / VGG16 / ResNet19 end to end on
//! LoAS, with and without the fine-tuned preprocessing, and print per-layer
//! and total reports (the workload side of Figs. 12-13).
//!
//! ```text
//! cargo run --release --example full_network [-- <network>]
//! ```
//!
//! `<network>` is `alexnet`, `vgg16` (default), or `resnet19`.

use loas::workloads::networks;
use loas::{Accelerator, Loas, LoasConfig, PreparedLayer, WorkloadGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wanted = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "vgg16".to_owned());
    let spec = match wanted.to_lowercase().as_str() {
        "alexnet" => networks::alexnet(),
        "vgg16" => networks::vgg16(),
        "resnet19" => networks::resnet19(),
        other => return Err(format!("unknown network `{other}`").into()),
    };
    println!(
        "{} ({} layers, {:.1}G dense ops)",
        spec.name,
        spec.depth(),
        spec.dense_ops() as f64 / 1e9
    );

    let generator = WorkloadGenerator::default();
    let layers = spec.generate(&generator)?;
    let prepared: Vec<PreparedLayer> = layers.iter().map(PreparedLayer::new).collect();

    let mut loas = Loas::default();
    let report = loas.run_network(&spec.name, &prepared);
    println!(
        "\n{:<14} {:>7} {:>12} {:>11} {:>11}",
        "layer", "shape", "cycles", "off-chip KB", "matches"
    );
    for (layer, l) in prepared.iter().zip(&report.layers) {
        println!(
            "{:<14} {:>7} {:>12} {:>11.1} {:>11}",
            l.workload,
            format!("M={}", layer.shape.m),
            l.stats.cycles.get(),
            l.stats.dram.total_kb(),
            l.stats.ops.accumulates,
        );
    }
    let totals = report.total_stats();
    println!(
        "\nLoAS total: {} cycles, {:.2} MB off-chip, {:.2} MB on-chip, {:.1} uJ",
        totals.cycles.get(),
        totals.dram.total_mb(),
        totals.sram.total_mb(),
        report.total_energy().total_uj()
    );

    // Fine-tuned preprocessing variant (Section V): mask fire-once neurons,
    // discard low-activity outputs at runtime.
    let ft_prepared: Vec<PreparedLayer> = prepared.iter().map(PreparedLayer::fine_tuned).collect();
    let mut loas_ft = Loas::new(
        LoasConfig::builder()
            .discard_low_activity_outputs(true)
            .build(),
    );
    let ft_report = loas_ft.run_network(&format!("{}-FT", spec.name), &ft_prepared);
    println!(
        "LoAS(FT):   {} cycles ({:+.1}% vs LoAS)",
        ft_report.total_cycles().get(),
        (ft_report.total_cycles().get() as f64 / totals.cycles.get() as f64 - 1.0) * 100.0
    );
    Ok(())
}

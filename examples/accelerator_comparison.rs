//! Head-to-head: one dual-sparse layer on all five accelerator models
//! (the Fig. 12-14 comparison at single-layer scale).
//!
//! ```text
//! cargo run --release --example accelerator_comparison [-- <layer>]
//! ```
//!
//! `<layer>` is one of `A-L4`, `V-L8` (default), `R-L19`, `T-HFF`.

use loas::workloads::networks;
use loas::{
    Accelerator, GammaSnn, GospaSnn, LayerReport, Loas, PreparedLayer, Ptb, SparTenSnn, Stellar,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "V-L8".to_owned());
    let spec = networks::selected_layers()
        .into_iter()
        .find(|l| l.name.eq_ignore_ascii_case(&wanted))
        .ok_or_else(|| format!("unknown layer `{wanted}` (try A-L4, V-L8, R-L19, T-HFF)"))?;
    println!("layer {} ({}):", spec.name, spec.shape);
    let workload = spec.generate(&loas::WorkloadGenerator::default())?;
    println!("  realised sparsity: {}", workload.stats().table_row());
    let prepared = PreparedLayer::new(&workload);

    let reports: Vec<LayerReport> = vec![
        Loas::default().run_layer(&prepared),
        SparTenSnn::default().run_layer(&prepared),
        GospaSnn::default().run_layer(&prepared),
        GammaSnn::default().run_layer(&prepared),
        Ptb::default().run_layer(&prepared),
        Stellar::default().run_layer(&prepared),
    ];

    let loas = reports[0].clone();
    println!(
        "\n{:<12} {:>12} {:>10} {:>11} {:>11} {:>10}",
        "design", "cycles", "vs LoAS", "off-chip KB", "on-chip MB", "energy uJ"
    );
    for r in &reports {
        println!(
            "{:<12} {:>12} {:>9.2}x {:>11.1} {:>11.2} {:>10.2}",
            r.accelerator,
            r.stats.cycles.get(),
            r.stats.cycles.get() as f64 / loas.stats.cycles.get().max(1) as f64,
            r.stats.dram.total_kb(),
            r.stats.sram.total_mb(),
            r.energy.total_uj(),
        );
    }
    println!("\n(`vs LoAS` > 1 means the design needs that many times LoAS's cycles)");
    Ok(())
}

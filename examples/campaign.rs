//! Campaign quickstart: sweep the four selected Table II layers across a
//! heterogeneous accelerator fleet with the `loas-engine` runner — jobs
//! sharded over worker threads, each workload prepared once, results
//! streamed in deterministic order.
//!
//! ```text
//! cargo run --release --example campaign [-- <workers>]
//! ```

use loas::engine::{AcceleratorSpec, Campaign, Engine, WorkloadSpec};
use loas::workloads::networks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse()?,
        None => loas::engine::default_workers(),
    };

    // The four selected layers, shrunk so the example runs in moments.
    let layers: Vec<WorkloadSpec> = networks::selected_layers()
        .iter()
        .map(|spec| {
            let mut spec = spec.clone();
            spec.shape.m = spec.shape.m.clamp(1, 16);
            spec.shape.n = spec.shape.n.min(64);
            spec.shape.k = spec.shape.k.min(768);
            WorkloadSpec::from_layer(&spec)
        })
        .collect();

    let mut campaign = Campaign::new("example");
    campaign.push_product(&layers, &AcceleratorSpec::headline_fleet());
    println!(
        "running {} jobs ({} layers x {} accelerators) on {workers} workers\n",
        campaign.len(),
        layers.len(),
        AcceleratorSpec::headline_fleet().len()
    );

    // Stream results as the in-order prefix completes; the stream is
    // byte-identical for any worker count.
    let engine = Engine::new(workers);
    let outcome = engine.run_where(&campaign, None, None, |record| {
        println!(
            "  [{:>2}] {:<28} {:>12} cycles",
            record.job,
            record.label,
            record.report.stats.cycles.get()
        );
    })?;

    println!("\n{}", outcome.summary_table());
    println!("first record as JSON:\n{}", outcome.records[0].to_json());
    Ok(())
}

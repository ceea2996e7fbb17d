//! Diagnostic probe: per-network, per-design cycle/traffic/energy breakdown
//! (not part of the paper reproduction — used to calibrate and debug the
//! models against the paper values in `loas_bench::experiments::reference`).

use loas_bench::{Context, Design};
use loas_workloads::networks;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut ctx = if quick {
        Context::quick()
    } else {
        Context::full()
    };
    for spec in [networks::alexnet(), networks::vgg16(), networks::resnet19()] {
        println!("== {} ==", spec.name);
        println!(
            "{:<12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
            "design",
            "cycles",
            "dramMB",
            "sramMB",
            "E.dram",
            "E.sram",
            "E.comp",
            "E.spars",
            "miss%"
        );
        for design in Design::SPMSPM_SET {
            let r = ctx.network_report(&spec, design);
            let stats = r.total_stats();
            let e = r.total_energy();
            println!(
                "{:<12} {:>12} {:>10.2} {:>10.2} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>9.3}",
                design.name(),
                stats.cycles.get(),
                stats.dram.total() as f64 / 1e6,
                stats.sram.total() as f64 / 1e6,
                e.dram_pj / 1e6,
                e.sram_pj / 1e6,
                e.compute_pj / 1e6,
                e.sparsity_pj / 1e6,
                stats.cache.miss_rate() * 100.0,
            );
        }
    }
}

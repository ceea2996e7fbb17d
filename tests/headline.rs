//! Full-scale headline checks (ignored by default — run with
//! `cargo test --release -- --ignored`). These regenerate the paper's
//! headline comparison at full workload scale and assert the reproduction
//! bands recorded in EXPERIMENTS.md.

use loas::workloads::networks;
use loas::{
    Accelerator, GammaSnn, GospaSnn, Loas, LoasConfig, NetworkReport, PreparedLayer, SparTenSnn,
    WorkloadGenerator,
};

fn run_networks() -> Vec<(NetworkReport, NetworkReport, NetworkReport, NetworkReport)> {
    let generator = WorkloadGenerator::default();
    [networks::alexnet(), networks::vgg16(), networks::resnet19()]
        .into_iter()
        .map(|spec| {
            let layers: Vec<PreparedLayer> = spec
                .generate(&generator)
                .expect("table-2 profiles feasible")
                .iter()
                .map(PreparedLayer::new)
                .collect();
            let ft_layers: Vec<PreparedLayer> =
                layers.iter().map(PreparedLayer::fine_tuned).collect();
            let mut loas_ft = Loas::new(
                LoasConfig::builder()
                    .discard_low_activity_outputs(true)
                    .build(),
            );
            (
                loas_ft.run_network(&spec.name, &ft_layers),
                SparTenSnn::default().run_network(&spec.name, &layers),
                GospaSnn::default().run_network(&spec.name, &layers),
                GammaSnn::default().run_network(&spec.name, &layers),
            )
        })
        .collect()
}

#[test]
#[ignore = "full-scale headline regeneration (~15 s in release); run with --ignored"]
fn headline_speedups_stay_in_reproduction_bands() {
    let results = run_networks();
    let mut vs_sparten = 0.0;
    let mut vs_gospa = 0.0;
    let mut vs_gamma = 0.0;
    for (loas_ft, sparten, gospa, gamma) in &results {
        let s = loas_ft.speedup_over(sparten);
        assert!(
            (4.0..12.0).contains(&s),
            "{}: speedup vs SparTen-SNN out of band: {s:.2}",
            loas_ft.network
        );
        vs_sparten += s;
        vs_gospa += loas_ft.speedup_over(gospa);
        vs_gamma += loas_ft.speedup_over(gamma);
    }
    let n = results.len() as f64;
    let (vs_sparten, vs_gospa, vs_gamma) = (vs_sparten / n, vs_gospa / n, vs_gamma / n);
    // Paper means: 6.79x / 5.99x / 3.25x. EXPERIMENTS.md records our
    // measured 6.51x / 6.06x / 3.47x; assert we stay within +-25% of the
    // paper so regressions in the models get caught.
    assert!(
        (vs_sparten - 6.79).abs() < 6.79 * 0.25,
        "vs SparTen mean {vs_sparten:.2}"
    );
    assert!(
        (vs_gospa - 5.99).abs() < 5.99 * 0.30,
        "vs GoSPA mean {vs_gospa:.2}"
    );
    assert!(
        (vs_gamma - 3.25).abs() < 3.25 * 0.30,
        "vs Gamma mean {vs_gamma:.2}"
    );
}

#[test]
#[ignore = "full-scale headline regeneration (~15 s in release); run with --ignored"]
fn headline_energy_and_traffic_orderings() {
    for (loas_ft, sparten, gospa, gamma) in &run_networks() {
        // LoAS wins energy against every baseline on every network.
        for baseline in [sparten, gospa, gamma] {
            assert!(
                loas_ft.energy_gain_over(baseline) > 1.0,
                "{}: LoAS must beat {} on energy",
                loas_ft.network,
                baseline.accelerator
            );
        }
        // Traffic orderings of Fig. 13.
        let loas_stats = loas_ft.total_stats();
        let gamma_stats = gamma.total_stats();
        let sparten_stats = sparten.total_stats();
        assert!(
            gamma_stats.sram.total() > 3 * loas_stats.sram.total(),
            "{}: Gamma SRAM amplification missing",
            loas_ft.network
        );
        assert!(
            sparten_stats.sram.total() > 2 * loas_stats.sram.total(),
            "{}: SparTen SRAM amplification missing",
            loas_ft.network
        );
        assert!(
            loas_stats.dram.total() <= sparten_stats.dram.total(),
            "{}: LoAS off-chip above SparTen",
            loas_ft.network
        );
    }
}

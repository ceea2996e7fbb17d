//! The benchmark's workloads: the batch of campaigns each one submits,
//! built from the run's seed alone.

use loas_baselines::GammaConfig;
use loas_core::LoasConfig;
use loas_engine::{AcceleratorSpec, Campaign, JobSpec, WorkloadSpec};
use loas_serve::spec_io::GAMMA_CACHE_POINTS;
use loas_workloads::networks::{self, NetworkSpec};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The AlexNet and VGG16 part of the fig13 grid, one campaign per
    /// layer, from an empty memo store.
    ColdGrid,
    /// The repository's configuration sweeps, one campaign per layer.
    ConfigSweep,
    /// The fig13 grid as one campaign, replayed from a memo store that
    /// holds every job.
    WarmReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdGrid,
        Workload::ConfigSweep,
        Workload::WarmReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdGrid => "cold-grid",
            Workload::ConfigSweep => "config-sweep",
            Workload::WarmReplay => "warm-replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaigns this workload submits, in order. The seed only moves
    /// spike and weight positions; shapes and sparsity profiles are fixed,
    /// so the work barely depends on it.
    pub fn batch(self, seed: u64) -> Vec<Campaign> {
        match self {
            // ResNet19's 19 layers take four fifths of the whole grid's
            // time. With them, a round of one campaign per layer lasts
            // about 3.5 s, and a 25 s run gives each campaign too few
            // samples for its fastest to be steady.
            Workload::ColdGrid => fig13_grid(seed, &[networks::alexnet(), networks::vgg16()]),
            Workload::ConfigSweep => design_sweep(seed),
            Workload::WarmReplay => {
                let mut whole = Campaign::new("fig13-grid");
                let grid = fig13_grid(
                    seed,
                    &[networks::alexnet(), networks::vgg16(), networks::resnet19()],
                );
                for job in grid.iter().flat_map(Campaign::jobs) {
                    whole.push(job.clone());
                }
                vec![whole]
            }
        }
    }
}

/// The five spMspM designs of the paper's Fig. 13.
fn spmspm_designs() -> [AcceleratorSpec; 5] {
    [
        AcceleratorSpec::sparten(),
        AcceleratorSpec::gospa(),
        AcceleratorSpec::gamma(),
        AcceleratorSpec::loas(),
        AcceleratorSpec::loas_ft(),
    ]
}

/// Every layer of `nets` compared across the spMspM designs, one campaign
/// per layer of five jobs over two workloads (the layer plain and
/// fine-tuned).
fn fig13_grid(seed: u64, nets: &[NetworkSpec]) -> Vec<Campaign> {
    let mut batch = Vec::new();
    for network in nets {
        for (index, layer) in network.layers.iter().enumerate() {
            let mut campaign = Campaign::new(format!("fig13/{}/{}", network.name, layer.name));
            for accelerator in spmspm_designs() {
                let mut workload = WorkloadSpec::from_layer(layer).with_seed(seed);
                if accelerator.wants_fine_tuned_workload() {
                    workload = workload.fine_tuned();
                }
                campaign.push(JobSpec {
                    label: format!(
                        "{}/{} @ {}",
                        network.name,
                        layer.name,
                        accelerator.display_name()
                    ),
                    network: Some(network.name.clone()),
                    layer_index: index,
                    workload,
                    accelerator,
                });
            }
            batch.push(campaign);
        }
    }
    batch
}

/// LoAS TPPE counts and HBM bandwidths (GB/s): `TPPE_POINTS` and
/// `BW_POINTS` of the bench harness's sweeps
/// (`crates/bench/src/experiments/sweeps.rs`).
const TPPE_POINTS: [usize; 4] = [4, 8, 16, 32];
const BW_POINTS: [f64; 5] = [16.0, 32.0, 64.0, 128.0, 256.0];
/// LoAS global-cache capacities: `CACHE_POINTS_KB` of the bench harness's
/// ablations (`crates/bench/src/experiments/ablations.rs`).
const LOAS_CACHE_POINTS_KB: [usize; 4] = [64, 128, 256, 512];

/// The configuration sweeps of `repro sweeps` and `repro ablations`, each
/// one-dimensional as there: LoAS TPPE count, HBM bandwidth and cache
/// capacity, and Gamma-SNN FiberCache capacity. `repro` runs them as one
/// campaign on V-L8; here each of the three small Table II layers gets
/// such a campaign of 17 jobs sharing one prepared workload, so simulation
/// outweighs preparation. The timestep sweep is left out: its workloads
/// are extrapolated from V-L8's profile alone.
fn design_sweep(seed: u64) -> Vec<Campaign> {
    let layers = networks::selected_layers();
    // The fourth selected layer is the 784x3072x3072 transformer layer,
    // which alone would outweigh the rest of the sweep.
    layers[..3]
        .iter()
        .map(|layer| {
            let workload = WorkloadSpec::from_layer(layer).with_seed(seed);
            let mut campaign = Campaign::new(format!("sweeps/{}", layer.name));
            let loas = TPPE_POINTS
                .iter()
                .map(|&tppes| LoasConfig::builder().tppes(tppes).build())
                .chain(
                    BW_POINTS
                        .iter()
                        .map(|&gbps| LoasConfig::builder().hbm_gbps(gbps).build()),
                )
                .chain(
                    LOAS_CACHE_POINTS_KB
                        .iter()
                        .map(|&kb| LoasConfig::builder().cache_bytes(kb * 1024).build()),
                );
            for config in loas {
                campaign.push_layer(workload.clone(), AcceleratorSpec::loas_with(config));
            }
            for bytes in GAMMA_CACHE_POINTS {
                let config = GammaConfig::builder().cache_bytes(bytes).build();
                campaign.push_layer(workload.clone(), AcceleratorSpec::from_config(config));
            }
            campaign
        })
        .collect()
}

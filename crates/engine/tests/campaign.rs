//! Engine acceptance tests: campaign determinism across worker counts,
//! exactly-once workload preparation, and network-level aggregation
//! equivalence with direct accelerator runs.

use loas_core::{Accelerator, LoasConfig};
use loas_engine::{AcceleratorSpec, Campaign, Engine, WorkloadSpec};
use loas_workloads::networks;
use loas_workloads::{LayerShape, SparsityProfile};

fn profile() -> SparsityProfile {
    SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap()
}

fn small_layer(name: &str, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(name, LayerShape::new(4, 8, 16, 192), profile()).with_seed(seed)
}

/// A small but heterogeneous campaign: 3 workloads x the full 7-model
/// fleet, with distinct seeds on two of the workloads.
fn mixed_campaign() -> Campaign {
    let mut campaign = Campaign::new("mixed");
    let layers = [
        small_layer("det-a", 1),
        small_layer("det-b", 2),
        small_layer("det-c", loas_engine::DEFAULT_SEED),
    ];
    campaign.push_product(&layers, &AcceleratorSpec::headline_fleet());
    campaign
}

/// The distinct workload specs of `campaign`, in first-use order.
fn unique_workloads(campaign: &Campaign) -> Vec<WorkloadSpec> {
    let mut seen = std::collections::HashSet::new();
    campaign
        .jobs()
        .iter()
        .filter(|job| seen.insert(job.workload.key()))
        .map(|job| job.workload.clone())
        .collect()
}

/// The acceptance gate of the two-phase kernel PR: the full headline
/// campaign — 7 accelerators x the 4 selected Table II layers — produces
/// byte-identical portable `LayerReport`s for intra-layer worker counts
/// {1, 2, 4}, job by job.
#[test]
fn headline_campaign_is_byte_identical_across_intra_worker_counts() {
    let mut campaign = Campaign::new("headline-intra");
    let layers: Vec<WorkloadSpec> = networks::selected_layers()
        .iter()
        .map(WorkloadSpec::from_layer)
        .collect();
    campaign.push_product(&layers, &AcceleratorSpec::headline_fleet());
    assert_eq!(campaign.len(), 7 * 4);

    let engine = Engine::new(2);
    let prepared: Vec<_> = campaign
        .jobs()
        .iter()
        .map(|job| {
            engine
                .prepare(std::slice::from_ref(&job.workload))
                .unwrap()
                .remove(0)
        })
        .collect();
    for (job, layer) in campaign.jobs().iter().zip(&prepared) {
        let golden = {
            let mut model = job.accelerator.build();
            model.set_intra_workers(1);
            model.run_layer(layer).to_portable()
        };
        for intra in [2usize, 4] {
            let mut model = job.accelerator.build();
            model.set_intra_workers(intra);
            assert_eq!(
                model.run_layer(layer).to_portable(),
                golden,
                "{} diverges at {intra} intra workers",
                job.label
            );
        }
    }
}

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let campaign = mixed_campaign();
    let serial = Engine::new(1).run(&campaign).unwrap();
    let parallel = Engine::new(4).run(&campaign).unwrap();
    let wide = Engine::new(13).run(&campaign).unwrap();
    assert_eq!(serial.records.len(), campaign.len());
    let reference = serial.jsonl();
    assert!(!reference.is_empty());
    assert_eq!(reference, parallel.jsonl(), "1 vs 4 workers diverged");
    assert_eq!(reference, wide.jsonl(), "1 vs 13 workers diverged");
    // Network grouping and summaries derive from the same records; spot
    // check cycles line up job by job.
    for (a, b) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(a.job, b.job);
        assert_eq!(a.report.stats.cycles, b.report.stats.cycles);
        assert_eq!(a.report.energy.total_pj(), b.report.energy.total_pj());
    }
}

#[test]
fn each_unique_workload_key_is_generated_exactly_once() {
    let campaign = mixed_campaign();
    // 3 plain + 3 fine-tuned variants (LoAS-FT asks for masked workloads).
    let unique = unique_workloads(&campaign).len();
    assert_eq!(unique, 6);

    let engine = Engine::new(4);
    let outcome = engine.run(&campaign).unwrap();
    assert_eq!(outcome.workloads_generated, unique);
    assert_eq!(engine.cache_stats().generated, unique);
    assert_eq!(engine.cache_stats().entries, unique);
    // Each fresh key is "missed" once; all other jobs share a preparation.
    assert_eq!(outcome.cache_hits, campaign.len() - unique);

    // Re-running the same campaign on the same engine generates nothing:
    // every job is a cache hit.
    let again = engine.run(&campaign).unwrap();
    assert_eq!(again.workloads_generated, 0);
    assert_eq!(again.cache_hits, campaign.len());
    assert_eq!(engine.cache_stats().generated, unique);
    assert_eq!(again.jsonl(), outcome.jsonl());
}

#[test]
fn network_aggregation_matches_direct_run() {
    let mut spec = networks::alexnet();
    for layer in &mut spec.layers {
        layer.shape.m = layer.shape.m.clamp(1, 8);
        layer.shape.n = layer.shape.n.min(16);
        layer.shape.k = layer.shape.k.min(256);
    }
    let mut campaign = Campaign::new("network");
    campaign.push_network(&spec, AcceleratorSpec::loas(), loas_engine::DEFAULT_SEED);
    let outcome = Engine::new(4).run(&campaign).unwrap();

    assert_eq!(outcome.records.len(), spec.depth());

    // Direct reference: generate + prepare + run the same layers inline.
    let generator = loas_workloads::WorkloadGenerator::default();
    let layers: Vec<loas_core::PreparedLayer> = spec
        .generate(&generator)
        .unwrap()
        .iter()
        .map(loas_core::PreparedLayer::new)
        .collect();
    let direct = loas_core::Loas::default().run_network(&spec.name, &layers);
    for (index, (record, layer)) in outcome.records.iter().zip(&direct.layers).enumerate() {
        assert_eq!(record.network.as_deref(), Some(spec.name.as_str()));
        assert_eq!(record.layer_index, index);
        assert_eq!(record.report.to_portable(), layer.to_portable());
    }
}

#[test]
fn boxed_fleet_runs_through_the_accelerator_trait() {
    // The enum dispatcher builds boxed trait objects usable wherever the
    // trait is expected — the seam heterogeneous fleets rely on.
    let layer = small_layer("boxed", 3).prepare().unwrap();
    let mut fleet: Vec<Box<dyn Accelerator + Send>> = AcceleratorSpec::headline_fleet()
        .iter()
        .map(AcceleratorSpec::build)
        .collect();
    let mut names = Vec::new();
    for model in &mut fleet {
        let report = model.run_layer(&layer);
        assert!(report.stats.cycles.get() > 0);
        names.push(model.name());
    }
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 7, "each fleet member reports a distinct name");
}

#[test]
fn subset_runs_partition_and_merge_byte_identically() {
    let campaign = mixed_campaign();
    let full = Engine::new(3).run(&campaign).unwrap();
    let reference = full.jsonl();

    // Round-robin shards: job i belongs to shard (i % n). Each shard runs
    // on its own engine (separate caches, like separate processes); lines
    // keep original job ids, so interleaving by id rebuilds the reference.
    for shards in [1usize, 2, 3, 5] {
        let mut lines: Vec<Option<String>> = vec![None; campaign.len()];
        for rank in 0..shards {
            let ids: Vec<usize> = (0..campaign.len()).filter(|i| i % shards == rank).collect();
            let engine = Engine::new(2);
            let outcome = engine
                .run_where(&campaign, Some(&ids), None, |_| {})
                .unwrap();
            assert_eq!(outcome.records.len(), ids.len());
            assert_eq!(outcome.simulated, ids.len());
            for record in &outcome.records {
                assert!(lines[record.job].replace(record.to_json()).is_none());
            }
        }
        let merged: String = lines
            .into_iter()
            .map(|line| line.expect("every job covered by exactly one shard") + "\n")
            .collect();
        assert_eq!(merged, reference, "{shards}-way shard merge diverged");
    }
}

#[test]
fn memo_store_replays_warm_campaigns_without_simulating() {
    let dir = std::env::temp_dir().join(format!("loas-engine-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = loas_engine::MemoStore::open(&dir).unwrap();
    let campaign = mixed_campaign();

    let cold_engine = Engine::new(4);
    let cold = cold_engine
        .run_where(&campaign, None, Some(&store), |_| {})
        .unwrap();
    assert_eq!(cold.memo_hits, 0);
    assert_eq!(cold.simulated, campaign.len());
    assert_eq!(store.len(), campaign.len(), "every result persisted");

    // A fresh engine (fresh prepared cache — a new process in miniature)
    // replays everything from the store: zero generations, zero jobs
    // simulated, byte-identical report.
    let warm_engine = Engine::new(4);
    let warm = warm_engine
        .run_where(&campaign, None, Some(&store), |_| {})
        .unwrap();
    assert_eq!(warm.memo_hits, campaign.len());
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.workloads_generated, 0);
    assert_eq!(warm_engine.cache_stats().generated, 0);
    assert_eq!(warm.jsonl(), cold.jsonl());

    // Overlapping campaign: half the jobs known, half novel.
    let mut extended = mixed_campaign();
    extended.push_layer(small_layer("novel", 9), AcceleratorSpec::loas());
    let mixed = Engine::new(4)
        .run_where(&extended, None, Some(&store), |_| {})
        .unwrap();
    assert_eq!(mixed.memo_hits, campaign.len());
    assert_eq!(mixed.simulated, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_job_fails_its_campaign_and_spares_the_next() {
    let mut broken = Campaign::new("broken");
    broken.push_layer(small_layer("panic-a", 1), AcceleratorSpec::loas());
    // LoAS panics on a layer whose `t` is not its timestep count; the
    // engine does not gate jobs (the spec parser does).
    broken.push_layer(
        small_layer("panic-a", 1),
        AcceleratorSpec::loas_with(LoasConfig::builder().timesteps(8).build()),
    );
    broken.push_layer(small_layer("panic-b", 2), AcceleratorSpec::sparten());
    let engine = Engine::new(2);
    let error = engine.run(&broken).unwrap_err();
    assert!(
        matches!(&error, loas_engine::EngineError::JobPanicked { job: 1, .. }),
        "{error:?}"
    );
    assert_eq!(
        error.to_string(),
        "job 1: LoAS runs 8 timesteps, its workload t = 4"
    );

    // The same engine, with its prepared-layer cache, runs the next
    // campaign to the bytes a fresh engine produces.
    let campaign = mixed_campaign();
    let reference = Engine::new(2).run(&campaign).unwrap().jsonl();
    assert_eq!(engine.run(&campaign).unwrap().jsonl(), reference);
}

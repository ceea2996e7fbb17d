//! Serving acceptance tests: shard/merge determinism across shard counts,
//! warm-store replay fidelity, and queue lifecycle end to end.

use loas_engine::{AcceleratorSpec, Campaign, Engine, MemoStore, WorkloadSpec};
use loas_serve::spec_io::{campaign_to_json, headline_campaign};
use loas_serve::{
    drain, enqueue_batch, merge, CampaignState, Queue, RunOptions, ServeError, ShardSpec,
};
use loas_workloads::{LayerShape, SparsityProfile};
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "loas-serve-acceptance-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A mixed-fleet campaign: 3 distinct small workloads (two seeds) x the
/// full 7-model fleet, 21 jobs.
fn mixed_fleet_campaign() -> Campaign {
    let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
    let mut campaign = Campaign::new("mixed-fleet");
    let layers = [
        WorkloadSpec::new("serve-a", LayerShape::new(4, 6, 8, 96), profile).with_seed(1),
        WorkloadSpec::new("serve-b", LayerShape::new(4, 8, 8, 64), profile).with_seed(2),
        WorkloadSpec::new("serve-c", LayerShape::new(4, 4, 8, 96), profile).with_seed(1),
    ];
    campaign.push_product(&layers, &AcceleratorSpec::headline_fleet());
    campaign
}

fn options(shard: ShardSpec, use_store: bool) -> RunOptions {
    RunOptions {
        shard,
        workers: 2,
        use_store,
    }
}

#[test]
fn any_sharding_merges_byte_identical_to_unsharded_run() {
    let campaign = mixed_fleet_campaign();
    let spec = campaign_to_json(&campaign);
    // The memoless engine reference: what one process computes directly.
    let reference = Engine::new(2).run(&campaign).unwrap().jsonl();

    for shards in [1usize, 2, 3, 5] {
        let root = temp_root(&format!("shards-{shards}"));
        let queue = Queue::init(&root).unwrap();
        let id = queue.enqueue(&spec).unwrap().id;
        // Each rank drains with its own engine and memo store view — the
        // in-process analogue of N separate runner processes (the ci.sh
        // smoke test covers genuinely separate processes).
        for rank in 0..shards {
            let summary = drain(
                &queue,
                &options(
                    ShardSpec {
                        rank,
                        count: shards,
                    },
                    true,
                ),
                |_| {},
            )
            .unwrap();
            assert_eq!(summary.campaigns, 1, "{shards}-way rank {rank}");
        }
        if shards == 1 {
            assert_eq!(queue.state(id).unwrap(), CampaignState::Done);
        } else {
            assert_eq!(
                queue.state(id).unwrap(),
                CampaignState::Queued,
                "sharded campaigns stay queued until merged"
            );
            let merged_jobs = merge(&queue, id, shards).unwrap();
            assert_eq!(merged_jobs, campaign.len());
        }
        let report = std::fs::read_to_string(queue.report_dir(id).join("report.jsonl")).unwrap();
        assert_eq!(report, reference, "{shards}-way merge diverged");
        assert_eq!(queue.state(id).unwrap(), CampaignState::Done);
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn warm_memo_store_yields_full_hits_and_identical_report() {
    let root = temp_root("warm-memo");
    let queue = Queue::init(&root).unwrap();
    let spec = campaign_to_json(&mixed_fleet_campaign());

    let cold_id = queue.enqueue(&spec).unwrap().id;
    let cold = drain(&queue, &options(ShardSpec::default(), true), |_| {}).unwrap();
    assert_eq!(cold.memo_hits, 0);
    assert_eq!(cold.simulated, 21);

    // Resubmission against the warm store: 100% hits, zero simulations,
    // zero workload generations, byte-identical report.
    let warm_id = queue.enqueue(&spec).unwrap().id;
    let warm = drain(&queue, &options(ShardSpec::default(), true), |_| {}).unwrap();
    assert_eq!(warm.memo_hits, 21, "every job replayed from the store");
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.generated, 0);
    let read =
        |id: u64| std::fs::read_to_string(queue.report_dir(id).join("report.jsonl")).unwrap();
    assert_eq!(read(cold_id), read(warm_id));

    // An overlapping campaign (one novel job appended) only simulates the
    // novelty.
    let mut extended = mixed_fleet_campaign();
    let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
    extended.push_layer(
        WorkloadSpec::new("serve-novel", LayerShape::new(4, 4, 8, 64), profile).with_seed(3),
        AcceleratorSpec::loas(),
    );
    queue.enqueue(&campaign_to_json(&extended)).unwrap();
    let overlap = drain(&queue, &options(ShardSpec::default(), true), |_| {}).unwrap();
    assert_eq!(overlap.memo_hits, 21);
    assert_eq!(overlap.simulated, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sharded_runs_share_the_memo_store_with_unsharded_runs() {
    let root = temp_root("shared-store");
    let queue = Queue::init(&root).unwrap();
    let spec = campaign_to_json(&mixed_fleet_campaign());

    // Warm the store with a 2-way sharded run...
    let first = queue.enqueue(&spec).unwrap().id;
    for rank in 0..2 {
        drain(&queue, &options(ShardSpec { rank, count: 2 }, true), |_| {}).unwrap();
    }
    merge(&queue, first, 2).unwrap();

    // ...then a single-process resubmission replays everything.
    let second = queue.enqueue(&spec).unwrap().id;
    let warm = drain(&queue, &options(ShardSpec::default(), true), |_| {}).unwrap();
    assert_eq!(warm.memo_hits, 21);
    assert_eq!(warm.simulated, 0);
    let read =
        |id: u64| std::fs::read_to_string(queue.report_dir(id).join("report.jsonl")).unwrap();
    assert_eq!(read(first), read(second));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn campaigns_enqueued_mid_pass_are_picked_up_by_the_same_drain() {
    let root = temp_root("mid-pass");
    let queue = Queue::init(&root).unwrap();
    let spec = campaign_to_json(&mixed_fleet_campaign());
    queue.enqueue(&spec).unwrap();
    // Enqueue a second campaign from inside the progress callback of the
    // first — i.e. while the runner is mid-pass.
    let queue_again = queue.clone();
    let spec_again = spec.clone();
    let mut enqueued = false;
    let summary = drain(&queue, &options(ShardSpec::default(), true), |_| {
        if !enqueued {
            queue_again.enqueue(&spec_again).unwrap();
            enqueued = true;
        }
    })
    .unwrap();
    assert_eq!(
        summary.campaigns, 2,
        "the drain pass picked up the mid-pass submission"
    );
    assert_eq!(queue.state(2).unwrap(), CampaignState::Done);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn merge_refuses_incomplete_shard_sets() {
    let root = temp_root("incomplete");
    let queue = Queue::init(&root).unwrap();
    let id = queue
        .enqueue(&campaign_to_json(&mixed_fleet_campaign()))
        .unwrap()
        .id;
    drain(
        &queue,
        &options(ShardSpec { rank: 0, count: 2 }, true),
        |_| {},
    )
    .unwrap();
    let error = merge(&queue, id, 2).unwrap_err().to_string();
    assert!(error.contains("shard 1/2"), "{error}");
    assert_eq!(queue.state(id).unwrap(), CampaignState::Queued);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn loas_timestep_mismatch_is_rejected_at_enqueue() {
    // LoAS configured for T = 8 on a T = 4 workload used to pass enqueue
    // and then panic the runner, leaving the campaign queued forever.
    let spec = |timesteps: usize| {
        format!(
            r#"{{"version": 2, "name": "mismatch", "jobs": [{{
                "workload": {{"name": "w", "shape": {{"t": 4, "m": 4, "n": 8, "k": 64}},
                             "profile": {{"spike_origin": 0.823, "silent": 0.741,
                                         "silent_ft": 0.796, "weight": 0.982}},
                             "seed": 7}},
                "accelerator": {{"name": "loas", "config": {{"timesteps": {timesteps}}}}}}}]}}"#
        )
    };
    let root = temp_root("timestep-mismatch");
    let queue = Queue::init(&root).unwrap();
    let error = queue.enqueue(&spec(8)).unwrap_err();
    assert!(matches!(error, ServeError::Spec(_)), "{error}");
    assert!(error.to_string().contains("runs 8 timesteps"), "{error}");
    assert!(
        queue.submissions().unwrap().is_empty(),
        "nothing was queued"
    );

    // A batch holding the bad spec is refused before anything is queued.
    let good = root.join("a-good.json");
    let bad = root.join("b-bad.json");
    std::fs::write(&good, spec(4)).unwrap();
    std::fs::write(&bad, spec(8)).unwrap();
    assert!(enqueue_batch(&queue, &[good.clone(), bad]).is_err());
    assert!(queue.submissions().unwrap().is_empty());

    // The matching spec is accepted and simulates.
    let id = enqueue_batch(&queue, &[good]).unwrap()[0].id;
    let summary = drain(&queue, &options(ShardSpec::default(), false), |_| {}).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(queue.state(id).unwrap(), CampaignState::Done);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn workloads_beyond_sixteen_timesteps_are_rejected_at_enqueue() {
    // A t = 17 workload on a model without a timestep config used to pass
    // enqueue and then panic the runner packing 17-bit spike words,
    // leaving the campaign queued forever.
    let spec = |t: usize| {
        format!(
            r#"{{"version": 2, "name": "long-window", "jobs": [{{
                "workload": {{"name": "w", "shape": {{"t": {t}, "m": 4, "n": 8, "k": 64}},
                             "profile": {{"spike_origin": 0.823, "silent": 0.741,
                                         "silent_ft": 0.796, "weight": 0.982}},
                             "seed": 7}},
                "accelerator": "gamma"}}]}}"#
        )
    };
    let root = temp_root("long-window");
    let queue = Queue::init(&root).unwrap();
    let error = queue.enqueue(&spec(17)).unwrap_err();
    assert!(matches!(error, ServeError::Spec(_)), "{error}");
    assert!(error.to_string().contains("t = 17"), "{error}");
    assert!(
        queue.submissions().unwrap().is_empty(),
        "nothing was queued"
    );

    // Run directly on the engine, the same workload fails with a reason.
    let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
    let mut campaign = Campaign::new("long-window");
    campaign.push_layer(
        WorkloadSpec::new("w", LayerShape::new(17, 4, 8, 64), profile),
        AcceleratorSpec::gamma(),
    );
    let error = Engine::new(1).run(&campaign).unwrap_err().to_string();
    assert!(error.contains("packed-word limit"), "{error}");

    // The limit itself is accepted and simulates.
    let id = queue.enqueue(&spec(16)).unwrap().id;
    let summary = drain(&queue, &options(ShardSpec::default(), false), |_| {}).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(queue.state(id).unwrap(), CampaignState::Done);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn degenerate_crossbars_and_dense_precisions_are_rejected_at_enqueue() {
    // A LoAS crossbar bus of 0 bytes used to pass enqueue and then panic
    // every runner ("degenerate crossbar"), leaving the campaign queued
    // forever; PTB and Stellar took any weight precision and reported 0
    // weight DRAM bytes for 2^62-bit weights.
    let spec = |accelerator: &str| {
        format!(
            r#"{{"version": 2, "name": "degenerate", "jobs": [{{
                "workload": {{"name": "V-L8", "shape": {{"t": 4, "m": 16, "n": 512, "k": 2304}},
                             "profile": {{"spike_origin": 0.881, "silent": 0.765,
                                         "silent_ft": 0.868, "weight": 0.968}},
                             "seed": 7}},
                "accelerator": {accelerator}}}]}}"#
        )
    };
    let root = temp_root("degenerate");
    let queue = Queue::init(&root).unwrap();
    for accelerator in [
        r#"{"name": "loas", "config": {"timesteps": 4, "crossbar_bus_bytes": 0}}"#,
        r#"{"name": "ptb", "config": {"weight_bits": 4611686018427387904}}"#,
        r#"{"name": "ptb", "config": {"weight_bits": 0}}"#,
        r#"{"name": "stellar", "config": {"weight_bits": 4611686018427387904}}"#,
        r#"{"name": "stellar", "config": {"weight_bits": 0}}"#,
    ] {
        let error = queue.enqueue(&spec(accelerator)).unwrap_err();
        assert!(
            matches!(error, ServeError::Spec(_)),
            "{accelerator}: {error}"
        );
    }
    assert!(
        queue.submissions().unwrap().is_empty(),
        "nothing was queued"
    );
    // The bounds themselves are accepted.
    for accelerator in [
        r#"{"name": "loas", "config": {"timesteps": 4, "crossbar_bus_bytes": 1}}"#,
        r#"{"name": "ptb", "config": {"weight_bits": 32}}"#,
        r#"{"name": "stellar", "config": {"weight_bits": 1}}"#,
    ] {
        queue.enqueue(&spec(accelerator)).unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unbounded_precisions_are_rejected_at_enqueue() {
    // A weight precision of 2^62 bits used to pass enqueue and then walk
    // fiber spans of ~2^53 cache lines in `run`, stalling the queue.
    let spec = |model: &str, config: &str| {
        format!(
            r#"{{"version": 2, "name": "bad-precision", "jobs": [{{
                "workload": {{"name": "w", "shape": {{"t": 4, "m": 4, "n": 4, "k": 16}},
                             "profile": {{"spike_origin": 0.823, "silent": 0.741,
                                         "silent_ft": 0.796, "weight": 0.982}},
                             "seed": 7}},
                "accelerator": {{"name": "{model}", "config": {{{config}}}}}}}]}}"#
        )
    };
    let root = temp_root("bad-precision");
    let queue = Queue::init(&root).unwrap();
    let huge = r#""weight_bits": 4611686018427387904"#;
    for (model, config) in [
        ("loas", huge),
        ("sparten", huge),
        ("gospa", huge),
        ("gamma", huge),
        ("loas", r#""weight_bits": 0"#),
        ("gamma", r#""weight_bits": 33"#),
        ("gospa", r#""psum_bytes": 9"#),
        ("gamma", r#""psum_bytes": 0"#),
    ] {
        let error = queue.enqueue(&spec(model, config)).unwrap_err();
        assert!(
            matches!(error, ServeError::Spec(_)),
            "{model} {config}: {error}"
        );
    }
    assert!(
        queue.submissions().unwrap().is_empty(),
        "nothing was queued"
    );
    // The bounds themselves are accepted.
    for (model, config) in [
        ("gamma", r#""weight_bits": 32, "psum_bytes": 8"#),
        ("gospa", r#""weight_bits": 1, "psum_bytes": 1"#),
    ] {
        queue.enqueue(&spec(model, config)).unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unsimulatable_memory_configs_are_rejected_at_enqueue() {
    // Zero HBM channels and a cache of more than 2^32 lines used to pass
    // enqueue and then panic the memory models' constructors in `run`.
    let spec = |model: &str, config: &str| {
        format!(
            r#"{{"version": 2, "name": "bad-memory", "jobs": [{{
                "workload": {{"name": "w", "shape": {{"t": 4, "m": 4, "n": 8, "k": 64}},
                             "profile": {{"spike_origin": 0.823, "silent": 0.741,
                                         "silent_ft": 0.796, "weight": 0.982}},
                             "seed": 7}},
                "accelerator": {{"name": "{model}", "config": {{{config}}}}}}}]}}"#
        )
    };
    let root = temp_root("bad-memory");
    let queue = Queue::init(&root).unwrap();
    for (model, config) in [
        ("loas", r#""hbm_channels": 0"#),
        ("loas", r#""cache_bytes": 1099511627776"#),
        ("gamma", r#""cache_bytes": 1099511627776"#),
    ] {
        let error = queue.enqueue(&spec(model, config)).unwrap_err();
        assert!(
            matches!(error, ServeError::Spec(_)),
            "{model} {config}: {error}"
        );
    }
    assert!(
        queue.submissions().unwrap().is_empty(),
        "nothing was queued"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn caches_beyond_the_line_cap_are_rejected_at_enqueue() {
    // 274877906880 bytes is 2^32 - 2^14 lines of 64 bytes, which fit the
    // old u32::MAX line bound. The runner would then size tags, LRU stamps
    // and an index for it, well over 100 GB, and an allocation failure
    // aborts the process (no unwind for `catch_unwind` to catch), leaving
    // the campaign queued. Enqueue only parses, so it builds no cache.
    let spec = |model: &str, bytes: usize| {
        format!(
            r#"{{"version": 2, "name": "huge-cache", "jobs": [{{
                "workload": {{"name": "w", "shape": {{"t": 4, "m": 4, "n": 8, "k": 64}},
                             "profile": {{"spike_origin": 0.823, "silent": 0.741,
                                         "silent_ft": 0.796, "weight": 0.982}},
                             "seed": 7}},
                "accelerator": {{"name": "{model}", "config": {{"cache_bytes": {bytes}}}}}}}]}}"#
        )
    };
    let root = temp_root("huge-cache");
    let queue = Queue::init(&root).unwrap();
    let cap = loas_sim::MAX_CACHE_LINES * 64;
    for model in ["loas", "gamma", "sparten"] {
        for bytes in [274_877_906_880, cap + 64] {
            let error = queue.enqueue(&spec(model, bytes)).unwrap_err();
            assert!(matches!(error, ServeError::Spec(_)), "{model}: {error}");
            assert!(error.to_string().contains("lines"), "{model}: {error}");
        }
    }
    assert!(queue.submissions().unwrap().is_empty());
    // The cap itself is accepted.
    queue.enqueue(&spec("gamma", cap)).unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_cold_drain_leaves_one_memo_file() {
    let root = temp_root("one-memo-file");
    let queue = Queue::init(&root).unwrap();
    queue
        .enqueue(&campaign_to_json(&headline_campaign(true, 11)))
        .unwrap();
    let cold = drain(&queue, &options(ShardSpec::default(), true), |_| {}).unwrap();
    assert_eq!(cold.simulated, 28);
    let files: Vec<_> = std::fs::read_dir(queue.memo_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    let store = MemoStore::open(queue.memo_dir()).unwrap();
    assert_eq!(files, vec![store.log_path().to_path_buf()]);
    assert_eq!(store.len(), 28);
    let _ = std::fs::remove_dir_all(&root);
}

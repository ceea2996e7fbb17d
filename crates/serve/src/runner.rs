//! The serving loop: drains the durable queue through a [`loas_engine::Engine`],
//! streaming shard reports and memoizing results.
//!
//! A runner process claims campaigns in submission order. For each
//! campaign it owns shard `K/N` of (marker file absent), it runs the
//! shard's job subset against the queue's shared [`MemoStore`], streams
//! the records into `report.shard-K.jsonl` as their prefix completes, and
//! drops a `shard-K.done` marker. Single-shard runs additionally finalize
//! `report.jsonl` and flip the campaign state to `done`; sharded runs
//! leave finalization to `loas-serve merge`. In watch mode the runner
//! polls for new submissions — campaigns enqueued while others run are
//! picked up on the next pass.

use crate::error::ServeError;
use crate::queue::{CampaignState, Queue};
use crate::shard::ShardSpec;
use loas_engine::{Campaign, Engine, MemoStore, ResultStore};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The shard of each campaign this process owns.
    pub shard: ShardSpec,
    /// Engine worker threads.
    pub workers: usize,
    /// Whether to consult/populate the queue's memo store.
    pub use_store: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            shard: ShardSpec::default(),
            workers: loas_engine::default_workers(),
            use_store: true,
        }
    }
}

/// What one drain pass accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Campaigns (shards) this pass ran.
    pub campaigns: usize,
    /// Campaigns that failed (state flipped to `failed`).
    pub failed: usize,
    /// Job records emitted.
    pub jobs: usize,
    /// Jobs replayed from the memo store.
    pub memo_hits: usize,
    /// Jobs actually simulated.
    pub simulated: usize,
    /// Workloads generated (the campaigns' `workloads_generated`, summed).
    pub generated: usize,
}

/// One campaign-shard completion, reported to the progress callback.
#[derive(Debug, Clone)]
pub struct CampaignProgress {
    /// The campaign id.
    pub id: u64,
    /// Campaign display name.
    pub name: String,
    /// Records this shard emitted.
    pub jobs: usize,
    /// Memo replays among them.
    pub memo_hits: usize,
    /// Simulated jobs among them.
    pub simulated: usize,
    /// Workloads generated for them (the outcome's `workloads_generated`).
    pub generated: usize,
    /// Shard wall-clock seconds.
    pub wall_seconds: f64,
}

/// Drains every runnable campaign once, in submission order, reusing one
/// engine (and its prepared-layer cache) across campaigns. Returns the
/// pass summary; `progress` observes each completed campaign shard.
///
/// # Errors
///
/// Propagates queue I/O errors. A stored spec that cannot be read or
/// parsed (`failed spec: <reason>`) and engine failures (infeasible
/// workloads, panicking jobs) do **not** abort the pass: the campaign is
/// marked `failed` and draining continues with the next submission.
pub fn drain(
    queue: &Queue,
    options: &RunOptions,
    progress: impl FnMut(&CampaignProgress),
) -> Result<RunSummary, ServeError> {
    let (engine, store) = build_context(queue, options)?;
    drain_with(queue, options, &engine, store.as_ref(), progress)
}

/// Builds the engine (+ optional memo store) a runner reuses across drain
/// passes, so the prepared-layer cache spans campaigns and — in watch
/// mode — poll passes.
fn build_context(
    queue: &Queue,
    options: &RunOptions,
) -> Result<(Engine, Option<MemoStore>), ServeError> {
    let engine = Engine::new(options.workers);
    let store = if options.use_store {
        Some(MemoStore::open(queue.memo_dir()).map_err(ServeError::io(queue.memo_dir()))?)
    } else {
        None
    };
    Ok((engine, store))
}

fn drain_with(
    queue: &Queue,
    options: &RunOptions,
    engine: &Engine,
    store: Option<&MemoStore>,
    mut progress: impl FnMut(&CampaignProgress),
) -> Result<RunSummary, ServeError> {
    let mut summary = RunSummary::default();
    // Re-read the log after every campaign: submissions that arrived while
    // simulating are serviced within the same pass.
    while let Some(submission) = queue.submissions()?.into_iter().find(|submission| {
        matches!(queue.state(submission.id), Ok(CampaignState::Queued))
            && !queue.shard_done(submission.id, options.shard.rank)
    }) {
        let id = submission.id;
        summary.campaigns += 1;
        // A stored spec this build cannot read or run (a damaged file, or
        // one queued by a build with a looser gate) fails its campaign
        // alone, as an engine failure does.
        let reason = match queue.campaign(id) {
            Err(ServeError::Spec(message)) => format!("spec: {message}"),
            Err(error) => format!("spec: {error}"),
            Ok(campaign) => match run_one(queue, engine, store, options, id, &campaign) {
                Ok(outcome) => {
                    summary.jobs += outcome.jobs;
                    summary.memo_hits += outcome.memo_hits;
                    summary.simulated += outcome.simulated;
                    summary.generated += outcome.generated;
                    progress(&outcome);
                    continue;
                }
                Err(ServeError::Engine(source)) => source.to_string(),
                Err(other) => return Err(other),
            },
        };
        summary.failed += 1;
        queue.set_state(id, &CampaignState::Failed(reason))?;
    }
    Ok(summary)
}

fn run_one(
    queue: &Queue,
    engine: &Engine,
    store: Option<&MemoStore>,
    options: &RunOptions,
    id: u64,
    campaign: &Campaign,
) -> Result<CampaignProgress, ServeError> {
    let report_dir = queue.report_dir(id);
    std::fs::create_dir_all(&report_dir).map_err(ServeError::io(&report_dir))?;

    let job_ids = options.shard.job_ids(campaign.len());
    let shard_path = report_dir.join(options.shard.report_filename());
    let temp_path = shard_path.with_extension(format!("tmp.{}", std::process::id()));
    let file = std::fs::File::create(&temp_path).map_err(ServeError::io(&temp_path))?;
    let mut writer = std::io::BufWriter::new(file);

    // Stream records into the shard file as their prefix completes; I/O
    // failures inside the sink surface after the run.
    let mut sink_error: Option<std::io::Error> = None;
    let run = engine.run_where(
        campaign,
        Some(&job_ids),
        store.map(|s| s as &dyn ResultStore),
        |record| {
            if sink_error.is_none() {
                if let Err(error) = writeln!(writer, "{}", record.to_json()) {
                    sink_error = Some(error);
                }
            }
        },
    );
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(error) => {
            // Never leave a half-written temporary behind a failed run.
            drop(writer);
            let _ = std::fs::remove_file(&temp_path);
            return Err(error.into());
        }
    };
    let flushed = writer.into_inner().map_err(|error| ServeError::Io {
        path: temp_path.clone(),
        source: error.into_error(),
    });
    match sink_error {
        Some(source) => {
            let _ = std::fs::remove_file(&temp_path);
            return Err(ServeError::Io {
                path: temp_path,
                source,
            });
        }
        None => {
            if let Err(error) = flushed {
                let _ = std::fs::remove_file(&temp_path);
                return Err(error);
            }
        }
    };
    std::fs::rename(&temp_path, &shard_path).map_err(ServeError::io(&shard_path))?;

    let note = format!(
        "{} jobs, {} memo hits, {} simulated, {:.3}s wall",
        outcome.records.len(),
        outcome.memo_hits,
        outcome.simulated,
        outcome.wall_seconds
    );
    let summary_path = report_dir.join(format!("summary.shard-{}.txt", options.shard.rank));
    std::fs::write(&summary_path, outcome.summary_table())
        .map_err(ServeError::io(&summary_path))?;
    queue.mark_shard_done(id, options.shard.rank, &note)?;

    if options.shard.is_whole() {
        // Single-process runs finalize directly; the shard file doubles as
        // the full report.
        let report_path = report_dir.join("report.jsonl");
        std::fs::copy(&shard_path, &report_path).map_err(ServeError::io(&report_path))?;
        queue.set_state(id, &CampaignState::Done)?;
    }

    Ok(CampaignProgress {
        id,
        name: campaign.name.clone(),
        jobs: outcome.records.len(),
        memo_hits: outcome.memo_hits,
        simulated: outcome.simulated,
        generated: outcome.workloads_generated,
        wall_seconds: outcome.wall_seconds,
    })
}

/// Merges the shard reports of campaign `id`, writes `report.jsonl`, and
/// flips the state to `done`. Requires all `shards` markers to be present.
///
/// # Errors
///
/// Returns [`ServeError::Merge`] when a shard has not finished or its
/// report is incomplete; the campaign state is left untouched on failure.
pub fn merge(queue: &Queue, id: u64, shards: usize) -> Result<usize, ServeError> {
    let campaign = queue.campaign(id)?;
    for rank in 0..shards {
        if !queue.shard_done(id, rank) {
            return Err(ServeError::Merge(format!(
                "shard {rank}/{shards} of campaign {id} has not finished"
            )));
        }
    }
    let report_dir = queue.report_dir(id);
    let merged = crate::shard::merge_shards(&report_dir, shards, campaign.len())?;
    let report_path = report_dir.join("report.jsonl");
    let temp = report_path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&temp, &merged).map_err(ServeError::io(&temp))?;
    std::fs::rename(&temp, &report_path).map_err(ServeError::io(&report_path))?;
    queue.set_state(id, &CampaignState::Done)?;
    Ok(campaign.len())
}

/// Watch mode: repeatedly drain, sleeping `poll` between passes, until
/// `max_idle` elapses with no work done (`None` = run until the process
/// is killed).
///
/// # Errors
///
/// Propagates the first queue I/O error.
pub fn watch(
    queue: &Queue,
    options: &RunOptions,
    poll: Duration,
    max_idle: Option<Duration>,
    mut progress: impl FnMut(&CampaignProgress),
) -> Result<RunSummary, ServeError> {
    // One engine for the daemon's whole life: the prepared-layer cache
    // (with its fixed LRU bound) spans poll passes, so campaigns
    // submitted minutes apart still share workload preparations.
    let (engine, store) = build_context(queue, options)?;
    let mut total = RunSummary::default();
    let mut last_work = Instant::now();
    loop {
        let pass = drain_with(queue, options, &engine, store.as_ref(), &mut progress)?;
        if pass.campaigns > 0 {
            last_work = Instant::now();
            total.campaigns += pass.campaigns;
            total.failed += pass.failed;
            total.jobs += pass.jobs;
            total.memo_hits += pass.memo_hits;
            total.simulated += pass.simulated;
            total.generated += pass.generated;
        } else if let Some(max_idle) = max_idle {
            if last_work.elapsed() >= max_idle {
                return Ok(total);
            }
        }
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_io::{campaign_to_json, gamma_cache_campaign, headline_campaign};

    fn temp_queue(tag: &str) -> Queue {
        let root = std::env::temp_dir().join(format!(
            "loas-serve-runner-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        Queue::init(root).unwrap()
    }

    fn small_options() -> RunOptions {
        RunOptions {
            workers: 2,
            ..RunOptions::default()
        }
    }

    #[test]
    fn drain_runs_queued_campaigns_and_finalizes_single_shard() {
        let queue = temp_queue("drain");
        let spec = campaign_to_json(&headline_campaign(true, 11));
        let id = queue.enqueue(&spec).unwrap().id;
        let mut seen = Vec::new();
        let summary = drain(&queue, &small_options(), |p| seen.push(p.id)).unwrap();
        assert_eq!(summary.campaigns, 1);
        assert_eq!(summary.jobs, 28);
        assert_eq!(summary.simulated, 28);
        assert_eq!(summary.memo_hits, 0);
        assert_eq!(seen, vec![id]);
        assert_eq!(queue.state(id).unwrap(), CampaignState::Done);
        let report = std::fs::read_to_string(queue.report_dir(id).join("report.jsonl")).unwrap();
        assert_eq!(report.lines().count(), 28);
        // Nothing left to do.
        let idle = drain(&queue, &small_options(), |_| {}).unwrap();
        assert_eq!(idle.campaigns, 0);
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn warm_store_replays_resubmitted_campaigns_without_simulating() {
        let queue = temp_queue("warm");
        let spec = campaign_to_json(&headline_campaign(true, 11));
        let first = queue.enqueue(&spec).unwrap().id;
        drain(&queue, &small_options(), |_| {}).unwrap();
        let second = queue.enqueue(&spec).unwrap().id;
        let summary = drain(&queue, &small_options(), |_| {}).unwrap();
        assert_eq!(summary.memo_hits, 28);
        assert_eq!(summary.simulated, 0);
        assert_eq!(summary.generated, 0, "no workload regenerated when warm");
        let read =
            |id: u64| std::fs::read_to_string(queue.report_dir(id).join("report.jsonl")).unwrap();
        assert_eq!(read(first), read(second), "replayed report diverged");
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn watch_sums_its_passes_and_shares_layers_across_campaigns() {
        let queue = temp_queue("watch");
        for campaign in [headline_campaign(true, 11), gamma_cache_campaign(true, 11)] {
            queue.enqueue(&campaign_to_json(&campaign)).unwrap();
        }
        let mut seen = Vec::new();
        let options = RunOptions {
            use_store: false,
            ..small_options()
        };
        let summary = watch(
            &queue,
            &options,
            Duration::from_millis(1),
            Some(Duration::ZERO),
            |p| {
                seen.push((p.id, p.jobs, p.generated));
            },
        )
        .unwrap();
        // The Gamma sweep runs on the headline's V-L8 layer, which the
        // watcher's one engine already holds: it generates nothing.
        assert_eq!(seen, vec![(1, 28, 8), (2, 4, 0)]);
        let expected = RunSummary {
            campaigns: 2,
            failed: 0,
            jobs: 32,
            memo_hits: 0,
            simulated: 32,
            generated: 8,
        };
        assert_eq!(summary, expected);
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn infeasible_campaigns_fail_without_blocking_the_queue() {
        let queue = temp_queue("failing");
        // Dense spikes (origin sparsity 1%) with mostly-silent packed
        // neurons cannot be realised at T=2: the few active neurons would
        // need ~4.3 mean fires in a 2-step window.
        let bad = r#"{"name": "bad", "jobs": [{
            "workload": {"name": "w", "shape": {"t": 2, "m": 4, "n": 4, "k": 16},
                         "profile": {"spike_origin": 0.01, "silent": 0.5,
                                     "silent_ft": 0.55, "weight": 0.98},
                         "seed": 7},
            "accelerator": {"loas": {"timesteps": 2}}}]}"#;
        let bad_id = queue.enqueue(bad).unwrap().id;
        let good_id = queue
            .enqueue(&campaign_to_json(&headline_campaign(true, 11)))
            .unwrap()
            .id;
        let summary = drain(&queue, &small_options(), |_| {}).unwrap();
        assert_eq!(summary.campaigns, 2);
        assert_eq!(summary.failed, 1);
        assert!(matches!(
            queue.state(bad_id).unwrap(),
            CampaignState::Failed(_)
        ));
        assert_eq!(queue.state(good_id).unwrap(), CampaignState::Done);
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn a_panicking_campaign_fails_and_leaves_no_report() {
        // No spec the gate accepts panics a model, so the campaign is built
        // in process: LoAS at 8 timesteps panics on a t = 4 layer.
        use loas_core::LoasConfig;
        use loas_engine::{AcceleratorSpec, EngineError, WorkloadSpec};
        use loas_workloads::{LayerShape, SparsityProfile};
        let queue = temp_queue("panicking");
        let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
        let layer = WorkloadSpec::new("serve-panic", LayerShape::new(4, 4, 8, 64), profile);
        let mut broken = Campaign::new("broken");
        broken.push_layer(layer.clone(), AcceleratorSpec::loas());
        broken.push_layer(
            layer,
            AcceleratorSpec::loas_with(LoasConfig::builder().timesteps(8).build()),
        );
        let options = small_options();
        let (engine, store) = build_context(&queue, &options).unwrap();
        let id = 1;
        let error = run_one(&queue, &engine, store.as_ref(), &options, id, &broken).unwrap_err();
        let ServeError::Engine(source) = error else {
            panic!("{error:?}");
        };
        assert!(
            matches!(source, EngineError::JobPanicked { job: 1, .. }),
            "{source:?}"
        );
        assert_eq!(
            source.to_string(),
            "job 1: LoAS runs 8 timesteps, its workload t = 4"
        );
        // No shard temporary and no report behind the failed run.
        let leftovers: Vec<_> = std::fs::read_dir(queue.report_dir(id))
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn stored_specs_that_no_longer_parse_fail_without_blocking_the_queue() {
        let queue = temp_queue("stored-spec");
        let spec = r#"{"version": 2, "name": "small", "jobs": [{
            "workload": {"name": "w", "shape": {"t": 4, "m": 4, "n": 8, "k": 64},
                         "profile": {"spike_origin": 0.823, "silent": 0.741,
                                     "silent_ft": 0.796, "weight": 0.982},
                         "seed": 7},
            "accelerator": "gamma"}]}"#;
        let [truncated, refused, good] = [(); 3].map(|_| queue.enqueue(spec).unwrap().id);
        // A spec file cut short, and one a build with a looser gate queued:
        // LoAS configured for 8 timesteps on a t = 4 workload.
        let stored = |id: u64| queue.root().join("specs").join(format!("{id:05}.json"));
        std::fs::write(stored(truncated), r#"{"name": "x", "jobs": ["#).unwrap();
        let mismatch = spec.replace(
            r#""gamma""#,
            r#"{"name": "loas", "config": {"timesteps": 8}}"#,
        );
        std::fs::write(stored(refused), mismatch).unwrap();
        let summary = drain(&queue, &small_options(), |_| {}).unwrap();
        assert_eq!((summary.campaigns, summary.failed, summary.jobs), (3, 2, 1));
        let state = |id: u64| queue.state(id).unwrap().to_string();
        assert_eq!(state(truncated), "failed spec: unexpected end of input");
        assert_eq!(
            state(refused),
            "failed spec: job 0: LoAS runs 8 timesteps, its workload t = 4"
        );
        assert_eq!(queue.state(good).unwrap(), CampaignState::Done);
        let _ = std::fs::remove_dir_all(queue.root());
    }
}

//! The campaign executor: a shard-per-worker thread pool over `std::thread`
//! and channels, with deterministic ordered result streaming.
//!
//! Scheduling is dynamic (workers claim the next job off a shared atomic
//! counter, so long jobs never serialize behind short ones) but results are
//! emitted to the sink in job-submission order, which makes campaign output
//! — including the serialized report stream — byte-identical for any worker
//! count.

use crate::cache::{PreparedCache, PreparedCacheStats};
use crate::memo::ResultStore;
use crate::report::{CampaignOutcome, JobRecord};
use crate::spec::{Campaign, WorkloadSpec};
use loas_core::{LayerReport, PreparedLayer};
use loas_workloads::WorkloadError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Errors surfaced while executing a campaign.
#[derive(Debug)]
pub enum EngineError {
    /// A workload spec could not be generated (infeasible profile).
    Workload {
        /// Name of the failing workload spec.
        workload: String,
        /// The underlying generator error.
        source: WorkloadError,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Workload { workload, source } => {
                write!(f, "cannot generate workload `{workload}`: {source}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Workload { source, .. } => Some(source),
        }
    }
}

/// The deterministic multi-threaded campaign runner.
///
/// An engine owns a [`PreparedCache`] that persists across campaigns, so a
/// sequence of campaigns sharing workloads (the typical figure-regeneration
/// session) generates each unique workload once.
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    cache: PreparedCache,
}

impl Default for Engine {
    /// One worker per available hardware thread.
    fn default() -> Self {
        Engine::new(default_workers())
    }
}

/// The number of worker threads [`Engine::default`] uses: the
/// `LOAS_WORKERS` environment variable when set to a positive integer
/// (letting daemons and CI pin parallelism without plumbing flags),
/// otherwise one per available hardware thread.
pub fn default_workers() -> usize {
    if let Some(pinned) = pinned_workers(std::env::var("LOAS_WORKERS").ok().as_deref()) {
        return pinned;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Interprets a `LOAS_WORKERS` value: positive integers pin the worker
/// count, anything else (absent, unparsable, zero) falls through to the
/// hardware default.
fn pinned_workers(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|value| value.parse::<usize>().ok())
        .filter(|&workers| workers >= 1)
}

/// Intra-layer worker share per job: the engine budget divided by the
/// job-level threads actually spawned, at least 1. With more jobs than
/// budget every job runs its pure phase inline; a 1-job campaign on an
/// 8-worker engine sweeps its row tiles on all 8.
fn intra_share(budget: usize, job_workers: usize) -> usize {
    (budget / job_workers.max(1)).max(1)
}

impl Engine {
    /// An engine with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
            cache: PreparedCache::new(),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Reconfigures the worker count (clamped to at least 1). The cache is
    /// unaffected.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Lifetime cache counters.
    pub fn cache_stats(&self) -> PreparedCacheStats {
        self.cache.stats()
    }

    /// Rebounds the prepared-layer cache to at most `capacity` entries
    /// (LRU eviction; clamped to at least 1), evicting immediately if the
    /// cache is over the new bound.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// Prepares (generating in parallel where missing) the given workload
    /// specs and returns their shared layers in input order.
    ///
    /// # Errors
    ///
    /// Returns the first (by spec order) generation failure.
    pub fn prepare(&self, specs: &[WorkloadSpec]) -> Result<Vec<Arc<PreparedLayer>>, EngineError> {
        self.prepare_missing(specs)?;
        specs.iter().map(|spec| self.resolve(spec)).collect()
    }

    /// Resolves one spec to its prepared layer, regenerating privately if
    /// the entry was already evicted again (cache cap below the working
    /// set) rather than thrashing the cache or panicking.
    fn resolve(&self, spec: &WorkloadSpec) -> Result<Arc<PreparedLayer>, EngineError> {
        match self.cache.get(&spec.key()) {
            Some(layer) => Ok(layer),
            None => spec
                .prepare()
                .map(Arc::new)
                .map_err(|source| EngineError::Workload {
                    workload: spec.name.clone(),
                    source,
                }),
        }
    }

    /// Generates every spec whose key is not yet resident, each exactly
    /// once, sharded across the worker pool. Runs in two waves: plain
    /// workloads generate first (plus the bases of any missing fine-tuned
    /// specs), then fine-tuned variants derive from their cached base
    /// ([`PreparedLayer::fine_tuned`]: the `A` side masked, the `B` side
    /// shared) — so a campaign running both LoAS and LoAS(FT) on a layer
    /// pays for one generation and one `B` preparation, not two.
    fn prepare_missing(&self, specs: &[WorkloadSpec]) -> Result<(), EngineError> {
        let mut seen = std::collections::HashSet::new();
        let missing: Vec<&WorkloadSpec> = specs
            .iter()
            .filter(|spec| seen.insert(spec.key()) && !self.cache.contains(&spec.key()))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let mut bases: Vec<WorkloadSpec> = Vec::new();
        let mut derived: Vec<&WorkloadSpec> = Vec::new();
        for spec in missing {
            if spec.fine_tuned {
                let base = spec.base();
                if !self.cache.contains(&base.key())
                    && !bases.iter().any(|b: &WorkloadSpec| b.key() == base.key())
                {
                    bases.push(base);
                }
                derived.push(spec);
            } else {
                bases.push(spec.clone());
            }
        }
        self.generate_wave(&bases, |spec| spec.prepare())?;
        self.generate_wave(&derived, |spec| {
            // The base normally survives from the first wave; under a cache
            // cap smaller than the wave it may already be evicted, in which
            // case the derived spec regenerates standalone.
            match self.cache.peek(&spec.base().key()) {
                Some(base) => Ok(base.fine_tuned()),
                None => spec.prepare(),
            }
        })
    }

    /// Shards one wave of workload preparation across the worker pool,
    /// inserting results into the cache and surfacing the first (by spec
    /// order) failure.
    fn generate_wave<S: std::borrow::Borrow<WorkloadSpec> + Sync>(
        &self,
        wave: &[S],
        prepare: impl Fn(&WorkloadSpec) -> Result<PreparedLayer, loas_workloads::WorkloadError> + Sync,
    ) -> Result<(), EngineError> {
        if wave.is_empty() {
            return Ok(());
        }
        let next = AtomicUsize::new(0);
        let failures: Mutex<Vec<(usize, EngineError)>> = Mutex::new(Vec::new());
        let workers = self.workers.min(wave.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = wave.get(index).map(|s| s.borrow()) else {
                        break;
                    };
                    match prepare(spec) {
                        Ok(layer) => {
                            self.cache.insert(spec.key(), layer);
                        }
                        Err(source) => failures.lock().expect("failure lock").push((
                            index,
                            EngineError::Workload {
                                workload: spec.name.clone(),
                                source,
                            },
                        )),
                    }
                });
            }
        });
        let mut failures = failures.into_inner().expect("failure lock");
        failures.sort_by_key(|(index, _)| *index);
        match failures.into_iter().next() {
            Some((_, error)) => Err(error),
            None => Ok(()),
        }
    }

    /// Runs a campaign to completion.
    ///
    /// # Errors
    ///
    /// Returns the first workload-generation failure; no jobs run in that
    /// case.
    pub fn run(&self, campaign: &Campaign) -> Result<CampaignOutcome, EngineError> {
        self.run_streaming(campaign, |_| {})
    }

    /// Runs a campaign, invoking `sink` with each completed [`JobRecord`]
    /// **in job-submission order** as soon as that prefix of the campaign
    /// has finished. This is the streaming serialization hook: writing
    /// `record.to_json()` lines from the sink yields an incrementally
    /// flushed yet fully deterministic report stream.
    ///
    /// # Errors
    ///
    /// Returns the first workload-generation failure; no jobs run in that
    /// case.
    pub fn run_streaming(
        &self,
        campaign: &Campaign,
        sink: impl FnMut(&JobRecord),
    ) -> Result<CampaignOutcome, EngineError> {
        self.run_where(campaign, None, None, sink)
    }

    /// The fully general campaign entry point: runs an optional **subset**
    /// of the campaign's jobs against an optional **result store**.
    ///
    /// * `selection` — job ids to execute (`None` = all). Ids are
    ///   deduplicated and sorted; records stream and aggregate in ascending
    ///   **original** job-id order, so shard reports from disjoint
    ///   selections merge by id into the exact single-process report.
    /// * `store` — a [`ResultStore`] consulted per job before scheduling:
    ///   hits replay the memoized [`LayerReport`] without preparing the
    ///   workload or simulating, and every freshly simulated result is
    ///   written back. [`CampaignOutcome::memo_hits`] /
    ///   [`CampaignOutcome::simulated`] report the split.
    ///
    /// # Errors
    ///
    /// Returns the first workload-generation failure; no jobs run in that
    /// case.
    pub fn run_where(
        &self,
        campaign: &Campaign,
        selection: Option<&[usize]>,
        store: Option<&dyn ResultStore>,
        mut sink: impl FnMut(&JobRecord),
    ) -> Result<CampaignOutcome, EngineError> {
        let start = Instant::now();
        let stats_before = self.cache.stats();
        let jobs = campaign.jobs();
        let selected: Vec<usize> = match selection {
            Some(ids) => {
                let mut ids: Vec<usize> =
                    ids.iter().copied().filter(|&id| id < jobs.len()).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            }
            None => (0..jobs.len()).collect(),
        };

        // Memo resolution: replayed jobs skip workload preparation and
        // simulation entirely.
        let mut replayed: Vec<(usize, LayerReport)> = Vec::new();
        let mut to_run: Vec<usize> = Vec::new();
        for &index in &selected {
            let job = &jobs[index];
            match store.and_then(|s| s.load(job.memo_key())) {
                // Cross-check the stored identity against the job: a
                // 64-bit digest collision (or a store populated under a
                // different naming scheme) must read as a miss, never
                // silently substitute another job's metrics.
                Some(report)
                    if report.workload == job.workload.reported_name()
                        && report.accelerator == job.accelerator.display_name() =>
                {
                    replayed.push((index, report));
                }
                _ => to_run.push(index),
            }
        }
        let memo_hits = replayed.len();

        // Prepare only the workloads the simulated jobs need, each unique
        // key at most once. A job resolution counts as a cache hit only
        // when its key did not have to be generated for this campaign:
        // jobs beyond the first use of a fresh key, plus every use of keys
        // cached by earlier campaigns.
        let mut seen = std::collections::HashSet::new();
        let unique: Vec<WorkloadSpec> = to_run
            .iter()
            .map(|&index| &jobs[index].workload)
            .filter(|workload| seen.insert(workload.key()))
            .cloned()
            .collect();
        let fresh_keys = unique
            .iter()
            .filter(|spec| !self.cache.contains(&spec.key()))
            .count();
        self.prepare_missing(&unique)?;
        let prepare_seconds = start.elapsed().as_secs_f64();

        let layers: Vec<Arc<PreparedLayer>> = to_run
            .iter()
            .map(|&index| self.resolve(&jobs[index].workload))
            .collect::<Result<_, _>>()?;

        let next = AtomicUsize::new(0);
        let (sender, receiver) = mpsc::channel::<(usize, LayerReport, f64)>();
        let workers = self.workers.min(to_run.len().max(1));
        // Split the engine's worker budget between job-level and
        // intra-layer parallelism: campaigns with fewer jobs than budget
        // (the tail of a sharded sweep, or one huge layer) hand the spare
        // workers to each model's pure compute phase. Reports are
        // byte-identical for any split (models guarantee it).
        let intra_workers = intra_share(self.workers, workers);
        let records = std::thread::scope(|scope| {
            for _ in 0..workers {
                let sender = sender.clone();
                let next = &next;
                let layers = &layers;
                let to_run = &to_run;
                scope.spawn(move || loop {
                    let position = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = to_run.get(position) else {
                        break;
                    };
                    let job_start = Instant::now();
                    let mut model = jobs[index].accelerator.build();
                    model.set_intra_workers(intra_workers);
                    let report = model.run_layer(&layers[position]);
                    if sender
                        .send((index, report, job_start.elapsed().as_secs_f64()))
                        .is_err()
                    {
                        break;
                    }
                });
            }
            drop(sender);

            // Ordered streaming over the selected sequence: memoized
            // results seed the reorder buffer, fresh completions join as
            // they arrive, and the ready prefix is emitted in ascending
            // original-job-id order.
            let make_record = |index: usize, report: LayerReport, sim_seconds: f64| {
                let job = &jobs[index];
                JobRecord {
                    job: index,
                    label: job.label.clone(),
                    network: job.network.clone(),
                    layer_index: job.layer_index,
                    report,
                    sim_seconds,
                }
            };
            let mut pending: BTreeMap<usize, JobRecord> = std::mem::take(&mut replayed)
                .into_iter()
                .map(|(index, report)| (index, make_record(index, report, 0.0)))
                .collect();
            let mut records: Vec<JobRecord> = Vec::with_capacity(selected.len());
            let mut emit_ready = |pending: &mut BTreeMap<usize, JobRecord>,
                                  records: &mut Vec<JobRecord>| {
                while let Some(record) = selected
                    .get(records.len())
                    .and_then(|index| pending.remove(index))
                {
                    sink(&record);
                    records.push(record);
                }
            };
            emit_ready(&mut pending, &mut records);
            for (index, report, sim_seconds) in receiver {
                if let Some(store) = store {
                    store.store(jobs[index].memo_key(), &report);
                }
                pending.insert(index, make_record(index, report, sim_seconds));
                emit_ready(&mut pending, &mut records);
            }
            records
        });
        debug_assert_eq!(records.len(), selected.len());

        let stats_after = self.cache.stats();
        Ok(CampaignOutcome {
            campaign: campaign.name.clone(),
            workers: self.workers,
            records,
            wall_seconds: start.elapsed().as_secs_f64(),
            prepare_seconds,
            workloads_generated: stats_after.generated - stats_before.generated,
            cache_hits: to_run.len().saturating_sub(fresh_keys),
            memo_hits,
            simulated: to_run.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AcceleratorSpec;
    use loas_workloads::{LayerShape, SparsityProfile};

    fn small(name: &str) -> WorkloadSpec {
        WorkloadSpec::new(
            name,
            LayerShape::new(4, 6, 8, 96),
            SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap(),
        )
    }

    #[test]
    fn streaming_sink_sees_jobs_in_submission_order() {
        let engine = Engine::new(4);
        let mut campaign = Campaign::new("order");
        for accelerator in AcceleratorSpec::headline_fleet() {
            campaign.push_layer(small("order-w"), accelerator);
        }
        let mut seen = Vec::new();
        let outcome = engine
            .run_streaming(&campaign, |record| seen.push(record.job))
            .unwrap();
        assert_eq!(seen, (0..campaign.len()).collect::<Vec<_>>());
        assert_eq!(outcome.records.len(), campaign.len());
        assert!(outcome.wall_seconds > 0.0);
    }

    #[test]
    fn infeasible_profile_surfaces_as_error() {
        let engine = Engine::new(2);
        let mut campaign = Campaign::new("bad");
        // silent+FT below silent-only is inconsistent in any firing model
        // with these densities; profile construction succeeds but the
        // firing-model solve at T=1 cannot (density too high for 1 step).
        let profile = SparsityProfile::from_percentages(1.0, 50.0, 55.0, 98.0);
        if let Ok(profile) = profile {
            let spec = WorkloadSpec::new("bad", LayerShape::new(1, 4, 4, 16), profile);
            if spec.prepare().is_err() {
                campaign.push_layer(spec, AcceleratorSpec::loas());
                let error = engine.run(&campaign).unwrap_err();
                assert!(error.to_string().contains("bad"));
            }
        }
    }

    #[test]
    fn loas_workers_override_parsing() {
        // The env read itself is a one-liner; the interpretation rules are
        // what need pinning (and testing them via set_var would race the
        // parallel test harness).
        assert_eq!(pinned_workers(Some("3")), Some(3));
        assert_eq!(pinned_workers(Some("1")), Some(1));
        assert_eq!(pinned_workers(Some("0")), None, "zero is rejected");
        assert_eq!(pinned_workers(Some("not-a-number")), None);
        assert_eq!(pinned_workers(Some("")), None);
        assert_eq!(pinned_workers(None), None);
        assert!(default_workers() >= 1);
    }

    #[test]
    fn intra_share_splits_the_budget() {
        assert_eq!(intra_share(8, 8), 1, "budget fully spent on jobs");
        assert_eq!(intra_share(8, 2), 4, "spare budget goes intra-layer");
        assert_eq!(intra_share(8, 1), 8, "single job gets everything");
        assert_eq!(intra_share(1, 1), 1);
        assert_eq!(intra_share(0, 0), 1, "degenerate inputs clamp to 1");
    }

    #[test]
    fn intra_worker_budgets_leave_campaign_output_byte_identical() {
        // The same campaign with wildly different worker budgets (and
        // therefore different intra-layer shares) must serialize
        // identically — the engine's determinism contract extended to the
        // two-phase kernels.
        let mut campaign = Campaign::new("intra-det");
        for accelerator in AcceleratorSpec::headline_fleet() {
            campaign.push_layer(small("intra-w"), accelerator);
        }
        let golden = Engine::new(1).run(&campaign).unwrap().jsonl();
        for workers in [2usize, 5] {
            let outcome = Engine::new(workers).run(&campaign).unwrap();
            assert_eq!(outcome.jsonl(), golden, "workers={workers}");
        }
    }

    #[test]
    fn empty_campaign_completes_trivially() {
        let engine = Engine::new(3);
        let outcome = engine.run(&Campaign::new("empty")).unwrap();
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.jsonl(), "");
    }
}

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
use crate::spec::{Campaign, WorkloadKey, WorkloadSpec};
use loas_core::{LayerReport, PreparedLayer};
use loas_workloads::WorkloadError;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    /// A job's model panicked while simulating; the run returns no
    /// outcome.
    JobPanicked {
        /// The job's id within its campaign.
        job: usize,
        /// The panic message, on one line.
        message: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Workload { workload, source } => {
                write!(f, "cannot generate workload `{workload}`: {source}")
            }
            EngineError::JobPanicked { job, message } => write!(f, "job {job}: {message}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Workload { source, .. } => Some(source),
            EngineError::JobPanicked { .. } => None,
        }
    }
}

/// The layers of one preparation pass, one per requested spec, with the
/// pass's counts.
struct Prepared {
    layers: Vec<Arc<PreparedLayer>>,
    /// Keys this pass inserted into a vacant cache slot.
    generated: usize,
    /// Requests served without generating: requests minus the requested
    /// keys the cache did not hold.
    hits: usize,
}

/// The deterministic multi-threaded campaign runner.
///
/// An engine owns a prepared-layer cache that persists across campaigns,
/// so a sequence of campaigns sharing workloads (the typical
/// figure-regeneration session) generates each unique workload once.
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

/// The number of worker threads [`Engine::default`] uses: one per
/// available hardware thread. The binaries' `--workers` option sets it
/// otherwise.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The message of a caught panic, on one line.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let message = match payload.downcast_ref::<&str>() {
        Some(message) => message,
        None => payload
            .downcast_ref::<String>()
            .map_or("panic without a message", String::as_str),
    };
    message.replace('\n', " ")
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

    /// Lifetime cache counters.
    pub fn cache_stats(&self) -> PreparedCacheStats {
        self.cache.stats()
    }

    /// Prepares (generating in parallel where missing) the given workload
    /// specs and returns their shared layers in input order.
    ///
    /// # Errors
    ///
    /// Returns the first (by spec order) generation failure.
    pub fn prepare(&self, specs: &[WorkloadSpec]) -> Result<Vec<Arc<PreparedLayer>>, EngineError> {
        Ok(self.prepare_pass(&specs.iter().collect::<Vec<_>>())?.layers)
    }

    /// The one preparation pass: returns one layer per spec, in order, and
    /// the pass's counts (added to the cache's lifetime sums). Each unique
    /// key is looked up in the cache once. The missing ones generate
    /// across the worker pool in two waves: plain workloads first (plus
    /// the bases of missing fine-tuned specs), then fine-tuned variants
    /// derived from the base the pass holds ([`PreparedLayer::fine_tuned`]:
    /// the `A` side masked, the `B` side shared) — so a campaign running
    /// both LoAS and LoAS(FT) on a layer pays for one generation and one
    /// `B` preparation, not two. Every new layer goes into the cache, but
    /// the pass returns the `Arc`s it holds, so no later eviction reaches
    /// them.
    fn prepare_pass(&self, specs: &[&WorkloadSpec]) -> Result<Prepared, EngineError> {
        let keys: Vec<WorkloadKey> = specs.iter().map(|spec| spec.key()).collect();
        let mut held: HashMap<WorkloadKey, Arc<PreparedLayer>> = HashMap::new();
        let mut missing: HashSet<WorkloadKey> = HashSet::new();
        // Looks a key up once per pass: true when the pass must generate it.
        let mut lookup = |key: &WorkloadKey| {
            if held.contains_key(key) || missing.contains(key) {
                return false;
            }
            match self.cache.get(key) {
                Some(layer) => {
                    held.insert(key.clone(), layer);
                    false
                }
                None => missing.insert(key.clone()),
            }
        };
        let (derived, mut bases): (Vec<&WorkloadSpec>, Vec<&WorkloadSpec>) = specs
            .iter()
            .zip(&keys)
            .filter(|(_, key)| lookup(key))
            .map(|(&spec, _)| spec)
            .partition(|spec| spec.fine_tuned);
        let hits = specs.len() - derived.len() - bases.len();
        let missing_bases: Vec<WorkloadSpec> = derived
            .iter()
            .map(|spec| spec.base())
            .filter(|base| lookup(&base.key()))
            .collect();
        bases.extend(&missing_bases);

        let mut generated = 0;
        let mut keep = |held: &mut HashMap<WorkloadKey, Arc<PreparedLayer>>,
                        wave: &[&WorkloadSpec],
                        layers: Vec<PreparedLayer>| {
            for (spec, layer) in wave.iter().zip(layers) {
                let (layer, vacant) = self.cache.insert(spec.key(), layer);
                generated += usize::from(vacant);
                held.insert(spec.key(), layer);
            }
        };
        keep(
            &mut held,
            &bases,
            self.generate_wave(&bases, WorkloadSpec::prepare)?,
        );
        let layers =
            self.generate_wave(&derived, |spec| Ok(held[&spec.base().key()].fine_tuned()))?;
        keep(&mut held, &derived, layers);
        self.cache.count_hits(hits);
        Ok(Prepared {
            layers: keys.iter().map(|key| held[key].clone()).collect(),
            generated,
            hits,
        })
    }

    /// Shards one wave of workload preparation across the worker pool,
    /// returning the layers in wave order or the first (by spec order)
    /// failure.
    fn generate_wave(
        &self,
        wave: &[&WorkloadSpec],
        prepare: impl Fn(&WorkloadSpec) -> Result<PreparedLayer, WorkloadError> + Sync,
    ) -> Result<Vec<PreparedLayer>, EngineError> {
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, Result<PreparedLayer, WorkloadError>)>> =
            Mutex::new(Vec::with_capacity(wave.len()));
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(wave.len()) {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = wave.get(index) else {
                        break;
                    };
                    let layer = prepare(spec);
                    done.lock().expect("wave lock").push((index, layer));
                });
            }
        });
        let mut done = done.into_inner().expect("wave lock");
        done.sort_by_key(|(index, _)| *index);
        done.into_iter()
            .map(|(index, layer)| {
                layer.map_err(|source| EngineError::Workload {
                    workload: wave[index].name.clone(),
                    source,
                })
            })
            .collect()
    }

    /// Runs a campaign to completion.
    ///
    /// # Errors
    ///
    /// Returns the first workload-generation failure; no jobs run in that
    /// case.
    pub fn run(&self, campaign: &Campaign) -> Result<CampaignOutcome, EngineError> {
        self.run_where(campaign, None, None, |_| {})
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
    /// * `sink` — called with each completed [`JobRecord`] **in job order**
    ///   as soon as that prefix of the selection has finished: writing
    ///   `record.to_json()` lines from it streams a deterministic report.
    ///
    /// # Errors
    ///
    /// Returns the first workload-generation failure; no jobs run in that
    /// case. A job whose model panics fails the campaign with
    /// [`EngineError::JobPanicked`]: no further jobs start, results
    /// already simulated are still written to `store`, and the engine
    /// stays usable for the next campaign.
    pub fn run_where(
        &self,
        campaign: &Campaign,
        selection: Option<&[usize]>,
        store: Option<&dyn ResultStore>,
        mut sink: impl FnMut(&JobRecord),
    ) -> Result<CampaignOutcome, EngineError> {
        let start = Instant::now();
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
        // key at most once; the pass holds one layer per simulated job.
        let workloads: Vec<&WorkloadSpec> =
            to_run.iter().map(|&index| &jobs[index].workload).collect();
        let prepared = self.prepare_pass(&workloads)?;
        let layers = &prepared.layers;
        let prepare_seconds = start.elapsed().as_secs_f64();

        let next = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        let (sender, receiver) = mpsc::channel::<(usize, Result<LayerReport, String>, f64)>();
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
                let panicked = &panicked;
                let to_run = &to_run;
                scope.spawn(move || loop {
                    let position = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = to_run.get(position) else {
                        break;
                    };
                    if panicked.load(Ordering::Relaxed) {
                        break;
                    }
                    let job_start = Instant::now();
                    let report = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let mut model = jobs[index].accelerator.build();
                        model.set_intra_workers(intra_workers);
                        model.run_layer(&layers[position])
                    }))
                    .map_err(|payload| {
                        panicked.store(true, Ordering::Relaxed);
                        panic_message(payload.as_ref())
                    });
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
            let mut failure: Option<(usize, String)> = None;
            for (index, report, sim_seconds) in receiver {
                match report {
                    Ok(report) => {
                        if let Some(store) = store {
                            store.store(jobs[index].memo_key(), &report);
                        }
                        pending.insert(index, make_record(index, report, sim_seconds));
                        emit_ready(&mut pending, &mut records);
                    }
                    // Several jobs may panic before the workers stop: report
                    // the lowest id.
                    Err(message) => {
                        if failure.as_ref().is_none_or(|(job, _)| index < *job) {
                            failure = Some((index, message));
                        }
                    }
                }
            }
            match failure {
                Some((job, message)) => Err(EngineError::JobPanicked { job, message }),
                None => Ok(records),
            }
        })?;
        debug_assert_eq!(records.len(), selected.len());

        Ok(CampaignOutcome {
            campaign: campaign.name.clone(),
            workers: self.workers,
            records,
            wall_seconds: start.elapsed().as_secs_f64(),
            prepare_seconds,
            workloads_generated: prepared.generated,
            cache_hits: prepared.hits,
            memo_hits,
            simulated: to_run.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AcceleratorSpec;
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
            .run_where(&campaign, None, None, |record| seen.push(record.job))
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
    fn a_cache_smaller_than_the_campaign_prepares_each_key_once_per_run() {
        // Three layers under the headline fleet: 3 plain and 3 fine-tuned
        // keys, more than a 1-entry cache holds. The pass holds its own
        // layers, so evictions change neither the report nor the counts.
        let mut campaign = Campaign::new("tiny");
        let layers = [1, 2, 3].map(|seed| small("tiny-w").with_seed(seed));
        campaign.push_product(&layers, &AcceleratorSpec::headline_fleet());
        let reference = Engine::new(2).run(&campaign).unwrap();
        assert_eq!(reference.workloads_generated, 6);
        let tiny = Engine {
            workers: 2,
            cache: PreparedCache::with_capacity(1),
        };
        let outcome = tiny.run(&campaign).unwrap();
        assert_eq!(outcome.jsonl(), reference.jsonl());
        assert_eq!(outcome.workloads_generated, 6, "each key once");
        assert_eq!(outcome.cache_hits, campaign.len() - 6);
        let stats = tiny.cache_stats();
        assert_eq!((stats.entries, stats.evictions), (1, 5));
        // Only the last derived variant stayed resident: a second run
        // regenerates the other five keys, each once.
        let again = tiny.run(&campaign).unwrap();
        assert_eq!(again.jsonl(), reference.jsonl());
        assert_eq!(again.workloads_generated, 5);
        // The standalone prepare path returns every layer, in order.
        let specs: Vec<WorkloadSpec> = campaign
            .jobs()
            .iter()
            .map(|job| job.workload.clone())
            .collect();
        let prepared = tiny.prepare(&specs).unwrap();
        assert_eq!(prepared.len(), specs.len());
        for (spec, layer) in specs.iter().zip(&prepared) {
            assert_eq!(layer.name, spec.reported_name());
        }
        assert!(tiny.cache_stats().evictions > 5);
    }

    #[test]
    fn cache_counters_are_the_sums_of_the_passes() {
        let engine = Engine::new(2);
        let mut campaign = Campaign::new("sums");
        let plain = small("sums-w");
        campaign.push_layer(plain.clone(), AcceleratorSpec::sparten());
        campaign.push_layer(plain.clone().fine_tuned(), AcceleratorSpec::loas());
        campaign.push_layer(plain.clone(), AcceleratorSpec::gamma());
        let first = engine.run(&campaign).unwrap();
        assert_eq!((first.workloads_generated, first.cache_hits), (2, 1));
        let again = engine.run(&campaign).unwrap();
        assert_eq!((again.workloads_generated, again.cache_hits), (0, 3));
        // A fine-tuned job alone generates its base too: both count.
        let mut derived = Campaign::new("derived");
        derived.push_layer(small("sums-ft").fine_tuned(), AcceleratorSpec::loas());
        let ft = engine.run(&derived).unwrap();
        assert_eq!((ft.workloads_generated, ft.cache_hits), (2, 0));
        let prepared = engine.prepare(&[plain.clone(), plain]).unwrap();
        assert!(Arc::ptr_eq(&prepared[0], &prepared[1]));
        let stats = engine.cache_stats();
        assert_eq!(stats.generated, 2 + 2);
        assert_eq!(stats.hits, 1 + 3 + 2, "campaign hits plus prepare's two");
    }

    #[test]
    fn empty_campaign_completes_trivially() {
        let engine = Engine::new(3);
        let outcome = engine.run(&Campaign::new("empty")).unwrap();
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.jsonl(), "");
    }
}

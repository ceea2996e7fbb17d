//! `perfbench` — the repository benchmark: batches of campaigns served end
//! to end through `loas-serve` (enqueue, then a one-worker drain), timed,
//! and checked byte for byte against a direct layer-by-layer computation.
//!
//! ```text
//! perfbench --workload <cold-grid|config-sweep|warm-replay> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are `batch_s` and `setup_s`; with
//! `--trace 1` they are the per-layer breakdown (see `README.md`).

mod campaigns;
mod walk;

use campaigns::Workload;
use loas_core::{ContentHasher, LayerReport};
use loas_engine::{Campaign, Engine, MemoStore, DEFAULT_SEED};
use loas_serve::spec_io::{campaign_from_json, campaign_to_json, headline_campaign};
use loas_serve::{drain, Queue, RunOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <cold-grid|config-sweep|warm-replay> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Fewest rounds a run measures, however long they take. A round serves
/// every campaign of the batch once.
const MIN_ROUNDS: usize = 3;
/// Most layer walks a traced run times (the reference walk included).
const TRACE_WALKS: usize = 4;
/// The quick headline campaign's report at the default seed, as committed
/// with the serving crate's tests.
const HEADLINE_GOLDEN: &str =
    include_str!("../../crates/serve/tests/golden/headline-v1.report.jsonl");
/// Each workload's report digest at the default seed (see `pins.txt`).
const PINS: &str = include_str!("../pins.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let index = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(index + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed needs a non-negative integer".to_owned())?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a positive integer".to_owned())?;
    if seconds == 0 {
        return Err("--seconds needs a positive integer".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(work) => work,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    };
    let result = run(&args, &work.0);
    drop(work);
    match result {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}

/// A private scratch directory under the working directory, removed when
/// the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let path = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|error| format!("cannot create {}: {error}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails, and so keeps the parent, while another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// One served campaign.
struct Served {
    /// Enqueue plus drain: what a user waits for.
    seconds: f64,
    /// The engine's share of the drain (workload preparation, simulation,
    /// memo lookups and writes).
    engine_seconds: f64,
    memo_hits: usize,
    simulated: usize,
    generated: usize,
}

/// Submits `spec` to a fresh `queue` and drains it with one worker.
/// With `warm_store`, that memo store is lent to the queue for the run.
/// The report must equal `expected` byte for byte.
fn serve_once(
    queue: &Queue,
    spec: &str,
    expected: &str,
    warm_store: Option<&Path>,
) -> Result<Served, String> {
    if let Some(store) = warm_store {
        let memo = queue.memo_dir();
        std::fs::remove_dir(&memo)
            .and_then(|()| std::fs::rename(store, &memo))
            .map_err(|e| format!("cannot lend the memo store: {e}"))?;
    }
    let options = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    let mut progress = None;
    let start = Instant::now();
    let drained = queue.enqueue(spec).and_then(|submission| {
        drain(queue, &options, |p| progress = Some(p.clone())).map(|_| submission.id)
    });
    let seconds = start.elapsed().as_secs_f64();
    if let Some(store) = warm_store {
        std::fs::rename(queue.memo_dir(), store)
            .map_err(|e| format!("cannot return the memo store: {e}"))?;
    }
    let id = drained.map_err(|e| e.to_string())?;
    let progress = progress.ok_or("the drain finished no campaign")?;
    let report_path = queue.report_dir(id).join("report.jsonl");
    let report = std::fs::read_to_string(&report_path)
        .map_err(|e| format!("cannot read {}: {e}", report_path.display()))?;
    if report != expected {
        return Err(format!(
            "served report differs from the layer walk ({} vs {} bytes)",
            report.len(),
            expected.len()
        ));
    }
    Ok(Served {
        seconds,
        engine_seconds: progress.wall_seconds,
        memo_hits: progress.memo_hits,
        simulated: progress.simulated,
        generated: progress.generated,
    })
}

/// Checks the memo split a served campaign must show: a warm replay
/// simulates and generates nothing, a cold campaign replays nothing.
fn check_split(served: &Served, jobs: usize, warm: bool) -> Result<(), String> {
    let ok = if warm {
        served.memo_hits == jobs && served.simulated == 0 && served.generated == 0
    } else {
        served.memo_hits == 0 && served.simulated == jobs && served.generated > 0
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} memo hits, {} simulated, {} generated for {jobs} {} jobs",
            served.memo_hits,
            served.simulated,
            served.generated,
            if warm { "warm" } else { "cold" }
        ))
    }
}

/// The paper's headline claim on the batch's own jobs: LoAS takes fewer
/// cycles per job, on average, than each spMspM baseline.
fn check_loas_leads(batch: &[Campaign], reports: &[LayerReport]) -> Result<(), String> {
    let mut cycles = std::collections::BTreeMap::<&str, (u64, u64)>::new();
    for (job, report) in batch.iter().flat_map(Campaign::jobs).zip(reports) {
        if !job.accelerator.wants_fine_tuned_workload() {
            let (total, jobs) = cycles.entry(job.accelerator.model()).or_default();
            *total += report.stats.cycles.get();
            *jobs += 1;
        }
    }
    let mean = |(total, jobs): (u64, u64)| total as f64 / jobs as f64;
    let loas = mean(cycles["loas"]);
    for (model, &entry) in &cycles {
        if *model != "loas" && mean(entry) <= loas {
            return Err(format!(
                "LoAS ({loas:.0} cycles per job) does not beat {model} ({:.0})",
                mean(entry)
            ));
        }
    }
    Ok(())
}

/// The simulator still reproduces the committed headline golden report.
fn check_golden() -> Result<(), String> {
    let outcome = Engine::new(1)
        .run(&headline_campaign(true, DEFAULT_SEED))
        .map_err(|e| e.to_string())?;
    if outcome.jsonl() == HEADLINE_GOLDEN {
        Ok(())
    } else {
        Err("the quick headline report differs from its committed golden".to_owned())
    }
}

/// The workload's reports at the default seed still hash to the digest
/// pinned in `pins.txt`, so no simulated statistic of the timed jobs has
/// moved.
fn check_pin(workload: Workload, jsonl: &[String]) -> Result<(), String> {
    let mut hasher = ContentHasher::new();
    for report in jsonl {
        hasher.write_bytes(report.as_bytes());
    }
    let digest = format!("{:016x}", hasher.finish());
    let pinned = PINS
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.split_once(' '))
        .find(|(name, _)| *name == workload.name())
        .map(|(_, pin)| pin.trim());
    match pinned {
        Some(pin) if pin == digest => Ok(()),
        Some(pin) => Err(format!(
            "{} reports at seed {DEFAULT_SEED} digest to {digest}, pinned {pin}",
            workload.name()
        )),
        None => Err(format!(
            "no pin for {}; its digest is {digest}",
            workload.name()
        )),
    }
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One round's set-up time and its totals over the batch's campaigns.
#[derive(Default)]
struct Round {
    setup: f64,
    serve_self: f64,
    engine: f64,
    memo_hits: usize,
    simulated: usize,
    generated: usize,
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let warm = args.workload == Workload::WarmReplay;
    let mut correct = true;
    let mut fail = |message: String| {
        eprintln!("perfbench: check failed: {message}");
        correct = false;
    };
    if let Err(message) = check_golden() {
        fail(message);
    }

    // The reference walk. Its memo store is what the warm workload
    // replays from; cold workloads never see it.
    let batch = args.workload.batch(args.seed);
    let specs: Vec<String> = batch.iter().map(campaign_to_json).collect();
    for spec in &specs {
        let parsed = campaign_from_json(spec).map_err(|e| e.to_string())?;
        if campaign_to_json(&parsed) != *spec {
            fail("a campaign spec does not round-trip".to_owned());
        }
    }
    let store_dir = work.join("store");
    let store = MemoStore::open(&store_dir).map_err(|e| e.to_string())?;
    let reference = walk::walk(&batch, &store).map_err(|e| format!("layer walk: {e}"))?;
    if let Err(message) = check_loas_leads(&batch, &reference.reports) {
        fail(message);
    }
    // The same workload at the default seed against its pinned digest.
    let pinned = if args.seed == DEFAULT_SEED {
        check_pin(args.workload, &reference.jsonl)
    } else {
        let pin_dir = work.join("pin");
        let store = MemoStore::open(&pin_dir).map_err(|e| e.to_string())?;
        let walked = walk::walk(&args.workload.batch(DEFAULT_SEED), &store)
            .map_err(|e| format!("layer walk: {e}"))?;
        let _ = std::fs::remove_dir_all(&pin_dir);
        check_pin(args.workload, &walked.jsonl)
    };
    if let Err(message) = pinned {
        fail(message);
    }
    let mut walks = vec![reference.spans];

    // Each campaign's fastest serving: on a shared host, contention only
    // ever slows a round, and the fastest of many short rounds varies
    // least from run to run.
    let mut fastest = vec![f64::INFINITY; batch.len()];
    let mut rounds: Vec<Round> = Vec::new();
    let mut parses = Vec::new();
    let (mut attempted, mut failed, mut measured) = (0usize, 0usize, 0.0f64);
    while rounds.len() < MIN_ROUNDS || measured < args.seconds {
        let mut round = Round::default();
        // Set-up: build the batch's specs from the seed, as `loas-serve
        // spec` builds its built-in campaigns.
        let start = Instant::now();
        let round_specs: Vec<String> = args
            .workload
            .batch(args.seed)
            .iter()
            .map(campaign_to_json)
            .collect();
        round.setup = start.elapsed().as_secs_f64();
        measured += round.setup;
        if round_specs != specs {
            fail("the batch is not rebuilt identically from its seed".to_owned());
        }

        for (index, (campaign, spec)) in batch.iter().zip(&round_specs).enumerate() {
            // A fresh queue, so a cold campaign finds an empty memo store.
            // Its creation is file-system work and is left out of both
            // metrics.
            let queue_dir = work.join(format!("queue-{}-{index}", rounds.len()));
            let queue = Queue::init(&queue_dir).map_err(|e| e.to_string())?;
            attempted += campaign.len();
            let outcome = serve_once(
                &queue,
                spec,
                &reference.jsonl[index],
                warm.then_some(store_dir.as_path()),
            )
            .and_then(|s| check_split(&s, campaign.len(), warm).map(|()| s));
            let _ = std::fs::remove_dir_all(&queue_dir);
            match outcome {
                Ok(s) => {
                    measured += s.seconds;
                    fastest[index] = fastest[index].min(s.seconds);
                    round.serve_self += s.seconds - s.engine_seconds;
                    round.engine += s.engine_seconds;
                    round.memo_hits += s.memo_hits;
                    round.simulated += s.simulated;
                    round.generated += s.generated;
                }
                Err(message) => {
                    failed += campaign.len();
                    fail(format!("{}: {message}", campaign.name));
                }
            }
        }

        if args.trace && walks.len() < TRACE_WALKS {
            // Traced rounds spend part of the run's time on spans.
            let start = Instant::now();
            for spec in &specs {
                campaign_from_json(spec).map_err(|e| e.to_string())?;
            }
            parses.push(start.elapsed().as_secs_f64());
            // A fresh store per walk, so memo_store_s times new entries.
            let walk_dir = work.join(format!("walk-{}", rounds.len()));
            let store = MemoStore::open(&walk_dir).map_err(|e| e.to_string())?;
            let again = walk::walk(&batch, &store).map_err(|e| format!("layer walk: {e}"))?;
            let _ = std::fs::remove_dir_all(&walk_dir);
            if again.jsonl != reference.jsonl {
                fail("the layer walk is not deterministic".to_owned());
            }
            walks.push(again.spans);
            measured += start.elapsed().as_secs_f64();
        }
        eprintln!(
            "perfbench: round {}: setup {:.6}s, served {:.4}s",
            rounds.len(),
            round.setup,
            round.serve_self + round.engine
        );
        rounds.push(round);
        if failed == attempted {
            break;
        }
    }
    if fastest.iter().any(|t| t.is_infinite()) {
        return Err("a campaign of the batch never served".to_owned());
    }

    let mut metrics = String::new();
    let mut metric = |name: &str, value: f64, unit: &str| {
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if metrics.is_empty() { "" } else { ", " }
        );
    };
    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&mut rounds.iter().map(f).collect::<Vec<_>>());
    if args.trace {
        metric("spec_parse_s", median(&mut parses), "s");
        metric("serve_self_s", per_round(&|r| r.serve_self), "s");
        metric("engine_s", per_round(&|r| r.engine), "s");
        for span in walk::SPANS {
            let mut samples: Vec<f64> = walks.iter().map(|w| w.get(span)).collect();
            metric(span, median(&mut samples), "s");
        }
        metric(
            "jobs_simulated",
            per_round(&|r| r.simulated as f64),
            "count",
        );
        metric("memo_hits", per_round(&|r| r.memo_hits as f64), "count");
        metric(
            "workloads_generated",
            per_round(&|r| r.generated as f64),
            "count",
        );
    } else {
        metric("batch_s", fastest.iter().sum(), "s");
        // The fastest, like batch_s: medians of this sub-millisecond step
        // moved by a quarter between batches of runs.
        let setup = rounds.iter().map(|r| r.setup).fold(f64::INFINITY, f64::min);
        metric("setup_s", setup, "s");
    }
    eprintln!(
        "perfbench: {} rounds of {} campaigns ({}), {measured:.1}s measured",
        rounds.len(),
        batch.len(),
        args.workload.name(),
    );
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}

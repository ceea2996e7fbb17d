//! The `loas-serve` CLI: durable campaign queue, sharded runners, and
//! report merging over one queue directory.
//!
//! ```text
//! loas-serve init <dir>
//! loas-serve spec (--headline | --gamma-cache) [--quick] [--seed S]
//! loas-serve enqueue <dir> (<spec.json> | <spec-dir> | <manifest> |
//!                           --headline | --gamma-cache) [--quick] [--seed S]
//! loas-serve run <dir> [--shard K/N] [--workers W] [--no-store]
//!                      [--watch [--poll-ms P] [--idle-ms I]]
//! loas-serve merge <dir> <campaign-id> --shards N
//! loas-serve requeue <dir> <campaign-id>
//! loas-serve fsck <dir> [--prune]
//! loas-serve status <dir>
//! loas-serve models
//! ```

use loas_serve::spec_io::{campaign_to_json, gamma_cache_campaign, headline_campaign};
use loas_serve::{
    collect_spec_paths, drain, enqueue_batch, fsck, merge, requeue, watch, Queue, RunOptions,
    ServeError, ShardSpec,
};
use std::time::Duration;

const USAGE: &str = "usage: loas-serve <init|spec|enqueue|run|merge|requeue|fsck|status|models> ...
  init <dir>                                   create a queue directory
  spec (--headline | --gamma-cache) [--quick] [--seed S]
                                               print a built-in campaign spec to stdout
  enqueue <dir> <spec.json>                    submit one campaign spec file
  enqueue <dir> <spec-dir | manifest>          submit a batch: every *.json in a
                                               directory, or the spec paths listed in a
                                               manifest file (one per line, # comments)
  enqueue <dir> (--headline | --gamma-cache) [--quick] [--seed S]
                                               submit a built-in campaign
  run <dir> [--shard K/N] [--workers W] [--no-store]
            [--watch [--poll-ms P] [--idle-ms I]]  drain the queue (one shard per process)
  merge <dir> <campaign-id> --shards N         merge shard reports into report.jsonl
  requeue <dir> <campaign-id>                  reset a failed campaign to queued
  fsck <dir> [--prune]                         integrity-check the memo store and
                                               reports tree (prune corruption/orphans)
  status <dir>                                 list submissions and their states
  models                                       print the six models, each with its
                                               config fields, kinds, and paper
                                               defaults";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("init") => cmd_init(&args[1..]),
        Some("spec") => cmd_spec(&args[1..]),
        Some("enqueue") => cmd_enqueue(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("requeue") => cmd_requeue(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("models") => cmd_models(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            return;
        }
        Some(other) => Err(usage(format!("unknown command `{other}`"))),
    };
    if let Err(error) = result {
        eprintln!("loas-serve: {error}");
        std::process::exit(1);
    }
}

fn usage(message: impl std::fmt::Display) -> ServeError {
    ServeError::Queue(format!("{message}\n{USAGE}"))
}

fn cmd_init(args: &[String]) -> Result<(), ServeError> {
    let [dir] = args else {
        return Err(usage("init takes exactly one directory"));
    };
    let queue = Queue::init(dir)?;
    println!("initialized queue at {}", queue.root().display());
    Ok(())
}

/// Parses the built-in spec-source flags (`--headline` or `--gamma-cache`,
/// with `[--quick] [--seed S]`).
fn builtin_spec_flags(args: &[String]) -> Result<Option<String>, ServeError> {
    let headline = args.iter().any(|a| a == "--headline");
    let gamma_cache = args.iter().any(|a| a == "--gamma-cache");
    if !headline && !gamma_cache {
        return Ok(None);
    }
    if headline && gamma_cache {
        return Err(usage("pick one of --headline / --gamma-cache"));
    }
    let quick = args.iter().any(|a| a == "--quick");
    let seed = match args.iter().position(|a| a == "--seed") {
        None => loas_engine::DEFAULT_SEED,
        Some(index) => args
            .get(index + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| usage("--seed needs an integer value"))?,
    };
    let campaign = if headline {
        headline_campaign(quick, seed)
    } else {
        gamma_cache_campaign(quick, seed)
    };
    Ok(Some(campaign_to_json(&campaign)))
}

fn cmd_spec(args: &[String]) -> Result<(), ServeError> {
    let Some(spec) = builtin_spec_flags(args)? else {
        return Err(usage("spec requires --headline or --gamma-cache"));
    };
    print!("{spec}");
    Ok(())
}

fn cmd_enqueue(args: &[String]) -> Result<(), ServeError> {
    let Some(dir) = args.first() else {
        return Err(usage("enqueue needs a queue directory"));
    };
    let queue = Queue::open(dir)?;
    let submissions = match builtin_spec_flags(&args[1..])? {
        Some(spec) => vec![queue.enqueue(&spec)?],
        None => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return Err(usage(
                    "enqueue needs a spec file/directory/manifest or --headline/--gamma-cache",
                ));
            };
            // A directory or manifest expands to a validated batch; a
            // plain .json file is a batch of one.
            enqueue_batch(&queue, &collect_spec_paths(path)?)?
        }
    };
    for submission in &submissions {
        println!(
            "enqueued campaign {:05} `{}` ({} jobs)",
            submission.id, submission.name, submission.jobs
        );
    }
    if submissions.len() > 1 {
        println!("batch: {} campaigns submitted", submissions.len());
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), ServeError> {
    let Some(dir) = args.first() else {
        return Err(usage("run needs a queue directory"));
    };
    let queue = Queue::open(dir)?;
    let mut options = RunOptions::default();
    let mut watch_mode = false;
    let mut poll = Duration::from_millis(500);
    let mut max_idle: Option<Duration> = None;
    // The last flag given that only a watching runner reads.
    let mut watch_only: Option<&str> = None;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--shard" => {
                let value = rest.next().ok_or_else(|| usage("--shard needs K/N"))?;
                options.shard = ShardSpec::parse(value)?;
            }
            "--workers" => {
                let value = rest.next().and_then(|v| v.parse().ok());
                options.workers = value.ok_or_else(|| usage("--workers needs an integer"))?;
            }
            "--no-store" => options.use_store = false,
            "--watch" => watch_mode = true,
            "--poll-ms" => {
                let value = rest.next().and_then(|v| v.parse().ok());
                poll = Duration::from_millis(
                    value.ok_or_else(|| usage("--poll-ms needs an integer"))?,
                );
                watch_only = Some("--poll-ms");
            }
            "--idle-ms" => {
                let value = rest.next().and_then(|v| v.parse().ok());
                max_idle = Some(Duration::from_millis(
                    value.ok_or_else(|| usage("--idle-ms needs an integer"))?,
                ));
                watch_only = Some("--idle-ms");
            }
            other => return Err(usage(format!("unknown run flag `{other}`"))),
        }
    }
    if let (false, Some(flag)) = (watch_mode, watch_only) {
        return Err(usage(format!("{flag} only applies with --watch")));
    }

    let shard = options.shard;
    let progress = |p: &loas_serve::CampaignProgress| {
        println!(
            "campaign {:05} `{}` shard {shard}: {} jobs ({} memo hits, {} simulated, {} workloads generated) in {:.3}s",
            p.id, p.name, p.jobs, p.memo_hits, p.simulated, p.generated, p.wall_seconds
        );
    };
    let summary = if watch_mode {
        watch(&queue, &options, poll, max_idle, progress)?
    } else {
        drain(&queue, &options, progress)?
    };
    println!(
        "pass complete: {} campaign shard(s), {} failed, {} jobs ({} memo hits, {} simulated)",
        summary.campaigns, summary.failed, summary.jobs, summary.memo_hits, summary.simulated
    );
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), ServeError> {
    let (Some(dir), Some(id)) = (args.first(), args.get(1)) else {
        return Err(usage("merge needs a queue directory and a campaign id"));
    };
    let id: u64 = id
        .parse()
        .map_err(|_| usage(format!("bad campaign id `{id}`")))?;
    let shards = match args.iter().position(|a| a == "--shards") {
        Some(index) => args
            .get(index + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| usage("--shards needs a positive integer"))?,
        None => return Err(usage("merge requires --shards N")),
    };
    let queue = Queue::open(dir)?;
    let jobs = merge(&queue, id, shards)?;
    println!(
        "merged {shards} shard(s) of campaign {id:05} into {} ({jobs} jobs)",
        queue.report_dir(id).join("report.jsonl").display()
    );
    Ok(())
}

fn cmd_requeue(args: &[String]) -> Result<(), ServeError> {
    let (Some(dir), Some(id)) = (args.first(), args.get(1)) else {
        return Err(usage("requeue needs a queue directory and a campaign id"));
    };
    let id: u64 = id
        .parse()
        .map_err(|_| usage(format!("bad campaign id `{id}`")))?;
    let queue = Queue::open(dir)?;
    requeue(&queue, id)?;
    println!("campaign {id:05} requeued");
    Ok(())
}

fn cmd_fsck(args: &[String]) -> Result<(), ServeError> {
    let Some(dir) = args.first() else {
        return Err(usage("fsck needs a queue directory"));
    };
    let prune = args.iter().any(|a| a == "--prune");
    let queue = Queue::open(dir)?;
    let report = fsck(&queue, prune)?;
    println!(
        "fsck {}: {} valid memo entries, {} corrupt, {} orphan files, {} orphan report dirs{}",
        queue.root().display(),
        report.valid_entries,
        report.corrupt_frames,
        report.orphan_files.len(),
        report.orphan_report_dirs.len(),
        if prune {
            format!(", {} pruned", report.pruned)
        } else {
            String::new()
        }
    );
    if report.corrupt_frames > 0 {
        println!(
            "  problem: {} damaged stretch(es) in the memo log under {}",
            report.corrupt_frames,
            queue.memo_dir().display()
        );
    }
    for path in report.orphan_files.iter().chain(&report.orphan_report_dirs) {
        println!("  problem: {}", path.display());
    }
    if !report.is_clean() {
        return Err(ServeError::Queue(format!(
            "fsck found {} problem(s); run `loas-serve fsck {} --prune` to remove them",
            report.problems(),
            dir
        )));
    }
    Ok(())
}

fn cmd_models(args: &[String]) -> Result<(), ServeError> {
    if !args.is_empty() {
        return Err(usage("models takes no arguments"));
    }
    print!("{}", loas_serve::catalog_listing());
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), ServeError> {
    let [dir] = args else {
        return Err(usage("status takes exactly one queue directory"));
    };
    let queue = Queue::open(dir)?;
    let submissions = queue.submissions()?;
    if submissions.is_empty() {
        println!("queue {} is empty", queue.root().display());
        return Ok(());
    }
    println!("{:>5}  {:>6}  {:<10}  name", "id", "jobs", "state");
    for submission in submissions {
        let state = queue
            .state(submission.id)
            .map_or_else(|_| "unknown".to_owned(), |s| s.to_string());
        println!(
            "{:>5}  {:>6}  {:<10}  {}",
            format!("{:05}", submission.id),
            submission.jobs,
            state,
            submission.name
        );
    }
    Ok(())
}

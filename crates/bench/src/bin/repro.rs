//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation section and prints `paper vs measured` tables.

use loas_bench::experiments::{ExperimentFn, ALL_EXPERIMENTS};
use loas_bench::Context;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage: repro [--quick] [--csv <dir>] [--workers N] [--store <dir>] \
                     [all | table1 table2 table3 table4 fig5 fig11 fig12 fig13 fig14 fig15 \
                     fig16 fig17 fig18 fig19 ablations sweeps breakdown ...]\n\
                     (`all`, or no name, runs every experiment)";

struct Options {
    quick: bool,
    csv_dir: Option<PathBuf>,
    workers: usize,
    store_dir: Option<PathBuf>,
    /// Registry entries, in request order.
    wanted: Vec<(&'static str, ExperimentFn)>,
}

/// Parses the command line, refusing unknown flags, flags without a value
/// and unknown experiment names, so a typo never starts a run.
fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        quick: false,
        csv_dir: None,
        workers: loas_engine::default_workers(),
        store_dir: None,
        wanted: Vec::new(),
    };
    let mut all = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(value) if !value.starts_with("--") => Ok(value),
            _ => Err(format!("{flag} takes a value")),
        };
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--csv" => options.csv_dir = Some(value("--csv")?.into()),
            "--store" => options.store_dir = Some(value("--store")?.into()),
            "--workers" => {
                let workers = value("--workers")?;
                options.workers = workers
                    .parse()
                    .map_err(|_| format!("--workers takes a number, not `{workers}`"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            name => {
                let name = name.to_lowercase();
                if name == "all" {
                    all = true;
                } else {
                    let entry = ALL_EXPERIMENTS
                        .iter()
                        .find(|(n, _)| *n == name)
                        .ok_or_else(|| format!("unknown experiment `{name}`"))?;
                    options.wanted.push(*entry);
                }
            }
        }
    }
    if all || options.wanted.is_empty() {
        options.wanted = ALL_EXPERIMENTS.to_vec();
    }
    Ok(options)
}

fn main() {
    let options = match parse_options(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut ctx = Context::with_workers(options.quick, options.workers);
    if let Some(dir) = &options.store_dir {
        let store = loas_engine::MemoStore::open(dir).unwrap_or_else(|error| {
            eprintln!("cannot open memo store {}: {error}", dir.display());
            std::process::exit(1);
        });
        println!(
            "(memo store at {}: {} entries; repeated reproductions replay instead of simulating)",
            dir.display(),
            store.len()
        );
        ctx.set_result_store(std::sync::Arc::new(store));
    }
    if options.quick {
        println!("(quick mode: shrunken workloads — trends hold, magnitudes shift)");
    }
    for (name, runner) in &options.wanted {
        let start = Instant::now();
        let tables = runner(&mut ctx);
        for table in &tables {
            assert!(table.is_consistent(), "inconsistent table in {name}");
            print!("{table}");
            if let Some(dir) = &options.csv_dir {
                std::fs::create_dir_all(dir).expect("create csv dir");
                let path = dir.join(format!("{}.csv", table.slug()));
                std::fs::write(&path, table.to_csv()).expect("write csv");
            }
        }
        println!("  [{name} done in {:.1?}]", start.elapsed());
    }
    let cache = ctx.engine().cache_stats();
    println!(
        "[engine: {} workers, {} workloads generated, {} cache hits]",
        ctx.engine().workers(),
        cache.generated,
        cache.hits
    );
    if options.store_dir.is_some() {
        let (memo_hits, simulated) = ctx.memo_totals();
        println!("[memo store: {memo_hits} campaign jobs replayed, {simulated} simulated]");
    }
}

//! Criterion benchmarks over the figure-regeneration harness (quick-mode
//! workloads): one target per paper table/figure family, so `cargo bench`
//! exercises every experiment path end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use loas_bench::{experiments, Context};
use std::hint::black_box;

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments_quick");
    for (name, runner) in experiments::ALL_EXPERIMENTS {
        if *name == "fig15" {
            continue; // alias of table4
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut ctx = Context::quick();
                let tables = runner(&mut ctx);
                assert!(tables.iter().all(|t| t.is_consistent()));
                black_box(tables.len())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_experiments
}
criterion_main!(figures);

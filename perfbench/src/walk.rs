//! The layer walk: every job of a campaign computed by calling each layer
//! of the program directly, with no queue and no engine in between.
//!
//! It serves twice. Its report is the reference the served reports must
//! match byte for byte, and each call into a layer is timed as a span, so
//! a traced run can say where a campaign's time goes.

use loas_core::{LayerReport, PreparedLayer};
use loas_engine::{AcceleratorSpec, Campaign, JobRecord, MemoStore, ResultStore, WorkloadKey};
use loas_workloads::WorkloadGenerator;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Seconds spent in each layer, summed over one walk.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<&'static str, f64>);

impl Spans {
    fn time<R>(&mut self, span: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        *self.0.entry(span).or_default() += start.elapsed().as_secs_f64();
        result
    }

    pub fn get(&self, span: &str) -> f64 {
        self.0.get(span).copied().unwrap_or(0.0)
    }
}

/// The span names the walk records, in output order.
pub const SPANS: [&str; 11] = [
    "generate_s",
    "ft_mask_s",
    "prepare_s",
    "sim_sparten_s",
    "sim_gospa_s",
    "sim_gamma_s",
    "sim_loas_s",
    "sim_loas_ft_s",
    "memo_store_s",
    "memo_load_s",
    "record_json_s",
];

/// The simulation span of one accelerator.
fn sim_span(accelerator: &AcceleratorSpec) -> &'static str {
    match accelerator.model() {
        "sparten" => "sim_sparten_s",
        "gospa" => "sim_gospa_s",
        "gamma" => "sim_gamma_s",
        "loas" if accelerator.wants_fine_tuned_workload() => "sim_loas_ft_s",
        "loas" => "sim_loas_s",
        other => panic!("no simulation span for model `{other}`"),
    }
}

/// The finished walk.
pub struct Walk {
    /// Each campaign's report, as its `report.jsonl` must read.
    pub jsonl: Vec<String>,
    /// Every job's report, in batch order.
    pub reports: Vec<LayerReport>,
    pub spans: Spans,
}

/// Walks every job of every campaign in `batch`. Like a drain, each
/// campaign generates and prepares its base workloads once and derives
/// fine-tuned variants by masking a base; then every job is simulated,
/// stored in `store` and read back, and its record serialized.
pub fn walk(batch: &[Campaign], store: &MemoStore) -> Result<Walk, String> {
    let mut spans = Spans::default();
    let mut jsonl = Vec::with_capacity(batch.len());
    let mut reports = Vec::new();
    for campaign in batch {
        let mut prepared: HashMap<WorkloadKey, PreparedLayer> = HashMap::new();
        let mut lines = String::new();
        for (index, job) in campaign.jobs().iter().enumerate() {
            let spec = &job.workload;
            let key = spec.key();
            if !prepared.contains_key(&key) {
                // The engine's first wave: every base is generated and
                // prepared, fine-tuned jobs' bases included.
                let base_key = spec.base().key();
                if !prepared.contains_key(&base_key) {
                    let generator = WorkloadGenerator::new(spec.seed);
                    let base = spans
                        .time("generate_s", || {
                            generator.generate(&spec.name, spec.shape, &spec.profile)
                        })
                        .map_err(|error| format!("cannot generate `{}`: {error}", spec.name))?;
                    let layer = spans.time("prepare_s", || PreparedLayer::new(&base));
                    prepared.insert(base_key.clone(), layer);
                }
                // The second wave: a fine-tuned variant masks its base.
                if spec.fine_tuned {
                    let base = &prepared[&base_key].workload;
                    let masked = spans.time("ft_mask_s", || base.with_preprocessing());
                    let layer = spans.time("prepare_s", || PreparedLayer::new(&masked));
                    prepared.insert(key.clone(), layer);
                }
            }
            let layer = &prepared[&key];

            let report = spans.time(sim_span(&job.accelerator), || {
                job.accelerator.build().run_layer(layer)
            });
            let memo_key = job.memo_key();
            spans.time("memo_store_s", || store.store(memo_key, &report));
            let loaded = spans
                .time("memo_load_s", || store.load(memo_key))
                .ok_or_else(|| format!("{}: memo entry {memo_key} did not load", job.label))?;
            if loaded.to_portable() != report.to_portable() {
                return Err(format!(
                    "{}: memo entry {memo_key} loads back altered",
                    job.label
                ));
            }
            let record = JobRecord {
                job: index,
                label: job.label.clone(),
                network: job.network.clone(),
                layer_index: job.layer_index,
                report,
                sim_seconds: 0.0,
            };
            let line = spans.time("record_json_s", || record.to_json());
            lines.push_str(&line);
            lines.push('\n');
            reports.push(record.report);
        }
        jsonl.push(lines);
    }
    Ok(Walk {
        jsonl,
        reports,
        spans,
    })
}

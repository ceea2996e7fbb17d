//! Campaign fuzz: specs on tiny shapes whose catalog fields and workload
//! parameters sit at, just inside and just beyond their bounds. Whatever
//! `enqueue` accepts must end `done` or `failed <reason>` after a drain;
//! nothing may stay `queued`, no input may panic the test process, and no
//! `done` report may hold a saturated cycle count.

use loas_core::ConfigValue;
use loas_engine::AcceleratorSpec;
use loas_serve::{drain, CampaignState, Queue, RunOptions, ServeError};
use loas_sim::MAX_CACHE_LINES;
use proptest::prelude::*;

/// A workload's `t`, `(m, n, k)` and profile fractions.
#[derive(Debug, Clone, Copy)]
struct Workload {
    t: usize,
    dims: (usize, usize, usize),
    fractions: [f64; 4],
}

impl Workload {
    /// Table II's V-L8 statistics on a 4x8x64 layer: feasible at every
    /// `t` from 1 to 16.
    fn at(t: usize) -> Self {
        Workload {
            t,
            dims: (4, 8, 64),
            fractions: [0.881, 0.765, 0.868, 0.968],
        }
    }
}

/// A config-field value and whether the gate must accept it (`None`:
/// the model decides, e.g. a zero count with no declared bound).
type Edge = (ConfigValue, Option<bool>);

/// How one spec ended.
#[derive(Debug, PartialEq)]
enum Outcome {
    Refused(String),
    Done,
    Failed(String),
}

/// One v2 spec with a single job: `model` with `overrides` on `workload`.
fn spec(model: &str, overrides: &[(&str, ConfigValue)], workload: Workload) -> String {
    let config: Vec<String> = overrides
        .iter()
        .map(|(field, value)| format!("\"{field}\": {value}"))
        .collect();
    let (m, n, k) = workload.dims;
    let [origin, silent, silent_ft, weight] = workload.fractions;
    format!(
        r#"{{"version": 2, "name": "fuzz", "jobs": [{{
            "workload": {{"name": "fuzz", "shape": {{"t": {}, "m": {m}, "n": {n}, "k": {k}}},
                         "profile": {{"spike_origin": {origin}, "silent": {silent},
                                     "silent_ft": {silent_ft}, "weight": {weight}}},
                         "seed": 7}},
            "accelerator": {{"name": "{model}", "config": {{{}}}}}}}]}}"#,
        workload.t,
        config.join(", ")
    )
}

/// Values at, just inside and just beyond each bound `validate` enforces
/// on field `name`, given the model's default `config`.
fn edges(config: &[(&'static str, ConfigValue)], name: &str, default: ConfigValue) -> Vec<Edge> {
    let uint = |edges: &[(u64, Option<bool>)]| {
        edges
            .iter()
            .map(|&(value, ok)| (ConfigValue::UInt(value), ok))
            .collect()
    };
    let float = |edges: &[(f64, Option<bool>)]| {
        edges
            .iter()
            .map(|&(value, ok)| (ConfigValue::Float(value), ok))
            .collect()
    };
    let get = |field: &str| {
        config
            .iter()
            .find(|(name, _)| *name == field)
            .and_then(|(_, value)| value.as_u64())
            .unwrap_or(0)
    };
    let (line, ways, capacity) = (
        get("cache_line_bytes"),
        get("cache_ways"),
        get("cache_bytes"),
    );
    let (yes, no) = (Some(true), Some(false));
    let tiny = f64::MIN_POSITIVE;
    let below = |value: f64| f64::from_bits(value.to_bits() - 1);
    match (name, default) {
        (_, ConfigValue::Bool(value)) => vec![(ConfigValue::Bool(!value), yes)],
        // Floors below which the cycle count would saturate `u64`.
        ("hbm_gbps", _) => float(&[(0.0, no), (tiny, no), (below(1.0), no), (1.0, yes)]),
        ("utilization", _) => float(&[
            (0.0, no),
            (tiny, no),
            (below(0.01), no),
            (0.01, yes),
            (1.0, yes),
            (1.0 + f64::EPSILON, no),
        ]),
        (_, ConfigValue::Float(_)) => float(&[(0.0, no), (-1.0, no), (tiny, yes), (1.0, yes)]),
        ("weight_bits", _) => uint(&[(0, no), (1, yes), (2, yes), (31, yes), (32, yes), (33, no)]),
        ("psum_bytes", _) => uint(&[(0, no), (1, yes), (2, yes), (7, yes), (8, yes), (9, no)]),
        ("timesteps", _) => uint(&[(0, no), (1, yes), (15, yes), (16, yes), (17, no)]),
        ("merge_radix", _) => uint(&[(1, no), (2, yes), (3, yes)]),
        ("cache_bytes", _) => {
            let (set, top) = (line * ways, MAX_CACHE_LINES as u64 * line);
            uint(&[
                (set - 1, no),
                (set, yes),
                (set + line, yes),
                (top - line, yes),
                (top, yes),
                (top + line, no),
            ])
        }
        ("cache_ways", _) => uint(&[
            (0, no),
            (1, yes),
            (capacity / line, yes),
            (capacity / line + 1, no),
        ]),
        ("cache_line_bytes", _) => uint(&[
            (0, no),
            (1, yes),
            (capacity / ways, yes),
            (capacity / ways + 1, no),
        ]),
        _ => uint(&[(0, None), (1, yes), (2, yes)]),
    }
}

/// Workload edges: `t` of 0, 1, 16 and 17, each fraction at and just
/// beyond 0 and 1, and tiny shapes down to zero-sized dimensions.
fn workload_edges() -> Vec<Workload> {
    let mut workloads: Vec<Workload> = [0, 1, 16, 17].map(Workload::at).to_vec();
    for index in 0..4 {
        for value in [0.0, 1.0, -f64::EPSILON, 1.0 + f64::EPSILON] {
            let mut workload = Workload::at(4);
            workload.fractions[index] = value;
            workloads.push(workload);
        }
    }
    for dims in [
        (1, 1, 1),
        (8, 8, 128),
        (8, 1, 1),
        (0, 8, 64),
        (4, 0, 64),
        (4, 8, 0),
    ] {
        workloads.push(Workload {
            dims,
            ..Workload::at(4)
        });
    }
    workloads
}

/// Enqueues every spec into a fresh queue, drains it once, and returns
/// how each spec ended. Panics if enqueue fails other than as a spec
/// error, if an accepted campaign is still `queued` after the drain, or if
/// a `done` report holds a cycle count of `u64::MAX`.
fn serve(tag: &str, specs: &[&str]) -> Vec<Outcome> {
    let root =
        std::env::temp_dir().join(format!("loas-campaign-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let queue = Queue::init(&root).unwrap();
    let submitted: Vec<Result<u64, String>> = specs
        .iter()
        .map(|spec| match queue.enqueue(spec) {
            Ok(submission) => Ok(submission.id),
            Err(ServeError::Spec(message)) => Err(message),
            Err(other) => panic!("enqueue failed outside the spec gate: {other}\n{spec}"),
        })
        .collect();
    let options = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    drain(&queue, &options, |_| {}).unwrap();
    let outcomes = submitted
        .into_iter()
        .zip(specs)
        .map(|(submitted, spec)| match submitted {
            Err(message) => Outcome::Refused(message),
            Ok(id) => match queue.state(id).unwrap() {
                CampaignState::Done => {
                    let report = queue.report_dir(id).join("report.jsonl");
                    let report = std::fs::read_to_string(report).unwrap();
                    let saturated = format!("\"cycles\":{}", u64::MAX);
                    assert!(!report.contains(&saturated), "{report}\n{spec}");
                    Outcome::Done
                }
                CampaignState::Failed(reason) if !reason.is_empty() => Outcome::Failed(reason),
                other => panic!("campaign {id} ended `{other}`\n{spec}"),
            },
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    outcomes
}

#[test]
fn every_config_field_edge_is_refused_or_simulates() {
    let mut specs = Vec::new();
    for model in AcceleratorSpec::known_models() {
        let config = AcceleratorSpec::by_name(model).unwrap().config().fields();
        for &(name, default) in &config {
            for (value, ok) in edges(&config, name, default) {
                // LoAS runs only workloads of its own window.
                let t = match (name, value.as_u64()) {
                    ("timesteps", Some(t @ 1..=16)) => t as usize,
                    _ => 4,
                };
                specs.push((spec(model, &[(name, value)], Workload::at(t)), ok));
            }
        }
    }
    let texts: Vec<&str> = specs.iter().map(|(text, _)| text.as_str()).collect();
    for ((text, ok), outcome) in specs.iter().zip(serve("config", &texts)) {
        match (ok, &outcome) {
            // The workload is feasible, so an accepted config simulates.
            (Some(true) | None, Outcome::Done) | (Some(false) | None, Outcome::Refused(_)) => {}
            _ => panic!("{outcome:?}, expected accepted = {ok:?}\n{text}"),
        }
    }
}

#[test]
fn every_workload_edge_is_refused_or_finishes() {
    let mut specs = Vec::new();
    for model in AcceleratorSpec::known_models() {
        for workload in workload_edges() {
            specs.push(spec(model, &[], workload));
            if model == "loas" && workload.t != 4 {
                // LoAS configured for the workload's window as well.
                let window = ConfigValue::UInt(workload.t as u64);
                specs.push(spec(model, &[("timesteps", window)], workload));
            }
        }
    }
    let texts: Vec<&str> = specs.iter().map(String::as_str).collect();
    let outcomes = serve("workload", &texts);
    let refused = |needle: &str| {
        outcomes
            .iter()
            .filter(|outcome| matches!(outcome, Outcome::Refused(m) if m.contains(needle)))
            .count()
    };
    let models = AcceleratorSpec::known_models().len();
    // t = 0 and t = 17 on every model (LoAS configured for 0 or 17
    // timesteps is refused by its config first), LoAS's 4 timesteps on
    // t = 1 and t = 16, and four fractions beyond [0, 1] twice each.
    assert_eq!(refused("zero timesteps"), models);
    assert_eq!(refused("t = 17"), models);
    assert_eq!(refused("LoAS runs 4 timesteps"), 2);
    assert_eq!(refused("must be a fraction in [0, 1]"), 8 * models);
    assert!(outcomes.contains(&Outcome::Done));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Several field edges at once, on one model and one edge workload.
    #[test]
    fn combined_edges_are_refused_or_finish(
        model in any::<u64>(),
        picks in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..4),
        workload in any::<u64>(),
    ) {
        let models = AcceleratorSpec::known_models();
        let model = models[model as usize % models.len()];
        let config = AcceleratorSpec::by_name(model).unwrap().config().fields();
        let overrides: Vec<(&str, ConfigValue)> = picks
            .iter()
            .map(|&(field, edge)| {
                let (name, default) = config[field as usize % config.len()];
                let edges = edges(&config, name, default);
                (name, edges[edge as usize % edges.len()].0)
            })
            .collect();
        let workloads = workload_edges();
        let workload = workloads[workload as usize % workloads.len()];
        // `serve` itself fails the test if the campaign stays queued.
        let outcomes = serve("combined", &[&spec(model, &overrides, workload)]);
        prop_assert_eq!(outcomes.len(), 1);
    }
}

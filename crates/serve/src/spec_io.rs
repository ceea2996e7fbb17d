//! Campaign specs as JSON documents: the wire format of the durable queue.
//!
//! A spec is a complete, self-contained description of a campaign — name
//! plus a flat job list, each job pairing a workload (shape, sparsity
//! fractions, seed, fine-tuning flag) with an accelerator. Serialization
//! is exact: seeds are integers, sparsity fractions and float config
//! fields are shortest-round-trip `f64` tokens, so
//! `campaign_from_json(campaign_to_json(c))` rebuilds a campaign whose
//! jobs carry identical [`memo keys`](loas_engine::JobSpec::memo_key) and
//! produce byte-identical reports.
//!
//! # Schema versions
//!
//! The document's top-level `"version"` field selects the schema:
//!
//! * **v1** (no `version` field — the pre-catalog format): accelerators
//!   are closed-world tags (`"sparten"`, `"gospa"`, `"gamma"`, `"loas"`,
//!   `"loas-ft"`, `"ptb"`, `"stellar"`) or a `{"loas": {..overrides..}}`
//!   object. Still parsed forever: a committed golden v1 spec is asserted
//!   in CI to produce byte-identical memo keys and reports.
//! * **v2** (`"version": 2` — what [`campaign_to_json`] emits): an
//!   accelerator is any **catalog** model by stable name, with an optional
//!   typed config-override object —
//!   `{"name": "gamma", "config": {"cache_bytes": 131072}}` — validated
//!   field by field against the model's registered [`ModelConfig`]. A
//!   bare string (`"gamma"`, plus the `"loas-ft"` convenience alias)
//!   means the default configuration. Models registered by downstream
//!   crates are expressible with no change to this crate.
//!
//! [`ModelConfig`]: loas_core::ModelConfig

use crate::error::ServeError;
use crate::json::{escape, Json};
use loas_core::kernel::MAX_TIMESTEPS;
use loas_core::{ConfigValue, LoasConfig};
use loas_engine::{AcceleratorSpec, Campaign, JobSpec, WorkloadSpec};
use loas_workloads::networks;
use loas_workloads::{LayerShape, SparsityProfile};
use std::fmt::Write as _;

/// The schema version [`campaign_to_json`] writes.
pub const SPEC_VERSION: u64 = 2;

/// Serializes a campaign into the queue's versioned JSON spec format
/// (pretty, one job per line block).
pub fn campaign_to_json(campaign: &Campaign) -> String {
    let mut out = String::with_capacity(256 * campaign.len().max(1));
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"version\": {SPEC_VERSION},");
    let _ = writeln!(out, "  \"name\": \"{}\",", escape(&campaign.name));
    let _ = writeln!(out, "  \"jobs\": [");
    for (index, job) in campaign.jobs().iter().enumerate() {
        let _ = write!(out, "    {}", job_to_json(job));
        let _ = writeln!(out, "{}", if index + 1 < campaign.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

fn job_to_json(job: &JobSpec) -> String {
    let workload = &job.workload;
    let profile = &workload.profile;
    let mut out = String::with_capacity(256);
    let _ = write!(out, "{{\"label\": \"{}\", ", escape(&job.label));
    match &job.network {
        Some(network) => {
            let _ = write!(
                out,
                "\"network\": \"{}\", \"layer_index\": {}, ",
                escape(network),
                job.layer_index
            );
        }
        None => out.push_str("\"network\": null, \"layer_index\": 0, "),
    }
    let _ = write!(
        out,
        "\"workload\": {{\"name\": \"{}\", \"shape\": {{\"t\": {}, \"m\": {}, \"n\": {}, \"k\": {}}}, \
         \"profile\": {{\"spike_origin\": {}, \"silent\": {}, \"silent_ft\": {}, \"weight\": {}}}, \
         \"seed\": {}, \"fine_tuned\": {}}}, ",
        escape(&workload.name),
        workload.shape.t,
        workload.shape.m,
        workload.shape.n,
        workload.shape.k,
        profile.spike_origin,
        profile.silent,
        profile.silent_ft,
        profile.weight,
        workload.seed,
        workload.fine_tuned
    );
    let _ = write!(
        out,
        "\"accelerator\": {}}}",
        accelerator_to_json(&job.accelerator)
    );
    out
}

/// Serializes an accelerator as its v2 catalog form: stable model name +
/// the full typed configuration (self-describing, so specs survive future
/// default changes bit-exactly).
fn accelerator_to_json(spec: &AcceleratorSpec) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "{{\"name\": \"{}\", \"config\": {{",
        escape(spec.model())
    );
    for (index, (field, value)) in spec.config().fields().into_iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{field}\": {value}",
            if index > 0 { ", " } else { "" }
        );
    }
    out.push_str("}}");
    out
}

fn spec_err(message: impl Into<String>) -> ServeError {
    ServeError::Spec(message.into())
}

fn required<'a>(value: &'a Json, key: &str, context: &str) -> Result<&'a Json, ServeError> {
    value
        .get(key)
        .ok_or_else(|| spec_err(format!("missing `{key}` in {context}")))
}

fn required_usize(value: &Json, key: &str, context: &str) -> Result<usize, ServeError> {
    required(value, key, context)?.as_usize().ok_or_else(|| {
        spec_err(format!(
            "`{key}` in {context} must be a non-negative integer"
        ))
    })
}

fn required_f64(value: &Json, key: &str, context: &str) -> Result<f64, ServeError> {
    required(value, key, context)?
        .as_f64()
        .ok_or_else(|| spec_err(format!("`{key}` in {context} must be a number")))
}

/// The schema versions [`campaign_from_json`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecVersion {
    /// The pre-catalog closed-enum format (no `version` field).
    V1,
    /// The catalog format (`"version": 2`).
    V2,
}

/// Parses a campaign spec JSON document back into an engine [`Campaign`],
/// accepting both schema versions (see the module docs).
///
/// # Errors
///
/// Returns [`ServeError::Spec`] describing the first syntax or schema
/// problem, including unsupported `version` values.
pub fn campaign_from_json(text: &str) -> Result<Campaign, ServeError> {
    let doc = Json::parse(text).map_err(spec_err)?;
    let version = match doc.get("version") {
        None => SpecVersion::V1,
        Some(value) => match value.as_u64() {
            Some(2) => SpecVersion::V2,
            Some(other) => {
                return Err(spec_err(format!(
                    "unsupported spec `version` {other} (this build reads v1 and v2)"
                )))
            }
            None => return Err(spec_err("`version` must be an integer")),
        },
    };
    let name = required(&doc, "name", "campaign")?
        .as_str()
        .ok_or_else(|| spec_err("`name` must be a string"))?;
    let jobs = required(&doc, "jobs", "campaign")?
        .as_arr()
        .ok_or_else(|| spec_err("`jobs` must be an array"))?;
    let mut campaign = Campaign::new(name);
    for (index, job) in jobs.iter().enumerate() {
        campaign.push(job_from_json(job, index, version)?);
    }
    Ok(campaign)
}

/// [`campaign_from_json`] for enqueueing: also rejects, as
/// [`ServeError::Spec`], a workload with more timesteps than a packed
/// spike word holds, and a LoAS job whose `timesteps` differ from its
/// workload's `t` (the runner would panic on either mid-campaign).
pub(crate) fn runnable_campaign_from_json(text: &str) -> Result<Campaign, ServeError> {
    let campaign = campaign_from_json(text)?;
    for (index, job) in campaign.jobs().iter().enumerate() {
        let t = job.workload.shape.t;
        if t > MAX_TIMESTEPS {
            return Err(spec_err(format!(
                "workload in job {index} has t = {t}, above the packed-word limit of {MAX_TIMESTEPS}"
            )));
        }
        let loas = job.accelerator.typed_config::<LoasConfig>();
        if let Some(config) = loas.filter(|config| config.timesteps != t) {
            let runs = config.timesteps;
            return Err(spec_err(format!(
                "LoAS in job {index} runs {runs} timesteps, its workload t = {t}"
            )));
        }
    }
    Ok(campaign)
}

fn job_from_json(job: &Json, index: usize, version: SpecVersion) -> Result<JobSpec, ServeError> {
    let context = format!("job {index}");
    let workload = workload_from_json(required(job, "workload", &context)?, &context)?;
    let accelerator = required(job, "accelerator", &context)?;
    let accelerator = match version {
        SpecVersion::V1 => accelerator_from_json_v1(accelerator, &context)?,
        SpecVersion::V2 => accelerator_from_json_v2(accelerator, &context)?,
    };
    let label = match job.get("label").and_then(Json::as_str) {
        Some(label) => label.to_owned(),
        None => format!("{} @ {}", workload.name, accelerator.display_name()),
    };
    let network = match job.get("network") {
        None | Some(Json::Null) => None,
        Some(value) => Some(
            value
                .as_str()
                .ok_or_else(|| spec_err(format!("`network` in {context} must be a string")))?
                .to_owned(),
        ),
    };
    let layer_index = match job.get("layer_index") {
        None => 0,
        Some(value) => value
            .as_usize()
            .ok_or_else(|| spec_err(format!("`layer_index` in {context} must be an integer")))?,
    };
    Ok(JobSpec {
        label,
        network,
        layer_index,
        workload,
        accelerator,
    })
}

fn workload_from_json(workload: &Json, context: &str) -> Result<WorkloadSpec, ServeError> {
    let name = required(workload, "name", context)?
        .as_str()
        .ok_or_else(|| spec_err(format!("workload `name` in {context} must be a string")))?;
    let shape = required(workload, "shape", context)?;
    let shape = LayerShape::new(
        required_usize(shape, "t", context)?,
        required_usize(shape, "m", context)?,
        required_usize(shape, "n", context)?,
        required_usize(shape, "k", context)?,
    );
    let profile = required(workload, "profile", context)?;
    // Fractions in [0, 1], copied bit-exactly (not percentages): the memo
    // key hashes these bits, so a spec round trip must not perturb them.
    let profile = SparsityProfile {
        spike_origin: required_f64(profile, "spike_origin", context)?,
        silent: required_f64(profile, "silent", context)?,
        silent_ft: required_f64(profile, "silent_ft", context)?,
        weight: required_f64(profile, "weight", context)?,
    };
    for (field, value) in [
        ("spike_origin", profile.spike_origin),
        ("silent", profile.silent),
        ("silent_ft", profile.silent_ft),
        ("weight", profile.weight),
    ] {
        if !(0.0..=1.0).contains(&value) {
            return Err(spec_err(format!(
                "profile `{field}` in {context} must be a fraction in [0, 1], got {value}"
            )));
        }
    }
    let seed = required(workload, "seed", context)?
        .as_u64()
        .ok_or_else(|| spec_err(format!("`seed` in {context} must be an integer")))?;
    let fine_tuned = match workload.get("fine_tuned") {
        None => false,
        Some(value) => value
            .as_bool()
            .ok_or_else(|| spec_err(format!("`fine_tuned` in {context} must be a boolean")))?,
    };
    let mut spec = WorkloadSpec::new(name, shape, profile).with_seed(seed);
    if fine_tuned {
        spec = spec.fine_tuned();
    }
    Ok(spec)
}

/// Resolves a bare accelerator name (catalog lookup plus the `"loas-ft"`
/// convenience alias shared by both schema versions).
fn named_accelerator(tag: &str, context: &str) -> Result<AcceleratorSpec, ServeError> {
    if tag == "loas-ft" {
        return Ok(AcceleratorSpec::loas_ft());
    }
    AcceleratorSpec::by_name(tag).map_err(|_| {
        spec_err(format!(
            "unknown accelerator `{tag}` in {context} (registered models: {}, or loas-ft)",
            AcceleratorSpec::known_models().join("|")
        ))
    })
}

/// The v1 (pre-catalog) accelerator form: a closed tag set or a
/// `{"loas": {..overrides..}}` object over the Table III defaults.
fn accelerator_from_json_v1(spec: &Json, context: &str) -> Result<AcceleratorSpec, ServeError> {
    if let Some(tag) = spec.as_str() {
        return match tag {
            "sparten" | "gospa" | "gamma" | "ptb" | "stellar" | "loas" | "loas-ft" => {
                named_accelerator(tag, context)
            }
            other => Err(spec_err(format!(
                "unknown accelerator `{other}` in {context} (want sparten|gospa|gamma|loas|loas-ft|ptb|stellar or {{\"loas\": {{...}}}})"
            ))),
        };
    }
    let overrides = spec.get("loas").ok_or_else(|| {
        spec_err(format!(
            "accelerator in {context} must be a tag string or a {{\"loas\": {{...}}}} object"
        ))
    })?;
    let mut config = LoasConfig::table3();
    let set_usize = |field: &mut usize, key: &str| -> Result<(), ServeError> {
        if let Some(value) = overrides.get(key) {
            *field = value
                .as_usize()
                .ok_or_else(|| spec_err(format!("loas `{key}` must be an integer")))?;
        }
        Ok(())
    };
    set_usize(&mut config.tppes, "tppes")?;
    set_usize(&mut config.timesteps, "timesteps")?;
    set_usize(&mut config.weight_bits, "weight_bits")?;
    set_usize(&mut config.bitmask_bits, "bitmask_bits")?;
    set_usize(&mut config.laggy_adders, "laggy_adders")?;
    set_usize(&mut config.fifo_depth, "fifo_depth")?;
    set_usize(&mut config.weight_buffer_bytes, "weight_buffer_bytes")?;
    set_usize(&mut config.cache_bytes, "cache_bytes")?;
    set_usize(&mut config.cache_banks, "cache_banks")?;
    set_usize(&mut config.cache_ways, "cache_ways")?;
    set_usize(&mut config.cache_line_bytes, "cache_line_bytes")?;
    set_usize(&mut config.hbm_channels, "hbm_channels")?;
    set_usize(&mut config.crossbar_bus_bytes, "crossbar_bus_bytes")?;
    if let Some(value) = overrides.get("hbm_gbps") {
        config.hbm_gbps = value
            .as_f64()
            .ok_or_else(|| spec_err("loas `hbm_gbps` must be a number"))?;
    }
    let set_bool = |field: &mut bool, key: &str| -> Result<(), ServeError> {
        if let Some(value) = overrides.get(key) {
            *field = value
                .as_bool()
                .ok_or_else(|| spec_err(format!("loas `{key}` must be a boolean")))?;
        }
        Ok(())
    };
    set_bool(
        &mut config.discard_low_activity_outputs,
        "discard_low_activity_outputs",
    )?;
    set_bool(&mut config.temporal_parallel, "temporal_parallel")?;
    set_bool(&mut config.two_fast_prefix, "two_fast_prefix")?;
    config
        .check()
        .map_err(|message| spec_err(format!("invalid loas config in {context}: {message}")))?;
    Ok(AcceleratorSpec::loas_with(config))
}

/// The v2 accelerator form: a bare catalog name, or
/// `{"name": <model>, "config": {..field overrides..}}` validated against
/// the model's registered typed configuration.
fn accelerator_from_json_v2(spec: &Json, context: &str) -> Result<AcceleratorSpec, ServeError> {
    if let Some(tag) = spec.as_str() {
        return named_accelerator(tag, context);
    }
    if spec.as_obj().is_none() {
        return Err(spec_err(format!(
            "accelerator in {context} must be a model-name string or a {{\"name\": ..., \"config\": {{...}}}} object"
        )));
    }
    let name = required(spec, "name", context)?
        .as_str()
        .ok_or_else(|| spec_err(format!("accelerator `name` in {context} must be a string")))?;
    let mut accelerator = named_accelerator(name, context)?;
    let Some(config) = spec.get("config") else {
        return Ok(accelerator);
    };
    let overrides = config.as_obj().ok_or_else(|| {
        spec_err(format!(
            "accelerator `config` in {context} must be an object"
        ))
    })?;
    // Coerce each override by the declared kind of the registered config
    // field, so integer tokens land in integer fields and float fields
    // accept both `128` and `128.0` spellings.
    let declared = accelerator.config().fields();
    for (field, value) in overrides {
        let Some((_, kind)) = declared.iter().find(|(name, _)| name == field) else {
            return Err(spec_err(format!(
                "model `{name}` has no config field `{field}` (in {context}; fields: {})",
                declared
                    .iter()
                    .map(|(name, _)| *name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        };
        let coerced = match kind {
            ConfigValue::UInt(_) => value.as_u64().map(ConfigValue::UInt),
            ConfigValue::Float(_) => value.as_f64().map(ConfigValue::Float),
            ConfigValue::Bool(_) => value.as_bool().map(ConfigValue::Bool),
        }
        .ok_or_else(|| {
            spec_err(format!(
                "config field `{name}.{field}` in {context} must be {}",
                match kind {
                    ConfigValue::UInt(_) => "a non-negative integer",
                    ConfigValue::Float(_) => "a number",
                    ConfigValue::Bool(_) => "a boolean",
                }
            ))
        })?;
        accelerator
            .config_mut()
            .set(field, coerced)
            .map_err(|error| spec_err(format!("{error} (in {context})")))?;
    }
    // Individually-plausible fields can combine into a configuration the
    // simulator would hang or panic on (a radix-1 merger, a zero-way
    // cache): reject those at the schema boundary, before enqueueing.
    accelerator
        .config()
        .validate()
        .map_err(|message| spec_err(format!("invalid `{name}` config in {context}: {message}")))?;
    Ok(accelerator)
}

/// Builds the paper's headline campaign (the full 7-accelerator fleet over
/// the four selected layers) as a submittable spec, as `loas-serve spec
/// --headline` emits it.
pub fn headline_campaign(quick: bool, seed: u64) -> Campaign {
    let mut campaign = Campaign::new(if quick {
        "headline (quick)"
    } else {
        "headline"
    });
    let layers: Vec<WorkloadSpec> = networks::selected_layers()
        .iter()
        .map(|layer| {
            let layer = if quick {
                layer.shrunk_for_quick()
            } else {
                layer.clone()
            };
            WorkloadSpec::from_layer(&layer).with_seed(seed)
        })
        .collect();
    campaign.push_product(&layers, &AcceleratorSpec::headline_fleet());
    campaign
}

/// The FiberCache capacities the built-in Gamma sweep visits (the single
/// source of truth lives on [`loas_baselines::GammaConfig`], shared with
/// the bench harness's sweep table).
pub const GAMMA_CACHE_POINTS: [usize; 4] = loas_baselines::GammaConfig::CACHE_SWEEP_POINTS;

/// Builds a baseline-config sweep campaign: Gamma-SNN's FiberCache
/// capacity over the V-L8 layer ([`GAMMA_CACHE_POINTS`]), the served
/// counterpart of the bench harness's Gamma cache sweep — and a worked
/// example of sweeping a non-LoAS catalog config through the queue.
pub fn gamma_cache_campaign(quick: bool, seed: u64) -> Campaign {
    let mut campaign = Campaign::new(if quick {
        "gamma-cache-sweep (quick)"
    } else {
        "gamma-cache-sweep"
    });
    let layer = &networks::selected_layers()[1];
    let layer = if quick {
        layer.shrunk_for_quick()
    } else {
        layer.clone()
    };
    let workload = WorkloadSpec::from_layer(&layer).with_seed(seed);
    for bytes in GAMMA_CACHE_POINTS {
        let config = loas_baselines::GammaConfig::builder()
            .cache_bytes(bytes)
            .build();
        let accelerator = AcceleratorSpec::from_config(config);
        let label = format!("{} @ Gamma-SNN[{}KB]", workload.name, bytes / 1024);
        campaign.push(JobSpec {
            label,
            network: None,
            layer_index: 0,
            workload: workload.clone(),
            accelerator,
        });
    }
    campaign
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_baselines::GammaConfig;
    use loas_engine::DEFAULT_SEED;

    #[test]
    fn headline_round_trips_with_identical_memo_keys() {
        let original = headline_campaign(true, DEFAULT_SEED);
        let text = campaign_to_json(&original);
        assert!(text.contains("\"version\": 2"));
        let parsed = campaign_from_json(&text).unwrap();
        assert_eq!(parsed.name, original.name);
        assert_eq!(parsed.len(), original.len());
        for (a, b) in original.jobs().iter().zip(parsed.jobs()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.network, b.network);
            assert_eq!(a.layer_index, b.layer_index);
            assert_eq!(a.workload.key(), b.workload.key());
            assert_eq!(a.accelerator, b.accelerator);
            assert_eq!(a.memo_key(), b.memo_key());
        }
        // Serialization is a fixed point after one round trip.
        assert_eq!(campaign_to_json(&parsed), text);
    }

    #[test]
    fn v1_loas_config_overrides_apply_over_table3() {
        let text = r#"{"name": "t", "jobs": [{
            "workload": {"name": "w", "shape": {"t": 4, "m": 4, "n": 8, "k": 64},
                         "profile": {"spike_origin": 0.823, "silent": 0.741,
                                     "silent_ft": 0.796, "weight": 0.982},
                         "seed": 7},
            "accelerator": {"loas": {"timesteps": 8, "discard_low_activity_outputs": true}}}]}"#;
        let campaign = campaign_from_json(text).unwrap();
        let config: &LoasConfig = campaign.jobs()[0]
            .accelerator
            .typed_config()
            .expect("a LoAS accelerator");
        assert_eq!(config.timesteps, 8);
        assert!(config.discard_low_activity_outputs);
        assert_eq!(config.tppes, LoasConfig::table3().tppes);
        // Auto-generated label (the model reports its FT mode) and
        // defaulted fields.
        assert_eq!(
            campaign.jobs()[0].label,
            format!("w @ {}", campaign.jobs()[0].accelerator.display_name())
        );
        assert!(!campaign.jobs()[0].workload.fine_tuned);
    }

    #[test]
    fn v2_catalog_configs_parse_for_every_model() {
        let job = |accelerator: &str| {
            format!(
                r#"{{"version": 2, "name": "t", "jobs": [{{
                    "workload": {{"name": "w", "shape": {{"t": 4, "m": 4, "n": 8, "k": 64}},
                                 "profile": {{"spike_origin": 0.823, "silent": 0.741,
                                             "silent_ft": 0.796, "weight": 0.982}},
                                 "seed": 7}},
                    "accelerator": {accelerator}}}]}}"#
            )
        };
        // Bare names resolve to catalog defaults.
        for name in AcceleratorSpec::known_models() {
            let campaign = campaign_from_json(&job(&format!("\"{name}\""))).unwrap();
            assert_eq!(campaign.jobs()[0].accelerator.model(), name);
            assert_eq!(
                campaign.jobs()[0].accelerator,
                AcceleratorSpec::by_name(name).unwrap()
            );
        }
        // Typed overrides apply through the registered config.
        let campaign = campaign_from_json(&job(
            r#"{"name": "gamma", "config": {"cache_bytes": 131072, "merge_radix": 32}}"#,
        ))
        .unwrap();
        let config: &GammaConfig = campaign.jobs()[0].accelerator.typed_config().unwrap();
        assert_eq!(config.cache_bytes, 128 * 1024);
        assert_eq!(config.merge_radix, 32);
        assert_eq!(config.pes, GammaConfig::default().pes);
        // The override changes the memo key; defaults do not.
        let default_key = campaign_from_json(&job("\"gamma\"")).unwrap().jobs()[0].memo_key();
        assert_ne!(campaign.jobs()[0].memo_key(), default_key);
    }

    #[test]
    fn schema_problems_are_described() {
        let wrap = |accelerator: &str, version: &str| {
            format!(
                r#"{{{version}"name": "x", "jobs": [{{
                    "workload": {{"name": "w", "shape": {{"t": 4, "m": 4, "n": 8, "k": 64}},
                                 "profile": {{"spike_origin": 0.8, "silent": 0.7,
                                             "silent_ft": 0.8, "weight": 0.9}},
                                 "seed": 7}},
                    "accelerator": {accelerator}}}]}}"#
            )
        };
        for (bad, needle) in [
            ("{\"jobs\": []}".to_owned(), "missing `name`"),
            (
                "{\"name\": \"x\", \"jobs\": [{}]}".to_owned(),
                "missing `workload`",
            ),
            (
                "{\"version\": 3, \"name\": \"x\", \"jobs\": []}".to_owned(),
                "unsupported spec `version` 3",
            ),
            (wrap("\"warp-drive\"", ""), "unknown accelerator"),
            (
                wrap("\"warp-drive\"", "\"version\": 2, "),
                "registered models",
            ),
            (
                wrap(
                    r#"{"name": "gamma", "config": {"warp_factor": 9}}"#,
                    "\"version\": 2, ",
                ),
                "no config field `warp_factor`",
            ),
            (
                wrap(
                    r#"{"name": "gamma", "config": {"cache_bytes": true}}"#,
                    "\"version\": 2, ",
                ),
                "must be a non-negative integer",
            ),
            (
                wrap(r#"{"name": "sparten", "config": []}"#, "\"version\": 2, "),
                "must be an object",
            ),
            (
                // Kind-valid but degenerate: a radix-1 merger would hang
                // the simulator, so the schema boundary rejects it.
                wrap(
                    r#"{"name": "gamma", "config": {"merge_radix": 1}}"#,
                    "\"version\": 2, ",
                ),
                "invalid `gamma` config",
            ),
            (
                wrap(r#"{"loas": {"timesteps": 99}}"#, ""),
                "invalid loas config",
            ),
        ] {
            let error = campaign_from_json(&bad).unwrap_err().to_string();
            assert!(error.contains(needle), "`{error}` lacks `{needle}`");
        }
        // A fraction out of range fails in both versions.
        let bad_profile = r#"{"name": "x", "jobs": [{
            "workload": {"name": "w", "shape": {"t": 4, "m": 4, "n": 8, "k": 64},
                         "profile": {"spike_origin": 82.3, "silent": 0.7,
                                     "silent_ft": 0.8, "weight": 0.9},
                         "seed": 7},
            "accelerator": "loas"}]}"#;
        let error = campaign_from_json(bad_profile).unwrap_err().to_string();
        assert!(error.contains("fraction in [0, 1]"), "{error}");
    }

    #[test]
    fn gamma_cache_campaign_sweeps_the_fibercache() {
        let campaign = gamma_cache_campaign(true, DEFAULT_SEED);
        assert_eq!(campaign.len(), GAMMA_CACHE_POINTS.len());
        for (job, bytes) in campaign.jobs().iter().zip(GAMMA_CACHE_POINTS) {
            assert_eq!(job.accelerator.model(), "gamma");
            let config: &GammaConfig = job.accelerator.typed_config().unwrap();
            assert_eq!(config.cache_bytes, bytes);
        }
        // The sweep survives a serialization round trip with stable keys.
        let parsed = campaign_from_json(&campaign_to_json(&campaign)).unwrap();
        for (a, b) in campaign.jobs().iter().zip(parsed.jobs()) {
            assert_eq!(a.memo_key(), b.memo_key());
        }
        // Distinct cache sizes are distinct memoization keys.
        let keys: std::collections::HashSet<_> =
            parsed.jobs().iter().map(|job| job.memo_key()).collect();
        assert_eq!(keys.len(), campaign.len());
    }
}

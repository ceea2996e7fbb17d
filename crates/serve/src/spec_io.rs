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
//! * **v1** (no `version` field — the original format): accelerators
//!   are closed-world tags (`"sparten"`, `"gospa"`, `"gamma"`, `"loas"`,
//!   `"loas-ft"`, `"ptb"`, `"stellar"`) or a `{"loas": {..overrides..}}`
//!   object. Still parsed forever: a committed golden v1 spec is asserted
//!   in CI to produce byte-identical memo keys and reports.
//! * **v2** (`"version": 2` — what [`campaign_to_json`] emits): an
//!   accelerator is one of the six models by stable name
//!   ([`AcceleratorSpec::known_models`]), with an optional typed
//!   config-override object —
//!   `{"name": "gamma", "config": {"cache_bytes": 131072}}` — validated
//!   field by field against the model's [`ModelConfig`]. A bare string
//!   (`"gamma"`, plus the `"loas-ft"` convenience alias) means the default
//!   configuration.
//!
//! [`ModelConfig`]: loas_core::ModelConfig

use crate::error::ServeError;
use crate::json::Json;
use loas_core::{CatalogError, ConfigValue};
use loas_engine::{json_escape, AcceleratorSpec, Campaign, JobSpec, WorkloadSpec};
use loas_workloads::networks;
use loas_workloads::{LayerShape, SparsityProfile};
use std::fmt::{Arguments, Write as _};

/// The schema version [`campaign_to_json`] writes.
pub const SPEC_VERSION: u64 = 2;

/// Serializes a campaign into the queue's versioned JSON spec format
/// (pretty, one job per line block).
pub fn campaign_to_json(campaign: &Campaign) -> String {
    let mut out = String::with_capacity(256 * campaign.len().max(1));
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"version\": {SPEC_VERSION},");
    let _ = writeln!(out, "  \"name\": \"{}\",", json_escape(&campaign.name));
    let _ = writeln!(out, "  \"jobs\": [");
    for (index, job) in campaign.jobs().iter().enumerate() {
        out.push_str("    ");
        job_to_json(&mut out, job);
        let _ = writeln!(out, "{}", if index + 1 < campaign.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

fn job_to_json(out: &mut String, job: &JobSpec) {
    let workload = &job.workload;
    let profile = &workload.profile;
    let _ = write!(out, "{{\"label\": \"{}\", ", json_escape(&job.label));
    match &job.network {
        Some(network) => {
            let _ = write!(
                out,
                "\"network\": \"{}\", \"layer_index\": {}, ",
                json_escape(network),
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
        json_escape(&workload.name),
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
    // The accelerator in its v2 form: stable model name and the
    // full typed configuration (self-describing, so specs survive future
    // default changes bit-exactly).
    let accelerator = &job.accelerator;
    let _ = write!(
        out,
        "\"accelerator\": {{\"name\": \"{}\", \"config\": {{",
        json_escape(accelerator.model())
    );
    for (index, (field, value)) in accelerator.config().fields().into_iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{field}\": {value}",
            if index > 0 { ", " } else { "" }
        );
    }
    out.push_str("}}}");
}

fn spec_err(message: impl Into<String>) -> ServeError {
    ServeError::Spec(message.into())
}

/// `value`'s field `key`; `at` names where `value` sits in the spec
/// (`campaign`, `job 3`) and is formatted only into an error.
fn required<'a>(value: &'a Json<'a>, key: &str, at: Arguments) -> Result<&'a Json<'a>, ServeError> {
    value
        .get(key)
        .ok_or_else(|| spec_err(format!("missing `{key}` in {at}")))
}

fn required_usize(value: &Json, key: &str, at: Arguments) -> Result<usize, ServeError> {
    required(value, key, at)?
        .as_usize()
        .ok_or_else(|| spec_err(format!("`{key}` in {at} must be a non-negative integer")))
}

fn required_f64(value: &Json, key: &str, at: Arguments) -> Result<f64, ServeError> {
    required(value, key, at)?
        .as_f64()
        .ok_or_else(|| spec_err(format!("`{key}` in {at} must be a number")))
}

/// The schema versions [`campaign_from_json`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecVersion {
    /// The original closed-tag format (no `version` field).
    V1,
    /// The configurable-model format (`"version": 2`).
    V2,
}

/// Parses a campaign spec JSON document back into an engine [`Campaign`],
/// accepting both schema versions (see the module docs). It refuses a
/// campaign with no jobs and any job that cannot run ([`JobSpec::check`]:
/// the workload's fractions and `t`, and the model's rule for the shape).
/// Enqueue, batch enqueue and the runner all read specs through it.
///
/// # Errors
///
/// Returns [`ServeError::Spec`] describing the first syntax, schema or
/// runnability problem, including unsupported `version` values.
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
    let name = required(&doc, "name", format_args!("campaign"))?
        .as_str()
        .ok_or_else(|| spec_err("`name` must be a string"))?;
    let jobs = required(&doc, "jobs", format_args!("campaign"))?
        .as_arr()
        .ok_or_else(|| spec_err("`jobs` must be an array"))?;
    let mut campaign = Campaign::new(name);
    for (index, job) in jobs.iter().enumerate() {
        let job = job_from_json(job, index, version)?;
        job.check()
            .map_err(|message| spec_err(format!("job {index}: {message}")))?;
        campaign.push(job);
    }
    if campaign.is_empty() {
        return Err(spec_err("campaign has no jobs"));
    }
    Ok(campaign)
}

fn job_from_json(job: &Json, index: usize, version: SpecVersion) -> Result<JobSpec, ServeError> {
    let at = format_args!("job {index}");
    let workload = workload_from_json(required(job, "workload", at)?, at)?;
    let accelerator = required(job, "accelerator", at)?;
    let accelerator = match version {
        SpecVersion::V1 => accelerator_from_json_v1(accelerator, at)?,
        SpecVersion::V2 => accelerator_from_json_v2(accelerator, at)?,
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
                .ok_or_else(|| spec_err(format!("`network` in {at} must be a string")))?
                .to_owned(),
        ),
    };
    let layer_index = match job.get("layer_index") {
        None => 0,
        Some(value) => value
            .as_usize()
            .ok_or_else(|| spec_err(format!("`layer_index` in {at} must be an integer")))?,
    };
    Ok(JobSpec {
        label,
        network,
        layer_index,
        workload,
        accelerator,
    })
}

fn workload_from_json(workload: &Json, at: Arguments) -> Result<WorkloadSpec, ServeError> {
    let name = required(workload, "name", at)?
        .as_str()
        .ok_or_else(|| spec_err(format!("workload `name` in {at} must be a string")))?;
    let shape = required(workload, "shape", at)?;
    let shape = LayerShape::new(
        required_usize(shape, "t", at)?,
        required_usize(shape, "m", at)?,
        required_usize(shape, "n", at)?,
        required_usize(shape, "k", at)?,
    );
    let profile = required(workload, "profile", at)?;
    // Fractions (not percentages), copied bit-exactly: the memo key hashes
    // these bits, so a spec round trip must not perturb them. Their range
    // is checked with the rest of the job.
    let profile = SparsityProfile {
        spike_origin: required_f64(profile, "spike_origin", at)?,
        silent: required_f64(profile, "silent", at)?,
        silent_ft: required_f64(profile, "silent_ft", at)?,
        weight: required_f64(profile, "weight", at)?,
    };
    let seed = required(workload, "seed", at)?
        .as_u64()
        .ok_or_else(|| spec_err(format!("`seed` in {at} must be an integer")))?;
    let fine_tuned = match workload.get("fine_tuned") {
        None => false,
        Some(value) => value
            .as_bool()
            .ok_or_else(|| spec_err(format!("`fine_tuned` in {at} must be a boolean")))?,
    };
    let mut spec = WorkloadSpec::new(name, shape, profile).with_seed(seed);
    if fine_tuned {
        spec = spec.fine_tuned();
    }
    Ok(spec)
}

/// Resolves a bare accelerator name (a model name, or the `"loas-ft"`
/// convenience alias shared by both schema versions).
fn named_accelerator(tag: &str, at: Arguments) -> Result<AcceleratorSpec, ServeError> {
    if tag == "loas-ft" {
        return Ok(AcceleratorSpec::loas_ft());
    }
    AcceleratorSpec::by_name(tag).map_err(|_| {
        spec_err(format!(
            "unknown accelerator `{tag}` in {at} (registered models: {}, or loas-ft)",
            AcceleratorSpec::known_models().join("|")
        ))
    })
}

/// The v1 accelerator form: a closed tag set or a
/// `{"loas": {..overrides..}}` object over the Table III defaults.
fn accelerator_from_json_v1(spec: &Json, at: Arguments) -> Result<AcceleratorSpec, ServeError> {
    if let Some(tag) = spec.as_str() {
        return match tag {
            "sparten" | "gospa" | "gamma" | "ptb" | "stellar" | "loas" | "loas-ft" => {
                named_accelerator(tag, at)
            }
            other => Err(spec_err(format!(
                "unknown accelerator `{other}` in {at} (want sparten|gospa|gamma|loas|loas-ft|ptb|stellar or {{\"loas\": {{...}}}})"
            ))),
        };
    }
    let overrides = spec.get("loas").ok_or_else(|| {
        spec_err(format!(
            "accelerator in {at} must be a tag string or a {{\"loas\": {{...}}}} object"
        ))
    })?;
    configured(AcceleratorSpec::loas(), overrides, SpecVersion::V1, at)
}

/// The v2 accelerator form: a bare model name, or
/// `{"name": <model>, "config": {..field overrides..}}` validated against
/// the model's typed configuration.
fn accelerator_from_json_v2(spec: &Json, at: Arguments) -> Result<AcceleratorSpec, ServeError> {
    if let Some(tag) = spec.as_str() {
        return named_accelerator(tag, at);
    }
    if spec.as_obj().is_none() {
        return Err(spec_err(format!(
            "accelerator in {at} must be a model-name string or a {{\"name\": ..., \"config\": {{...}}}} object"
        )));
    }
    let name = required(spec, "name", at)?
        .as_str()
        .ok_or_else(|| spec_err(format!("accelerator `name` in {at} must be a string")))?;
    let accelerator = named_accelerator(name, at)?;
    match spec.get("config") {
        None => Ok(accelerator),
        Some(config) => configured(accelerator, config, SpecVersion::V2, at),
    }
}

/// Applies the config-override object `overrides` to `accelerator` and
/// validates the result. v2 refuses a key that is not a field of the
/// model's config; v1 ignores it, as it always has.
fn configured(
    mut accelerator: AcceleratorSpec,
    overrides: &Json,
    version: SpecVersion,
    at: Arguments,
) -> Result<AcceleratorSpec, ServeError> {
    let name = accelerator.model();
    let overrides = overrides
        .as_obj()
        .ok_or_else(|| spec_err(format!("accelerator `config` in {at} must be an object")))?;
    let declared = accelerator.config().fields();
    for (field, token) in overrides {
        let Some((_, kind)) = declared.iter().find(|(name, _)| name == field) else {
            if version == SpecVersion::V1 {
                continue;
            }
            return Err(spec_err(format!(
                "model `{name}` has no config field `{field}` (in {at}; fields: {})",
                declared
                    .iter()
                    .map(|(name, _)| *name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        };
        let refused = |expected| {
            spec_err(format!(
                "config field `{name}.{field}` in {at} must be {expected}"
            ))
        };
        // The value the token spells; the field's coercion (`ConfigField`)
        // decides whether it takes it, so a float field reads `128` and
        // `128.0` alike and refuses `1e400`, which overflows to infinity.
        let value = token
            .as_bool()
            .map(ConfigValue::Bool)
            .or_else(|| token.as_u64().map(ConfigValue::UInt))
            .or_else(|| token.as_f64().map(ConfigValue::Float))
            .ok_or_else(|| refused(kind.expected()))?;
        accelerator
            .config_mut()
            .set(field, value)
            .map_err(|error| match error {
                CatalogError::FieldType { expected, .. } => refused(expected),
                other => spec_err(format!("{other} (in {at})")),
            })?;
    }
    // Individually-plausible fields can combine into a configuration the
    // simulator would hang or panic on (a radix-1 merger, a zero-way
    // cache): reject those at the schema boundary, before enqueueing.
    accelerator.config().validate().map_err(|message| {
        spec_err(match version {
            SpecVersion::V1 => format!("invalid {name} config in {at}: {message}"),
            SpecVersion::V2 => format!("invalid `{name}` config in {at}: {message}"),
        })
    })?;
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
/// example of sweeping a non-LoAS model config through the queue.
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
    use loas_core::LoasConfig;
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
            "workload": {"name": "w", "shape": {"t": 8, "m": 4, "n": 8, "k": 64},
                         "profile": {"spike_origin": 0.823, "silent": 0.741,
                                     "silent_ft": 0.796, "weight": 0.982},
                         "seed": 7},
            "accelerator": {"loas": {"timesteps": 8, "discard_low_activity_outputs": true}}}]}"#;
        let campaign = campaign_from_json(text).unwrap();
        let AcceleratorSpec::Loas(config) = &campaign.jobs()[0].accelerator else {
            panic!("a LoAS accelerator");
        };
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
    fn v1_overrides_share_the_catalog_path_and_ignore_unknown_keys() {
        let spec = |overrides: &str| {
            format!(
                r#"{{"name": "t", "jobs": [{{
                    "workload": {{"name": "w", "shape": {{"t": 4, "m": 4, "n": 8, "k": 64}},
                                 "profile": {{"spike_origin": 0.823, "silent": 0.741,
                                             "silent_ft": 0.796, "weight": 0.982}},
                                 "seed": 7}},
                    "accelerator": {{"loas": {overrides}}}}}]}}"#
            )
        };
        let campaign = campaign_from_json(&spec(r#"{"hbm_gbps": 64, "note": "x"}"#)).unwrap();
        let AcceleratorSpec::Loas(config) = &campaign.jobs()[0].accelerator else {
            panic!("a LoAS accelerator");
        };
        assert_eq!(config.hbm_gbps, 64.0);
        // Integer and float spellings of a float field are the same bits,
        // and so the same memo key, in both schema versions.
        let key = |doc: String| campaign_from_json(&doc).unwrap().jobs()[0].memo_key();
        let v2 = |overrides: &str| {
            spec(overrides)
                .replacen(r#"{"name""#, r#"{"version": 2, "name""#, 1)
                .replacen(r#"{"loas": "#, r#"{"name": "loas", "config": "#, 1)
        };
        let [integer, float] = [r#"{"hbm_gbps": 128}"#, r#"{"hbm_gbps": 128.0}"#];
        assert_eq!(key(spec(integer)), key(spec(float)));
        assert_eq!(key(v2(integer)), key(v2(float)));
        assert_eq!(key(v2(integer)), key(spec(float)));
        for (overrides, needle) in [
            (
                r#"{"tppes": true}"#,
                "`loas.tppes` in job 0 must be a non-negative integer",
            ),
            (
                r#"{"timesteps": 8}"#,
                "job 0: LoAS runs 8 timesteps, its workload t = 4",
            ),
            ("[]", "must be an object"),
        ] {
            let error = campaign_from_json(&spec(overrides))
                .unwrap_err()
                .to_string();
            assert!(error.contains(needle), "`{error}` lacks `{needle}`");
        }
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
        // Bare names resolve to paper defaults.
        for name in AcceleratorSpec::known_models() {
            let campaign = campaign_from_json(&job(&format!("\"{name}\""))).unwrap();
            assert_eq!(campaign.jobs()[0].accelerator.model(), name);
            assert_eq!(
                campaign.jobs()[0].accelerator,
                AcceleratorSpec::by_name(name).unwrap()
            );
        }
        // Typed overrides apply through the model's config.
        let campaign = campaign_from_json(&job(
            r#"{"name": "gamma", "config": {"cache_bytes": 131072, "merge_radix": 32}}"#,
        ))
        .unwrap();
        let AcceleratorSpec::Gamma(config) = &campaign.jobs()[0].accelerator else {
            panic!("a Gamma accelerator");
        };
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
                // `1e400` overflows to infinity, which no float field
                // takes (LoAS's bandwidth check bounds it only below).
                wrap(
                    r#"{"name": "loas", "config": {"hbm_gbps": 1e400}}"#,
                    "\"version\": 2, ",
                ),
                "config field `loas.hbm_gbps` in job 0 must be a finite number",
            ),
            (
                wrap(r#"{"loas": {"hbm_gbps": 1e400}}"#, ""),
                "must be a finite number",
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
            let AcceleratorSpec::Gamma(config) = &job.accelerator else {
                panic!("a Gamma accelerator");
            };
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

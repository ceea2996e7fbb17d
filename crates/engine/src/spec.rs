//! Campaign specifications: workloads, accelerators, and jobs.
//!
//! A [`Campaign`] is a flat list of [`JobSpec`]s, each pairing one
//! [`WorkloadSpec`] (a content-keyed description of a generated layer) with
//! one [`AcceleratorSpec`] (a buildable accelerator model). Jobs carry an
//! explicit seed through their workload spec, so a campaign is a complete,
//! reproducible description of an experiment sweep.

use loas_core::{catalog, Accelerator, CatalogError, LoasConfig, ModelConfig, PreparedLayer};
use loas_workloads::networks::{LayerSpec, NetworkSpec};
use loas_workloads::{LayerShape, SparsityProfile, WorkloadError, WorkloadGenerator};
use std::ops::Range;

/// Makes sure every workspace model is registered in the process-global
/// accelerator catalog before a lookup. `loas-core` seeds the catalog with
/// LoAS; the baselines register through their crate's idempotent hook.
fn ensure_catalog() {
    loas_baselines::register_catalog();
}

pub use loas_workloads::DEFAULT_SEED;

/// A content key identifying one generated-and-prepared workload. Two
/// workload specs with equal keys produce byte-identical
/// [`PreparedLayer`]s, so the engine generates each key exactly once per
/// cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadKey {
    name: String,
    shape: LayerShape,
    /// Profile fractions as IEEE-754 bit patterns (exact equality is the
    /// right notion here: specs are either copied from the same source or
    /// genuinely different).
    profile_bits: [u64; 4],
    seed: u64,
    fine_tuned: bool,
}

impl WorkloadKey {
    /// Absorbs the key's identifying content into a stable hash (the
    /// workload half of a [`MemoKey`]).
    ///
    /// [`MemoKey`]: crate::MemoKey
    pub fn write_content(&self, hasher: &mut loas_core::ContentHasher) {
        hasher.write_str(&self.name);
        hasher.write_usize(self.shape.t);
        hasher.write_usize(self.shape.m);
        hasher.write_usize(self.shape.n);
        hasher.write_usize(self.shape.k);
        for &bits in &self.profile_bits {
            hasher.write_u64(bits);
        }
        hasher.write_u64(self.seed);
        hasher.write_bool(self.fine_tuned);
    }
}

impl std::fmt::Display for WorkloadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@{}{}#{:x}",
            self.name,
            self.shape,
            if self.fine_tuned { "+FT" } else { "" },
            self.seed
        )
    }
}

/// A content-keyed description of one layer workload to generate and
/// prepare.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Generator stream name (also the workload display name).
    pub name: String,
    /// The `(T, M, N, K)` shape.
    pub shape: LayerShape,
    /// The sparsity statistics to realise.
    pub profile: SparsityProfile,
    /// Master seed of the generator stream.
    pub seed: u64,
    /// Whether to apply the fine-tuned silent-neuron preprocessing after
    /// generation (Section V).
    pub fine_tuned: bool,
}

impl WorkloadSpec {
    /// A workload spec with the workspace default seed.
    pub fn new(name: impl Into<String>, shape: LayerShape, profile: SparsityProfile) -> Self {
        WorkloadSpec {
            name: name.into(),
            shape,
            profile,
            seed: DEFAULT_SEED,
            fine_tuned: false,
        }
    }

    /// Builds a spec from a network layer spec.
    pub fn from_layer(layer: &LayerSpec) -> Self {
        WorkloadSpec::new(layer.name.clone(), layer.shape, layer.profile)
    }

    /// Returns the spec with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the fine-tuned (silent-neuron-masked) variant.
    pub fn fine_tuned(mut self) -> Self {
        self.fine_tuned = true;
        self
    }

    /// The content key of this spec.
    pub fn key(&self) -> WorkloadKey {
        WorkloadKey {
            name: self.name.clone(),
            shape: self.shape,
            profile_bits: [
                self.profile.spike_origin.to_bits(),
                self.profile.silent.to_bits(),
                self.profile.silent_ft.to_bits(),
                self.profile.weight.to_bits(),
            ],
            seed: self.seed,
            fine_tuned: self.fine_tuned,
        }
    }

    /// The workload name the prepared layer — and therefore every
    /// [`LayerReport`] simulated from it — carries: the fine-tuned
    /// preprocessor suffixes its maskings with `+FT`.
    ///
    /// [`LayerReport`]: loas_core::LayerReport
    pub fn reported_name(&self) -> String {
        if self.fine_tuned {
            format!("{}+FT", self.name)
        } else {
            self.name.clone()
        }
    }

    /// The non-fine-tuned spec this one derives from (`self` when already
    /// plain). Fine-tuned preparations are cheap maskings of their base
    /// workload, so the executor generates the base once and derives.
    pub fn base(&self) -> WorkloadSpec {
        let mut base = self.clone();
        base.fine_tuned = false;
        base
    }

    /// Generates and prepares the workload (the expensive operation the
    /// engine's cache exists to amortize).
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadError`] when the profile is infeasible at the
    /// shape's timestep count.
    pub fn prepare(&self) -> Result<PreparedLayer, WorkloadError> {
        let generator = WorkloadGenerator::new(self.seed);
        let workload = generator.generate(&self.name, self.shape, &self.profile)?;
        let workload = if self.fine_tuned {
            workload.with_preprocessing()
        } else {
            workload
        };
        Ok(PreparedLayer::new(workload))
    }
}

/// A buildable accelerator model: a stable catalog name paired with a
/// typed configuration, resolved through the process-global
/// [`loas_core::catalog`]. Each job owns a spec and builds a fresh model,
/// so heterogeneous fleets sit in one queue and results never depend on
/// worker count or execution order. Because dispatch is a registry lookup,
/// adding a model never touches this crate: register a
/// [`loas_core::ModelEntry`] and the name becomes buildable, memoizable,
/// and expressible in serve specs.
#[derive(Debug, Clone)]
pub struct AcceleratorSpec {
    model: String,
    config: Box<dyn ModelConfig>,
}

impl PartialEq for AcceleratorSpec {
    /// Specs are equal when they name the same model with the same
    /// configuration field values (floats by bit pattern).
    fn eq(&self, other: &Self) -> bool {
        self.model == other.model && *self.config == *other.config
    }
}

impl AcceleratorSpec {
    /// A spec for the named catalog model at its default configuration.
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownModel`] when no model registered the name.
    pub fn by_name(name: &str) -> Result<Self, CatalogError> {
        ensure_catalog();
        catalog::with(|catalog| {
            let entry = catalog
                .get(name)
                .ok_or_else(|| CatalogError::UnknownModel(name.to_owned()))?;
            Ok(AcceleratorSpec {
                model: entry.name().to_owned(),
                config: entry.default_config(),
            })
        })
    }

    /// A spec from an explicit typed configuration (the model name comes
    /// from [`ModelConfig::model`]).
    ///
    /// # Panics
    ///
    /// Panics when no [`loas_core::ModelEntry`] is registered under the
    /// config's model name — a config type without a catalog entry can
    /// never be built, so the mistake surfaces here, at the construction
    /// site, instead of inside a worker thread mid-campaign.
    pub fn from_config(config: impl ModelConfig) -> Self {
        ensure_catalog();
        let model = config.model();
        assert!(
            catalog::with(|catalog| catalog.get(model).is_some()),
            "model `{model}` has a ModelConfig but no registered catalog entry;              call loas_core::catalog::register before building specs"
        );
        AcceleratorSpec {
            model: model.to_owned(),
            config: Box::new(config),
        }
    }

    /// Every model name currently registered in the catalog, in
    /// registration order.
    pub fn known_models() -> Vec<&'static str> {
        ensure_catalog();
        catalog::with(|catalog| catalog.names())
    }

    /// SparTen-SNN at the paper configuration.
    pub fn sparten() -> Self {
        Self::by_name("sparten").expect("builtin model")
    }

    /// GoSPA-SNN at the paper configuration.
    pub fn gospa() -> Self {
        Self::by_name("gospa").expect("builtin model")
    }

    /// Gamma-SNN at the paper configuration.
    pub fn gamma() -> Self {
        Self::by_name("gamma").expect("builtin model")
    }

    /// PTB at the paper configuration.
    pub fn ptb() -> Self {
        Self::by_name("ptb").expect("builtin model")
    }

    /// Stellar at the paper configuration.
    pub fn stellar() -> Self {
        Self::by_name("stellar").expect("builtin model")
    }

    /// LoAS at the paper's Table III configuration.
    pub fn loas() -> Self {
        Self::from_config(LoasConfig::table3())
    }

    /// LoAS with an explicit configuration (covers the FT discard mode and
    /// every ablation/sweep override).
    pub fn loas_with(config: LoasConfig) -> Self {
        Self::from_config(config)
    }

    /// LoAS in fine-tuned mode (low-activity outputs discarded); pair with
    /// [`WorkloadSpec::fine_tuned`] workloads.
    pub fn loas_ft() -> Self {
        Self::from_config(
            LoasConfig::builder()
                .discard_low_activity_outputs(true)
                .build(),
        )
    }

    /// The paper's headline comparison fleet: the three spMspM baselines,
    /// LoAS, LoAS(FT), and the two dense temporal-parallel designs.
    pub fn headline_fleet() -> Vec<AcceleratorSpec> {
        vec![
            AcceleratorSpec::sparten(),
            AcceleratorSpec::gospa(),
            AcceleratorSpec::gamma(),
            AcceleratorSpec::loas(),
            AcceleratorSpec::loas_ft(),
            AcceleratorSpec::ptb(),
            AcceleratorSpec::stellar(),
        ]
    }

    /// The stable catalog name this spec dispatches to (also the spec-JSON
    /// `accelerator.name`).
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The typed configuration.
    pub fn config(&self) -> &dyn ModelConfig {
        self.config.as_ref()
    }

    /// Mutable access to the typed configuration (spec parsing applies
    /// field overrides through this).
    pub fn config_mut(&mut self) -> &mut dyn ModelConfig {
        self.config.as_mut()
    }

    /// The configuration downcast to its concrete type.
    pub fn typed_config<C: ModelConfig>(&self) -> Option<&C> {
        self.config.as_any().downcast_ref()
    }

    /// Runs `f` with this spec's catalog entry.
    ///
    /// # Panics
    ///
    /// Panics when the model was never registered — impossible for specs
    /// built through this type's constructors, which resolve the name at
    /// construction time.
    fn with_entry<R>(&self, f: impl FnOnce(&loas_core::ModelEntry) -> R) -> R {
        ensure_catalog();
        catalog::with(|catalog| {
            let entry = catalog
                .get(&self.model)
                .unwrap_or_else(|| panic!("model `{}` not in the catalog", self.model));
            f(entry)
        })
    }

    /// Whether this spec should consume the fine-tuned (masked) variant of
    /// its workload.
    pub fn wants_fine_tuned_workload(&self) -> bool {
        self.with_entry(|entry| entry.config_wants_fine_tuned(self.config.as_ref()))
    }

    /// Builds a fresh boxed model. Models are cheap to construct; all
    /// expensive state lives in the prepared workload.
    pub fn build(&self) -> Box<dyn Accelerator + Send> {
        self.with_entry(|entry| entry.build(self.config.as_ref()))
    }

    /// The model-reported display name (used in job labels and reports;
    /// distinct from the stable catalog [`model`](Self::model) name).
    pub fn display_name(&self) -> String {
        self.build().name()
    }

    /// Absorbs the accelerator's identifying content into a stable hash
    /// via its catalog entry: the model's legacy discriminant plus its
    /// configuration contribution (see [`loas_core::ModelEntry::write_content`]
    /// for the default-preserving layout).
    pub fn write_content(&self, hasher: &mut loas_core::ContentHasher) {
        self.with_entry(|entry| entry.write_content(self.config.as_ref(), hasher));
    }
}

/// One unit of campaign work: simulate one workload on one accelerator.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable job label (defaults to `workload @ accelerator`).
    pub label: String,
    /// Network this job's layer belongs to, for [`NetworkReport`]
    /// aggregation (`None` for standalone layers).
    ///
    /// [`NetworkReport`]: loas_core::NetworkReport
    pub network: Option<String>,
    /// Position of the layer inside its network (0 for standalone layers).
    pub layer_index: usize,
    /// The workload to simulate.
    pub workload: WorkloadSpec,
    /// The accelerator to simulate it on.
    pub accelerator: AcceleratorSpec,
}

impl JobSpec {
    /// A standalone-layer job with an auto-generated label.
    pub fn new(workload: WorkloadSpec, accelerator: AcceleratorSpec) -> Self {
        let label = format!("{} @ {}", workload.name, accelerator.display_name());
        JobSpec {
            label,
            network: None,
            layer_index: 0,
            workload,
            accelerator,
        }
    }

    /// The job's result-memoization key: a stable content hash of the
    /// `(workload, accelerator)` pair. Presentation fields (`label`,
    /// `network`, `layer_index`) are deliberately excluded — they do not
    /// influence the simulated [`LayerReport`], so jobs that differ only
    /// in labeling share one memoized result.
    ///
    /// [`LayerReport`]: loas_core::LayerReport
    pub fn memo_key(&self) -> crate::MemoKey {
        let mut hasher = loas_core::ContentHasher::new();
        hasher.write_str(crate::memo::MEMO_KEY_FORMAT);
        self.workload.key().write_content(&mut hasher);
        self.accelerator.write_content(&mut hasher);
        crate::MemoKey::new(hasher.finish())
    }
}

/// A campaign: a named batch of jobs executed together by the engine, with
/// workload preparation shared across all of them.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    /// Campaign name (reported in summaries).
    pub name: String,
    jobs: Vec<JobSpec>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            jobs: Vec::new(),
        }
    }

    /// Appends one job, returning its id (index into the result records).
    pub fn push(&mut self, job: JobSpec) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Appends a standalone-layer job, returning its id.
    pub fn push_layer(&mut self, workload: WorkloadSpec, accelerator: AcceleratorSpec) -> usize {
        self.push(JobSpec::new(workload, accelerator))
    }

    /// Appends one job per layer of `network` on `accelerator`, with the
    /// fine-tuned workload variant applied when the accelerator asks for
    /// it. Returns the contiguous id range of the new jobs.
    pub fn push_network(
        &mut self,
        network: &NetworkSpec,
        accelerator: AcceleratorSpec,
        seed: u64,
    ) -> Range<usize> {
        let start = self.jobs.len();
        for (index, layer) in network.layers.iter().enumerate() {
            let mut workload = WorkloadSpec::from_layer(layer).with_seed(seed);
            if accelerator.wants_fine_tuned_workload() {
                workload = workload.fine_tuned();
            }
            let label = format!(
                "{}/{} @ {}",
                network.name,
                layer.name,
                accelerator.display_name()
            );
            self.push(JobSpec {
                label,
                network: Some(network.name.clone()),
                layer_index: index,
                workload,
                accelerator: accelerator.clone(),
            });
        }
        start..self.jobs.len()
    }

    /// Appends the full cartesian product `workloads x fleet`, applying
    /// fine-tuned workload variants where the accelerator asks for them.
    /// Returns the contiguous id range of the new jobs.
    pub fn push_product(
        &mut self,
        workloads: &[WorkloadSpec],
        fleet: &[AcceleratorSpec],
    ) -> Range<usize> {
        let start = self.jobs.len();
        for workload in workloads {
            for accelerator in fleet {
                let mut workload = workload.clone();
                if accelerator.wants_fine_tuned_workload() {
                    workload = workload.fine_tuned();
                }
                self.push_layer(workload, accelerator.clone());
            }
        }
        start..self.jobs.len()
    }

    /// The jobs in submission order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the campaign has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The distinct workload specs of this campaign, in first-use order.
    pub fn unique_workloads(&self) -> Vec<WorkloadSpec> {
        let mut seen = std::collections::HashSet::new();
        let mut unique = Vec::new();
        for job in &self.jobs {
            if seen.insert(job.workload.key()) {
                unique.push(job.workload.clone());
            }
        }
        unique
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_workloads::networks;

    fn profile() -> SparsityProfile {
        SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap()
    }

    #[test]
    fn keys_identify_content() {
        let a = WorkloadSpec::new("w", LayerShape::new(4, 8, 8, 64), profile());
        let same = a.clone();
        assert_eq!(a.key(), same.key());
        assert_ne!(a.key(), a.clone().with_seed(7).key());
        assert_ne!(a.key(), a.clone().fine_tuned().key());
        let other_shape = WorkloadSpec::new("w", LayerShape::new(4, 8, 8, 128), profile());
        assert_ne!(a.key(), other_shape.key());
    }

    #[test]
    fn reported_name_matches_prepared_layer_name() {
        // The memo-replay cross-check relies on this equality.
        let plain = WorkloadSpec::new("w", LayerShape::new(4, 4, 8, 64), profile());
        assert_eq!(plain.prepare().unwrap().name, plain.reported_name());
        let ft = plain.fine_tuned();
        assert_eq!(ft.prepare().unwrap().name, ft.reported_name());
        assert_eq!(ft.reported_name(), "w+FT");
    }

    #[test]
    fn prepare_matches_direct_generation() {
        let spec = WorkloadSpec::new("spec-prep", LayerShape::new(4, 4, 8, 64), profile());
        let prepared = spec.prepare().unwrap();
        let direct = WorkloadGenerator::default()
            .generate("spec-prep", LayerShape::new(4, 4, 8, 64), &profile())
            .unwrap();
        assert_eq!(prepared.workload.spikes, direct.spikes);
        assert_eq!(prepared.workload.weights, direct.weights);
    }

    #[test]
    fn fleet_builds_heterogeneous_boxed_models() {
        let fleet = AcceleratorSpec::headline_fleet();
        assert_eq!(fleet.len(), 7);
        let names: Vec<String> = fleet.iter().map(AcceleratorSpec::display_name).collect();
        assert!(names.contains(&"SparTen-SNN".to_owned()));
        assert!(names.contains(&"LoAS".to_owned()));
        // The FT spec asks for the masked workload; plain LoAS does not.
        assert!(AcceleratorSpec::loas_ft().wants_fine_tuned_workload());
        assert!(!AcceleratorSpec::loas().wants_fine_tuned_workload());
    }

    #[test]
    fn push_network_expands_layers_and_marks_ft() {
        let mut campaign = Campaign::new("t");
        let spec = networks::alexnet();
        let plain = campaign.push_network(&spec, AcceleratorSpec::loas(), DEFAULT_SEED);
        let ft = campaign.push_network(&spec, AcceleratorSpec::loas_ft(), DEFAULT_SEED);
        assert_eq!(plain.len(), spec.depth());
        assert_eq!(ft.len(), spec.depth());
        assert!(campaign.jobs()[plain.start..plain.end]
            .iter()
            .all(|j| !j.workload.fine_tuned));
        assert!(campaign.jobs()[ft.start..ft.end]
            .iter()
            .all(|j| j.workload.fine_tuned));
        // Unique workloads: plain + ft variants of each layer.
        assert_eq!(campaign.unique_workloads().len(), 2 * spec.depth());
    }

    #[test]
    fn product_covers_all_pairs() {
        let mut campaign = Campaign::new("p");
        let layers: Vec<WorkloadSpec> = networks::selected_layers()
            .iter()
            .map(WorkloadSpec::from_layer)
            .collect();
        let fleet = AcceleratorSpec::headline_fleet();
        let range = campaign.push_product(&layers, &fleet);
        assert_eq!(range.len(), layers.len() * fleet.len());
        // One fine-tuned + one plain variant per layer.
        assert_eq!(campaign.unique_workloads().len(), 2 * layers.len());
    }
}

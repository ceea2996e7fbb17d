//! The accelerator catalog: the six paper models as one closed enum.
//!
//! Each of the paper's designs is a variant of [`AcceleratorSpec`] holding
//! its typed config, and this is the one place that names, builds and
//! hashes all six. A new model is a new variant with a fresh legacy
//! discriminant (never reuse 1–6).

use loas_baselines::{
    GammaConfig, GammaSnn, GospaConfig, GospaSnn, Ptb, PtbConfig, SparTenConfig, SparTenSnn,
    Stellar, StellarConfig,
};
use loas_core::{Accelerator, CatalogError, ContentHasher, Loas, LoasConfig, ModelConfig};
use loas_workloads::LayerShape;

/// A buildable accelerator model: one of the six paper models with its
/// typed configuration. Each job owns a spec and builds a fresh model, so
/// heterogeneous fleets sit in one queue and results never depend on
/// worker count or execution order. This is the one type that sees every
/// model's config: naming, building, hashing and workload checks are each
/// one `match`.
#[derive(Debug, Clone)]
pub enum AcceleratorSpec {
    /// LoAS (Table III by default).
    Loas(LoasConfig),
    /// SparTen-SNN.
    SparTen(SparTenConfig),
    /// GoSPA-SNN.
    Gospa(GospaConfig),
    /// Gamma-SNN.
    Gamma(GammaConfig),
    /// PTB.
    Ptb(PtbConfig),
    /// Stellar.
    Stellar(StellarConfig),
}

/// One model's stable name (the spec-JSON `accelerator.name`), its
/// `loas-serve models` about-line and its paper configuration.
type ModelRow = (&'static str, &'static str, fn() -> AcceleratorSpec);

/// Every model, in listing order; [`AcceleratorSpec::index`] maps a
/// variant to its row.
const MODELS: [ModelRow; 6] = [
    (
        "loas",
        "LoAS: fully temporal-parallel dual-sparse SNN accelerator (Table III)",
        AcceleratorSpec::loas,
    ),
    (
        "sparten",
        "SparTen-SNN: inner-product (IP) spMspM baseline with bitmask inner-join",
        AcceleratorSpec::sparten,
    ),
    (
        "gospa",
        "GoSPA-SNN: outer-product (OP) spMspM baseline with psum spill traffic",
        AcceleratorSpec::gospa,
    ),
    (
        "gamma",
        "Gamma-SNN: Gustavson spMspM baseline with FiberCache + merger",
        AcceleratorSpec::gamma,
    ),
    (
        "ptb",
        "PTB: dense, partially temporal-parallel systolic baseline",
        AcceleratorSpec::ptb,
    ),
    (
        "stellar",
        "Stellar: dense fully temporal-parallel FS-neuron baseline",
        AcceleratorSpec::stellar,
    ),
];

macro_rules! spec_from_config {
    ($($config:ty => $variant:ident),* $(,)?) => {
        $(
            impl From<$config> for AcceleratorSpec {
                fn from(config: $config) -> Self {
                    AcceleratorSpec::$variant(config)
                }
            }
        )*
    };
}

spec_from_config!(
    LoasConfig => Loas,
    SparTenConfig => SparTen,
    GospaConfig => Gospa,
    GammaConfig => Gamma,
    PtbConfig => Ptb,
    StellarConfig => Stellar,
);

impl PartialEq for AcceleratorSpec {
    /// Specs are equal when they name the same model with the same
    /// configuration field values (floats by bit pattern).
    fn eq(&self, other: &Self) -> bool {
        self.model() == other.model() && self.config().fields() == other.config().fields()
    }
}

impl AcceleratorSpec {
    /// A spec for the named model at its paper configuration.
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownModel`] when no model has the name.
    pub fn by_name(name: &str) -> Result<Self, CatalogError> {
        MODELS
            .iter()
            .find(|(model, _, _)| *model == name)
            .map(|(_, _, paper)| paper())
            .ok_or_else(|| CatalogError::UnknownModel(name.to_owned()))
    }

    /// A spec from an explicit typed configuration.
    pub fn from_config(config: impl Into<AcceleratorSpec>) -> Self {
        config.into()
    }

    /// Every model at its paper configuration, in listing order.
    pub fn catalog() -> [AcceleratorSpec; 6] {
        MODELS.map(|(_, _, paper)| paper())
    }

    /// Every model name, in listing order.
    pub fn known_models() -> [&'static str; 6] {
        MODELS.map(|(name, _, _)| name)
    }

    /// SparTen-SNN at the paper configuration.
    pub fn sparten() -> Self {
        Self::SparTen(SparTenConfig::default())
    }

    /// GoSPA-SNN at the paper configuration.
    pub fn gospa() -> Self {
        Self::Gospa(GospaConfig::default())
    }

    /// Gamma-SNN at the paper configuration.
    pub fn gamma() -> Self {
        Self::Gamma(GammaConfig::default())
    }

    /// PTB at the paper configuration.
    pub fn ptb() -> Self {
        Self::Ptb(PtbConfig::default())
    }

    /// Stellar at the paper configuration.
    pub fn stellar() -> Self {
        Self::Stellar(StellarConfig::default())
    }

    /// LoAS at the paper's Table III configuration.
    pub fn loas() -> Self {
        Self::Loas(LoasConfig::table3())
    }

    /// LoAS with an explicit configuration (covers the FT discard mode and
    /// every ablation/sweep override).
    pub fn loas_with(config: LoasConfig) -> Self {
        Self::Loas(config)
    }

    /// LoAS in fine-tuned mode (low-activity outputs discarded); pair with
    /// [`WorkloadSpec::fine_tuned`](crate::WorkloadSpec::fine_tuned) workloads.
    pub fn loas_ft() -> Self {
        Self::Loas(
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

    /// This model's row of [`MODELS`].
    fn index(&self) -> usize {
        match self {
            Self::Loas(_) => 0,
            Self::SparTen(_) => 1,
            Self::Gospa(_) => 2,
            Self::Gamma(_) => 3,
            Self::Ptb(_) => 4,
            Self::Stellar(_) => 5,
        }
    }

    /// The stable model name (also the spec-JSON `accelerator.name`).
    pub fn model(&self) -> &'static str {
        MODELS[self.index()].0
    }

    /// The model's one-line description for CLI listings.
    pub fn about(&self) -> &'static str {
        MODELS[self.index()].1
    }

    /// The typed configuration.
    pub fn config(&self) -> &dyn ModelConfig {
        match self {
            Self::Loas(config) => config,
            Self::SparTen(config) => config,
            Self::Gospa(config) => config,
            Self::Gamma(config) => config,
            Self::Ptb(config) => config,
            Self::Stellar(config) => config,
        }
    }

    /// Mutable access to the typed configuration (spec parsing applies
    /// field overrides through this).
    pub fn config_mut(&mut self) -> &mut dyn ModelConfig {
        match self {
            Self::Loas(config) => config,
            Self::SparTen(config) => config,
            Self::Gospa(config) => config,
            Self::Gamma(config) => config,
            Self::Ptb(config) => config,
            Self::Stellar(config) => config,
        }
    }

    /// Whether this spec should consume the fine-tuned (masked) variant of
    /// its workload: LoAS discarding low-activity outputs.
    pub fn wants_fine_tuned_workload(&self) -> bool {
        matches!(self, Self::Loas(config) if config.discard_low_activity_outputs)
    }

    /// Whether this model can run a layer of `shape`, allocating nothing
    /// when it can (LoAS runs exactly its configured timesteps; the
    /// baselines run any shape).
    ///
    /// # Errors
    ///
    /// The model's reason when it cannot.
    pub fn check_workload(&self, shape: &LayerShape) -> Result<(), String> {
        match self {
            Self::Loas(config) => config.check_workload(shape),
            _ => Ok(()),
        }
    }

    /// Builds a fresh boxed model. Models are cheap to construct; all
    /// expensive state lives in the prepared workload.
    pub fn build(&self) -> Box<dyn Accelerator + Send> {
        match self {
            Self::Loas(config) => Box::new(Loas::new(config.clone())),
            Self::SparTen(config) => Box::new(SparTenSnn::new(*config)),
            Self::Gospa(config) => Box::new(GospaSnn::new(*config)),
            Self::Gamma(config) => Box::new(GammaSnn::new(*config)),
            Self::Ptb(config) => Box::new(Ptb::new(*config)),
            Self::Stellar(config) => Box::new(Stellar::new(*config)),
        }
    }

    /// The model-reported display name (used in job labels and reports;
    /// distinct from the stable [`model`](Self::model) name).
    pub fn display_name(&self) -> String {
        self.build().name()
    }

    /// Absorbs the accelerator's identifying content into a stable hash.
    /// The model's legacy discriminant (its position in the original
    /// closed enum) leads. LoAS follows it with every config field, raw,
    /// in field order. A baseline adds nothing at its default config,
    /// so default-config keys predate configurable baselines byte for
    /// byte; otherwise it adds `cfg/2` and each field's name and value.
    pub fn write_content(&self, hasher: &mut ContentHasher) {
        match self {
            Self::Loas(config) => {
                hasher.write_u64(4);
                for (_, value) in config.fields() {
                    value.write_content(hasher);
                }
            }
            Self::SparTen(config) => write_baseline(hasher, 1, config),
            Self::Gospa(config) => write_baseline(hasher, 2, config),
            Self::Gamma(config) => write_baseline(hasher, 3, config),
            Self::Ptb(config) => write_baseline(hasher, 5, config),
            Self::Stellar(config) => write_baseline(hasher, 6, config),
        }
    }
}

/// A baseline's memo-key contribution (see
/// [`AcceleratorSpec::write_content`]).
fn write_baseline<C: ModelConfig + Default>(
    hasher: &mut ContentHasher,
    discriminant: u64,
    config: &C,
) {
    hasher.write_u64(discriminant);
    let fields = config.fields();
    if fields != C::default().fields() {
        hasher.write_str("cfg/2");
        for (name, value) in fields {
            hasher.write_str(name);
            value.write_content(hasher);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(write: &dyn Fn(&mut ContentHasher)) -> u64 {
        let mut hasher = ContentHasher::new();
        write(&mut hasher);
        hasher.finish()
    }

    /// LoAS's legacy memo-key layout, written out field by field: the
    /// discriminant 4, then the 17 Table III fields as typed writes, in
    /// the order the original hand-written hasher used.
    fn legacy_loas_layout(c: &LoasConfig, h: &mut ContentHasher) {
        h.write_u64(4);
        h.write_usize(c.tppes);
        h.write_usize(c.timesteps);
        h.write_usize(c.weight_bits);
        h.write_usize(c.bitmask_bits);
        h.write_usize(c.laggy_adders);
        h.write_usize(c.fifo_depth);
        h.write_usize(c.weight_buffer_bytes);
        h.write_usize(c.cache_bytes);
        h.write_usize(c.cache_banks);
        h.write_usize(c.cache_ways);
        h.write_usize(c.cache_line_bytes);
        h.write_f64(c.hbm_gbps);
        h.write_usize(c.hbm_channels);
        h.write_usize(c.crossbar_bus_bytes);
        h.write_bool(c.discard_low_activity_outputs);
        h.write_bool(c.temporal_parallel);
        h.write_bool(c.two_fast_prefix);
    }

    #[test]
    fn builtin_loas_entry_preserves_the_legacy_hash_layout() {
        // LoAS hashes its declared fields in order; that must stay the
        // legacy layout, so warm memo stores keep their LoAS keys.
        let flipped = |flip: fn(&mut LoasConfig)| {
            let mut config = LoasConfig::table3();
            flip(&mut config);
            config
        };
        for config in [
            LoasConfig::table3(),
            LoasConfig::builder().tppes(32).build(),
            LoasConfig::builder().hbm_gbps(16.0).build(),
            flipped(|c| c.discard_low_activity_outputs = true),
            flipped(|c| c.temporal_parallel = false),
            flipped(|c| c.two_fast_prefix = true),
        ] {
            assert_eq!(
                hash(&|h| AcceleratorSpec::loas_with(config.clone()).write_content(h)),
                hash(&|h| legacy_loas_layout(&config, h)),
                "{config:?}"
            );
        }
    }

    #[test]
    fn default_configs_hash_like_bare_discriminants_for_lazy_entries() {
        // A baseline at its default config adds nothing to its discriminant.
        for (spec, discriminant) in [
            (AcceleratorSpec::sparten(), 1),
            (AcceleratorSpec::gospa(), 2),
            (AcceleratorSpec::gamma(), 3),
            (AcceleratorSpec::ptb(), 5),
            (AcceleratorSpec::stellar(), 6),
        ] {
            assert_eq!(
                hash(&|h| spec.write_content(h)),
                hash(&|h| h.write_u64(discriminant)),
                "{}",
                spec.model()
            );
        }
        let tweaked = AcceleratorSpec::from_config(GammaConfig::builder().pes(8).build());
        assert_ne!(
            hash(&|h| tweaked.write_content(h)),
            hash(&|h| h.write_u64(3))
        );
    }

    #[test]
    fn catalog_lists_each_model_once_in_order() {
        assert_eq!(
            AcceleratorSpec::known_models(),
            ["loas", "sparten", "gospa", "gamma", "ptb", "stellar"]
        );
        for (spec, name) in AcceleratorSpec::catalog()
            .iter()
            .zip(AcceleratorSpec::known_models())
        {
            assert_eq!(spec.model(), name);
            assert_eq!(AcceleratorSpec::by_name(name).unwrap(), *spec);
        }
        assert_eq!(
            AcceleratorSpec::by_name("warp-drive"),
            Err(CatalogError::UnknownModel("warp-drive".to_owned()))
        );
    }
}

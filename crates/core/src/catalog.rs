//! The open accelerator catalog: a process-global registry mapping stable
//! model names to typed configurations and boxed-[`Accelerator`] factories.
//!
//! The engine's original dispatcher was a closed enum: every model variant
//! was hard-coded into `AcceleratorSpec`, so adding a baseline (or giving
//! one a sweepable configuration) meant editing the engine, the serving
//! front end, and the bench harness in lockstep. The catalog inverts that
//! dependency: models **register** a [`ModelEntry`] — stable name, default
//! [`ModelConfig`], content-hash contribution, build function — and every
//! downstream layer (campaign specs, memo keys, JSON spec schema, CLI
//! validation) resolves through the registry. Adding a model touches only
//! the crate that defines it.
//!
//! # Registration
//!
//! `loas-core` registers the LoAS model itself; `loas-baselines` registers
//! the five comparison designs via its `register_catalog()`. A model in a
//! new crate registers the same way:
//!
//! ```
//! use loas_core::{catalog, ConfigValue, LoasConfig, ModelConfig};
//!
//! // The built-in entries are always present:
//! assert!(catalog::with(|c| c.get("loas").is_some()));
//! let fields = LoasConfig::table3().fields();
//! assert_eq!(fields[0], ("tppes", ConfigValue::UInt(16)));
//! ```
//!
//! # Memo-key stability
//!
//! Entries absorb their **legacy discriminant** into content hashes first,
//! and a baseline's configuration fields are only absorbed when they differ
//! from the registered default. Pre-catalog campaign specs therefore hash
//! to the exact same [`MemoKey`]s as before the redesign — warm memo
//! stores stay warm — while every non-default configuration gets a
//! distinct key. LoAS opts into `hash_config_always`, preserving its
//! original always-hashed layout.
//!
//! [`MemoKey`]: https://docs.rs/loas-engine

use crate::hash::ContentHasher;
use crate::metrics::Accelerator;
use loas_workloads::LayerShape;
use std::sync::{OnceLock, RwLock};

/// One typed configuration field value. The three kinds cover every knob
/// the simulators expose (counts/geometry, bandwidths, mode flags).
#[derive(Debug, Clone, Copy)]
pub enum ConfigValue {
    /// An unsigned integer (counts, sizes, widths).
    UInt(u64),
    /// A float (bandwidths, utilizations). Compared and hashed by IEEE-754
    /// bit pattern — configs are either copies or genuinely different.
    Float(f64),
    /// A mode flag.
    Bool(bool),
}

impl ConfigValue {
    /// The value as `u64`, if it is an integer.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            ConfigValue::UInt(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `usize`, if it is an integer that fits.
    pub fn as_usize(self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as `f64`, if it is a float.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ConfigValue::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a flag.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            ConfigValue::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The kind name used in error messages and schema docs.
    pub fn kind(self) -> &'static str {
        match self {
            ConfigValue::UInt(_) => "integer",
            ConfigValue::Float(_) => "number",
            ConfigValue::Bool(_) => "boolean",
        }
    }

    /// Absorbs the value into a content hash (width-delimited, like the
    /// typed [`ContentHasher`] writers).
    pub fn write_content(self, hasher: &mut ContentHasher) {
        match self {
            ConfigValue::UInt(v) => hasher.write_u64(v),
            ConfigValue::Float(v) => hasher.write_f64(v),
            ConfigValue::Bool(v) => hasher.write_bool(v),
        }
    }
}

impl PartialEq for ConfigValue {
    /// Floats compare by bit pattern (the memo-key equality notion), so
    /// `-0.0 != 0.0` and comparisons agree with [`ConfigValue::write_content`].
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ConfigValue::UInt(a), ConfigValue::UInt(b)) => a == b,
            (ConfigValue::Float(a), ConfigValue::Float(b)) => a.to_bits() == b.to_bits(),
            (ConfigValue::Bool(a), ConfigValue::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ConfigValue {}

impl std::fmt::Display for ConfigValue {
    /// The value as a JSON token (floats via shortest-round-trip
    /// formatting, so serialized specs re-parse bit-exactly).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigValue::UInt(v) => write!(f, "{v}"),
            ConfigValue::Float(v) => write!(f, "{v}"),
            ConfigValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Errors raised by catalog lookups and configuration edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// No registered model under this name.
    UnknownModel(String),
    /// A second registration under an existing name.
    DuplicateModel(String),
    /// A configuration edit named a field the model does not have.
    UnknownField {
        /// The model whose config was edited.
        model: String,
        /// The unrecognized field name.
        field: String,
    },
    /// A configuration edit supplied the wrong value kind.
    FieldType {
        /// The model whose config was edited.
        model: String,
        /// The field name.
        field: String,
        /// The kind the field requires.
        expected: &'static str,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownModel(name) => {
                write!(f, "unknown accelerator model `{name}`")
            }
            CatalogError::DuplicateModel(name) => {
                write!(f, "accelerator model `{name}` is already registered")
            }
            CatalogError::UnknownField { model, field } => {
                write!(f, "model `{model}` has no config field `{field}`")
            }
            CatalogError::FieldType {
                model,
                field,
                expected,
            } => write!(f, "config field `{model}.{field}` must be {expected}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// A typed, introspectable accelerator configuration. Every model's config
/// implements this trait, which gives the engine and the serving front end
/// a uniform way to clone, compare, serialize, override, and content-hash
/// configurations without naming concrete types.
pub trait ModelConfig: std::fmt::Debug + Send + Sync + 'static {
    /// The catalog name of the model this configuration belongs to.
    fn model(&self) -> &'static str;

    /// Every field as `(name, value)`, in a fixed declaration order (the
    /// order is part of the content-hash layout — never reorder).
    fn fields(&self) -> Vec<(&'static str, ConfigValue)>;

    /// Overrides one field by name. Values are kind-checked but **not**
    /// cross-validated — callers applying untrusted overrides (the serve
    /// spec parser) must call [`ModelConfig::validate`] after the last
    /// `set`, because individually-plausible fields can combine into a
    /// configuration the simulator would hang or panic on.
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownField`] for unrecognized names,
    /// [`CatalogError::FieldType`] for kind mismatches.
    fn set(&mut self, field: &str, value: ConfigValue) -> Result<(), CatalogError>;

    /// Checks the configuration's cross-field invariants (the same rules
    /// the builder's `build()` panics on), returning a human-readable
    /// description of the first violation.
    ///
    /// # Errors
    ///
    /// A message naming the degenerate field(s).
    fn validate(&self) -> Result<(), String>;

    /// Clones the configuration behind a fresh box.
    fn clone_box(&self) -> Box<dyn ModelConfig>;

    /// The concrete configuration, for factory downcasts.
    fn as_any(&self) -> &dyn std::any::Any;
}

impl Clone for Box<dyn ModelConfig> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl PartialEq for dyn ModelConfig {
    /// Configurations are equal when they configure the same model with
    /// the same field values (floats by bit pattern).
    fn eq(&self, other: &dyn ModelConfig) -> bool {
        self.model() == other.model() && self.fields() == other.fields()
    }
}

/// Implements [`ModelConfig`] for a plain-struct configuration: list the
/// fields once (with their kind) and the trait's `fields`/`set` accessors
/// are generated consistently. The type must provide an inherent
/// `fn check(&self) -> Result<(), String>` holding its cross-field
/// invariants — the generated [`ModelConfig::validate`] delegates to it.
///
/// Field kinds: `usize`, `u64`, `f64`, `bool`.
#[macro_export]
macro_rules! impl_model_config {
    ($ty:ty, $model:literal, { $( $field:ident : $kind:tt ),* $(,)? }) => {
        impl $crate::ModelConfig for $ty {
            fn model(&self) -> &'static str {
                $model
            }

            fn fields(&self) -> Vec<(&'static str, $crate::ConfigValue)> {
                vec![$( (stringify!($field), $crate::impl_model_config!(@get self, $field, $kind)) ),*]
            }

            fn set(
                &mut self,
                field: &str,
                value: $crate::ConfigValue,
            ) -> Result<(), $crate::CatalogError> {
                match field {
                    $(
                        stringify!($field) => {
                            $crate::impl_model_config!(@set self, $field, $kind, value, $model);
                            Ok(())
                        }
                    )*
                    other => Err($crate::CatalogError::UnknownField {
                        model: $model.to_owned(),
                        field: other.to_owned(),
                    }),
                }
            }

            fn validate(&self) -> Result<(), String> {
                self.check()
            }

            fn clone_box(&self) -> Box<dyn $crate::ModelConfig> {
                Box::new(self.clone())
            }

            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
    };
    (@get $self:ident, $field:ident, usize) => {
        $crate::ConfigValue::UInt($self.$field as u64)
    };
    (@get $self:ident, $field:ident, u64) => {
        $crate::ConfigValue::UInt($self.$field)
    };
    (@get $self:ident, $field:ident, f64) => {
        $crate::ConfigValue::Float($self.$field)
    };
    (@get $self:ident, $field:ident, bool) => {
        $crate::ConfigValue::Bool($self.$field)
    };
    (@set $self:ident, $field:ident, usize, $value:ident, $model:literal) => {
        $self.$field = $value
            .as_usize()
            .ok_or($crate::CatalogError::FieldType {
                model: $model.to_owned(),
                field: stringify!($field).to_owned(),
                expected: "an integer",
            })?
    };
    (@set $self:ident, $field:ident, u64, $value:ident, $model:literal) => {
        $self.$field = $value.as_u64().ok_or($crate::CatalogError::FieldType {
            model: $model.to_owned(),
            field: stringify!($field).to_owned(),
            expected: "an integer",
        })?
    };
    (@set $self:ident, $field:ident, f64, $value:ident, $model:literal) => {
        $self.$field = $value.as_f64().ok_or($crate::CatalogError::FieldType {
            model: $model.to_owned(),
            field: stringify!($field).to_owned(),
            expected: "a number",
        })?
    };
    (@set $self:ident, $field:ident, bool, $value:ident, $model:literal) => {
        $self.$field = $value.as_bool().ok_or($crate::CatalogError::FieldType {
            model: $model.to_owned(),
            field: stringify!($field).to_owned(),
            expected: "a boolean",
        })?
    };
}

/// One registered accelerator model: the catalog's unit of dispatch.
#[derive(Clone, Copy)]
pub struct ModelEntry {
    name: &'static str,
    about: &'static str,
    discriminant: u64,
    hash_config_always: bool,
    default_config: fn() -> Box<dyn ModelConfig>,
    build: fn(&dyn ModelConfig) -> Box<dyn Accelerator + Send>,
    wants_fine_tuned: fn(&dyn ModelConfig) -> bool,
    workload_check: fn(&dyn ModelConfig, &LayerShape) -> Result<(), String>,
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("name", &self.name)
            .field("discriminant", &self.discriminant)
            .finish_non_exhaustive()
    }
}

impl ModelEntry {
    /// A new entry. `discriminant` is the stable content-hash tag this
    /// model has always used (legacy enum position for the original fleet;
    /// pick a fresh value ≥ 7 for new models and never reuse one).
    pub fn new(
        name: &'static str,
        about: &'static str,
        discriminant: u64,
        default_config: fn() -> Box<dyn ModelConfig>,
        build: fn(&dyn ModelConfig) -> Box<dyn Accelerator + Send>,
    ) -> Self {
        ModelEntry {
            name,
            about,
            discriminant,
            hash_config_always: false,
            default_config,
            build,
            wants_fine_tuned: |_| false,
            workload_check: |_, _| Ok(()),
        }
    }

    /// Opts into hashing the full configuration even at its default values
    /// (LoAS's pre-catalog layout; new models should keep the default
    /// non-default-only scheme).
    pub fn hash_config_always(mut self) -> Self {
        self.hash_config_always = true;
        self
    }

    /// Installs the predicate deciding whether a configuration consumes
    /// the fine-tuned (silent-neuron-masked) workload variant.
    pub fn wants_fine_tuned(mut self, predicate: fn(&dyn ModelConfig) -> bool) -> Self {
        self.wants_fine_tuned = predicate;
        self
    }

    /// Installs the rule for which layer shapes a configuration can run
    /// (default: all). Spec parsing runs it on every job, so it must not
    /// allocate when a job passes.
    pub fn workload_check(
        mut self,
        check: fn(&dyn ModelConfig, &LayerShape) -> Result<(), String>,
    ) -> Self {
        self.workload_check = check;
        self
    }

    /// The stable catalog (and spec-schema) name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for CLI listings.
    pub fn about(&self) -> &'static str {
        self.about
    }

    /// A fresh default configuration.
    pub fn default_config(&self) -> Box<dyn ModelConfig> {
        (self.default_config)()
    }

    /// Builds a boxed model from a configuration of this entry's type.
    ///
    /// # Panics
    ///
    /// Factories panic when handed another model's configuration; the
    /// engine's spec layer guarantees the pairing.
    pub fn build(&self, config: &dyn ModelConfig) -> Box<dyn Accelerator + Send> {
        (self.build)(config)
    }

    /// Whether `config` asks for the fine-tuned workload variant.
    pub fn config_wants_fine_tuned(&self, config: &dyn ModelConfig) -> bool {
        (self.wants_fine_tuned)(config)
    }

    /// Whether `config` can run a layer of `shape`.
    ///
    /// # Errors
    ///
    /// The model's reason when it cannot.
    pub fn check_workload(
        &self,
        config: &dyn ModelConfig,
        shape: &LayerShape,
    ) -> Result<(), String> {
        (self.workload_check)(config, shape)
    }

    /// Absorbs a `(model, config)` identity into a memo-key hash. The
    /// legacy discriminant always leads; configuration fields follow —
    /// always for `hash_config_always` entries (LoAS's original layout,
    /// raw values in field order), otherwise only when the configuration
    /// differs from the default (tagged and key-delimited), so pre-catalog
    /// default-config keys are preserved byte for byte.
    pub fn write_content(&self, config: &dyn ModelConfig, hasher: &mut ContentHasher) {
        hasher.write_u64(self.discriminant);
        let fields = config.fields();
        if self.hash_config_always {
            for (_, value) in fields {
                value.write_content(hasher);
            }
        } else if fields != self.default_config().fields() {
            hasher.write_str("cfg/2");
            for (name, value) in fields {
                hasher.write_str(name);
                value.write_content(hasher);
            }
        }
    }
}

/// An ordered set of [`ModelEntry`]s. Most code uses the process-global
/// catalog through [`with`]/[`register`]; standalone instances exist for
/// tests.
#[derive(Debug, Default)]
pub struct Catalog {
    entries: Vec<ModelEntry>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers one entry.
    ///
    /// # Errors
    ///
    /// [`CatalogError::DuplicateModel`] when the name is taken.
    pub fn register(&mut self, entry: ModelEntry) -> Result<(), CatalogError> {
        if self.get(entry.name).is_some() {
            return Err(CatalogError::DuplicateModel(entry.name.to_owned()));
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Looks up an entry by stable name.
    pub fn get(&self, name: &str) -> Option<&ModelEntry> {
        self.entries.iter().find(|entry| entry.name == name)
    }

    /// Every entry, in registration order.
    pub fn entries(&self) -> &[ModelEntry] {
        &self.entries
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|entry| entry.name).collect()
    }
}

fn global() -> &'static RwLock<Catalog> {
    static GLOBAL: OnceLock<RwLock<Catalog>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let mut catalog = Catalog::new();
        catalog
            .register(loas_entry())
            .expect("fresh catalog accepts the builtin");
        RwLock::new(catalog)
    })
}

/// The LoAS entry `loas-core` seeds the global catalog with.
fn loas_entry() -> ModelEntry {
    fn loas(config: &dyn ModelConfig) -> Option<&crate::LoasConfig> {
        config.as_any().downcast_ref()
    }
    ModelEntry::new(
        "loas",
        "LoAS: fully temporal-parallel dual-sparse SNN accelerator (Table III)",
        4,
        || Box::new(crate::LoasConfig::table3()),
        |config| {
            let config = loas(config).expect("loas entry built with a LoasConfig");
            Box::new(crate::Loas::new(config.clone()))
        },
    )
    .hash_config_always()
    .wants_fine_tuned(|config| loas(config).is_some_and(|c| c.discard_low_activity_outputs))
    .workload_check(|config, shape| loas(config).map_or(Ok(()), |c| c.check_workload(shape)))
}

/// Registers `entry` into the process-global catalog.
///
/// # Errors
///
/// [`CatalogError::DuplicateModel`] when the name is taken.
///
/// # Panics
///
/// Panics if the catalog lock is poisoned (a registrant panicked).
pub fn register(entry: ModelEntry) -> Result<(), CatalogError> {
    global().write().expect("catalog lock").register(entry)
}

/// Runs `f` with shared access to the process-global catalog.
///
/// # Panics
///
/// Panics if the catalog lock is poisoned (a registrant panicked).
pub fn with<R>(f: impl FnOnce(&Catalog) -> R) -> R {
    f(&global().read().expect("catalog lock"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoasConfig;

    #[test]
    fn builtin_loas_entry_preserves_the_legacy_hash_layout() {
        // Discriminant 4 + raw config fields, exactly like the pre-catalog
        // `AcceleratorSpec::write_content` arm.
        let config = LoasConfig::table3();
        let mut legacy = ContentHasher::new();
        legacy.write_u64(4);
        config.write_content(&mut legacy);

        let mut via_entry = ContentHasher::new();
        with(|catalog| {
            let entry = catalog.get("loas").expect("builtin");
            entry.write_content(&config, &mut via_entry);
        });
        assert_eq!(via_entry.finish(), legacy.finish());
    }

    #[test]
    fn config_values_compare_and_coerce() {
        assert_eq!(ConfigValue::UInt(7).as_usize(), Some(7));
        assert_eq!(ConfigValue::UInt(7).as_f64(), None);
        assert_eq!(ConfigValue::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(ConfigValue::Bool(true).as_bool(), Some(true));
        assert_eq!(ConfigValue::Float(0.1 + 0.2), ConfigValue::Float(0.1 + 0.2));
        assert_ne!(ConfigValue::Float(0.0), ConfigValue::Float(-0.0));
        assert_ne!(ConfigValue::UInt(1), ConfigValue::Bool(true));
        assert_eq!(format!("{}", ConfigValue::Float(0.823)), "0.823");
        assert_eq!(format!("{}", ConfigValue::UInt(128)), "128");
    }

    #[test]
    fn loas_config_fields_round_trip_through_set() {
        let mut config = LoasConfig::table3();
        config.set("tppes", ConfigValue::UInt(32)).unwrap();
        config.set("hbm_gbps", ConfigValue::Float(64.0)).unwrap();
        config
            .set("temporal_parallel", ConfigValue::Bool(false))
            .unwrap();
        assert_eq!(config.tppes, 32);
        assert!((config.hbm_gbps - 64.0).abs() < 1e-12);
        assert!(!config.temporal_parallel);

        let error = config.set("warp_factor", ConfigValue::UInt(9)).unwrap_err();
        assert!(matches!(error, CatalogError::UnknownField { .. }));
        let error = config.set("tppes", ConfigValue::Bool(true)).unwrap_err();
        assert!(matches!(error, CatalogError::FieldType { .. }));
    }

    #[test]
    fn default_configs_hash_like_bare_discriminants_for_lazy_entries() {
        fn dummy_default() -> Box<dyn ModelConfig> {
            Box::new(LoasConfig::table3())
        }
        fn dummy_build(_: &dyn ModelConfig) -> Box<dyn Accelerator + Send> {
            unreachable!("hash-only entry")
        }
        let entry = ModelEntry::new("dummy", "", 9, dummy_default, dummy_build);
        let config = LoasConfig::table3();

        let mut hashed = ContentHasher::new();
        entry.write_content(&config, &mut hashed);
        let mut bare = ContentHasher::new();
        bare.write_u64(9);
        assert_eq!(hashed.finish(), bare.finish(), "defaults add nothing");

        let tweaked = LoasConfig::builder().tppes(32).build();
        let mut hashed_tweaked = ContentHasher::new();
        entry.write_content(&tweaked, &mut hashed_tweaked);
        assert_ne!(hashed_tweaked.finish(), bare.finish());
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut catalog = Catalog::new();
        catalog.register(loas_entry()).unwrap();
        assert_eq!(
            catalog.register(loas_entry()),
            Err(CatalogError::DuplicateModel("loas".to_owned()))
        );
        assert_eq!(catalog.names(), vec!["loas"]);
    }
}

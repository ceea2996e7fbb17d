//! Typed, introspectable model configurations: the field-level view the
//! serve spec parser reads and overrides and `loas-serve models` lists.
//!
//! The six paper models are a closed set: each is one variant of
//! `loas_engine::AcceleratorSpec`, which holds that model's typed config
//! and dispatches building, hashing and workload checks with one `match`.
//!
//! Each config is one [`model_config!`](crate::model_config) declaration,
//! and a field is declared once, with its doc, type and paper default.
//! That one declaration gives the struct, `Default`, the builder's setter,
//! and the [`ModelConfig`] the spec schema overrides by name and
//! `loas-serve models` lists. Its order is also the memo key's field
//! order: never reorder.
//!
//! ```
//! use loas_core::{ConfigValue, LoasConfig, ModelConfig};
//!
//! let mut config = LoasConfig::table3();
//! assert_eq!(config.fields()[0], ("tppes", ConfigValue::UInt(16)));
//! config.set("tppes", ConfigValue::UInt(32)).unwrap();
//! assert_eq!(config.tppes, 32);
//! ```
//!
//! # Memo-key stability
//!
//! A model's memo-key contribution starts with its **legacy
//! discriminant** (the position it had in the original closed enum), and
//! a baseline's configuration fields are only absorbed when they differ
//! from its default. Default-config specs therefore hash to the same
//! memo keys they always had, so warm memo stores stay warm, while every
//! non-default configuration gets a distinct key. LoAS always hashes its
//! full configuration, every field value in declaration order: its
//! original layout.

use crate::hash::ContentHasher;

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

    /// The kind name `loas-serve models` lists.
    pub fn kind(self) -> &'static str {
        match self {
            ConfigValue::UInt(_) => "integer",
            ConfigValue::Float(_) => "number",
            ConfigValue::Bool(_) => "boolean",
        }
    }

    /// What a field of this kind takes, as error messages word it.
    pub fn expected(self) -> &'static str {
        match self {
            ConfigValue::UInt(_) => "a non-negative integer",
            ConfigValue::Float(_) => "a finite number",
            ConfigValue::Bool(_) => "a boolean",
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

/// Errors raised by model lookups and configuration edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// No model under this name.
    UnknownModel(String),
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
/// implements this trait, which gives the serving front end a uniform way
/// to list, serialize, override and validate configurations field by
/// field.
pub trait ModelConfig {
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
}

/// A config field's Rust type: `usize`, `u64`, `f64` or `bool`. Its
/// [`from_value`](ConfigField::from_value) is the one coercion table a
/// configuration override goes through.
pub trait ConfigField: Copy {
    /// The field's value.
    fn to_value(self) -> ConfigValue;

    /// The field from `value`, if it is of the field's kind (and fits). A
    /// float field also takes an integer, and refuses a non-finite value.
    fn from_value(value: ConfigValue) -> Option<Self>;

    /// Overwrites the field with `value` coerced by
    /// [`from_value`](ConfigField::from_value): what [`ModelConfig::set`]
    /// does.
    ///
    /// # Errors
    ///
    /// [`CatalogError::FieldType`] naming `model.field` and what the field
    /// takes ([`ConfigValue::expected`]).
    fn assign(&mut self, value: ConfigValue, model: &str, field: &str) -> Result<(), CatalogError> {
        *self = Self::from_value(value).ok_or_else(|| CatalogError::FieldType {
            model: model.to_owned(),
            field: field.to_owned(),
            expected: self.to_value().expected(),
        })?;
        Ok(())
    }
}

impl ConfigField for usize {
    fn to_value(self) -> ConfigValue {
        ConfigValue::UInt(self as u64)
    }
    fn from_value(value: ConfigValue) -> Option<Self> {
        value.as_usize()
    }
}

impl ConfigField for u64 {
    fn to_value(self) -> ConfigValue {
        ConfigValue::UInt(self)
    }
    fn from_value(value: ConfigValue) -> Option<Self> {
        value.as_u64()
    }
}

impl ConfigField for f64 {
    fn to_value(self) -> ConfigValue {
        ConfigValue::Float(self)
    }
    fn from_value(value: ConfigValue) -> Option<Self> {
        let integer = value.as_u64().map(|v| v as f64);
        value.as_f64().or(integer).filter(|v| v.is_finite())
    }
}

impl ConfigField for bool {
    fn to_value(self) -> ConfigValue {
        ConfigValue::Bool(self)
    }
    fn from_value(value: ConfigValue) -> Option<Self> {
        value.as_bool()
    }
}

/// Declares a model configuration once: the struct, each field with its
/// doc, type ([`ConfigField`]: `usize`, `u64`, `f64` or `bool`) and
/// paper default. From that one list it generates
///
/// * the struct, with every field `pub`;
/// * `Default`, the paper configuration;
/// * `builder()` and the builder type, one setter per field, whose
///   `build()` panics with the config's `check()` message;
/// * [`ModelConfig`]: `fields` in declaration order, `set` by name, and
///   `validate`, which calls `check`.
///
/// The type must provide an inherent `fn check(&self) -> Result<(),
/// String>` holding its cross-field invariants. The declaration order is
/// the order of the spec schema, of `loas-serve models` and of the memo
/// key: never reorder.
///
/// ```
/// loas_core::model_config! {
///     model = "toy", builder = ToyConfigBuilder;
///     /// A toy model's configuration.
///     #[derive(Debug, Clone, PartialEq)]
///     pub struct ToyConfig {
///         /// Processing elements.
///         pub pes: usize = 16,
///         /// Off-chip bandwidth in GB/s.
///         pub hbm_gbps: f64 = 128.0,
///     }
/// }
///
/// impl ToyConfig {
///     fn check(&self) -> Result<(), String> {
///         if self.pes == 0 {
///             return Err("need at least one PE".to_owned());
///         }
///         Ok(())
///     }
/// }
///
/// use loas_core::{ConfigValue, ModelConfig};
/// let config = ToyConfig::builder().pes(8).build();
/// assert_eq!(config.fields()[0], ("pes", ConfigValue::UInt(8)));
/// assert_eq!(ToyConfig::default().hbm_gbps, 128.0);
/// ```
#[macro_export]
macro_rules! model_config {
    (
        model = $model:literal, builder = $builder:ident;
        $(#[$attr:meta])*
        pub struct $config:ident {
            $( $(#[$doc:meta])* pub $field:ident : $ty:ty = $default:expr ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        pub struct $config {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        impl Default for $config {
            fn default() -> Self {
                $config { $( $field: $default, )* }
            }
        }

        impl $config {
            /// A builder starting from the paper defaults.
            pub fn builder() -> $builder {
                $builder { config: $config::default() }
            }
        }

        #[doc = concat!(
            "Builder for [`", stringify!($config), "`], starting from the paper defaults."
        )]
        #[derive(Debug, Clone)]
        pub struct $builder {
            config: $config,
        }

        impl $builder {
            $(
                #[doc = concat!("Sets [`", stringify!($config), "::", stringify!($field), "`]:")]
                $(#[$doc])*
                pub fn $field(mut self, value: $ty) -> Self {
                    self.config.$field = value;
                    self
                }
            )*

            /// Finalises the configuration.
            ///
            /// # Panics
            ///
            #[doc = concat!(
                "Panics with [`", stringify!($config), "::check`]'s message on a degenerate ",
                "configuration."
            )]
            pub fn build(self) -> $config {
                if let Err(message) = self.config.check() {
                    panic!("{message}");
                }
                self.config
            }
        }

        impl $crate::ModelConfig for $config {
            fn fields(&self) -> Vec<(&'static str, $crate::ConfigValue)> {
                vec![$( (stringify!($field), $crate::ConfigField::to_value(self.$field)) ),*]
            }

            fn set(
                &mut self,
                field: &str,
                value: $crate::ConfigValue,
            ) -> Result<(), $crate::CatalogError> {
                match field {
                    $( stringify!($field) => {
                        $crate::ConfigField::assign(&mut self.$field, value, $model, field)?
                    } )*
                    _ => {
                        return Err($crate::CatalogError::UnknownField {
                            model: $model.to_owned(),
                            field: field.to_owned(),
                        })
                    }
                }
                Ok(())
            }

            fn validate(&self) -> Result<(), String> {
                self.check()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoasConfig;

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
    fn config_fields_coerce_through_one_table() {
        // A float field takes an integer at the same bits as the float
        // spelling, and refuses a non-finite value.
        assert_eq!(f64::from_value(ConfigValue::UInt(128)), Some(128.0));
        assert_eq!(
            f64::from_value(ConfigValue::UInt(128)).map(f64::to_bits),
            f64::from_value(ConfigValue::Float(128.0)).map(f64::to_bits)
        );
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(f64::from_value(ConfigValue::Float(bad)), None);
        }
        assert_eq!(usize::from_value(ConfigValue::Float(4.0)), None);
        assert_eq!(bool::from_value(ConfigValue::UInt(1)), None);
        // One set of words per kind, from the field being set.
        let mut config = LoasConfig::table3();
        let error = config
            .set("hbm_gbps", ConfigValue::Float(f64::INFINITY))
            .unwrap_err();
        assert_eq!(
            error.to_string(),
            "config field `loas.hbm_gbps` must be a finite number"
        );
        let error = config.set("tppes", ConfigValue::Bool(true)).unwrap_err();
        assert_eq!(
            error.to_string(),
            "config field `loas.tppes` must be a non-negative integer"
        );
        assert_eq!(
            config,
            LoasConfig::table3(),
            "a refused value leaves the field"
        );
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
}

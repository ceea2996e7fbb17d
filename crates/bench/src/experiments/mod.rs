//! One module per regenerated table/figure of the paper's evaluation, plus
//! the per-component `breakdown` of the Fig. 12/13 reports.

use crate::context::Context;
use crate::report::Table;

pub mod ablations;
pub mod breakdown;
pub mod fig05;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod reference;
pub mod sweeps;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

/// An experiment entry point: consumes the shared context, returns tables.
pub type ExperimentFn = fn(&mut Context) -> Vec<Table>;

/// Experiment registry: name → runner (used by the `repro` binary), each
/// runner once, as `all` runs them. Order follows the paper's evaluation
/// section. `breakdown`, last, is not a paper figure: it splits the
/// Fig. 12/13 reports by component.
pub const ALL_EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("fig5", fig05::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("table4", table4::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("fig19", fig19::run),
    ("ablations", ablations::run),
    ("sweeps", sweeps::run),
    ("breakdown", breakdown::run),
];

/// Names that select a registry runner under another name, and that `all`
/// skips: `fig15` is produced together with `table4` (same underlying
/// breakdown).
pub const ALIASES: &[(&str, ExperimentFn)] = &[("fig15", table4::run)];

/// The registry entry or alias called `name`.
pub fn experiment(name: &str) -> Option<(&'static str, ExperimentFn)> {
    ALL_EXPERIMENTS
        .iter()
        .chain(ALIASES)
        .find(|(entry, _)| *entry == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_except_table4_alias() {
        let mut names: Vec<&str> = ALL_EXPERIMENTS
            .iter()
            .chain(ALIASES)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_EXPERIMENTS.len() + ALIASES.len());
        // `fig15` is reached by name only, so `all` runs `table4` once.
        assert!(ALL_EXPERIMENTS.iter().all(|(name, _)| *name != "fig15"));
        assert_eq!(experiment("fig15").map(|(name, _)| name), Some("fig15"));
        assert_eq!(experiment("table4").map(|(name, _)| name), Some("table4"));
        assert!(experiment("fig99").is_none());
    }
}

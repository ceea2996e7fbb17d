//! Table IV / Fig. 15 — area and power breakdown of LoAS and one TPPE.

use crate::context::Context;
use crate::report::{pct, Table};
use loas_core::AreaPowerModel;

/// Regenerates both halves of Table IV plus the Fig. 15 share breakdown.
pub fn run(_ctx: &mut Context) -> Vec<Table> {
    let model = AreaPowerModel::loas_default();
    let system = model.system_table(4);
    let mut sys = Table::new(
        "Table IV (left) — area and power of LoAS",
        vec!["component", "area mm2", "power mW"],
    );
    for c in system.components() {
        sys.push_row(
            c.name.clone(),
            vec![format!("{:.2}", c.area_mm2), format!("{:.1}", c.power_mw)],
        );
    }
    sys.push_row(
        "Total",
        vec![
            format!("{:.2}", system.total_area_mm2()),
            format!("{:.1}", system.total_power_mw()),
        ],
    );
    use super::reference::table4::*;
    sys.push_note(format!(
        "paper totals: {TOTAL_AREA_MM2:.2} mm2, {TOTAL_POWER_MW:.1} mW"
    ));

    let tppe = model.tppe_table();
    let mut pe = Table::new(
        "Table IV (right) — one TPPE",
        vec!["unit", "area mm2", "power mW"],
    );
    for c in tppe.components() {
        pe.push_row(
            c.name.clone(),
            vec![format!("{:.3}", c.area_mm2), format!("{:.2}", c.power_mw)],
        );
    }
    pe.push_row(
        "TPPE total",
        vec![
            format!("{:.3}", tppe.total_area_mm2()),
            format!("{:.2}", tppe.total_power_mw()),
        ],
    );

    let mut fig15 = Table::new(
        "Fig. 15 — on-chip power breakup",
        vec!["component", "share"],
    );
    fig15.push_row(
        "Global cache (system)",
        vec![pct(system.power_share("Global cache").unwrap() * 100.0)],
    );
    fig15.push_row(
        "TPPEs (system)",
        vec![pct(system.power_share("16 TPPEs").unwrap() * 100.0)],
    );
    fig15.push_row(
        "Fast prefix-sum (TPPE)",
        vec![pct(tppe.power_share("Fast Prefix").unwrap() * 100.0)],
    );
    fig15.push_row(
        "Laggy prefix-sum (TPPE)",
        vec![pct(tppe.power_share("Laggy Prefix").unwrap() * 100.0)],
    );
    fig15.push_note(format!("paper: cache {CACHE_POWER_PCT}%, TPPEs {TPPE_POWER_PCT}%; fast prefix {FAST_PREFIX_POWER_PCT}%, laggy {LAGGY_PREFIX_POWER_PCT}%"));
    vec![sys, pe, fig15]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_paper() {
        let tables = run(&mut Context::quick());
        assert_eq!(tables.len(), 3);
        let text = tables[0].to_string();
        assert!(text.contains("2.0"), "system area near 2.08 mm2: {text}");
        for t in &tables {
            assert!(t.is_consistent());
        }
    }
}

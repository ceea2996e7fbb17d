//! Fig. 11 — accuracy trends of the fine-tuned preprocessing. Without the
//! trained networks the trend comes from a synthetic exponential recovery
//! model ([`FineTuneAccuracyModel`]); the hardware results only depend on
//! the sparsity the masking leaves.

use crate::context::Context;
use crate::report::Table;
use loas_snn::FineTuneAccuracyModel;

/// Regenerates Fig. 11: Origin / Mask / FT-e1 / FT-e5 / FT-e10 accuracy for
/// VGG16 and ResNet19.
pub fn run(_ctx: &mut Context) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 11 — accuracy of fine-tuned preprocessing (%)",
        vec!["network", "Origin", "Mask", "FT-e1", "FT-e5", "FT-e10"],
    );
    for (name, model) in [
        ("VGG16", FineTuneAccuracyModel::vgg16()),
        ("ResNet19", FineTuneAccuracyModel::resnet19()),
    ] {
        let points = model.figure11_points();
        t.push_row(
            name,
            points.iter().map(|(_, acc)| format!("{acc:.2}")).collect(),
        );
    }
    use super::reference::fig11::*;
    let (drop_low, drop_high) = MASK_ACCURACY_DROP;
    t.push_note(format!("synthetic recovery model (no trained checkpoints offline): masking costs {drop_low}-{drop_high} points, fine-tuning recovers within ~{RECOVERY_EPOCHS} epochs, as the paper reports"));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_within_five_epochs() {
        let t = &run(&mut Context::quick())[0];
        assert_eq!(t.rows.len(), 2);
        assert!(t.is_consistent());
        for (_, cells) in &t.rows {
            let origin: f64 = cells[0].parse().unwrap();
            let mask: f64 = cells[1].parse().unwrap();
            let e5: f64 = cells[3].parse().unwrap();
            assert!(mask < origin);
            assert!(origin - e5 < 0.5, "recovered by epoch 5");
        }
    }
}

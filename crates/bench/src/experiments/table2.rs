//! Table II — workload sparsity statistics, measured on the generated
//! tensors against the paper's published values.

use crate::context::Context;
use crate::report::{num, Table};
use loas_workloads::networks;

/// Regenerates Table II: for every network and selected layer, the realised
/// `AvSpA-origin / AvSpA-packed (+FT) / AvSpB` next to the paper values.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    let mut t = Table::new(
        "Table II — workload statistics (measured | paper)",
        vec![
            "workload",
            "NL",
            "T",
            "origin%",
            "packed%",
            "packed+FT%",
            "weight%",
        ],
    );
    let paper = super::reference::table2::ROWS;
    // Networks: aggregate over layers (weighted by neuron positions).
    for (spec, paper_row) in [
        (networks::alexnet(), paper[0]),
        (networks::vgg16(), paper[1]),
        (networks::resnet19(), paper[2]),
    ] {
        let layers = ctx.prepared_network(&spec);
        let mut origin = 0.0;
        let mut packed = 0.0;
        let mut packed_ft = 0.0;
        let mut weight = 0.0;
        let mut spike_positions = 0.0;
        let mut weight_positions = 0.0;
        for l in &layers {
            let stats = l.workload.stats();
            let sp = (l.shape.m * l.shape.k) as f64;
            let wp = (l.shape.k * l.shape.n) as f64;
            origin += stats.spike_origin_pct * sp;
            packed += stats.silent_pct * sp;
            packed_ft += stats.silent_ft_pct * sp;
            weight += stats.weight_pct * wp;
            spike_positions += sp;
            weight_positions += wp;
        }
        t.push_row(
            spec.name.clone(),
            vec![
                format!("{}", spec.layers.len()),
                "4".to_owned(),
                format!("{} | {}", num(origin / spike_positions), paper_row.3),
                format!("{} | {}", num(packed / spike_positions), paper_row.4),
                format!("{} | {}", num(packed_ft / spike_positions), paper_row.5),
                format!("{} | {}", num(weight / weight_positions), paper_row.6),
            ],
        );
    }
    // Selected layers.
    for (layer, paper_row) in networks::selected_layers()
        .iter()
        .take(3)
        .zip(paper[3..].iter())
    {
        let workload = layer
            .generate(ctx.generator())
            .expect("table-2 profiles are feasible");
        let stats = workload.stats();
        t.push_row(
            format!("{} ({})", layer.name, layer.shape),
            vec![
                "1".to_owned(),
                "4".to_owned(),
                format!("{} | {}", num(stats.spike_origin_pct), paper_row.3),
                format!("{} | {}", num(stats.silent_pct), paper_row.4),
                format!("{} | {}", num(stats.silent_ft_pct), paper_row.5),
                format!("{} | {}", num(stats.weight_pct), paper_row.6),
            ],
        );
    }
    t.push_note("network rows weight per-layer statistics by M*K (spikes) / K*N (weights)");
    t.push_note("measured values realise the calibrated silent / fire-once / active neuron mixture (loas_workloads::sparsity)");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_rows_present() {
        let mut ctx = Context::quick();
        let t = &run(&mut ctx)[0];
        assert_eq!(t.rows.len(), 6);
        assert!(t.is_consistent());
    }

    #[test]
    fn selected_layer_statistics_match_paper_closely() {
        // Full-size selected layers are cheap enough to check exactly even
        // in tests: V-L8's realised sparsity must sit near the target.
        let ctx = Context::full();
        let v_l8 = networks::selected_layers()[1]
            .generate(ctx.generator())
            .unwrap();
        let stats = v_l8.stats();
        assert!(
            (stats.spike_origin_pct - 88.1).abs() < 1.0,
            "{}",
            stats.spike_origin_pct
        );
        assert!(
            (stats.weight_pct - 96.8).abs() < 0.5,
            "{}",
            stats.weight_pct
        );
    }
}

//! Fig. 5 — off-chip partial-sum traffic of an OP-dataflow accelerator
//! (GoSPA) on SNN layers at T = 1 vs T = 4.

use crate::context::Context;
use crate::report::{ratio, Table};
use loas_baselines::GospaSnn;
use loas_core::{Accelerator, PreparedLayer};
use loas_sim::TrafficClass;
use loas_workloads::networks::{self, profiles};
use loas_workloads::LayerShape;

/// The three layers of Fig. 5 with their network-average profiles.
fn fig5_layers() -> Vec<(&'static str, LayerShape, loas_workloads::SparsityProfile)> {
    let alexnet = networks::alexnet();
    let vgg = networks::vgg16();
    let resnet = networks::resnet19();
    vec![
        ("AlexNet-L1", alexnet.layers[0].shape, profiles::alexnet()),
        ("VGG16-L8", vgg.layers[7].shape, profiles::vgg16()),
        ("ResNet19-L8", resnet.layers[7].shape, profiles::resnet19()),
    ]
}

/// Regenerates Fig. 5: psum off-chip traffic at T = 1 and T = 4.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 5 — off-chip psum traffic on GoSPA-SNN (KB)",
        vec!["layer", "T=1", "T=4", "ratio"],
    );
    let mut ratios = Vec::new();
    for (name, shape, profile) in fig5_layers() {
        let mut row = Vec::new();
        let mut traffic = Vec::new();
        for timesteps in [1usize, 4] {
            let shape_t = LayerShape {
                t: timesteps,
                ..shape
            };
            let workload = ctx
                .generator()
                .generate(&format!("{name}-T{timesteps}"), shape_t, &profile)
                .expect("profiles feasible at T=1 and T=4");
            let report = GospaSnn::default().run_layer(&PreparedLayer::new(&workload));
            let kb = report.stats.dram.get(TrafficClass::Psum) as f64 / 1024.0;
            traffic.push(kb);
            row.push(format!("{kb:.1}"));
        }
        let r = if traffic[0] > 0.0 {
            traffic[1] / traffic[0]
        } else if traffic[1] > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        ratios.push(r);
        row.push(if r.is_finite() {
            ratio(r)
        } else {
            "inf".to_owned()
        });
        t.push_row(name, row);
    }
    use super::reference::fig05::*;
    t.push_note(format!(
        "paper: ~{PSUM_TRAFFIC_T4_OVER_T1:.0}x more psum traffic at T=4 than T=1 on average"
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_never_below_t1() {
        let mut ctx = Context::quick();
        let t = &run(&mut ctx)[0];
        assert_eq!(t.rows.len(), 3);
        assert!(t.is_consistent());
    }
}

//! Golden fig13-grid gate: the whole quick Fig. 13 grid (AlexNet, VGG16
//! and ResNet19, every layer against SparTen-SNN, GoSPA-SNN, Gamma-SNN,
//! LoAS and LoAS(FT)) served through the queue must reproduce the
//! committed report byte for byte.
//!
//! Both fixtures were captured before workload preparation moved from
//! per-bit to per-word builders: the spec is the v2 serialization of the
//! 200-job campaign, and the report is the `report.jsonl` a
//! single-process `loas-serve run` wrote for it. The grid's 40 layers
//! cover odd `K` widths, plain and fine-tuned preparation and every
//! spMspM model, so any change to generation, FT masking, preparation or
//! simulation that moves a statistic shows up here.

use loas_serve::{drain, Queue, RunOptions};

const GOLDEN_SPEC: &str = include_str!("golden/fig13-quick.spec.json");
const GOLDEN_REPORT: &str = include_str!("golden/fig13-quick.report.jsonl");

#[test]
fn served_fig13_quick_grid_matches_golden_report() {
    let root = std::env::temp_dir().join(format!("loas-serve-golden-fig13-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let queue = Queue::init(&root).unwrap();
    let id = queue.enqueue(GOLDEN_SPEC).unwrap().id;
    let options = RunOptions {
        workers: 2,
        ..RunOptions::default()
    };
    let summary = drain(&queue, &options, |_| {}).unwrap();
    assert_eq!(summary.failed, 0);
    let report = std::fs::read_to_string(queue.report_dir(id).join("report.jsonl")).unwrap();
    assert_eq!(report.lines().count(), 200, "40 layers x 5 designs");
    assert!(
        report == GOLDEN_REPORT,
        "served fig13 grid diverged from the golden report"
    );
    let _ = std::fs::remove_dir_all(&root);
}

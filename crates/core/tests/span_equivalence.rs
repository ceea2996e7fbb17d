//! Property tests of the precomputed traffic spans: on random prepared
//! layers, the spans [`PreparedLayer::traffic_spans`] builds and memoizes
//! for each geometry must agree with the original per-access address
//! arithmetic formula by formula. The replay along the spans is checked
//! against the address-arithmetic walk in the accelerator's unit tests.

use loas_core::{PreparedLayer, TrafficSpans};
use loas_sim::LineSpan;
use loas_sparse::POINTER_BITS;
use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};
use proptest::prelude::*;
use std::sync::Arc;

/// Recomputes every span with the replay's original address arithmetic —
/// kept deliberately independent of `TrafficSpans::build`.
fn spans_by_address_arithmetic(
    layer: &PreparedLayer,
    weight_bits: usize,
    line_bytes: usize,
) -> TrafficSpans {
    let shape = layer.shape;
    let line = line_bytes as u64;
    let bm_bytes = (shape.k + POINTER_BITS).div_ceil(8) as u64;
    let manual_span = |addr: u64, bytes: u64| {
        if bytes == 0 {
            LineSpan::default()
        } else {
            let first = addr / line;
            let last = (addr + bytes - 1) / line;
            LineSpan {
                first_line: first,
                n_lines: last - first + 1,
            }
        }
    };
    let mut spans = TrafficSpans {
        weight_bits,
        line_bytes,
        a_bm_bytes: bm_bytes,
        a_bm_span: Vec::new(),
        a_payload_line: Vec::new(),
        a_payload_intra: Vec::new(),
        b_bm_bytes: bm_bytes,
        b_bm_span: Vec::new(),
        b_payload_span: Vec::new(),
        out_row_bytes: ((shape.n + POINTER_BITS) as u64 + (shape.n as u64 / 10) * shape.t as u64)
            .div_ceil(8),
    };
    let mut addr = 0u64;
    for fiber in &layer.a_fibers {
        spans.a_bm_span.push(manual_span(addr, bm_bytes));
        spans.a_payload_line.push((addr + bm_bytes) / line);
        spans.a_payload_intra.push((addr + bm_bytes) % line);
        addr += fiber.storage_bits(shape.t).div_ceil(8) as u64;
    }
    for fiber in layer.b_fibers.iter() {
        spans.b_bm_span.push(manual_span(addr, bm_bytes));
        let payload_bytes = (fiber.nnz() * weight_bits).div_ceil(8) as u64;
        spans
            .b_payload_span
            .push(manual_span(addr + bm_bytes, payload_bytes));
        addr += fiber.storage_bits(weight_bits).div_ceil(8) as u64;
    }
    spans
}

fn generate_layer(
    t: usize,
    m: usize,
    n: usize,
    k: usize,
    profile: (f64, f64, f64, f64),
) -> Option<PreparedLayer> {
    let (origin, silent, silent_ft, weight) = profile;
    let profile = SparsityProfile::from_percentages(origin, silent, silent_ft, weight).ok()?;
    let workload = WorkloadGenerator::default()
        .generate(
            &format!("span-prop-{t}-{m}-{n}-{k}"),
            LayerShape::new(t, m, n, k),
            &profile,
        )
        .ok()?;
    Some(PreparedLayer::new(&workload))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn precomputed_spans_match_address_arithmetic(
        shape in (1usize..=8, 1usize..=24, 1usize..=24, 16usize..=320),
        profile in (55.0f64..90.0, 40.0f64..70.0, 0.0f64..12.0, 80.0f64..99.0),
        geometry in (0usize..3),
    ) {
        let (t, m, n, k) = shape;
        let (origin, silent, ft_extra, weight) = profile;
        let Some(layer) = generate_layer(t, m, n, k, (origin, silent, silent + ft_extra, weight))
        else {
            continue; // infeasible profile draw: nothing to check
        };
        let (weight_bits, line_bytes) = [(8, 64), (16, 64), (8, 32)][geometry];
        let built = layer.traffic_spans(weight_bits, line_bytes);
        let manual = spans_by_address_arithmetic(&layer, weight_bits, line_bytes);
        prop_assert_eq!(built.as_ref(), &manual);
        // Built once per geometry: a second lookup returns the same table.
        prop_assert!(Arc::ptr_eq(&built, &layer.traffic_spans(weight_bits, line_bytes)));
        prop_assert_eq!(
            layer.traffic_spans(8, 64).as_ref(),
            &spans_by_address_arithmetic(&layer, 8, 64)
        );
        // Per-pair payload spans: the (base line, intra offset) form must
        // agree with direct range math at every length.
        let a_bm = manual.a_bm_bytes;
        let mut byte_addr = 0u64;
        for (row, fiber) in layer.a_fibers.iter().enumerate() {
            for payload_bytes in [0u64, 1, 7, 63, 64, 65, 300] {
                prop_assert_eq!(
                    built.a_payload_span(row, payload_bytes),
                    LineSpan::of_range(byte_addr + a_bm, payload_bytes, line_bytes)
                );
            }
            byte_addr += fiber.storage_bits(layer.shape.t).div_ceil(8) as u64;
        }
    }
}

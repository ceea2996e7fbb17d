//! End-to-end pipeline test: a multi-layer SNN whose layers are executed on
//! the LoAS accelerator model one after another (SpinalFlow-style layer
//! order, Fig. 1), feeding each layer's verified output spikes into the
//! next layer — and the whole chain must match the golden `SnnNetwork`.

use loas::snn::DirectEncoder;
use loas::{
    Accelerator, LayerWorkload, LifParams, Loas, PreparedLayer, SnnNetwork, SpikeTensor,
    WorkloadGenerator,
};
use loas::{LayerShape, SparsityProfile};
use std::sync::Arc;

/// Builds a small 3-layer network with pruned weights from the generator.
fn three_layer_network(seed: u64) -> (Vec<LayerWorkload>, SnnNetwork) {
    let profile = SparsityProfile::from_percentages(78.0, 62.0, 70.0, 90.0).unwrap();
    let generator = WorkloadGenerator::new(seed);
    let dims = [(24usize, 16usize), (16, 12), (12, 8)];
    let mut workloads = Vec::new();
    let mut layers = Vec::new();
    for (i, (k, n)) in dims.iter().enumerate() {
        let shape = LayerShape::new(4, 6, *n, *k);
        let w = generator
            .generate(&format!("pipeline-l{i}"), shape, &profile)
            .unwrap();
        layers.push(w.golden_layer());
        workloads.push(w);
    }
    (workloads, SnnNetwork::new(layers).unwrap())
}

#[test]
fn loas_layerwise_execution_matches_network_forward() {
    let (workloads, network) = three_layer_network(99);
    let input = workloads[0].spikes.clone();
    let golden = network.forward(&input).unwrap();

    // Chain LoAS layer by layer: layer l+1 consumes layer l's *verified*
    // accelerator output.
    let mut current: SpikeTensor = input;
    let mut loas = Loas::default().with_verification(true);
    for (i, w) in workloads.iter().enumerate() {
        let chained = LayerWorkload {
            name: format!("chained-l{i}"),
            shape: LayerShape::new(current.timesteps(), current.m(), w.shape.n, current.k()),
            spikes: current.clone(),
            weights: Arc::clone(&w.weights),
            lif: w.lif,
        };
        let report = loas.run_layer(&PreparedLayer::new(&chained));
        current = report.output.expect("verification enabled");
        assert_eq!(
            &current, &golden[i].spikes,
            "layer {i} diverged from the golden network"
        );
    }
}

#[test]
fn direct_encoded_input_flows_through_the_stack() {
    // Direct coding (Section II-A2): analog intensities -> spike trains ->
    // dual-sparse layer -> accelerator, bit-exact end to end.
    let encoder = DirectEncoder::new(4, 123);
    let intensities: Vec<f64> = (0..6 * 32).map(|i| (i % 10) as f64 / 10.0).collect();
    let spikes = encoder.encode(6, 32, &intensities);

    let profile = SparsityProfile::from_percentages(78.0, 62.0, 70.0, 92.0).unwrap();
    let template = WorkloadGenerator::new(5)
        .generate("encode", LayerShape::new(4, 6, 10, 32), &profile)
        .unwrap();
    let workload = LayerWorkload {
        name: "direct-coded".to_owned(),
        shape: template.shape,
        spikes,
        weights: Arc::clone(&template.weights),
        lif: LifParams::new(96, 1),
    };
    let golden = workload.golden_layer().forward(&workload.spikes).unwrap();
    let report = Loas::default()
        .with_verification(true)
        .run_layer(&PreparedLayer::new(&workload));
    assert_eq!(report.output.as_ref().unwrap(), &golden.spikes);
}

#[test]
fn output_sparsity_stays_high_through_the_network() {
    // The Section II-B feature the paper leverages: LIF outputs are much
    // sparser than ANN activations (~90%).
    let (workloads, network) = three_layer_network(7);
    let outputs = network.forward(&workloads[0].spikes).unwrap();
    for (i, output) in outputs.iter().enumerate() {
        let sparsity = output.spikes.origin_sparsity();
        assert!(
            sparsity > 0.5,
            "layer {i} output sparsity too low: {sparsity}"
        );
    }
}

//! Byte pins of the seeded generators: `generate` and `generate_ann` at
//! [`DEFAULT_SEED`] must reproduce these digests exactly.
//!
//! Every report, golden and memo key downstream depends on the generated
//! bytes, so a change to draw order or sampling rules must fail here, in
//! the crate that owns it. The cases cover `T = 1` and `T = 16`, `K` off a
//! 64-bit word boundary, an empty `N`, and weight sparsities 0 and 1.
//! The digests read the weights densified, row by row, as they were
//! pinned.

use loas_sparse::{DenseMatrix, WeightFiber};
use loas_workloads::{
    generate_ann, AnnWorkload, LayerShape, LayerWorkload, SparsityProfile, WorkloadGenerator,
};

/// FNV-1a over the bytes fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn shape(&mut self, shape: LayerShape) {
        for dim in [shape.t, shape.m, shape.n, shape.k] {
            self.u64(dim as u64);
        }
    }

    /// The `k x N` weights of `columns`, row-major, one byte each.
    fn weights(&mut self, k: usize, columns: &[WeightFiber]) {
        let dense = DenseMatrix::from_columns(k, columns);
        for row in 0..k {
            let bytes: Vec<u8> = dense.row(row).iter().map(|&v| v as u8).collect();
            self.bytes(&bytes);
        }
    }
}

fn layer_digest(w: &LayerWorkload) -> u64 {
    let mut d = Digest::new();
    d.bytes(w.name.as_bytes());
    d.shape(w.shape);
    d.u64(w.lif.v_threshold as u64);
    d.u64(w.lif.leak_shift as u64);
    for plane in w.spikes.planes() {
        for m in 0..plane.rows() {
            plane.row(m).words().iter().for_each(|&word| d.u64(word));
        }
    }
    d.weights(w.shape.k, &w.weights);
    d.0
}

fn ann_digest(w: &AnnWorkload) -> u64 {
    let mut d = Digest::new();
    d.bytes(w.name.as_bytes());
    d.shape(w.shape);
    for row in w.activations.iter() {
        d.bytes(&row.to_dense(0));
    }
    d.weights(w.shape.k, &w.weights);
    d.0
}

/// Table II's VGG16 network average, with the weight sparsity replaced.
fn vgg(weight_pct: f64) -> SparsityProfile {
    SparsityProfile::from_percentages(82.3, 74.1, 79.6, weight_pct).unwrap()
}

#[test]
fn generate_at_the_default_seed_is_pinned() {
    let generator = WorkloadGenerator::default();
    let resnet19 = SparsityProfile::from_percentages(68.6, 59.6, 66.1, 96.8).unwrap();
    let cases = [
        (
            "t1",
            LayerShape::new(1, 8, 16, 100),
            vgg(98.2),
            0x06d6_0e84_bc79_cae4,
        ),
        (
            "t16",
            LayerShape::new(16, 4, 8, 130),
            vgg(98.2),
            0xfe45_5042_e945_cda7,
        ),
        (
            "k-odd",
            LayerShape::new(4, 6, 40, 200),
            vgg(98.2),
            0x84e1_7ec7_13b7_18d4,
        ),
        (
            "n0",
            LayerShape::new(4, 5, 0, 64),
            vgg(98.2),
            0x25c7_78f6_7a7c_026a,
        ),
        (
            "m0",
            LayerShape::new(4, 0, 7, 64),
            vgg(98.2),
            0x6ace_bb36_1817_a1a2,
        ),
        (
            "dense-b",
            LayerShape::new(4, 3, 5, 70),
            vgg(0.0),
            0xd436_7bca_7834_23a5,
        ),
        (
            "empty-b",
            LayerShape::new(4, 3, 5, 70),
            vgg(100.0),
            0x6720_1e05_ecaa_8eb9,
        ),
        (
            "resnet",
            LayerShape::new(4, 16, 24, 576),
            resnet19,
            0xd6ff_dff7_31da_a4e3,
        ),
    ];
    for (name, shape, profile, pinned) in cases {
        let w = generator.generate(name, shape, &profile).unwrap();
        assert_eq!(layer_digest(&w), pinned, "{name}: generated bytes moved");
    }
}

#[test]
fn generate_ann_at_the_default_seed_is_pinned() {
    let generator = WorkloadGenerator::default();
    let shape = LayerShape::new(1, 16, 12, 100);
    let cases = [
        ("ann", 0.439, 0.982, 0x87d0_339a_fa58_19ea),
        ("ann-dense", 0.0, 0.0, 0x1ef3_478d_b037_a459),
        ("ann-empty", 1.0, 1.0, 0xab33_a6f4_c762_d515),
    ];
    for (name, activation, weight, pinned) in cases {
        let w = generate_ann(&generator, name, shape, activation, weight).unwrap();
        assert_eq!(ann_digest(&w), pinned, "{name}: generated bytes moved");
    }
}

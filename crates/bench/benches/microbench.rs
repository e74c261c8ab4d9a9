//! Criterion microbenches for the Homunculus building blocks.
//!
//! These measure the per-component costs behind the compiler loop: the
//! trainer's inner kernels, surrogate fitting/prediction, acquisition
//! scoring, the cycle-level simulators, code generation, and the
//! data-plane histogram update path (the operation a switch performs per
//! packet).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use homunculus_backends::model::{DnnIr, KMeansIr, ModelIr};
use homunculus_backends::target::Target;
use homunculus_backends::taurus::TaurusTarget;
use homunculus_backends::tofino::TofinoTarget;
use homunculus_dataplane::histogram::{Flowmarker, FlowmarkerConfig};
use homunculus_dataplane::packet::Packet;
use homunculus_ml::forest::{ForestConfig, RandomForestRegressor};
use homunculus_ml::kmeans::{KMeans, KMeansConfig};
use homunculus_ml::mlp::{Mlp, MlpArchitecture, TrainConfig};
use homunculus_ml::tensor::Matrix;
use homunculus_optimizer::acquisition::expected_improvement;
use homunculus_optimizer::space::{DesignSpace, Parameter};
use homunculus_optimizer::{BayesianOptimizer, Evaluation, OptimizerOptions};
use homunculus_sim::grid::GridSimulator;
use homunculus_sim::mat::MatSimulator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_tensor(c: &mut Criterion) {
    let a = Matrix::from_fn(64, 64, |r, col| ((r * 31 + col) % 17) as f32 * 0.1);
    let b = Matrix::from_fn(64, 64, |r, col| ((r * 13 + col) % 23) as f32 * 0.1);
    c.bench_function("tensor/matmul_64x64", |bench| {
        bench.iter(|| a.matmul(&b).unwrap())
    });
    // The i-k-j kernel on the BO hot path's real shape: one training
    // batch (256 samples) through a Base-BD-sized layer (30 -> 10).
    let batch = Matrix::from_fn(256, 30, |r, col| ((r * 7 + col) % 29) as f32 / 29.0);
    let weights = Matrix::from_fn(30, 10, |r, col| ((r * 13 + col * 5) % 19) as f32 * 0.05);
    c.bench_function("tensor/matmul_ikj_256x30x10", |bench| {
        bench.iter(|| batch.matmul(&weights).unwrap())
    });
}

fn bench_mlp_training(c: &mut Criterion) {
    let x = Matrix::from_fn(256, 7, |r, col| ((r * 7 + col) % 29) as f32 / 29.0);
    let y: Vec<usize> = (0..256).map(|i| i % 2).collect();
    let arch = MlpArchitecture::new(7, vec![16, 4], 2);
    c.bench_function("mlp/train_epoch_256x7", |bench| {
        bench.iter_batched(
            || Mlp::new(&arch, 0).unwrap(),
            |mut net| {
                net.train(&x, &y, &TrainConfig::default().epochs(1))
                    .unwrap();
                net
            },
            BatchSize::SmallInput,
        )
    });
    let net = Mlp::new(&arch, 0).unwrap();
    c.bench_function("mlp/predict_256x7", |bench| {
        bench.iter(|| net.predict(&x).unwrap())
    });
}

fn bench_surrogate(c: &mut Criterion) {
    let x = Matrix::from_fn(60, 5, |r, col| ((r * 11 + col * 3) % 19) as f32);
    let y: Vec<f32> = (0..60).map(|i| (i as f32 * 0.37).sin()).collect();
    c.bench_function("surrogate/forest_fit_60x5", |bench| {
        bench.iter(|| RandomForestRegressor::fit(&x, &y, &ForestConfig::default()).unwrap())
    });
    let forest = RandomForestRegressor::fit(&x, &y, &ForestConfig::default()).unwrap();
    c.bench_function("surrogate/forest_predict", |bench| {
        bench.iter(|| forest.predict_mean_std(&[1.0, 2.0, 3.0, 4.0, 5.0]))
    });
    c.bench_function("acquisition/expected_improvement", |bench| {
        bench.iter(|| expected_improvement(0.7, 0.2, 0.6, 0.01))
    });
}

fn bench_bo_iteration(c: &mut Criterion) {
    c.bench_function("optimizer/bo_20_iterations_quadratic", |bench| {
        bench.iter(|| {
            let mut space = DesignSpace::new("bench");
            space.add("x", Parameter::real(-5.0, 5.0)).unwrap();
            BayesianOptimizer::new(space, OptimizerOptions::default().budget(20).seed(1))
                .run(|cfg| {
                    let x = cfg.real("x").unwrap();
                    Evaluation::new(-(x * x))
                })
                .unwrap()
        })
    });
}

fn bench_simulators(c: &mut Criterion) {
    let grid = GridSimulator::new(16, 16, 1.0);
    let dnn = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
        7,
        vec![16, 4],
        2,
    )));
    c.bench_function("sim/grid_10k_packets", |bench| {
        bench.iter(|| grid.simulate(&dnn, 10_000).unwrap())
    });
    let mat = MatSimulator::new(12, 4, 1.0);
    let km = ModelIr::KMeans(KMeansIr::from_shape(5, 7));
    c.bench_function("sim/mat_allocate", |bench| {
        bench.iter(|| mat.allocate(&km).unwrap())
    });
}

fn bench_estimators(c: &mut Criterion) {
    let taurus = TaurusTarget::default();
    let tofino = TofinoTarget::default();
    let dnn = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
        30,
        vec![10, 10, 10, 10],
        2,
    )));
    let km = ModelIr::KMeans(KMeansIr::from_shape(5, 7));
    c.bench_function("estimate/taurus_dnn", |bench| {
        bench.iter(|| taurus.estimate(&dnn).unwrap())
    });
    c.bench_function("estimate/tofino_kmeans", |bench| {
        bench.iter(|| tofino.estimate(&km).unwrap())
    });
}

fn bench_codegen(c: &mut Criterion) {
    let arch = MlpArchitecture::new(7, vec![16, 4], 2);
    let net = Mlp::new(&arch, 0).unwrap();
    let dnn = ModelIr::Dnn(DnnIr::from_mlp(&net));
    let taurus = TaurusTarget::default();
    c.bench_function("codegen/spatial_dnn", |bench| {
        bench.iter(|| taurus.generate_code(&dnn, "bench_pipeline").unwrap())
    });
    let km = ModelIr::KMeans(KMeansIr {
        k: 5,
        n_features: 7,
        centroids: Some(vec![vec![0.5; 7]; 5]),
    });
    let tofino = TofinoTarget::default();
    c.bench_function("codegen/p4_kmeans", |bench| {
        bench.iter(|| tofino.generate_code(&km, "bench_pipeline").unwrap())
    });
}

fn bench_dataplane(c: &mut Criterion) {
    let mut marker = Flowmarker::new(FlowmarkerConfig::paper_reduced()).unwrap();
    let mut builder = Packet::builder();
    builder.size_bytes(600).timestamp_ns(1);
    let pkt = builder.build();
    c.bench_function("dataplane/flowmarker_observe", |bench| {
        bench.iter(|| marker.observe(&pkt))
    });
}

fn bench_runtime(c: &mut Criterion) {
    use homunculus_ml::quantize::FixedPoint;
    use homunculus_runtime::{Compile, Scratch};

    let arch = MlpArchitecture::new(7, vec![16, 4], 2);
    let net = Mlp::new(&arch, 0).unwrap();
    let ir = ModelIr::Dnn(DnnIr::from_mlp(&net));
    let pipeline = ir.compile(FixedPoint::taurus_default()).unwrap();
    let features = [0.3f32, -0.7, 0.1, 0.9, -0.2, 0.5, 0.0];
    let mut scratch = Scratch::new();
    c.bench_function("runtime/classify_dnn_7x16x4x2", |bench| {
        bench.iter(|| pipeline.classify(&features, &mut scratch))
    });
    c.bench_function("runtime/float_predict_row_7x16x4x2", |bench| {
        bench.iter(|| net.predict_row(&features).unwrap())
    });
}

fn bench_packed_kernels(c: &mut Criterion) {
    use homunculus_ml::quantize::{FixedPoint, PackedFixed};

    let q = FixedPoint::taurus_default();
    let p = PackedFixed::new(q).expect("Q3.12 packs to i16");
    for n in [16usize, 64, 256] {
        let a: Vec<i32> = (0..n)
            .map(|i| q.quantize(((i * 37 % 41) as f32 / 41.0) * 4.0 - 2.0))
            .collect();
        let b: Vec<i32> = (0..n)
            .map(|i| q.quantize(((i * 23 % 37) as f32 / 37.0) * 4.0 - 2.0))
            .collect();
        let pa = p.pack(&a);
        let pb = p.pack(&b);
        assert_eq!(
            q.fixed_dot(&a, &b),
            p.packed_dot(pa.as_slice(), pb.as_slice(), false),
            "packed_dot must be bit-identical to fixed_dot"
        );
        c.bench_function(&format!("quantize/fixed_dot_{n}"), |bench| {
            bench.iter(|| q.fixed_dot(&a, &b))
        });
        c.bench_function(&format!("quantize/packed_dot_{n}"), |bench| {
            bench.iter(|| p.packed_dot(pa.as_slice(), pb.as_slice(), false))
        });
    }
}

fn bench_kmeans(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    use rand::Rng;
    let x = Matrix::from_fn(400, 7, |_, _| rng.gen_range(0.0..1.0f32));
    c.bench_function("ml/kmeans_fit_k5_400x7", |bench| {
        bench.iter(|| KMeans::fit(&x, &KMeansConfig::new(5)).unwrap())
    });
}

criterion_group!(
    benches,
    bench_tensor,
    bench_mlp_training,
    bench_surrogate,
    bench_bo_iteration,
    bench_simulators,
    bench_estimators,
    bench_codegen,
    bench_dataplane,
    bench_runtime,
    bench_packed_kernels,
    bench_kmeans,
);
criterion_main!(benches);

//! Cross-run determinism, pinned to golden values.
//!
//! `tests/determinism.rs` proves two runs *in the same process* agree;
//! these tests pin the actual values, so a rebuild on another machine — or
//! an accidental change to the vendored PRNG (`vendor/rand`, a frozen
//! xoshiro256++ whose stream is part of this workspace's contract) — fails
//! loudly instead of silently shifting every seeded experiment.

use homunculus::backends::model::{DnnIr, LayerParams, ModelIr, SvmIr};
use homunculus::datasets::nslkdd::NslKddGenerator;
use homunculus::ml::forest::{ForestConfig, RandomForestClassifier};
use homunculus::ml::mlp::MlpArchitecture;
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::ml::tree::{DecisionTreeClassifier, ExportedNode, TreeConfig};
use homunculus::optimizer::space::{Configuration, DesignSpace, Parameter};
use homunculus::optimizer::{BayesianOptimizer, Evaluation, OptimizerOptions};
use homunculus::runtime::{classify_rows, CompiledPipeline, Deployment, Scratch, TenantBatch};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde_json::ToJson;

#[test]
fn stdrng_stream_is_frozen() {
    let mut rng = StdRng::seed_from_u64(42);
    let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [
            15021278609987233951,
            5881210131331364753,
            18149643915985481100,
            12933668939759105464,
        ],
        "vendor/rand's xoshiro256++ stream changed; \
         every seeded dataset and search in the workspace just shifted"
    );
}

#[test]
fn uniform_floats_are_frozen() {
    let mut rng = StdRng::seed_from_u64(42);
    let values: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
    let expected = [
        0.8143051451229099,
        0.3188210400616611,
        0.9838941681774888,
        0.7011355981347556,
    ];
    for (v, e) in values.iter().zip(expected) {
        assert_eq!(*v, e, "gen_range float mapping changed");
    }
}

#[test]
fn nslkdd_generator_fingerprint() {
    let ds = NslKddGenerator::new(42).generate(100);
    let row0: Vec<f32> = ds.features().row(0).to_vec();
    let expected = [
        1.5610657f32,
        0.16666462,
        0.46970788,
        0.07237374,
        2.3346148,
        0.8884795,
        3.5394647,
    ];
    assert_eq!(row0.len(), expected.len());
    for (v, e) in row0.iter().zip(expected) {
        assert_eq!(*v, e, "NslKddGenerator(42) first row drifted");
    }
    assert_eq!(&ds.labels()[..10], &[1, 1, 0, 0, 0, 0, 0, 0, 1, 1]);
}

/// A handcrafted trained DNN IR (rational weights, ReLU — no libm
/// anywhere on the path, only IEEE-exact +,*,/,sqrt and integer ops).
fn handcrafted_dnn_ir() -> ModelIr {
    let arch = MlpArchitecture::new(7, vec![8], 2);
    let dims = arch.layer_dims();
    let params: Vec<LayerParams> = dims
        .iter()
        .enumerate()
        .map(|(layer, &(input, output))| LayerParams {
            weights: Matrix::from_fn(input, output, |r, c| {
                ((layer * 59 + r * 31 + c * 17) % 23) as f32 / 23.0 - 0.5
            }),
            bias: (0..output)
                .map(|j| ((layer * 13 + j * 7) % 11) as f32 / 11.0 - 0.5)
                .collect(),
        })
        .collect();
    ModelIr::Dnn(DnnIr {
        arch,
        params: Some(params),
    })
}

/// A handcrafted binary SVM IR with rational weights over the 7 NSL-KDD
/// features.
fn handcrafted_svm_ir() -> ModelIr {
    ModelIr::Svm(SvmIr {
        n_features: 7,
        n_classes: 2,
        planes: Some((
            vec![(0..7).map(|c| (c as f32 - 3.0) / 4.0).collect()],
            vec![0.25],
        )),
    })
}

#[test]
fn compiled_pipeline_classification_fingerprint() {
    // Lower the handcrafted DNN and classify the frozen NSL-KDD-like
    // stream. The verdict sequence is part of the workspace's contract: a
    // change here means the compiled integer path itself shifted.
    let ds = NslKddGenerator::new(42).generate(200);
    let norm = ds.fit_normalizer();
    let nds = ds.normalized(&norm).unwrap();
    let pipeline =
        CompiledPipeline::from_ir(&handcrafted_dnn_ir(), FixedPoint::taurus_default()).unwrap();

    let mut scratch = Scratch::new();
    let verdicts: Vec<usize> = (0..32)
        .map(|i| pipeline.classify(nds.features().row(i), &mut scratch))
        .collect();
    let expected = [
        0usize, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1,
        1, 1, 1,
    ];
    assert_eq!(
        verdicts,
        expected.to_vec(),
        "compiled integer classification drifted on the frozen stream"
    );
    // Checksum over the whole stream pins the tail too.
    let checksum: usize = (0..nds.len())
        .map(|i| pipeline.classify(nds.features().row(i), &mut scratch) * (i + 1))
        .sum();
    assert_eq!(checksum, 17_777, "compiled verdict checksum drifted");
}

#[test]
fn served_multi_tenant_verdicts_fingerprint() {
    // Two handcrafted tenants serve the frozen normalized stream over
    // several pool shapes (e.g. 3 workers at 7-row dispatch granularity).
    // Because the serving layer writes into pre-assigned slots, the
    // interleaved per-tenant verdict sequence is bit-wise deterministic no
    // matter how the workers get scheduled — this pins it so
    // dispatch-order nondeterminism can never silently leak into results.
    let ds = NslKddGenerator::new(42).generate(200);
    let norm = ds.fit_normalizer();
    let nds = ds.normalized(&norm).unwrap();
    let format = FixedPoint::taurus_default();

    for (workers, chunk) in [(1, 0), (3, 7), (8, 1)] {
        let deployment = Deployment::builder()
            .workers(workers)
            .chunk_rows(chunk)
            .build();
        let dnn = deployment
            .add_model("dnn_app", &handcrafted_dnn_ir(), format, None)
            .unwrap();
        let svm = deployment
            .add_model("svm_app", &handcrafted_svm_ir(), format, None)
            .unwrap();
        let tickets = [
            deployment
                .submit(TenantBatch::new(dnn, nds.features().clone()))
                .unwrap(),
            deployment
                .submit(TenantBatch::new(svm, nds.features().clone()))
                .unwrap(),
        ];
        let verdicts: Vec<Vec<usize>> = tickets
            .into_iter()
            .map(|ticket| ticket.wait().into_vec())
            .collect();
        let expected_dnn = [
            0usize, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1,
            0, 1, 1, 1, 1,
        ];
        let expected_svm = [
            1usize, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1,
            0, 1, 1, 0, 0,
        ];
        assert_eq!(
            &verdicts[0][..32],
            &expected_dnn,
            "workers={workers} chunk={chunk}: dnn tenant verdicts drifted"
        );
        assert_eq!(
            &verdicts[1][..32],
            &expected_svm,
            "workers={workers} chunk={chunk}: svm tenant verdicts drifted"
        );
        // Position-weighted checksum over the full interleaved output
        // pins the tails of both tenants.
        let checksum: usize = verdicts
            .iter()
            .enumerate()
            .map(|(batch, verdicts)| {
                verdicts
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| v * (i + 1) * (batch * 2 + 1))
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(checksum, 50_483, "served verdict checksum drifted");
        // Stats are deterministic too (timing aside).
        let snapshot = deployment.stats_snapshot();
        assert_eq!(snapshot.tenants[0].packets, 200);
        assert_eq!(snapshot.tenants[1].packets, 200);
        assert_eq!(snapshot.total_packets(), 400);
        deployment.shutdown();
    }
}

#[test]
fn deployed_verdicts_fingerprint_matches_call_at_a_time_path() {
    // The persistent Deployment must be bit-identical to classifying the
    // same tenant batches one call at a time on a single thread, under
    // any worker count: same handcrafted tenants, same frozen stream,
    // same pinned checksum (50_483, the PR-3 golden value). A drift here
    // means the resident workers leaked scheduling nondeterminism into
    // results.
    let ds = NslKddGenerator::new(42).generate(200);
    let norm = ds.fit_normalizer();
    let nds = ds.normalized(&norm).unwrap();
    let format = FixedPoint::taurus_default();

    let reference: Vec<Vec<usize>> = [handcrafted_dnn_ir(), handcrafted_svm_ir()]
        .iter()
        .map(|ir| {
            classify_rows(
                &CompiledPipeline::from_ir_scalar(ir, format).unwrap(),
                nds.features(),
            )
        })
        .collect();

    // Sweep worker counts AND queue depths: at depth 1 the second submit
    // blocks until the first ticket completes, at depth 2 the workers
    // share both tickets' chunks — neither may leak into verdict bytes.
    for (workers, queue_depth) in [(1, 64), (2, 64), (4, 64), (2, 1), (4, 2)] {
        let deployment = Deployment::builder()
            .workers(workers)
            .chunk_rows(7)
            .queue_depth(queue_depth)
            .build();
        let dnn = deployment
            .add_model("dnn_app", &handcrafted_dnn_ir(), format, None)
            .unwrap();
        let svm = deployment
            .add_model("svm_app", &handcrafted_svm_ir(), format, None)
            .unwrap();
        let tickets = [
            deployment
                .submit(TenantBatch::new(dnn, nds.features().clone()))
                .unwrap(),
            deployment
                .submit(TenantBatch::new(svm, nds.features().clone()))
                .unwrap(),
        ];
        let deployed: Vec<Vec<usize>> = tickets
            .into_iter()
            .map(|ticket| ticket.wait().into_vec())
            .collect();
        assert_eq!(
            deployed, reference,
            "workers={workers} depth={queue_depth}: deployed verdicts diverged"
        );
        let checksum: usize = deployed
            .iter()
            .enumerate()
            .map(|(batch, verdicts)| {
                verdicts
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| v * (i + 1) * (batch * 2 + 1))
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(checksum, 50_483, "deployed verdict checksum drifted");
        let snapshot = deployment.stats_snapshot();
        assert_eq!(snapshot.tenants[0].packets, 200);
        assert_eq!(snapshot.tenants[1].packets, 200);
        assert_eq!(snapshot.total_packets(), 400);
        deployment.shutdown();
    }
}

#[test]
fn packed_and_scalar_tiers_pin_the_same_golden_checksums() {
    // The default compile() lowers Q3.12 parameters onto packed i16
    // storage; `from_ir_scalar` keeps the i32 reference tier. Both must
    // reproduce the pinned verdict checksum (17_777 per-pipeline, and
    // 50_483 through the serving layer above) — the packed hot path is a
    // storage/instruction change, never a semantic one.
    let ds = NslKddGenerator::new(42).generate(200);
    let norm = ds.fit_normalizer();
    let nds = ds.normalized(&norm).unwrap();
    let format = FixedPoint::taurus_default();

    let packed = CompiledPipeline::from_ir(&handcrafted_dnn_ir(), format).unwrap();
    assert!(
        packed.is_packed(),
        "Q3.12 must lower onto the packed i16 tier by default"
    );
    let scalar = CompiledPipeline::from_ir_scalar(&handcrafted_dnn_ir(), format).unwrap();
    assert!(!scalar.is_packed());

    let mut scratch = Scratch::new();
    for pipeline in [&packed, &scalar] {
        let checksum: usize = (0..nds.len())
            .map(|i| pipeline.classify(nds.features().row(i), &mut scratch) * (i + 1))
            .sum();
        assert_eq!(checksum, 17_777, "verdict checksum drifted on one tier");
    }
    // The batch (structure-of-arrays) path agrees with per-row classify
    // verdict-for-verdict on both tiers.
    let per_row: Vec<usize> = (0..nds.len())
        .map(|i| packed.classify(nds.features().row(i), &mut scratch))
        .collect();
    assert_eq!(packed.classify_batch(nds.features(), 4), per_row);
    assert_eq!(scalar.classify_batch(nds.features(), 4), per_row);
}

#[test]
fn design_space_sampling_fingerprint() {
    let mut space = DesignSpace::new("golden");
    space.add("x", Parameter::real(-1.0, 1.0)).unwrap();
    space.add("n", Parameter::integer(0, 100)).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let config = space.sample(&mut rng);
    assert_eq!(config.real("x"), Some(-0.8892791270433338));
    assert_eq!(config.integer("n"), Some(17));
}

/// FNV-1a over a fitted tree's exported arena: every node's kind, feature,
/// threshold bits, children and class, folded into `hash`.
fn tree_checksum(hash: u64, tree: &DecisionTreeClassifier) -> u64 {
    let words = tree.export_nodes().into_iter().flat_map(|node| match node {
        ExportedNode::Leaf { class } => [0, class as u64, 0, 0, 0],
        ExportedNode::Split {
            feature,
            threshold,
            left,
            right,
        } => [
            1,
            feature as u64,
            u64::from(threshold.to_bits()),
            left as u64,
            right as u64,
        ],
    });
    words.fold(hash, |h, word| {
        (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fitted_tree_and_forest_fingerprints() {
    // Classification trees fitted on the frozen normalized NSL-KDD draw.
    // A change to the split search that moves one threshold bit, one
    // child index or one leaf class moves these.
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let ds = NslKddGenerator::new(42).generate(2_000);
    let nds = ds.normalized(&ds.fit_normalizer()).unwrap();
    let (x, y) = (nds.features(), nds.labels());

    let tree = DecisionTreeClassifier::fit(x, y, 2, &TreeConfig::default().max_depth(6)).unwrap();
    assert_eq!(
        tree_checksum(FNV_OFFSET, &tree),
        0x4c62_38fa_6516_203c,
        "fitted depth-6 tree drifted"
    );

    let config = ForestConfig {
        n_trees: 6,
        tree: TreeConfig::default().max_depth(8).mtry(3),
        sample_fraction: 0.5,
        seed: 7,
    };
    let forest = RandomForestClassifier::fit(x, y, 2, &config).unwrap();
    let checksum = forest.trees().iter().fold(FNV_OFFSET, tree_checksum);
    assert_eq!(
        checksum, 0x5341_30aa_537a_0c50,
        "fitted half-sample forest drifted"
    );
}

/// The search trajectory on a constrained two-parameter space: DOE
/// samples, the phase-1 violation descent, EI under the feasibility
/// classifier, and the every-fourth exploit step, each with its absent or
/// scored objective. The objective draws nothing from the RNG, so a loop
/// refactor that keeps the draw order keeps this fingerprint.
#[test]
fn bo_trajectory_fingerprint() {
    let mut space = DesignSpace::new("trajectory");
    space.add("x", Parameter::real(-5.0, 5.0)).unwrap();
    space.add("n", Parameter::integer(1, 16)).unwrap();
    // Feasible only in a corner: x + n / 4 <= -1. Infeasible points are
    // unscored, as a refused candidate is, and carry their overshoot.
    let objective = |c: &Configuration| {
        let (x, n) = (c.real("x").unwrap(), c.integer("n").unwrap() as f64);
        let overshoot = x + n / 4.0 + 1.0;
        let feasible = overshoot <= 0.0;
        Evaluation::new(feasible.then(|| -(x + 3.0).powi(2) + n))
            .feasible(feasible)
            .with_violation(overshoot)
    };
    let options = OptimizerOptions::default().budget(12).doe_samples(3);
    let mut phase1_seeds = 0;
    let mut exploit_seeds = 0;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..4 {
        let history = BayesianOptimizer::new(space.clone(), options.clone().seed(seed))
            .run(objective)
            .unwrap();
        let points = history.points();
        assert_eq!(points.len(), 12);
        if points[..3].iter().all(|p| !p.evaluation.is_feasible) {
            phase1_seeds += 1;
        }
        // Iteration 7 is an exploit step; it exploits the surrogate mean
        // of feasible points when one precedes it.
        if points[..7].iter().any(|p| p.evaluation.is_feasible) {
            exploit_seeds += 1;
        }
        let text = serde_json::to_string(&history.to_json()).unwrap();
        hash = text.bytes().fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    }
    assert!(phase1_seeds > 0, "no seed starts in the phase-1 hunt");
    assert!(exploit_seeds > 0, "no seed reaches a feasible exploit step");
    assert_eq!(hash, 0xab14_2485_610f_fae0, "the BO trajectory drifted");
}

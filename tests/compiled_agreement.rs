//! Float ↔ fixed agreement: the compiled integer pipeline must reproduce
//! the float reference model's argmax within the tolerance derived from
//! the fixed-point format's `max_error`, for every model family.
//!
//! The disagreement criterion is per family:
//! - score-shaped models (DNN, SVM, KMeans): predictions must match
//!   unless the float decision margin is inside
//!   `CompiledPipeline::score_tolerance` (twice it, since two scores can
//!   each drift by the bound);
//! - decision trees: predictions must match exactly whenever every
//!   visited split has a margin wider than the quantization step.

use homunculus::backends::model::{DnnIr, KMeansIr, ModelIr, SvmIr, TreeIr, TreeNodeIr};
use homunculus::ml::kmeans::{KMeans, KMeansConfig};
use homunculus::ml::mlp::{Activation, Mlp, MlpArchitecture, TrainConfig};
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::svm::{LinearSvm, SvmConfig};
use homunculus::ml::tensor::{argmax, Matrix};
use homunculus::ml::tree::{DecisionTreeClassifier, TreeConfig};
use homunculus::runtime::{CompiledPipeline, Scratch};
use proptest::prelude::*;

fn q() -> FixedPoint {
    FixedPoint::taurus_default()
}

/// Deterministic pseudo-random feature in `[-bound, bound]`.
fn feature(seed: u64, row: usize, col: usize, bound: f32) -> f32 {
    let mix = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((row * 31 + col * 7 + 1) as u64)
        .wrapping_mul(0xD1B54A32D192ED03);
    ((mix >> 33) as f32 / (u32::MAX >> 1) as f32 - 1.0) * bound
}

/// Margin between the best and second-best score.
fn margin(scores: &[f32]) -> f32 {
    let mut best = f32::NEG_INFINITY;
    let mut second = f32::NEG_INFINITY;
    for &s in scores {
        if s > best {
            second = best;
            best = s;
        } else if s > second {
            second = s;
        }
    }
    best - second
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_dnn_argmax_agrees_within_tolerance(
        seed in 0u64..500,
        hidden in 2usize..10,
        activation_pick in 0usize..4,
    ) {
        let activation = [
            Activation::Relu,
            Activation::Linear,
            Activation::Sigmoid,
            Activation::Tanh,
        ][activation_pick];
        let arch = MlpArchitecture::new(4, vec![hidden], 3).with_activation(activation);
        let net = Mlp::new(&arch, seed).unwrap();
        let pipeline = CompiledPipeline::from_ir(&ModelIr::Dnn(DnnIr::from_mlp(&net)), q()).unwrap();
        let tol = pipeline.score_tolerance(2.0).unwrap();
        let mut scratch = Scratch::new();
        for row in 0..16 {
            let features: Vec<f32> = (0..4).map(|c| feature(seed, row, c, 2.0)).collect();
            let float = net.logits_row(&features).unwrap();
            let fixed = pipeline.classify(&features, &mut scratch);
            if argmax(&float) != fixed {
                prop_assert!(
                    margin(&float) <= 2.0 * tol,
                    "{activation:?}: argmax flipped with margin {} > 2*tol {}",
                    margin(&float),
                    2.0 * tol
                );
            }
        }
    }

    #[test]
    fn prop_svm_argmax_agrees_within_tolerance(
        seed in 0u64..500,
        n_classes in 2usize..5,
    ) {
        // Train a quick SVM on separable synthetic clusters.
        let n = 30 * n_classes;
        let x = Matrix::from_fn(n, 3, |r, c| {
            (r % n_classes) as f32 * 2.0 - 2.0 + feature(seed, r, c, 0.4)
        });
        let y: Vec<usize> = (0..n).map(|r| r % n_classes).collect();
        let svm = LinearSvm::fit(&x, &y, n_classes, &SvmConfig::default().epochs(15).seed(seed)).unwrap();
        let pipeline = CompiledPipeline::from_ir(&ModelIr::Svm(SvmIr::from_svm(&svm)), q()).unwrap();
        let tol = pipeline.score_tolerance(4.0).unwrap();
        let mut scratch = Scratch::new();
        for row in 0..16 {
            let features: Vec<f32> = (0..3).map(|c| feature(seed ^ 0xABCD, row, c, 3.0)).collect();
            let float_pred = svm.predict_row(&features).unwrap();
            let fixed_pred = pipeline.classify(&features, &mut scratch);
            if float_pred != fixed_pred {
                let scores = svm.decision_row(&features).unwrap();
                let m = if n_classes == 2 { scores[0].abs() } else { margin(&scores) };
                prop_assert!(m <= 2.0 * tol, "flipped with margin {m} > 2*tol {}", 2.0 * tol);
            }
        }
    }

    #[test]
    fn prop_kmeans_argmin_agrees_within_tolerance(
        seed in 0u64..500,
        k in 2usize..6,
    ) {
        let n = 20 * k;
        let x = Matrix::from_fn(n, 2, |r, c| {
            (r % k) as f32 * 1.5 - 3.0 + feature(seed, r, c, 0.3)
        });
        let model = KMeans::fit(&x, &KMeansConfig::new(k).seed(seed)).unwrap();
        let pipeline = CompiledPipeline::from_ir(&ModelIr::KMeans(KMeansIr::from_kmeans(&model, 2)), q()).unwrap();
        let tol = pipeline.score_tolerance(4.0).unwrap();
        let mut scratch = Scratch::new();
        for row in 0..16 {
            let features: Vec<f32> = (0..2).map(|c| feature(seed ^ 0x5A5A, row, c, 3.5)).collect();
            let float_pred = model.predict_row(&features);
            let fixed_pred = pipeline.classify(&features, &mut scratch);
            if float_pred != fixed_pred {
                // Distances (negated = scores); flip only legal inside band.
                let scores: Vec<f32> = model
                    .centroids()
                    .iter()
                    .map(|c| {
                        -features
                            .iter()
                            .zip(c)
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum::<f32>()
                    })
                    .collect();
                let m = margin(&scores);
                prop_assert!(m <= 2.0 * tol, "flipped with margin {m} > 2*tol {}", 2.0 * tol);
            }
        }
    }

    #[test]
    fn prop_tree_agrees_when_split_margins_are_wide(
        seed in 0u64..500,
        depth in 1usize..6,
    ) {
        let x = Matrix::from_fn(60, 3, |r, c| feature(seed, r, c, 3.0));
        let y: Vec<usize> = (0..60).map(|r| usize::from(feature(seed, r, 0, 3.0) > 0.0)).collect();
        let tree = DecisionTreeClassifier::fit(
            &x,
            &y,
            2,
            &TreeConfig::default().max_depth(depth).seed(seed),
        )
        .unwrap();
        let ir = TreeIr::from_tree(&tree);
        let pipeline = CompiledPipeline::from_ir(&ModelIr::Tree(ir.clone()), q()).unwrap();
        let nodes = ir.nodes.as_ref().unwrap();
        // Disagreement is only legal when some visited split sits within
        // the quantization band of the feature value.
        let band = 2.0 * q().max_error();
        let mut scratch = Scratch::new();
        for row in 0..16 {
            let features: Vec<f32> = (0..3).map(|c| feature(seed ^ 0xF00D, row, c, 3.0)).collect();
            // Walk the float tree, tracking the tightest split margin.
            let mut index = 0usize;
            let mut tightest = f32::INFINITY;
            let float_pred = loop {
                match nodes[index] {
                    TreeNodeIr::Leaf { class } => break class,
                    TreeNodeIr::Split { feature, threshold, left, right } => {
                        tightest = tightest.min((features[feature] - threshold).abs());
                        index = if features[feature] <= threshold { left } else { right };
                    }
                }
            };
            let fixed_pred = pipeline.classify(&features, &mut scratch);
            if tightest > band {
                prop_assert_eq!(
                    float_pred,
                    fixed_pred,
                    "tree flipped with tightest split margin {} > band {}",
                    tightest,
                    band
                );
            }
        }
    }
}

#[test]
fn trained_ad_model_agreement_is_high() {
    // End-to-end statistical check: a trained binary classifier's
    // compiled twin agrees on almost every held-out row.
    let x = Matrix::from_fn(400, 7, |r, c| feature(11, r, c, 1.5));
    let y: Vec<usize> = (0..400)
        .map(|r| usize::from(feature(11, r, 0, 1.5) + 0.5 * feature(11, r, 3, 1.5) > 0.0))
        .collect();
    let arch = MlpArchitecture::new(7, vec![16, 8], 2);
    let mut net = Mlp::new(&arch, 3).unwrap();
    net.train(&x, &y, &TrainConfig::default().epochs(40))
        .unwrap();
    let pipeline = CompiledPipeline::from_ir(&ModelIr::Dnn(DnnIr::from_mlp(&net)), q()).unwrap();

    let float = net.predict(&x).unwrap();
    let fixed = homunculus::runtime::classify_rows(&pipeline, &x);
    let agree = float.iter().zip(&fixed).filter(|(a, b)| a == b).count();
    assert!(
        agree as f64 / x.rows() as f64 > 0.99,
        "compiled deployment flipped {}/{} decisions",
        x.rows() - agree,
        x.rows()
    );
}

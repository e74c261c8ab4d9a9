//! The analytic `score_tolerance` bound holds *directly* on scores.
//!
//! `tests/compiled_agreement.rs` checks the bound indirectly via argmax
//! (a flip is only legal inside the tolerance band). These property tests
//! assert the stronger claim the bound actually makes: for random models
//! of every score-shaped family, the observed float↔fixed score
//! divergence never exceeds `CompiledPipeline::score_tolerance` — on any
//! input inside the stated bound.
//!
//! Weights, biases, and inputs are kept well inside Q3.12's ±8 range so
//! the bound's no-saturation assumption holds (as it does for normalized
//! traffic and trained-scale weights).

use homunculus::backends::model::{DnnIr, KMeansIr, ModelIr, SvmIr};
use homunculus::ml::mlp::{Activation, Mlp, MlpArchitecture};
use homunculus::ml::quantize::FixedPoint;
use homunculus::runtime::{CompiledPipeline, Scratch};
use proptest::prelude::*;

fn q() -> FixedPoint {
    FixedPoint::taurus_default()
}

/// Deterministic pseudo-random value in `[-bound, bound]`.
fn value(seed: u64, row: usize, col: usize, bound: f32) -> f32 {
    let mix = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((row * 31 + col * 7 + 1) as u64)
        .wrapping_mul(0xD1B54A32D192ED03);
    ((mix >> 33) as f32 / (u32::MAX >> 1) as f32 - 1.0) * bound
}

const INPUT_BOUND: f32 = 2.0;

fn inputs(seed: u64, row: usize, dim: usize) -> Vec<f32> {
    (0..dim).map(|c| value(seed, row, c, INPUT_BOUND)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_dnn_scores_stay_inside_tolerance(
        seed in 0u64..1000,
        hidden in 2usize..10,
        depth in 1usize..3,
        activation_pick in 0usize..4,
    ) {
        let activation = [
            Activation::Relu,
            Activation::Linear,
            Activation::Sigmoid,
            Activation::Tanh,
        ][activation_pick];
        let arch = MlpArchitecture::new(4, vec![hidden; depth], 3).with_activation(activation);
        // Fresh (untrained) nets carry small random init weights — the
        // trained-scale regime the bound assumes.
        let net = Mlp::new(&arch, seed).unwrap();
        let pipeline = CompiledPipeline::from_ir(&ModelIr::Dnn(DnnIr::from_mlp(&net)), q()).unwrap();
        let tol = pipeline.score_tolerance(INPUT_BOUND).unwrap();
        prop_assert!(tol.is_finite() && tol > 0.0);
        let mut scratch = Scratch::new();
        for row in 0..12 {
            let features = inputs(seed, row, 4);
            let float = net.logits_row(&features).unwrap();
            let fixed = pipeline.scores(&features, &mut scratch).unwrap();
            for (class, (f, g)) in float.iter().zip(&fixed).enumerate() {
                prop_assert!(
                    (f - g).abs() <= tol,
                    "{activation:?} class {class}: float {f} fixed {g} exceeds tol {tol}"
                );
            }
        }
    }

    #[test]
    fn prop_multiclass_svm_scores_stay_inside_tolerance(
        seed in 0u64..1000,
        n_classes in 3usize..6,
        n_features in 1usize..6,
    ) {
        let weights: Vec<Vec<f32>> = (0..n_classes)
            .map(|p| (0..n_features).map(|c| value(seed, p, c, 1.0)).collect())
            .collect();
        let biases: Vec<f32> = (0..n_classes).map(|p| value(seed ^ 0xB1A5, p, 0, 1.0)).collect();
        let ir = ModelIr::Svm(SvmIr {
            n_features,
            n_classes,
            planes: Some((weights.clone(), biases.clone())),
        });
        let pipeline = CompiledPipeline::from_ir(&ir, q()).unwrap();
        let tol = pipeline.score_tolerance(INPUT_BOUND).unwrap();
        let mut scratch = Scratch::new();
        for row in 0..12 {
            let features = inputs(seed ^ 0x51ED, row, n_features);
            let fixed = pipeline.scores(&features, &mut scratch).unwrap();
            for (plane, (w, b)) in weights.iter().zip(&biases).enumerate() {
                let float: f32 = w.iter().zip(&features).map(|(wi, xi)| wi * xi).sum::<f32>() + b;
                prop_assert!(
                    (float - fixed[plane]).abs() <= tol,
                    "plane {plane}: float {float} fixed {} exceeds tol {tol}",
                    fixed[plane]
                );
            }
        }
    }

    #[test]
    fn prop_binary_svm_score_stays_inside_tolerance(
        seed in 0u64..1000,
        n_features in 1usize..8,
    ) {
        let w: Vec<f32> = (0..n_features).map(|c| value(seed, 0, c, 1.0)).collect();
        let b = value(seed ^ 0xFACE, 0, 0, 1.0);
        let ir = ModelIr::Svm(SvmIr {
            n_features,
            n_classes: 2,
            planes: Some((vec![w.clone()], vec![b])),
        });
        let pipeline = CompiledPipeline::from_ir(&ir, q()).unwrap();
        let tol = pipeline.score_tolerance(INPUT_BOUND).unwrap();
        let mut scratch = Scratch::new();
        for row in 0..12 {
            let features = inputs(seed ^ 0xD00D, row, n_features);
            // Binary scores come back as [-s, s].
            let fixed = pipeline.scores(&features, &mut scratch).unwrap()[1];
            let float: f32 = w.iter().zip(&features).map(|(wi, xi)| wi * xi).sum::<f32>() + b;
            prop_assert!(
                (float - fixed).abs() <= tol,
                "float {float} fixed {fixed} exceeds tol {tol}"
            );
        }
    }

    #[test]
    fn prop_kmeans_negated_distances_stay_inside_tolerance(
        seed in 0u64..1000,
        k in 2usize..6,
        n_features in 1usize..5,
    ) {
        let centroids: Vec<Vec<f32>> = (0..k)
            .map(|i| (0..n_features).map(|c| value(seed, i, c, INPUT_BOUND)).collect())
            .collect();
        let ir = ModelIr::KMeans(KMeansIr {
            k,
            n_features,
            centroids: Some(centroids.clone()),
        });
        let pipeline = CompiledPipeline::from_ir(&ir, q()).unwrap();
        let tol = pipeline.score_tolerance(INPUT_BOUND).unwrap();
        let mut scratch = Scratch::new();
        for row in 0..12 {
            let features = inputs(seed ^ 0xCAFE, row, n_features);
            let fixed = pipeline.scores(&features, &mut scratch).unwrap();
            for (cluster, centroid) in centroids.iter().enumerate() {
                let float: f32 = -centroid
                    .iter()
                    .zip(&features)
                    .map(|(ci, xi)| (xi - ci) * (xi - ci))
                    .sum::<f32>();
                prop_assert!(
                    (float - fixed[cluster]).abs() <= tol,
                    "cluster {cluster}: float {float} fixed {} exceeds tol {tol}",
                    fixed[cluster]
                );
            }
        }
    }

    #[test]
    fn prop_tree_has_no_score_tolerance(seed in 0u64..200) {
        use homunculus::ml::tensor::Matrix;
        use homunculus::ml::tree::{DecisionTreeClassifier, TreeConfig};
        use homunculus::backends::model::TreeIr;

        let x = Matrix::from_fn(40, 2, |r, c| value(seed, r, c, INPUT_BOUND));
        let y: Vec<usize> = (0..40).map(|r| usize::from(value(seed, r, 0, 1.0) > 0.0)).collect();
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default().seed(seed)).unwrap();
        let pipeline = CompiledPipeline::from_ir(&ModelIr::Tree(TreeIr::from_tree(&tree)), q()).unwrap();
        // Trees are verdict-shaped, not score-shaped: no bound to honor.
        prop_assert!(pipeline.score_tolerance(INPUT_BOUND).is_none());
        prop_assert!(pipeline.scores(&[0.0, 0.0], &mut Scratch::new()).is_none());
    }
}

//! Property-based validation of the code generators: for *any* trained
//! architecture in the search space, the emitted Spatial/P4 must be
//! structurally sound.

use homunculus::backends::model::{DnnIr, KMeansIr, ModelIr, SvmIr};
use homunculus::backends::spatial::is_balanced;
use homunculus::backends::target::Target;
use homunculus::backends::taurus::TaurusTarget;
use homunculus::backends::tofino::TofinoTarget;
use homunculus::ml::mlp::{Mlp, MlpArchitecture};
use homunculus::ml::quantize::FixedPoint;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_spatial_dnn_always_balanced(
        input in 1usize..32,
        widths in proptest::collection::vec(2usize..24, 1..6),
        classes in 2usize..6,
        seed in 0u64..100,
    ) {
        let arch = MlpArchitecture::new(input, widths, classes);
        let net = Mlp::new(&arch, seed).unwrap();
        let model = ModelIr::Dnn(DnnIr::from_mlp(&net));
        let code = TaurusTarget::default().generate_code(&model, "prop_test", FixedPoint::taurus_default()).unwrap();
        prop_assert!(is_balanced(&code), "unbalanced delimiters");
        // One dot-product reduce per weight layer.
        prop_assert_eq!(code.matches("Reduce(Reg[T]").count(), arch.depth());
        // The argmax template appears exactly once.
        prop_assert_eq!(code.matches("classOut :=").count(), 1);
    }

    #[test]
    fn prop_p4_kmeans_always_balanced(
        k in 1usize..9,
        n_features in 1usize..12,
        seed in 0u64..50,
    ) {
        let centroids: Vec<Vec<f32>> = (0..k)
            .map(|c| (0..n_features).map(|f| ((c * 7 + f + seed as usize) % 13) as f32 * 0.3).collect())
            .collect();
        let model = ModelIr::KMeans(KMeansIr { k, n_features, centroids: Some(centroids) });
        let code = TofinoTarget::default().generate_code(&model, "prop_kmeans", FixedPoint::taurus_default()).unwrap();
        prop_assert!(is_balanced(&code));
        prop_assert_eq!(code.matches("table cluster_").count(), k);
        // Every feature appears in every cluster table's key.
        prop_assert_eq!(
            code.matches("meta.feature0: range;").count(),
            k,
            "feature keys per cluster table"
        );
    }

    #[test]
    fn prop_p4_svm_tables_track_features(
        n_features in 1usize..10,
        n_classes in 2usize..5,
    ) {
        let planes = vec![vec![0.25f32; n_features]; if n_classes == 2 { 1 } else { n_classes }];
        let biases = vec![0.0f32; planes.len()];
        let model = ModelIr::Svm(SvmIr {
            n_features,
            n_classes,
            planes: Some((planes, biases)),
        });
        let code = TofinoTarget::default().generate_code(&model, "prop_svm", FixedPoint::taurus_default()).unwrap();
        prop_assert!(is_balanced(&code));
        prop_assert_eq!(code.matches("table feature_").count(), n_features);
    }

    #[test]
    fn prop_estimates_monotone_in_model_size(
        input in 2usize..16,
        width in 2usize..24,
        depth in 1usize..5,
    ) {
        let taurus = TaurusTarget::default();
        let small = ModelIr::Dnn(DnnIr::from_architecture(
            &MlpArchitecture::new(input, vec![width; depth], 2),
        ));
        let big = ModelIr::Dnn(DnnIr::from_architecture(
            &MlpArchitecture::new(input, vec![width + 4; depth + 1], 2),
        ));
        let e_small = taurus.estimate(&small).unwrap();
        let e_big = taurus.estimate(&big).unwrap();
        prop_assert!(e_big.resources.get("cus") >= e_small.resources.get("cus"));
        prop_assert!(e_big.resources.get("mus") >= e_small.resources.get("mus"));
        prop_assert!(e_big.performance.latency_ns >= e_small.performance.latency_ns);
    }
}

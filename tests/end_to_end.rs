//! Cross-crate integration: the three paper applications compiled
//! end-to-end on their respective backends.

use homunculus::core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus::core::pipeline::{generate_with, CompilerOptions};
use homunculus::datasets::histogram::FlowmarkerConfig;
use homunculus::datasets::iot::IotTrafficGenerator;
use homunculus::datasets::nslkdd::NslKddGenerator;
use homunculus::datasets::p2p::{flowmarker_dataset, P2pTrafficGenerator};

fn fast() -> CompilerOptions {
    CompilerOptions {
        bo_budget: 8,
        doe_samples: 4,
        train_epochs: 10,
        final_epochs: 20,
        sample_cap: Some(600),
        parallel: true,
        seed: 0,
        time_budget: None,
    }
}

#[test]
fn anomaly_detection_on_taurus() {
    let model = ModelSpec::builder("anomaly_detection")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(1).generate(1_200))
        .build()
        .unwrap();
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(model).unwrap();

    let artifact = generate_with(&platform, &fast()).unwrap();
    let best = artifact.best();
    assert_eq!(best.algorithm, Algorithm::Dnn);
    assert!(best.objective > 0.55, "AD F1 too low: {}", best.objective);
    assert!(best.estimate.resources.get("cus") <= 256.0);
    assert!(best.estimate.performance.latency_ns <= 500.0);
    assert_eq!(best.estimate.performance.throughput_gpps, 1.0);
    assert!(best.code.contains("@spatial object AnomalyDetection"));
}

#[test]
fn traffic_classification_on_tofino() {
    let model = ModelSpec::builder("traffic_classification")
        .optimization_metric(Metric::VMeasure)
        .data(IotTrafficGenerator::new(2).generate(1_000))
        .build()
        .unwrap();
    let mut platform = Platform::tofino();
    platform.constraints_mut().mats(5);
    platform.schedule(model).unwrap();

    let artifact = generate_with(&platform, &fast()).unwrap();
    let best = artifact.best();
    assert_eq!(best.algorithm, Algorithm::KMeans);
    // The hard-regime traffic (45% striped overlap) caps clustering
    // quality well below the clean-archetype ceiling.
    assert!(
        best.objective > 0.08,
        "TC v-measure too low: {}",
        best.objective
    );
    assert!(best.estimate.resources.get("mats") <= 5.0);
    assert!(best.code.contains("table cluster_0"));
}

#[test]
fn botnet_detection_on_taurus_with_flowmarkers() {
    let flows = P2pTrafficGenerator::new(3).generate_flows(350);
    let dataset = flowmarker_dataset(&flows, FlowmarkerConfig::paper_reduced());
    assert_eq!(dataset.n_features(), 30);

    let model = ModelSpec::builder("botnet_detection")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(dataset)
        .build()
        .unwrap();
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(model).unwrap();

    let artifact = generate_with(&platform, &fast()).unwrap();
    let best = artifact.best();
    assert!(best.objective > 0.7, "BD F1 too low: {}", best.objective);
    assert!(best.ir.n_features() == 30);
}

#[test]
fn anomaly_detection_on_fpga() {
    let model = ModelSpec::builder("ad_fpga")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(4).generate(800))
        .build()
        .unwrap();
    let mut platform = Platform::fpga();
    platform.constraints_mut().latency_ns(1_000.0);
    platform.schedule(model).unwrap();

    let artifact = generate_with(&platform, &fast()).unwrap();
    let best = artifact.best();
    assert!(
        best.estimate.resources.get("lut_pct") > 5.36,
        "above loopback floor"
    );
    assert!(best.estimate.resources.get("power_w") > 15.131);
    assert_eq!(best.estimate.resources.get("bram_pct"), 4.15);
}

#[test]
fn svm_and_tree_also_compile() {
    for algorithm in [Algorithm::Svm, Algorithm::DecisionTree] {
        let model = ModelSpec::builder("ad_alt")
            .optimization_metric(Metric::F1)
            .algorithm(algorithm)
            .data(NslKddGenerator::new(5).generate(800))
            .build()
            .unwrap();
        let mut platform = Platform::tofino();
        platform.constraints_mut().mats(16);
        platform.schedule(model).unwrap();
        let artifact = generate_with(&platform, &fast()).unwrap();
        let best = artifact.best();
        assert_eq!(best.algorithm, algorithm);
        assert!(
            best.objective > 0.4,
            "{algorithm:?} objective {}",
            best.objective
        );
        assert!(best.estimate.resources.get("mats") <= 16.0);
    }
}

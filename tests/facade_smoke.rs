//! Compile-time smoke test for the `homunculus` facade: every module path
//! the `examples/` and the docs rely on must resolve through the facade
//! re-exports. Each import below is *used* (not just named) so the paths
//! cannot silently rot into unused-import noise, and the cheap runtime
//! assertions double-check the re-export points at the real crate (same
//! types, same behavior), not a stub.

use homunculus::backends::model::{DnnIr, ModelIr};
use homunculus::backends::target::Target;
use homunculus::backends::taurus::TaurusTarget;
use homunculus::backends::tofino::TofinoTarget;
use homunculus::core::alchemy::{Metric, ModelSpec, Platform};
use homunculus::core::fusion::DEFAULT_OVERLAP_THRESHOLD;
use homunculus::core::pipeline::CompilerOptions;
use homunculus::core::schedule::ScheduleExpr;
use homunculus::dataplane::histogram::{Flowmarker, FlowmarkerConfig};
use homunculus::dataplane::packet::Packet;
use homunculus::datasets::iot::IotTrafficGenerator;
use homunculus::datasets::nslkdd::NslKddGenerator;
use homunculus::datasets::p2p::P2pTrafficGenerator;
use homunculus::ml::metrics::f1_binary;
use homunculus::ml::mlp::MlpArchitecture;
use homunculus::ml::tensor::Matrix;
use homunculus::optimizer::space::{DesignSpace, Parameter};
use homunculus::sim::grid::GridSimulator;
use homunculus::sim::mat::MatSimulator;
use homunculus::sim::pktgen::reaction_time_curve;

#[test]
fn facade_paths_resolve_and_behave() {
    // datasets
    let ds = NslKddGenerator::new(1).generate(50);
    assert_eq!(ds.len(), 50);
    assert!(!IotTrafficGenerator::new(1).generate(10).is_empty());
    assert_eq!(P2pTrafficGenerator::new(1).generate_flows(3).len(), 3);

    // ml
    let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
    assert_eq!(m.rows(), 2);
    assert!(f1_binary(&[0, 1], &[0, 1]).unwrap() > 0.99);
    let arch = MlpArchitecture::new(4, vec![3], 2);
    assert_eq!(arch.depth(), 2);

    // backends: both codegen targets accept a model IR.
    let model = ModelIr::Dnn(DnnIr::from_architecture(&arch));
    assert!(TaurusTarget::default().estimate(&model).is_ok());
    assert!(TofinoTarget::default().estimate(&model).is_ok());

    // dataplane
    let mut marker = Flowmarker::new(FlowmarkerConfig::paper_reduced()).unwrap();
    let mut builder = Packet::builder();
    builder.size_bytes(100).timestamp_ns(1);
    marker.observe(&builder.build());

    // optimizer
    let mut space = DesignSpace::new("smoke");
    space.add("x", Parameter::real(0.0, 1.0)).unwrap();
    assert_eq!(space.len(), 1);

    // sim
    let _ = GridSimulator::new(4, 4, 1.0);
    let _ = MatSimulator::for_target(&TofinoTarget::default());
    let curve = reaction_time_curve(&[4, 8], 100.0, 50.0, |n| {
        (vec![0, 1, 0, 1], vec![0, 1, 0, usize::from(n >= 8)])
    })
    .unwrap();
    assert_eq!(curve.len(), 2);

    // core
    let spec = ModelSpec::builder("smoke")
        .optimization_metric(Metric::F1)
        .data(ds)
        .build()
        .unwrap();
    let _schedule: ScheduleExpr = ScheduleExpr::Leaf(Box::new(spec.clone()));
    let mut platform = Platform::taurus();
    platform.constraints_mut().throughput_gpps(1.0);
    platform.schedule(spec).unwrap();
    let _threshold: f64 = DEFAULT_OVERLAP_THRESHOLD;
    let _ = CompilerOptions::fast();
}

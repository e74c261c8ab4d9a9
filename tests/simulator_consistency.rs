//! The simulators place and time the stages the analytic estimators price:
//! one cost model per target, so their numbers agree by construction and
//! what is left to pin is that placement succeeds exactly when the
//! estimate fits.

use homunculus::backends::model::{DnnIr, ForestIr, KMeansIr, ModelIr, SvmIr, TreeIr};
use homunculus::backends::resources::Constraints;
use homunculus::backends::target::Target;
use homunculus::backends::taurus::TaurusTarget;
use homunculus::backends::tofino::TofinoTarget;
use homunculus::ml::kmeans::{KMeans, KMeansConfig};
use homunculus::ml::mlp::{Mlp, MlpArchitecture, TrainConfig};
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::runtime::Compile;
use homunculus::sim::grid::GridSimulator;
use homunculus::sim::mat::MatSimulator;
use homunculus::sim::pktgen::{LabeledSample, StreamHarness, TimingModel};

fn dnn(input: usize, hidden: Vec<usize>) -> ModelIr {
    ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
        input, hidden, 2,
    )))
}

#[test]
fn grid_simulator_matches_taurus_estimator_resources() {
    let target = TaurusTarget::default();
    let sim = GridSimulator::for_target(&target);
    for model in [
        dnn(7, vec![16, 4]),
        dnn(7, vec![10, 10, 5]),
        dnn(30, vec![10, 10, 10, 10]),
        dnn(30, vec![5, 5, 5, 5, 5, 5, 5, 5, 5, 5]),
    ] {
        let est = target.estimate(&model).unwrap();
        let stages = sim.lower(&model).unwrap();
        let sim_cus: usize = stages.iter().map(|s| s.cus).sum();
        let sim_mus: usize = stages.iter().map(|s| s.mus).sum();
        assert_eq!(est.resources.get("cus") as usize, sim_cus);
        assert_eq!(est.resources.get("mus") as usize, sim_mus);
    }
}

#[test]
fn grid_simulator_latency_matches_estimator() {
    let target = TaurusTarget::default();
    let sim = GridSimulator::for_target(&target);
    for model in [dnn(7, vec![16, 4]), dnn(30, vec![10, 10, 10, 10])] {
        let est = target.estimate(&model).unwrap();
        let report = sim.simulate(&model, 100).unwrap();
        assert_eq!(est.performance.latency_ns, report.latency_ns);
        assert_eq!(est.performance.throughput_gpps, report.throughput_gpps);
    }
}

#[test]
fn mat_simulator_matches_tofino_mat_costs() {
    let target = TofinoTarget::default();
    let sim = MatSimulator::for_target(&target);
    for k in 1..=5 {
        let model = ModelIr::KMeans(KMeansIr::from_shape(k, 7));
        let est = target.estimate(&model).unwrap();
        let report = sim.simulate(&model, 10).unwrap();
        assert_eq!(est.resources.get("mats") as usize, report.tables_used);
        assert_eq!(est.performance.latency_ns, report.latency_ns);
    }
}

#[test]
fn feasibility_verdicts_agree_under_paper_constraints() {
    let target = TaurusTarget::default();
    let sim = GridSimulator::for_target(&target);
    let constraints = Constraints::new().throughput_gpps(1.0).latency_ns(500.0);
    for (model, _label) in [
        (dnn(7, vec![16, 4]), "base-ad"),
        (dnn(7, vec![48, 24, 12]), "large"),
        (dnn(30, vec![10, 10, 10, 10]), "base-bd"),
    ] {
        let est_ok = target.check(&model, &constraints).unwrap().is_feasible();
        let rep = sim.simulate(&model, 50).unwrap();
        let sim_ok = rep.throughput_gpps >= 1.0 && rep.latency_ns <= 500.0;
        assert_eq!(est_ok, sim_ok);
    }
}

#[test]
fn stream_harness_runs_compiled_pipeline_with_grid_timing() {
    // The consistency path end to end: train a model, simulate its timing
    // on the grid, and replay a stream through the *compiled integer*
    // pipeline — the same arithmetic the generated hardware executes.
    let x = Matrix::from_fn(400, 7, |r, c| {
        let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
        sign * (0.8 + 0.02 * ((r + c) % 7) as f32)
    });
    let y: Vec<usize> = (0..400).map(|r| usize::from(r % 2 == 0)).collect();
    let mut net = Mlp::new(&MlpArchitecture::new(7, vec![16, 4], 2), 1).unwrap();
    net.train(&x, &y, &TrainConfig::default().epochs(40))
        .unwrap();
    let model = ModelIr::Dnn(DnnIr::from_mlp(&net));
    let pipeline = model.compile(FixedPoint::taurus_default()).unwrap();

    let sim = GridSimulator::new(16, 16, 1.0);
    let report = sim.simulate(&model, 1_000).unwrap();
    let harness = StreamHarness::new(TimingModel::from_grid(&report));
    let stream: Vec<LabeledSample> = (0..400)
        .map(|i| LabeledSample {
            features: x.row(i).to_vec(),
            label: y[i],
        })
        .collect();
    let out = harness.run_compiled(&stream, &pipeline).unwrap();
    assert_eq!(out.packets, 400);
    assert!(out.f1 > 0.95, "compiled integer f1 {}", out.f1);
    // Line-rate pipeline: 1 packet/ns admission, sub-500ns verdicts.
    assert!(out.reaction_time_ns < 500.0);
    assert!(out.achieved_gpps > 0.9);

    // The float closure stays available as the reference oracle, and the
    // two paths must tell the same accuracy story.
    let float = harness
        .run(&stream, |f| net.predict_row(f).unwrap())
        .unwrap();
    assert!(
        (float.f1 - out.f1).abs() < 0.05,
        "float f1 {} vs compiled f1 {}",
        float.f1,
        out.f1
    );
}

#[test]
fn stream_harness_runs_compiled_kmeans_with_mat_timing() {
    // Same consistency story on the MAT pipeline: a trained KMeans is
    // compiled to integer distance kernels and replayed with the MAT
    // simulator's timing model.
    let x = Matrix::from_fn(300, 2, |r, c| (r % 3) as f32 * 2.5 - 2.5 + 0.05 * c as f32);
    let km = KMeans::fit(&x, &KMeansConfig::new(3)).unwrap();
    let model = ModelIr::KMeans(KMeansIr::from_kmeans(&km, 2));
    let pipeline = model.compile(FixedPoint::taurus_default()).unwrap();

    let sim = MatSimulator::for_target(&TofinoTarget::default());
    let report = sim.simulate(&model, 300).unwrap();
    let harness = StreamHarness::new(TimingModel::from_mat(&report));
    let float_labels = km.predict(&x);
    let stream: Vec<LabeledSample> = (0..x.rows())
        .map(|i| LabeledSample {
            features: x.row(i).to_vec(),
            label: float_labels[i],
        })
        .collect();
    let out = harness.run_compiled(&stream, &pipeline).unwrap();
    assert_eq!(out.packets, 300);
    // Labels are the float model's own assignments, so accuracy here IS
    // float<->fixed agreement.
    assert!(out.accuracy > 0.99, "agreement {}", out.accuracy);
    // Elapsed includes the pipeline drain, so the achieved rate sits just
    // under the MAT line rate.
    assert!(out.achieved_gpps > 0.5 * report.throughput_gpps);
    assert!(out.achieved_gpps <= report.throughput_gpps + 1e-9);
}

#[test]
fn oversized_models_flagged_by_both_paths() {
    let tiny_grid = TaurusTarget::new(4, 4);
    let sim = GridSimulator::for_target(&tiny_grid);
    let big = dnn(30, vec![64, 64]);
    let constraints = Constraints::new().throughput_gpps(1.0);
    assert!(!tiny_grid.check(&big, &constraints).unwrap().is_feasible());
    let report = sim.simulate(&big, 10).unwrap();
    assert!(report.throughput_gpps < 1.0);
    let stages = sim.lower(&big).unwrap();
    assert!(sim.place(&stages).is_err(), "placement must also reject");
}

/// Shapes of all five families, small to oversized.
fn every_family() -> Vec<ModelIr> {
    vec![
        dnn(7, vec![16, 4]),
        dnn(7, vec![10, 10, 5]),
        dnn(30, vec![5, 5, 5, 5, 5, 5, 5, 5, 5, 5]),
        dnn(64, vec![31]),
        dnn(30, vec![64, 64]),
        ModelIr::Svm(SvmIr::from_shape(7, 2)),
        ModelIr::Svm(SvmIr::from_shape(30, 5)),
        ModelIr::KMeans(KMeansIr::from_shape(1, 7)),
        ModelIr::KMeans(KMeansIr::from_shape(5, 7)),
        ModelIr::KMeans(KMeansIr::from_shape(40, 30)),
        ModelIr::Tree(TreeIr::from_shape(4, 7, 16)),
        ModelIr::Tree(TreeIr::from_shape(12, 30, 200)),
        ModelIr::Tree(TreeIr::from_shape(20, 7, 100)),
        ModelIr::Forest(ForestIr::from_shape(3, 4, 7, 16)),
        ModelIr::Forest(ForestIr::from_shape(8, 6, 30, 64)),
    ]
}

#[test]
fn simulators_place_and_time_what_the_estimators_price() {
    for rows in (4..=32).step_by(4) {
        for cols in (4..=32).step_by(4) {
            let target = TaurusTarget::new(rows, cols);
            let sim = GridSimulator::for_target(&target);
            for model in every_family() {
                let Ok(est) = target.estimate(&model) else {
                    assert!(sim.simulate(&model, 10).is_err(), "{rows}x{cols} {model:?}");
                    continue;
                };
                let report = sim.simulate(&model, 100).unwrap();
                assert_eq!(report.latency_ns, est.performance.latency_ns);
                assert_eq!(report.throughput_gpps, est.performance.throughput_gpps);
                let fits = est.performance.throughput_gpps == target.clock_ghz;
                assert_eq!(fits, report.initiation_interval == 1);
                match sim.place(&sim.lower(&model).unwrap()) {
                    Ok(placement) => {
                        assert!(fits, "{rows}x{cols}: placed an unfit {model:?}");
                        let cus = placement.units.iter().filter(|u| u.is_cu).count();
                        let mus = placement.units.len() - cus;
                        assert_eq!(cus as f64, est.resources.get("cus"));
                        assert_eq!(mus as f64, est.resources.get("mus"));
                    }
                    Err(_) => assert!(!fits, "{rows}x{cols}: refused a fitting {model:?}"),
                }
            }
        }
    }
    for mats in 1..=48 {
        let target = TofinoTarget::with_mats(mats);
        let sim = MatSimulator::for_target(&target);
        for model in every_family() {
            let est = target.estimate(&model).ok();
            let fits = est
                .as_ref()
                .is_some_and(|e| e.performance.throughput_gpps == target.line_rate_gpps);
            assert_eq!(sim.allocate(&model).is_ok(), fits, "{mats} MATs {model:?}");
            if let (Some(est), true) = (est, fits) {
                let report = sim.simulate(&model, 10).unwrap();
                assert_eq!(report.latency_ns, est.performance.latency_ns);
                assert_eq!(report.throughput_gpps, est.performance.throughput_gpps);
                assert_eq!(report.tables_used as f64, est.resources.get("mats"));
                assert_eq!(report.stages_used as f64, est.resources.get("stages"));
            }
        }
    }

    // The three places where the simulators' copies of the cost model
    // used to disagree with the estimators.
    let taurus = TaurusTarget::default();
    let grid = GridSimulator::for_target(&taurus);
    // 1. The fixed stage's 2 CUs and 1 MU count: dnn(64, [31], 2) is 258
    //    CUs on a 256-slot grid, so II 2, 0.5 GPkt/s and no placement.
    let wide = dnn(64, vec![31]);
    assert_eq!(taurus.estimate(&wide).unwrap().resources.get("cus"), 258.0);
    let report = grid.simulate(&wide, 100).unwrap();
    assert_eq!(
        (report.initiation_interval, report.throughput_gpps),
        (2, 0.5)
    );
    assert!(grid.place(&grid.lower(&wide).unwrap()).is_err());
    // 2. Trees are placed on the grid: a depth-4 tree is timed at the
    //    30 ns Taurus estimates for it.
    let tree = ModelIr::Tree(TreeIr::from_shape(4, 7, 16));
    assert_eq!(taurus.estimate(&tree).unwrap().performance.latency_ns, 30.0);
    assert_eq!(grid.simulate(&tree, 10).unwrap().latency_ns, 30.0);
    assert!(grid.place(&grid.lower(&tree).unwrap()).is_ok());
    // 3. The default Tofino packs 4 tables per stage with a two-stage
    //    floor: KMeans k = 1-3, SVM-7 and tree-7 all walk 2 stages.
    let mat = MatSimulator::for_target(&TofinoTarget::default());
    for model in [
        ModelIr::KMeans(KMeansIr::from_shape(1, 7)),
        ModelIr::KMeans(KMeansIr::from_shape(3, 7)),
        ModelIr::Svm(SvmIr::from_shape(7, 2)),
        ModelIr::Tree(TreeIr::from_shape(4, 7, 16)),
    ] {
        assert_eq!(
            mat.simulate(&model, 10).unwrap().latency_ns,
            116.0,
            "{model:?}"
        );
    }
}

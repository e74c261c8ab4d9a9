//! Portable session checkpoints: save → load → resume, bit-identically.
//!
//! The compile-as-a-service contract: a [`Searched`] stage persisted as a
//! `homunculus.checkpoint/v1` document (JSON or the compact `HJB1` binary
//! form) and resumed by a **fresh** [`Compiler`] in this process must
//! finish the compile bit-identically to the run that was never
//! interrupted — same winner, same artifact bytes, same served verdicts on
//! the frozen stream. Corrupted or foreign checkpoints must fail with the
//! typed [`CoreError::Checkpoint`] error, never a panic. The golden half
//! pins the PR-3 serving checksum `50_483` through the binary wire format.

use homunculus::backends::model::{DnnIr, LayerParams, ModelIr, SvmIr};
use homunculus::core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus::core::pipeline::{CompiledArtifact, CompilerOptions};
use homunculus::core::session::{CompileEvent, Compiler};
use homunculus::core::CoreError;
use homunculus::datasets::nslkdd::NslKddGenerator;
use homunculus::ml::mlp::MlpArchitecture;
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::runtime::{Deployment, TenantBatch};
use serde_json::ToJson;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The two-model schedule (`ad_a >> ad_b`) used throughout: small enough
/// to search in test time, big enough to exercise the model-level fan-out.
fn two_model_platform() -> Platform {
    let a = ModelSpec::builder("ad_a")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(1).generate(500))
        .build()
        .unwrap();
    let b = ModelSpec::builder("ad_b")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(2).generate(500))
        .build()
        .unwrap();
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(a >> b).unwrap();
    platform
}

fn tiny_options() -> CompilerOptions {
    CompilerOptions {
        bo_budget: 6,
        doe_samples: 3,
        train_epochs: 8,
        final_epochs: 12,
        sample_cap: Some(400),
        parallel: true,
        seed: 0,
        time_budget: None,
    }
}

/// Serves the frozen NSL-KDD stream through a deployment built from
/// `artifact`; returns per-tenant verdicts in schedule order.
fn serve_frozen_stream(artifact: &CompiledArtifact, workers: usize) -> Vec<Vec<usize>> {
    let stream = NslKddGenerator::new(42).generate(200);
    let deployment = artifact
        .build_deployment(Deployment::builder().workers(workers).chunk_rows(7))
        .unwrap();
    let tickets: Vec<_> = artifact
        .reports()
        .iter()
        .map(|report| {
            let tenant = deployment.tenant_id(&report.name).unwrap();
            deployment
                .submit(TenantBatch::new(tenant, stream.features().clone()))
                .unwrap()
        })
        .collect();
    let verdicts = tickets
        .into_iter()
        .map(|ticket| ticket.wait().into_vec())
        .collect();
    deployment.shutdown();
    verdicts
}

/// Runs an interrupted search (cancel after `cancel_after` BO
/// evaluations) and returns the checkpoint file it wrote.
fn interrupted_checkpoint(platform: &Platform, binary: bool, stem: &str) -> std::path::PathBuf {
    let compiler = Compiler::new(tiny_options());
    let token = compiler.cancel_token();
    let seen = Arc::new(AtomicUsize::new(0));
    let observer = {
        let seen = seen.clone();
        move |event: &CompileEvent| {
            if matches!(event, CompileEvent::CandidateEvaluated { .. })
                && seen.fetch_add(1, Ordering::Relaxed) + 1 >= 2
            {
                token.cancel();
            }
        }
    };
    let truncated = compiler
        .observe(Arc::new(observer))
        .open(platform)
        .unwrap()
        .search()
        .unwrap();
    let ext = if binary { "bin" } else { "json" };
    let path = std::env::temp_dir().join(format!("homunculus_{stem}.checkpoint.{ext}"));
    if binary {
        truncated.save_checkpoint_bin(&path).unwrap();
    } else {
        truncated.save_checkpoint(&path).unwrap();
    }
    path
}

#[test]
fn resumed_compile_is_bit_identical_to_uninterrupted() {
    let platform = two_model_platform();

    // Reference: the run that was never interrupted.
    let reference = Compiler::new(tiny_options())
        .open(&platform)
        .unwrap()
        .search()
        .unwrap();
    let reference_checkpoint = reference.checkpoint_json();
    let reference_artifact = reference
        .train()
        .unwrap()
        .check()
        .unwrap()
        .codegen()
        .unwrap();

    // Interrupt, persist, resume in a fresh Compiler — with deliberately
    // different options, which resume must ignore in favour of the
    // checkpoint's own.
    let path = interrupted_checkpoint(&platform, false, "portability_json");
    // Each model's first draw is over the 16x16 grid: the checkpoint holds
    // a refused point, with no objective.
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"objective\":null"), "no refused point");
    let resumed = Compiler::new(CompilerOptions::default())
        .resume(&platform, &path)
        .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(
        resumed.checkpoint_json(),
        reference_checkpoint,
        "resumed search state diverged from the uninterrupted run"
    );
    let resumed_artifact = resumed.train().unwrap().check().unwrap().codegen().unwrap();
    assert_eq!(
        resumed_artifact.to_json_string().unwrap(),
        reference_artifact.to_json_string().unwrap(),
        "artifact compiled through a checkpoint detour diverged"
    );
    // Same winner, and the serving behaviour is bit-identical too.
    assert_eq!(resumed_artifact.best().ir, reference_artifact.best().ir);
    assert_eq!(
        serve_frozen_stream(&resumed_artifact, 2),
        serve_frozen_stream(&reference_artifact, 2),
        "resumed artifact served different verdicts"
    );
}

#[test]
fn binary_checkpoint_resumes_identically_to_json_one() {
    let platform = two_model_platform();
    let json_path = interrupted_checkpoint(&platform, false, "portability_pair_a");
    let bin_path = interrupted_checkpoint(&platform, true, "portability_pair_b");
    let json_bytes = std::fs::metadata(&json_path).unwrap().len();
    let bin_bytes = std::fs::metadata(&bin_path).unwrap().len();
    assert!(
        bin_bytes < json_bytes,
        "binary checkpoint ({bin_bytes} B) must undercut JSON ({json_bytes} B)"
    );

    let bin_document = serde_json::from_slice_binary(&std::fs::read(&bin_path).unwrap()).unwrap();
    let bin_text = serde_json::to_string(&bin_document).unwrap();
    assert!(bin_text.contains("\"objective\":null"), "no refused point");
    let from_json = Compiler::new(tiny_options())
        .resume(&platform, &json_path)
        .unwrap();
    let from_bin = Compiler::new(tiny_options())
        .resume(&platform, &bin_path)
        .unwrap();
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&bin_path).ok();
    assert_eq!(
        from_json.checkpoint_json(),
        from_bin.checkpoint_json(),
        "the two checkpoint encodings resumed to different states"
    );
}

#[test]
fn corrupt_and_foreign_checkpoints_fail_typed_without_panicking() {
    let platform = two_model_platform();
    let dir = std::env::temp_dir();

    let expect_checkpoint_error = |bytes: &[u8], label: &str| {
        let path = dir.join(format!("homunculus_bad_checkpoint_{label}"));
        std::fs::write(&path, bytes).unwrap();
        let result = Compiler::new(tiny_options()).resume(&platform, &path);
        std::fs::remove_file(&path).ok();
        match result {
            Err(CoreError::Checkpoint(_)) => {}
            other => panic!(
                "{label}: expected CoreError::Checkpoint, got {:?}",
                other.err()
            ),
        }
    };

    // Garbage bytes: neither valid JSON nor a binary document.
    expect_checkpoint_error(b"\xff\xfe not a checkpoint", "garbage");

    // A real checkpoint with its format version bumped.
    let good_path = interrupted_checkpoint(&platform, false, "portability_tamper");
    let text = std::fs::read_to_string(&good_path).unwrap();
    std::fs::remove_file(&good_path).ok();
    expect_checkpoint_error(
        text.replace("homunculus.checkpoint/v1", "homunculus.checkpoint/v9")
            .as_bytes(),
        "wrong_version",
    );

    // A truncated binary document.
    let bin_path = interrupted_checkpoint(&platform, true, "portability_truncate");
    let bin = std::fs::read(&bin_path).unwrap();
    std::fs::remove_file(&bin_path).ok();
    expect_checkpoint_error(&bin[..bin.len() / 2], "truncated");

    // A checkpoint for a different platform (one model vs two).
    let foreign_spec = ModelSpec::builder("other_app")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(3).generate(500))
        .build()
        .unwrap();
    let mut foreign = Platform::taurus();
    foreign
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    foreign.schedule(foreign_spec).unwrap();
    let foreign_path = interrupted_checkpoint(&foreign, false, "portability_foreign");
    let foreign_bytes = std::fs::read(&foreign_path).unwrap();
    std::fs::remove_file(&foreign_path).ok();
    expect_checkpoint_error(&foreign_bytes, "foreign_platform");
}

#[test]
fn binary_artifact_roundtrips_through_build_deployment() {
    let platform = two_model_platform();
    let artifact = Compiler::new(tiny_options())
        .open(&platform)
        .unwrap()
        .compile()
        .unwrap();
    let path = std::env::temp_dir().join("homunculus_portability_test.artifact.bin");
    artifact.save_bin(&path).unwrap();
    let bin_bytes = std::fs::metadata(&path).unwrap().len();
    let json_bytes = artifact.to_json_string().unwrap().len() as u64;
    assert!(
        bin_bytes < json_bytes,
        "binary artifact ({bin_bytes} B) must undercut JSON ({json_bytes} B)"
    );
    let reloaded = CompiledArtifact::load_bin(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(reloaded.best().ir, artifact.best().ir);
    assert_eq!(reloaded.code(), artifact.code());
    let history = &artifact.best().history;
    assert!(
        history.objective_series().contains(&None),
        "no refused point"
    );
    assert_eq!(reloaded.best().history, *history);
    for workers in [1, 4] {
        assert_eq!(
            serve_frozen_stream(&reloaded, workers),
            serve_frozen_stream(&artifact, workers),
            "workers={workers}: binary-reloaded artifact diverged"
        );
    }
}

/// The handcrafted trained DNN IR from `golden_determinism.rs`.
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

/// The handcrafted binary SVM IR from `golden_determinism.rs`.
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
fn golden_serving_checksum_survives_binary_wire_format() {
    // The PR-3 golden (50_483) through the compact binary wire format:
    // both handcrafted IRs take a detour through `to_vec_binary` /
    // `from_slice_binary` before deployment. f32 payloads are encoded
    // bit-exactly, so the checksum must not move.
    let ds = NslKddGenerator::new(42).generate(200);
    let norm = ds.fit_normalizer();
    let nds = ds.normalized(&norm).unwrap();
    let format = FixedPoint::taurus_default();

    let roundtrip = |ir: &ModelIr| -> ModelIr {
        let bytes = serde_json::to_vec_binary(ir.to_json());
        assert!(serde_json::sniff_binary(&bytes), "missing HJB1 magic");
        ModelIr::from_json(&serde_json::from_slice_binary(&bytes).unwrap()).unwrap()
    };
    let dnn_ir = roundtrip(&handcrafted_dnn_ir());
    let svm_ir = roundtrip(&handcrafted_svm_ir());
    assert_eq!(dnn_ir, handcrafted_dnn_ir(), "dnn IR drifted through HJB1");
    assert_eq!(svm_ir, handcrafted_svm_ir(), "svm IR drifted through HJB1");

    for workers in [1, 4] {
        let deployment = Deployment::builder().workers(workers).chunk_rows(7).build();
        let dnn = deployment
            .add_model("dnn_app", &dnn_ir, format, None)
            .unwrap();
        let svm = deployment
            .add_model("svm_app", &svm_ir, format, None)
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
        assert_eq!(
            checksum, 50_483,
            "workers={workers}: golden serving checksum drifted through the binary wire format"
        );
        deployment.shutdown();
    }
}

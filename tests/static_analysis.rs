//! The static verification layer, end to end: a seeded-defect corpus
//! with exact `HA` codes, the `homunculus-analyze` CLI (human and JSON
//! modes, exit codes), the artifact-load validation hook, and the
//! degenerate-normalizer regression through both wire formats.

use std::process::Command;
use std::sync::OnceLock;

use homunculus::analysis::{analyze_model, analyze_models, DiagCode, ModelInput, Severity};
use homunculus::backends::model::{DnnIr, LayerParams, ModelIr, SvmIr};
use homunculus::core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus::core::pipeline::{CompiledArtifact, CompilerOptions};
use homunculus::core::session::{CompileEvent, Compiler};
use homunculus::core::CoreError;
use homunculus::datasets::nslkdd::NslKddGenerator;
use homunculus::ml::mlp::MlpArchitecture;
use homunculus::ml::preprocess::Normalizer;
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::ml::MlError;
use serde_json::{json, ToJson, Value};

/// One small deterministic compile, shared across every test in this
/// binary (the defect corpus derives from mutations of its document).
fn artifact() -> &'static CompiledArtifact {
    static ARTIFACT: OnceLock<CompiledArtifact> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let spec = ModelSpec::builder("anomaly_detection")
            .optimization_metric(Metric::F1)
            .algorithm(Algorithm::Dnn)
            .data(NslKddGenerator::new(1).generate(600))
            .build()
            .unwrap();
        let mut platform = Platform::taurus();
        platform
            .constraints_mut()
            .throughput_gpps(1.0)
            .latency_ns(500.0)
            .grid(16, 16);
        platform.schedule(spec).unwrap();
        let options = CompilerOptions {
            bo_budget: 4,
            doe_samples: 2,
            train_epochs: 8,
            final_epochs: 10,
            sample_cap: Some(400),
            parallel: true,
            seed: 0,
            time_budget: None,
        };
        Compiler::new(options)
            .open(&platform)
            .unwrap()
            .compile()
            .unwrap()
    })
}

/// Runs `homunculus-analyze` over `paths`, returning (exit code, stdout).
fn run_cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_homunculus-analyze"))
        .args(args)
        .output()
        .expect("spawn homunculus-analyze");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("homunculus_test_{name}"))
}

/// Mutable access into a document object's field (the vendored
/// serde_json has no `IndexMut`; defect seeding goes through the enum).
fn field_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Object(map) => map.get_mut(key).expect(key),
        other => panic!("expected object at '{key}', got {other:?}"),
    }
}

fn elem_mut(value: &mut Value, idx: usize) -> &mut Value {
    match value {
        Value::Array(items) => &mut items[idx],
        other => panic!("expected array, got {other:?}"),
    }
}

/// The clean compiled artifact: zero diagnostics of error severity,
/// every kernel certified, CLI exit 0 in both modes, loads pass the
/// validation hook in both wire formats.
#[test]
fn clean_artifact_passes_analyzer_cli_and_load_hook() {
    let artifact = artifact();
    let analysis = artifact.analyze();
    assert!(!analysis.has_errors(), "{}", analysis.render());
    assert!(analysis.saturation_certified());
    assert!(analysis.models.iter().all(|m| m.analyzed));
    artifact.verify().unwrap();

    let json_path = tmp_path("clean.artifact.json");
    let bin_path = tmp_path("clean.artifact.bin");
    artifact.save_json(&json_path).unwrap();
    artifact.save_bin(&bin_path).unwrap();
    CompiledArtifact::load_json(&json_path).unwrap();
    CompiledArtifact::load_bin(&bin_path).unwrap();

    let (code, out) = run_cli(&[json_path.to_str().unwrap(), bin_path.to_str().unwrap()]);
    assert_eq!(code, 0, "CLI failed on a clean artifact:\n{out}");
    assert!(out.contains("certified"), "unexpected CLI output:\n{out}");

    let (code, out) = run_cli(&["--json", json_path.to_str().unwrap()]);
    assert_eq!(code, 0);
    let doc = serde_json::from_str(&out).expect("CLI --json output parses");
    let reports = doc["reports"].as_array().expect("reports array");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0]["errors"].as_i64(), Some(0));
}

/// Satellite regression: a near-zero std is a typed error naming the
/// offending column, surfaced directly at decode...
#[test]
fn degenerate_normalizer_is_a_typed_error_naming_the_column() {
    let doc = json!({ "mean": [0.0, 1.0, 2.0], "std": [1.0, 1.0, 0.0] });
    let err = Normalizer::from_json(&doc).unwrap_err();
    match err {
        MlError::DegenerateNormalizer { column, std } => {
            assert_eq!(column, 2);
            assert_eq!(std, 0.0);
        }
        other => panic!("expected DegenerateNormalizer, got {other:?}"),
    }
    assert!(err.to_string().contains("column 2"), "{err}");
}

/// ...and through both artifact wire formats: a JSON or HJB1 document
/// carrying a degenerate normalizer is refused at load with the column
/// index in the message, and the lenient CLI path flags it as HA0002.
#[test]
fn degenerate_normalizer_is_refused_through_json_and_bin_load() {
    let mut doc = artifact().to_json();
    {
        let report = elem_mut(field_mut(&mut doc, "reports"), 0);
        let std = field_mut(field_mut(report, "normalizer"), "std");
        *elem_mut(std, 1) = json!(0.0);
    }

    let json_path = tmp_path("degenerate.artifact.json");
    std::fs::write(&json_path, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    let err = CompiledArtifact::load_json(&json_path).unwrap_err();
    assert!(err.to_string().contains("column 1"), "{err}");

    let bin_path = tmp_path("degenerate.artifact.bin");
    std::fs::write(&bin_path, serde_json::to_vec_binary(doc.clone())).unwrap();
    let err = CompiledArtifact::load_bin(&bin_path).unwrap_err();
    assert!(err.to_string().contains("column 1"), "{err}");

    // The CLI never hard-fails on a decodable-but-defective document: the
    // lenient path turns the same defect into an HA0002 diagnostic.
    for path in [&json_path, &bin_path] {
        let (code, out) = run_cli(&[path.to_str().unwrap()]);
        assert_eq!(code, 1, "defective artifact must exit nonzero");
        assert!(out.contains("HA0002"), "missing HA0002 in:\n{out}");
        assert!(out.contains("column 1"), "missing column in:\n{out}");
    }
}

/// The seeded-defect corpus, analyzer API side: every defect produces
/// its exact `HA` code at the exact severity.
#[test]
fn seeded_defects_produce_exact_codes() {
    let q312 = FixedPoint::taurus_default();

    // HA0001: a NaN weight (non-finite parameters cannot travel through
    // either wire format — both decoders refuse them — so the seed goes
    // through the in-memory IR).
    let ir = ModelIr::Svm(SvmIr {
        n_features: 3,
        n_classes: 2,
        planes: Some((vec![vec![1.0, f32::NAN, 0.5]], vec![0.0])),
    });
    let analysis = analyze_model(&ModelInput {
        name: "nan",
        ir: &ir,
        format: q312,
        normalizer: None,
        word_bits: None,
    });
    assert!(analysis
        .diagnostics
        .iter()
        .any(|d| d.code == DiagCode::NonFiniteParam && d.severity == Severity::Error));

    // HA0003: a plane narrower than the declared feature width.
    let ir = ModelIr::Svm(SvmIr {
        n_features: 4,
        n_classes: 2,
        planes: Some((vec![vec![1.0, 2.0]], vec![0.0])),
    });
    let analysis = analyze_model(&ModelInput {
        name: "width",
        ir: &ir,
        format: q312,
        normalizer: None,
        word_bits: None,
    });
    assert!(analysis
        .diagnostics
        .iter()
        .any(|d| d.code == DiagCode::WidthMismatch && d.severity == Severity::Error));

    // HA0004: Q12.16 needs 29 bits — a warning with no platform in
    // sight (no packed lane), an error against a 16-bit Taurus word.
    let wide = FixedPoint::new(12, 16).unwrap();
    let ir = ModelIr::Svm(SvmIr {
        n_features: 2,
        n_classes: 2,
        planes: Some((vec![vec![1.0, -1.0]], vec![0.0])),
    });
    let advisory = analyze_model(&ModelInput {
        name: "wide",
        ir: &ir,
        format: wide,
        normalizer: None,
        word_bits: None,
    });
    assert!(advisory
        .diagnostics
        .iter()
        .any(|d| d.code == DiagCode::FormatOverflow && d.severity == Severity::Warning));
    let fatal = analyze_model(&ModelInput {
        name: "wide",
        ir: &ir,
        format: wide,
        normalizer: None,
        word_bits: Some(16),
    });
    assert!(fatal
        .diagnostics
        .iter()
        .any(|d| d.code == DiagCode::FormatOverflow && d.severity == Severity::Error));

    // HA0005: feature 1 is inert in every plane.
    let ir = ModelIr::Svm(SvmIr {
        n_features: 3,
        n_classes: 3,
        planes: Some((
            vec![
                vec![1.0, 0.0, 2.0],
                vec![-1.0, 0.0, 0.5],
                vec![0.25, 0.0, -2.0],
            ],
            vec![0.0, 0.0, 0.0],
        )),
    });
    let analysis = analyze_model(&ModelInput {
        name: "dead",
        ir: &ir,
        format: q312,
        normalizer: None,
        word_bits: None,
    });
    assert!(analysis
        .diagnostics
        .iter()
        .any(|d| d.code == DiagCode::DeadFeature
            && d.severity == Severity::Warning
            && d.message.contains("feature 1")));

    // HA0006: a chained stage whose input width matches neither the base
    // feature width nor base + 1 (prior verdict appended).
    let svm = |n_features: usize| {
        ModelIr::Svm(SvmIr {
            n_features,
            n_classes: 2,
            planes: Some((vec![vec![1.0; n_features]], vec![0.0])),
        })
    };
    let (first, second) = (svm(4), svm(9));
    let inputs = [
        ModelInput {
            name: "stage0",
            ir: &first,
            format: q312,
            normalizer: None,
            word_bits: None,
        },
        ModelInput {
            name: "stage1",
            ir: &second,
            format: q312,
            normalizer: None,
            word_bits: None,
        },
    ];
    let chained = analyze_models(&inputs);
    assert!(chained
        .artifact_diagnostics
        .iter()
        .any(|d| d.code == DiagCode::ChainWidthMismatch && d.severity == Severity::Error));

    // HA0007: a dense layer whose worst-case accumulator provably
    // exceeds i32 (each Q3.12 term tops out near 2^18, so ~2^13 terms
    // overflow) — uncertified, but only a warning: saturation is defined
    // behavior.
    let n = 16_384;
    let arch = MlpArchitecture::new(n, vec![], 2);
    let params = arch
        .layer_dims()
        .iter()
        .map(|&(rows, cols)| LayerParams {
            weights: Matrix::filled(rows, cols, 7.9),
            bias: vec![0.0; cols],
        })
        .collect();
    let ir = ModelIr::Dnn(DnnIr {
        arch,
        params: Some(params),
    });
    let analysis = analyze_model(&ModelInput {
        name: "hot",
        ir: &ir,
        format: q312,
        normalizer: None,
        word_bits: None,
    });
    assert!(analysis
        .diagnostics
        .iter()
        .any(|d| d.code == DiagCode::Uncertified && d.severity == Severity::Warning));
    assert!(!analysis.saturation_certified());
}

/// The corpus, CLI side: undecodable and mutated documents come back as
/// diagnostics with a nonzero exit, never a crash.
#[test]
fn corrupt_and_mutated_artifacts_fail_the_cli_with_exact_codes() {
    // HA0000: not an artifact at all.
    let garbage = tmp_path("garbage.artifact.json");
    std::fs::write(&garbage, "{ this is not json").unwrap();
    let (code, out) = run_cli(&[garbage.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(out.contains("HA0000"), "missing HA0000 in:\n{out}");

    // HA0000: a bit-corrupted binary document.
    let mut bytes = artifact().to_bin_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    bytes.truncate(bytes.len() - 7);
    let corrupt = tmp_path("corrupt.artifact.bin");
    std::fs::write(&corrupt, &bytes).unwrap();
    let (code, out) = run_cli(&[corrupt.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(out.contains("HA0000"), "missing HA0000 in:\n{out}");

    // HA0000: an unknown format tag.
    let mut doc = artifact().to_json();
    *field_mut(&mut doc, "format") = json!("homunculus.artifact/v0");
    let stale = tmp_path("stale.artifact.json");
    std::fs::write(&stale, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    let (code, out) = run_cli(&[stale.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(out.contains("HA0000"), "missing HA0000 in:\n{out}");

    // HA0000 + refused load: a fixed-point width past u32, which a
    // narrowing cast would read as frac_bits = 12.
    let mut doc = artifact().to_json();
    {
        let report = elem_mut(field_mut(&mut doc, "reports"), 0);
        *field_mut(field_mut(report, "fixed_point"), "frac_bits") = json!((1u64 << 32) + 12);
    }
    let text = serde_json::to_string_pretty(&doc).unwrap();
    let wide = tmp_path("wide_format.artifact.json");
    std::fs::write(&wide, &text).unwrap();
    let (code, out) = run_cli(&[wide.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(out.contains("HA0000"), "missing HA0000 in:\n{out}");
    CompiledArtifact::from_json_str(&text).unwrap_err();

    // HA0003 + refused load: a bias value surgically removed from the
    // trained IR. The load hook must refuse what the CLI flags.
    let mut doc = artifact().to_json();
    {
        let report = elem_mut(field_mut(&mut doc, "reports"), 0);
        let model = field_mut(field_mut(report, "ir"), "model");
        let layer0 = elem_mut(field_mut(model, "params"), 0);
        match field_mut(layer0, "bias") {
            Value::Array(bias) => {
                bias.pop();
            }
            other => panic!("expected bias array, got {other:?}"),
        }
    }
    let clipped = tmp_path("clipped.artifact.json");
    std::fs::write(&clipped, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    let (code, out) = run_cli(&[clipped.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(
        out.contains("HA0003") || out.contains("HA0000"),
        "missing width diagnostic in:\n{out}"
    );
    CompiledArtifact::load_json(&clipped).unwrap_err();

    // The JSON report shape survives defects: reports + failed counters.
    let (code, out) = run_cli(&["--json", garbage.to_str().unwrap()]);
    assert_eq!(code, 1);
    let doc = serde_json::from_str(&out).expect("CLI --json output parses");
    assert_eq!(doc["failed"].as_bool(), Some(true));
}

/// The opt-in compile-session gate: a clean compile passes with the gate
/// on, emits `AnalyzerDiagnostic` events only at warning severity, and
/// produces the same artifact as the ungated session.
#[test]
fn compile_gate_passes_clean_compiles_and_emits_diagnostics() {
    use std::sync::{Arc, Mutex};

    let spec = ModelSpec::builder("anomaly_detection")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(1).generate(600))
        .build()
        .unwrap();
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(spec).unwrap();
    let options = CompilerOptions {
        bo_budget: 4,
        doe_samples: 2,
        train_epochs: 8,
        final_epochs: 10,
        sample_cap: Some(400),
        parallel: true,
        seed: 0,
        time_budget: None,
    };

    type SeenDiagnostics = Arc<Mutex<Vec<(Option<String>, Severity)>>>;
    let seen: SeenDiagnostics = Arc::default();
    let sink = Arc::clone(&seen);
    let gated = Compiler::new(options)
        .verify_artifacts(true)
        .observe(Arc::new(move |event: &CompileEvent| {
            if let CompileEvent::AnalyzerDiagnostic { model, diagnostic } = event {
                sink.lock()
                    .unwrap()
                    .push((model.clone(), diagnostic.severity));
            }
        }))
        .open(&platform)
        .unwrap()
        .compile()
        .unwrap();

    let seen = seen.lock().unwrap();
    assert!(
        seen.iter()
            .all(|(_, severity)| *severity == Severity::Warning),
        "gated compile surfaced error diagnostics: {seen:?}"
    );
    // Same models, same verdicts as the ungated baseline compile.
    let baseline = artifact();
    assert_eq!(gated.reports().len(), baseline.reports().len());
    assert_eq!(
        gated.to_json_string().unwrap(),
        baseline.to_json_string().unwrap()
    );

    // The gate is an API error, not a panic, when fed a defective model:
    // exercised here through the load hook's shared verify() path.
    let mut doc = baseline.to_json();
    {
        let report = elem_mut(field_mut(&mut doc, "reports"), 0);
        let std = field_mut(field_mut(report, "normalizer"), "std");
        *elem_mut(std, 0) = json!(f64::from(f32::MIN_POSITIVE) / 1e20);
    }
    let path = tmp_path("gate_defect.artifact.json");
    std::fs::write(&path, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    match CompiledArtifact::load_json(&path) {
        Err(CoreError::Subsystem(msg)) | Err(CoreError::Analysis(msg)) => {
            assert!(msg.contains("column 0"), "{msg}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
}

//! Structural validation of generated Spatial and P4 across backends.

use homunculus::backends::model::{DnnIr, KMeansIr, ModelIr, SvmIr};
use homunculus::backends::spatial::is_balanced;
use homunculus::backends::target::Target;
use homunculus::backends::taurus::TaurusTarget;
use homunculus::backends::tofino::TofinoTarget;
use homunculus::ml::kmeans::{KMeans, KMeansConfig};
use homunculus::ml::mlp::{Mlp, MlpArchitecture, TrainConfig};
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::svm::{LinearSvm, SvmConfig};
use homunculus::ml::tensor::Matrix;

/// The Taurus word, the format every compile lowers with.
fn q312() -> FixedPoint {
    FixedPoint::taurus_default()
}

fn trained_dnn(input: usize, hidden: Vec<usize>) -> ModelIr {
    let arch = MlpArchitecture::new(input, hidden, 2);
    let mut net = Mlp::new(&arch, 1).unwrap();
    let x = Matrix::from_fn(32, input, |r, c| ((r * 3 + c) % 7) as f32 / 7.0);
    let y: Vec<usize> = (0..32).map(|i| i % 2).collect();
    net.train(&x, &y, &TrainConfig::default().epochs(3))
        .unwrap();
    ModelIr::Dnn(DnnIr::from_mlp(&net))
}

#[test]
fn spatial_dnn_has_layer_structure() {
    let taurus = TaurusTarget::default();
    let model = trained_dnn(7, vec![16, 4]);
    let code = taurus
        .generate_code(&model, "test_pipeline", q312())
        .unwrap();
    assert!(is_balanced(&code), "unbalanced code:\n{code}");
    assert!(code.contains("object TestPipeline"));
    // 3 weight layers -> 3 dot-product reduces.
    assert_eq!(code.matches("Reduce(Reg[T]").count(), 3);
    // Double-buffered inter-layer stores.
    assert!(code.contains(".buffer"));
    // Fixed-point type is the Taurus Q3.12.
    assert!(code.contains("FixPt[TRUE, _3, _12]"));
}

#[test]
fn spatial_weight_count_scales_with_architecture() {
    let taurus = TaurusTarget::default();
    let small = taurus
        .generate_code(&trained_dnn(7, vec![4]), "s", q312())
        .unwrap();
    let large = taurus
        .generate_code(&trained_dnn(7, vec![32, 16]), "l", q312())
        .unwrap();
    assert!(
        large.matches(".to[T]").count() > small.matches(".to[T]").count(),
        "bigger net embeds more literals"
    );
}

#[test]
fn p4_kmeans_table_count_matches_k() {
    let tofino = TofinoTarget::default();
    for k in 1..=5 {
        let model = ModelIr::KMeans(KMeansIr {
            k,
            n_features: 7,
            centroids: Some(vec![vec![0.1; 7]; k]),
        });
        let code = tofino.generate_code(&model, "tc", q312()).unwrap();
        assert_eq!(
            code.matches("table cluster_").count(),
            k,
            "k={k} should emit {k} tables"
        );
        assert!(is_balanced(&code));
        assert!(code.contains("parser IngressParser"));
        assert!(code.contains("control IngressDeparser"));
    }
}

fn trained_svm() -> ModelIr {
    let x = Matrix::from_rows(&[
        vec![-2.0, 0.3, 1.0],
        vec![-1.0, -0.3, 0.5],
        vec![2.0, 0.1, -0.5],
        vec![1.0, -0.1, -1.0],
    ])
    .unwrap();
    let svm = LinearSvm::fit(&x, &[0, 0, 1, 1], 2, &SvmConfig::default()).unwrap();
    ModelIr::Svm(SvmIr::from_svm(&svm))
}

#[test]
fn p4_svm_from_trained_model() {
    let model = trained_svm();
    let tofino = TofinoTarget::default();
    let code = tofino.generate_code(&model, "svm_pipe", q312()).unwrap();
    assert_eq!(code.matches("table feature_").count(), 3);
    assert!(code.contains("meta.feature0"));
    assert!(is_balanced(&code));
}

#[test]
fn generated_code_embeds_pipeline_name() {
    let taurus = TaurusTarget::default();
    let model = trained_dnn(7, vec![8]);
    for name in ["anomaly_detection", "my-app", "x9"] {
        let code = taurus.generate_code(&model, name, q312()).unwrap();
        assert!(code.contains(&format!("pipeline: {name}")));
    }
}

#[test]
fn untrained_models_refuse_codegen() {
    let taurus = TaurusTarget::default();
    let shape_only = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
        7,
        vec![8],
        2,
    )));
    assert!(taurus.generate_code(&shape_only, "x", q312()).is_err());
    let tofino = TofinoTarget::default();
    let km = ModelIr::KMeans(KMeansIr::from_shape(3, 7));
    assert!(tofino.generate_code(&km, "x", q312()).is_err());
}

/// The raw words of the P4 entry comment that starts with `label`
/// (`// cluster 0 centroid (Q5.10): [1024, -512]`), and its format tag.
fn entry_comment(code: &str, label: &str) -> (String, Vec<i32>) {
    let line = code
        .lines()
        .map(str::trim)
        .find(|line| line.starts_with(label))
        .unwrap_or_else(|| panic!("no '{label}' comment in:\n{code}"));
    let (tag, list) = line[label.len()..]
        .split_once(": [")
        .unwrap_or_else(|| panic!("malformed entry comment '{line}'"));
    let words = list
        .trim_end_matches(']')
        .split(", ")
        .map(|w| w.parse().unwrap())
        .collect();
    (tag.trim().to_string(), words)
}

/// The literals of the Spatial `LUT` named `name` (`val w0 = LUT[T](..)(..)`).
fn lut_literals<'c>(code: &'c str, name: &str) -> Vec<&'c str> {
    let start = format!("val {name} = LUT[T](");
    let line = code
        .lines()
        .map(str::trim)
        .find(|line| line.starts_with(&start))
        .unwrap_or_else(|| panic!("no LUT '{name}' in:\n{code}"));
    let body = &line[line.find(")(").expect("LUT initializer") + 2..line.len() - 1];
    body.split(", ")
        .map(|lit| lit.strip_suffix(".to[T]").expect("typed literal"))
        .collect()
}

/// The generators honour the format they are given: at Q5.10 every P4
/// weight, centroid and bias entry of a trained SVM and KMeans is that
/// format's quantization of the IR value, and a trained DNN's Spatial
/// program declares `FixPt[TRUE, _5, _10]` with literals rounded
/// through it. (At Q3.12 the assertions above and in the backends' unit
/// tests pin the same generators.)
#[test]
fn generators_honour_the_format_they_are_given() {
    let q510 = FixedPoint::new(5, 10).unwrap();
    let quantized = |values: &mut dyn Iterator<Item = f32>| -> Vec<i32> {
        values.map(|v| q510.quantize(v)).collect()
    };
    let tofino = TofinoTarget::default();

    let svm = trained_svm();
    let ModelIr::Svm(SvmIr {
        n_features,
        planes: Some((planes, biases)),
        ..
    }) = &svm
    else {
        panic!("trained svm carries planes");
    };
    let code = tofino.generate_code(&svm, "svm_pipe", q510).unwrap();
    for f in 0..*n_features {
        let (tag, words) = entry_comment(&code, &format!("// feature {f} weights per class"));
        assert_eq!(tag, "(Q5.10)");
        assert_eq!(words, quantized(&mut planes.iter().map(|p| p[f])));
    }
    let (tag, words) = entry_comment(&code, "// decision biases");
    assert_eq!(tag, "(Q5.10)");
    assert_eq!(words, quantized(&mut biases.iter().copied()));
    // The entries are not Q3.12's: the test tells the formats apart.
    let (_, q312_words) = entry_comment(
        &tofino.generate_code(&svm, "svm_pipe", q312()).unwrap(),
        "// feature 0 weights per class",
    );
    assert_ne!(
        q312_words,
        entry_comment(&code, "// feature 0 weights per class").1
    );

    let x = Matrix::from_fn(24, 4, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.37 - 1.5);
    let kmeans = KMeans::fit(&x, &KMeansConfig::new(3).seed(7)).unwrap();
    let model = ModelIr::KMeans(KMeansIr::from_kmeans(&kmeans, 4));
    let code = tofino.generate_code(&model, "tc", q510).unwrap();
    for (c, centroid) in kmeans.centroids().iter().enumerate() {
        let (tag, words) = entry_comment(&code, &format!("// cluster {c} centroid"));
        assert_eq!(tag, "(Q5.10)");
        assert_eq!(words, quantized(&mut centroid.iter().copied()));
    }

    let taurus = TaurusTarget::default();
    let dnn = trained_dnn(7, vec![16, 4]);
    let code = taurus.generate_code(&dnn, "fmt", q510).unwrap();
    assert!(code.contains("type T = FixPt[TRUE, _5, _10]"), "{code}");
    assert!(code.contains("fixed-point Q5.10 (16-bit words)"), "{code}");
    assert!(
        !code.contains("_3, _12") && !code.contains("Q3.12"),
        "{code}"
    );
    let ModelIr::Dnn(DnnIr {
        params: Some(layers),
        ..
    }) = &dnn
    else {
        panic!("trained dnn carries params");
    };
    let rounded = |values: &[f32]| -> Vec<String> {
        values
            .iter()
            .map(|&v| format!("{:.6}", q510.dequantize(q510.quantize(v))))
            .collect()
    };
    for (l, layer) in layers.iter().enumerate() {
        assert_eq!(
            lut_literals(&code, &format!("w{l}")),
            rounded(layer.weights.as_slice())
        );
        assert_eq!(lut_literals(&code, &format!("b{l}")), rounded(&layer.bias));
    }
}

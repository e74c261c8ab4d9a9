//! Template-based Spatial code generation (Figure 5 of the paper).
//!
//! The Taurus/FPGA backends program the MapReduce grid with the Spatial
//! DSL. Code is generated by assembling parameterized templates — "simple
//! parameterized constructions, such as dot products, \[building\] up to
//! larger structures, like matrix multiplication and eventually DNNs"
//! (§3.3):
//!
//! - a **dot product** is a `Reduce` of element-wise multiplies,
//! - a **layer** nests dot products in a `Foreach` over output neurons and
//!   applies the activation template,
//! - **layers are stitched** through double-buffered SRAMs,
//! - a final **multiclass selection** (arg-max reduction) produces the
//!   classification result inserted back into the packet.
//!
//! Trained weights are quantized to the fixed-point format the caller
//! passes (the format the compiler lowers the model with; Q3.12, the
//! Taurus word, in a compile) and embedded as `LUT` initializers; the
//! program's `FixPt` type and its header declare the same format.

use crate::model::{DnnIr, ModelIr};
use crate::{BackendError, Result};
use homunculus_ml::quantize::FixedPoint;
use std::fmt::Write as _;

/// Generates a complete Spatial program for a trained model, its
/// parameters quantized to `format`.
///
/// # Errors
///
/// - [`BackendError::MissingWeights`] when the IR carries no trained
///   parameters (shape-only IRs are for estimation, not codegen).
/// - [`BackendError::Unsupported`] for decision trees (those belong on
///   the MAT pipeline, not the grid).
pub fn generate(model: &ModelIr, pipeline_name: &str, format: FixedPoint) -> Result<String> {
    model.validate()?;
    match model {
        ModelIr::Dnn(dnn) => generate_dnn(dnn, pipeline_name, format),
        ModelIr::Svm(svm) => {
            let (planes, biases) = svm.planes.as_ref().ok_or_else(|| {
                BackendError::MissingWeights(format!("svm '{pipeline_name}' is untrained"))
            })?;
            generate_linear(pipeline_name, format, svm.n_features, planes, biases)
        }
        ModelIr::KMeans(km) => {
            let centroids = km.centroids.as_ref().ok_or_else(|| {
                BackendError::MissingWeights(format!("kmeans '{pipeline_name}' is untrained"))
            })?;
            generate_kmeans(pipeline_name, format, km.n_features, centroids)
        }
        ModelIr::Tree(_) => Err(BackendError::Unsupported {
            target: "spatial".into(),
            model: "decision_tree (use the MAT/P4 backend)".into(),
        }),
        ModelIr::Forest(_) => Err(BackendError::Unsupported {
            target: "spatial".into(),
            model: "random_forest (use the MAT/P4 backend)".into(),
        }),
    }
}

/// CamelCase identifier from a pipeline name.
fn camel(name: &str) -> String {
    name.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(|s| {
            let mut chars = s.chars();
            match chars.next() {
                Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
                None => String::new(),
            }
        })
        .collect()
}

/// The program header and the opening of the app object, down to its
/// fixed-point type `T`.
fn header(pipeline_name: &str, family: &str, format: FixedPoint) -> String {
    let (int_bits, frac_bits) = (format.int_bits(), format.frac_bits());
    format!(
        "// ---------------------------------------------------------------\n\
         // Auto-generated by Homunculus — do not edit.\n\
         // pipeline: {pipeline_name}\n\
         // family:   {family}\n\
         // target:   Taurus MapReduce grid / FPGA (Spatial DSL)\n\
         // format:   fixed-point Q{int_bits}.{frac_bits} ({}-bit words)\n\
         // ---------------------------------------------------------------\n\
         import spatial.dsl._\n\n\
         @spatial object {} extends SpatialApp {{\n\
         \x20 type T = FixPt[TRUE, _{int_bits}, _{frac_bits}]\n\n",
        format.total_bits(),
        camel(pipeline_name),
    )
}

/// Formats a weight sequence as Spatial literals rounded through `format`.
fn literals(format: FixedPoint, values: impl Iterator<Item = f32>) -> String {
    values
        .map(|v| format!("{:.6}.to[T]", format.dequantize(format.quantize(v))))
        .collect::<Vec<_>>()
        .join(", ")
}

fn generate_dnn(dnn: &DnnIr, pipeline_name: &str, format: FixedPoint) -> Result<String> {
    let params = dnn.params.as_ref().ok_or_else(|| {
        BackendError::MissingWeights(format!("dnn '{pipeline_name}' is untrained"))
    })?;
    let dims = dnn.arch.layer_dims();
    let mut code = header(pipeline_name, "dnn", format);
    let _ = write!(
        code,
        "\x20 def main(args: Array[String]): Unit = {{\n\
         \x20   // Streaming packet I/O: the switch parser deposits the\n\
         \x20   // extracted feature vector, the deparser consumes the class.\n\
         \x20   val featuresIn = StreamIn[T](In0)\n\
         \x20   val classOut = StreamOut[Int](Out0)\n\n\
         \x20   Accel(*) {{\n\
         \x20     // feature ingestion\n\
         \x20     val x0 = SRAM[T]({})\n\
         \x20     Foreach({} by 1) {{ i => x0(i) = featuresIn.value }}\n\n",
        dnn.arch.input_dim, dnn.arch.input_dim
    );

    for (l, ((input, output), layer)) in dims.iter().zip(params).enumerate() {
        let act = dnn.arch.activation.name();
        let is_last = l == dims.len() - 1;
        let w = literals(format, layer.weights.as_slice().iter().copied());
        let b = literals(format, layer.bias.iter().copied());
        let _ = write!(
            code,
            "\x20     // ----- layer {l}: {input} -> {output} ({}) -----\n\
             \x20     val w{l} = LUT[T]({input}, {output})({w})\n\
             \x20     val b{l} = LUT[T]({output})({b})\n\
             \x20     val x{next} = SRAM[T]({output}).buffer // double-buffered inter-layer store\n\
             \x20     Foreach({output} by 1) {{ j =>\n\
             \x20       // dot product: map (multiply) + reduce (add)\n\
             \x20       val dot = Reduce(Reg[T](0.to[T]))({input} by 1) {{ i =>\n\
             \x20         x{l}(i) * w{l}(i, j)\n\
             \x20       }} {{ _ + _ }}\n\
             \x20       x{next}(j) = {}\n\
             \x20     }}\n\n",
            if is_last {
                "linear, softmax folded into argmax"
            } else {
                act
            },
            apply_activation(
                if is_last { "linear" } else { act },
                &format!("dot.value + b{l}(j)")
            ),
            next = l + 1,
        );
    }

    let last = dims.len();
    let out_dim = dnn.arch.output_dim;
    let _ = write!(
        code,
        "\x20     // ----- multiclass selection (argmax reduction) -----\n\
         \x20     val best = Reduce(Reg[Tup2[Int, T]](pack(0, x{last}(0))))({out_dim} by 1) {{ j =>\n\
         \x20       pack(j.to[Int], x{last}(j))\n\
         \x20     }} {{ (a, b) => mux(a._2 >= b._2, a, b) }}\n\
         \x20     // result insertion: class id flows back to the deparser\n\
         \x20     classOut := best.value._1\n\
         \x20   }}\n\
         \x20 }}\n\
         }}\n"
    );
    Ok(code)
}

fn apply_activation(name: &str, expr: &str) -> String {
    match name {
        "relu" => format!("max({expr}, 0.to[T])"),
        "sigmoid" => format!("sigmoidLUT({expr}) // LUT-backed sigmoid template"),
        "tanh" => format!("tanhLUT({expr}) // LUT-backed tanh template"),
        _ => expr.to_string(),
    }
}

/// The SVM program: a single dense layer + argmax.
fn generate_linear(
    pipeline_name: &str,
    format: FixedPoint,
    n_features: usize,
    planes: &[Vec<f32>],
    biases: &[f32],
) -> Result<String> {
    let k = planes.len();
    let w = literals(format, planes.iter().flatten().copied());
    let b = literals(format, biases.iter().copied());
    let mut code = header(pipeline_name, "svm", format);
    let _ = write!(
        code,
        "\x20 def main(args: Array[String]): Unit = {{\n\
         \x20   val featuresIn = StreamIn[T](In0)\n\
         \x20   val classOut = StreamOut[Int](Out0)\n\
         \x20   Accel(*) {{\n\
         \x20     val x = SRAM[T]({n_features})\n\
         \x20     Foreach({n_features} by 1) {{ i => x(i) = featuresIn.value }}\n\
         \x20     val w = LUT[T]({k}, {n_features})({w})\n\
         \x20     val b = LUT[T]({k})({b})\n\
         \x20     val scores = SRAM[T]({k})\n\
         \x20     Foreach({k} by 1) {{ c =>\n\
         \x20       val dot = Reduce(Reg[T](0.to[T]))({n_features} by 1) {{ i =>\n\
         \x20         x(i) * w(c, i)\n\
         \x20       }} {{ _ + _ }}\n\
         \x20       scores(c) = dot.value + b(c)\n\
         \x20     }}\n\
         \x20     val best = Reduce(Reg[Tup2[Int, T]](pack(0, scores(0))))({k} by 1) {{ c =>\n\
         \x20       pack(c.to[Int], scores(c))\n\
         \x20     }} {{ (a, b) => mux(a._2 >= b._2, a, b) }}\n\
         \x20     classOut := {}\n\
         \x20   }}\n\
         \x20 }}\n\
         }}\n",
        if k == 1 {
            "mux(scores(0) >= 0.to[T], 1, 0) // binary sign decision".to_string()
        } else {
            "best.value._1".to_string()
        }
    );
    Ok(code)
}

fn generate_kmeans(
    pipeline_name: &str,
    format: FixedPoint,
    n_features: usize,
    centroids: &[Vec<f32>],
) -> Result<String> {
    let k = centroids.len();
    let c = literals(format, centroids.iter().flatten().copied());
    let mut code = header(pipeline_name, "kmeans", format);
    let _ = write!(
        code,
        "\x20 def main(args: Array[String]): Unit = {{\n\
         \x20   val featuresIn = StreamIn[T](In0)\n\
         \x20   val clusterOut = StreamOut[Int](Out0)\n\
         \x20   Accel(*) {{\n\
         \x20     val x = SRAM[T]({n_features})\n\
         \x20     Foreach({n_features} by 1) {{ i => x(i) = featuresIn.value }}\n\
         \x20     val centroids = LUT[T]({k}, {n_features})({c})\n\
         \x20     val dists = SRAM[T]({k})\n\
         \x20     Foreach({k} by 1) {{ c =>\n\
         \x20       // squared distance: map (diff^2) + reduce (add)\n\
         \x20       val d = Reduce(Reg[T](0.to[T]))({n_features} by 1) {{ i =>\n\
         \x20         val diff = x(i) - centroids(c, i)\n\
         \x20         diff * diff\n\
         \x20       }} {{ _ + _ }}\n\
         \x20       dists(c) = d.value\n\
         \x20     }}\n\
         \x20     // min-distance reduction (argmin)\n\
         \x20     val best = Reduce(Reg[Tup2[Int, T]](pack(0, dists(0))))({k} by 1) {{ c =>\n\
         \x20       pack(c.to[Int], dists(c))\n\
         \x20     }} {{ (a, b) => mux(a._2 <= b._2, a, b) }}\n\
         \x20     clusterOut := best.value._1\n\
         \x20   }}\n\
         \x20 }}\n\
         }}\n"
    );
    Ok(code)
}

/// Checks that every brace/paren/bracket in `code` is balanced — the
/// structural smoke test used by the test suites on generated sources.
pub fn is_balanced(code: &str) -> bool {
    let mut stack = Vec::new();
    for ch in code.chars() {
        match ch {
            '(' | '[' | '{' => stack.push(ch),
            ')' | ']' | '}' => {
                let expected = match ch {
                    ')' => '(',
                    ']' => '[',
                    _ => '{',
                };
                if stack.pop() != Some(expected) {
                    return false;
                }
            }
            _ => {}
        }
    }
    stack.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{KMeansIr, SvmIr};
    use homunculus_ml::mlp::{Mlp, MlpArchitecture};

    fn q312() -> FixedPoint {
        FixedPoint::new(3, 12).unwrap()
    }

    fn trained_dnn() -> ModelIr {
        let arch = MlpArchitecture::new(7, vec![16, 4], 2);
        let mlp = Mlp::new(&arch, 3).unwrap();
        ModelIr::Dnn(DnnIr::from_mlp(&mlp))
    }

    #[test]
    fn dnn_codegen_structure() {
        let code = generate(&trained_dnn(), "anomaly_detection", q312()).unwrap();
        assert!(code.contains("@spatial object AnomalyDetection"));
        assert!(code.contains("FixPt[TRUE, _3, _12]"));
        // One LUT pair per layer.
        assert_eq!(code.matches("val w").count(), 3);
        assert_eq!(code.matches("val b").count(), 3 + 1); // 3 bias LUTs + argmax "val best"
                                                          // The map/reduce dot-product template appears per layer.
        assert_eq!(code.matches("Reduce(Reg[T]").count(), 3);
        assert!(code.contains("max("), "relu template");
        assert!(code.contains("classOut :="));
        assert!(is_balanced(&code), "unbalanced delimiters");
    }

    #[test]
    fn dnn_weight_literal_count_matches_params() {
        let model = trained_dnn();
        let code = generate(&model, "x", q312()).unwrap();
        let literals = code.matches(".to[T]").count();
        // Every parameter appears exactly once as a literal; plus the
        // handful of structural 0.to[T] constants (one per Reduce + relu).
        let params = model.param_count();
        assert!(
            literals >= params && literals <= params + 32,
            "{literals} literals for {params} params"
        );
    }

    #[test]
    fn untrained_dnn_rejected() {
        let arch = MlpArchitecture::new(7, vec![4], 2);
        let model = ModelIr::Dnn(DnnIr::from_architecture(&arch));
        assert!(matches!(
            generate(&model, "x", q312()),
            Err(BackendError::MissingWeights(_))
        ));
    }

    #[test]
    fn kmeans_codegen_structure() {
        let centroids = vec![vec![0.0_f32; 7]; 5];
        let model = ModelIr::KMeans(KMeansIr {
            k: 5,
            n_features: 7,
            centroids: Some(centroids),
        });
        let code = generate(&model, "traffic-classification", q312()).unwrap();
        assert!(code.contains("object TrafficClassification"));
        assert!(code.contains("LUT[T](5, 7)"));
        assert!(code.contains("argmin"));
        assert!(is_balanced(&code));
    }

    #[test]
    fn svm_binary_emits_sign_decision() {
        let model = ModelIr::Svm(SvmIr {
            n_features: 4,
            n_classes: 2,
            planes: Some((vec![vec![0.5, -0.2, 0.1, 0.9]], vec![0.1])),
        });
        let code = generate(&model, "svm_app", q312()).unwrap();
        assert!(code.contains("binary sign decision"));
        assert!(is_balanced(&code));
    }

    #[test]
    fn tree_unsupported_on_grid() {
        let model = ModelIr::Tree(crate::model::TreeIr::from_shape(3, 4, 8));
        assert!(matches!(
            generate(&model, "x", q312()),
            Err(BackendError::Unsupported { .. })
        ));
    }

    #[test]
    fn codegen_deterministic() {
        let model = trained_dnn();
        assert_eq!(
            generate(&model, "a", q312()).unwrap(),
            generate(&model, "a", q312()).unwrap()
        );
    }

    #[test]
    fn camel_case_names() {
        assert_eq!(camel("anomaly_detection"), "AnomalyDetection");
        assert_eq!(camel("x"), "X");
        assert_eq!(camel("a-b c"), "ABC");
    }

    #[test]
    fn is_balanced_detects_imbalance() {
        assert!(is_balanced("fn x() { (a[1]) }"));
        assert!(!is_balanced("fn x() { (a[1) }"));
        assert!(!is_balanced("}{"));
        assert!(!is_balanced("((("));
    }
}

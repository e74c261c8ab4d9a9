//! Template-based P4_16 code generation for MAT pipelines.
//!
//! When the target is a plain PISA switch (Tofino, or the NetFPGA via the
//! P4-SDNet compiler), models map to **match-action tables** following the
//! IIsy methodology the paper adopts as a backend (§4):
//!
//! - **KMeans**: one table per cluster; each table range-matches the
//!   quantized feature vector cell and accumulates a distance score, and a
//!   final selection picks the minimum.
//! - **SVM**: one table per feature (range match on the feature value adds
//!   that feature's contribution to each class score) plus a decision
//!   table on the score signs.
//! - **Decision tree**: one table per feature (mapping the value to a
//!   range id) plus one table matching the tuple of range ids to a leaf.
//! - **Random forest**: one namespaced tree-table set per member plus a
//!   per-class vote counter cascade picking the majority class.
//! - **DNN**: N2Net-style binarized layers (XNOR + popcount per layer).
//!
//! The emitted program is a complete, structurally-valid P4_16 source:
//! headers, parser, ingress control with the generated tables, and
//! deparser. Table *entries* (the trained parameters) are installed by the
//! control plane at runtime, exactly as IIsy does; the generator emits
//! them as `// entry:` comments so tests (and operators) can inspect them.

use crate::model::{ForestIr, ModelIr};
use crate::{BackendError, Result};
use homunculus_ml::quantize::FixedPoint;
use std::fmt::Write as _;

/// Generates a complete P4_16 program for a model, its table entries
/// quantized to `format`.
///
/// # Errors
///
/// - [`BackendError::MissingWeights`] when a family requires trained
///   parameters (SVM planes / KMeans centroids) and the IR has none.
pub fn generate(model: &ModelIr, pipeline_name: &str, format: FixedPoint) -> Result<String> {
    model.validate()?;
    let body = match model {
        ModelIr::KMeans(km) => {
            let centroids = km.centroids.as_ref().ok_or_else(|| {
                BackendError::MissingWeights(format!("kmeans '{pipeline_name}' is untrained"))
            })?;
            kmeans_tables(format, km.n_features, centroids)
        }
        ModelIr::Svm(svm) => {
            let (planes, biases) = svm.planes.as_ref().ok_or_else(|| {
                BackendError::MissingWeights(format!("svm '{pipeline_name}' is untrained"))
            })?;
            svm_tables(format, svm.n_features, planes, biases)
        }
        ModelIr::Tree(tree) => tree_tables(tree.n_features, tree.leaves),
        ModelIr::Forest(forest) => forest_tables(forest),
        ModelIr::Dnn(dnn) => bnn_tables(&dnn.arch.layer_dims()),
    };
    Ok(program(pipeline_name, model, &body))
}

/// `values` quantized to `format`, as the `(Qm.n): [..]` tail of an
/// entry comment.
fn entries(format: FixedPoint, values: impl Iterator<Item = f32>) -> String {
    let raws: Vec<String> = values.map(|v| format.quantize(v).to_string()).collect();
    format!(
        "(Q{}.{}): [{}]",
        format.int_bits(),
        format.frac_bits(),
        raws.join(", ")
    )
}

fn program(pipeline_name: &str, model: &ModelIr, ingress_body: &IngressBody) -> String {
    let n = model.n_features();
    let mut features_decl = String::new();
    for i in 0..n {
        let _ = writeln!(features_decl, "    bit<16> feature{i};");
    }
    format!(
        "// ---------------------------------------------------------------\n\
         // Auto-generated by Homunculus — do not edit.\n\
         // pipeline: {pipeline_name}\n\
         // family:   {family}\n\
         // mapping:  IIsy-style match-action tables\n\
         // ---------------------------------------------------------------\n\
         #include <core.p4>\n\
         #include <v1model.p4>\n\n\
         header ethernet_t {{\n\
         \x20   bit<48> dst_addr;\n\
         \x20   bit<48> src_addr;\n\
         \x20   bit<16> ether_type;\n\
         }}\n\n\
         header ipv4_t {{\n\
         \x20   bit<4>  version;\n\
         \x20   bit<4>  ihl;\n\
         \x20   bit<8>  diffserv;\n\
         \x20   bit<16> total_len;\n\
         \x20   bit<16> identification;\n\
         \x20   bit<3>  flags;\n\
         \x20   bit<13> frag_offset;\n\
         \x20   bit<8>  ttl;\n\
         \x20   bit<8>  protocol;\n\
         \x20   bit<16> hdr_checksum;\n\
         \x20   bit<32> src_addr;\n\
         \x20   bit<32> dst_addr;\n\
         }}\n\n\
         struct headers_t {{\n\
         \x20   ethernet_t ethernet;\n\
         \x20   ipv4_t     ipv4;\n\
         }}\n\n\
         struct metadata_t {{\n\
         {features_decl}\
         \x20   bit<16> ml_result;\n\
         {extra_meta}\
         }}\n\n\
         parser IngressParser(packet_in pkt, out headers_t hdr, inout metadata_t meta,\n\
         \x20                    inout standard_metadata_t std_meta) {{\n\
         \x20   state start {{\n\
         \x20       pkt.extract(hdr.ethernet);\n\
         \x20       transition select(hdr.ethernet.ether_type) {{\n\
         \x20           0x0800: parse_ipv4;\n\
         \x20           default: accept;\n\
         \x20       }}\n\
         \x20   }}\n\
         \x20   state parse_ipv4 {{\n\
         \x20       pkt.extract(hdr.ipv4);\n\
         \x20       transition accept;\n\
         \x20   }}\n\
         }}\n\n\
         control Ingress(inout headers_t hdr, inout metadata_t meta,\n\
         \x20               inout standard_metadata_t std_meta) {{\n\
         {tables}\
         \x20   apply {{\n\
         {apply}\
         \x20   }}\n\
         }}\n\n\
         control IngressDeparser(packet_out pkt, in headers_t hdr) {{\n\
         \x20   apply {{\n\
         \x20       pkt.emit(hdr.ethernet);\n\
         \x20       pkt.emit(hdr.ipv4);\n\
         \x20   }}\n\
         }}\n",
        family = model.family(),
        extra_meta = ingress_body.extra_meta,
        tables = ingress_body.tables,
        apply = ingress_body.apply,
    )
}

/// The pieces each family contributes to the ingress control.
struct IngressBody {
    extra_meta: String,
    tables: String,
    apply: String,
}

fn kmeans_tables(format: FixedPoint, n_features: usize, centroids: &[Vec<f32>]) -> IngressBody {
    let k = centroids.len();
    let mut tables = String::new();
    let mut apply = String::new();
    let mut extra_meta = String::new();
    for c in 0..k {
        let _ = writeln!(extra_meta, "    bit<32> dist{c};");
    }
    let keys: String = (0..n_features)
        .map(|i| format!("            meta.feature{i}: range;\n"))
        .collect();
    for (c, centroid) in centroids.iter().enumerate() {
        let _ = write!(
            tables,
            "    // cluster {c} centroid {}\n\
             \x20   action set_dist{c}(bit<32> dist) {{ meta.dist{c} = dist; }}\n\
             \x20   table cluster_{c} {{\n\
             \x20       key = {{\n{keys}\
             \x20       }}\n\
             \x20       actions = {{ set_dist{c}; NoAction; }}\n\
             \x20       default_action = NoAction();\n\
             \x20       size = 1024;\n\
             \x20   }}\n",
            entries(format, centroid.iter().copied()),
        );
        let _ = writeln!(apply, "        cluster_{c}.apply();");
    }
    // Min-distance selection cascade.
    let _ = writeln!(apply, "        meta.ml_result = 0;");
    let _ = writeln!(apply, "        bit<32> best = meta.dist0;");
    for c in 1..k {
        let _ = write!(
            apply,
            "        if (meta.dist{c} < best) {{\n\
             \x20           best = meta.dist{c};\n\
             \x20           meta.ml_result = {c};\n\
             \x20       }}\n"
        );
    }
    IngressBody {
        extra_meta,
        tables,
        apply,
    }
}

fn svm_tables(
    format: FixedPoint,
    n_features: usize,
    planes: &[Vec<f32>],
    biases: &[f32],
) -> IngressBody {
    let k = planes.len();
    let mut tables = String::new();
    let mut apply = String::new();
    let mut extra_meta = String::new();
    for c in 0..k {
        let _ = writeln!(extra_meta, "    bit<32> score{c};");
    }
    for f in 0..n_features {
        let args: String = (0..k)
            .map(|c| format!("bit<32> w{c}"))
            .collect::<Vec<_>>()
            .join(", ");
        let adds: String = (0..k)
            .map(|c| format!("        meta.score{c} = meta.score{c} + w{c};\n"))
            .collect();
        let _ = write!(
            tables,
            "    // feature {f} weights per class {}\n\
             \x20   action add_partial{f}({args}) {{\n{adds}\
             \x20   }}\n\
             \x20   table feature_{f} {{\n\
             \x20       key = {{ meta.feature{f}: range; }}\n\
             \x20       actions = {{ add_partial{f}; NoAction; }}\n\
             \x20       default_action = NoAction();\n\
             \x20       size = 256;\n\
             \x20   }}\n",
            entries(format, planes.iter().map(|p| p[f])),
        );
        let _ = writeln!(apply, "        feature_{f}.apply();");
    }
    // Decision table: bias comment + sign/argmax.
    let _ = writeln!(
        tables,
        "    // decision biases {}",
        entries(format, biases.iter().copied())
    );
    if k == 1 {
        let _ = writeln!(
            apply,
            "        // binary decision: sign of the single hyperplane score\n\
             \x20       meta.ml_result = (meta.score0 > 0) ? (bit<16>)1 : (bit<16>)0;"
        );
    } else {
        let _ = writeln!(apply, "        meta.ml_result = 0;");
        let _ = writeln!(apply, "        bit<32> best = meta.score0;");
        for c in 1..k {
            let _ = write!(
                apply,
                "        if (meta.score{c} > best) {{\n\
                 \x20           best = meta.score{c};\n\
                 \x20           meta.ml_result = {c};\n\
                 \x20       }}\n"
            );
        }
    }
    IngressBody {
        extra_meta,
        tables,
        apply,
    }
}

fn tree_tables(n_features: usize, leaves: usize) -> IngressBody {
    let mut tables = String::new();
    let mut apply = String::new();
    let mut extra_meta = String::new();
    for f in 0..n_features {
        let _ = writeln!(extra_meta, "    bit<8> range{f};");
        let _ = write!(
            tables,
            "    action set_range{f}(bit<8> id) {{ meta.range{f} = id; }}\n\
             \x20   table feature_{f} {{\n\
             \x20       key = {{ meta.feature{f}: range; }}\n\
             \x20       actions = {{ set_range{f}; NoAction; }}\n\
             \x20       default_action = NoAction();\n\
             \x20       size = 64;\n\
             \x20   }}\n"
        );
        let _ = writeln!(apply, "        feature_{f}.apply();");
    }
    let keys: String = (0..n_features)
        .map(|f| format!("            meta.range{f}: exact;\n"))
        .collect();
    let _ = write!(
        tables,
        "    // leaf table: {leaves} leaves\n\
         \x20   action set_leaf(bit<16> class) {{ meta.ml_result = class; }}\n\
         \x20   table leaves {{\n\
         \x20       key = {{\n{keys}\
         \x20       }}\n\
         \x20       actions = {{ set_leaf; NoAction; }}\n\
         \x20       default_action = NoAction();\n\
         \x20       size = {leaves};\n\
         \x20   }}\n"
    );
    let _ = writeln!(apply, "        leaves.apply();");
    IngressBody {
        extra_meta,
        tables,
        apply,
    }
}

fn forest_tables(forest: &ForestIr) -> IngressBody {
    let mut tables = String::new();
    let mut apply = String::new();
    let mut extra_meta = String::new();
    // Each member tree gets its own namespaced feature/leaf tables (the
    // same IIsy mapping as a standalone tree).
    for (t, tree) in forest.trees.iter().enumerate() {
        let _ = writeln!(extra_meta, "    bit<16> t{t}_class;");
        for f in 0..tree.n_features {
            let _ = writeln!(extra_meta, "    bit<8> t{t}_range{f};");
            let _ = write!(
                tables,
                "    action t{t}_set_range{f}(bit<8> id) {{ meta.t{t}_range{f} = id; }}
                     table t{t}_feature_{f} {{
                         key = {{ meta.feature{f}: range; }}
                         actions = {{ t{t}_set_range{f}; NoAction; }}
                         default_action = NoAction();
                         size = 64;
                     }}
"
            );
            let _ = writeln!(apply, "        t{t}_feature_{f}.apply();");
        }
        let keys: String = (0..tree.n_features)
            .map(|f| {
                format!(
                    "            meta.t{t}_range{f}: exact;
"
                )
            })
            .collect();
        let leaves = tree.leaves;
        let _ = write!(
            tables,
            "    // tree {t} leaf table: {leaves} leaves
                 action t{t}_set_leaf(bit<16> class) {{ meta.t{t}_class = class; }}
                 table t{t}_leaves {{
                     key = {{
{keys}                     }}
                     actions = {{ t{t}_set_leaf; NoAction; }}
                     default_action = NoAction();
                     size = {leaves};
                 }}
"
        );
        let _ = writeln!(apply, "        t{t}_leaves.apply();");
    }
    // Majority vote: per-class counters, then a first-max-wins cascade.
    for c in 0..forest.n_classes {
        let _ = writeln!(extra_meta, "    bit<8> votes{c};");
        let _ = writeln!(apply, "        meta.votes{c} = 0;");
    }
    for t in 0..forest.n_trees() {
        for c in 0..forest.n_classes {
            let _ = writeln!(
                apply,
                "        if (meta.t{t}_class == {c}) {{ meta.votes{c} = meta.votes{c} + 1; }}"
            );
        }
    }
    let _ = writeln!(apply, "        meta.ml_result = 0;");
    let _ = writeln!(apply, "        bit<8> most = meta.votes0;");
    for c in 1..forest.n_classes {
        let _ = writeln!(apply, "        if (meta.votes{c} > most) {{");
        let _ = writeln!(apply, "            most = meta.votes{c};");
        let _ = writeln!(apply, "            meta.ml_result = {c};");
        let _ = writeln!(apply, "        }}");
    }
    IngressBody {
        extra_meta,
        tables,
        apply,
    }
}

fn bnn_tables(dims: &[(usize, usize)]) -> IngressBody {
    let mut tables = String::new();
    let mut apply = String::new();
    let mut extra_meta = String::new();
    let _ = writeln!(extra_meta, "    bit<64> bnn_state;");
    for (l, (input, output)) in dims.iter().enumerate() {
        let _ = write!(
            tables,
            "    // N2Net binarized layer {l}: {input} -> {output} (XNOR + popcount)\n\
             \x20   action apply_bnn{l}(bit<64> weights) {{\n\
             \x20       meta.bnn_state = ~(meta.bnn_state ^ weights); // XNOR\n\
             \x20   }}\n\
             \x20   table bnn_layer_{l} {{\n\
             \x20       key = {{ meta.bnn_state: exact; }}\n\
             \x20       actions = {{ apply_bnn{l}; NoAction; }}\n\
             \x20       default_action = NoAction();\n\
             \x20       size = 4096;\n\
             \x20   }}\n"
        );
        let _ = writeln!(apply, "        bnn_layer_{l}.apply();");
    }
    let _ = writeln!(apply, "        meta.ml_result = (bit<16>)meta.bnn_state;");
    IngressBody {
        extra_meta,
        tables,
        apply,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DnnIr, KMeansIr, SvmIr, TreeIr};
    use crate::spatial::is_balanced;
    use homunculus_ml::mlp::MlpArchitecture;

    fn q312() -> FixedPoint {
        FixedPoint::new(3, 12).unwrap()
    }

    fn kmeans(k: usize) -> ModelIr {
        ModelIr::KMeans(KMeansIr {
            k,
            n_features: 7,
            centroids: Some(vec![vec![0.5; 7]; k]),
        })
    }

    #[test]
    fn kmeans_one_table_per_cluster() {
        let code = generate(&kmeans(5), "tc", q312()).unwrap();
        for c in 0..5 {
            assert!(
                code.contains(&format!("table cluster_{c}")),
                "missing table {c}"
            );
        }
        assert!(!code.contains("table cluster_5"));
        assert!(code.contains("parser IngressParser"));
        assert!(code.contains("#include <v1model.p4>"));
        assert!(is_balanced(&code));
    }

    #[test]
    fn kmeans_embeds_quantized_centroids() {
        let model = ModelIr::KMeans(KMeansIr {
            k: 1,
            n_features: 2,
            centroids: Some(vec![vec![1.0, -0.5]]),
        });
        let code = generate(&model, "x", q312()).unwrap();
        // Q3.12: 1.0 -> 4096, -0.5 -> -2048.
        assert!(code.contains("4096"), "quantized 1.0 missing");
        assert!(code.contains("-2048"), "quantized -0.5 missing");
    }

    #[test]
    fn svm_one_table_per_feature_plus_decision() {
        let model = ModelIr::Svm(SvmIr {
            n_features: 4,
            n_classes: 2,
            planes: Some((vec![vec![0.1, 0.2, 0.3, 0.4]], vec![0.0])),
        });
        let code = generate(&model, "svm", q312()).unwrap();
        for f in 0..4 {
            assert!(code.contains(&format!("table feature_{f}")));
        }
        assert!(code.contains("sign of the single hyperplane"));
        assert!(is_balanced(&code));
    }

    #[test]
    fn multiclass_svm_emits_argmax_cascade() {
        let model = ModelIr::Svm(SvmIr {
            n_features: 2,
            n_classes: 3,
            planes: Some((vec![vec![0.1, 0.2]; 3], vec![0.0; 3])),
        });
        let code = generate(&model, "svm3", q312()).unwrap();
        assert!(code.contains("meta.score2"));
        assert!(code.contains("if (meta.score2 > best)"));
    }

    #[test]
    fn tree_emits_feature_and_leaf_tables() {
        let model = ModelIr::Tree(TreeIr::from_shape(3, 3, 8));
        let code = generate(&model, "tree", q312()).unwrap();
        assert!(code.contains("table feature_2"));
        assert!(code.contains("table leaves"));
        assert!(code.contains("size = 8;"));
        assert!(is_balanced(&code));
    }

    #[test]
    fn forest_emits_per_tree_tables_and_vote() {
        use crate::model::ForestIr;
        let model = ModelIr::Forest(ForestIr::from_shape(3, 2, 2, 4));
        let code = generate(&model, "forest", q312()).unwrap();
        for t in 0..3 {
            assert!(code.contains(&format!("table t{t}_leaves")), "tree {t}");
            assert!(code.contains(&format!("table t{t}_feature_1")));
        }
        assert!(code.contains("meta.votes1"));
        assert!(code.contains("if (meta.votes1 > most)"));
        assert!(is_balanced(&code));
    }

    #[test]
    fn dnn_emits_bnn_layers() {
        let model = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
            7,
            vec![8],
            2,
        )));
        let code = generate(&model, "bnn", q312()).unwrap();
        assert!(code.contains("table bnn_layer_0"));
        assert!(code.contains("table bnn_layer_1"));
        assert!(code.contains("XNOR"));
        assert!(is_balanced(&code));
    }

    #[test]
    fn untrained_kmeans_rejected() {
        let model = ModelIr::KMeans(KMeansIr::from_shape(3, 7));
        assert!(matches!(
            generate(&model, "x", q312()),
            Err(BackendError::MissingWeights(_))
        ));
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            generate(&kmeans(3), "a", q312()).unwrap(),
            generate(&kmeans(3), "a", q312()).unwrap()
        );
    }
}

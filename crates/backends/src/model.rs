//! The backend-agnostic model intermediate representation.
//!
//! The optimization core explores *candidate configurations*; once trained,
//! a candidate is lowered to a [`ModelIr`] that every backend understands.
//! The IR carries both the *shape* (enough for resource estimation — the
//! common case inside the BO loop) and, when available, the *trained
//! parameters* (required for final code generation).

use crate::{BackendError, Result};
use homunculus_ml::forest::RandomForestClassifier;
use homunculus_ml::kmeans::KMeans;
use homunculus_ml::mlp::{Activation, Mlp, MlpArchitecture};
use homunculus_ml::svm::LinearSvm;
use homunculus_ml::tensor::Matrix;
use homunculus_ml::tree::{DecisionTreeClassifier, ExportedNode};
use serde_json::{json, ToJson, Value};

/// Shorthand for the recurring "field missing or mistyped" decode error.
fn decode_err(context: &str) -> BackendError {
    BackendError::InvalidModel(format!("model IR decode: {context}"))
}

/// Decodes a non-negative integer field.
fn decode_usize(value: &Value, field: &str) -> Result<usize> {
    value[field]
        .as_i64()
        .filter(|&v| v >= 0)
        .map(|v| v as usize)
        .ok_or_else(|| decode_err(&format!("needs non-negative integer '{field}'")))
}

/// Decodes an `f32` array field.
fn decode_f32s(value: &Value) -> Result<Vec<f32>> {
    value
        .as_array()
        .ok_or_else(|| decode_err("expected a numeric array"))?
        .iter()
        .map(|v| {
            v.as_f64()
                .map(|v| v as f32)
                .ok_or_else(|| decode_err("array entries must be numeric"))
        })
        .collect()
}

/// One dense layer's trained parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerParams {
    /// Weight matrix, `input_dim x output_dim`.
    pub weights: Matrix,
    /// Bias vector, length `output_dim`.
    pub bias: Vec<f32>,
}

/// JSON document form: `{"weights": <matrix>, "bias": [..]}`.
impl ToJson for LayerParams {
    fn to_json(&self) -> Value {
        json!({ "weights": self.weights, "bias": self.bias })
    }
}

impl LayerParams {
    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidModel`] on malformed fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        Ok(LayerParams {
            weights: Matrix::from_json(&value["weights"])
                .map_err(|e| BackendError::InvalidModel(e.to_string()))?,
            bias: decode_f32s(&value["bias"])?,
        })
    }
}

/// A DNN candidate (shape + optional trained layers).
#[derive(Debug, Clone, PartialEq)]
pub struct DnnIr {
    /// The architecture.
    pub arch: MlpArchitecture,
    /// Trained parameters, input-to-output order (None inside the BO loop
    /// before training, or for shape-only estimation).
    pub params: Option<Vec<LayerParams>>,
}

impl DnnIr {
    /// Shape-only IR from an architecture.
    pub fn from_architecture(arch: &MlpArchitecture) -> Self {
        DnnIr {
            arch: arch.clone(),
            params: None,
        }
    }

    /// Full IR from a trained network.
    pub fn from_mlp(mlp: &Mlp) -> Self {
        DnnIr {
            arch: mlp.architecture().clone(),
            params: Some(
                mlp.layers()
                    .iter()
                    .map(|l| LayerParams {
                        weights: l.weights.clone(),
                        bias: l.bias.clone(),
                    })
                    .collect(),
            ),
        }
    }

    /// Parameter count (Table 2's "# NN Param" column).
    pub fn param_count(&self) -> usize {
        self.arch.param_count()
    }

    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidModel`] on malformed fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        let arch = MlpArchitecture::from_json(&value["arch"])
            .map_err(|e| BackendError::InvalidModel(e.to_string()))?;
        let params = match &value["params"] {
            Value::Null => None,
            Value::Array(layers) => Some(
                layers
                    .iter()
                    .map(LayerParams::from_json)
                    .collect::<Result<Vec<_>>>()?,
            ),
            _ => return Err(decode_err("dnn params must be an array or null")),
        };
        Ok(DnnIr { arch, params })
    }
}

/// JSON document form: `{"arch": <architecture>, "params": [..]|null}`.
impl ToJson for DnnIr {
    fn to_json(&self) -> Value {
        json!({ "arch": self.arch, "params": self.params })
    }
}

/// A linear SVM candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmIr {
    /// Number of input features (IIsy: roughly one MAT per feature).
    pub n_features: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Trained hyperplanes (weight vectors + biases), if available.
    pub planes: Option<(Vec<Vec<f32>>, Vec<f32>)>,
}

impl SvmIr {
    /// Shape-only IR.
    pub fn from_shape(n_features: usize, n_classes: usize) -> Self {
        SvmIr {
            n_features,
            n_classes,
            planes: None,
        }
    }

    /// Full IR from a trained SVM.
    pub fn from_svm(svm: &LinearSvm) -> Self {
        SvmIr {
            n_features: svm.n_features(),
            n_classes: svm.n_classes(),
            planes: Some((svm.weights().to_vec(), svm.biases().to_vec())),
        }
    }

    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidModel`] on malformed fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        let planes = match &value["planes"] {
            Value::Null => None,
            planes => {
                let weights = planes["weights"]
                    .as_array()
                    .ok_or_else(|| decode_err("svm planes need a weights array"))?
                    .iter()
                    .map(decode_f32s)
                    .collect::<Result<Vec<_>>>()?;
                Some((weights, decode_f32s(&planes["biases"])?))
            }
        };
        Ok(SvmIr {
            n_features: decode_usize(value, "n_features")?,
            n_classes: decode_usize(value, "n_classes")?,
            planes,
        })
    }
}

/// JSON document form: `{"n_features", "n_classes", "planes":
/// {"weights": [[..]..], "biases": [..]}|null}`.
impl ToJson for SvmIr {
    fn to_json(&self) -> Value {
        let planes = match &self.planes {
            Some((weights, biases)) => json!({ "weights": weights, "biases": biases }),
            None => Value::Null,
        };
        json!({
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "planes": planes,
        })
    }
}

/// A KMeans candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansIr {
    /// Number of clusters (IIsy: one MAT per cluster).
    pub k: usize,
    /// Number of input features.
    pub n_features: usize,
    /// Trained centroids, if available.
    pub centroids: Option<Vec<Vec<f32>>>,
}

impl KMeansIr {
    /// Shape-only IR.
    pub fn from_shape(k: usize, n_features: usize) -> Self {
        KMeansIr {
            k,
            n_features,
            centroids: None,
        }
    }

    /// Full IR from a trained clustering.
    pub fn from_kmeans(model: &KMeans, n_features: usize) -> Self {
        KMeansIr {
            k: model.k(),
            n_features,
            centroids: Some(model.centroids().to_vec()),
        }
    }

    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidModel`] on malformed fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        let centroids = match &value["centroids"] {
            Value::Null => None,
            Value::Array(rows) => Some(rows.iter().map(decode_f32s).collect::<Result<Vec<_>>>()?),
            _ => return Err(decode_err("kmeans centroids must be an array or null")),
        };
        Ok(KMeansIr {
            k: decode_usize(value, "k")?,
            n_features: decode_usize(value, "n_features")?,
            centroids,
        })
    }
}

/// JSON document form: `{"k", "n_features", "centroids": [[..]..]|null}`.
impl ToJson for KMeansIr {
    fn to_json(&self) -> Value {
        json!({
            "k": self.k,
            "n_features": self.n_features,
            "centroids": self.centroids,
        })
    }
}

/// One node of a trained decision tree, arena-indexed with the root at 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeNodeIr {
    /// Terminal node predicting `class`.
    Leaf {
        /// Predicted class index.
        class: usize,
    },
    /// Internal split: `feature <= threshold` goes to `left`, else `right`.
    Split {
        /// Feature index compared at this node.
        feature: usize,
        /// Split threshold.
        threshold: f32,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
    },
}

/// JSON document form: `{"leaf": class}` for terminals,
/// `{"split": {"feature", "threshold", "left", "right"}}` otherwise.
impl ToJson for TreeNodeIr {
    fn to_json(&self) -> Value {
        match self {
            TreeNodeIr::Leaf { class } => json!({ "leaf": *class }),
            TreeNodeIr::Split {
                feature,
                threshold,
                left,
                right,
            } => json!({
                "split": {
                    "feature": *feature,
                    "threshold": *threshold,
                    "left": *left,
                    "right": *right,
                },
            }),
        }
    }
}

impl TreeNodeIr {
    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidModel`] on malformed fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        if let Some(class) = value["leaf"].as_i64().filter(|&c| c >= 0) {
            return Ok(TreeNodeIr::Leaf {
                class: class as usize,
            });
        }
        let split = &value["split"];
        if split.is_null() {
            return Err(decode_err("tree node must be a leaf or a split"));
        }
        Ok(TreeNodeIr::Split {
            feature: decode_usize(split, "feature")?,
            threshold: split["threshold"]
                .as_f64()
                .ok_or_else(|| decode_err("split needs a numeric threshold"))?
                as f32,
            left: decode_usize(split, "left")?,
            right: decode_usize(split, "right")?,
        })
    }
}

/// A decision-tree candidate (depth drives MAT cost; trained nodes, when
/// present, let the runtime compile the tree to integer comparisons).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeIr {
    /// Tree depth.
    pub depth: usize,
    /// Number of input features.
    pub n_features: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Number of classes the tree was trained to separate (None for
    /// shape-only IRs; leaves alone can underreport it when a class
    /// never wins a leaf).
    pub n_classes: Option<usize>,
    /// Trained arena nodes (root at index 0), if available (None inside
    /// the BO loop for shape-only estimation).
    pub nodes: Option<Vec<TreeNodeIr>>,
}

impl TreeIr {
    /// Shape-only IR.
    pub fn from_shape(depth: usize, n_features: usize, leaves: usize) -> Self {
        TreeIr {
            depth,
            n_features,
            leaves,
            n_classes: None,
            nodes: None,
        }
    }

    /// Full IR from a trained classifier.
    pub fn from_tree(tree: &DecisionTreeClassifier) -> Self {
        let nodes = tree
            .export_nodes()
            .into_iter()
            .map(|node| match node {
                ExportedNode::Leaf { class } => TreeNodeIr::Leaf { class },
                ExportedNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => TreeNodeIr::Split {
                    feature,
                    threshold,
                    left,
                    right,
                },
            })
            .collect();
        TreeIr {
            depth: tree.depth().max(1),
            n_features: tree.n_features(),
            leaves: tree.leaf_count(),
            n_classes: Some(tree.n_classes()),
            nodes: Some(nodes),
        }
    }

    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidModel`] on malformed fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        let n_classes = match &value["n_classes"] {
            Value::Null => None,
            n => Some(
                n.as_i64()
                    .filter(|&c| c >= 0)
                    .map(|c| c as usize)
                    .ok_or_else(|| decode_err("tree n_classes must be an integer or null"))?,
            ),
        };
        let nodes = match &value["nodes"] {
            Value::Null => None,
            Value::Array(nodes) => Some(
                nodes
                    .iter()
                    .map(TreeNodeIr::from_json)
                    .collect::<Result<Vec<_>>>()?,
            ),
            _ => return Err(decode_err("tree nodes must be an array or null")),
        };
        Ok(TreeIr {
            depth: decode_usize(value, "depth")?,
            n_features: decode_usize(value, "n_features")?,
            leaves: decode_usize(value, "leaves")?,
            n_classes,
            nodes,
        })
    }
}

/// JSON document form: `{"depth", "n_features", "leaves",
/// "n_classes": n|null, "nodes": [..]|null}`.
impl ToJson for TreeIr {
    fn to_json(&self) -> Value {
        json!({
            "depth": self.depth,
            "n_features": self.n_features,
            "leaves": self.leaves,
            "n_classes": self.n_classes,
            "nodes": self.nodes,
        })
    }
}

/// A random-forest candidate: bagged decision trees combined by majority
/// vote. Each member tree lowers exactly like a standalone [`TreeIr`]
/// (one match-action program per tree); the vote is a final reduce stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestIr {
    /// Number of input features every member tree consumes.
    pub n_features: usize,
    /// Number of classes the vote decides between.
    pub n_classes: usize,
    /// Member trees (shape-only or trained, like [`TreeIr`]).
    pub trees: Vec<TreeIr>,
}

impl ForestIr {
    /// Shape-only IR: `n_trees` identical tree shapes.
    pub fn from_shape(n_trees: usize, depth: usize, n_features: usize, leaves: usize) -> Self {
        ForestIr {
            n_features,
            n_classes: 2,
            trees: (0..n_trees)
                .map(|_| TreeIr::from_shape(depth, n_features, leaves))
                .collect(),
        }
    }

    /// Full IR from a trained classification forest.
    pub fn from_forest(forest: &RandomForestClassifier) -> Self {
        let trees: Vec<TreeIr> = forest.trees().iter().map(TreeIr::from_tree).collect();
        let n_features = trees.iter().map(|t| t.n_features).max().unwrap_or(0);
        ForestIr {
            n_features,
            n_classes: forest.n_classes(),
            trees,
        }
    }

    /// Number of member trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Deepest member tree (drives pipeline-stage cost).
    pub fn depth(&self) -> usize {
        self.trees.iter().map(|t| t.depth).max().unwrap_or(0)
    }

    /// Total leaves across the ensemble (drives table cost).
    pub fn total_leaves(&self) -> usize {
        self.trees.iter().map(|t| t.leaves).sum()
    }

    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidModel`] on malformed fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        let trees = value["trees"]
            .as_array()
            .ok_or_else(|| decode_err("forest needs a trees array"))?
            .iter()
            .map(TreeIr::from_json)
            .collect::<Result<Vec<_>>>()?;
        Ok(ForestIr {
            n_features: decode_usize(value, "n_features")?,
            n_classes: decode_usize(value, "n_classes")?,
            trees,
        })
    }
}

/// JSON document form: `{"n_features", "n_classes", "trees": [<tree>..]}`.
impl ToJson for ForestIr {
    fn to_json(&self) -> Value {
        json!({
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "trees": self.trees,
        })
    }
}

/// The model families the compiler can map to data planes.
///
/// A trained `ModelIr` (one carrying parameters) can be lowered to an
/// executable integer pipeline with `ModelIr::compile(format)` — provided
/// by the `Compile` extension trait in `homunculus-runtime`, which owns
/// the fixed-point execution engine (the trait lives there because the
/// runtime depends on this crate, not the other way around).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelIr {
    /// Deep neural network.
    Dnn(DnnIr),
    /// Linear support-vector machine.
    Svm(SvmIr),
    /// KMeans clustering.
    KMeans(KMeansIr),
    /// Decision tree.
    Tree(TreeIr),
    /// Random forest (majority vote over bagged trees).
    Forest(ForestIr),
}

impl ModelIr {
    /// Short lowercase family name (used in reports and error messages).
    pub fn family(&self) -> &'static str {
        match self {
            ModelIr::Dnn(_) => "dnn",
            ModelIr::Svm(_) => "svm",
            ModelIr::KMeans(_) => "kmeans",
            ModelIr::Tree(_) => "decision_tree",
            ModelIr::Forest(_) => "random_forest",
        }
    }

    /// Number of input features the model consumes.
    pub fn n_features(&self) -> usize {
        match self {
            ModelIr::Dnn(d) => d.arch.input_dim,
            ModelIr::Svm(s) => s.n_features,
            ModelIr::KMeans(k) => k.n_features,
            ModelIr::Tree(t) => t.n_features,
            ModelIr::Forest(f) => f.n_features,
        }
    }

    /// Total trainable parameter count (0 for trees).
    pub fn param_count(&self) -> usize {
        match self {
            ModelIr::Dnn(d) => d.param_count(),
            ModelIr::Svm(s) => s.n_features * s.n_classes + s.n_classes,
            ModelIr::KMeans(k) => k.k * k.n_features,
            ModelIr::Tree(_) | ModelIr::Forest(_) => 0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidModel`] on degenerate shapes.
    pub fn validate(&self) -> Result<()> {
        let ok = match self {
            ModelIr::Dnn(d) => d.arch.validate().is_ok(),
            ModelIr::Svm(s) => s.n_features > 0 && s.n_classes >= 2,
            ModelIr::KMeans(k) => k.k > 0 && k.n_features > 0,
            ModelIr::Tree(t) => t.n_features > 0 && t.leaves > 0,
            ModelIr::Forest(f) => {
                f.n_features > 0
                    && f.n_classes >= 2
                    && !f.trees.is_empty()
                    && f.trees
                        .iter()
                        .all(|t| t.leaves > 0 && t.n_features > 0 && t.n_features <= f.n_features)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(BackendError::InvalidModel(format!(
                "degenerate {} shape",
                self.family()
            )))
        }
    }

    /// The hidden activation, for DNNs.
    pub fn activation(&self) -> Option<Activation> {
        match self {
            ModelIr::Dnn(d) => Some(d.arch.activation),
            _ => None,
        }
    }

    /// Decodes the [`ToJson`] document form (the inverse of the `{"family",
    /// "model"}` tagging), validating the decoded shape.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidModel`] for an unknown family tag,
    /// malformed fields, or a degenerate decoded shape.
    pub fn from_json(value: &Value) -> Result<Self> {
        let family = value["family"]
            .as_str()
            .ok_or_else(|| decode_err("needs a family tag"))?;
        let model = &value["model"];
        let ir = match family {
            "dnn" => ModelIr::Dnn(DnnIr::from_json(model)?),
            "svm" => ModelIr::Svm(SvmIr::from_json(model)?),
            "kmeans" => ModelIr::KMeans(KMeansIr::from_json(model)?),
            "decision_tree" => ModelIr::Tree(TreeIr::from_json(model)?),
            "random_forest" => ModelIr::Forest(ForestIr::from_json(model)?),
            other => return Err(decode_err(&format!("unknown family '{other}'"))),
        };
        ir.validate()?;
        Ok(ir)
    }
}

/// JSON document form: `{"family": <name>, "model": <family document>}`
/// with the family strings of [`ModelIr::family`]. This is the portable
/// on-disk form of a trained model: a saved artifact's IRs reload through
/// [`ModelIr::from_json`] and re-lower to the integer runtime bit-exactly
/// (weights round-trip losslessly through the JSON float syntax).
impl ToJson for ModelIr {
    fn to_json(&self) -> Value {
        let model = match self {
            ModelIr::Dnn(d) => d.to_json(),
            ModelIr::Svm(s) => s.to_json(),
            ModelIr::KMeans(k) => k.to_json(),
            ModelIr::Tree(t) => t.to_json(),
            ModelIr::Forest(f) => f.to_json(),
        };
        json!({ "family": self.family(), "model": model })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_ml::kmeans::KMeansConfig;
    use homunculus_ml::mlp::TrainConfig;
    use homunculus_ml::svm::SvmConfig;

    #[test]
    fn dnn_ir_from_architecture_has_no_params() {
        let arch = MlpArchitecture::new(7, vec![16, 4], 2);
        let ir = DnnIr::from_architecture(&arch);
        assert!(ir.params.is_none());
        assert_eq!(ir.param_count(), arch.param_count());
    }

    #[test]
    fn dnn_ir_from_trained_mlp_carries_weights() {
        let arch = MlpArchitecture::new(2, vec![4], 2);
        let mut mlp = Mlp::new(&arch, 0).unwrap();
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        mlp.train(&x, &[0, 1], &TrainConfig::default().epochs(2))
            .unwrap();
        let ir = DnnIr::from_mlp(&mlp);
        let params = ir.params.as_ref().unwrap();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].weights.shape(), (2, 4));
        assert_eq!(params[1].bias.len(), 2);
    }

    #[test]
    fn svm_and_kmeans_ir_roundtrip() {
        let x = Matrix::from_rows(&[
            vec![-1.0, 0.0],
            vec![-2.0, 0.1],
            vec![1.0, 0.0],
            vec![2.0, -0.1],
        ])
        .unwrap();
        let svm = LinearSvm::fit(&x, &[0, 0, 1, 1], 2, &SvmConfig::default()).unwrap();
        let ir = SvmIr::from_svm(&svm);
        assert_eq!(ir.n_features, 2);
        assert!(ir.planes.is_some());

        let km = KMeans::fit(&x, &KMeansConfig::new(2)).unwrap();
        let ir = KMeansIr::from_kmeans(&km, 2);
        assert_eq!(ir.k, 2);
        assert_eq!(ir.centroids.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn family_names_and_features() {
        let dnn = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
            7,
            vec![4],
            2,
        )));
        assert_eq!(dnn.family(), "dnn");
        assert_eq!(dnn.n_features(), 7);
        let svm = ModelIr::Svm(SvmIr::from_shape(5, 2));
        assert_eq!(svm.family(), "svm");
        assert_eq!(svm.param_count(), 12);
        let km = ModelIr::KMeans(KMeansIr::from_shape(3, 4));
        assert_eq!(km.param_count(), 12);
        let tree = ModelIr::Tree(TreeIr::from_shape(4, 6, 16));
        assert_eq!(tree.family(), "decision_tree");
        assert_eq!(tree.param_count(), 0);
    }

    #[test]
    fn tree_ir_from_trained_tree_carries_nodes() {
        use homunculus_ml::tree::TreeConfig;
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let tree =
            DecisionTreeClassifier::fit(&x, &[0, 0, 1, 1], 2, &TreeConfig::default()).unwrap();
        let ir = TreeIr::from_tree(&tree);
        assert_eq!(ir.n_features, 1);
        assert_eq!(ir.leaves, tree.leaf_count());
        let nodes = ir.nodes.as_ref().unwrap();
        assert_eq!(nodes.len(), tree.node_count());
        assert!(nodes.iter().any(|n| matches!(n, TreeNodeIr::Split { .. })));
        // Child indices stay inside the arena.
        for node in nodes {
            if let TreeNodeIr::Split { left, right, .. } = node {
                assert!(*left < nodes.len() && *right < nodes.len());
            }
        }
    }

    #[test]
    fn every_family_roundtrips_through_json() {
        use homunculus_ml::mlp::TrainConfig;
        use homunculus_ml::tree::TreeConfig;

        let x = Matrix::from_rows(&[
            vec![-1.0, 0.1],
            vec![-2.0, 0.3],
            vec![1.0, -0.2],
            vec![2.0, -0.4],
        ])
        .unwrap();
        let y = [0usize, 0, 1, 1];

        let mut mlp = Mlp::new(&MlpArchitecture::new(2, vec![3], 2), 1).unwrap();
        mlp.train(&x, &y, &TrainConfig::default().epochs(3))
            .unwrap();
        let svm = LinearSvm::fit(&x, &y, 2, &homunculus_ml::svm::SvmConfig::default()).unwrap();
        let km = KMeans::fit(&x, &KMeansConfig::new(2)).unwrap();
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default()).unwrap();

        let irs = [
            ModelIr::Dnn(DnnIr::from_mlp(&mlp)),
            ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
                4,
                vec![2],
                2,
            ))),
            ModelIr::Svm(SvmIr::from_svm(&svm)),
            ModelIr::Svm(SvmIr::from_shape(3, 2)),
            ModelIr::KMeans(KMeansIr::from_kmeans(&km, 2)),
            ModelIr::KMeans(KMeansIr::from_shape(4, 3)),
            ModelIr::Tree(TreeIr::from_tree(&tree)),
            ModelIr::Tree(TreeIr::from_shape(3, 2, 4)),
            ModelIr::Forest(ForestIr::from_forest(
                &homunculus_ml::forest::RandomForestClassifier::fit(
                    &x,
                    &y,
                    2,
                    &homunculus_ml::forest::ForestConfig {
                        n_trees: 3,
                        ..Default::default()
                    },
                )
                .unwrap(),
            )),
            ModelIr::Forest(ForestIr::from_shape(3, 2, 4, 4)),
        ];
        for ir in irs {
            let text = serde_json::to_string(&ir.to_json()).unwrap();
            let decoded = ModelIr::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(ir, decoded, "{} IR drifted through JSON", ir.family());
        }
    }

    #[test]
    fn json_decode_rejects_malformed() {
        let bad = serde_json::from_str("{\"family\": \"transformer\", \"model\": {}}").unwrap();
        assert!(ModelIr::from_json(&bad).is_err(), "unknown family");
        let bad = serde_json::from_str("{\"model\": {}}").unwrap();
        assert!(ModelIr::from_json(&bad).is_err(), "missing family");
        // Degenerate decoded shapes are rejected by validate().
        let bad = serde_json::from_str(
            "{\"family\": \"svm\", \"model\": {\"n_features\": 0, \"n_classes\": 2, \"planes\": null}}",
        )
        .unwrap();
        assert!(ModelIr::from_json(&bad).is_err(), "degenerate shape");
    }

    #[test]
    fn validate_rejects_degenerate() {
        assert!(ModelIr::Svm(SvmIr::from_shape(0, 2)).validate().is_err());
        assert!(ModelIr::KMeans(KMeansIr::from_shape(0, 4))
            .validate()
            .is_err());
        assert!(ModelIr::Tree(TreeIr::from_shape(1, 0, 2))
            .validate()
            .is_err());
        assert!(ModelIr::Svm(SvmIr::from_shape(4, 2)).validate().is_ok());
    }
}

//! CART decision trees (classification and regression).
//!
//! Trees serve two roles in the reproduction:
//!
//! 1. As a candidate *data-plane model*: IIsy maps decision trees onto
//!    match-action tables (one table per level/feature).
//! 2. As the building block of [`crate::forest`], whose regressor is the
//!    Bayesian-optimization surrogate model (the paper configures
//!    HyperMapper with a random-forest surrogate, §5).
//!
//! A classification tree searches its splits by a sorted sweep: at a node
//! of `n` rows it sorts each of the `d` examined features once and walks
//! the candidate thresholds in ascending order, so the split search costs
//! O(d · n log n) per node. The regression tree keeps a pass over the node
//! per threshold, O(d · n²) per node (see `build_regressor`).

use crate::tensor::Matrix;
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Stopping and split-search options shared by both tree flavors.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Number of features examined per split (`None` = all).
    pub mtry: Option<usize>,
    /// RNG seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            mtry: None,
            seed: 0,
        }
    }
}

impl TreeConfig {
    /// Sets the maximum depth.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Sets the number of features sampled per split.
    pub fn mtry(mut self, mtry: usize) -> Self {
        self.mtry = Some(mtry);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Arena node shared by both tree flavors.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Terminal node carrying the prediction payload.
    Leaf {
        /// Mean target (regression) or majority class (classification).
        value: f32,
        /// Class histogram (empty for regression trees).
        distribution: Vec<f32>,
    },
    /// Internal split: `feature <= threshold` goes left.
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
}

/// A read-only view of one fitted tree node, for lowering a trained tree
/// into backend IRs (and from there into the compiled integer runtime).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExportedNode {
    /// Terminal node predicting `class`.
    Leaf {
        /// Majority class at this leaf.
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

/// Walks a fitted arena to a leaf for one sample.
fn descend<'a>(nodes: &'a [Node], features: &[f32]) -> &'a Node {
    let mut idx = 0;
    loop {
        match &nodes[idx] {
            leaf @ Node::Leaf { .. } => return leaf,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                idx = if features[*feature] <= *threshold {
                    *left
                } else {
                    *right
                };
            }
        }
    }
}

/// Candidate split thresholds for a feature: midpoints between the sorted
/// unique values present in the node (`-0.0` and `0.0` count as one).
fn thresholds(values: &mut Vec<f32>) -> Vec<f32> {
    values.sort_by(f32::total_cmp);
    values.dedup();
    values.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
}

/// Picks the feature subset to examine at a node.
fn feature_subset(n_features: usize, mtry: Option<usize>, rng: &mut StdRng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n_features).collect();
    match mtry {
        Some(m) if m < n_features => {
            all.shuffle(rng);
            all.truncate(m.max(1));
            all
        }
        _ => all,
    }
}

fn validate_inputs(x: &Matrix, targets: usize) -> Result<()> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(MlError::EmptyInput("tree training data"));
    }
    if x.rows() != targets {
        return Err(MlError::ShapeMismatch {
            op: "tree_fit",
            left: x.shape(),
            right: (targets, 1),
        });
    }
    // Split search sorts feature columns; NaN has no place in that order.
    if x.has_non_finite() {
        return Err(MlError::InvalidArgument(
            "tree training features must be finite".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// A CART classification tree using Gini impurity.
///
/// # Example
///
/// ```
/// use homunculus_ml::tree::{DecisionTreeClassifier, TreeConfig};
/// use homunculus_ml::tensor::Matrix;
///
/// # fn main() -> Result<(), homunculus_ml::MlError> {
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
/// let y = vec![0, 0, 1, 1];
/// let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default())?;
/// assert_eq!(tree.predict_row(&[0.5]), 0);
/// assert_eq!(tree.predict_row(&[2.9]), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeClassifier {
    nodes: Vec<Node>,
    n_classes: usize,
    n_features: usize,
    depth: usize,
}

impl DecisionTreeClassifier {
    /// Fits a classification tree.
    ///
    /// # Errors
    ///
    /// - [`MlError::EmptyInput`] / [`MlError::ShapeMismatch`] for bad data.
    /// - [`MlError::InvalidArgument`] for non-finite features, out-of-range
    ///   labels or `n_classes < 2`.
    pub fn fit(x: &Matrix, y: &[usize], n_classes: usize, config: &TreeConfig) -> Result<Self> {
        // One column buffer for every feature at every node of the fit.
        let mut column = Vec::with_capacity(x.rows());
        Self::fit_with(x, y, n_classes, config, |feature, indices, counts| {
            column.clear();
            column.extend(indices.iter().map(|&i| (x.row(i)[feature], y[i])));
            sweep_split(&mut column, counts, config.min_samples_leaf)
        })
    }

    /// Fits a tree whose best split of `feature` at a node of `indices` with
    /// class `counts` is `split(feature, indices, counts)`, as
    /// `(threshold, weighted Gini)`.
    fn fit_with(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        config: &TreeConfig,
        mut split: impl FnMut(usize, &[usize], &[f32]) -> Option<(f32, f32)>,
    ) -> Result<Self> {
        validate_inputs(x, y.len())?;
        if n_classes < 2 {
            return Err(MlError::InvalidArgument("need at least two classes".into()));
        }
        if let Some(&bad) = y.iter().find(|&&c| c >= n_classes) {
            return Err(MlError::InvalidArgument(format!(
                "label {bad} out of range for {n_classes} classes"
            )));
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut nodes = Vec::new();
        let indices: Vec<usize> = (0..x.rows()).collect();
        let mut max_depth_seen = 0;
        build_classifier(
            x,
            y,
            n_classes,
            config,
            &indices,
            0,
            &mut nodes,
            &mut rng,
            &mut max_depth_seen,
            &mut split,
        );
        Ok(DecisionTreeClassifier {
            nodes,
            n_classes,
            n_features: x.cols(),
            depth: max_depth_seen,
        })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Depth actually reached while fitting.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Exports the fitted arena (root at index 0) for lowering to IR.
    pub fn export_nodes(&self) -> Vec<ExportedNode> {
        self.nodes
            .iter()
            .map(|node| match node {
                Node::Leaf { value, .. } => ExportedNode::Leaf {
                    class: *value as usize,
                },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => ExportedNode::Split {
                    feature: *feature,
                    threshold: *threshold,
                    left: *left,
                    right: *right,
                },
            })
            .collect()
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves in the fitted tree.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Predicted class for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() < n_features` used in training.
    pub fn predict_row(&self, features: &[f32]) -> usize {
        assert!(
            features.len() >= self.n_features,
            "expected {} features, got {}",
            self.n_features,
            features.len()
        );
        match descend(&self.nodes, features) {
            Node::Leaf { value, .. } => *value as usize,
            Node::Split { .. } => unreachable!("descend returns leaves"),
        }
    }

    /// Class distribution (normalized histogram) at the reached leaf.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() < n_features` used in training.
    pub fn predict_proba_row(&self, features: &[f32]) -> Vec<f32> {
        match descend(&self.nodes, features) {
            Node::Leaf { distribution, .. } => distribution.clone(),
            Node::Split { .. } => unreachable!("descend returns leaves"),
        }
    }

    /// Predicted classes for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        x.iter_rows().map(|r| self.predict_row(r)).collect()
    }
}

fn gini(counts: &[f32], total: f32) -> f32 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|&c| (c / total) * (c / total))
        .sum::<f32>()
}

/// Best split of one feature at a node by a sorted sweep, as `(threshold,
/// weighted Gini)`: `column` holds the node's `(value, class)` pairs and
/// `counts` its class histogram. The column is sorted once; the candidate
/// thresholds (midpoints of consecutive unique values) are walked in
/// ascending order while a cursor moves every row with `value <= threshold`
/// from `right` (starting as `counts`) into `left`. Class counts are
/// integer-valued `f32`, exact in any order, so every threshold is scored
/// on the counts a full pass over the node gives, and the split chosen is
/// the one such a pass would choose, to the bit. The cursor tests `<=`
/// rather than stopping at the lower value: `0.5 * (a + b)` can round up
/// to `b` for adjacent floats, and then `b` belongs on the left.
fn sweep_split(
    column: &mut [(f32, usize)],
    counts: &[f32],
    min_samples_leaf: usize,
) -> Option<(f32, f32)> {
    column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let n = column.len();
    let total = n as f32;
    let mut left = vec![0.0f32; counts.len()];
    let mut right = counts.to_vec();
    let mut best: Option<(f32, f32)> = None;
    let mut cursor = 0;
    let mut next = 0;
    while next < n {
        let lo = column[next].0;
        while next < n && column[next].0 == lo {
            next += 1;
        }
        let Some(&(hi, _)) = column.get(next) else {
            break;
        };
        let threshold = 0.5 * (lo + hi);
        while cursor < n && column[cursor].0 <= threshold {
            let class = column[cursor].1;
            left[class] += 1.0;
            right[class] -= 1.0;
            cursor += 1;
        }
        if cursor < min_samples_leaf || n - cursor < min_samples_leaf {
            continue;
        }
        let (nl, nr) = (cursor as f32, (n - cursor) as f32);
        let impurity = (nl * gini(&left, nl) + nr * gini(&right, nr)) / total;
        if best.map_or(true, |(_, b)| impurity < b) {
            best = Some((threshold, impurity));
        }
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn build_classifier(
    x: &Matrix,
    y: &[usize],
    n_classes: usize,
    config: &TreeConfig,
    indices: &[usize],
    depth: usize,
    nodes: &mut Vec<Node>,
    rng: &mut StdRng,
    max_depth_seen: &mut usize,
    split: &mut impl FnMut(usize, &[usize], &[f32]) -> Option<(f32, f32)>,
) -> usize {
    *max_depth_seen = (*max_depth_seen).max(depth);
    let mut counts = vec![0.0f32; n_classes];
    for &i in indices {
        counts[y[i]] += 1.0;
    }
    let total = indices.len() as f32;
    let node_gini = gini(&counts, total);

    let make_leaf = |nodes: &mut Vec<Node>, counts: &[f32]| -> usize {
        let majority = crate::tensor::argmax(counts);
        let mut distribution = counts.to_vec();
        let t: f32 = distribution.iter().sum();
        if t > 0.0 {
            for d in &mut distribution {
                *d /= t;
            }
        }
        nodes.push(Node::Leaf {
            value: majority as f32,
            distribution,
        });
        nodes.len() - 1
    };

    if depth >= config.max_depth || indices.len() < config.min_samples_split || node_gini == 0.0 {
        return make_leaf(nodes, &counts);
    }

    // Best split search over the (sub)set of features; the first of equal
    // impurities wins, across features and thresholds alike.
    let mut best: Option<(usize, f32, f32)> = None; // (feature, threshold, impurity)
    for feature in feature_subset(x.cols(), config.mtry, rng) {
        if let Some((threshold, impurity)) = split(feature, indices, &counts) {
            if best.map_or(true, |(_, _, b)| impurity < b) {
                best = Some((feature, threshold, impurity));
            }
        }
    }

    let Some((feature, threshold, impurity)) = best else {
        return make_leaf(nodes, &counts);
    };
    if impurity >= node_gini {
        return make_leaf(nodes, &counts);
    }

    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&i| x.row(i)[feature] <= threshold);

    let slot = nodes.len();
    nodes.push(Node::Leaf {
        value: 0.0,
        distribution: Vec::new(),
    }); // placeholder
    let left = build_classifier(
        x,
        y,
        n_classes,
        config,
        &left_idx,
        depth + 1,
        nodes,
        rng,
        max_depth_seen,
        split,
    );
    let right = build_classifier(
        x,
        y,
        n_classes,
        config,
        &right_idx,
        depth + 1,
        nodes,
        rng,
        max_depth_seen,
        split,
    );
    nodes[slot] = Node::Split {
        feature,
        threshold,
        left,
        right,
    };
    slot
}

// ---------------------------------------------------------------------------
// Regression
// ---------------------------------------------------------------------------

/// A CART regression tree using variance reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeRegressor {
    nodes: Vec<Node>,
    n_features: usize,
    depth: usize,
}

impl DecisionTreeRegressor {
    /// Fits a regression tree on rows of `x` against continuous targets.
    ///
    /// # Errors
    ///
    /// - [`MlError::EmptyInput`] / [`MlError::ShapeMismatch`] for bad data.
    pub fn fit(x: &Matrix, y: &[f32], config: &TreeConfig) -> Result<Self> {
        validate_inputs(x, y.len())?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut nodes = Vec::new();
        let indices: Vec<usize> = (0..x.rows()).collect();
        let mut max_depth_seen = 0;
        build_regressor(
            x,
            y,
            config,
            &indices,
            0,
            &mut nodes,
            &mut rng,
            &mut max_depth_seen,
        );
        Ok(DecisionTreeRegressor {
            nodes,
            n_features: x.cols(),
            depth: max_depth_seen,
        })
    }

    /// Depth actually reached while fitting.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Predicted value for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() < n_features` used in training.
    pub fn predict_row(&self, features: &[f32]) -> f32 {
        assert!(
            features.len() >= self.n_features,
            "expected {} features, got {}",
            self.n_features,
            features.len()
        );
        match descend(&self.nodes, features) {
            Node::Leaf { value, .. } => *value,
            Node::Split { .. } => unreachable!("descend returns leaves"),
        }
    }

    /// Predictions for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<f32> {
        x.iter_rows().map(|r| self.predict_row(r)).collect()
    }
}

fn sum_and_sq(indices: &[usize], y: &[f32]) -> (f32, f32) {
    let mut s = 0.0;
    let mut ss = 0.0;
    for &i in indices {
        s += y[i];
        ss += y[i] * y[i];
    }
    (s, ss)
}

/// Regression keeps a pass over the node per threshold. Its `f32` sums of
/// `y` and `y²` depend on the order rows are added in, so a sorted sweep
/// would move the fitted values of the Bayesian-optimization surrogate
/// (`RandomForestRegressor`), and with them every search's suggestions.
#[allow(clippy::too_many_arguments)]
fn build_regressor(
    x: &Matrix,
    y: &[f32],
    config: &TreeConfig,
    indices: &[usize],
    depth: usize,
    nodes: &mut Vec<Node>,
    rng: &mut StdRng,
    max_depth_seen: &mut usize,
) -> usize {
    *max_depth_seen = (*max_depth_seen).max(depth);
    let n = indices.len() as f32;
    let (s, ss) = sum_and_sq(indices, y);
    let mean = s / n;
    let variance = (ss / n - mean * mean).max(0.0);

    let make_leaf = |nodes: &mut Vec<Node>| -> usize {
        nodes.push(Node::Leaf {
            value: mean,
            distribution: Vec::new(),
        });
        nodes.len() - 1
    };

    if depth >= config.max_depth || indices.len() < config.min_samples_split || variance <= 1e-12 {
        return make_leaf(nodes);
    }

    let mut best: Option<(usize, f32, f32)> = None; // (feature, threshold, weighted variance)
    for feature in feature_subset(x.cols(), config.mtry, rng) {
        let mut values: Vec<f32> = indices.iter().map(|&i| x.row(i)[feature]).collect();
        for threshold in thresholds(&mut values) {
            let (mut sl, mut ssl, mut nl) = (0.0f32, 0.0f32, 0.0f32);
            let (mut sr, mut ssr, mut nr) = (0.0f32, 0.0f32, 0.0f32);
            for &i in indices {
                if x.row(i)[feature] <= threshold {
                    sl += y[i];
                    ssl += y[i] * y[i];
                    nl += 1.0;
                } else {
                    sr += y[i];
                    ssr += y[i] * y[i];
                    nr += 1.0;
                }
            }
            if (nl as usize) < config.min_samples_leaf || (nr as usize) < config.min_samples_leaf {
                continue;
            }
            let var_l = (ssl / nl - (sl / nl) * (sl / nl)).max(0.0);
            let var_r = (ssr / nr - (sr / nr) * (sr / nr)).max(0.0);
            let weighted = (nl * var_l + nr * var_r) / n;
            if best.map_or(true, |(_, _, b)| weighted < b) {
                best = Some((feature, threshold, weighted));
            }
        }
    }

    let Some((feature, threshold, weighted)) = best else {
        return make_leaf(nodes);
    };
    if weighted >= variance {
        return make_leaf(nodes);
    }

    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&i| x.row(i)[feature] <= threshold);

    let slot = nodes.len();
    nodes.push(Node::Leaf {
        value: 0.0,
        distribution: Vec::new(),
    });
    let left = build_regressor(
        x,
        y,
        config,
        &left_idx,
        depth + 1,
        nodes,
        rng,
        max_depth_seen,
    );
    let right = build_regressor(
        x,
        y,
        config,
        &right_idx,
        depth + 1,
        nodes,
        rng,
        max_depth_seen,
    );
    nodes[slot] = Node::Split {
        feature,
        threshold,
        left,
        right,
    };
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// The reference split search: one pass over the node per threshold.
    fn scan_split(
        x: &Matrix,
        y: &[usize],
        feature: usize,
        indices: &[usize],
        counts: &[f32],
        min_samples_leaf: usize,
    ) -> Option<(f32, f32)> {
        let total = indices.len() as f32;
        let mut values: Vec<f32> = indices.iter().map(|&i| x.row(i)[feature]).collect();
        let mut best: Option<(f32, f32)> = None;
        for threshold in thresholds(&mut values) {
            let mut left = vec![0.0f32; counts.len()];
            let mut right = vec![0.0f32; counts.len()];
            for &i in indices {
                if x.row(i)[feature] <= threshold {
                    left[y[i]] += 1.0;
                } else {
                    right[y[i]] += 1.0;
                }
            }
            let nl: f32 = left.iter().sum();
            let nr: f32 = right.iter().sum();
            if (nl as usize) < min_samples_leaf || (nr as usize) < min_samples_leaf {
                continue;
            }
            let impurity = (nl * gini(&left, nl) + nr * gini(&right, nr)) / total;
            if best.map_or(true, |(_, b)| impurity < b) {
                best = Some((threshold, impurity));
            }
        }
        best
    }

    fn fit_by_scan(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        config: &TreeConfig,
    ) -> DecisionTreeClassifier {
        DecisionTreeClassifier::fit_with(x, y, n_classes, config, |feature, indices, counts| {
            scan_split(x, y, feature, indices, counts, config.min_samples_leaf)
        })
        .unwrap()
    }

    /// `1 + 2⁻²³` and `1 + 2⁻²²`: adjacent floats whose midpoint rounds up
    /// to the upper one.
    const ONE_UP: f32 = 1.000_000_1;
    const ONE_UP2: f32 = 1.000_000_2;

    #[test]
    fn adjacent_float_midpoint_rounds_to_the_upper_value() {
        assert_eq!(ONE_UP.to_bits(), 1.0f32.to_bits() + 1);
        assert_eq!(ONE_UP2.to_bits(), 1.0f32.to_bits() + 2);
        assert_eq!(0.5 * (ONE_UP + ONE_UP2), ONE_UP2);
        // Both midpoints of the column (1.0, ONE_UP, ONE_UP2) land on one
        // of its values: 1.0 (rounded down) and ONE_UP2 (rounded up). Only
        // a cursor that takes `value <= threshold` to the left scores them
        // as the scan does; one that stops short splits ONE_UP2 off alone.
        let x = Matrix::from_rows(&[vec![ONE_UP2], vec![1.0], vec![ONE_UP]]).unwrap();
        let y = vec![1, 0, 0];
        let config = TreeConfig::default();
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &config).unwrap();
        assert_eq!(tree, fit_by_scan(&x, &y, 2, &config));
    }

    #[test]
    fn classifier_fits_threshold_rule() {
        let x = Matrix::from_rows(&[
            vec![0.0, 9.0],
            vec![1.0, 8.0],
            vec![2.0, 7.0],
            vec![10.0, 1.0],
            vec![11.0, 2.0],
            vec![12.0, 0.0],
        ])
        .unwrap();
        let y = vec![0, 0, 0, 1, 1, 1];
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&x), y);
        assert_eq!(tree.predict_row(&[5.0, 5.0]), 0);
        assert_eq!(tree.predict_row(&[20.0, 0.0]), 1);
    }

    #[test]
    fn classifier_pure_node_is_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![1, 1, 1];
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn classifier_respects_max_depth() {
        // Alternating labels force deep splits if unconstrained.
        let rows: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32]).collect();
        let y: Vec<usize> = (0..32).map(|i| i % 2).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let tree =
            DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default().max_depth(3)).unwrap();
        assert!(tree.depth() <= 3, "depth {}", tree.depth());
    }

    #[test]
    fn classifier_proba_sums_to_one() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let tree =
            DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default().max_depth(1)).unwrap();
        let p = tree.predict_proba_row(&[0.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn classifier_rejects_bad_input() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(DecisionTreeClassifier::fit(&x, &[0], 2, &TreeConfig::default()).is_err());
        assert!(DecisionTreeClassifier::fit(&x, &[0, 3], 2, &TreeConfig::default()).is_err());
        assert!(DecisionTreeClassifier::fit(&x, &[0, 1], 1, &TreeConfig::default()).is_err());
        let empty = Matrix::zeros(0, 1);
        assert!(DecisionTreeClassifier::fit(&empty, &[], 2, &TreeConfig::default()).is_err());
    }

    #[test]
    fn trees_and_forests_reject_non_finite_features() {
        use crate::forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // Every row holds `bad`, so every bootstrap bag does too.
            let x = Matrix::from_rows(&[vec![0.0, bad], vec![1.0, bad], vec![2.0, bad]]).unwrap();
            let (labels, targets) = ([0, 1, 1], [0.0, 1.0, 2.0]);
            let invalid = |r: Result<()>| matches!(r, Err(MlError::InvalidArgument(_)));
            let config = TreeConfig::default();
            assert!(invalid(
                DecisionTreeClassifier::fit(&x, &labels, 2, &config).map(drop)
            ));
            assert!(invalid(
                DecisionTreeRegressor::fit(&x, &targets, &config).map(drop)
            ));
            let forest = ForestConfig::default().n_trees(2);
            assert!(invalid(
                RandomForestClassifier::fit(&x, &labels, 2, &forest).map(drop)
            ));
            assert!(invalid(
                RandomForestRegressor::fit(&x, &targets, &forest).map(drop)
            ));
        }
    }

    #[test]
    fn regressor_fits_step_function() {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let y: Vec<f32> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let tree = DecisionTreeRegressor::fit(&x, &y, &TreeConfig::default()).unwrap();
        assert!((tree.predict_row(&[3.0]) - 1.0).abs() < 1e-5);
        assert!((tree.predict_row(&[15.0]) - 5.0).abs() < 1e-5);
    }

    #[test]
    fn regressor_constant_target_single_leaf() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![5.0]]).unwrap();
        let tree =
            DecisionTreeRegressor::fit(&x, &[2.0, 2.0, 2.0], &TreeConfig::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict_row(&[9.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn regressor_interpolates_mean_at_depth_zero() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let tree =
            DecisionTreeRegressor::fit(&x, &[0.0, 10.0], &TreeConfig::default().max_depth(0))
                .unwrap();
        assert!((tree.predict_row(&[0.5]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn exported_nodes_replay_the_tree() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default()).unwrap();
        let nodes = tree.export_nodes();
        assert_eq!(nodes.len(), tree.node_count());
        assert_eq!(tree.n_features(), 1);
        // Replay the exported arena by hand and compare to predict_row.
        let walk = |features: &[f32]| -> usize {
            let mut idx = 0;
            loop {
                match nodes[idx] {
                    ExportedNode::Leaf { class } => return class,
                    ExportedNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        idx = if features[feature] <= threshold {
                            left
                        } else {
                            right
                        };
                    }
                }
            }
        };
        for v in [0.0f32, 0.6, 1.4, 2.5, 3.5] {
            assert_eq!(walk(&[v]), tree.predict_row(&[v]), "at {v}");
        }
    }

    #[test]
    fn mtry_subsampling_still_learns() {
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![i as f32, (i * 7 % 13) as f32, (i * 3 % 5) as f32])
            .collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let tree =
            DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default().mtry(2).seed(4)).unwrap();
        let acc = crate::metrics::accuracy(&y, &tree.predict(&x)).unwrap();
        assert!(acc > 0.8, "accuracy {acc}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_classifier_training_accuracy_perfect_without_noise(seed in 0u64..20) {
            // Distinct feature values, deterministic labels => tree can overfit.
            let rows: Vec<Vec<f32>> = (0..24).map(|i| vec![i as f32 + (seed % 3) as f32]).collect();
            let y: Vec<usize> = (0..24).map(|i| usize::from(i % 4 == 0)).collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default().max_depth(24)).unwrap();
            prop_assert_eq!(tree.predict(&x), y);
        }

        #[test]
        fn prop_regressor_prediction_within_target_range(seed in 0u64..20) {
            let rows: Vec<Vec<f32>> = (0..30).map(|i| vec![(i as f32 * 1.3 + seed as f32).sin(), i as f32]).collect();
            let y: Vec<f32> = (0..30).map(|i| (i as f32 * 0.7).cos()).collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let tree = DecisionTreeRegressor::fit(&x, &y, &TreeConfig::default()).unwrap();
            let lo = y.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = y.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for row in x.iter_rows() {
                let p = tree.predict_row(row);
                prop_assert!(p >= lo - 1e-5 && p <= hi + 1e-5);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_sweep_fits_the_tree_the_scan_fits(
            seed in 0u64..1 << 32,
            n_classes in 2usize..6,
            min_samples_leaf in 1usize..5,
            max_depth in 1usize..13,
            mtry in 0usize..4,
        ) {
            // Columns drawn mostly from a small pool (heavy duplicates,
            // -0.0 beside 0.0, adjacent floats, midpoints that overflow to
            // infinity), the rest uniform; labels mostly follow the first
            // column so the trees grow deep.
            const POOL: [f32; 12] = [
                -0.0, 0.0, 1.0, ONE_UP, ONE_UP2, -1.5, 2.0, 3.25,
                f32::MIN_POSITIVE, 1e-45, f32::MAX, 3.0e38,
            ];
            let mut rng = StdRng::seed_from_u64(seed);
            let n_rows = rng.gen_range(1..120);
            let n_features = rng.gen_range(1..5);
            let rows: Vec<Vec<f32>> = (0..n_rows)
                .map(|_| {
                    (0..n_features)
                        .map(|_| {
                            if rng.gen_range(0.0..1.0) < 0.7 {
                                POOL[rng.gen_range(0..POOL.len())]
                            } else {
                                rng.gen_range(-3.0f32..3.0)
                            }
                        })
                        .collect()
                })
                .collect();
            let y: Vec<usize> = rows
                .iter()
                .map(|row| {
                    if rng.gen_range(0.0..1.0) < 0.6 {
                        (row[0].abs().min(1e6) as usize) % n_classes
                    } else {
                        rng.gen_range(0..n_classes)
                    }
                })
                .collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let config = TreeConfig {
                max_depth,
                min_samples_split: 2,
                min_samples_leaf,
                mtry: (mtry > 0).then_some(mtry),
                seed,
            };
            let sweep = DecisionTreeClassifier::fit(&x, &y, n_classes, &config).unwrap();
            let scan = fit_by_scan(&x, &y, n_classes, &config);
            // `Debug` spells every float to its bit pattern (`-0.0` too),
            // so the trees agree bit for bit, not just under `==`.
            prop_assert_eq!(format!("{sweep:?}"), format!("{scan:?}"));
            prop_assert_eq!(sweep, scan);
        }
    }
}

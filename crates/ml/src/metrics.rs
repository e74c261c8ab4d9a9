//! Classification and clustering metrics.
//!
//! The paper's evaluation reports **F1 score** for the supervised
//! applications (anomaly detection, traffic classification, botnet
//! detection — Table 2) and **V-measure** for the KMeans-on-MATs experiment
//! (Figure 7). Both are implemented here from first principles, along with
//! the confusion-matrix plumbing they need.

use crate::{MlError, Result};

/// A dense confusion matrix over `n_classes`.
///
/// Rows are true classes, columns are predicted classes.
///
/// # Example
///
/// ```
/// use homunculus_ml::metrics::ConfusionMatrix;
///
/// # fn main() -> Result<(), homunculus_ml::MlError> {
/// let cm = ConfusionMatrix::from_labels(2, &[0, 0, 1, 1], &[0, 1, 1, 1])?;
/// assert_eq!(cm.count(0, 0), 1); // one true negative
/// assert_eq!(cm.count(0, 1), 1); // one false positive
/// assert!((cm.f1(1) - 0.8).abs() < 1e-6); // precision 2/3, recall 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    n_classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Builds a confusion matrix from parallel label slices.
    ///
    /// # Errors
    ///
    /// - [`MlError::ShapeMismatch`] if the slices differ in length.
    /// - [`MlError::InvalidArgument`] if any label `>= n_classes` or
    ///   `n_classes == 0`.
    pub fn from_labels(n_classes: usize, y_true: &[usize], y_pred: &[usize]) -> Result<Self> {
        if n_classes == 0 {
            return Err(MlError::InvalidArgument(
                "n_classes must be positive".into(),
            ));
        }
        if y_true.len() != y_pred.len() {
            return Err(MlError::ShapeMismatch {
                op: "confusion_matrix",
                left: (y_true.len(), 1),
                right: (y_pred.len(), 1),
            });
        }
        let mut counts = vec![0u64; n_classes * n_classes];
        for (&t, &p) in y_true.iter().zip(y_pred) {
            if t >= n_classes || p >= n_classes {
                return Err(MlError::InvalidArgument(format!(
                    "label ({t},{p}) out of range for {n_classes} classes"
                )));
            }
            counts[t * n_classes + p] += 1;
        }
        Ok(ConfusionMatrix { n_classes, counts })
    }

    /// Count of samples with true class `t` predicted as `p`.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `p` is out of range.
    pub fn count(&self, t: usize, p: usize) -> u64 {
        assert!(
            t < self.n_classes && p < self.n_classes,
            "class out of range"
        );
        self.counts[t * self.n_classes + p]
    }

    /// Precision for `class`: TP / (TP + FP). Zero when undefined.
    pub fn precision(&self, class: usize) -> f64 {
        let tp = self.count(class, class);
        let predicted: u64 = (0..self.n_classes).map(|t| self.count(t, class)).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall for `class`: TP / (TP + FN). Zero when undefined.
    pub fn recall(&self, class: usize) -> f64 {
        let tp = self.count(class, class);
        let actual: u64 = (0..self.n_classes).map(|p| self.count(class, p)).sum();
        if actual == 0 {
            0.0
        } else {
            tp as f64 / actual as f64
        }
    }

    /// F1 for `class`: harmonic mean of precision and recall.
    pub fn f1(&self, class: usize) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Unweighted mean of per-class F1 scores.
    pub fn macro_f1(&self) -> f64 {
        (0..self.n_classes).map(|c| self.f1(c)).sum::<f64>() / self.n_classes as f64
    }
}

/// Binary F1 with class `1` as the positive class.
///
/// This matches the paper's convention for anomaly/botnet detection where
/// the malicious class is the positive class.
///
/// # Errors
///
/// Propagates [`ConfusionMatrix::from_labels`] errors.
pub fn f1_binary(y_true: &[usize], y_pred: &[usize]) -> Result<f64> {
    let max = y_true
        .iter()
        .chain(y_pred)
        .copied()
        .max()
        .unwrap_or(0)
        .max(1);
    let cm = ConfusionMatrix::from_labels(max + 1, y_true, y_pred)?;
    Ok(cm.f1(1))
}

/// Macro-averaged F1 over however many classes appear in the labels.
///
/// # Errors
///
/// Propagates [`ConfusionMatrix::from_labels`] errors; empty input yields 0.
pub fn f1_macro(n_classes: usize, y_true: &[usize], y_pred: &[usize]) -> Result<f64> {
    let cm = ConfusionMatrix::from_labels(n_classes, y_true, y_pred)?;
    Ok(cm.macro_f1())
}

/// Plain accuracy.
///
/// # Errors
///
/// Returns [`MlError::ShapeMismatch`] when lengths differ.
pub fn accuracy(y_true: &[usize], y_pred: &[usize]) -> Result<f64> {
    if y_true.len() != y_pred.len() {
        return Err(MlError::ShapeMismatch {
            op: "accuracy",
            left: (y_true.len(), 1),
            right: (y_pred.len(), 1),
        });
    }
    if y_true.is_empty() {
        return Ok(0.0);
    }
    let correct = y_true.iter().zip(y_pred).filter(|(t, p)| t == p).count();
    Ok(correct as f64 / y_true.len() as f64)
}

/// Homogeneity, completeness, and V-measure of a clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VMeasure {
    /// Each cluster contains only members of a single class (1 = perfect).
    pub homogeneity: f64,
    /// All members of a class are assigned to the same cluster (1 = perfect).
    pub completeness: f64,
    /// Harmonic mean of homogeneity and completeness.
    pub v_measure: f64,
}

/// Computes the V-measure of cluster assignments against class labels.
///
/// This is the metric of the paper's Figure 7 (KMeans traffic classification
/// on match-action tables). Both inputs are arbitrary integer ids; they are
/// compacted internally.
///
/// # Errors
///
/// Returns [`MlError::ShapeMismatch`] when lengths differ and
/// [`MlError::EmptyInput`] when the slices are empty.
pub fn v_measure(labels_true: &[usize], labels_pred: &[usize]) -> Result<VMeasure> {
    if labels_true.len() != labels_pred.len() {
        return Err(MlError::ShapeMismatch {
            op: "v_measure",
            left: (labels_true.len(), 1),
            right: (labels_pred.len(), 1),
        });
    }
    if labels_true.is_empty() {
        return Err(MlError::EmptyInput("v_measure labels"));
    }

    let classes = compact(labels_true);
    let clusters = compact(labels_pred);
    let n_classes = classes.iter().copied().max().unwrap_or(0) + 1;
    let n_clusters = clusters.iter().copied().max().unwrap_or(0) + 1;
    let n = classes.len() as f64;

    // Contingency table: classes x clusters.
    let mut table = vec![0.0f64; n_classes * n_clusters];
    let mut class_totals = vec![0.0f64; n_classes];
    let mut cluster_totals = vec![0.0f64; n_clusters];
    for (&c, &k) in classes.iter().zip(&clusters) {
        table[c * n_clusters + k] += 1.0;
        class_totals[c] += 1.0;
        cluster_totals[k] += 1.0;
    }

    let entropy = |totals: &[f64]| -> f64 {
        totals
            .iter()
            .filter(|&&t| t > 0.0)
            .map(|&t| {
                let p = t / n;
                -p * p.ln()
            })
            .sum()
    };
    let h_class = entropy(&class_totals);
    let h_cluster = entropy(&cluster_totals);

    // Conditional entropies from the contingency table.
    let mut h_class_given_cluster = 0.0;
    let mut h_cluster_given_class = 0.0;
    for c in 0..n_classes {
        for k in 0..n_clusters {
            let joint = table[c * n_clusters + k];
            if joint > 0.0 {
                let p_joint = joint / n;
                h_class_given_cluster -= p_joint * (joint / cluster_totals[k]).ln();
                h_cluster_given_class -= p_joint * (joint / class_totals[c]).ln();
            }
        }
    }

    let homogeneity = if h_class == 0.0 {
        1.0
    } else {
        1.0 - h_class_given_cluster / h_class
    };
    let completeness = if h_cluster == 0.0 {
        1.0
    } else {
        1.0 - h_cluster_given_class / h_cluster
    };
    let v = if homogeneity + completeness == 0.0 {
        0.0
    } else {
        2.0 * homogeneity * completeness / (homogeneity + completeness)
    };
    Ok(VMeasure {
        homogeneity,
        completeness,
        v_measure: v,
    })
}

/// Remaps arbitrary ids to dense `0..k` ids preserving first-seen order.
fn compact(labels: &[usize]) -> Vec<usize> {
    let mut mapping = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = mapping.len();
            *mapping.entry(l).or_insert(next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn confusion_matrix_counts() {
        let cm = ConfusionMatrix::from_labels(3, &[0, 1, 2, 1], &[0, 2, 2, 1]).unwrap();
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(1, 2), 1);
        assert_eq!(cm.count(1, 1), 1);
        assert_eq!(cm.count(2, 2), 1);
    }

    #[test]
    fn f1_perfect_is_one() {
        let y = vec![0, 1, 0, 1, 1];
        assert!((f1_binary(&y, &y).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn f1_no_positive_predictions_is_zero() {
        let f1 = f1_binary(&[1, 1, 0], &[0, 0, 0]).unwrap();
        assert_eq!(f1, 0.0);
    }

    #[test]
    fn f1_known_value() {
        // TP=2, FP=1, FN=1 -> P=2/3, R=2/3 -> F1=2/3.
        let f1 = f1_binary(&[1, 1, 1, 0, 0], &[1, 1, 0, 1, 0]).unwrap();
        assert!((f1 - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn macro_f1_averages_classes() {
        // Class 0 perfect, class 1 totally wrong.
        let cm = ConfusionMatrix::from_labels(2, &[0, 0, 1, 1], &[0, 0, 0, 0]).unwrap();
        let expect = (cm.f1(0) + cm.f1(1)) / 2.0;
        assert!((cm.macro_f1() - expect).abs() < 1e-12);
        assert!(cm.macro_f1() < 1.0);
    }

    #[test]
    fn accuracy_empty_is_zero() {
        assert_eq!(accuracy(&[], &[]).unwrap(), 0.0);
    }

    #[test]
    fn mismatched_lengths_error() {
        assert!(accuracy(&[0], &[]).is_err());
        assert!(f1_binary(&[0, 1], &[0]).is_err());
        assert!(v_measure(&[0, 1], &[0]).is_err());
    }

    #[test]
    fn labels_out_of_range_error() {
        assert!(ConfusionMatrix::from_labels(2, &[0, 2], &[0, 1]).is_err());
        assert!(ConfusionMatrix::from_labels(0, &[], &[]).is_err());
    }

    #[test]
    fn v_measure_perfect_clustering() {
        let v = v_measure(&[0, 0, 1, 1, 2, 2], &[5, 5, 9, 9, 1, 1]).unwrap();
        assert!((v.homogeneity - 1.0).abs() < 1e-9);
        assert!((v.completeness - 1.0).abs() < 1e-9);
        assert!((v.v_measure - 1.0).abs() < 1e-9);
    }

    #[test]
    fn v_measure_single_cluster_has_zero_homogeneity() {
        let v = v_measure(&[0, 0, 1, 1], &[0, 0, 0, 0]).unwrap();
        assert!(v.homogeneity.abs() < 1e-9);
        // Everything in one cluster keeps classes together: completeness 1.
        assert!((v.completeness - 1.0).abs() < 1e-9);
        assert!(v.v_measure.abs() < 1e-9);
    }

    #[test]
    fn v_measure_splitting_classes_hurts_completeness() {
        // Each class split across two clusters; clusters are pure.
        let v = v_measure(&[0, 0, 1, 1], &[0, 1, 2, 3]).unwrap();
        assert!((v.homogeneity - 1.0).abs() < 1e-9);
        assert!(v.completeness < 1.0);
    }

    #[test]
    fn v_measure_is_symmetric_in_relabeling() {
        let a = v_measure(&[0, 0, 1, 1, 2], &[1, 1, 0, 0, 2]).unwrap();
        let b = v_measure(&[0, 0, 1, 1, 2], &[7, 7, 3, 3, 9]).unwrap();
        assert!((a.v_measure - b.v_measure).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_f1_in_unit_interval(
            labels in proptest::collection::vec(0usize..2, 1..60),
            preds in proptest::collection::vec(0usize..2, 1..60),
        ) {
            let n = labels.len().min(preds.len());
            let f1 = f1_binary(&labels[..n], &preds[..n]).unwrap();
            prop_assert!((0.0..=1.0).contains(&f1));
        }

        #[test]
        fn prop_v_measure_in_unit_interval(
            labels in proptest::collection::vec(0usize..4, 2..40),
            preds in proptest::collection::vec(0usize..4, 2..40),
        ) {
            let n = labels.len().min(preds.len());
            let v = v_measure(&labels[..n], &preds[..n]).unwrap();
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v.v_measure));
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v.homogeneity));
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v.completeness));
        }

        #[test]
        fn prop_perfect_predictions_maximize_all(labels in proptest::collection::vec(0usize..3, 2..40)) {
            let acc = accuracy(&labels, &labels).unwrap();
            prop_assert!((acc - 1.0).abs() < 1e-12);
            let v = v_measure(&labels, &labels).unwrap();
            prop_assert!((v.v_measure - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_accuracy_matches_manual(
            pairs in proptest::collection::vec((0usize..3, 0usize..3), 1..50)
        ) {
            let (t, p): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
            let manual = t.iter().zip(&p).filter(|(a, b)| a == b).count() as f64 / t.len() as f64;
            prop_assert!((accuracy(&t, &p).unwrap() - manual).abs() < 1e-12);
        }
    }
}

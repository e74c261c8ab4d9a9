//! Linear support-vector machines trained with sub-gradient descent.
//!
//! SVMs are the second classical algorithm IIsy maps onto match-action
//! tables (roughly one MAT per feature — §4 of the paper). Homunculus
//! tunes the regularization strength and, when MATs are scarce, drops the
//! least-impactful features until the model fits; [`LinearSvm::feature_importance`]
//! provides the ranking used for that.

use crate::tensor::Matrix;
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters for [`LinearSvm::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct SvmConfig {
    /// Number of epochs of sub-gradient descent.
    pub epochs: usize,
    /// Initial learning rate (decays as `lr / (1 + t * decay)`).
    pub learning_rate: f32,
    /// L2 regularization strength (the `lambda` in the hinge objective).
    pub lambda: f32,
    /// Learning-rate decay per step.
    pub decay: f32,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            epochs: 40,
            learning_rate: 0.05,
            lambda: 1e-3,
            decay: 1e-3,
            seed: 0,
        }
    }
}

impl SvmConfig {
    /// Sets the epoch budget.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the regularization strength.
    pub fn lambda(mut self, lambda: f32) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A one-vs-rest linear SVM.
///
/// For binary problems a single hyperplane is trained; for `n > 2` classes,
/// one hyperplane per class with argmax decision.
///
/// # Example
///
/// ```
/// use homunculus_ml::svm::{LinearSvm, SvmConfig};
/// use homunculus_ml::tensor::Matrix;
///
/// # fn main() -> Result<(), homunculus_ml::MlError> {
/// let x = Matrix::from_rows(&[
///     vec![-2.0, 0.0],
///     vec![-1.5, 0.3],
///     vec![2.0, -0.1],
///     vec![1.7, 0.2],
/// ])?;
/// let y = vec![0, 0, 1, 1];
/// let model = LinearSvm::fit(&x, &y, 2, &SvmConfig::default())?;
/// assert_eq!(model.predict(&x)?, y);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    /// One weight vector per class (a single one for binary).
    weights: Vec<Vec<f32>>,
    /// One bias per weight vector.
    biases: Vec<f32>,
    n_classes: usize,
}

impl LinearSvm {
    /// Trains a linear SVM on rows of `x` with labels in `0..n_classes`.
    ///
    /// # Errors
    ///
    /// - [`MlError::EmptyInput`] for an empty training set.
    /// - [`MlError::ShapeMismatch`] when `x.rows() != y.len()`.
    /// - [`MlError::InvalidArgument`] when `n_classes < 2` or labels are out
    ///   of range.
    pub fn fit(x: &Matrix, y: &[usize], n_classes: usize, config: &SvmConfig) -> Result<Self> {
        if x.rows() == 0 {
            return Err(MlError::EmptyInput("svm training set"));
        }
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch {
                op: "svm_fit",
                left: x.shape(),
                right: (y.len(), 1),
            });
        }
        if n_classes < 2 {
            return Err(MlError::InvalidArgument("need at least two classes".into()));
        }
        if let Some(&bad) = y.iter().find(|&&c| c >= n_classes) {
            return Err(MlError::InvalidArgument(format!(
                "label {bad} out of range for {n_classes} classes"
            )));
        }

        let planes = if n_classes == 2 { 1 } else { n_classes };
        let mut weights = vec![vec![0.0f32; x.cols()]; planes];
        let mut biases = vec![0.0f32; planes];

        for (plane, (w, b)) in weights.iter_mut().zip(biases.iter_mut()).enumerate() {
            let signs: Vec<f32> = y
                .iter()
                .map(|&label| {
                    let positive = if n_classes == 2 {
                        label == 1
                    } else {
                        label == plane
                    };
                    if positive {
                        1.0
                    } else {
                        -1.0
                    }
                })
                .collect();
            train_plane(x, &signs, w, b, config);
        }

        Ok(LinearSvm {
            weights,
            biases,
            n_classes,
        })
    }

    /// Number of classes the model separates.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.weights.first().map_or(0, Vec::len)
    }

    /// The hyperplane weight vectors (one per class; one total for binary).
    pub fn weights(&self) -> &[Vec<f32>] {
        &self.weights
    }

    /// The hyperplane biases.
    pub fn biases(&self) -> &[f32] {
        &self.biases
    }

    /// Raw decision values for one sample, one score per plane.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `features.len()` differs from
    /// the training dimensionality.
    pub fn decision_row(&self, features: &[f32]) -> Result<Vec<f32>> {
        if features.len() != self.n_features() {
            return Err(MlError::ShapeMismatch {
                op: "svm_decision",
                left: (1, features.len()),
                right: (1, self.n_features()),
            });
        }
        Ok(self
            .weights
            .iter()
            .zip(&self.biases)
            .map(|(w, b)| crate::tensor::dot(w, features) + b)
            .collect())
    }

    /// Predicted class for one sample.
    ///
    /// # Errors
    ///
    /// Propagates [`LinearSvm::decision_row`] errors.
    pub fn predict_row(&self, features: &[f32]) -> Result<usize> {
        let scores = self.decision_row(features)?;
        if self.n_classes == 2 {
            Ok(usize::from(scores[0] >= 0.0))
        } else {
            Ok(crate::tensor::argmax(&scores))
        }
    }

    /// Predicted classes for every row of `x`.
    ///
    /// # Errors
    ///
    /// Propagates [`LinearSvm::decision_row`] errors.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>> {
        x.iter_rows().map(|row| self.predict_row(row)).collect()
    }

    /// Importance of each feature = max |weight| across planes.
    ///
    /// The Tofino backend drops the least-important features when the MAT
    /// budget is too small for one-table-per-feature mapping.
    pub fn feature_importance(&self) -> Vec<f32> {
        let d = self.n_features();
        let mut imp = vec![0.0f32; d];
        for w in &self.weights {
            for (i, &v) in w.iter().enumerate() {
                imp[i] = imp[i].max(v.abs());
            }
        }
        imp
    }
}

/// Pegasos-style sub-gradient descent for one binary hyperplane.
fn train_plane(x: &Matrix, signs: &[f32], w: &mut [f32], b: &mut f32, config: &SvmConfig) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..x.rows()).collect();
    let mut t = 0usize;
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        for &i in &order {
            t += 1;
            let lr = config.learning_rate / (1.0 + t as f32 * config.decay);
            let row = x.row(i);
            let margin = signs[i] * (crate::tensor::dot(w, row) + *b);
            // L2 shrinkage always applies.
            for wv in w.iter_mut() {
                *wv *= 1.0 - lr * config.lambda;
            }
            if margin < 1.0 {
                for (wv, &xv) in w.iter_mut().zip(row) {
                    *wv += lr * signs[i] * xv;
                }
                *b += lr * signs[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    fn linear_data(seed: u64, n: usize) -> (Matrix, Vec<usize>) {
        // Separable by the hyperplane x0 + x1 = 0 with margin.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let cls = rng.gen_range(0..2usize);
            let offset = if cls == 1 { 1.5 } else { -1.5 };
            rows.push(vec![
                offset + rng.gen_range(-0.5..0.5),
                offset + rng.gen_range(-0.5..0.5),
            ]);
            labels.push(cls);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn separates_linear_data() {
        let (x, y) = linear_data(1, 200);
        let model = LinearSvm::fit(&x, &y, 2, &SvmConfig::default()).unwrap();
        let acc = crate::metrics::accuracy(&y, &model.predict(&x).unwrap()).unwrap();
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn multiclass_one_vs_rest() {
        // Three clusters along the x axis.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut rng = StdRng::seed_from_u64(2);
        for c in 0..3usize {
            for _ in 0..60 {
                rows.push(vec![
                    c as f32 * 4.0 + rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ]);
                labels.push(c);
            }
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let model = LinearSvm::fit(&x, &labels, 3, &SvmConfig::default().epochs(80)).unwrap();
        assert_eq!(model.weights().len(), 3);
        let acc = crate::metrics::accuracy(&labels, &model.predict(&x).unwrap()).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn binary_uses_single_plane() {
        let (x, y) = linear_data(3, 50);
        let model = LinearSvm::fit(&x, &y, 2, &SvmConfig::default()).unwrap();
        assert_eq!(model.weights().len(), 1);
        assert_eq!(model.n_classes(), 2);
        assert_eq!(model.n_features(), 2);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let (x, y) = linear_data(4, 10);
        assert!(LinearSvm::fit(&x, &y, 1, &SvmConfig::default()).is_err());
        assert!(LinearSvm::fit(&x, &y[..5], 2, &SvmConfig::default()).is_err());
        let empty = Matrix::zeros(0, 2);
        assert!(LinearSvm::fit(&empty, &[], 2, &SvmConfig::default()).is_err());
        let bad_labels = vec![0, 5, 1, 0, 1, 0, 1, 0, 1, 0];
        assert!(LinearSvm::fit(&x, &bad_labels, 2, &SvmConfig::default()).is_err());
    }

    #[test]
    fn decision_row_validates_dimension() {
        let (x, y) = linear_data(5, 20);
        let model = LinearSvm::fit(&x, &y, 2, &SvmConfig::default()).unwrap();
        assert!(model.decision_row(&[1.0]).is_err());
        assert!(model.decision_row(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn feature_importance_identifies_informative_feature() {
        // Only feature 0 is informative.
        let mut rng = StdRng::seed_from_u64(6);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..200 {
            let cls = rng.gen_range(0..2usize);
            let informative = if cls == 1 { 2.0 } else { -2.0 };
            rows.push(vec![informative, rng.gen_range(-1.0..1.0)]);
            labels.push(cls);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let model = LinearSvm::fit(&x, &labels, 2, &SvmConfig::default()).unwrap();
        let imp = model.feature_importance();
        assert!(imp[0] > imp[1] * 2.0, "importance {imp:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = linear_data(7, 60);
        let a = LinearSvm::fit(&x, &y, 2, &SvmConfig::default().seed(3)).unwrap();
        let b = LinearSvm::fit(&x, &y, 2, &SvmConfig::default().seed(3)).unwrap();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_predictions_in_range(seed in 0u64..40) {
            let (x, y) = linear_data(seed, 40);
            let model = LinearSvm::fit(&x, &y, 2, &SvmConfig::default().epochs(10).seed(seed)).unwrap();
            for p in model.predict(&x).unwrap() {
                prop_assert!(p < 2);
            }
        }
    }
}

//! Random forests (bagged CART trees).
//!
//! The paper configures HyperMapper with a **random-forest surrogate**
//! ("known to work well with systems workloads that require modeling of
//! discrete parameters and non-continuous functions", §5). The
//! [`RandomForestRegressor`] here plays that role inside
//! `homunculus-optimizer`: its per-tree spread provides the uncertainty
//! estimate that Expected Improvement needs. The
//! [`RandomForestClassifier`] models the probability of *feasibility*
//! (constraint satisfaction) for constrained acquisition.

use crate::tensor::Matrix;
use crate::tree::{DecisionTreeClassifier, DecisionTreeRegressor, TreeConfig};
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters shared by both forest flavors.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree options (depth, leaf sizes, mtry).
    pub tree: TreeConfig,
    /// Bootstrap sample fraction of the training set.
    pub sample_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 24,
            tree: TreeConfig::default().max_depth(10),
            sample_fraction: 1.0,
            seed: 0,
        }
    }
}

impl ForestConfig {
    /// Sets the number of trees.
    pub fn n_trees(mut self, n: usize) -> Self {
        self.n_trees = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-split feature subsample count.
    pub fn mtry(mut self, mtry: usize) -> Self {
        self.tree.mtry = Some(mtry);
        self
    }
}

fn bootstrap_indices(n: usize, fraction: f64, rng: &mut StdRng) -> Vec<usize> {
    let m = ((n as f64 * fraction).round() as usize).max(1);
    (0..m).map(|_| rng.gen_range(0..n)).collect()
}

/// A bagged regression forest with mean/std prediction.
///
/// # Example
///
/// ```
/// use homunculus_ml::forest::{ForestConfig, RandomForestRegressor};
/// use homunculus_ml::tensor::Matrix;
///
/// # fn main() -> Result<(), homunculus_ml::MlError> {
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
/// let y = vec![0.0, 1.0, 4.0, 9.0];
/// let forest = RandomForestRegressor::fit(&x, &y, &ForestConfig::default())?;
/// let (mean, std) = forest.predict_mean_std(&[2.0]);
/// assert!(mean > 0.5 && mean < 9.5);
/// assert!(std >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestRegressor {
    trees: Vec<DecisionTreeRegressor>,
}

impl RandomForestRegressor {
    /// Fits the forest on rows of `x` against continuous targets.
    ///
    /// # Errors
    ///
    /// - [`MlError::InvalidArgument`] when `n_trees == 0`.
    /// - Propagates tree-fitting errors (empty/mismatched data).
    pub fn fit(x: &Matrix, y: &[f32], config: &ForestConfig) -> Result<Self> {
        if config.n_trees == 0 {
            return Err(MlError::InvalidArgument("n_trees must be positive".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch {
                op: "forest_fit",
                left: x.shape(),
                right: (y.len(), 1),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut trees = Vec::with_capacity(config.n_trees);
        for t in 0..config.n_trees {
            let idx = bootstrap_indices(x.rows(), config.sample_fraction, &mut rng);
            let bx = x.select_rows(&idx);
            let by: Vec<f32> = idx.iter().map(|&i| y[i]).collect();
            let tree_config = TreeConfig {
                seed: config
                    .seed
                    .wrapping_add(t as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15),
                ..config.tree.clone()
            };
            trees.push(DecisionTreeRegressor::fit(&bx, &by, &tree_config)?);
        }
        Ok(RandomForestRegressor { trees })
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean prediction across trees.
    ///
    /// # Panics
    ///
    /// Panics if `features` is shorter than the training dimensionality.
    pub fn predict_row(&self, features: &[f32]) -> f32 {
        self.predict_mean_std(features).0
    }

    /// Mean and standard deviation of per-tree predictions.
    ///
    /// The std is the surrogate "uncertainty" consumed by Expected
    /// Improvement in the Bayesian-optimization loop.
    ///
    /// # Panics
    ///
    /// Panics if `features` is shorter than the training dimensionality.
    pub fn predict_mean_std(&self, features: &[f32]) -> (f32, f32) {
        let n = self.trees.len() as f32;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for tree in &self.trees {
            let p = tree.predict_row(features);
            sum += p;
            sq += p * p;
        }
        let mean = sum / n;
        let var = (sq / n - mean * mean).max(0.0);
        (mean, var.sqrt())
    }

    /// Mean predictions for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<f32> {
        x.iter_rows().map(|r| self.predict_row(r)).collect()
    }
}

/// A bagged classification forest: classes by majority vote
/// ([`predict_row`](RandomForestClassifier::predict_row)), class
/// probabilities by averaging the trees' leaf distributions
/// ([`predict_proba_row`](RandomForestClassifier::predict_proba_row)).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestClassifier {
    trees: Vec<DecisionTreeClassifier>,
    n_classes: usize,
}

impl RandomForestClassifier {
    /// Fits the forest on rows of `x` with labels in `0..n_classes`.
    ///
    /// # Errors
    ///
    /// - [`MlError::InvalidArgument`] when `n_trees == 0`, `n_classes < 2`,
    ///   or labels are out of range.
    /// - Propagates tree-fitting errors.
    pub fn fit(x: &Matrix, y: &[usize], n_classes: usize, config: &ForestConfig) -> Result<Self> {
        if config.n_trees == 0 {
            return Err(MlError::InvalidArgument("n_trees must be positive".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch {
                op: "forest_fit",
                left: x.shape(),
                right: (y.len(), 1),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut trees = Vec::with_capacity(config.n_trees);
        for t in 0..config.n_trees {
            let idx = bootstrap_indices(x.rows(), config.sample_fraction, &mut rng);
            let bx = x.select_rows(&idx);
            let by: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
            let tree_config = TreeConfig {
                seed: config
                    .seed
                    .wrapping_add(t as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15),
                ..config.tree.clone()
            };
            trees.push(DecisionTreeClassifier::fit(
                &bx,
                &by,
                n_classes,
                &tree_config,
            )?);
        }
        Ok(RandomForestClassifier { trees, n_classes })
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees (for IR export — each tree lowers to its own
    /// match-action table program).
    pub fn trees(&self) -> &[DecisionTreeClassifier] {
        &self.trees
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Mean class distribution across trees for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `features` is shorter than the training dimensionality.
    pub fn predict_proba_row(&self, features: &[f32]) -> Vec<f32> {
        let mut proba = vec![0.0f32; self.n_classes];
        for tree in &self.trees {
            let dist = tree.predict_proba_row(features);
            for (p, d) in proba.iter_mut().zip(&dist) {
                *p += d;
            }
        }
        let n = self.trees.len() as f32;
        for p in &mut proba {
            *p /= n;
        }
        proba
    }

    /// Majority-vote class for one sample: each tree casts one vote for
    /// the class of the leaf it reaches, and the lowest class wins a tie.
    /// This is the rule the lowered pipeline runs on the switch, so the
    /// model a search scores is the model that serves.
    ///
    /// # Panics
    ///
    /// Panics if `features` is shorter than the training dimensionality.
    pub fn predict_row(&self, features: &[f32]) -> usize {
        // Counted in `f32` (exact far beyond any tree count) so the
        // shared first-maximum `argmax` decides ties.
        let mut votes = vec![0.0f32; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict_row(features)] += 1.0;
        }
        crate::tensor::argmax(&votes)
    }

    /// Majority-vote classes for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        x.iter_rows().map(|r| self.predict_row(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn quadratic_data(n: usize) -> (Matrix, Vec<f32>) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![i as f32 / n as f32 * 4.0 - 2.0])
            .collect();
        let y: Vec<f32> = rows.iter().map(|r| r[0] * r[0]).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn regressor_fits_quadratic() {
        let (x, y) = quadratic_data(64);
        let forest = RandomForestRegressor::fit(&x, &y, &ForestConfig::default()).unwrap();
        // In-sample error should be small.
        let preds = forest.predict(&x);
        let mse: f32 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f32>()
            / y.len() as f32;
        assert!(mse < 0.1, "mse {mse}");
    }

    #[test]
    fn regressor_uncertainty_zero_on_constant_target() {
        let (x, _) = quadratic_data(16);
        let y = vec![3.0f32; 16];
        let forest = RandomForestRegressor::fit(&x, &y, &ForestConfig::default()).unwrap();
        let (mean, std) = forest.predict_mean_std(&[0.0]);
        assert!((mean - 3.0).abs() < 1e-5);
        assert!(std < 1e-5);
    }

    #[test]
    fn regressor_uncertainty_positive_off_manifold() {
        let (x, y) = quadratic_data(40);
        let forest =
            RandomForestRegressor::fit(&x, &y, &ForestConfig::default().n_trees(16).seed(3))
                .unwrap();
        // Bootstrap variation should produce nonzero spread somewhere.
        let spread: f32 = (0..20)
            .map(|i| forest.predict_mean_std(&[i as f32 * 0.21 - 2.0]).1)
            .sum();
        assert!(spread > 0.0, "expected some ensemble disagreement");
    }

    #[test]
    fn classifier_votes_majority() {
        let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32]).collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let forest = RandomForestClassifier::fit(&x, &y, 2, &ForestConfig::default()).unwrap();
        assert_eq!(forest.predict_row(&[2.0]), 0);
        assert_eq!(forest.predict_row(&[38.0]), 1);
        let proba = forest.predict_proba_row(&[2.0]);
        assert!((proba.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn classifier_counts_one_vote_per_tree_and_breaks_ties_low() {
        // Noisy three-class labels, shallow trees with mixed leaves and an
        // even tree count: leaf classes and mean leaf distributions
        // disagree on some rows, and some votes tie.
        let rows: Vec<Vec<f32>> = (0..90)
            .map(|i| vec![(i % 30) as f32, (i * 7 % 11) as f32])
            .collect();
        let y: Vec<usize> = (0..90).map(|i| (i % 30 / 10 + i % 4 / 3) % 3).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let config = ForestConfig {
            n_trees: 4,
            tree: TreeConfig::default().max_depth(2),
            sample_fraction: 0.5,
            seed: 11,
        };
        let forest = RandomForestClassifier::fit(&x, &y, 3, &config).unwrap();
        let (mut ties, mut soft_differs) = (0, 0);
        for row in x.iter_rows() {
            let mut votes = [0usize; 3];
            for tree in forest.trees() {
                votes[tree.predict_row(row)] += 1;
            }
            let top = *votes.iter().max().unwrap();
            let lowest_top_class = votes.iter().position(|&v| v == top).unwrap();
            assert_eq!(forest.predict_row(row), lowest_top_class, "{votes:?}");
            ties += usize::from(votes.iter().filter(|&&v| v == top).count() > 1);
            let soft = crate::tensor::argmax(&forest.predict_proba_row(row));
            soft_differs += usize::from(soft != lowest_top_class);
        }
        assert!(ties > 0, "no vote tied: the tie rule went untested");
        assert!(soft_differs > 0, "soft and hard votes never differed");
    }

    #[test]
    fn zero_trees_rejected() {
        let (x, y) = quadratic_data(8);
        assert!(RandomForestRegressor::fit(&x, &y, &ForestConfig::default().n_trees(0)).is_err());
        let labels = vec![0usize; 8];
        assert!(
            RandomForestClassifier::fit(&x, &labels, 2, &ForestConfig::default().n_trees(0))
                .is_err()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = quadratic_data(24);
        let a = RandomForestRegressor::fit(&x, &y, &ForestConfig::default().seed(5)).unwrap();
        let b = RandomForestRegressor::fit(&x, &y, &ForestConfig::default().seed(5)).unwrap();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_regressor_bounded_by_target_range(seed in 0u64..20) {
            let (x, y) = quadratic_data(30);
            let forest = RandomForestRegressor::fit(&x, &y, &ForestConfig::default().n_trees(8).seed(seed)).unwrap();
            let lo = y.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = y.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for q in [-2.0f32, -1.0, 0.0, 0.5, 1.9] {
                let (mean, _) = forest.predict_mean_std(&[q]);
                prop_assert!(mean >= lo - 1e-4 && mean <= hi + 1e-4);
            }
        }

        #[test]
        fn prop_classifier_proba_is_distribution(seed in 0u64..20) {
            let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
            let y: Vec<usize> = (0..20).map(|i| i % 3).collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let forest = RandomForestClassifier::fit(&x, &y, 3, &ForestConfig::default().n_trees(8).seed(seed)).unwrap();
            let p = forest.predict_proba_row(&[7.0]);
            prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}

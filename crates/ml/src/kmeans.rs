//! KMeans clustering with kmeans++ initialization.
//!
//! KMeans is one of the classical algorithms IIsy maps onto match-action
//! tables (one MAT per cluster). In the paper's Figure 7 experiment,
//! Homunculus tunes the number of clusters to fit varying MAT budgets,
//! trading V-measure for resources — this module provides the trainer that
//! experiment calls.

use crate::tensor::{squared_distance, Matrix};
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`KMeans::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters (`k`).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on centroid movement (squared distance).
    pub tolerance: f32,
    /// RNG seed for kmeans++ initialization.
    pub seed: u64,
}

impl KMeansConfig {
    /// Creates a config with `k` clusters and sensible defaults.
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iters: 100,
            tolerance: 1e-6,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum number of Lloyd iterations.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }
}

/// A fitted KMeans model.
///
/// # Example
///
/// ```
/// use homunculus_ml::kmeans::{KMeans, KMeansConfig};
/// use homunculus_ml::tensor::Matrix;
///
/// # fn main() -> Result<(), homunculus_ml::MlError> {
/// let x = Matrix::from_rows(&[
///     vec![0.0, 0.0],
///     vec![0.1, 0.0],
///     vec![5.0, 5.0],
///     vec![5.1, 5.0],
/// ])?;
/// let model = KMeans::fit(&x, &KMeansConfig::new(2))?;
/// let labels = model.predict(&x);
/// assert_eq!(labels[0], labels[1]);
/// assert_eq!(labels[2], labels[3]);
/// assert_ne!(labels[0], labels[2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Vec<Vec<f32>>,
    inertia: f32,
    iterations: usize,
}

impl KMeans {
    /// Fits `k` clusters on the rows of `x`.
    ///
    /// # Errors
    ///
    /// - [`MlError::EmptyInput`] for an empty matrix.
    /// - [`MlError::InvalidArgument`] when `k == 0` or `k > x.rows()`.
    pub fn fit(x: &Matrix, config: &KMeansConfig) -> Result<Self> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(MlError::EmptyInput("kmeans training data"));
        }
        if config.k == 0 {
            return Err(MlError::InvalidArgument("k must be positive".into()));
        }
        if config.k > x.rows() {
            return Err(MlError::InvalidArgument(format!(
                "k = {} exceeds number of samples {}",
                config.k,
                x.rows()
            )));
        }

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = plus_plus_init(x, config.k, &mut rng);
        let mut assignments = vec![0usize; x.rows()];
        let mut iterations = 0;

        for iter in 0..config.max_iters {
            iterations = iter + 1;
            // Assignment step.
            for (i, row) in x.iter_rows().enumerate() {
                assignments[i] = nearest(&centroids, row).0;
            }
            // Update step.
            let mut sums = vec![vec![0.0f32; x.cols()]; config.k];
            let mut counts = vec![0usize; config.k];
            for (i, row) in x.iter_rows().enumerate() {
                let c = assignments[i];
                counts[c] += 1;
                for (s, v) in sums[c].iter_mut().zip(row) {
                    *s += v;
                }
            }
            let mut movement = 0.0f32;
            for c in 0..config.k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at a random sample.
                    let idx = rng.gen_range(0..x.rows());
                    let new = x.row(idx).to_vec();
                    movement += squared_distance(&centroids[c], &new);
                    centroids[c] = new;
                    continue;
                }
                let inv = 1.0 / counts[c] as f32;
                for s in sums[c].iter_mut() {
                    *s *= inv;
                }
                movement += squared_distance(&centroids[c], &sums[c]);
                centroids[c] = std::mem::take(&mut sums[c]);
            }
            if movement <= config.tolerance {
                break;
            }
        }

        let inertia = x
            .iter_rows()
            .map(|row| nearest(&centroids, row).1)
            .sum::<f32>();
        Ok(KMeans {
            centroids,
            inertia,
            iterations,
        })
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// The fitted centroids (one `Vec` per cluster).
    pub fn centroids(&self) -> &[Vec<f32>] {
        &self.centroids
    }

    /// Sum of squared distances of samples to their nearest centroid.
    pub fn inertia(&self) -> f32 {
        self.inertia
    }

    /// Number of Lloyd iterations actually run.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Assigns each row of `x` to its nearest centroid.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the training dimensionality.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        x.iter_rows().map(|row| self.predict_row(row)).collect()
    }

    /// Assigns a single feature vector to its nearest centroid.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training dimensionality.
    pub fn predict_row(&self, features: &[f32]) -> usize {
        nearest(&self.centroids, features).0
    }
}

/// kmeans++ seeding: first centroid uniform, then proportional to squared
/// distance from the nearest existing centroid.
fn plus_plus_init(x: &Matrix, k: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    let first = rng.gen_range(0..x.rows());
    centroids.push(x.row(first).to_vec());

    let mut dists: Vec<f32> = x
        .iter_rows()
        .map(|row| squared_distance(row, &centroids[0]))
        .collect();

    while centroids.len() < k {
        let total: f32 = dists.iter().sum();
        let idx = if total <= 0.0 {
            rng.gen_range(0..x.rows())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = x.rows() - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        let new = x.row(idx).to_vec();
        for (i, row) in x.iter_rows().enumerate() {
            let d = squared_distance(row, &new);
            if d < dists[i] {
                dists[i] = d;
            }
        }
        centroids.push(new);
    }
    centroids
}

/// Index and squared distance of the nearest centroid.
fn nearest(centroids: &[Vec<f32>], row: &[f32]) -> (usize, f32) {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = squared_distance(c, row);
        if d < best_d {
            best = i;
            best_d = d;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blobs(seed: u64, per_cluster: usize) -> (Matrix, Vec<usize>) {
        // Three well-separated Gaussian-ish blobs on a diagonal.
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3 {
            let center = c as f32 * 10.0;
            for _ in 0..per_cluster {
                rows.push(vec![
                    center + rng.gen_range(-1.0..1.0),
                    center + rng.gen_range(-1.0..1.0),
                ]);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (x, labels) = blobs(1, 30);
        let model = KMeans::fit(&x, &KMeansConfig::new(3).seed(2)).unwrap();
        let pred = model.predict(&x);
        let v = crate::metrics::v_measure(&labels, &pred).unwrap();
        assert!(v.v_measure > 0.95, "v-measure {}", v.v_measure);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let (x, _) = blobs(3, 20);
        let mut last = f32::INFINITY;
        for k in 1..=4 {
            let model = KMeans::fit(&x, &KMeansConfig::new(k).seed(0)).unwrap();
            assert!(
                model.inertia() <= last + 1e-3,
                "inertia should not increase with k: k={k} {} > {last}",
                model.inertia()
            );
            last = model.inertia();
        }
    }

    #[test]
    fn k_equal_n_gives_zero_inertia() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let model = KMeans::fit(&x, &KMeansConfig::new(3)).unwrap();
        assert!(model.inertia() < 1e-6);
    }

    #[test]
    fn invalid_k_rejected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(KMeans::fit(&x, &KMeansConfig::new(0)).is_err());
        assert!(KMeans::fit(&x, &KMeansConfig::new(3)).is_err());
        let empty = Matrix::zeros(0, 2);
        assert!(KMeans::fit(&empty, &KMeansConfig::new(1)).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, _) = blobs(5, 15);
        let a = KMeans::fit(&x, &KMeansConfig::new(3).seed(11)).unwrap();
        let b = KMeans::fit(&x, &KMeansConfig::new(3).seed(11)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn predict_row_matches_predict() {
        let (x, _) = blobs(7, 10);
        let model = KMeans::fit(&x, &KMeansConfig::new(3)).unwrap();
        let batch = model.predict(&x);
        for (i, row) in x.iter_rows().enumerate() {
            assert_eq!(model.predict_row(row), batch[i]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_labels_in_range(seed in 0u64..30, k in 1usize..5) {
            let (x, _) = blobs(seed, 10);
            let model = KMeans::fit(&x, &KMeansConfig::new(k).seed(seed)).unwrap();
            prop_assert_eq!(model.k(), k);
            for label in model.predict(&x) {
                prop_assert!(label < k);
            }
        }

        #[test]
        fn prop_inertia_nonnegative(seed in 0u64..30) {
            let (x, _) = blobs(seed, 8);
            let model = KMeans::fit(&x, &KMeansConfig::new(2).seed(seed)).unwrap();
            prop_assert!(model.inertia() >= 0.0);
        }
    }
}

//! The labeled dataset container the whole pipeline flows through.
//!
//! The Alchemy frontend's `@DataLoader` returns train/test splits of
//! feature matrices and labels (Figure 3 of the paper); [`Dataset`] and
//! [`Split`] are the Rust equivalents. The container also owns the
//! plumbing the optimization core relies on: stratified splitting,
//! z-normalization, class bookkeeping, CSV round-trips, and the merge /
//! feature-overlap operations used by model fusion (§3.2.5).

use crate::{DatasetError, Result};
use homunculus_ml::tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// A labeled dataset: a feature matrix, integer labels, and metadata.
///
/// # Example
///
/// ```
/// use homunculus_datasets::dataset::Dataset;
/// use homunculus_ml::tensor::Matrix;
///
/// # fn main() -> Result<(), homunculus_datasets::DatasetError> {
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
/// let ds = Dataset::new(x, vec![0, 0, 1, 1], 2, vec!["f0".into()])?;
/// assert_eq!(ds.len(), 4);
/// let split = ds.stratified_split(0.5, 7)?;
/// assert_eq!(split.train.len(), 2);
/// assert_eq!(split.test.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    n_classes: usize,
    feature_names: Vec<String>,
}

/// A train/test partition of a [`Dataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Training portion.
    pub train: Dataset,
    /// Held-out test portion.
    pub test: Dataset,
}

impl Dataset {
    /// Creates a dataset, validating label range and name count.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Invalid`] when shapes/labels/names disagree.
    pub fn new(
        features: Matrix,
        labels: Vec<usize>,
        n_classes: usize,
        feature_names: Vec<String>,
    ) -> Result<Self> {
        if features.rows() != labels.len() {
            return Err(DatasetError::Invalid(format!(
                "{} feature rows but {} labels",
                features.rows(),
                labels.len()
            )));
        }
        if n_classes < 2 {
            return Err(DatasetError::Invalid("need at least two classes".into()));
        }
        if let Some(&bad) = labels.iter().find(|&&c| c >= n_classes) {
            return Err(DatasetError::Invalid(format!(
                "label {bad} out of range for {n_classes} classes"
            )));
        }
        if feature_names.len() != features.cols() {
            return Err(DatasetError::Invalid(format!(
                "{} feature names for {} columns",
                feature_names.len(),
                features.cols()
            )));
        }
        Ok(Dataset {
            features,
            labels,
            n_classes,
            feature_names,
        })
    }

    /// The feature matrix (rows = samples).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The labels, parallel to the feature rows.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature names, one per column.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features (columns).
    pub fn n_features(&self) -> usize {
        self.features.cols()
    }

    /// Per-class sample counts, indexed by class id.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Returns the subset at the given row indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: self.features.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            n_classes: self.n_classes,
            feature_names: self.feature_names.clone(),
        }
    }

    /// Keeps only the named feature columns (used when the Tofino backend
    /// drops low-importance SVM features to fit the MAT budget).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Invalid`] if a name is unknown.
    pub fn select_features(&self, names: &[&str]) -> Result<Dataset> {
        let mut indices = Vec::with_capacity(names.len());
        for &name in names {
            let idx = self
                .feature_names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| DatasetError::Invalid(format!("unknown feature '{name}'")))?;
            indices.push(idx);
        }
        Ok(Dataset {
            features: self.features.select_cols(&indices),
            labels: self.labels.clone(),
            n_classes: self.n_classes,
            feature_names: names.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Stratified train/test split: each class is split with the same
    /// `test_fraction`, then both halves are shuffled.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Invalid`] when the fraction is outside
    /// `(0, 1)` or the dataset is empty.
    pub fn stratified_split(&self, test_fraction: f64, seed: u64) -> Result<Split> {
        if self.is_empty() {
            return Err(DatasetError::Invalid(
                "cannot split an empty dataset".into(),
            ));
        }
        if !(0.0 < test_fraction && test_fraction < 1.0) {
            return Err(DatasetError::Invalid(format!(
                "test fraction must be in (0, 1), got {test_fraction}"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_class: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, &l) in self.labels.iter().enumerate() {
            by_class.entry(l).or_default().push(i);
        }
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for (_, mut indices) in by_class {
            indices.shuffle(&mut rng);
            let n_test = ((indices.len() as f64 * test_fraction).round() as usize)
                .clamp(1, indices.len().saturating_sub(1).max(1));
            test_idx.extend_from_slice(&indices[..n_test]);
            train_idx.extend_from_slice(&indices[n_test..]);
        }
        train_idx.shuffle(&mut rng);
        test_idx.shuffle(&mut rng);
        if train_idx.is_empty() {
            return Err(DatasetError::Invalid(
                "split left no training samples; lower the test fraction".into(),
            ));
        }
        Ok(Split {
            train: self.subset(&train_idx),
            test: self.subset(&test_idx),
        })
    }

    /// Fits a z-score normalizer on this dataset's features.
    pub fn fit_normalizer(&self) -> Normalizer {
        let d = self.n_features();
        let n = self.len().max(1) as f32;
        let mut mean = vec![0.0f32; d];
        for row in self.features.iter_rows() {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut std = vec![0.0f32; d];
        for row in self.features.iter_rows() {
            for ((s, v), m) in std.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut std {
            *s = (*s / n).sqrt();
            if *s < 1e-6 {
                *s = 1.0; // constant feature: leave centered only
            }
        }
        Normalizer { mean, std }
    }

    /// Returns a copy with features transformed by `normalizer`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Invalid`] on dimensionality mismatch.
    pub fn normalized(&self, normalizer: &Normalizer) -> Result<Dataset> {
        if normalizer.mean.len() != self.n_features() {
            return Err(DatasetError::Invalid(format!(
                "normalizer has {} dims, dataset has {}",
                normalizer.mean.len(),
                self.n_features()
            )));
        }
        let features = Matrix::from_fn(self.features.rows(), self.features.cols(), |r, c| {
            (self.features[(r, c)] - normalizer.mean[c]) / normalizer.std[c]
        });
        Ok(Dataset {
            features,
            labels: self.labels.clone(),
            n_classes: self.n_classes,
            feature_names: self.feature_names.clone(),
        })
    }

    /// Concatenates two datasets with identical schemas (model fusion
    /// merges the two split AD datasets this way, Table 4).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Invalid`] on schema mismatch.
    pub fn merge(&self, other: &Dataset) -> Result<Dataset> {
        if self.feature_names != other.feature_names {
            return Err(DatasetError::Invalid("feature schemas differ".into()));
        }
        if self.n_classes != other.n_classes {
            return Err(DatasetError::Invalid("class counts differ".into()));
        }
        let features = self
            .features
            .vstack(&other.features)
            .map_err(|e| DatasetError::Invalid(e.to_string()))?;
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        Ok(Dataset {
            features,
            labels,
            n_classes: self.n_classes,
            feature_names: self.feature_names.clone(),
        })
    }

    /// Jaccard similarity of two datasets' feature-name sets.
    ///
    /// The fusion pass (§3.2.5) fuses models whose datasets share "a
    /// certain number of features in common"; this is the overlap measure.
    pub fn feature_overlap(&self, other: &Dataset) -> f64 {
        let a: std::collections::HashSet<&String> = self.feature_names.iter().collect();
        let b: std::collections::HashSet<&String> = other.feature_names.iter().collect();
        let intersection = a.intersection(&b).count();
        let union = a.union(&b).count();
        if union == 0 {
            0.0
        } else {
            intersection as f64 / union as f64
        }
    }

    /// Writes the dataset as CSV: header row, then `label,f0,f1,...`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Io`] on filesystem failures.
    pub fn to_csv<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let mut file = std::fs::File::create(path).map_err(|e| DatasetError::Io(e.to_string()))?;
        let header = format!("label,{}\n", self.feature_names.join(","));
        file.write_all(header.as_bytes())
            .map_err(|e| DatasetError::Io(e.to_string()))?;
        for (row, &label) in self.features.iter_rows().zip(&self.labels) {
            let mut line = label.to_string();
            for v in row {
                line.push(',');
                line.push_str(&format!("{v}"));
            }
            line.push('\n');
            file.write_all(line.as_bytes())
                .map_err(|e| DatasetError::Io(e.to_string()))?;
        }
        Ok(())
    }

    /// Reads a dataset back from the CSV layout written by [`Dataset::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Io`] on filesystem failures and
    /// [`DatasetError::Invalid`] on malformed content.
    pub fn from_csv<P: AsRef<Path>>(path: P, n_classes: usize) -> Result<Dataset> {
        let file = std::fs::File::open(path).map_err(|e| DatasetError::Io(e.to_string()))?;
        let mut lines = BufReader::new(file).lines();
        let header = lines
            .next()
            .ok_or_else(|| DatasetError::Invalid("empty csv".into()))?
            .map_err(|e| DatasetError::Io(e.to_string()))?;
        let mut names: Vec<String> = header.split(',').map(str::to_string).collect();
        if names.first().map(String::as_str) != Some("label") {
            return Err(DatasetError::Invalid("first column must be 'label'".into()));
        }
        names.remove(0);

        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for line in lines {
            let line = line.map_err(|e| DatasetError::Io(e.to_string()))?;
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let label: usize = parts
                .next()
                .ok_or_else(|| DatasetError::Invalid("missing label".into()))?
                .trim()
                .parse()
                .map_err(|_| DatasetError::Invalid(format!("bad label in line '{line}'")))?;
            let row: std::result::Result<Vec<f32>, _> =
                parts.map(|p| p.trim().parse::<f32>()).collect();
            let row =
                row.map_err(|_| DatasetError::Invalid(format!("bad value in line '{line}'")))?;
            if row.len() != names.len() {
                return Err(DatasetError::Invalid(format!(
                    "expected {} values, got {}",
                    names.len(),
                    row.len()
                )));
            }
            rows.push(row);
            labels.push(label);
        }
        let features =
            Matrix::from_rows(&rows).map_err(|e| DatasetError::Invalid(e.to_string()))?;
        Dataset::new(features, labels, n_classes, names)
    }
}

// `Normalizer` itself lives in the ML substrate (so the inference runtime
// can carry one per tenant without depending on dataset generation); this
// re-export keeps the long-standing `homunculus_datasets::dataset::Normalizer`
// path working.
pub use homunculus_ml::preprocess::Normalizer;

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = Matrix::from_rows(&[
            vec![0.0, 10.0],
            vec![1.0, 20.0],
            vec![2.0, 30.0],
            vec![3.0, 40.0],
            vec![4.0, 50.0],
            vec![5.0, 60.0],
        ])
        .unwrap();
        Dataset::new(x, vec![0, 0, 0, 1, 1, 1], 2, vec!["a".into(), "b".into()]).unwrap()
    }

    #[test]
    fn validation_rejects_mismatches() {
        let x = Matrix::zeros(2, 2);
        assert!(Dataset::new(x.clone(), vec![0], 2, vec!["a".into(), "b".into()]).is_err());
        assert!(Dataset::new(x.clone(), vec![0, 2], 2, vec!["a".into(), "b".into()]).is_err());
        assert!(Dataset::new(x.clone(), vec![0, 1], 1, vec!["a".into(), "b".into()]).is_err());
        assert!(Dataset::new(x, vec![0, 1], 2, vec!["a".into()]).is_err());
    }

    #[test]
    fn class_counts() {
        assert_eq!(toy().class_counts(), vec![3, 3]);
    }

    #[test]
    fn stratified_split_preserves_balance() {
        let ds = toy();
        let split = ds.stratified_split(0.34, 1).unwrap();
        assert_eq!(split.train.len() + split.test.len(), ds.len());
        // One test sample per class at 1/3 of 3.
        assert_eq!(split.test.class_counts(), vec![1, 1]);
        assert_eq!(split.train.class_counts(), vec![2, 2]);
    }

    #[test]
    fn split_rejects_bad_fraction() {
        let ds = toy();
        assert!(ds.stratified_split(0.0, 0).is_err());
        assert!(ds.stratified_split(1.0, 0).is_err());
    }

    #[test]
    fn split_deterministic_under_seed() {
        let ds = toy();
        let a = ds.stratified_split(0.34, 9).unwrap();
        let b = ds.stratified_split(0.34, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn normalizer_zero_mean_unit_variance() {
        let ds = toy();
        let norm = ds.fit_normalizer();
        let nds = ds.normalized(&norm).unwrap();
        for c in 0..nds.n_features() {
            let col: Vec<f32> = (0..nds.len()).map(|r| nds.features()[(r, c)]).collect();
            let mean: f32 = col.iter().sum::<f32>() / col.len() as f32;
            let var: f32 =
                col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / col.len() as f32;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-4, "var {var}");
        }
    }

    #[test]
    fn normalizer_constant_feature_safe() {
        let x = Matrix::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0]]).unwrap();
        let ds = Dataset::new(x, vec![0, 1], 2, vec!["c".into(), "v".into()]).unwrap();
        let norm = ds.fit_normalizer();
        let nds = ds.normalized(&norm).unwrap();
        assert!(!nds.features().has_non_finite());
    }

    #[test]
    fn merge_and_overlap() {
        let a = toy();
        let b = toy();
        let merged = a.merge(&b).unwrap();
        assert_eq!(merged.len(), 12);
        assert_eq!(a.feature_overlap(&b), 1.0);

        let x = Matrix::zeros(2, 2);
        let c = Dataset::new(x, vec![0, 1], 2, vec!["a".into(), "z".into()]).unwrap();
        assert!((a.feature_overlap(&c) - 1.0 / 3.0).abs() < 1e-12);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn select_features_by_name() {
        let ds = toy();
        let only_b = ds.select_features(&["b"]).unwrap();
        assert_eq!(only_b.n_features(), 1);
        assert_eq!(only_b.features()[(0, 0)], 10.0);
        assert!(ds.select_features(&["nope"]).is_err());
    }

    #[test]
    fn csv_roundtrip() {
        let ds = toy();
        let dir = std::env::temp_dir().join("homunculus_dataset_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.csv");
        ds.to_csv(&path).unwrap();
        let loaded = Dataset::from_csv(&path, 2).unwrap();
        assert_eq!(loaded.labels(), ds.labels());
        assert_eq!(loaded.feature_names(), ds.feature_names());
        for (a, b) in loaded
            .features()
            .as_slice()
            .iter()
            .zip(ds.features().as_slice())
        {
            assert!((a - b).abs() < 1e-6);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn from_csv_rejects_malformed() {
        let dir = std::env::temp_dir().join("homunculus_dataset_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "wrong,a\n0,1.0\n").unwrap();
        assert!(Dataset::from_csv(&path, 2).is_err());
        std::fs::write(&path, "label,a\nx,1.0\n").unwrap();
        assert!(Dataset::from_csv(&path, 2).is_err());
        std::fs::write(&path, "label,a\n0,1.0,2.0\n").unwrap();
        assert!(Dataset::from_csv(&path, 2).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn subset_picks_rows() {
        let ds = toy();
        let sub = ds.subset(&[0, 5]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.labels(), &[0, 1]);
        assert_eq!(sub.features()[(1, 1)], 60.0);
    }
}

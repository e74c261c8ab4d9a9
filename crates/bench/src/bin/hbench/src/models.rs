//! Inputs shared by the serving workloads: the models a deployment serves
//! and the seeded traffic it is offered.
//!
//! The served models are configuration, not input: they are trained on one
//! fixed draw of the anomaly-detection generator with fixed trainer seeds,
//! so every run serves the same models at the same kernel cost. `--seed`
//! draws the traffic — the labeled rows offered, their phases, and (for the
//! fleet) the flow endpoints.

use crate::Res;
use homunculus_backends::model::{DnnIr, ForestIr, KMeansIr, ModelIr, SvmIr, TreeIr};
use homunculus_datasets::nslkdd::NslKddGenerator;
use homunculus_ml::forest::{ForestConfig, RandomForestClassifier};
use homunculus_ml::kmeans::{KMeans, KMeansConfig};
use homunculus_ml::mlp::{Activation, Mlp, MlpArchitecture, TrainConfig};
use homunculus_ml::preprocess::Normalizer;
use homunculus_ml::svm::{LinearSvm, SvmConfig};
use homunculus_ml::tensor::Matrix;
use homunculus_ml::tree::{DecisionTreeClassifier, TreeConfig};

/// SplitMix64: the seeded choices hbench makes itself (phases, endpoints).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Generator seed of the training draw; traffic seeds are offset past it.
const TRAIN_SEED: u64 = 0xAD;

/// The anomaly-detection data of one run: the fixed training draw and the
/// seeded traffic.
pub struct AdData {
    /// Fitted on the training draw; travels with every model.
    pub normalizer: Normalizer,
    /// Training rows, normalized.
    pub train_x: Matrix,
    pub train_y: Vec<usize>,
    /// Traffic rows as packets carry them (raw feature space).
    pub traffic_raw: Matrix,
    /// The same rows normalized the way the server does it, row by row.
    pub traffic_x: Matrix,
    /// Ground-truth labels of the traffic rows.
    pub traffic_y: Vec<usize>,
}

pub fn normalize(raw: &Matrix, normalizer: &Normalizer) -> Matrix {
    let mut out = raw.clone();
    for r in 0..out.rows() {
        normalizer.apply(out.row_mut(r));
    }
    out
}

pub fn ad_data(seed: u64, train_rows: usize, traffic_rows: usize) -> AdData {
    let train = NslKddGenerator::new(TRAIN_SEED).generate(train_rows);
    let traffic = NslKddGenerator::new(seed.wrapping_add(TRAIN_SEED + 1)).generate(traffic_rows);
    let normalizer = train.fit_normalizer();
    AdData {
        train_x: normalize(train.features(), &normalizer),
        train_y: train.labels().to_vec(),
        traffic_raw: traffic.features().clone(),
        traffic_x: normalize(traffic.features(), &normalizer),
        traffic_y: traffic.labels().to_vec(),
        normalizer,
    }
}

/// `rows` consecutive rows of `x` from `start`, wrapping around its end.
pub fn window(x: &Matrix, start: usize, rows: usize) -> Matrix {
    Matrix::from_fn(rows, x.cols(), |r, c| x[((start + r) % x.rows(), c)])
}

/// `count` traffic windows of `rows` rows at phases drawn from `seed`, and
/// for each tenant's full-traffic verdicts in `truth` the verdicts of every
/// window: `reference[tenant][window]`.
pub fn traffic_windows(
    raw: &Matrix,
    truth: &[Vec<usize>],
    seed: u64,
    count: usize,
    rows: usize,
) -> (Vec<Matrix>, Vec<Vec<Vec<usize>>>) {
    let mut phases = SplitMix(seed);
    let starts: Vec<usize> = (0..count).map(|_| phases.below(raw.rows())).collect();
    let windows = starts.iter().map(|&s| window(raw, s, rows)).collect();
    let reference = truth
        .iter()
        .map(|verdicts| {
            starts
                .iter()
                .map(|&s| {
                    (0..rows)
                        .map(|r| verdicts[(s + r) % verdicts.len()])
                        .collect()
                })
                .collect()
        })
        .collect();
    (windows, reference)
}

/// The five families the runtime lowers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Dnn,
    Svm,
    KMeans,
    DecisionTree,
    RandomForest,
}

impl Family {
    pub const ALL: [Family; 5] = [
        Family::Dnn,
        Family::Svm,
        Family::KMeans,
        Family::DecisionTree,
        Family::RandomForest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Dnn => "dnn",
            Family::Svm => "svm",
            Family::KMeans => "kmeans",
            Family::DecisionTree => "decision_tree",
            Family::RandomForest => "random_forest",
        }
    }

    /// KMeans verdicts are cluster ids, not labels: it has no F1.
    pub fn is_supervised(self) -> bool {
        self != Family::KMeans
    }
}

/// A trained float model, kept to score float-vs-served agreement.
pub enum FloatModel {
    Dnn(Mlp),
    Svm(LinearSvm),
    KMeans(KMeans),
    Tree(DecisionTreeClassifier),
    Forest(RandomForestClassifier),
}

/// The serving DNN of the repo's benches: 7-16-8-2, sigmoid.
pub fn dnn_architecture(inputs: usize) -> MlpArchitecture {
    MlpArchitecture::new(inputs, vec![16, 8], 2).with_activation(Activation::Sigmoid)
}

pub fn train_dnn(x: &Matrix, y: &[usize], epochs: usize) -> Res<Mlp> {
    let mut net = Mlp::new(&dnn_architecture(x.cols()), 0)?;
    net.train(x, y, &TrainConfig::default().epochs(epochs))?;
    Ok(net)
}

pub fn train_tree(x: &Matrix, y: &[usize], seed: u64) -> Res<DecisionTreeClassifier> {
    let config = TreeConfig::default().max_depth(6).seed(seed);
    Ok(DecisionTreeClassifier::fit(x, y, 2, &config)?)
}

impl FloatModel {
    /// Trains `family` on the normalized training rows.
    pub fn train(family: Family, x: &Matrix, y: &[usize], dnn_epochs: usize) -> Res<Self> {
        Ok(match family {
            Family::Dnn => FloatModel::Dnn(train_dnn(x, y, dnn_epochs)?),
            Family::Svm => FloatModel::Svm(LinearSvm::fit(x, y, 2, &SvmConfig::default())?),
            Family::KMeans => FloatModel::KMeans(KMeans::fit(x, &KMeansConfig::new(4))?),
            Family::DecisionTree => FloatModel::Tree(train_tree(x, y, 0)?),
            Family::RandomForest => FloatModel::Forest(RandomForestClassifier::fit(
                x,
                y,
                2,
                // The default 24 trees, shallow and on half-sample bags so
                // that set-up stays well under a second.
                &ForestConfig {
                    tree: TreeConfig::default().max_depth(6),
                    sample_fraction: 0.5,
                    ..ForestConfig::default()
                },
            )?),
        })
    }

    pub fn predict(&self, x: &Matrix) -> Res<Vec<usize>> {
        Ok(match self {
            FloatModel::Dnn(m) => m.predict(x)?,
            FloatModel::Svm(m) => m.predict(x)?,
            FloatModel::KMeans(m) => m.predict(x),
            FloatModel::Tree(m) => m.predict(x),
            FloatModel::Forest(m) => m.predict(x),
        })
    }

    pub fn ir(&self, n_features: usize) -> ModelIr {
        match self {
            FloatModel::Dnn(m) => ModelIr::Dnn(DnnIr::from_mlp(m)),
            FloatModel::Svm(m) => ModelIr::Svm(SvmIr::from_svm(m)),
            FloatModel::KMeans(m) => ModelIr::KMeans(KMeansIr::from_kmeans(m, n_features)),
            FloatModel::Tree(m) => ModelIr::Tree(TreeIr::from_tree(m)),
            FloatModel::Forest(m) => ModelIr::Forest(ForestIr::from_forest(m)),
        }
    }
}

/// Share of positions on which two verdict vectors agree.
pub fn agreement(a: &[usize], b: &[usize]) -> f64 {
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len().max(1) as f64
}

/// Positions on which `got` differs from `want` (a length mismatch counts
/// every missing position).
pub fn mismatches(got: &[usize], want: &[usize]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let (mut a, mut b, mut c) = (SplitMix(7), SplitMix(7), SplitMix(8));
        let (x, y, z) = (a.next(), b.next(), c.next());
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert!(a.below(10) < 10);
    }

    #[test]
    fn windows_wrap_and_mismatches_count_missing_rows() {
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let w = window(&x, 2, 3);
        assert_eq!(w.row(0), x.row(2));
        assert_eq!(w.row(1), x.row(0));
        let (windows, reference) = traffic_windows(&x, &[vec![7, 8, 9]], 3, 2, 4);
        assert_eq!(windows.len(), 2);
        let first = (0..3).find(|&r| x.row(r) == windows[0].row(0)).unwrap();
        assert_eq!(reference[0][0][0], [7, 8, 9][first]);
        assert_eq!(reference[0][0][3], [7, 8, 9][first]);
        assert_eq!(mismatches(&[1, 0, 1], &[1, 1, 1]), 1);
        assert_eq!(mismatches(&[1], &[1, 1, 1]), 2);
        assert_eq!(agreement(&[1, 0, 1, 1], &[1, 1, 1, 1]), 0.75);
    }

    #[test]
    fn the_seed_draws_the_traffic_and_not_the_training_rows() {
        let (a, b, c) = (
            ad_data(5, 200, 100),
            ad_data(5, 200, 100),
            ad_data(6, 200, 100),
        );
        assert_eq!(a.traffic_raw, b.traffic_raw);
        assert_eq!(a.traffic_y, b.traffic_y);
        assert_ne!(a.traffic_raw, c.traffic_raw);
        assert_eq!(a.train_x, c.train_x);
        assert_eq!(a.normalizer, c.normalizer);
    }
}

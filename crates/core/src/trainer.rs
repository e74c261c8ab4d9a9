//! The one candidate evaluator (§3.2.4).
//!
//! The paper's optimization loop treats *configuration → trained model →
//! objective under the target's constraints* as one black box. Here that
//! box is [`Evaluator::evaluate`]: a [`Candidate`] is decoded into a
//! concrete model (the role the paper delegates to Keras is played by
//! `homunculus-ml`), trained on the train split, scored on the held-out
//! split with the user's objective metric, lowered to a [`ModelIr`],
//! priced on the target and checked against the constraints.
//!
//! Where the bill is a function of the configuration, the pricing comes
//! first. A configured DNN is priced from its decoded architecture before
//! it is trained, and a shape the target refuses is never trained: its
//! [`Scored`] carries the shape-only IR, the real verdict and no objective.
//! Every target prices a DNN from its architecture alone, so the verdict is
//! the one training would have reached. Trees and forests learn their
//! shape, an SVM learns which features it keeps, and KMeans is cheap to
//! fit, so those families, and fixed baselines, are trained and then
//! checked.
//!
//! Every path that turns a configuration into a scored model goes through
//! it:
//!
//! - the search objective of each BO run (`session`'s search stage) maps
//!   a [`Scored`] to the optimizer's evaluation;
//! - [`retrain_winner`], the train stage, evaluates the winner's
//!   configuration under the final epoch budget;
//! - the check stage re-checks each final model through its evaluator's
//!   `check`, the feasibility half of `evaluate`;
//! - `homunculus-bench` evaluates Table 2's hand-tuned baselines as
//!   [`Candidate::Fixed`] architectures.

use crate::alchemy::{Algorithm, Metric, PlatformTarget};
use crate::pipeline::CompilerOptions;
use crate::spaces::{decode_dnn_architecture, decode_dnn_training};
use crate::{CoreError, Result};
use homunculus_backends::model::{DnnIr, ForestIr, KMeansIr, ModelIr, SvmIr, TreeIr};
use homunculus_backends::resources::{Constraints, FeasibilityReport, ResourceEstimate};
use homunculus_datasets::dataset::{Dataset, Normalizer, Split};
use homunculus_ml::forest::{ForestConfig, RandomForestClassifier};
use homunculus_ml::kmeans::{KMeans, KMeansConfig};
use homunculus_ml::metrics::{accuracy, f1_binary, f1_macro, v_measure};
use homunculus_ml::mlp::{Mlp, MlpArchitecture, TrainConfig};
use homunculus_ml::svm::{LinearSvm, SvmConfig};
use homunculus_ml::tree::{DecisionTreeClassifier, TreeConfig};
use homunculus_optimizer::space::Configuration;

/// Objective slack treated as measurement noise throughout the compiler:
/// winner selection prefers the cheapest model within this margin of the
/// best objective, and the final retrain stops early once it lands within
/// it. The value sits at the noise floor of the objective estimate —
/// candidates are scored on a few-hundred-row held-out split, where an F1
/// reading carries a standard error of several percentage points, so a
/// sub-0.025 difference is not evidence that one model is actually better.
pub const EFFICIENCY_SLACK: f64 = 0.025;

/// Deterministic restarts attempted by [`retrain_winner`].
pub const FINAL_RESTARTS: u64 = 3;

/// Knobs the compiler passes down to training.
#[derive(Debug, Clone, Copy)]
pub struct TrainBudget {
    /// Epochs for DNN/SVM training.
    pub epochs: usize,
    /// Seed for weight init and shuffling.
    pub seed: u64,
}

/// What [`Evaluator::evaluate`] trains.
#[derive(Debug)]
pub enum Candidate<'a> {
    /// A point of the algorithm's design space
    /// ([`design_space_for`](crate::spaces::design_space_for)).
    Configured(Algorithm, &'a Configuration),
    /// A fixed DNN architecture: what a hand-tuned baseline *is*. It
    /// trains with [`TrainConfig::default`]'s learning rate and batch
    /// size; epochs and seed come from the [`TrainBudget`].
    Fixed(MlpArchitecture),
}

/// A trained, scored and checked candidate, or one the target refused
/// before it was trained.
#[derive(Debug)]
pub struct Scored {
    /// The lowered model: with its trained parameters, or shape-only when
    /// the target refused it untrained.
    pub ir: ModelIr,
    /// Objective value on the held-out split (higher is better); `None`
    /// when the target refused the candidate before it was trained.
    pub objective: Option<f64>,
    /// The target's estimate for `ir` and its verdict under the
    /// constraints, or why the target could not estimate `ir` at all.
    pub feasibility: Result<(ResourceEstimate, FeasibilityReport)>,
}

/// Trains, scores and checks candidates on one normalized train/test
/// split of one dataset, under one metric, target and constraint set.
#[derive(Debug)]
pub struct Evaluator {
    split: Split,
    normalizer: Normalizer,
    metric: Metric,
    target: PlatformTarget,
    constraints: Constraints,
}

impl Evaluator {
    /// Splits `dataset` (stratified, `test_fraction` held out, shuffled
    /// by `seed`), fits a z-score normalizer on the train part and
    /// normalizes both parts with it.
    ///
    /// # Errors
    ///
    /// Propagates dataset errors.
    pub fn new(
        dataset: &Dataset,
        test_fraction: f64,
        seed: u64,
        metric: Metric,
        target: PlatformTarget,
        constraints: Constraints,
    ) -> Result<Evaluator> {
        let split = dataset.stratified_split(test_fraction, seed)?;
        let normalizer = split.train.fit_normalizer();
        let split = Split {
            train: split.train.normalized(&normalizer)?,
            test: split.test.normalized(&normalizer)?,
        };
        Ok(Evaluator {
            split,
            normalizer,
            metric,
            target,
            constraints,
        })
    }

    /// The normalizer every candidate is trained under, so deployment
    /// paths can preprocess fresh traffic identically.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Trains `candidate` on the train split with `budget`, scores it on
    /// the held-out split, lowers it, and estimates and checks it on the
    /// target. A configured DNN is checked on its shape first and, if the
    /// target refuses it, returned untrained with no objective. A pure
    /// function of its arguments: the same candidate and budget give a
    /// bit-identical [`Scored`].
    ///
    /// # Errors
    ///
    /// Propagates training and metric errors as [`CoreError::Subsystem`].
    /// A model the target cannot estimate is not an error here; it is
    /// [`Scored::feasibility`]'s `Err`.
    pub fn evaluate(&self, candidate: &Candidate<'_>, budget: TrainBudget) -> Result<Scored> {
        let split = &self.split;
        let (ir, predictions) = match *candidate {
            Candidate::Fixed(ref arch) => {
                let train = TrainConfig::default()
                    .epochs(budget.epochs)
                    .seed(budget.seed);
                fit_dnn(arch, &train, split)
            }
            Candidate::Configured(Algorithm::Dnn, config) => {
                let (inputs, classes) = (split.train.n_features(), split.train.n_classes());
                let arch = decode_dnn_architecture(config, inputs, classes);
                // Price the shape first: a DNN the target refuses is never
                // trained. An unestimable shape trains, as it always did.
                let shape = ModelIr::Dnn(DnnIr::from_architecture(&arch));
                let priced = self.check(&shape);
                if priced
                    .as_ref()
                    .is_ok_and(|(_, report)| !report.is_feasible())
                {
                    return Ok(Scored {
                        ir: shape,
                        objective: None,
                        feasibility: priced,
                    });
                }
                let train = decode_dnn_training(config, budget.epochs, budget.seed);
                fit_dnn(&arch, &train, split)
            }
            Candidate::Configured(Algorithm::Svm, config) => fit_svm(config, split, budget),
            Candidate::Configured(Algorithm::KMeans, config) => fit_kmeans(config, split, budget),
            Candidate::Configured(Algorithm::DecisionTree, config) => {
                fit_tree(config, split, budget)
            }
            Candidate::Configured(Algorithm::RandomForest, config) => {
                fit_forest(config, split, budget)
            }
        }?;
        let objective = score(
            self.metric,
            split.train.n_classes(),
            split.test.labels(),
            &predictions,
        )?;
        let feasibility = self.check(&ir);
        Ok(Scored {
            ir,
            objective: Some(objective),
            feasibility,
        })
    }

    /// Estimates `ir`'s resources and performance on the target and
    /// checks the estimate against the constraints.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] when the target cannot estimate
    /// `ir`.
    pub(crate) fn check(&self, ir: &ModelIr) -> Result<(ResourceEstimate, FeasibilityReport)> {
        let estimate = self.target.as_target().estimate(ir)?;
        let report = self.constraints.check(&estimate);
        Ok((estimate, report))
    }
}

/// Retrains a search winner with the final epoch budget — the compile
/// pipeline's *train* stage for one model — and returns the final model
/// with its objective.
///
/// Training is stochastic and an unlucky initialization can collapse into
/// a degenerate model (e.g. one-class predictions, F1 = 0) even for a
/// configuration that scored well during the search — so this takes the
/// best of [`FINAL_RESTARTS`] deterministic restarts, stopping early once
/// the retrain is within [`EFFICIENCY_SLACK`] of `search_objective` (the
/// score the configuration earned during the search). Each attempt is
/// reported through `on_attempt(restart, objective)` so session observers
/// see retraining progress as it happens.
///
/// # Errors
///
/// Propagates training and metric errors as [`CoreError::Subsystem`].
/// Returns [`CoreError::NoFeasibleModel`] if the target refuses the
/// candidate untrained, which a configuration the search found feasible
/// never is: its verdict is a function of the configuration.
pub fn retrain_winner(
    evaluator: &Evaluator,
    candidate: &Candidate<'_>,
    options: &CompilerOptions,
    search_objective: f64,
    mut on_attempt: impl FnMut(u64, f64),
) -> Result<(ModelIr, f64)> {
    let mut trained: Option<(ModelIr, f64)> = None;
    for restart in 0..FINAL_RESTARTS {
        let final_budget = TrainBudget {
            epochs: options.final_epochs,
            seed: (options.seed ^ 0xF1A4).wrapping_add(restart.wrapping_mul(0x9E37_79B9)),
        };
        let attempt = evaluator.evaluate(candidate, final_budget)?;
        let objective = attempt.objective.ok_or_else(|| {
            CoreError::NoFeasibleModel(format!("the target refuses the winner {candidate:?}"))
        })?;
        on_attempt(restart, objective);
        let good_enough = objective >= search_objective - EFFICIENCY_SLACK;
        let better = trained.as_ref().map_or(true, |(_, best)| objective > *best);
        if better {
            trained = Some((attempt.ir, objective));
        }
        if good_enough {
            break;
        }
    }
    Ok(trained.expect("at least one final training restart ran"))
}

/// Scores predictions with the requested metric.
fn score(metric: Metric, n_classes: usize, y_true: &[usize], y_pred: &[usize]) -> Result<f64> {
    let value = match metric {
        Metric::F1 => f1_binary(y_true, y_pred)?,
        Metric::MacroF1 => f1_macro(n_classes.max(2), y_true, y_pred)?,
        Metric::Accuracy => accuracy(y_true, y_pred)?,
        Metric::VMeasure => v_measure(y_true, y_pred)?.v_measure,
    };
    Ok(value)
}

/// A family trainer's output: the lowered model and its predictions on
/// the held-out split.
type Fitted = Result<(ModelIr, Vec<usize>)>;

/// An integer hyper-parameter of `config`.
fn integer(config: &Configuration, name: &str) -> Result<usize> {
    config
        .integer(name)
        .map(|value| value as usize)
        .ok_or_else(|| CoreError::Subsystem(format!("configuration is missing {name}")))
}

/// Trains a DNN; `train.seed` also seeds the weight initialization.
fn fit_dnn(arch: &MlpArchitecture, train: &TrainConfig, split: &Split) -> Fitted {
    let mut net = Mlp::new(arch, train.seed)?;
    net.train(split.train.features(), split.train.labels(), train)?;
    let predictions = net.predict(split.test.features())?;
    Ok((ModelIr::Dnn(DnnIr::from_mlp(&net)), predictions))
}

fn fit_svm(config: &Configuration, split: &Split, budget: TrainBudget) -> Fitted {
    let n_classes = split.train.n_classes();
    let lambda = 10f64.powf(
        config
            .real("log10_lambda")
            .ok_or_else(|| CoreError::Subsystem("configuration is missing log10_lambda".into()))?,
    ) as f32;
    let keep = integer(config, "features")?;
    let svm_config = SvmConfig::default()
        .lambda(lambda)
        .epochs(budget.epochs.max(10))
        .seed(budget.seed);

    // First pass on all features to rank importance, then keep the top-k
    // (the paper: "Homunculus will try to remove less impactful features
    // until the SVM model fits", §4).
    let full = LinearSvm::fit(
        split.train.features(),
        split.train.labels(),
        n_classes,
        &svm_config,
    )?;
    let mut ranked: Vec<(usize, f32)> = full.feature_importance().into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut kept: Vec<usize> = ranked
        .iter()
        .take(keep.clamp(1, split.train.n_features()))
        .map(|(i, _)| *i)
        .collect();
    kept.sort_unstable();

    let train_x = split.train.features().select_cols(&kept);
    let test_x = split.test.features().select_cols(&kept);
    let model = LinearSvm::fit(&train_x, split.train.labels(), n_classes, &svm_config)?;
    let predictions = model.predict(&test_x)?;
    Ok((ModelIr::Svm(SvmIr::from_svm(&model)), predictions))
}

fn fit_kmeans(config: &Configuration, split: &Split, budget: TrainBudget) -> Fitted {
    let k = integer(config, "k")?.clamp(1, split.train.len());
    // KMeans with k = 1 cannot be fit meaningfully against V-measure but
    // is a legal (degenerate) configuration: every packet lands in one
    // cluster (the Figure 7 K1 case).
    let model = KMeans::fit(
        split.train.features(),
        &KMeansConfig::new(k).seed(budget.seed),
    )?;
    let predictions = model.predict(split.test.features());
    let ir = KMeansIr::from_kmeans(&model, split.train.n_features());
    Ok((ModelIr::KMeans(ir), predictions))
}

fn tree_config(config: &Configuration, budget: TrainBudget) -> Result<TreeConfig> {
    Ok(TreeConfig {
        max_depth: integer(config, "depth")?,
        min_samples_leaf: integer(config, "min_leaf")?,
        seed: budget.seed,
        ..TreeConfig::default()
    })
}

fn fit_tree(config: &Configuration, split: &Split, budget: TrainBudget) -> Fitted {
    let model = DecisionTreeClassifier::fit(
        split.train.features(),
        split.train.labels(),
        split.train.n_classes(),
        &tree_config(config, budget)?,
    )?;
    let predictions = model.predict(split.test.features());
    Ok((ModelIr::Tree(TreeIr::from_tree(&model)), predictions))
}

fn fit_forest(config: &Configuration, split: &Split, budget: TrainBudget) -> Fitted {
    let forest_config = ForestConfig {
        n_trees: integer(config, "n_trees")?,
        tree: tree_config(config, budget)?,
        sample_fraction: 1.0,
        seed: budget.seed,
    };
    let model = RandomForestClassifier::fit(
        split.train.features(),
        split.train.labels(),
        split.train.n_classes(),
        &forest_config,
    )?;
    let predictions = model.predict(split.test.features());
    Ok((ModelIr::Forest(ForestIr::from_forest(&model)), predictions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alchemy::{ModelSpec, Platform};
    use crate::session::{search_seed, Compiler};
    use crate::spaces::design_space_for;
    use homunculus_datasets::iot::IotTrafficGenerator;
    use homunculus_datasets::nslkdd::NslKddGenerator;
    use homunculus_ml::tensor::Matrix;
    use homunculus_optimizer::EvaluatedPoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An evaluator on a 70/30 split (seed 0) under Taurus' device budget.
    fn evaluator(dataset: &Dataset, metric: Metric) -> Evaluator {
        let platform = Platform::taurus();
        let (target, constraints) = (
            platform.effective_target(),
            platform.effective_constraints(),
        );
        Evaluator::new(dataset, 0.3, 0, metric, target, constraints).unwrap()
    }

    fn ad_evaluator() -> Evaluator {
        evaluator(&NslKddGenerator::new(1).generate(800), Metric::F1)
    }

    fn ad_spec() -> ModelSpec {
        ModelSpec::builder("ad")
            .data(NslKddGenerator::new(1).generate(200))
            .build()
            .unwrap()
    }

    const BUDGET: TrainBudget = TrainBudget {
        epochs: 10,
        seed: 0,
    };

    #[test]
    fn dnn_candidate_trains_and_scores() {
        let space = design_space_for(Algorithm::Dnn, &ad_spec(), &Platform::taurus()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let config = space.sample(&mut rng);
        let c = ad_evaluator()
            .evaluate(&Candidate::Configured(Algorithm::Dnn, &config), BUDGET)
            .unwrap();
        assert!((0.0..=1.0).contains(&c.objective.unwrap()));
        assert!(matches!(c.ir, ModelIr::Dnn(ref d) if d.params.is_some()));
    }

    #[test]
    fn a_dnn_is_priced_by_its_shape_alone() {
        // The invariant pricing before training rests on: on every
        // target, a DNN's estimate and verdict are those of its shape.
        let data = NslKddGenerator::new(1).generate(300);
        for platform in [Platform::taurus(), Platform::tofino(), Platform::fpga()] {
            let (target, constraints) = (
                platform.effective_target(),
                platform.effective_constraints(),
            );
            let evaluator = Evaluator::new(&data, 0.3, 0, Metric::F1, target, constraints).unwrap();
            let space = design_space_for(Algorithm::Dnn, &ad_spec(), &platform).unwrap();
            let mut rng = StdRng::seed_from_u64(12);
            let train = TrainConfig::default().epochs(1);
            for _ in 0..6 {
                let config = space.sample(&mut rng);
                let arch = decode_dnn_architecture(&config, 7, 2);
                let shape = ModelIr::Dnn(DnnIr::from_architecture(&arch));
                let (trained, _) = fit_dnn(&arch, &train, &evaluator.split).unwrap();
                assert!(matches!(trained, ModelIr::Dnn(ref d) if d.params.is_some()));
                // Tofino cannot estimate a DNN that needs more MATs than
                // it has: then both are the same error.
                let check = |ir| evaluator.check(ir).map_err(|e| e.to_string());
                assert_eq!(
                    check(&shape),
                    check(&trained),
                    "{arch:?} on {}",
                    platform.effective_target().as_target().name()
                );
            }
        }
    }

    #[test]
    fn a_refused_dnn_is_never_trained() {
        // Seed 4 draws seven hidden layers, over Taurus' CU budget.
        let space = design_space_for(Algorithm::Dnn, &ad_spec(), &Platform::taurus()).unwrap();
        let config = space.sample(&mut StdRng::seed_from_u64(4));
        let refused = ad_evaluator()
            .evaluate(&Candidate::Configured(Algorithm::Dnn, &config), BUDGET)
            .unwrap();
        assert_eq!(refused.objective, None);
        assert!(matches!(refused.ir, ModelIr::Dnn(ref d) if d.params.is_none()));
        let (_, report) = refused.feasibility.unwrap();
        assert!(!report.is_feasible());
    }

    #[test]
    fn svm_candidate_respects_feature_budget() {
        let evaluator = ad_evaluator();
        let space = design_space_for(Algorithm::Svm, &ad_spec(), &Platform::tofino()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let config = space.sample(&mut rng);
            let keep = config.integer("features").unwrap() as usize;
            let c = evaluator
                .evaluate(&Candidate::Configured(Algorithm::Svm, &config), BUDGET)
                .unwrap();
            match &c.ir {
                ModelIr::Svm(svm) => assert_eq!(svm.n_features, keep),
                other => panic!("expected svm ir, got {other:?}"),
            }
        }
    }

    #[test]
    fn kmeans_candidate_scores_vmeasure() {
        let ds = IotTrafficGenerator::new(2).generate(600);
        let spec = ModelSpec::builder("tc")
            .optimization_metric(Metric::VMeasure)
            .data(IotTrafficGenerator::new(2).generate(100))
            .build()
            .unwrap();
        let space = design_space_for(Algorithm::KMeans, &spec, &Platform::tofino()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let config = space.sample(&mut rng);
        let c = evaluator(&ds, Metric::VMeasure)
            .evaluate(&Candidate::Configured(Algorithm::KMeans, &config), BUDGET)
            .unwrap();
        assert!((0.0..=1.0).contains(&c.objective.unwrap()));
    }

    #[test]
    fn tree_candidate_bounded_depth() {
        let space =
            design_space_for(Algorithm::DecisionTree, &ad_spec(), &Platform::taurus()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let config = space.sample(&mut rng);
        let depth_cap = config.integer("depth").unwrap() as usize;
        let c = ad_evaluator()
            .evaluate(
                &Candidate::Configured(Algorithm::DecisionTree, &config),
                BUDGET,
            )
            .unwrap();
        match &c.ir {
            ModelIr::Tree(t) => assert!(t.depth <= depth_cap.max(1)),
            other => panic!("expected tree ir, got {other:?}"),
        }
    }

    #[test]
    fn forest_candidate_bounded_shape() {
        let space =
            design_space_for(Algorithm::RandomForest, &ad_spec(), &Platform::taurus()).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let config = space.sample(&mut rng);
        let n_trees = config.integer("n_trees").unwrap() as usize;
        let depth_cap = config.integer("depth").unwrap() as usize;
        let c = ad_evaluator()
            .evaluate(
                &Candidate::Configured(Algorithm::RandomForest, &config),
                BUDGET,
            )
            .unwrap();
        assert!((0.0..=1.0).contains(&c.objective.unwrap()));
        match &c.ir {
            ModelIr::Forest(f) => {
                assert_eq!(f.trees.len(), n_trees);
                assert!(f.depth() <= depth_cap.max(1));
            }
            other => panic!("expected forest ir, got {other:?}"),
        }
    }

    #[test]
    fn score_dispatches_metrics() {
        let t = [0, 1, 0, 1];
        let p = [0, 1, 0, 0];
        assert!(score(Metric::F1, 2, &t, &p).unwrap() > 0.0);
        assert!(score(Metric::MacroF1, 2, &t, &p).unwrap() > 0.0);
        assert_eq!(score(Metric::Accuracy, 2, &t, &t).unwrap(), 1.0);
        assert_eq!(score(Metric::VMeasure, 2, &t, &t).unwrap(), 1.0);
        // `evaluate` scores with its evaluator's metric: feature 0 alone
        // separates the two classes, so any tree the design space allows
        // predicts the held-out rows exactly and every metric reads 1.
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i % 2) as f32 * 10.0, i as f32])
            .collect();
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let names = vec!["class".to_string(), "index".to_string()];
        let ds = Dataset::new(Matrix::from_rows(&rows).unwrap(), labels, 2, names).unwrap();
        let space =
            design_space_for(Algorithm::DecisionTree, &ad_spec(), &Platform::taurus()).unwrap();
        let config = space.sample(&mut StdRng::seed_from_u64(1));
        let tree = Candidate::Configured(Algorithm::DecisionTree, &config);
        for metric in [
            Metric::F1,
            Metric::MacroF1,
            Metric::Accuracy,
            Metric::VMeasure,
        ] {
            let scored = evaluator(&ds, metric).evaluate(&tree, BUDGET).unwrap();
            assert_eq!(scored.objective, Some(1.0), "{metric:?}");
        }
    }

    #[test]
    fn better_architectures_score_better_on_average() {
        // Sanity for the whole Table 2 premise: a wider/deeper candidate
        // should beat a minimal one on the AD task more often than not.
        let evaluator = ad_evaluator();
        let space = design_space_for(Algorithm::Dnn, &ad_spec(), &Platform::taurus()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        // Collect a few tiny and large configurations by rejection
        // sampling; any single draw can carry a pathological learning
        // rate, so the claim is only about the class averages.
        const PER_CLASS: usize = 3;
        let mut tiny = Vec::new();
        let mut large = Vec::new();
        for _ in 0..6_000 {
            let c = space.sample(&mut rng);
            let width = c.integer("width").unwrap();
            let layers = c.integer("n_layers").unwrap();
            if width <= 4 && layers == 1 && tiny.len() < PER_CLASS {
                tiny.push(c.clone());
            }
            if width >= 20 && (2..=4).contains(&layers) && large.len() < PER_CLASS {
                large.push(c.clone());
            }
            if tiny.len() == PER_CLASS && large.len() == PER_CLASS {
                break;
            }
        }
        assert_eq!(tiny.len(), PER_CLASS, "tiny configs found");
        assert_eq!(large.len(), PER_CLASS, "large configs found");
        let budget = TrainBudget {
            epochs: 20,
            seed: 0,
        };
        let mean = |configs: &[Configuration]| -> f64 {
            configs
                .iter()
                .map(|c| {
                    evaluator
                        .evaluate(&Candidate::Configured(Algorithm::Dnn, c), budget)
                        .unwrap()
                        .objective
                        .unwrap()
                })
                .sum::<f64>()
                / configs.len() as f64
        };
        let t = mean(&tiny);
        let l = mean(&large);
        assert!(
            l > t - 0.05,
            "large mean {l} should not lose badly to tiny mean {t}"
        );
    }

    #[test]
    fn evaluation_is_a_pure_function_of_the_candidate() {
        let evaluator = ad_evaluator();
        let space = design_space_for(Algorithm::Dnn, &ad_spec(), &Platform::taurus()).unwrap();
        let config = space.sample(&mut StdRng::seed_from_u64(5));
        let fixed = Candidate::Fixed(MlpArchitecture::new(7, vec![16, 4], 2));
        for candidate in [Candidate::Configured(Algorithm::Dnn, &config), fixed] {
            let first = evaluator.evaluate(&candidate, BUDGET).unwrap();
            let again = evaluator.evaluate(&candidate, BUDGET).unwrap();
            let bits = |scored: &Scored| scored.objective.unwrap().to_bits();
            assert_eq!(bits(&first), bits(&again));
            assert_eq!(first.ir, again.ir);
        }
    }

    #[test]
    fn the_search_objective_is_the_evaluator() {
        // Re-evaluating each search's best configuration, on the search's
        // split with the search's budget, reproduces the objective its
        // history recorded bit for bit: an evaluation is a pure function
        // of its configuration.
        let spec = ModelSpec::builder("ad")
            .data(NslKddGenerator::new(3).generate(400))
            .build()
            .unwrap();
        let mut platform = Platform::taurus();
        platform.schedule(spec.clone()).unwrap();
        let options = CompilerOptions {
            bo_budget: 5,
            doe_samples: 3,
            train_epochs: 5,
            final_epochs: 5,
            sample_cap: None,
            parallel: false,
            seed: 3,
            time_budget: None,
        };
        let searched = Compiler::new(options)
            .open(&platform)
            .unwrap()
            .search()
            .unwrap();
        let evaluator = Evaluator::new(
            &spec.dataset,
            spec.test_fraction,
            options.seed,
            spec.optimization_metric,
            platform.effective_target(),
            platform.effective_constraints(),
        )
        .unwrap();
        let runs = searched.searches()[0].runs();
        assert!(runs.len() > 1, "several algorithms searched");
        for (algorithm, run) in runs {
            let best = run.as_ref().unwrap().points().iter().max_by(|a, b| {
                let objective = |p: &EvaluatedPoint| p.evaluation.objective.unwrap();
                objective(a).total_cmp(&objective(b))
            });
            let best = best.expect("the search evaluated candidates");
            let budget = TrainBudget {
                epochs: options.train_epochs,
                seed: search_seed(options.seed, 0, *algorithm),
            };
            let candidate = Candidate::Configured(*algorithm, &best.configuration);
            let scored = evaluator.evaluate(&candidate, budget).unwrap();
            assert_eq!(
                scored.objective.unwrap().to_bits(),
                best.evaluation.objective.unwrap().to_bits(),
                "{algorithm:?}"
            );
        }
    }
}

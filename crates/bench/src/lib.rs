#![forbid(unsafe_code)]
//! # homunculus-bench
//!
//! The paper's evaluation (§5) as one program, `paper <experiment>…` or
//! `paper all`: each table/figure is a function in [`experiments`] that
//! prints its table and returns the claims it measured as
//! [`ShapeCheck`]s, and the run exits non-zero when a check is false
//! that [`EXPECTED_FAILURES`] does not list, or holds when it does.
//! This library also holds the shared experiment plumbing:
//!
//! - the **hand-tuned baseline** model definitions (the paper's Base-AD,
//!   Base-TC, Base-BD architectures), trained and scored by the
//!   compiler's own [`Evaluator`],
//! - dataset construction for the three applications,
//! - partial-histogram (per-packet) evaluation for botnet detection,
//! - the paper's reported numbers ([`paper`]) for side-by-side printing.
//!
//! | Experiment | Reproduces |
//! |---|---|
//! | `table2` | Table 2 — baselines vs Homunculus (F1, params, CUs, MUs) |
//! | `table3` | Table 3 — app-chaining resource scaling |
//! | `table4` | Table 4 — model fusion resource usage |
//! | `table5` | Table 5 — FPGA utilization & power of Table 2's models |
//! | `fig4` | Figure 4 — BO regret plot (AD) |
//! | `fig6` | Figure 6 — botnet vs benign PL/IPT histograms |
//! | `fig7` | Figure 7 — KMeans V-measure under MAT budgets |
//! | `reaction_time` | §5.1.1/§5.1.2 — per-packet reaction-time study |
//! | `ablation_bo` | BO-guided search vs random search, same budget |
//!
//! `table2` and `table5` read the same six models, built once per run by
//! [`experiments::table2_models`].

pub mod experiments;

use homunculus_backends::model::{DnnIr, ModelIr};
use homunculus_core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus_core::pipeline::{generate_with, CompiledArtifact, CompilerOptions};
use homunculus_core::trainer::{Candidate, Evaluator, Scored, TrainBudget};
use homunculus_core::CoreError;
use homunculus_datasets::dataset::{Dataset, Normalizer};
use homunculus_datasets::histogram::FlowmarkerConfig;
use homunculus_datasets::iot::IotTrafficGenerator;
use homunculus_datasets::nslkdd::NslKddGenerator;
use homunculus_datasets::p2p::{FlowTrace, P2pTrafficGenerator};
use homunculus_ml::metrics::f1_binary;
use homunculus_ml::mlp::{Dense, Mlp, MlpArchitecture};

/// The paper's reported numbers, for side-by-side printing.
pub mod paper {
    /// Table 2 rows: (name, features, params, f1, cus, mus).
    pub const TABLE2: [(&str, usize, usize, f64, usize, usize); 6] = [
        ("Base-AD", 7, 203, 71.10, 24, 48),
        ("Hom-AD", 7, 254, 83.10, 41, 67),
        ("Base-TC", 7, 275, 61.04, 31, 59),
        ("Hom-TC", 7, 370, 68.75, 54, 97),
        ("Base-BD", 30, 662, 77.0, 167, 45),
        ("Hom-BD", 30, 501, 79.8, 53, 151),
    ];

    /// Table 3 rows: (strategy, cus, mus).
    pub const TABLE3: [(&str, usize, usize); 3] = [
        ("DNN > DNN > DNN > DNN", 24, 24),
        ("DNN | DNN | DNN | DNN", 24, 24),
        ("DNN > (DNN | DNN) > DNN", 24, 24),
    ];

    /// Table 4 rows: (application, pcus, pmus).
    pub const TABLE4: [(&str, usize, usize); 3] = [
        ("AD: Part 1", 44, 81),
        ("AD: Part 2", 51, 96),
        ("AD: Fused", 48, 83),
    ];

    /// Table 5 rows: (application, lut%, ff%, bram%, power W).
    pub const TABLE5: [(&str, f64, f64, f64, f64); 7] = [
        ("Loopback", 5.36, 3.64, 4.15, 15.131),
        ("Base-AD", 6.55, 4.30, 4.15, 16.969),
        ("Hom-AD", 6.61, 4.43, 4.15, 17.440),
        ("Base-TC", 6.69, 4.48, 4.15, 17.553),
        ("Hom-TC", 7.48, 4.77, 4.15, 18.405),
        ("Base-BD", 7.29, 4.68, 4.15, 17.807),
        ("Hom-BD", 6.72, 4.49, 4.15, 17.309),
    ];

    /// §1: per-packet BD model headline F1.
    pub const BD_PER_PACKET_HEADLINE_F1: f64 = 86.5;
    /// §5.1.2: FlowLens flow-level wait before a verdict.
    pub const FLOWLENS_WAIT_SECONDS: f64 = 3_600.0;
    /// §5.1.2: flowmarker reduction factor (151 -> 30 bins).
    pub const FLOWMARKER_REDUCTION: usize = 5;
}

/// The three applications of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Application {
    /// Anomaly detection (NSL-KDD-like).
    Ad,
    /// Traffic classification (IoT devices).
    Tc,
    /// Botnet detection (P2P flowmarkers).
    Bd,
}

impl Application {
    /// The hand-tuned baseline architecture from the paper:
    /// - Base-AD: the Taurus-paper AD model (~203 params),
    /// - Base-TC: IIsy DNN baseline, 3 hidden layers (10, 10, 5),
    /// - Base-BD: FlowLens-derived, 4 hidden layers of 10 on 30 bins.
    pub fn baseline_architecture(self) -> MlpArchitecture {
        match self {
            Application::Ad => MlpArchitecture::new(7, vec![16, 4], 2),
            Application::Tc => MlpArchitecture::new(7, vec![10, 10, 5], 5),
            Application::Bd => MlpArchitecture::new(30, vec![10, 10, 10, 10], 2),
        }
    }

    /// The objective metric for this application.
    pub fn metric(self) -> Metric {
        match self {
            Application::Ad | Application::Bd => Metric::F1,
            Application::Tc => Metric::MacroF1,
        }
    }

    /// Trains the hand-tuned baseline on `dataset` with fixed
    /// hyper-parameters — no search, as a human would deploy it — and
    /// scores it with the compiler's own [`Evaluator`] under
    /// [`taurus_platform`]'s target and constraints, on the split a
    /// compile would use (`seed` seeds the split and the training).
    /// Returns the normalizer the model was trained under beside it.
    ///
    /// # Errors
    ///
    /// Propagates split and training failures.
    pub fn baseline(self, dataset: Dataset, seed: u64) -> Result<(Scored, Normalizer), CoreError> {
        let platform = taurus_platform(dnn_spec("baseline", self.metric(), dataset)?)?;
        let spec = platform.schedule_expr().expect("scheduled").models()[0];
        let evaluator = Evaluator::new(
            &spec.dataset,
            spec.test_fraction,
            seed,
            spec.optimization_metric,
            platform.effective_target(),
            platform.effective_constraints(),
        )?;
        // 60 epochs at `TrainConfig`'s default learning rate and batch
        // size: the sensible fixed defaults a practitioner would pick.
        let budget = TrainBudget { epochs: 60, seed };
        let scored = evaluator.evaluate(&Candidate::Fixed(self.baseline_architecture()), budget)?;
        Ok((scored, evaluator.normalizer().clone()))
    }
}

/// Standard dataset sizes for the experiments (kept modest so every
/// binary completes in seconds; scale up freely).
pub const AD_SAMPLES: usize = 6_000;
/// IoT TC dataset size.
pub const TC_SAMPLES: usize = 6_000;
/// Number of P2P training flows.
pub const BD_TRAIN_FLOWS: usize = 900;
/// Number of P2P test flows.
pub const BD_TEST_FLOWS: usize = 500;

/// Builds the AD dataset.
pub fn ad_dataset(seed: u64) -> Dataset {
    NslKddGenerator::new(seed).generate(AD_SAMPLES)
}

/// Builds the TC dataset.
pub fn tc_dataset(seed: u64) -> Dataset {
    IotTrafficGenerator::new(seed).generate(TC_SAMPLES)
}

/// Builds BD train/test flows.
pub fn bd_flows(seed: u64) -> (Vec<FlowTrace>, Vec<FlowTrace>) {
    (
        P2pTrafficGenerator::new(seed).generate_flows(BD_TRAIN_FLOWS),
        P2pTrafficGenerator::new(seed ^ 0xBEEF).generate_flows(BD_TEST_FLOWS),
    )
}

/// Builds the paper's standard Taurus platform (1 GPkt/s, 500 ns, 16x16)
/// with `model` scheduled on it.
///
/// # Errors
///
/// Propagates schedule validation errors.
pub fn taurus_platform(model: ModelSpec) -> Result<Platform, CoreError> {
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(model)?;
    Ok(platform)
}

/// A DNN model optimizing `metric` on `dataset`.
///
/// # Errors
///
/// Propagates spec validation errors.
pub fn dnn_spec(name: &str, metric: Metric, dataset: Dataset) -> Result<ModelSpec, CoreError> {
    ModelSpec::builder(name)
        .optimization_metric(metric)
        .algorithm(Algorithm::Dnn)
        .data(dataset)
        .build()
}

/// Runs the Homunculus compiler on one DNN application targeting a
/// Taurus switch with the paper's constraints (1 GPkt/s, 500 ns, 16x16).
///
/// # Errors
///
/// Propagates compiler errors.
pub fn compile_on_taurus(
    name: &str,
    metric: Metric,
    dataset: Dataset,
    options: &CompilerOptions,
) -> Result<CompiledArtifact, CoreError> {
    generate_with(&taurus_platform(dnn_spec(name, metric, dataset)?)?, options)
}

/// The experiment-scale compiler options (Figure 4's ~20 iterations).
pub fn experiment_options(seed: u64) -> CompilerOptions {
    CompilerOptions {
        bo_budget: 20,
        doe_samples: 5,
        train_epochs: 60,
        final_epochs: 150,
        sample_cap: Some(4_000),
        parallel: true,
        seed,
        time_budget: None,
    }
}

/// Rebuilds an executable [`Mlp`] from a compiled DNN IR.
///
/// # Panics
///
/// Panics if the IR is not a trained DNN.
pub fn mlp_from_ir(ir: &ModelIr) -> Mlp {
    let dnn: &DnnIr = match ir {
        ModelIr::Dnn(d) => d,
        other => panic!("expected dnn ir, got {}", other.family()),
    };
    let params = dnn.params.as_ref().expect("trained ir");
    let layers: Vec<Dense> = params
        .iter()
        .map(|p| Dense {
            weights: p.weights.clone(),
            bias: p.bias.clone(),
        })
        .collect();
    Mlp::from_parts(&dnn.arch, layers).expect("ir shapes are consistent")
}

/// Evaluates a BD classifier on per-packet **partial histograms**: every
/// test flow contributes one sample per horizon in `horizons` (prefixes
/// of 1, 2, 4, ... packets), mimicking the paper's per-packet test set.
///
/// Returns the F1 over all (flow, horizon) samples.
///
/// # Panics
///
/// Panics when `flows` or `horizons` is empty.
pub fn partial_histogram_f1(
    net: &Mlp,
    normalizer: &Normalizer,
    flows: &[FlowTrace],
    config: FlowmarkerConfig,
    horizons: &[usize],
) -> f64 {
    assert!(!flows.is_empty() && !horizons.is_empty());
    let mut y_true = Vec::new();
    let mut y_pred = Vec::new();
    for flow in flows {
        for &horizon in horizons {
            let seen = horizon.min(flow.packets.len());
            let marker = flow.partial_flowmarker(config, seen);
            let mut features = marker.feature_vector();
            normalizer.apply(&mut features);
            y_true.push(flow.label);
            y_pred.push(net.predict_row(&features).expect("dimensions match"));
        }
    }
    f1_binary(&y_true, &y_pred).expect("labels are binary")
}

/// The standard per-packet evaluation horizons.
pub const BD_HORIZONS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// One of the paper's claims, measured.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Stable name, `<experiment>.<claim>`, as [`EXPECTED_FAILURES`]
    /// lists it.
    pub id: &'static str,
    /// The claim, in words.
    pub claim: &'static str,
    /// What this run measured.
    pub measured: String,
    /// The paper's side of the same comparison (from [`paper`] where the
    /// paper prints a number).
    pub reference: String,
    /// Whether the measurement has the claimed shape.
    pub holds: bool,
}

impl std::fmt::Display for ShapeCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<5} {:<24} {}: {} (paper: {})",
            self.holds, self.id, self.claim, self.measured, self.reference
        )
    }
}

/// The shape checks that are false today, each with why. `paper` fails
/// when a listed check holds, so this list can only shrink: a change
/// that fixes a shape deletes its entry.
pub const EXPECTED_FAILURES: &[(&str, &str)] = &[
    (
        "table2.ad_f1",
        "ROADMAP item 1(b)/(c): retraining the winner discards the weights the \
         search scored (0.707 at search, 0.527 written on compile seed 1), \
         and one baseline draw is compared against one Hom draw",
    ),
    (
        "table5.ad_lut",
        "ROADMAP item 1(b): the written Hom-AD is the 105-parameter model of \
         table2.ad_f1, smaller than Base-AD's 206, so it costs less LUT",
    ),
    (
        "table5.ad_power",
        "ROADMAP item 1(b): the written Hom-AD is the 105-parameter model of \
         table2.ad_f1, smaller than Base-AD's 206, so it draws less power",
    ),
    (
        "fig4.plateau",
        "ROADMAP item 1: the synthetic NSL-KDD generator plateaus near 70 F1 \
         (the paper reaches 83); best-so-far stays at 66.78, and the draws \
         that trained above it (iterations 14-15, 69.21 / 67.78) are \
         infeasible, so they are now refused untrained",
    ),
];

/// An experiment: prints its table and returns its shape checks. Only
/// `table2` and `table5` read Table 2's six models.
pub type Experiment = fn(&[experiments::Table2Model]) -> experiments::Result<Vec<ShapeCheck>>;

/// Every experiment [`run`] knows, in the order `paper all` runs them.
pub const EXPERIMENTS: [(&str, Experiment); 9] = [
    ("table2", experiments::table2),
    ("table3", |_| experiments::table3()),
    ("table4", |_| experiments::table4()),
    ("table5", experiments::table5),
    ("fig4", |_| experiments::fig4()),
    ("fig6", |_| experiments::fig6()),
    ("fig7", |_| experiments::fig7()),
    ("reaction_time", |_| experiments::reaction_time()),
    ("ablation_bo", |_| experiments::ablation_bo()),
];

/// Runs one experiment and prints its shape checks. `table2_models`
/// holds Table 2's six models once the first of `table2`/`table5` in a
/// run has built them.
///
/// # Errors
///
/// An unknown experiment name, or the experiment's own failure.
pub fn run(
    name: &str,
    table2_models: &mut Option<Vec<experiments::Table2Model>>,
) -> experiments::Result<Vec<ShapeCheck>> {
    let (_, experiment) = EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == name)
        .ok_or_else(|| format!("unknown experiment '{name}'"))?;
    if matches!(name, "table2" | "table5") && table2_models.is_none() {
        *table2_models = Some(experiments::table2_models()?);
    }
    let checks = experiment(table2_models.as_deref().unwrap_or_default())?;
    for check in &checks {
        println!("{check}");
    }
    Ok(checks)
}

/// Judges a run's checks against `expected` (id, reason) pairs and
/// returns one line per problem; an empty list passes. A problem is a
/// false check that is not listed, or a listed check that holds. When
/// `complete` (every experiment ran), a listed id no check produced is
/// one too: the entry is stale.
pub fn gate(checks: &[ShapeCheck], expected: &[(&str, &str)], complete: bool) -> Vec<String> {
    let listed = |id: &str| expected.iter().any(|(e, _)| *e == id);
    let mut problems: Vec<String> = checks
        .iter()
        .filter_map(|c| match (c.holds, listed(c.id)) {
            (false, false) => Some(format!("{}: false and not an expected failure", c.id)),
            (true, true) => Some(format!(
                "{}: holds, so delete its EXPECTED_FAILURES entry",
                c.id
            )),
            _ => None,
        })
        .collect();
    if complete {
        problems.extend(
            expected
                .iter()
                .filter(|(id, _)| !checks.iter().any(|c| c.id == *id))
                .map(|(id, _)| format!("{id}: an expected failure no experiment checks")),
        );
    }
    problems
}

/// Section banner for experiment output.
pub(crate) fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Renders a tiny ASCII bar for figure output.
pub(crate) fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_datasets::p2p::flowmarker_dataset;

    #[test]
    fn baseline_architectures_match_paper_param_counts() {
        // Table 2's "# NN Param" column: 203 / 275 / 662. Our Base-AD is
        // 206 (203 is not attainable with integer widths and bias terms).
        assert_eq!(Application::Ad.baseline_architecture().param_count(), 206);
        assert_eq!(Application::Tc.baseline_architecture().param_count(), 275);
        assert_eq!(Application::Bd.baseline_architecture().param_count(), 662);
    }

    #[test]
    fn baseline_training_is_reasonable() {
        let ds = NslKddGenerator::new(0).generate(1_500);
        let (b, _) = Application::Ad.baseline(ds, 0).unwrap();
        let f1 = b.objective.unwrap();
        assert!(f1 > 0.5 && f1 < 0.98, "baseline f1 {f1}");
    }

    #[test]
    fn partial_histogram_f1_is_bounded() {
        let (train, test) = (
            P2pTrafficGenerator::new(1).generate_flows(120),
            P2pTrafficGenerator::new(2).generate_flows(60),
        );
        let config = FlowmarkerConfig::paper_reduced();
        let markers = flowmarker_dataset(&train, config);
        let (baseline, normalizer) = Application::Bd.baseline(markers, 0).unwrap();
        let net = mlp_from_ir(&baseline.ir);
        let f1 = partial_histogram_f1(&net, &normalizer, &test, config, &[1, 4, 16]);
        assert!((0.0..=1.0).contains(&f1), "f1 {f1}");
    }

    fn check(id: &'static str, holds: bool) -> ShapeCheck {
        ShapeCheck {
            id,
            claim: "claim",
            measured: String::new(),
            reference: String::new(),
            holds,
        }
    }

    #[test]
    fn gate_fails_on_unlisted_false_and_listed_holding_checks() {
        let expected = [("x.listed", "why")];
        // A listed false check passes, as does an unlisted true one.
        let ok = [check("x.listed", false), check("x.other", true)];
        assert!(gate(&ok, &expected, true).is_empty());
        // An unlisted false check fails.
        let unlisted = [check("x.listed", false), check("x.other", false)];
        assert_eq!(gate(&unlisted, &expected, false).len(), 1);
        // A listed check that holds fails: the list may only shrink.
        let fixed = [check("x.listed", true)];
        assert_eq!(gate(&fixed, &expected, false).len(), 1);
        // A listed id no experiment produced fails only when all ran.
        let missing = [check("x.other", true)];
        assert!(gate(&missing, &expected, false).is_empty());
        assert_eq!(gate(&missing, &expected, true).len(), 1);
    }

    #[test]
    fn expected_failures_name_known_experiments() {
        for (id, reason) in EXPECTED_FAILURES {
            let experiment = id.split('.').next().unwrap();
            assert!(EXPERIMENTS.iter().any(|(e, _)| *e == experiment), "{id}");
            assert!(reason.contains("ROADMAP item 1"), "{id}");
        }
    }

    #[test]
    fn bar_renders() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
    }
}

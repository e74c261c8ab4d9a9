//! The Alchemy DSL: Homunculus's declarative frontend (§3.1).
//!
//! The paper embeds Alchemy in Python; this crate embeds it in Rust with
//! the same constructs (Table 1 of the paper):
//!
//! | Paper construct | Rust equivalent |
//! |---|---|
//! | `Model({...})` | [`ModelSpec::builder`] |
//! | `@DataLoader` | [`DataLoader`] trait / [`ModelSpecBuilder::data_loader`] |
//! | `Platforms.Taurus()` | [`Platform::taurus`] |
//! | `platform.constrain(...)` | [`Platform::constraints_mut`] + [`ConstraintSpec`] |
//! | `mdl1 > mdl2` (sequential) | `spec1 >> spec2` ([`std::ops::Shr`]) |
//! | `mdl1 \| mdl2` (parallel) | `spec1 \| spec2` ([`std::ops::BitOr`]) |
//! | `IOMap(mapper_func)` / `@IOMapper` | [`IoMap`] |
//! | `homunculus.generate(platform)` | [`crate::generate`] |

use crate::schedule::ScheduleExpr;
use crate::{CoreError, Result};
use homunculus_backends::fpga::FpgaTarget;
use homunculus_backends::resources::Constraints;
use homunculus_backends::target::Target;
use homunculus_backends::taurus::TaurusTarget;
use homunculus_backends::tofino::TofinoTarget;
use homunculus_datasets::dataset::Dataset;

/// The objective metric a model is optimized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Binary F1 with class 1 positive (AD/BD applications).
    #[default]
    F1,
    /// Macro-averaged F1 (multi-class TC application).
    MacroF1,
    /// Plain accuracy.
    Accuracy,
    /// V-measure of a clustering against labels (Figure 7).
    VMeasure,
}

impl Metric {
    /// Lowercase metric name as used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Metric::F1 => "f1",
            Metric::MacroF1 => "macro_f1",
            Metric::Accuracy => "accuracy",
            Metric::VMeasure => "v_measure",
        }
    }

    /// The inverse of [`Metric::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "f1" => Some(Metric::F1),
            "macro_f1" => Some(Metric::MacroF1),
            "accuracy" => Some(Metric::Accuracy),
            "v_measure" => Some(Metric::VMeasure),
            _ => None,
        }
    }
}

/// ML algorithm families the search may draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Deep neural network (MLP).
    Dnn,
    /// Linear SVM.
    Svm,
    /// KMeans clustering.
    KMeans,
    /// CART decision tree.
    DecisionTree,
    /// Bagged random forest (majority vote over CART trees).
    RandomForest,
}

impl Algorithm {
    /// The *default* candidate set, in preference order — what a
    /// [`ModelSpec`] with no explicit algorithm list searches over.
    ///
    /// Random forests are deliberately **not** here: adding a family to
    /// the default set would shift every BO RNG stream and silently
    /// change long-pinned golden artifacts. Forests join a search only
    /// when the spec opts in via
    /// [`ModelSpecBuilder::algorithm`]`(Algorithm::RandomForest)`.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Dnn,
        Algorithm::Svm,
        Algorithm::DecisionTree,
        Algorithm::KMeans,
    ];

    /// Every family the compiler can search, train, and lower —
    /// [`ALL`](Algorithm::ALL) plus the opt-in random forest. Name
    /// decoding (checkpoints, artifacts) resolves over this set.
    pub const EXTENDED: [Algorithm; 5] = [
        Algorithm::Dnn,
        Algorithm::Svm,
        Algorithm::DecisionTree,
        Algorithm::KMeans,
        Algorithm::RandomForest,
    ];

    /// Lowercase name as used in Alchemy programs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Dnn => "dnn",
            Algorithm::Svm => "svm",
            Algorithm::KMeans => "kmeans",
            Algorithm::DecisionTree => "decision_tree",
            Algorithm::RandomForest => "random_forest",
        }
    }

    /// The inverse of [`Algorithm::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Algorithm::EXTENDED.into_iter().find(|a| a.name() == name)
    }
}

/// A source of labeled training data (the paper's `@DataLoader`).
///
/// Implement this for custom loaders; in-memory datasets are wrapped
/// automatically by [`ModelSpecBuilder::data`].
pub trait DataLoader: Send + Sync {
    /// Loads (or produces) the dataset.
    ///
    /// # Errors
    ///
    /// Returns a dataset error if loading fails.
    fn load(&self) -> homunculus_datasets::Result<Dataset>;
}

impl<F> DataLoader for F
where
    F: Fn() -> homunculus_datasets::Result<Dataset> + Send + Sync,
{
    fn load(&self) -> homunculus_datasets::Result<Dataset> {
        self()
    }
}

/// A user's intent for one data-plane model: objectives + data.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Application name (becomes the generated pipeline name).
    pub name: String,
    /// Objective metric to maximize.
    pub optimization_metric: Metric,
    /// Algorithms to search (empty = let Homunculus pick from all).
    pub algorithms: Vec<Algorithm>,
    /// The training data.
    pub dataset: Dataset,
    /// Held-out fraction used to score candidates.
    pub test_fraction: f64,
}

impl ModelSpec {
    /// Starts building a model spec.
    pub fn builder<S: Into<String>>(name: S) -> ModelSpecBuilder {
        ModelSpecBuilder {
            name: name.into(),
            optimization_metric: Metric::default(),
            algorithms: Vec::new(),
            dataset: None,
            test_fraction: 0.3,
        }
    }
}

/// Builder for [`ModelSpec`] (the Alchemy `Model({...})` construct).
#[derive(Debug, Clone)]
pub struct ModelSpecBuilder {
    name: String,
    optimization_metric: Metric,
    algorithms: Vec<Algorithm>,
    dataset: Option<Dataset>,
    test_fraction: f64,
}

impl ModelSpecBuilder {
    /// Sets the objective metric.
    pub fn optimization_metric(mut self, metric: Metric) -> Self {
        self.optimization_metric = metric;
        self
    }

    /// Restricts the search to one algorithm (may be called repeatedly).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithms.push(algorithm);
        self
    }

    /// Supplies the dataset directly.
    pub fn data(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Supplies the dataset through a loader (the `@DataLoader` form).
    ///
    /// # Errors
    ///
    /// Propagates loader failures as [`CoreError::Subsystem`].
    pub fn data_loader<L: DataLoader>(mut self, loader: &L) -> Result<Self> {
        self.dataset = Some(loader.load()?);
        Ok(self)
    }

    /// Sets the held-out test fraction (default 0.3).
    pub fn test_fraction(mut self, fraction: f64) -> Self {
        self.test_fraction = fraction;
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidProgram`] when the name is empty, the
    /// dataset is missing/empty, or the test fraction is degenerate.
    pub fn build(self) -> Result<ModelSpec> {
        if self.name.is_empty() {
            return Err(CoreError::InvalidProgram("model name is empty".into()));
        }
        let dataset = self.dataset.ok_or_else(|| {
            CoreError::InvalidProgram(format!("model '{}' has no dataset", self.name))
        })?;
        if dataset.is_empty() {
            return Err(CoreError::InvalidProgram(format!(
                "model '{}' has an empty dataset",
                self.name
            )));
        }
        if !(0.0 < self.test_fraction && self.test_fraction < 1.0) {
            return Err(CoreError::InvalidProgram(format!(
                "test fraction must be in (0, 1), got {}",
                self.test_fraction
            )));
        }
        Ok(ModelSpec {
            name: self.name,
            optimization_metric: self.optimization_metric,
            algorithms: self.algorithms,
            dataset,
            test_fraction: self.test_fraction,
        })
    }
}

/// Connects model outputs to model inputs (and the outside world) in a
/// multi-model schedule — the paper's `IOMap`/`@IOMapper` constructs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IoMap {
    connections: Vec<(String, String)>,
}

impl IoMap {
    /// An empty mapping (each model reads the packet directly).
    pub fn new() -> Self {
        IoMap::default()
    }

    /// Connects `from` (e.g. `"ad.class"`) to `to` (e.g. `"mitigator.in"`).
    pub fn connect<S: Into<String>, T: Into<String>>(mut self, from: S, to: T) -> Self {
        self.connections.push((from.into(), to.into()));
        self
    }

    /// The configured connections.
    pub fn connections(&self) -> &[(String, String)] {
        &self.connections
    }

    /// Validates that every referenced model exists in `model_names`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidProgram`] for unknown endpoints.
    pub fn validate(&self, model_names: &[&str]) -> Result<()> {
        for (from, to) in &self.connections {
            for endpoint in [from, to] {
                let model = endpoint.split('.').next().unwrap_or(endpoint);
                if !model_names.contains(&model) && model != "world" {
                    return Err(CoreError::InvalidProgram(format!(
                        "iomap references unknown model '{model}'"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The backend device a platform wraps.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformTarget {
    /// Taurus MapReduce switch.
    Taurus(TaurusTarget),
    /// Tofino MAT pipeline.
    Tofino(TofinoTarget),
    /// FPGA NIC (P4-SDNet flow).
    Fpga(FpgaTarget),
}

impl PlatformTarget {
    /// Borrows the target as the object-safe [`Target`] trait.
    pub fn as_target(&self) -> &dyn Target {
        match self {
            PlatformTarget::Taurus(t) => t,
            PlatformTarget::Tofino(t) => t,
            PlatformTarget::Fpga(t) => t,
        }
    }
}

/// Constraint clause under construction (the `platform.constrain(...)`
/// form of Figure 3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConstraintSpec {
    /// Minimum throughput in GPkt/s.
    pub throughput_gpps: Option<f64>,
    /// Maximum latency in ns.
    pub latency_ns: Option<f64>,
    /// Taurus grid rows override.
    pub grid_rows: Option<usize>,
    /// Taurus grid cols override.
    pub grid_cols: Option<usize>,
    /// Tofino MAT budget override.
    pub mats: Option<usize>,
}

impl ConstraintSpec {
    /// Requires at least this throughput (GPkt/s).
    pub fn throughput_gpps(&mut self, gpps: f64) -> &mut Self {
        self.throughput_gpps = Some(gpps);
        self
    }

    /// Allows at most this latency (ns).
    pub fn latency_ns(&mut self, ns: f64) -> &mut Self {
        self.latency_ns = Some(ns);
        self
    }

    /// Constrains the Taurus grid shape (Figure 3: `"rows": 16, "cols": 16`).
    pub fn grid(&mut self, rows: usize, cols: usize) -> &mut Self {
        self.grid_rows = Some(rows);
        self.grid_cols = Some(cols);
        self
    }

    /// Constrains the MAT budget (the Figure 7 sweep).
    pub fn mats(&mut self, mats: usize) -> &mut Self {
        self.mats = Some(mats);
        self
    }
}

/// A physical device instance plus its constraints and scheduled models —
/// the Alchemy `Platforms` construct.
#[derive(Debug, Clone)]
pub struct Platform {
    target: PlatformTarget,
    constraints: ConstraintSpec,
    schedule: Option<ScheduleExpr>,
    iomap: IoMap,
}

impl Platform {
    /// A Taurus switch (default 16x16 grid).
    pub fn taurus() -> Self {
        Platform {
            target: PlatformTarget::Taurus(TaurusTarget::default()),
            constraints: ConstraintSpec::default(),
            schedule: None,
            iomap: IoMap::new(),
        }
    }

    /// A Tofino switch (default 32-MAT budget).
    pub fn tofino() -> Self {
        Platform {
            target: PlatformTarget::Tofino(TofinoTarget::default()),
            constraints: ConstraintSpec::default(),
            schedule: None,
            iomap: IoMap::new(),
        }
    }

    /// An FPGA NIC (Alveo U250, P4-SDNet flow).
    pub fn fpga() -> Self {
        Platform {
            target: PlatformTarget::Fpga(FpgaTarget::default()),
            constraints: ConstraintSpec::default(),
            schedule: None,
            iomap: IoMap::new(),
        }
    }

    /// Mutable access to the constraint clause.
    pub fn constraints_mut(&mut self) -> &mut ConstraintSpec {
        &mut self.constraints
    }

    /// The constraint clause.
    pub fn constraint_spec(&self) -> &ConstraintSpec {
        &self.constraints
    }

    /// Schedules a single model (`platform.schedule(model_spec)`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidProgram`] when a schedule was already
    /// installed.
    pub fn schedule<E: Into<ScheduleExpr>>(&mut self, expr: E) -> Result<()> {
        if self.schedule.is_some() {
            return Err(CoreError::InvalidProgram(
                "platform already has a schedule; build one expression with >> and |".into(),
            ));
        }
        let expr = expr.into();
        expr.validate()?;
        let names = expr.model_names();
        self.iomap
            .validate(&names.iter().map(String::as_str).collect::<Vec<_>>())?;
        self.schedule = Some(expr);
        Ok(())
    }

    /// Installs an IO mapping (call before [`Platform::schedule`]).
    pub fn io_map(&mut self, iomap: IoMap) {
        self.iomap = iomap;
    }

    /// The installed schedule, if any.
    pub fn schedule_expr(&self) -> Option<&ScheduleExpr> {
        self.schedule.as_ref()
    }

    /// The installed IO mapping.
    pub fn iomap(&self) -> &IoMap {
        &self.iomap
    }

    /// The device with any constraint overrides (grid shape, MAT budget)
    /// applied — this is what the compiler estimates against.
    pub fn effective_target(&self) -> PlatformTarget {
        match &self.target {
            PlatformTarget::Taurus(t) => {
                let rows = self.constraints.grid_rows.unwrap_or(t.rows);
                let cols = self.constraints.grid_cols.unwrap_or(t.cols);
                PlatformTarget::Taurus(TaurusTarget::new(rows, cols))
            }
            PlatformTarget::Tofino(t) => {
                let mats = self.constraints.mats.unwrap_or(t.mats);
                PlatformTarget::Tofino(TofinoTarget::with_mats(mats))
            }
            PlatformTarget::Fpga(t) => PlatformTarget::Fpga(t.clone()),
        }
    }

    /// The full constraint set: user clauses + the device budget.
    pub fn effective_constraints(&self) -> Constraints {
        let target = self.effective_target();
        let mut constraints = Constraints::new();
        if let Some(gpps) = self.constraints.throughput_gpps {
            constraints = constraints.throughput_gpps(gpps);
        }
        if let Some(ns) = self.constraints.latency_ns {
            constraints = constraints.latency_ns(ns);
        }
        // Device budget caps every named resource.
        let budget = target.as_target().device_budget();
        for (name, cap) in budget.iter() {
            constraints = constraints.resource(name.clone(), *cap);
        }
        constraints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_ml::tensor::Matrix;

    fn toy_dataset() -> Dataset {
        let x = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.2, 0.8],
        ])
        .unwrap();
        Dataset::new(x, vec![0, 1, 0, 1], 2, vec!["a".into(), "b".into()]).unwrap()
    }

    fn spec(name: &str) -> ModelSpec {
        ModelSpec::builder(name)
            .data(toy_dataset())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(ModelSpec::builder("").data(toy_dataset()).build().is_err());
        assert!(ModelSpec::builder("x").build().is_err(), "missing dataset");
        assert!(ModelSpec::builder("x")
            .data(toy_dataset())
            .test_fraction(1.5)
            .build()
            .is_err());
        let m = ModelSpec::builder("ad")
            .optimization_metric(Metric::F1)
            .algorithm(Algorithm::Dnn)
            .data(toy_dataset())
            .build()
            .unwrap();
        assert_eq!(m.name, "ad");
        assert_eq!(m.algorithms, vec![Algorithm::Dnn]);
    }

    #[test]
    fn forest_is_extended_only() {
        // The default set must stay frozen at four families — growing it
        // would shift BO RNG streams and break golden artifact pins.
        assert_eq!(Algorithm::ALL.len(), 4);
        assert!(!Algorithm::ALL.contains(&Algorithm::RandomForest));
        assert_eq!(Algorithm::EXTENDED.len(), 5);
        assert!(Algorithm::EXTENDED.contains(&Algorithm::RandomForest));
        assert_eq!(
            Algorithm::from_name("random_forest"),
            Some(Algorithm::RandomForest)
        );
        assert_eq!(Algorithm::RandomForest.name(), "random_forest");
        // Every default family still round-trips through names.
        for a in Algorithm::EXTENDED {
            assert_eq!(Algorithm::from_name(a.name()), Some(a));
        }
    }

    #[test]
    fn data_loader_closure_works() {
        let loader = || Ok(toy_dataset());
        let m = ModelSpec::builder("loaded")
            .data_loader(&loader)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(m.dataset.len(), 4);
    }

    #[test]
    fn platform_constructors_and_constraints() {
        let mut p = Platform::taurus();
        p.constraints_mut()
            .throughput_gpps(1.0)
            .latency_ns(500.0)
            .grid(8, 8);
        let c = p.effective_constraints();
        assert_eq!(c.min_throughput_gpps, Some(1.0));
        assert_eq!(c.max_latency_ns, Some(500.0));
        assert_eq!(c.budget.get("cus"), 64.0, "grid override shrinks budget");

        let mut p = Platform::tofino();
        p.constraints_mut().mats(5);
        assert_eq!(p.effective_constraints().budget.get("mats"), 5.0);

        let p = Platform::fpga();
        assert_eq!(p.effective_constraints().budget.get("lut_pct"), 100.0);
    }

    #[test]
    fn schedule_single_model() {
        let mut p = Platform::taurus();
        p.schedule(spec("only")).unwrap();
        assert_eq!(p.schedule_expr().unwrap().model_names(), vec!["only"]);
        // Double scheduling rejected.
        assert!(p.schedule(spec("again")).is_err());
    }

    #[test]
    fn schedule_composed_models() {
        let mut p = Platform::taurus();
        let expr = spec("a") >> (spec("b") | spec("c")) >> spec("d");
        p.schedule(expr).unwrap();
        assert_eq!(p.schedule_expr().unwrap().model_names().len(), 4);
    }

    #[test]
    fn iomap_validation() {
        let map = IoMap::new().connect("a.class", "b.in");
        assert!(map.validate(&["a", "b"]).is_ok());
        assert!(map.validate(&["a"]).is_err());
        let world = IoMap::new().connect("a.class", "world.out");
        assert!(world.validate(&["a"]).is_ok());
    }

    #[test]
    fn iomap_checked_at_schedule_time() {
        let mut p = Platform::taurus();
        p.io_map(IoMap::new().connect("ghost.out", "a.in"));
        assert!(p.schedule(spec("a")).is_err());
    }

    #[test]
    fn metric_and_algorithm_names() {
        assert_eq!(Metric::F1.name(), "f1");
        assert_eq!(Metric::VMeasure.name(), "v_measure");
        assert_eq!(Algorithm::KMeans.name(), "kmeans");
        assert_eq!(Algorithm::ALL.len(), 4);
    }
}

//! Compiler options, model reports, and the compiled artifact.
//!
//! The compile pipeline itself — search → train → feasibility-check →
//! codegen (Figure 2's optimization core + backend generation) — lives in
//! [`crate::session`] as a staged [`Compiler`] session. This module holds
//! what flows *out* of it: per-model
//! [`ModelReport`]s, the [`CompiledArtifact`] (with its portable JSON
//! form — compile once, serve forever), and the one-shot [`generate`] /
//! [`generate_with`] entry points, which are thin shims over a default
//! session and produce bit-identical artifacts.

use crate::alchemy::{Algorithm, Metric, Platform};
use crate::session::Compiler;
use crate::{CoreError, Result};
use homunculus_backends::model::ModelIr;
use homunculus_backends::resources::{Performance, ResourceEstimate, ResourceVector};
use homunculus_datasets::dataset::Normalizer;
use homunculus_ml::quantize::FixedPoint;
use homunculus_optimizer::space::Configuration;
use homunculus_optimizer::OptimizationHistory;
use homunculus_runtime::{Compile, CompiledPipeline, Deployment, DeploymentBuilder, TenantId};
use serde_json::{json, ToJson, Value};

/// Compiler knobs: search/training budgets and reproducibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerOptions {
    /// BO evaluation budget per (model, algorithm) pair.
    pub bo_budget: usize,
    /// Random-initialization samples within that budget.
    pub doe_samples: usize,
    /// Training epochs per BO evaluation.
    pub train_epochs: usize,
    /// Training epochs for the final (winning) model.
    pub final_epochs: usize,
    /// Optional cap on dataset size during the search (stratified
    /// subsample) — evaluation stays on the full split.
    pub sample_cap: Option<usize>,
    /// Run candidate searches (and scheduled models) on parallel threads.
    pub parallel: bool,
    /// Root RNG seed.
    pub seed: u64,
    /// Optional wall-clock deadline for the whole session. When it
    /// expires the session trips its own [`CancelToken`] at the next BO
    /// iteration boundary — in-flight training finishes, and the
    /// remaining stages run on best-so-far state, yielding a *partial*
    /// artifact (or a checkpoint to resume later). `None` means no
    /// deadline. The deadline never touches an RNG stream: results up to
    /// the cut are bit-identical to an unbudgeted run's prefix.
    ///
    /// [`CancelToken`]: crate::session::CancelToken
    pub time_budget: Option<std::time::Duration>,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            bo_budget: 20,
            doe_samples: 5,
            train_epochs: 30,
            final_epochs: 60,
            sample_cap: None,
            parallel: true,
            seed: 0,
            time_budget: None,
        }
    }
}

impl CompilerOptions {
    /// A small-budget preset for tests and examples (seconds, not minutes).
    pub fn fast() -> Self {
        CompilerOptions {
            bo_budget: 8,
            doe_samples: 3,
            train_epochs: 10,
            final_epochs: 20,
            sample_cap: Some(1_200),
            parallel: true,
            seed: 0,
            time_budget: None,
        }
    }

    /// The paper-scale preset (Figure 4 uses ~20 iterations).
    pub fn thorough() -> Self {
        CompilerOptions::default()
    }

    /// Sets the BO budget.
    pub fn bo_budget(mut self, budget: usize) -> Self {
        self.bo_budget = budget;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-evaluation epoch budget.
    pub fn train_epochs(mut self, epochs: usize) -> Self {
        self.train_epochs = epochs;
        self
    }

    /// Arms a wall-clock deadline for the session (see
    /// [`time_budget`](CompilerOptions::time_budget)).
    pub fn time_budget(mut self, budget: std::time::Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }
}

/// JSON document form: every field by name, with `time_budget` in whole
/// nanoseconds (or `null`) — the options block of a session checkpoint,
/// so a resumed compile re-runs under exactly the options that produced
/// the recorded histories.
impl ToJson for CompilerOptions {
    fn to_json(&self) -> Value {
        json!({
            "bo_budget": self.bo_budget,
            "doe_samples": self.doe_samples,
            "train_epochs": self.train_epochs,
            "final_epochs": self.final_epochs,
            "sample_cap": self.sample_cap,
            "parallel": self.parallel,
            "seed": self.seed,
            "time_budget_ns": self.time_budget.map(|d| d.as_nanos() as u64),
        })
    }
}

impl CompilerOptions {
    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] on missing or mistyped fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        let count = |field: &str| {
            value[field]
                .as_i64()
                .filter(|&v| v >= 0)
                .map(|v| v as usize)
                .ok_or_else(|| CoreError::Checkpoint(format!("options need numeric '{field}'")))
        };
        let sample_cap = match &value["sample_cap"] {
            Value::Null => None,
            _ => Some(count("sample_cap")?),
        };
        let time_budget = match &value["time_budget_ns"] {
            Value::Null => None,
            v => Some(std::time::Duration::from_nanos(
                v.as_i64().filter(|&ns| ns >= 0).ok_or_else(|| {
                    CoreError::Checkpoint("options need numeric 'time_budget_ns'".into())
                })? as u64,
            )),
        };
        Ok(CompilerOptions {
            bo_budget: count("bo_budget")?,
            doe_samples: count("doe_samples")?,
            train_epochs: count("train_epochs")?,
            final_epochs: count("final_epochs")?,
            sample_cap,
            parallel: value["parallel"]
                .as_bool()
                .ok_or_else(|| CoreError::Checkpoint("options need boolean 'parallel'".into()))?,
            seed: value["seed"]
                .as_i64()
                .filter(|&v| v >= 0)
                .ok_or_else(|| CoreError::Checkpoint("options need numeric 'seed'".into()))?
                as u64,
            time_budget,
        })
    }
}

/// The compile result for one scheduled model.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Model (application) name.
    pub name: String,
    /// Winning algorithm.
    pub algorithm: Algorithm,
    /// Objective value of the final trained model on the held-out split.
    pub objective: f64,
    /// The metric the objective was measured with.
    pub metric: Metric,
    /// The winning configuration.
    pub configuration: Configuration,
    /// Resource/performance estimate of the final model.
    pub estimate: ResourceEstimate,
    /// The final trained model IR.
    pub ir: ModelIr,
    /// The fixed-point format `compiled` was lowered with (Q3.12, the
    /// Taurus word format, unless a future codegen stage chooses
    /// otherwise). Recorded in the portable JSON form so a reloaded
    /// artifact re-lowers with the *same* quantization — bit-identical
    /// verdicts — even if the workspace default ever changes.
    pub format: FixedPoint,
    /// The IR lowered to the integer fixed-point execution engine —
    /// what actually runs per packet. `None` only if lowering failed,
    /// which a trained IR should never do.
    pub compiled: Option<CompiledPipeline>,
    /// The feature normalizer the final model was trained under; fresh
    /// traffic must be normalized with it before `compiled.classify`.
    pub normalizer: Normalizer,
    /// Generated platform code.
    pub code: String,
    /// The winning algorithm's optimization history (Figure 4's series).
    pub history: OptimizationHistory,
    /// Histories of all algorithm runs (winner included).
    pub algorithm_histories: Vec<(Algorithm, OptimizationHistory)>,
}

/// JSON document form of a report. The executable `compiled` pipeline is
/// **not** serialized: it is a pure function of the IR and is re-lowered
/// on load, so a reloaded report classifies bit-identically to the
/// in-process one without pinning the runtime's internal layout into the
/// wire format.
impl ToJson for ModelReport {
    fn to_json(&self) -> Value {
        let algorithm_histories: Vec<Value> = self
            .algorithm_histories
            .iter()
            .map(
                |(algorithm, history)| json!({ "algorithm": algorithm.name(), "history": history }),
            )
            .collect();
        json!({
            "name": self.name,
            "algorithm": self.algorithm.name(),
            "objective": self.objective,
            "metric": self.metric.name(),
            "configuration": self.configuration,
            "estimate": self.estimate,
            "ir": self.ir,
            "fixed_point": {
                "int_bits": self.format.int_bits(),
                "frac_bits": self.format.frac_bits(),
            },
            "normalizer": self.normalizer,
            "code": self.code,
            "history": self.history,
            "algorithm_histories": algorithm_histories,
        })
    }
}

impl ModelReport {
    /// Decodes the [`ToJson`] document form, re-lowering the IR to the
    /// integer runtime (so `compiled` is ready to classify). Re-lowering
    /// rebuilds the full execution state, including the packed `i16`
    /// weight storage when the format fits 16 bits — a
    /// reloaded artifact serves from the same kernel tier, bit for bit,
    /// as the process that compiled it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] on malformed fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        let text = |field: &str| {
            value[field]
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| CoreError::Subsystem(format!("report needs string '{field}'")))
        };
        let algorithm = Algorithm::from_name(&text("algorithm")?)
            .ok_or_else(|| CoreError::Subsystem("unknown algorithm name in report".into()))?;
        let metric = Metric::from_name(&text("metric")?)
            .ok_or_else(|| CoreError::Subsystem("unknown metric name in report".into()))?;
        let objective = value["objective"]
            .as_f64()
            .ok_or_else(|| CoreError::Subsystem("report needs numeric objective".into()))?;
        let ir = ModelIr::from_json(&value["ir"])?;
        let normalizer = Normalizer::from_json(&value["normalizer"])?;
        let algorithm_histories = value["algorithm_histories"]
            .as_array()
            .ok_or_else(|| CoreError::Subsystem("report needs algorithm_histories".into()))?
            .iter()
            .map(|entry| {
                let algorithm = entry["algorithm"]
                    .as_str()
                    .and_then(Algorithm::from_name)
                    .ok_or_else(|| {
                        CoreError::Subsystem("unknown algorithm in history entry".into())
                    })?;
                Ok((
                    algorithm,
                    OptimizationHistory::from_json(&entry["history"])?,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        // The lowering format travels with the report: re-lowering with
        // anything else would quantize differently from the pipeline
        // that produced the artifact's verdicts.
        let fixed_point = &value["fixed_point"];
        let bits = |field: &str| {
            fixed_point[field]
                .as_i64()
                .and_then(|b| u32::try_from(b).ok())
                .ok_or_else(|| {
                    CoreError::Subsystem(format!("report needs fixed_point.{field} in range"))
                })
        };
        let format = FixedPoint::new(bits("int_bits")?, bits("frac_bits")?)
            .map_err(|e| CoreError::Subsystem(format!("invalid fixed_point format: {e}")))?;
        // Re-lower: the compiled pipeline is derived state, rebuilt from
        // the decoded IR exactly as the codegen stage built it.
        let compiled = ir.compile(format).ok();
        Ok(ModelReport {
            name: text("name")?,
            algorithm,
            objective,
            metric,
            configuration: Configuration::from_json(&value["configuration"])?,
            estimate: ResourceEstimate::from_json(&value["estimate"])?,
            ir,
            format,
            compiled,
            normalizer,
            code: text("code")?,
            history: OptimizationHistory::from_json(&value["history"])?,
            algorithm_histories,
        })
    }
}

/// Version tag written into every artifact document.
const ARTIFACT_FORMAT: &str = "homunculus.artifact/v1";

/// The full compile result: per-model reports + combined code/envelope.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    reports: Vec<ModelReport>,
    combined_resources: ResourceVector,
    combined_performance: Performance,
    combined_code: String,
    partial: bool,
}

impl CompiledArtifact {
    /// Assembles an artifact from the codegen stage's outputs.
    pub(crate) fn assemble(
        reports: Vec<ModelReport>,
        combined_resources: ResourceVector,
        combined_performance: Performance,
        combined_code: String,
        partial: bool,
    ) -> Self {
        CompiledArtifact {
            reports,
            combined_resources,
            combined_performance,
            combined_code,
            partial,
        }
    }

    /// Per-model reports, in schedule order.
    pub fn reports(&self) -> &[ModelReport] {
        &self.reports
    }

    /// The primary (first-scheduled) model's report.
    pub fn best(&self) -> &ModelReport {
        &self.reports[0]
    }

    /// Looks up a report by model name.
    pub fn report(&self, name: &str) -> Option<&ModelReport> {
        self.reports.iter().find(|r| r.name == name)
    }

    /// Whether the producing session was cancelled: the reports hold the
    /// best models found *before* cancellation (fewer BO iterations than
    /// budgeted), fully trained and servable, rather than the completed
    /// search's winners.
    pub fn is_partial(&self) -> bool {
        self.partial
    }

    /// Total resources across the schedule (Table 3's accounting).
    pub fn combined_resources(&self) -> &ResourceVector {
        &self.combined_resources
    }

    /// Combined performance under the throughput-consistency rule.
    pub fn combined_performance(&self) -> Performance {
        self.combined_performance
    }

    /// The generated data-plane source (all models concatenated).
    pub fn code(&self) -> &str {
        &self.combined_code
    }

    /// Serializes the artifact to a pretty-printed JSON string — the
    /// portable form: everything needed to serve (IRs, normalizers,
    /// generated code, histories) survives; the executable pipelines are
    /// re-lowered on load and classify bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] on serialization failure.
    pub fn to_json_string(&self) -> Result<String> {
        serde_json::to_string_pretty(&self.to_json())
            .map_err(|e| CoreError::Subsystem(format!("serializing artifact: {e}")))
    }

    /// Decodes an artifact from its
    /// [`to_json_string`](CompiledArtifact::to_json_string) form,
    /// re-lowering every report's IR so the artifact is immediately
    /// servable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] on parse failure, an unknown
    /// format tag, or malformed fields.
    pub fn from_json_str(text: &str) -> Result<Self> {
        let value = serde_json::from_str(text)
            .map_err(|e| CoreError::Subsystem(format!("parsing artifact: {e}")))?;
        CompiledArtifact::from_json(&value)
    }

    /// Decodes an artifact document. See
    /// [`from_json_str`](CompiledArtifact::from_json_str).
    ///
    /// # Errors
    ///
    /// As [`from_json_str`](CompiledArtifact::from_json_str).
    pub fn from_json(value: &Value) -> Result<Self> {
        let format = value["format"].as_str().unwrap_or("<missing>");
        if format != ARTIFACT_FORMAT {
            return Err(CoreError::Subsystem(format!(
                "unsupported artifact format '{format}' (expected '{ARTIFACT_FORMAT}')"
            )));
        }
        let reports = value["reports"]
            .as_array()
            .ok_or_else(|| CoreError::Subsystem("artifact needs a reports array".into()))?
            .iter()
            .map(ModelReport::from_json)
            .collect::<Result<Vec<_>>>()?;
        if reports.is_empty() {
            return Err(CoreError::Subsystem(
                "artifact carries no model reports".into(),
            ));
        }
        Ok(CompiledArtifact {
            reports,
            combined_resources: ResourceVector::from_json(&value["combined_resources"])?,
            combined_performance: Performance::from_json(&value["combined_performance"])?,
            combined_code: value["combined_code"]
                .as_str()
                .ok_or_else(|| CoreError::Subsystem("artifact needs combined_code".into()))?
                .to_string(),
            partial: value["partial"].as_bool().unwrap_or(false),
        })
    }

    /// Writes the artifact as JSON to `path` — compile once, serve
    /// forever: a later process reloads it with
    /// [`load_json`](CompiledArtifact::load_json) and drives
    /// [`build_deployment`](CompiledArtifact::build_deployment) with
    /// bit-identical verdicts, no recompilation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] on serialization or I/O failure.
    pub fn save_json<P: AsRef<std::path::Path>>(&self, path: P) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json_string()?).map_err(|e| {
            CoreError::Subsystem(format!("writing artifact to {}: {e}", path.display()))
        })
    }

    /// Reads an artifact saved with [`save_json`](CompiledArtifact::save_json)
    /// and runs the static verification layer over it: an artifact with
    /// error-severity `HA` diagnostics (non-finite weights, width
    /// mismatches, degenerate normalizers, broken chain widths) is
    /// refused instead of served. Warnings pass. Use
    /// [`from_json_str`](CompiledArtifact::from_json_str) to decode
    /// without the gate (e.g. for inspection tooling).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] on I/O or decode failure and
    /// [`CoreError::Analysis`] when the verification gate fires.
    pub fn load_json<P: AsRef<std::path::Path>>(path: P) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            CoreError::Subsystem(format!("reading artifact from {}: {e}", path.display()))
        })?;
        let artifact = CompiledArtifact::from_json_str(&text)?;
        artifact.verify()?;
        Ok(artifact)
    }

    /// Runs the static verification layer (`homunculus-analysis`) over
    /// every report: interval analysis for per-kernel no-saturation
    /// certificates plus the full artifact lint set. The target word
    /// width is unknown at this point (artifacts do not record their
    /// platform), so format-overflow checks run in their advisory form.
    pub fn analyze(&self) -> homunculus_analysis::ArtifactAnalysis {
        let inputs: Vec<homunculus_analysis::ModelInput<'_>> = self
            .reports
            .iter()
            .map(|report| homunculus_analysis::ModelInput {
                name: &report.name,
                ir: &report.ir,
                format: report.format,
                normalizer: Some(&report.normalizer),
                word_bits: None,
            })
            .collect();
        homunculus_analysis::analyze_models(&inputs)
    }

    /// The validation hook behind [`load_json`](CompiledArtifact::load_json)
    /// and [`load_bin`](CompiledArtifact::load_bin): runs
    /// [`analyze`](CompiledArtifact::analyze) and refuses the artifact on
    /// any error-severity diagnostic.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Analysis`] with every `HA`-coded error
    /// rendered into the message.
    pub fn verify(&self) -> Result<()> {
        let analysis = self.analyze();
        if analysis.has_errors() {
            let rendered: Vec<String> = analysis
                .diagnostics()
                .filter(|d| d.severity == homunculus_analysis::Severity::Error)
                .map(|d| d.to_string())
                .collect();
            return Err(CoreError::Analysis(rendered.join("; ")));
        }
        Ok(())
    }

    /// Encodes the artifact in the compact binary wire format (the
    /// `HJB1` document encoding: length-prefixed, varint-free,
    /// dependency-free, f64/f32 **bit-exact**) — the same document as
    /// the JSON form, several times smaller, for fleets pulling
    /// artifacts at boot. Decode with
    /// [`from_bin_bytes`](CompiledArtifact::from_bin_bytes).
    pub fn to_bin_bytes(&self) -> Vec<u8> {
        serde_json::to_vec_binary(self.to_json())
    }

    /// Decodes an artifact from its
    /// [`to_bin_bytes`](CompiledArtifact::to_bin_bytes) form,
    /// re-lowering every report's IR — a decoded artifact drives
    /// [`build_deployment`](CompiledArtifact::build_deployment) with
    /// verdicts bit-identical to the artifact that was encoded.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] on a corrupt or truncated
    /// document, an unknown format tag, or malformed fields.
    pub fn from_bin_bytes(bytes: &[u8]) -> Result<Self> {
        let value = serde_json::from_slice_binary(bytes)
            .map_err(|e| CoreError::Subsystem(format!("decoding binary artifact: {e}")))?;
        CompiledArtifact::from_json(&value)
    }

    /// Writes the artifact in the binary wire format — the compact twin
    /// of [`save_json`](CompiledArtifact::save_json).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] on I/O failure.
    pub fn save_bin<P: AsRef<std::path::Path>>(&self, path: P) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bin_bytes()).map_err(|e| {
            CoreError::Subsystem(format!("writing artifact to {}: {e}", path.display()))
        })
    }

    /// Reads an artifact saved with [`save_bin`](CompiledArtifact::save_bin),
    /// gated by the same static verification as
    /// [`load_json`](CompiledArtifact::load_json).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] on I/O or decode failure and
    /// [`CoreError::Analysis`] when the verification gate fires.
    pub fn load_bin<P: AsRef<std::path::Path>>(path: P) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| {
            CoreError::Subsystem(format!("reading artifact from {}: {e}", path.display()))
        })?;
        let artifact = CompiledArtifact::from_bin_bytes(&bytes)?;
        artifact.verify()?;
        Ok(artifact)
    }

    /// Launches a persistent [`Deployment`] serving the schedule's winning
    /// models: resident workers configured by `builder`, one tenant per
    /// [`ModelReport`] (registered in schedule order under the model's
    /// name with its deployment normalizer), all compiled through the
    /// deployment's shared LUT cache (so a many-model schedule
    /// materializes at most one sigmoid/tanh table per fixed-point
    /// format). The returned session amortizes worker launch across every
    /// subsequent [`submit`](Deployment::submit).
    ///
    /// Look tenants up by model name via [`Deployment::tenant_id`]; add
    /// QoS weights afterwards by registering extra tenants with
    /// [`Deployment::add_model_with`]. The ingress knobs on `builder` —
    /// queue depth, row-budget admission, submit deadlines,
    /// and the windowed-fairness horizon
    /// (`DeploymentBuilder::fairness_window_rows`) — all apply to the
    /// returned session exactly as for a hand-built deployment.
    ///
    /// # Errors
    ///
    /// As [`deploy_models`](CompiledArtifact::deploy_models) over every
    /// report: [`CoreError::Subsystem`] if a winning IR fails to lower —
    /// which a trained IR never should.
    pub fn build_deployment(&self, builder: DeploymentBuilder) -> Result<Deployment> {
        let deployment = builder.build();
        let names: Vec<&str> = self.reports.iter().map(|r| r.name.as_str()).collect();
        self.deploy_models(&deployment, &names)?;
        Ok(deployment)
    }

    /// Registers a *subset* of this artifact's winning models on an
    /// existing deployment — the placement primitive for serving tiers
    /// that draw different tenant sets from one or more artifacts (e.g.
    /// edge switches serving one artifact's anomaly detector while core
    /// switches serve another's traffic classifier). Returns the minted
    /// tenant ids in `names` order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] when a name matches no report or
    /// the deployment rejects a registration (e.g. a duplicate tenant
    /// name from a previously placed artifact).
    pub fn deploy_models(&self, deployment: &Deployment, names: &[&str]) -> Result<Vec<TenantId>> {
        let mut tenants = Vec::with_capacity(names.len());
        for &name in names {
            let report = self
                .reports
                .iter()
                .find(|r| r.name == name)
                .ok_or_else(|| {
                    CoreError::Subsystem(format!(
                        "artifact has no model named '{name}' (available: {})",
                        self.reports
                            .iter()
                            .map(|r| r.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })?;
            let tenant = deployment
                .add_model(
                    &report.name,
                    &report.ir,
                    report.format,
                    Some(report.normalizer.clone()),
                )
                .map_err(|e| CoreError::Subsystem(format!("placing model '{name}' failed: {e}")))?;
            tenants.push(tenant);
        }
        Ok(tenants)
    }
}

/// JSON document form: `{"format", "partial", "reports": [..],
/// "combined_resources", "combined_performance", "combined_code"}`.
impl ToJson for CompiledArtifact {
    fn to_json(&self) -> Value {
        json!({
            "format": ARTIFACT_FORMAT,
            "partial": self.partial,
            "reports": self.reports,
            "combined_resources": self.combined_resources,
            "combined_performance": self.combined_performance,
            "combined_code": self.combined_code,
        })
    }
}

/// Compiles a platform with default options — the paper's
/// `homunculus.generate(platform)` spelling, an alias of
/// `Compiler::new(CompilerOptions::default()).open(platform)?.compile()`.
///
/// ```no_run
/// use homunculus_core::alchemy::{Metric, ModelSpec, Platform};
/// use homunculus_core::pipeline::generate;
/// use homunculus_datasets::nslkdd::NslKddGenerator;
///
/// # fn main() -> Result<(), homunculus_core::CoreError> {
/// let model = ModelSpec::builder("anomaly_detection")
///     .optimization_metric(Metric::F1)
///     .data(NslKddGenerator::new(42).generate(4_000))
///     .build()?;
/// let mut platform = Platform::taurus();
/// platform.constraints_mut().grid(16, 16);
/// platform.schedule(model)?;
/// let artifact = generate(&platform)?;
/// println!("{} model(s) compiled", artifact.reports().len());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// See [`generate_with`].
pub fn generate(platform: &Platform) -> Result<CompiledArtifact> {
    generate_with(platform, &CompilerOptions::default())
}

/// Compiles a platform: search + train + feasibility-check + codegen for
/// every scheduled model. An alias of
/// `Compiler::new(*options).open(platform)?.compile()` — a staged compile
/// with the same options produces a bit-identical artifact (stage
/// boundaries never touch an RNG stream); use a [`Compiler`] session
/// directly for observability, cancellation, or between-stage inspection.
///
/// ```no_run
/// use homunculus_core::alchemy::{Metric, ModelSpec, Platform};
/// use homunculus_core::pipeline::{generate_with, CompilerOptions};
/// use homunculus_core::session::Compiler;
/// use homunculus_datasets::nslkdd::NslKddGenerator;
///
/// # fn main() -> Result<(), homunculus_core::CoreError> {
/// let model = ModelSpec::builder("anomaly_detection")
///     .optimization_metric(Metric::F1)
///     .data(NslKddGenerator::new(42).generate(4_000))
///     .build()?;
/// let mut platform = Platform::taurus();
/// platform.constraints_mut().grid(16, 16);
/// platform.schedule(model)?;
/// let options = CompilerOptions::fast();
/// let artifact = generate_with(&platform, &options)?;
/// // The same compile, spelled as the session it is:
/// let staged = Compiler::new(options).open(&platform)?.compile()?;
/// assert_eq!(artifact.to_json_string()?, staged.to_json_string()?);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// - [`CoreError::InvalidProgram`] when no schedule is installed.
/// - [`CoreError::NoCandidates`] when the pre-filter removes everything.
/// - [`CoreError::NoFeasibleModel`] when the search budget ends with no
///   feasible configuration.
pub fn generate_with(platform: &Platform, options: &CompilerOptions) -> Result<CompiledArtifact> {
    Compiler::new(*options).open(platform)?.compile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alchemy::{Metric, ModelSpec};
    use homunculus_datasets::iot::IotTrafficGenerator;
    use homunculus_datasets::nslkdd::NslKddGenerator;

    fn tiny_options() -> CompilerOptions {
        CompilerOptions {
            bo_budget: 8,
            doe_samples: 4,
            train_epochs: 12,
            final_epochs: 25,
            sample_cap: Some(600),
            parallel: true,
            seed: 0,
            time_budget: None,
        }
    }

    #[test]
    fn options_json_roundtrip_preserves_every_field() {
        let mut options = tiny_options();
        options.time_budget = Some(std::time::Duration::from_millis(1_500));
        let reloaded = CompilerOptions::from_json(&options.to_json()).unwrap();
        assert_eq!(reloaded, options);

        // `null` optionals decode as None.
        let defaults = CompilerOptions::default();
        assert_eq!(
            CompilerOptions::from_json(&defaults.to_json()).unwrap(),
            defaults
        );

        // Mistyped fields are typed checkpoint errors, not panics.
        let mut doc = options.to_json();
        if let Value::Object(map) = &mut doc {
            map.insert("seed".into(), Value::String("not a number".into()));
        }
        assert!(matches!(
            CompilerOptions::from_json(&doc),
            Err(CoreError::Checkpoint(_))
        ));
    }

    fn ad_platform(n: usize) -> Platform {
        let spec = ModelSpec::builder("anomaly_detection")
            .optimization_metric(Metric::F1)
            .algorithm(Algorithm::Dnn)
            .data(NslKddGenerator::new(1).generate(n))
            .build()
            .unwrap();
        let mut platform = Platform::taurus();
        platform
            .constraints_mut()
            .throughput_gpps(1.0)
            .latency_ns(500.0)
            .grid(16, 16);
        platform.schedule(spec).unwrap();
        platform
    }

    #[test]
    fn end_to_end_ad_compile() {
        let artifact = generate_with(&ad_platform(900), &tiny_options()).unwrap();
        let best = artifact.best();
        assert_eq!(best.name, "anomaly_detection");
        assert_eq!(best.algorithm, Algorithm::Dnn);
        assert!(best.objective > 0.5, "objective {}", best.objective);
        assert!(best.code.contains("@spatial object AnomalyDetection"));
        assert!(best.estimate.resources.get("cus") > 0.0);
        assert_eq!(best.estimate.performance.throughput_gpps, 1.0);
        // History has exactly the budgeted points.
        assert_eq!(best.history.points().len(), 8);
        // An uncancelled compile is never partial.
        assert!(!artifact.is_partial());
        // The winner carries its compiled integer twin, ready to serve.
        let compiled = best
            .compiled
            .as_ref()
            .expect("trained winner lowers to the integer runtime");
        assert_eq!(compiled.n_features(), 7);
        assert_eq!(compiled.n_classes(), 2);
        let mut scratch = homunculus_runtime::Scratch::new();
        assert!(compiled.classify(&[0.25; 7], &mut scratch) < 2);
    }

    #[test]
    fn shim_matches_staged_session_bit_for_bit() {
        let shimmed = generate_with(&ad_platform(600), &tiny_options()).unwrap();
        let staged = Compiler::new(tiny_options())
            .open(&ad_platform(600))
            .unwrap()
            .search()
            .unwrap()
            .train()
            .unwrap()
            .check()
            .unwrap()
            .codegen()
            .unwrap();
        assert_eq!(shimmed.best().objective, staged.best().objective);
        assert_eq!(shimmed.best().code, staged.best().code);
        assert_eq!(shimmed.best().ir, staged.best().ir);
        assert_eq!(shimmed.best().configuration, staged.best().configuration);
        assert_eq!(
            shimmed.best().history.points(),
            staged.best().history.points()
        );
    }

    #[test]
    fn artifact_json_roundtrip_preserves_everything() {
        let artifact = generate_with(&ad_platform(600), &tiny_options()).unwrap();
        let text = artifact.to_json_string().unwrap();
        let reloaded = CompiledArtifact::from_json_str(&text).unwrap();
        assert_eq!(reloaded.reports().len(), artifact.reports().len());
        assert_eq!(reloaded.is_partial(), artifact.is_partial());
        assert_eq!(reloaded.code(), artifact.code());
        assert_eq!(
            reloaded.combined_performance(),
            artifact.combined_performance()
        );
        assert_eq!(reloaded.combined_resources(), artifact.combined_resources());
        let (a, b) = (artifact.best(), reloaded.best());
        assert_eq!(a.name, b.name);
        assert_eq!(a.algorithm, b.algorithm);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.metric, b.metric);
        assert_eq!(a.configuration, b.configuration);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.ir, b.ir, "weights must round-trip bit-exactly");
        assert_eq!(a.normalizer, b.normalizer);
        assert_eq!(a.history, b.history);
        assert_eq!(a.algorithm_histories, b.algorithm_histories);
        // The reloaded report re-lowered its pipeline and classifies
        // identically.
        let mut scratch = homunculus_runtime::Scratch::new();
        let features = [0.3f32, -0.1, 0.8, 0.0, 0.5, -0.7, 0.2];
        assert_eq!(
            a.compiled
                .as_ref()
                .unwrap()
                .classify(&features, &mut scratch),
            b.compiled
                .as_ref()
                .unwrap()
                .classify(&features, &mut scratch),
        );
        // Re-lowering rebuilds the packed storage too: a reloaded Q3.12
        // artifact serves from the i16 kernel tier, not a scalar fallback.
        assert!(b.compiled.as_ref().unwrap().is_packed());
    }

    #[test]
    fn artifact_decode_rejects_garbage() {
        assert!(CompiledArtifact::from_json_str("not json").is_err());
        assert!(CompiledArtifact::from_json_str("{}").is_err());
        assert!(CompiledArtifact::from_json_str(
            "{\"format\": \"homunculus.artifact/v0\", \"reports\": []}"
        )
        .is_err());
        assert!(CompiledArtifact::from_json_str(
            "{\"format\": \"homunculus.artifact/v1\", \"reports\": []}"
        )
        .is_err());
    }

    #[test]
    fn unscheduled_platform_rejected() {
        let platform = Platform::taurus();
        assert!(matches!(
            generate_with(&platform, &tiny_options()),
            Err(CoreError::InvalidProgram(_))
        ));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate_with(&ad_platform(600), &tiny_options()).unwrap();
        let b = generate_with(&ad_platform(600), &tiny_options()).unwrap();
        assert_eq!(a.best().objective, b.best().objective);
        assert_eq!(a.best().code, b.best().code);
    }

    #[test]
    fn kmeans_on_tofino_respects_mat_budget() {
        let spec = ModelSpec::builder("traffic_classification")
            .optimization_metric(Metric::VMeasure)
            .data(IotTrafficGenerator::new(2).generate(700))
            .build()
            .unwrap();
        let mut platform = Platform::tofino();
        platform.constraints_mut().mats(3);
        platform.schedule(spec).unwrap();
        let artifact = generate_with(&platform, &tiny_options()).unwrap();
        let best = artifact.best();
        assert_eq!(best.algorithm, Algorithm::KMeans);
        assert!(
            best.estimate.resources.get("mats") <= 3.0,
            "mats {}",
            best.estimate.resources.get("mats")
        );
        assert!(best.code.contains("table cluster_0"));
    }

    #[test]
    fn multi_model_schedule_sums_resources() {
        let g = NslKddGenerator::new(3);
        let a = ModelSpec::builder("a")
            .algorithm(Algorithm::Dnn)
            .data(g.generate(500))
            .build()
            .unwrap();
        let b = ModelSpec::builder("b")
            .algorithm(Algorithm::Dnn)
            .data(NslKddGenerator::new(4).generate(500))
            .build()
            .unwrap();
        let mut platform = Platform::taurus();
        platform
            .constraints_mut()
            .throughput_gpps(1.0)
            .latency_ns(1_000.0);
        platform.schedule(a >> b).unwrap();
        let artifact = generate_with(&platform, &tiny_options()).unwrap();
        assert_eq!(artifact.reports().len(), 2);
        let sum = artifact.reports()[0].estimate.resources.get("cus")
            + artifact.reports()[1].estimate.resources.get("cus");
        assert_eq!(artifact.combined_resources().get("cus"), sum);
        // Sequential composition sums latency.
        let lat = artifact.reports()[0].estimate.performance.latency_ns
            + artifact.reports()[1].estimate.performance.latency_ns;
        assert!((artifact.combined_performance().latency_ns - lat).abs() < 1e-9);
        assert!(artifact.report("a").is_some());
        assert!(artifact.report("missing").is_none());
        // Combined code contains both pipelines.
        assert!(artifact.code().matches("@spatial object").count() >= 2);

        // The artifact serves: one tenant per winning model, and served
        // verdicts match the report's own compiled pipeline run in
        // isolation on normalized features — admission knobs included.
        let raw = homunculus_ml::tensor::Matrix::from_fn(16, 7, |r, c| (r * 7 + c) as f32 * 0.05);
        let report = artifact.report("a").unwrap();
        let mut normalized = raw.clone();
        for r in 0..normalized.rows() {
            report.normalizer.apply(normalized.row_mut(r));
        }
        let isolated =
            homunculus_runtime::classify_rows(report.compiled.as_ref().unwrap(), &normalized);
        let deployment = artifact
            .build_deployment(
                homunculus_runtime::Deployment::builder()
                    .workers(2)
                    .queue_depth(8)
                    .chunk_rows(4)
                    .max_queued_rows(1024)
                    .fairness_window_rows(512),
            )
            .unwrap();
        assert_eq!(deployment.tenant_count(), 2);
        let tenant = deployment.tenant_id("a").unwrap();
        let deployed = deployment
            .submit(homunculus_runtime::TenantBatch::new(tenant, raw))
            .unwrap()
            .wait();
        assert_eq!(deployed.into_vec(), isolated);
        deployment.shutdown();
    }

    #[test]
    fn infeasible_constraints_reported() {
        // A 2x2 grid cannot host any DNN at 1 GPkt/s with latency 500 ns:
        // candidate pre-filtering should already reject everything.
        let spec = ModelSpec::builder("impossible")
            .algorithm(Algorithm::Dnn)
            .data(NslKddGenerator::new(5).generate(300))
            .build()
            .unwrap();
        let mut platform = Platform::taurus();
        platform.constraints_mut().grid(2, 2).latency_ns(10.0);
        platform.schedule(spec).unwrap();
        let result = generate_with(&platform, &tiny_options());
        assert!(
            matches!(
                result,
                Err(CoreError::NoCandidates(_)) | Err(CoreError::NoFeasibleModel(_))
            ),
            "expected failure, got {result:?}"
        );
    }
}

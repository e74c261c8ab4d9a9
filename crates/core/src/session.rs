//! Staged compilation sessions: observable stages, cooperative
//! cancellation, and typed stage handles.
//!
//! A [`Compiler`] session is the compile entry point. It runs the
//! pipeline — search, train, feasibility check, code generation — as
//! **typed stage handles**, so callers can inspect, log, persist, or stop
//! between stages; [`Session::compile`] runs the four back to back when
//! none of that is wanted. The paper's one-call spelling,
//! [`generate`](crate::pipeline::generate) /
//! [`generate_with`](crate::pipeline::generate_with), is a one-line alias
//! of `Compiler::new(options).open(platform)?.compile()`, not a second
//! implementation.
//!
//! | Stage call | Hands back | What ran |
//! |---|---|---|
//! | [`Compiler::open`] | [`Session`] | schedule validation, resource-share scaling |
//! | [`Session::search`] | [`Searched`] | per-app BO candidate searches (parallel across algorithms) |
//! | [`Searched::train`] | [`Trained`] | winner selection + final retrain with restarts |
//! | [`Trained::check`] | [`Feasible`] | resource/performance estimation and static analysis of the final models |
//! | [`Feasible::codegen`] | [`CompiledArtifact`] | backend code generation + integer lowering |
//!
//! Every stage emits [`CompileEvent`]s through an optional
//! [`CompileObserver`] — per-BO-iteration [`CompileEvent::CandidateEvaluated`],
//! per-stage [`CompileEvent::StageStarted`]/[`CompileEvent::StageFinished`]
//! with wall-clock timings, and [`CompileEvent::FeasibilityRejected`]
//! naming the violated constraint — and honors a cooperative
//! [`CancelToken`] at BO iteration boundaries: cancelling yields the
//! best-so-far models as a *partial* artifact
//! ([`CompiledArtifact::is_partial`]), not an error. (The one case with
//! nothing to yield — cancellation before *any* feasible candidate was
//! evaluated — fails like an exhausted search, with
//! [`CoreError::NoFeasibleModel`] naming the cancellation.)
//!
//! # Compiling as a service
//!
//! Three more capabilities turn the staged pipeline into a compile
//! *service*:
//!
//! - **Checkpoint/resume.** [`Searched::save_checkpoint`] (JSON) and
//!   [`Searched::save_checkpoint_bin`] (the compact `HJB1` binary wire
//!   format) persist the search stage as a versioned
//!   [`CHECKPOINT_FORMAT`] document — options plus every algorithm's
//!   recorded [`OptimizationHistory`]. [`Compiler::resume`] reconstructs
//!   the [`Searched`] handle in a fresh process: recorded points are
//!   **replayed, not re-evaluated** (the BO surrogate warm-starts from
//!   the reloaded history; the RNG stream is replayed and each recorded
//!   configuration verified against it), and the remaining budget runs
//!   live. The resumed artifact is bit-identical to an uninterrupted
//!   run. Decode failures, version mismatches, and platform drift all
//!   surface as typed [`CoreError::Checkpoint`] errors, never panics.
//! - **Parallel stages.** With [`CompilerOptions::parallel`] set, the
//!   search and train stages fan out across scheduled models on scoped
//!   threads (on top of the existing per-algorithm fan-out).
//! - **Deadlines.** [`CompilerOptions::time_budget`] arms a wall-clock
//!   deadline that trips the session's own [`CancelToken`] at the next
//!   BO iteration boundary — the session degrades to a partial artifact
//!   (or a checkpoint to resume later) instead of overrunning.
//!
//! ## The parallel determinism contract
//!
//! Parallelism never changes *results*, only wall-clock and event
//! arrival order. Every `(model, algorithm)` search derives its seed
//! from the root seed, the model's schedule index, and the algorithm —
//! never from thread identity or timing — and final retrains use their
//! own derived seeds, so a parallel compile is **bit-identical** to a
//! sequential one under the same options: same winners, same weights,
//! same artifact bytes. The only observable difference is that
//! [`CompileEvent`]s of different models/algorithms interleave; events
//! are delivered one at a time (the session serializes observer calls
//! under a lock), so observers like [`LogObserver`] need no locking of
//! their own beyond their sink.
//!
//! A staged compile is bit-identical to [`Session::compile`] under the
//! same options: stage boundaries never touch an RNG stream.
//!
//! ```no_run
//! use homunculus_core::alchemy::{Metric, ModelSpec, Platform};
//! use homunculus_core::pipeline::CompilerOptions;
//! use homunculus_core::session::{CompileEvent, Compiler};
//! use homunculus_datasets::nslkdd::NslKddGenerator;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), homunculus_core::CoreError> {
//! let model = ModelSpec::builder("anomaly_detection")
//!     .optimization_metric(Metric::F1)
//!     .data(NslKddGenerator::new(42).generate(4_000))
//!     .build()?;
//! let mut platform = Platform::taurus();
//! platform
//!     .constraints_mut()
//!     .throughput_gpps(1.0)
//!     .latency_ns(500.0)
//!     .grid(16, 16);
//! platform.schedule(model)?;
//!
//! let compiler = Compiler::new(CompilerOptions::fast()).observe(Arc::new(
//!     |event: &CompileEvent| {
//!         // A candidate the target refused untrained has no objective.
//!         if let CompileEvent::CandidateEvaluated {
//!             iteration,
//!             objective: Some(objective),
//!             ..
//!         } = event
//!         {
//!             println!("iteration {iteration}: objective {objective:.3}");
//!         }
//!     },
//! ));
//! let searched = compiler.open(&platform)?.search()?;
//! println!("{} BO evaluations ran", searched.evaluations());
//! let artifact = searched.train()?.check()?.codegen()?;
//! artifact.save_json("anomaly_detection.artifact.json")?;
//! # Ok(())
//! # }
//! ```

use crate::alchemy::Metric;
use crate::alchemy::{Algorithm, ModelSpec, Platform};
use crate::candidates::candidate_algorithms;
use crate::pipeline::{refuse_errors, CompiledArtifact, CompilerOptions, ModelReport};
use crate::spaces::design_space_for;
use crate::trainer::{retrain_winner, Candidate, Evaluator, Scored, TrainBudget, EFFICIENCY_SLACK};
use crate::{CoreError, Result};
use homunculus_analysis::{ModelAnalysis, ModelInput};
use homunculus_backends::model::ModelIr;
use homunculus_backends::resources::{Constraints, Performance, ResourceEstimate, ResourceVector};
use homunculus_datasets::dataset::{Dataset, Normalizer};
use homunculus_ml::quantize::FixedPoint;
use homunculus_optimizer::space::Configuration;
use homunculus_optimizer::{
    BayesianOptimizer, Evaluation, OptimizationHistory, OptimizerError, OptimizerOptions,
};
use serde_json::{json, Value};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version tag of the session checkpoint document format (see
/// [`Searched::save_checkpoint`]).
pub const CHECKPOINT_FORMAT: &str = "homunculus.checkpoint/v1";

/// A cooperative cancellation handle shared between a session and the
/// caller that wants to stop it. Cloning is cheap (one `Arc`); cancelling
/// from any clone is observed by all. The session honors cancellation at
/// BO **iteration boundaries**: in-flight training finishes, no further
/// candidates are evaluated, and the remaining stages run on the
/// best-so-far state so the caller still receives a usable (partial)
/// artifact — provided at least one feasible candidate was evaluated
/// before the cancel landed; a session with no winner at all has nothing
/// to build and fails with [`CoreError::NoFeasibleModel`], exactly as an
/// exhausted search would.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The four stages of a compile session, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompileStage {
    /// BO candidate search across algorithms (per scheduled model).
    Search,
    /// Winner selection and final retraining.
    Train,
    /// Resource/performance estimation and feasibility verdicts.
    Check,
    /// Backend code generation and integer lowering.
    Codegen,
}

impl CompileStage {
    /// Lowercase stage name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            CompileStage::Search => "search",
            CompileStage::Train => "train",
            CompileStage::Check => "check",
            CompileStage::Codegen => "codegen",
        }
    }
}

/// One observable moment of a compile session.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileEvent {
    /// A stage began. `model` is `None` for the stage as a whole and
    /// `Some(name)` for each scheduled model's slice of it.
    StageStarted {
        /// Which stage.
        stage: CompileStage,
        /// The model this event scopes to, if per-model.
        model: Option<String>,
    },
    /// A stage (or a model's slice of it) completed, successfully or not.
    StageFinished {
        /// Which stage.
        stage: CompileStage,
        /// The model this event scopes to, if per-model.
        model: Option<String>,
        /// Wall-clock duration of the stage in nanoseconds.
        elapsed_ns: u64,
    },
    /// One BO iteration finished: a candidate was checked, and trained
    /// unless the target refused its shape (emitted from the optimizer
    /// loop, per evaluation, in order within
    /// each algorithm's search — searches of different algorithms run in
    /// parallel, so events of different algorithms interleave).
    CandidateEvaluated {
        /// The scheduled model being searched.
        model: String,
        /// The algorithm whose design space produced the candidate.
        algorithm: Algorithm,
        /// 0-based evaluation index within this algorithm's search.
        iteration: usize,
        /// The candidate's objective on the held-out split; `None` when it
        /// was refused before training or failed to train.
        objective: Option<f64>,
        /// Whether the candidate fit the platform budget.
        feasible: bool,
        /// Relative constraint-violation magnitude (0.0 when feasible).
        violation: f64,
        /// Wall-clock time the optimizer took to propose the candidate
        /// (its `ask`: design of experiments, surrogate fits and
        /// acquisition), in nanoseconds.
        ask_ns: u64,
        /// Wall-clock time the candidate's evaluation took (pricing its
        /// shape, then training, scoring, lowering and checking it), in
        /// nanoseconds.
        evaluate_ns: u64,
    },
    /// A candidate (or a final model, during [`Trained::check`]) violated
    /// the platform constraints.
    FeasibilityRejected {
        /// The scheduled model.
        model: String,
        /// The algorithm the rejected candidate belongs to.
        algorithm: Algorithm,
        /// Human-readable description of the violated constraint(s),
        /// e.g. `"cus usage 310.0 > cap 256.0"`.
        constraint: String,
    },
    /// One final-retrain restart finished (emitted from the trainer).
    FinalTrainAttempt {
        /// The scheduled model being retrained.
        model: String,
        /// The winning algorithm.
        algorithm: Algorithm,
        /// 0-based restart index.
        restart: u64,
        /// The restart's objective on the held-out split.
        objective: f64,
    },
    /// The session observed its [`CancelToken`]; subsequent stages run on
    /// best-so-far state and the artifact is marked partial.
    Cancelled {
        /// The stage during which cancellation was first observed.
        stage: CompileStage,
    },
    /// The static verification gate ([`Compiler::verify_artifacts`])
    /// reported one finding while checking a final model during
    /// [`Trained::check`]. Warnings are informational; any error-severity
    /// finding fails the stage with [`CoreError::Analysis`].
    AnalyzerDiagnostic {
        /// The scheduled model the finding scopes to (the artifact as a
        /// whole for cross-model findings such as chain-width breaks).
        model: Option<String>,
        /// The `HA`-coded finding.
        diagnostic: homunculus_analysis::Diagnostic,
    },
}

/// Receives [`CompileEvent`]s as a session runs. Implementations must be
/// `Send + Sync`: candidate searches run on parallel threads, so events
/// of different algorithms arrive concurrently. Closures qualify:
///
/// ```
/// use homunculus_core::session::{CompileEvent, CompileObserver};
///
/// let printer = |event: &CompileEvent| println!("{event:?}");
/// fn takes_observer(_: &dyn CompileObserver) {}
/// takes_observer(&printer);
/// ```
pub trait CompileObserver: Send + Sync {
    /// Called once per event, possibly from several threads.
    fn on_event(&self, event: &CompileEvent);
}

impl<F> CompileObserver for F
where
    F: Fn(&CompileEvent) + Send + Sync,
{
    fn on_event(&self, event: &CompileEvent) {
        self(event)
    }
}

/// A [`CompileObserver`] that renders every event as one timestamped,
/// human-readable line on an [`io::Write`](std::io::Write) sink —
/// the service-mode answer to ad-hoc `println!` closures. Timestamps are
/// seconds since the observer was created. Write errors are swallowed:
/// a full pipe must not abort a compile.
///
/// ```no_run
/// use homunculus_core::session::{Compiler, LogObserver};
/// use homunculus_core::pipeline::CompilerOptions;
/// use std::sync::Arc;
///
/// let compiler = Compiler::new(CompilerOptions::fast())
///     .observe(Arc::new(LogObserver::stdout()));
/// ```
pub struct LogObserver<W: Write + Send> {
    sink: Mutex<W>,
    start: Instant,
}

impl LogObserver<std::io::Stdout> {
    /// A logger on standard output.
    pub fn stdout() -> Self {
        LogObserver::new(std::io::stdout())
    }
}

impl<W: Write + Send> LogObserver<W> {
    /// A logger writing to `sink`, timestamps starting now.
    pub fn new(sink: W) -> Self {
        LogObserver {
            sink: Mutex::new(sink),
            start: Instant::now(),
        }
    }
}

impl<W: Write + Send> CompileObserver for LogObserver<W> {
    fn on_event(&self, event: &CompileEvent) {
        let t = self.start.elapsed().as_secs_f64();
        let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
        let _ = match event {
            CompileEvent::StageStarted { stage, model } => match model {
                Some(model) => writeln!(sink, "[{t:9.3}s] {:>7} {model}: started", stage.name()),
                None => writeln!(sink, "[{t:9.3}s] {:>7} started", stage.name()),
            },
            CompileEvent::StageFinished {
                stage,
                model,
                elapsed_ns,
            } => {
                let secs = *elapsed_ns as f64 / 1e9;
                match model {
                    Some(model) => writeln!(
                        sink,
                        "[{t:9.3}s] {:>7} {model}: finished in {secs:.3}s",
                        stage.name()
                    ),
                    None => writeln!(
                        sink,
                        "[{t:9.3}s] {:>7} finished in {secs:.3}s",
                        stage.name()
                    ),
                }
            }
            CompileEvent::CandidateEvaluated {
                model,
                algorithm,
                iteration,
                objective,
                feasible,
                violation,
                ask_ns,
                evaluate_ns,
            } => {
                let verdict = if *feasible {
                    "feasible".to_string()
                } else {
                    format!("infeasible, violation {violation:.3}")
                };
                let objective = objective.map_or("—".to_string(), |o| format!("{o:.4}"));
                let (ask_ms, evaluate_ms) = (*ask_ns as f64 / 1e6, *evaluate_ns as f64 / 1e6);
                writeln!(
                    sink,
                    "[{t:9.3}s]  search {model}/{}: iteration {iteration} objective \
                     {objective} ({verdict}; ask {ask_ms:.1} ms, evaluate {evaluate_ms:.1} ms)",
                    algorithm.name()
                )
            }
            CompileEvent::FeasibilityRejected {
                model,
                algorithm,
                constraint,
            } => writeln!(
                sink,
                "[{t:9.3}s]   check {model}/{}: rejected — {constraint}",
                algorithm.name()
            ),
            CompileEvent::FinalTrainAttempt {
                model,
                algorithm,
                restart,
                objective,
            } => writeln!(
                sink,
                "[{t:9.3}s]   train {model}/{}: restart {restart} objective {objective:.4}",
                algorithm.name()
            ),
            CompileEvent::Cancelled { stage } => {
                writeln!(
                    sink,
                    "[{t:9.3}s] cancelled during {} — continuing on best-so-far state",
                    stage.name()
                )
            }
            CompileEvent::AnalyzerDiagnostic { model, diagnostic } => match model {
                Some(model) => writeln!(sink, "[{t:9.3}s] analyze {model}: {diagnostic}"),
                None => writeln!(sink, "[{t:9.3}s] analyze: {diagnostic}"),
            },
        };
    }
}

/// Session-wide state threaded through every stage handle.
struct Ctx<'p> {
    platform: &'p Platform,
    options: CompilerOptions,
    observer: Option<Arc<dyn CompileObserver>>,
    cancel: CancelToken,
    /// Per-model resource budget: the platform constraints with every
    /// resource cap divided by the number of scheduled models (the Table 4
    /// experiment: "they are each allocated half of the switch's
    /// resources"). Performance clauses are per-model and stay unchanged.
    constraints: Constraints,
    /// Set once the session has emitted [`CompileEvent::Cancelled`].
    cancel_reported: AtomicBool,
    /// Serializes observer delivery: stages fan out across threads, but
    /// events arrive one at a time (the module-docs determinism
    /// contract).
    emit_lock: Mutex<()>,
    /// The armed [`CompilerOptions::time_budget`] deadline, if any.
    deadline: Option<Instant>,
    /// Run the static verification gate during [`Trained::check`]
    /// (see [`Compiler::verify_artifacts`]).
    verify: bool,
}

impl Ctx<'_> {
    fn emit(&self, event: CompileEvent) {
        if let Some(observer) = &self.observer {
            let _serialized = self.emit_lock.lock().unwrap_or_else(|p| p.into_inner());
            observer.on_event(&event);
        }
    }

    /// Trips the session's [`CancelToken`] once the
    /// [`CompilerOptions::time_budget`] deadline has passed. Polled at BO
    /// iteration boundaries and stage transitions; never touches an RNG
    /// stream, so the work finished before the cut is bit-identical to an
    /// unbudgeted run's prefix.
    fn check_deadline(&self) {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancel.cancel();
            }
        }
    }

    /// The evaluator for `spec` on `dataset`, under the session seed, the
    /// platform's target and the per-model constraint share.
    fn evaluator(&self, spec: &ModelSpec, dataset: &Dataset) -> Result<Evaluator> {
        Evaluator::new(
            dataset,
            spec.test_fraction,
            self.options.seed,
            spec.optimization_metric,
            self.platform.effective_target(),
            self.constraints.clone(),
        )
    }

    /// The scheduled model specs, in schedule order.
    fn specs(&self) -> Vec<&ModelSpec> {
        self.platform
            .schedule_expr()
            .expect("schedule validated by Compiler::open")
            .models()
    }

    /// Emits [`CompileEvent::Cancelled`] the first time the session sees
    /// its token tripped during `stage` (polling the deadline first, so
    /// an expired [`CompilerOptions::time_budget`] is observed at every
    /// stage transition even when no BO iteration is running).
    fn note_cancelled(&self, stage: CompileStage) {
        self.check_deadline();
        if self.cancel.is_cancelled() && !self.cancel_reported.swap(true, Ordering::Relaxed) {
            self.emit(CompileEvent::Cancelled { stage });
        }
    }

    /// Runs `body` bracketed by stage start/finish events with wall-clock
    /// timing (the finish event fires even when the stage errors, so
    /// observers always see the bracket closed).
    fn staged<T>(
        &self,
        stage: CompileStage,
        model: Option<&str>,
        body: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        self.emit(CompileEvent::StageStarted {
            stage,
            model: model.map(str::to_string),
        });
        let start = Instant::now();
        let result = body();
        self.emit(CompileEvent::StageFinished {
            stage,
            model: model.map(str::to_string),
            elapsed_ns: start.elapsed().as_nanos() as u64,
        });
        result
    }
}

/// Configures and opens compile sessions. See the [module docs](self) for
/// the stage table and a full example.
pub struct Compiler {
    options: CompilerOptions,
    observer: Option<Arc<dyn CompileObserver>>,
    cancel: CancelToken,
    verify: bool,
}

impl Compiler {
    /// A compiler with the given options, no observer, a fresh cancel
    /// token, and the static verification gate off.
    pub fn new(options: CompilerOptions) -> Self {
        Compiler {
            options,
            observer: None,
            cancel: CancelToken::new(),
            verify: false,
        }
    }

    /// Installs an event observer (replacing any previous one).
    #[must_use]
    pub fn observe(mut self, observer: Arc<dyn CompileObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Turns the static verification gate on (or off). [`Trained::check`]
    /// runs every final model — and the schedule as a whole — through the
    /// `homunculus-analysis` interval walk and linter against the codegen
    /// fixed-point format and the target's native word width either way
    /// (codegen stamps its certificates); with the gate on, every finding
    /// is emitted as [`CompileEvent::AnalyzerDiagnostic`] and
    /// error-severity findings fail the stage with
    /// [`CoreError::Analysis`]. Off by default — a
    /// session-local toggle, deliberately not a [`CompilerOptions`] field
    /// (options round-trip through checkpoints; the gate is about *this*
    /// run's posture, and [`Compiler::resume`] keeps it).
    #[must_use]
    pub fn verify_artifacts(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// A clone of the session's [`CancelToken`] — keep it before calling
    /// [`open`](Compiler::open) to be able to stop the session from
    /// another thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Opens a session over a scheduled platform.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidProgram`] when the platform has no
    /// scheduled models.
    pub fn open(self, platform: &Platform) -> Result<Session<'_>> {
        let schedule = platform
            .schedule_expr()
            .ok_or_else(|| CoreError::InvalidProgram("platform has no scheduled models".into()))?;
        let share = schedule.models().len().max(1) as f64;
        let constraints = scaled_constraints(&platform.effective_constraints(), share);
        Ok(Session {
            ctx: Ctx {
                platform,
                options: self.options,
                observer: self.observer,
                cancel: self.cancel,
                constraints,
                cancel_reported: AtomicBool::new(false),
                emit_lock: Mutex::new(()),
                deadline: self
                    .options
                    .time_budget
                    .map(|budget| Instant::now() + budget),
                verify: self.verify,
            },
        })
    }

    /// Resumes a checkpointed search in a fresh process: reads a
    /// [`Searched::save_checkpoint`] /
    /// [`Searched::save_checkpoint_bin`] document (the two encodings are
    /// sniffed apart by magic), re-opens a session over `platform` under
    /// the **checkpoint's** options (this compiler's own options are
    /// ignored — resuming under different options could not reproduce the
    /// recorded points; its observer and cancel token are kept, and any
    /// [`CompilerOptions::time_budget`] is re-armed fresh), and replays
    /// the recorded histories through the search stage. Recorded points
    /// are verified against the replayed RNG stream and **not**
    /// re-evaluated (no [`CompileEvent::CandidateEvaluated`] fires for
    /// them); remaining budget runs live, warm-starting the BO surrogate
    /// from the reloaded points. Searches the checkpoint recorded as
    /// failed stay failed. The returned [`Searched`] is bit-identical to
    /// one from an uninterrupted [`Session::search`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] when the document is corrupt,
    /// carries an unknown format version, or does not match `platform`
    /// (different schedule, algorithms, seed, or options drift), and
    /// [`CoreError::Subsystem`] when the file cannot be read at all.
    pub fn resume<P: AsRef<Path>>(self, platform: &Platform, path: P) -> Result<Searched<'_>> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| {
            CoreError::Subsystem(format!("reading checkpoint from {}: {e}", path.display()))
        })?;
        let document = if serde_json::sniff_binary(&bytes) {
            serde_json::from_slice_binary(&bytes)
                .map_err(|e| CoreError::Checkpoint(format!("binary checkpoint: {e}")))?
        } else {
            let text = std::str::from_utf8(&bytes).map_err(|e| {
                CoreError::Checkpoint(format!("checkpoint is neither binary nor UTF-8: {e}"))
            })?;
            serde_json::from_str(text)
                .map_err(|e| CoreError::Checkpoint(format!("checkpoint JSON: {e}")))?
        };
        let recorded = RecordedSearch::from_json(&document)?;
        let compiler = Compiler {
            options: recorded.options,
            observer: self.observer,
            cancel: self.cancel,
            verify: self.verify,
        };
        let session = compiler.open(platform)?;
        run_search(session.ctx, Some(recorded.models))
    }
}

/// A decoded [`CHECKPOINT_FORMAT`] document: the options that produced
/// the recorded searches, plus each model's per-algorithm outcomes.
struct RecordedSearch {
    options: CompilerOptions,
    models: Vec<RecordedModel>,
}

/// One model's recorded search outcomes, in candidate-preference order.
struct RecordedModel {
    name: String,
    runs: Vec<RecordedRun>,
}

/// One algorithm's recorded outcome: a full (possibly truncated) history,
/// or the error message that ended its search.
struct RecordedRun {
    algorithm: Algorithm,
    outcome: std::result::Result<OptimizationHistory, String>,
}

impl RecordedSearch {
    fn from_json(document: &Value) -> Result<RecordedSearch> {
        let bad = |msg: &str| CoreError::Checkpoint(msg.into());
        match document["format"].as_str() {
            Some(CHECKPOINT_FORMAT) => {}
            Some(other) => {
                return Err(CoreError::Checkpoint(format!(
                    "unsupported checkpoint format '{other}' (this build reads \
                     '{CHECKPOINT_FORMAT}')"
                )))
            }
            None => return Err(bad("document carries no 'format' tag")),
        }
        let options = CompilerOptions::from_json(&document["options"])?;
        let models = document["models"]
            .as_array()
            .ok_or_else(|| bad("checkpoint needs a 'models' array"))?
            .iter()
            .map(|model| {
                let name = model["name"]
                    .as_str()
                    .ok_or_else(|| bad("model entry needs a 'name'"))?
                    .to_string();
                let runs = model["runs"]
                    .as_array()
                    .ok_or_else(|| bad("model entry needs a 'runs' array"))?
                    .iter()
                    .map(|run| {
                        let algorithm = run["algorithm"]
                            .as_str()
                            .and_then(Algorithm::from_name)
                            .ok_or_else(|| bad("run entry needs a known 'algorithm'"))?;
                        let outcome = match run["error"].as_str() {
                            Some(message) => Err(message.to_string()),
                            None => Ok(OptimizationHistory::from_json(&run["history"]).map_err(
                                |e| {
                                    CoreError::Checkpoint(format!(
                                        "model '{name}' ({}): {e}",
                                        algorithm.name()
                                    ))
                                },
                            )?),
                        };
                        Ok(RecordedRun { algorithm, outcome })
                    })
                    .collect::<Result<Vec<RecordedRun>>>()?;
                Ok(RecordedModel { name, runs })
            })
            .collect::<Result<Vec<RecordedModel>>>()?;
        Ok(RecordedSearch { options, models })
    }
}

/// An open compile session, ready to [`search`](Session::search).
pub struct Session<'p> {
    ctx: Ctx<'p>,
}

impl<'p> Session<'p> {
    /// Runs all four stages back to back
    /// ([`generate_with`](crate::pipeline::generate_with) is an alias of
    /// this on a fresh session).
    ///
    /// # Errors
    ///
    /// See the individual stages.
    pub fn compile(self) -> Result<CompiledArtifact> {
        self.search()?.train()?.check()?.codegen()
    }

    /// Stage 1 — **search**: one BO candidate search per surviving
    /// algorithm per scheduled model (parallel across models *and*
    /// algorithms when [`CompilerOptions::parallel`] is set — results are
    /// bit-identical either way; see the module docs' determinism
    /// contract), each evaluation training a candidate and checking it
    /// against the platform budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoCandidates`] when platform pre-filtering
    /// removes every algorithm for some model. Individual search failures
    /// are *recorded*, not raised — they only surface from
    /// [`Searched::train`] if no sibling search produced a winner.
    pub fn search(self) -> Result<Searched<'p>> {
        run_search(self.ctx, None)
    }
}

/// The search-stage body, shared by [`Session::search`] (cold: `warm` is
/// `None`) and [`Compiler::resume`] (warm: one [`RecordedModel`] per
/// scheduled model, replayed instead of re-evaluated).
fn run_search(ctx: Ctx<'_>, warm: Option<Vec<RecordedModel>>) -> Result<Searched<'_>> {
    let searches = ctx.staged(CompileStage::Search, None, || {
        ctx.note_cancelled(CompileStage::Search);
        let specs = ctx.specs();
        let warm: Vec<Option<RecordedModel>> = match warm {
            Some(models) => {
                let scheduled: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
                let recorded: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
                if recorded != scheduled {
                    return Err(CoreError::Checkpoint(format!(
                        "checkpoint records models [{}] but the platform schedules [{}]",
                        recorded.join(", "),
                        scheduled.join(", ")
                    )));
                }
                models.into_iter().map(Some).collect()
            }
            None => specs.iter().map(|_| None).collect(),
        };
        map_models(&ctx, warm, |index, warm| {
            let spec = ctx.specs()[index];
            let runs = ctx.staged(CompileStage::Search, Some(&spec.name), || {
                search_model(&ctx, spec, index as u64, warm.as_ref())
            })?;
            Ok(SearchedModel {
                name: spec.name.clone(),
                runs,
            })
        })
    })?;
    Ok(Searched { ctx, searches })
}

/// Fans one closure across the scheduled models — on scoped threads when
/// [`CompilerOptions::parallel`] is set and there is more than one model,
/// sequentially otherwise. Results come back in schedule order and the
/// first error by *schedule index* wins (matching sequential semantics);
/// a panicked model thread surfaces as [`CoreError::Subsystem`] naming
/// the panic. Safe to nest: the per-algorithm fan-out inside
/// [`search_model`] runs in its own inner scope.
fn map_models<I, T, F>(ctx: &Ctx<'_>, inputs: Vec<I>, f: F) -> Result<Vec<T>>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> Result<T> + Sync,
{
    if ctx.options.parallel && inputs.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .into_iter()
                .enumerate()
                .map(|(index, input)| {
                    let f = &f;
                    scope.spawn(move || f(index, input))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle.join().unwrap_or_else(|payload| {
                        Err(CoreError::Subsystem(format!(
                            "model thread panicked: {}",
                            panic_message(payload.as_ref())
                        )))
                    })
                })
                .collect()
        })
    } else {
        inputs
            .into_iter()
            .enumerate()
            .map(|(index, input)| f(index, input))
            .collect()
    }
}

/// One model's candidate sets after the search stage: every algorithm's
/// full [`OptimizationHistory`] (or the error that ended its search).
pub struct SearchedModel {
    name: String,
    runs: Vec<(Algorithm, Result<OptimizationHistory>)>,
}

impl SearchedModel {
    /// The scheduled model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Every algorithm's search outcome, in candidate-preference order.
    pub fn runs(&self) -> &[(Algorithm, Result<OptimizationHistory>)] {
        &self.runs
    }

    /// Total BO evaluations across this model's searches.
    pub fn evaluations(&self) -> usize {
        self.runs
            .iter()
            .filter_map(|(_, run)| run.as_ref().ok())
            .map(|history| history.points().len())
            .sum()
    }

    /// The best feasible candidate across all algorithms (efficiency
    /// tie-break applied within each history), if any search found one.
    pub fn best(&self) -> Option<(Algorithm, f64)> {
        self.runs
            .iter()
            .filter_map(|(algorithm, run)| {
                let history = run.as_ref().ok()?;
                let best = history.best_efficient(EFFICIENCY_SLACK, "params")?;
                Some((*algorithm, best.evaluation.feasible_objective()?))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }
}

/// Stage-1 output: per-app BO candidate sets, ready to
/// [`train`](Searched::train).
pub struct Searched<'p> {
    ctx: Ctx<'p>,
    searches: Vec<SearchedModel>,
}

impl<'p> Searched<'p> {
    /// Per-model candidate sets, in schedule order.
    pub fn searches(&self) -> &[SearchedModel] {
        &self.searches
    }

    /// Total BO evaluations across the whole session.
    pub fn evaluations(&self) -> usize {
        self.searches.iter().map(SearchedModel::evaluations).sum()
    }

    /// The search stage as a versioned [`CHECKPOINT_FORMAT`] document:
    /// the session options plus every algorithm's recorded history (or
    /// the error that ended its search). [`Compiler::resume`] turns the
    /// document back into a [`Searched`] handle — in this process or any
    /// other — bit-identically.
    pub fn checkpoint(&self) -> Value {
        let models: Vec<Value> = self
            .searches
            .iter()
            .map(|model| {
                let runs: Vec<Value> = model
                    .runs
                    .iter()
                    .map(|(algorithm, run)| match run {
                        Ok(history) => {
                            json!({ "algorithm": algorithm.name(), "history": history })
                        }
                        Err(error) => {
                            json!({ "algorithm": algorithm.name(), "error": error.to_string() })
                        }
                    })
                    .collect();
                json!({ "name": model.name, "runs": runs })
            })
            .collect();
        json!({
            "format": CHECKPOINT_FORMAT,
            "options": self.ctx.options,
            "models": models,
        })
    }

    /// The checkpoint as a JSON string (the portable, greppable form).
    pub fn checkpoint_json(&self) -> String {
        serde_json::to_string(&self.checkpoint()).expect("JSON printing is infallible")
    }

    /// The checkpoint in the compact `HJB1` binary wire format — the
    /// same document as [`checkpoint_json`](Searched::checkpoint_json),
    /// several times smaller, f64 bit-exact.
    pub fn checkpoint_bin_bytes(&self) -> Vec<u8> {
        serde_json::to_vec_binary(self.checkpoint())
    }

    /// Writes the JSON checkpoint to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] on I/O failure.
    pub fn save_checkpoint<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.checkpoint_json()).map_err(|e| {
            CoreError::Subsystem(format!("writing checkpoint to {}: {e}", path.display()))
        })
    }

    /// Writes the binary checkpoint to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] on I/O failure.
    pub fn save_checkpoint_bin<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.checkpoint_bin_bytes()).map_err(|e| {
            CoreError::Subsystem(format!("writing checkpoint to {}: {e}", path.display()))
        })
    }

    /// Stage 2 — **train**: selects each model's winner (best feasible
    /// objective across algorithms, cheapest-within-slack tie-break) and
    /// retrains it on the full dataset with the final epoch budget and
    /// deterministic restarts — in parallel across models when
    /// [`CompilerOptions::parallel`] is set (bit-identical either way:
    /// retrain seeds derive from the configuration, never the thread).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoFeasibleModel`] (or the first recorded
    /// search error) for a model whose searches produced no feasible
    /// candidate, and [`CoreError::Subsystem`] for training failures.
    pub fn train(self) -> Result<Trained<'p>> {
        let ctx = self.ctx;
        let searches = self.searches;
        let models = ctx.staged(CompileStage::Train, None, || {
            ctx.note_cancelled(CompileStage::Train);
            map_models(&ctx, searches, |index, search| {
                let spec = ctx.specs()[index];
                ctx.staged(CompileStage::Train, Some(&spec.name), || {
                    train_model(&ctx, spec, search)
                })
            })
        })?;
        Ok(Trained { ctx, models })
    }
}

/// One model after winner selection and final retraining.
pub struct TrainedModel {
    name: String,
    algorithm: Algorithm,
    metric: Metric,
    configuration: Configuration,
    objective: f64,
    ir: ModelIr,
    /// What the final model was trained and scored by; the check stage
    /// re-checks the model through it.
    evaluator: Evaluator,
    history: OptimizationHistory,
    algorithm_histories: Vec<(Algorithm, OptimizationHistory)>,
}

impl TrainedModel {
    /// The scheduled model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The winning algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The metric the objective was measured with.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The feature normalizer the final model was trained under.
    pub fn normalizer(&self) -> &Normalizer {
        self.evaluator.normalizer()
    }

    /// The winning configuration.
    pub fn configuration(&self) -> &Configuration {
        &self.configuration
    }

    /// The final retrained objective on the held-out split.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The final trained model IR.
    pub fn ir(&self) -> &ModelIr {
        &self.ir
    }
}

/// Stage-2 output: winners retrained, ready to [`check`](Trained::check).
pub struct Trained<'p> {
    ctx: Ctx<'p>,
    models: Vec<TrainedModel>,
}

impl<'p> Trained<'p> {
    /// Per-model winners, in schedule order.
    pub fn models(&self) -> &[TrainedModel] {
        &self.models
    }

    /// Stage 3 — **check**: estimates each final model's resources and
    /// performance on the target and re-checks them against the per-model
    /// constraint share, through the final model's evaluator — the same
    /// estimate-and-check that [`Evaluator::evaluate`] ran on every
    /// candidate inside the search loop. The verdict is therefore
    /// *advisory* for the final models: a final violation (possible only
    /// for data-dependent shapes like tree depth shifting on the full
    /// dataset) is reported through [`Feasible::violations`] and
    /// [`CompileEvent::FeasibilityRejected`] rather than discarding a
    /// trained winner.
    ///
    /// The stage then picks the fixed-point format codegen lowers with
    /// (Q3.12, the Taurus word) and runs the `homunculus-analysis`
    /// interval walk and linter once over the schedule, against that
    /// format and the target's native word width. Codegen stamps each
    /// model's certificates from this analysis. With
    /// [`Compiler::verify_artifacts`] on, every finding is also emitted as
    /// [`CompileEvent::AnalyzerDiagnostic`] and error-severity findings
    /// fail the stage.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] when the target cannot estimate a
    /// final IR at all, and [`CoreError::Analysis`] when the verification
    /// gate is on and refuses.
    pub fn check(self) -> Result<Feasible<'p>> {
        let ctx = self.ctx;
        let trained = self.models;
        let models = ctx.staged(CompileStage::Check, None, || {
            ctx.note_cancelled(CompileStage::Check);
            let target = ctx.platform.effective_target();
            let mut estimated = Vec::with_capacity(trained.len());
            for model in trained {
                let name = model.name.clone();
                let checked = ctx.staged(CompileStage::Check, Some(&name), || {
                    let (estimate, report) = model.evaluator.check(&model.ir)?;
                    let violations: Vec<String> =
                        report.violations.iter().map(|v| v.to_string()).collect();
                    if !report.is_feasible() {
                        ctx.emit(CompileEvent::FeasibilityRejected {
                            model: model.name.clone(),
                            algorithm: model.algorithm,
                            constraint: violations.join("; "),
                        });
                    }
                    Ok((model, estimate, violations))
                })?;
                estimated.push(checked);
            }
            let format = FixedPoint::taurus_default();
            let word_bits = target.as_target().word_bits();
            let inputs: Vec<ModelInput<'_>> = estimated
                .iter()
                .map(|(model, ..)| ModelInput {
                    name: &model.name,
                    ir: &model.ir,
                    format,
                    normalizer: Some(model.normalizer()),
                    word_bits: Some(word_bits),
                })
                .collect();
            let analysis = homunculus_analysis::analyze_models(&inputs);
            if ctx.verify {
                for diagnostic in analysis.diagnostics() {
                    ctx.emit(CompileEvent::AnalyzerDiagnostic {
                        model: diagnostic.model.clone(),
                        diagnostic: diagnostic.clone(),
                    });
                }
                refuse_errors(&analysis)?;
            }
            Ok(estimated
                .into_iter()
                .zip(analysis.models)
                .map(|((model, estimate, violations), analysis)| CheckedModel {
                    model,
                    estimate,
                    violations,
                    analysis,
                })
                .collect())
        })?;
        Ok(Feasible { ctx, models })
    }
}

/// Appends the analyzer's kernel certificates to generated code as
/// trailing `//` comments (both Spatial and P4 use C-style comments).
/// One line per kernel: its interval-analysis absolute bound and the
/// headroom factor left before the fixed-point format saturates.
fn append_certificate_comments(
    mut code: String,
    certificates: &[homunculus_analysis::KernelCertificate],
) -> String {
    if certificates.is_empty() {
        return code;
    }
    if !code.ends_with('\n') {
        code.push('\n');
    }
    code.push_str("// --- static analysis certificates ---\n");
    for certificate in certificates {
        code.push_str(&format!(
            "// certificate kernel=\"{}\" certified={} abs_bound={} headroom={:.2}\n",
            certificate.kernel, certificate.certified, certificate.abs_bound, certificate.headroom,
        ));
    }
    code
}

/// One model with its final resource estimate, feasibility verdict and
/// static analysis.
pub struct CheckedModel {
    model: TrainedModel,
    estimate: ResourceEstimate,
    violations: Vec<String>,
    /// The check stage's analysis: the format codegen generates in, the
    /// certificates it stamps and the lowering the report serves.
    analysis: ModelAnalysis,
}

impl CheckedModel {
    /// The trained model under the verdict.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The final resource/performance estimate.
    pub fn estimate(&self) -> &ResourceEstimate {
        &self.estimate
    }

    /// Violated constraints (empty when the final model fits its share).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// Stage-3 output: estimated and verdicted models, ready to
/// [`codegen`](Feasible::codegen).
pub struct Feasible<'p> {
    ctx: Ctx<'p>,
    models: Vec<CheckedModel>,
}

impl Feasible<'_> {
    /// Per-model verdicts, in schedule order.
    pub fn models(&self) -> &[CheckedModel] {
        &self.models
    }

    /// Whether every final model fits its constraint share.
    pub fn is_feasible(&self) -> bool {
        self.models.iter().all(|m| m.violations.is_empty())
    }

    /// Every `(model name, violation)` pair across the schedule.
    pub fn violations(&self) -> Vec<(String, String)> {
        self.models
            .iter()
            .flat_map(|m| {
                m.violations
                    .iter()
                    .map(|v| (m.model.name.clone(), v.clone()))
            })
            .collect()
    }

    /// Stage 4 — **codegen**: generates target code for every winner,
    /// attaches the check stage's lowering of it to the integer runtime,
    /// and assembles the
    /// [`CompiledArtifact`] (combined resources/performance under the
    /// schedule's composition rules). An artifact built after cancellation
    /// is marked [partial](CompiledArtifact::is_partial).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] for code-generation failures.
    pub fn codegen(self) -> Result<CompiledArtifact> {
        let ctx = self.ctx;
        let checked = self.models;
        ctx.staged(CompileStage::Codegen, None, || {
            ctx.note_cancelled(CompileStage::Codegen);
            let target = ctx.platform.effective_target();
            let mut reports = Vec::with_capacity(checked.len());
            for CheckedModel {
                model,
                estimate,
                analysis,
                ..
            } in checked
            {
                let name = model.name.clone();
                let report = ctx.staged(CompileStage::Codegen, Some(&name), || {
                    // Generate the program in the format the check stage
                    // analyzed, and keep that stage's lowering of the
                    // winner to the integer runtime — its executable twin.
                    // A trained IR always lowers; failure would indicate an
                    // IR bug, so it degrades to None rather than
                    // invalidating an otherwise complete compile. The
                    // format is recorded on the report so save/load and
                    // the serving builders re-lower identically.
                    let format = analysis.format;
                    let code = target
                        .as_target()
                        .generate_code(&model.ir, &model.name, format)?;
                    // Stamp the analyzer's per-kernel no-saturation
                    // certificates into the generated program: operators
                    // reviewing data-plane code see the proven value
                    // bounds next to the kernels they bound.
                    let code = append_certificate_comments(code, &analysis.certificates);
                    Ok(ModelReport {
                        name: model.name,
                        algorithm: model.algorithm,
                        objective: model.objective,
                        metric: model.metric,
                        configuration: model.configuration,
                        estimate,
                        ir: model.ir,
                        format,
                        compiled: analysis.pipeline,
                        normalizer: model.evaluator.normalizer().clone(),
                        code,
                        history: model.history,
                        algorithm_histories: model.algorithm_histories,
                    })
                })?;
                reports.push(report);
            }

            let schedule = ctx
                .platform
                .schedule_expr()
                .expect("schedule validated by Compiler::open");
            let resources: Vec<ResourceVector> = reports
                .iter()
                .map(|r| r.estimate.resources.clone())
                .collect();
            let performances: Vec<Performance> =
                reports.iter().map(|r| r.estimate.performance).collect();
            let combined_resources = schedule.combined_resources(&resources);
            let combined_performance = schedule.combined_performance(&performances);
            let combined_code = reports
                .iter()
                .map(|r| r.code.as_str())
                .collect::<Vec<_>>()
                .join("\n");
            Ok(CompiledArtifact::assemble(
                reports,
                combined_resources,
                combined_performance,
                combined_code,
                ctx.cancel.is_cancelled(),
            ))
        })
    }
}

/// Divides every resource cap by `share` (performance clauses are
/// per-model and stay unchanged).
fn scaled_constraints(constraints: &Constraints, share: f64) -> Constraints {
    let mut scaled = Constraints::new();
    if let Some(t) = constraints.min_throughput_gpps {
        scaled = scaled.throughput_gpps(t);
    }
    if let Some(l) = constraints.max_latency_ns {
        scaled = scaled.latency_ns(l);
    }
    for (name, cap) in constraints.budget.iter() {
        scaled = scaled.resource(name.clone(), cap / share);
    }
    scaled
}

/// Stage-1 body for one model: candidate selection and the per-algorithm
/// BO runs (Figure 2's "Parallel Candidate Runs"). A panic in one
/// candidate's search is captured and surfaced as a `CoreError` for that
/// algorithm instead of aborting the whole compile: the remaining
/// candidates still finish, and the caller sees which search died and why.
///
/// With `warm` recorded outcomes (a [`Compiler::resume`]), each
/// algorithm's recorded history is replayed instead of re-evaluated and
/// only the remaining budget runs live; recorded errors stay errors. The
/// recorded algorithm list must match what the platform admits now —
/// drift is a [`CoreError::Checkpoint`].
fn search_model(
    ctx: &Ctx<'_>,
    spec: &ModelSpec,
    model_index: u64,
    warm: Option<&RecordedModel>,
) -> Result<Vec<(Algorithm, Result<OptimizationHistory>)>> {
    let options = &ctx.options;
    let algorithms = candidate_algorithms(spec, ctx.platform)?;
    if let Some(warm) = warm {
        let recorded: Vec<Algorithm> = warm.runs.iter().map(|run| run.algorithm).collect();
        if recorded != algorithms {
            let names =
                |list: &[Algorithm]| list.iter().map(|a| a.name()).collect::<Vec<_>>().join(", ");
            return Err(CoreError::Checkpoint(format!(
                "model '{}': checkpoint records searches for [{}] but the platform admits [{}]",
                spec.name,
                names(&recorded),
                names(&algorithms)
            )));
        }
    }
    let search_dataset = match options.sample_cap {
        Some(cap) if spec.dataset.len() > cap => {
            let fraction = cap as f64 / spec.dataset.len() as f64;
            spec.dataset.stratified_split(fraction, options.seed)?.test
        }
        _ => spec.dataset.clone(),
    };
    let evaluator = ctx.evaluator(spec, &search_dataset)?;

    let run_one = |algorithm: Algorithm, index: usize| -> Result<OptimizationHistory> {
        match warm.map(|w| &w.runs[index].outcome) {
            Some(Err(message)) => Err(CoreError::Subsystem(message.clone())),
            Some(Ok(history)) => {
                search_algorithm(ctx, spec, algorithm, &evaluator, model_index, Some(history))
            }
            None => search_algorithm(ctx, spec, algorithm, &evaluator, model_index, None),
        }
    };

    let runs: Vec<(Algorithm, Result<OptimizationHistory>)> =
        if options.parallel && algorithms.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = algorithms
                    .iter()
                    .enumerate()
                    .map(|(index, &algorithm)| {
                        let run_one = &run_one;
                        let handle = scope.spawn(move || run_one(algorithm, index));
                        (algorithm, handle)
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(algorithm, handle)| {
                        let run = handle.join().unwrap_or_else(|payload| {
                            Err(CoreError::Subsystem(format!(
                                "search thread for {} panicked: {}",
                                algorithm.name(),
                                panic_message(payload.as_ref())
                            )))
                        });
                        (algorithm, run)
                    })
                    .collect()
            })
        } else {
            algorithms
                .iter()
                .enumerate()
                .map(|(index, &algorithm)| (algorithm, run_one(algorithm, index)))
                .collect()
        };
    // Ordinary search failures are recorded per algorithm (a sibling may
    // still win), but a checkpoint that fails replay verification is not
    // a search outcome — the whole resume is invalid and must say so.
    if let Some((_, Err(CoreError::Checkpoint(message)))) = runs
        .iter()
        .find(|(_, run)| matches!(run, Err(CoreError::Checkpoint(_))))
    {
        return Err(CoreError::Checkpoint(message.clone()));
    }
    Ok(runs)
}

/// Stage-2 body for one model: winner selection across algorithms with the
/// efficiency tie-break (§3: "the most efficient model will use as many
/// resources as needed without over-provisioning" — among configurations
/// within [`EFFICIENCY_SLACK`] of the best objective, the one with the
/// fewest parameters wins), then the final retrain.
fn train_model(ctx: &Ctx<'_>, spec: &ModelSpec, search: SearchedModel) -> Result<TrainedModel> {
    let mut algorithm_histories = Vec::new();
    let mut winner: Option<(Algorithm, Configuration, f64)> = None;
    let mut first_error: Option<CoreError> = None;
    for (algorithm, run) in search.runs {
        // One failed (or panicked) search does not doom the compile as
        // long as another candidate produced a feasible model; the error
        // is only surfaced when nothing won.
        let history = match run {
            Ok(history) => history,
            Err(error) => {
                first_error.get_or_insert(error);
                continue;
            }
        };
        let best = history.best_efficient(EFFICIENCY_SLACK, "params");
        if let Some((best, objective)) =
            best.and_then(|p| Some((p, p.evaluation.feasible_objective()?)))
        {
            let better = winner.as_ref().map_or(true, |(_, _, obj)| objective > *obj);
            if better {
                winner = Some((algorithm, best.configuration.clone(), objective));
            }
        }
        algorithm_histories.push((algorithm, history));
    }
    let (algorithm, configuration, winner_objective) = match winner {
        Some(winner) => winner,
        None => {
            // A session cancelled before any feasible candidate existed
            // has no best-so-far to hand back: "partial artifact" needs
            // at least one winner. Name the cancellation so the caller
            // can tell an early cancel from a genuinely exhausted search.
            let reason = if ctx.cancel.is_cancelled() {
                "session cancelled before a feasible configuration was found"
            } else {
                "search budget exhausted without a feasible configuration"
            };
            return Err(first_error.unwrap_or_else(|| {
                CoreError::NoFeasibleModel(format!("model '{}': {reason}", spec.name))
            }));
        }
    };

    let evaluator = ctx.evaluator(spec, &spec.dataset)?;
    let (ir, objective) = retrain_winner(
        &evaluator,
        &Candidate::Configured(algorithm, &configuration),
        &ctx.options,
        winner_objective,
        |restart, objective| {
            ctx.emit(CompileEvent::FinalTrainAttempt {
                model: spec.name.clone(),
                algorithm,
                restart,
                objective,
            });
        },
    )?;

    let history = algorithm_histories
        .iter()
        .find(|(a, _)| *a == algorithm)
        .map(|(_, h)| h.clone())
        .expect("winner came from a recorded run");

    Ok(TrainedModel {
        name: spec.name.clone(),
        algorithm,
        metric: spec.optimization_metric,
        configuration,
        objective,
        ir,
        evaluator,
        history,
        algorithm_histories,
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "non-string panic payload"
    }
}

/// Violation sentinel for configurations that failed to train or to
/// estimate at all: large against real violation scores (O(1..100)) so the
/// phase-1 feasibility descent never walks toward them, but finite enough
/// to survive the surrogate's f32 cast.
const BROKEN_CANDIDATE_VIOLATION: f64 = 1e6;

/// The seed of one `(model, algorithm)` search: its BO stream and every
/// candidate's training budget derive from the root seed, the model's
/// schedule index and the algorithm — never from thread identity.
pub(crate) fn search_seed(root: u64, model_index: u64, algorithm: Algorithm) -> u64 {
    root.wrapping_add(model_index.wrapping_mul(0x9E37))
        .wrapping_add(algorithm as u64 * 0x79B9)
}

/// One algorithm's BO search: the loop asks the optimizer for a
/// configuration, scores it with [`Evaluator::evaluate`] under the
/// search's epoch budget, tells the optimizer the outcome, emits
/// [`CompileEvent::CandidateEvaluated`], and then checks the deadline and
/// the session's [`CancelToken`] (a stopped search returns its truncated
/// best-so-far history as `Ok`). With a `warm` history the optimizer
/// replays the recorded points (no evaluations, no `CandidateEvaluated`
/// events) and the loop continues live from where they stop;
/// replay-verification failures surface as [`CoreError::Checkpoint`].
fn search_algorithm(
    ctx: &Ctx<'_>,
    spec: &ModelSpec,
    algorithm: Algorithm,
    evaluator: &Evaluator,
    model_index: u64,
    warm: Option<&OptimizationHistory>,
) -> Result<OptimizationHistory> {
    let options = &ctx.options;
    let space = design_space_for(algorithm, spec, ctx.platform)?;
    let seed = search_seed(options.seed, model_index, algorithm);
    let optimizer_options = OptimizerOptions::default()
        .budget(options.bo_budget)
        .doe_samples(options.doe_samples.min(options.bo_budget))
        .seed(seed);
    let budget = TrainBudget {
        epochs: options.train_epochs,
        seed,
    };

    let evaluate = |config: &Configuration| {
        let candidate = Candidate::Configured(algorithm, config);
        match evaluator.evaluate(&candidate, budget) {
            Ok(Scored {
                ir,
                objective,
                feasibility: Ok((estimate, report)),
            }) => {
                if !report.is_feasible() && ctx.observer.is_some() {
                    let constraint = report
                        .violations
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("; ");
                    ctx.emit(CompileEvent::FeasibilityRejected {
                        model: spec.name.clone(),
                        algorithm,
                        constraint,
                    });
                }
                let mut evaluation = Evaluation::new(objective)
                    .feasible(report.is_feasible())
                    .with_violation(report.violation_score())
                    .with_metric("params", ir.param_count() as f64);
                for (name, value) in estimate.resources.iter() {
                    evaluation = evaluation.with_metric(name.clone(), *value);
                }
                evaluation
                    .with_metric("latency_ns", estimate.performance.latency_ns)
                    .with_metric("throughput_gpps", estimate.performance.throughput_gpps)
            }
            // An unestimable configuration keeps its trained objective
            // but must not look attractive to the phase-1 violation
            // descent (violation would default to 0.0 — the global
            // minimum). The sentinel is large against real violation
            // scores (O(1..100)) but stays finite through the
            // surrogate's f32 cast.
            Ok(Scored { objective, .. }) => Evaluation::new(objective)
                .feasible(false)
                .with_violation(BROKEN_CANDIDATE_VIOLATION),
            // A configuration that fails to train at all is infeasible
            // and has no objective — same poisoning guard as above.
            Err(_) => Evaluation::new(None)
                .feasible(false)
                .with_violation(BROKEN_CANDIDATE_VIOLATION),
        }
    };
    let mut optimizer = match warm {
        Some(from) => BayesianOptimizer::resume(space, optimizer_options, from).map_err(|e| {
            match e {
                // The replay disagreed with the record: the checkpoint
                // does not belong to this (platform, options) pair.
                OptimizerError::Resume(msg) => CoreError::Checkpoint(format!(
                    "model '{}' ({}): {msg}",
                    spec.name,
                    algorithm.name()
                )),
                other => other.into(),
            }
        })?,
        None => BayesianOptimizer::new(space, optimizer_options),
    };
    let nanos = |since: Instant| u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    loop {
        let asked = Instant::now();
        let Some(configuration) = optimizer.ask()? else {
            break;
        };
        let ask_ns = nanos(asked);
        let evaluated = Instant::now();
        let evaluation = evaluate(&configuration);
        let evaluate_ns = nanos(evaluated);
        let point = optimizer.tell(configuration, evaluation)?;
        ctx.emit(CompileEvent::CandidateEvaluated {
            model: spec.name.clone(),
            algorithm,
            iteration: point.iteration,
            objective: point.evaluation.objective,
            feasible: point.evaluation.is_feasible,
            violation: point.evaluation.violation,
            ask_ns,
            evaluate_ns,
        });
        ctx.check_deadline();
        if ctx.cancel.is_cancelled() {
            break;
        }
    }
    Ok(optimizer.into_history())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alchemy::Metric;
    use homunculus_datasets::nslkdd::NslKddGenerator;

    /// Records every event, in arrival order.
    #[derive(Default)]
    struct CollectingObserver(Mutex<Vec<CompileEvent>>);

    impl CollectingObserver {
        fn events(&self) -> Vec<CompileEvent> {
            self.0.lock().unwrap().clone()
        }

        fn count(&self, predicate: impl Fn(&CompileEvent) -> bool) -> usize {
            self.0
                .lock()
                .unwrap()
                .iter()
                .filter(|e| predicate(e))
                .count()
        }
    }

    impl CompileObserver for CollectingObserver {
        fn on_event(&self, event: &CompileEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    fn tiny_options() -> CompilerOptions {
        CompilerOptions {
            bo_budget: 6,
            doe_samples: 3,
            train_epochs: 8,
            final_epochs: 15,
            sample_cap: Some(400),
            parallel: true,
            seed: 0,
            time_budget: None,
        }
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
    fn open_requires_a_schedule() {
        let platform = Platform::taurus();
        assert!(matches!(
            Compiler::new(tiny_options()).open(&platform),
            Err(CoreError::InvalidProgram(_))
        ));
    }

    #[test]
    fn stages_expose_intermediate_state() {
        let platform = ad_platform(500);
        let searched = Compiler::new(tiny_options())
            .open(&platform)
            .unwrap()
            .search()
            .unwrap();
        assert_eq!(searched.searches().len(), 1);
        assert_eq!(searched.searches()[0].name(), "anomaly_detection");
        assert_eq!(searched.evaluations(), 6);
        let (algorithm, objective) = searched.searches()[0].best().expect("feasible candidate");
        assert_eq!(algorithm, Algorithm::Dnn);
        assert!(objective > 0.0);

        let trained = searched.train().unwrap();
        assert_eq!(trained.models().len(), 1);
        assert_eq!(trained.models()[0].algorithm(), Algorithm::Dnn);

        let feasible = trained.check().unwrap();
        assert!(feasible.is_feasible(), "{:?}", feasible.violations());
        assert!(feasible.models()[0].estimate().resources.get("cus") > 0.0);

        let artifact = feasible.codegen().unwrap();
        assert!(!artifact.is_partial());
        assert!(artifact.best().code.contains("@spatial object"));
    }

    #[test]
    fn cancelled_session_yields_partial_artifact() {
        let platform = ad_platform(500);
        let compiler = Compiler::new(tiny_options());
        let token = compiler.cancel_token();
        token.cancel();
        let artifact = compiler.open(&platform).unwrap().compile().unwrap();
        assert!(artifact.is_partial());
        // The cancelled search stopped at the first iteration boundary —
        // one evaluation, not the full budget.
        assert_eq!(artifact.best().history.points().len(), 1);
        // The partial artifact is still a usable model.
        let compiled = artifact.best().compiled.as_ref().unwrap();
        let mut scratch = homunculus_runtime::Scratch::new();
        assert!(compiled.classify(&[0.1; 7], &mut scratch) < 2);
    }

    #[test]
    fn observer_sees_stage_brackets_and_iterations() {
        let platform = ad_platform(500);
        let observer = Arc::new(CollectingObserver::default());
        let start = std::time::Instant::now();
        let artifact = Compiler::new(tiny_options())
            .observe(observer.clone())
            .open(&platform)
            .unwrap()
            .compile()
            .unwrap();
        let wall_ns = start.elapsed().as_nanos() as u64;
        // The session's own timing must bracket reality: the whole-stage
        // timings can never add up to more than the wall-clock around them.
        let staged_ns: u64 = observer
            .events()
            .iter()
            .map(|e| match e {
                CompileEvent::StageFinished {
                    model: None,
                    elapsed_ns,
                    ..
                } => *elapsed_ns,
                _ => 0,
            })
            .sum();
        assert!(
            staged_ns > 0 && staged_ns <= wall_ns,
            "{staged_ns} vs {wall_ns}"
        );
        // Each evaluation is timed, and one algorithm's asks and
        // evaluations run one after another inside the compile.
        let mut per_search: std::collections::HashMap<(String, Algorithm), u64> =
            Default::default();
        for event in observer.events() {
            if let CompileEvent::CandidateEvaluated {
                model,
                algorithm,
                ask_ns,
                evaluate_ns,
                ..
            } = event
            {
                assert!(evaluate_ns > 0, "{model}/{}", algorithm.name());
                *per_search.entry((model, algorithm)).or_default() += ask_ns + evaluate_ns;
            }
        }
        assert!(!per_search.is_empty());
        for ((model, algorithm), ns) in per_search {
            assert!(
                ns <= wall_ns,
                "{model}/{}: {ns} vs {wall_ns}",
                algorithm.name()
            );
        }
        assert_eq!(
            observer.count(|e| matches!(
                e,
                CompileEvent::StageStarted {
                    stage: CompileStage::Search,
                    model: None
                }
            )),
            1
        );
        for stage in [
            CompileStage::Search,
            CompileStage::Train,
            CompileStage::Check,
            CompileStage::Codegen,
        ] {
            assert_eq!(
                observer.count(|e| matches!(e, CompileEvent::StageFinished { stage: s, model: None, .. } if *s == stage)),
                1,
                "missing whole-stage finish for {}",
                stage.name()
            );
        }
        // One CandidateEvaluated per recorded history point.
        assert_eq!(
            observer.count(|e| matches!(e, CompileEvent::CandidateEvaluated { .. })),
            artifact
                .reports()
                .iter()
                .flat_map(|r| r.algorithm_histories.iter())
                .map(|(_, h)| h.points().len())
                .sum::<usize>()
        );
        // The final retrain reported at least one attempt.
        assert!(observer.count(|e| matches!(e, CompileEvent::FinalTrainAttempt { .. })) >= 1);
        assert_eq!(
            observer.count(|e| matches!(e, CompileEvent::Cancelled { .. })),
            0
        );
    }

    #[test]
    fn cancel_before_any_feasible_candidate_names_the_cancellation() {
        // A platform tight enough that the single evaluated candidate is
        // infeasible (latency 40 ns rejects every sampled DNN, but the
        // pre-filter's minimal configuration squeaks through): cancelling
        // immediately leaves no best-so-far, so the session fails like an
        // exhausted search — with the cancellation named in the error.
        let spec = ModelSpec::builder("tight")
            .optimization_metric(Metric::F1)
            .algorithm(Algorithm::Dnn)
            .data(NslKddGenerator::new(1).generate(400))
            .build()
            .unwrap();
        let mut platform = Platform::taurus();
        platform
            .constraints_mut()
            .throughput_gpps(1.0)
            .latency_ns(40.0)
            .grid(16, 16);
        platform.schedule(spec).unwrap();
        let compiler = Compiler::new(tiny_options());
        compiler.cancel_token().cancel();
        match compiler.open(&platform).unwrap().compile() {
            Err(CoreError::NoFeasibleModel(message)) => {
                assert!(
                    message.contains("cancelled"),
                    "error should name the cancellation: {message}"
                );
            }
            Err(CoreError::NoCandidates(_)) => {
                panic!("pre-filter rejected everything; tighten the test setup instead")
            }
            other => panic!("expected NoFeasibleModel, got {other:?}"),
        }
    }

    #[test]
    fn cancel_token_is_shared_and_idempotent() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn stage_names() {
        assert_eq!(CompileStage::Search.name(), "search");
        assert_eq!(CompileStage::Train.name(), "train");
        assert_eq!(CompileStage::Check.name(), "check");
        assert_eq!(CompileStage::Codegen.name(), "codegen");
    }

    fn two_model_platform(n: usize) -> Platform {
        let a = ModelSpec::builder("ad_a")
            .optimization_metric(Metric::F1)
            .algorithm(Algorithm::Dnn)
            .data(NslKddGenerator::new(1).generate(n))
            .build()
            .unwrap();
        let b = ModelSpec::builder("ad_b")
            .optimization_metric(Metric::F1)
            .algorithm(Algorithm::Dnn)
            .data(NslKddGenerator::new(2).generate(n))
            .build()
            .unwrap();
        let mut platform = Platform::taurus();
        platform
            .constraints_mut()
            .throughput_gpps(1.0)
            .latency_ns(500.0)
            .grid(16, 16);
        platform.schedule(a >> b).unwrap();
        platform
    }

    #[test]
    fn parallel_models_match_sequential_bit_for_bit() {
        let mut sequential_options = tiny_options();
        sequential_options.parallel = false;
        let sequential = Compiler::new(sequential_options)
            .open(&two_model_platform(500))
            .unwrap()
            .compile()
            .unwrap();
        let parallel = Compiler::new(tiny_options())
            .open(&two_model_platform(500))
            .unwrap()
            .compile()
            .unwrap();
        assert_eq!(
            sequential.to_json_string().unwrap(),
            parallel.to_json_string().unwrap(),
            "model-parallel compile must be bit-identical to sequential"
        );
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let platform = ad_platform(500);
        let reference = Compiler::new(tiny_options())
            .open(&platform)
            .unwrap()
            .search()
            .unwrap();

        // Interrupt a second, identical session after two evaluations.
        let compiler = Compiler::new(tiny_options());
        let token = compiler.cancel_token();
        let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let observer = {
            let seen = seen.clone();
            move |event: &CompileEvent| {
                if matches!(event, CompileEvent::CandidateEvaluated { .. })
                    && seen.fetch_add(1, Ordering::Relaxed) + 1 >= 2
                {
                    token.cancel();
                }
            }
        };
        let truncated = compiler
            .observe(Arc::new(observer))
            .open(&platform)
            .unwrap()
            .search()
            .unwrap();
        assert_eq!(truncated.evaluations(), 2);

        let path = std::env::temp_dir().join("homunculus_session_test.checkpoint.json");
        truncated.save_checkpoint(&path).unwrap();
        // The resuming compiler's own options are deliberately different:
        // resume must run under the checkpoint's.
        let resumed = Compiler::new(CompilerOptions::default())
            .resume(&platform, &path)
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(resumed.evaluations(), 6);
        assert_eq!(
            resumed.checkpoint_json(),
            reference.checkpoint_json(),
            "a resumed search must be bit-identical to an uninterrupted one"
        );
        let (a, b) = (
            resumed.train().unwrap().check().unwrap().codegen().unwrap(),
            reference
                .train()
                .unwrap()
                .check()
                .unwrap()
                .codegen()
                .unwrap(),
        );
        assert_eq!(a.to_json_string().unwrap(), b.to_json_string().unwrap());
    }

    #[test]
    fn binary_checkpoints_decode_like_json_ones() {
        let platform = ad_platform(500);
        let searched = Compiler::new(tiny_options())
            .open(&platform)
            .unwrap()
            .search()
            .unwrap();
        let json_path = std::env::temp_dir().join("homunculus_session_test_a.checkpoint.json");
        let bin_path = std::env::temp_dir().join("homunculus_session_test_a.checkpoint.bin");
        searched.save_checkpoint(&json_path).unwrap();
        searched.save_checkpoint_bin(&bin_path).unwrap();
        let bin_bytes = std::fs::metadata(&bin_path).unwrap().len();
        let json_bytes = std::fs::metadata(&json_path).unwrap().len();
        assert!(
            bin_bytes < json_bytes,
            "binary checkpoint ({bin_bytes} B) should undercut JSON ({json_bytes} B)"
        );
        let from_json = Compiler::new(tiny_options())
            .resume(&platform, &json_path)
            .unwrap();
        let from_bin = Compiler::new(tiny_options())
            .resume(&platform, &bin_path)
            .unwrap();
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(&bin_path).ok();
        assert_eq!(from_json.checkpoint_json(), from_bin.checkpoint_json());
        assert_eq!(from_json.checkpoint_json(), searched.checkpoint_json());
    }

    #[test]
    fn resume_rejects_corrupt_and_foreign_checkpoints() {
        let platform = ad_platform(500);
        let searched = Compiler::new(tiny_options())
            .open(&platform)
            .unwrap()
            .search()
            .unwrap();
        let text = searched.checkpoint_json();
        let dir = std::env::temp_dir();
        let write = |name: &str, contents: &[u8]| {
            let path = dir.join(name);
            std::fs::write(&path, contents).unwrap();
            path
        };
        let expect_checkpoint_error = |path: &std::path::Path| {
            let result = Compiler::new(tiny_options()).resume(&platform, path);
            std::fs::remove_file(path).ok();
            assert!(
                matches!(result, Err(CoreError::Checkpoint(_))),
                "expected CoreError::Checkpoint, got {:?}",
                result.err()
            );
        };

        // Garbage bytes, truncated binary, wrong version, tampered seed.
        expect_checkpoint_error(&write(
            "homunculus_session_garbage.ckpt",
            b"not a checkpoint",
        ));
        let bin = searched.checkpoint_bin_bytes();
        expect_checkpoint_error(&write(
            "homunculus_session_truncated.ckpt",
            &bin[..bin.len() / 2],
        ));
        expect_checkpoint_error(&write(
            "homunculus_session_version.ckpt",
            text.replace("homunculus.checkpoint/v1", "homunculus.checkpoint/v9")
                .as_bytes(),
        ));
        let tampered = text.replace("\"seed\":0", "\"seed\":99");
        assert_ne!(tampered, text, "tamper target not found");
        expect_checkpoint_error(&write("homunculus_session_seed.ckpt", tampered.as_bytes()));

        // A checkpoint from a different schedule.
        let foreign = write("homunculus_session_foreign.ckpt", text.as_bytes());
        let other = two_model_platform(500);
        let result = Compiler::new(tiny_options()).resume(&other, &foreign);
        std::fs::remove_file(&foreign).ok();
        assert!(matches!(result, Err(CoreError::Checkpoint(_))));
    }

    #[test]
    fn deadline_degrades_to_partial_artifact() {
        let mut options = tiny_options();
        options.time_budget = Some(std::time::Duration::ZERO);
        let observer = Arc::new(CollectingObserver::default());
        let artifact = Compiler::new(options)
            .observe(observer.clone())
            .open(&ad_platform(500))
            .unwrap()
            .compile()
            .unwrap();
        // The expired deadline tripped the token at the first boundary:
        // one evaluation, partial artifact, Cancelled reported once.
        assert!(artifact.is_partial());
        assert_eq!(artifact.best().history.points().len(), 1);
        assert_eq!(
            observer.count(|e| matches!(e, CompileEvent::Cancelled { .. })),
            1
        );
    }

    #[test]
    fn log_observer_renders_timestamped_lines() {
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        Compiler::new(tiny_options())
            .observe(Arc::new(LogObserver::new(buf.clone())))
            .open(&ad_platform(500))
            .unwrap()
            .compile()
            .unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("search started"), "log:\n{text}");
        assert!(
            text.contains("anomaly_detection/dnn: iteration 0"),
            "log:\n{text}"
        );
        assert!(
            text.contains("ms, evaluate ") && text.contains("; ask "),
            "log:\n{text}"
        );
        assert!(text.contains("finished in"), "log:\n{text}");
        assert!(
            text.lines().all(|line| line.starts_with('[')),
            "every line is timestamped:\n{text}"
        );
    }
}

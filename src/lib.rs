#![forbid(unsafe_code)]
//! # Homunculus
//!
//! A Rust reproduction of *"Homunculus: Auto-Generating Efficient Data-Plane
//! ML Pipelines for Datacenter Networks"* (ASPLOS 2023).
//!
//! Homunculus is a compiler. A network operator supplies only:
//!
//! 1. a **training dataset** (packet- or flow-level features with labels),
//! 2. **application objectives** (e.g. maximize F1 score), and
//! 3. a **target platform** with its network constraints (throughput,
//!    latency, and data-plane resources),
//!
//! and Homunculus explores the design space of ML models (DNN, SVM, KMeans,
//! decision trees) with constrained Bayesian optimization, trains candidates,
//! rejects configurations that violate platform feasibility, and finally
//! emits data-plane code (Spatial for the Taurus MapReduce grid, P4 for
//! MAT-based switches such as Tofino or the P4-SDNet NetFPGA flow).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! - [`ml`] — the ML substrate (MLP training, SVM, KMeans, trees, metrics).
//! - [`datasets`] — synthetic NSL-KDD-like, IoT, and P2P/botnet generators,
//!   with the packets, feature layouts and FlowLens-style flowmarker
//!   histograms they are built from.
//! - [`optimizer`] — HyperMapper-style constrained Bayesian optimization.
//! - [`backends`] — Taurus/Tofino/FPGA resource models and Spatial/P4 codegen.
//! - [`runtime`] — the compiled fixed-point inference runtime (integer
//!   execution engines lowered from trained model IRs) and the
//!   multi-tenant serving layer: a persistent `Deployment` with resident
//!   workers, ticket-based submission, weighted tenant QoS, and shared
//!   activation LUTs.
//! - [`analysis`] — the static verification layer: interval analysis over
//!   compiled pipelines (per-kernel no-saturation certificates) and a
//!   model linter with stable `HA`-prefixed diagnostic codes. It certifies
//!   typed models; [`core`] decodes artifacts, strictly for loads (with a
//!   validation hook) and leniently for the `homunculus-analyze` CLI
//!   (`CompiledArtifact::analyze_bytes`), and runs the analysis once per
//!   compile (certificates in the generated code, an opt-in gate).
//! - [`sim`] — kept for the benchmark and the fleet test only: closed-form
//!   grid timing equal to the Taurus estimate, and the sequential
//!   multi-hop replay the fleet is checked against.
//! - [`fleet`] — fleet-scale serving: deterministic fat-tree/leaf–spine
//!   topology generation, one persistent deployment per fabric whose
//!   tenants are the role-placed `(switch, model)` pairs, a pipelined
//!   hop-by-hop flow router whose verdicts gate or re-tag flows between
//!   hops, and per-switch / per-role / fleet-wide stats.
//! - [`core`] — the Alchemy DSL and the compiler itself: a **staged
//!   `Compiler` session** whose typed handles expose every phase of a
//!   compile.
//!
//! # Quickstart
//!
//! Compilation advances through typed stage handles — inspect, log,
//! persist, or cancel between any two stages:
//!
//! | Stage call | Hands back | What ran |
//! |---|---|---|
//! | `Compiler::open` | `Session` | schedule validation, resource-share scaling |
//! | `Session::search` | `Searched` | per-app BO candidate searches |
//! | `Searched::train` | `Trained` | winner selection + final retrain |
//! | `Trained::check` | `Feasible` | resource/performance estimation |
//! | `Feasible::codegen` | `CompiledArtifact` | code generation + integer lowering |
//!
//! ```no_run
//! use homunculus::core::alchemy::{Metric, ModelSpec, Platform};
//! use homunculus::core::pipeline::{CompiledArtifact, CompilerOptions};
//! use homunculus::core::session::{CompileEvent, Compiler};
//! use homunculus::datasets::nslkdd::NslKddGenerator;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Data: a synthetic NSL-KDD-like anomaly-detection dataset.
//! let dataset = NslKddGenerator::new(42).generate(4_000);
//!
//! // 2. Intent: maximize F1 with a DNN.
//! let model = ModelSpec::builder("anomaly_detection")
//!     .optimization_metric(Metric::F1)
//!     .data(dataset)
//!     .build()?;
//!
//! // 3. Target: a Taurus switch at 1 GPkt/s, 500 ns, on a 16x16 grid.
//! let mut platform = Platform::taurus();
//! platform
//!     .constraints_mut()
//!     .throughput_gpps(1.0)
//!     .latency_ns(500.0)
//!     .grid(16, 16);
//! platform.schedule(model)?;
//!
//! // 4. Compile, stage by stage, watching every BO iteration live.
//! //    (A CancelToken can stop the search at any iteration boundary;
//! //    the session then yields the best-so-far as a partial artifact.)
//! let compiler = Compiler::new(CompilerOptions::fast()).observe(Arc::new(
//!     |event: &CompileEvent| {
//!         // A candidate the target refused untrained has no F1.
//!         if let CompileEvent::CandidateEvaluated {
//!             iteration,
//!             objective: Some(objective),
//!             ..
//!         } = event
//!         {
//!             println!("iter {iteration}: F1 {objective:.3}");
//!         }
//!     },
//! ));
//! let searched = compiler.open(&platform)?.search()?;
//! println!("{} BO evaluations", searched.evaluations());
//! let artifact = searched.train()?.check()?.codegen()?;
//! println!("best F1 = {:.3}", artifact.best().objective);
//! println!("{}", artifact.code());
//!
//! // 5. Compile once, serve forever: the artifact (trained IRs,
//! //    normalizers, code, histories) persists as JSON; a later process
//! //    reloads it and serves bit-identical verdicts — no recompile.
//! artifact.save_json("ad.artifact.json")?;
//! let reloaded = CompiledArtifact::load_json("ad.artifact.json")?;
//! let deployment = reloaded
//!     .build_deployment(homunculus::runtime::Deployment::builder().workers(4))?;
//! # let _ = deployment;
//! # Ok(())
//! # }
//! ```
//!
//! The one-shot `homunculus::core::generate_with(&platform, &options)`
//! shim still runs every stage back to back and produces bit-identical
//! artifacts.

pub use homunculus_analysis as analysis;
pub use homunculus_backends as backends;
pub use homunculus_core as core;
pub use homunculus_datasets as datasets;
pub use homunculus_fleet as fleet;
pub use homunculus_ml as ml;
pub use homunculus_optimizer as optimizer;
pub use homunculus_runtime as runtime;
pub use homunculus_sim as sim;

#![forbid(unsafe_code)]
//! # homunculus-runtime
//!
//! The compiled fixed-point inference runtime.
//!
//! The paper's deployed pipelines execute as quantized integer arithmetic
//! on the data plane — Taurus runs int8/fixed-point MapReduce kernels per
//! packet, and MAT switches execute integer comparisons. This crate is the
//! software equivalent of that deployment artifact: it lowers a trained
//! [`ModelIr`](homunculus_backends::model::ModelIr) into a
//! [`CompiledPipeline`] that classifies packets with **true integer
//! fixed-point arithmetic** (i32 accumulators, per-format shifts,
//! saturating ops) instead of re-running the float trainer's forward pass.
//!
//! - [`pipeline::CompiledPipeline`] — the lowered model: per-packet
//!   [`classify`](pipeline::CompiledPipeline::classify) is
//!   allocation-free given a reusable [`pipeline::Scratch`]. Parameters
//!   sit in packed `i16` lanes whenever the format fits 16 bits (one lane
//!   type and one portable build: no cargo feature selects other kernels)
//!   and in `i32` otherwise; verdicts are the same bits on both tiers.
//! - [`CompiledPipeline::from_ir`] — the lowering entry point
//!   (`from_ir_shared` shares activation tables across many models).
//! - [`batch`] — the chunk walk every served row takes, and the
//!   `classify_batch` API that shards it across `std::thread::scope`
//!   workers.
//! - [`deploy`] — the serving frontend: a [`deploy::Deployment`] keeps
//!   resident workers fed by a bounded ingress — one mutex-guarded
//!   scheduler with two condition variables, so idle workers and blocked
//!   submitters sleep until the event they wait for — with ticket-based
//!   submission, runtime tenant add/remove, weighted QoS scheduling
//!   (per-model throughput floors), live stats snapshots, and graceful
//!   drain/shutdown.
//! - [`serve`] — what callers exchange with a deployment: [`TenantId`],
//!   [`TenantBatch`] (including the chained `a > b` form) and
//!   [`TenantStats`].
//! - [`histogram`] — fixed-size log-bucketed latency histograms: bounded
//!   stats memory for always-on deployments, quantiles within one bucket
//!   width of raw samples.
//! - [`lut`] — the shared activation-LUT cache: one sigmoid/tanh table
//!   per `(format, activation)` pair across a whole schedule.
//!
//! # Which code each kind of traffic reaches
//!
//! - Every *served* row — a [`Deployment`] ticket, hence every fleet hop —
//!   reaches the block walk: a worker makes one `classify_chunk` call per
//!   dispatched chunk (32-row blocks read in place, the tenant's
//!   normalizer applied inside the quantize pass) and times the chunk as
//!   a whole.
//!   [`CompiledPipeline::classify_batch`] is the same call per shard.
//! - A fleet is one [`Deployment`] whose tenants are the placed
//!   `(switch, model)` pairs: a hop is a ticket on that switch's lane.
//! - Per-row [`CompiledPipeline::classify`] is that walk at `rows = 1` and
//!   the reference entry: tests and benchmark oracles hold served
//!   verdicts to it, on [`CompiledPipeline::from_ir_scalar`]'s scalar tier
//!   (which formats wider than 16 bits also run) where they start from an IR.
//! - [`CompiledPipeline::trace`] is an independent element-order replay
//!   that tests hold `classify` to; it shares no arithmetic with the walk.
//!
//! The float model stays available as the *reference oracle*: agreement
//! between the two paths is bounded by
//! [`pipeline::CompiledPipeline::score_tolerance`], which derives a
//! worst-case score deviation from the fixed-point format's
//! `max_error` and the lowered weights.
//!
//! # Example
//!
//! ```
//! use homunculus_backends::model::{DnnIr, ModelIr};
//! use homunculus_ml::mlp::{Mlp, MlpArchitecture};
//! use homunculus_ml::quantize::FixedPoint;
//! use homunculus_runtime::pipeline::{CompiledPipeline, Scratch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = MlpArchitecture::new(4, vec![8], 2);
//! let net = Mlp::new(&arch, 7)?;
//! let ir = ModelIr::Dnn(DnnIr::from_mlp(&net));
//! let pipeline = CompiledPipeline::from_ir(&ir, FixedPoint::taurus_default())?;
//! let mut scratch = Scratch::new();
//! let class = pipeline.classify(&[0.5, -0.25, 1.0, 0.0], &mut scratch);
//! assert!(class < 2);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod deploy;
pub mod histogram;
pub mod lut;
pub mod pipeline;
pub mod serve;

pub use deploy::{
    Deployment, DeploymentBuilder, DeploymentStats, SchedulePolicy, Ticket, Verdicts,
};
pub use histogram::LatencyHistogram;
pub use lut::LutCache;
pub use pipeline::{classify_rows, CompiledPipeline, Scratch};
pub use serve::{TenantBatch, TenantId, TenantStats};

use std::error::Error;
use std::fmt;

/// Errors produced when lowering a model IR to the integer runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The IR carries no trained parameters (shape-only IRs cannot run).
    MissingParams(String),
    /// The IR is internally inconsistent (bad shapes, dangling indices).
    InvalidModel(String),
    /// A serving-layer request was malformed (unknown tenant, duplicate
    /// registration, width mismatch).
    Serve(String),
    /// A blocking submission missed its configured admission deadline
    /// (see [`deploy::DeploymentBuilder::submit_deadline`]).
    Deadline(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::MissingParams(msg) => write!(f, "missing trained parameters: {msg}"),
            RuntimeError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
            RuntimeError::Serve(msg) => write!(f, "serving error: {msg}"),
            RuntimeError::Deadline(msg) => write!(f, "submit deadline exceeded: {msg}"),
        }
    }
}

impl Error for RuntimeError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            RuntimeError::MissingParams("dnn".into()).to_string(),
            "missing trained parameters: dnn"
        );
        assert_eq!(
            RuntimeError::InvalidModel("x".into()).to_string(),
            "invalid model: x"
        );
        assert_eq!(
            RuntimeError::Serve("y".into()).to_string(),
            "serving error: y"
        );
        assert_eq!(
            RuntimeError::Deadline("z".into()).to_string(),
            "submit deadline exceeded: z"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
        assert_send_sync::<CompiledPipeline>();
        assert_send_sync::<LutCache>();
    }
}

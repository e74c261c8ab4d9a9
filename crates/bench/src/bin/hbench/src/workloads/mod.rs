//! The four workloads. Each is set-up → warm-up → measured repetitions, with
//! set-up run again after the warm-up and after each repetition so that its
//! time has a median over the whole run, and with every output checked
//! against a reference computed on a path the measured one does not share.

pub mod compile_search;
pub mod deploy_bulk;
pub mod deploy_trickle;
pub mod fleet_fabric;

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{env, Res};
use homunculus_ml::tensor::Matrix;
use homunculus_runtime::{CompiledPipeline, Deployment, Scratch, TenantBatch, TenantId};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = [
    "compile_search",
    "deploy_bulk",
    "deploy_trickle",
    "fleet_fabric",
];

/// What the command line asks of one workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Feeds dataset generation, flow endpoints and traffic phases only.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Seconds-long run over the same code paths (tests, quick checks).
    pub smoke: bool,
    /// Where `hbench-trace-<workload>.jsonl` goes.
    pub trace_dir: PathBuf,
}

pub fn run(workload: &str, cfg: &RunConfig) -> Res<Outcome> {
    env::reset_peak_rss();
    match workload {
        "compile_search" => compile_search::run(cfg),
        "deploy_bulk" => deploy_bulk::run(cfg),
        "deploy_trickle" => deploy_trickle::run(cfg),
        "fleet_fabric" => fleet_fabric::run(cfg),
        other => Err(format!("unknown workload {other} (expected one of {NAMES:?})").into()),
    }
}

/// How a run divides its time.
pub struct Plan {
    /// Times set-up is run: once for the state the run measures, then once
    /// after the warm-up and after every repetition.
    pub setups: usize,
    pub warmup: Duration,
    /// Measured repetitions and the length of each.
    pub reps: usize,
    pub rep: Duration,
}

impl Plan {
    /// `reps` repetitions sharing `cfg.seconds`; a smoke run makes two.
    pub fn of(cfg: &RunConfig, reps: usize) -> Plan {
        let reps = if cfg.smoke { 2 } else { reps };
        Plan {
            setups: reps + 2,
            warmup: Duration::from_secs_f64(if cfg.smoke { 0.2 } else { 1.0 }),
            reps,
            rep: Duration::from_secs_f64(cfg.seconds / reps as f64),
        }
    }
}

/// What a serving workload's set-up builds.
pub trait State: Sized {
    /// The whole set-up; `op` is its id in the trace.
    fn build(cfg: &RunConfig, tracer: &mut Tracer, op: u64) -> Res<Self>;
    /// `(install seconds, operations attempted, failed)`: install is the
    /// part of set-up from trained models to first verdicts.
    fn tally(&self) -> (f64, u64, u64);
    /// Stops what the state started.
    fn retire(self);
}

/// Times a workload's set-up over the whole run, not only at its start.
///
/// A neighbour on a shared host slows the process for seconds at a time.
/// Set-ups run back to back at the start of the process all fall inside
/// such a spell or all outside it, and their median moves with it (0.53 s
/// or 0.92 s on the same code); set-ups spread between the repetitions do
/// not, so the median of theirs holds.
pub struct SetUps<'c> {
    cfg: &'c RunConfig,
    setup_s: Vec<f64>,
    install_s: Vec<f64>,
}

impl<'c> SetUps<'c> {
    pub fn new(cfg: &'c RunConfig) -> Self {
        SetUps {
            cfg,
            setup_s: Vec::new(),
            install_s: Vec::new(),
        }
    }

    /// Sets up, times it and counts its operations into `out`.
    pub fn build<S: State>(&mut self, tracer: &mut Tracer, out: &mut Outcome) -> Res<S> {
        tracer.set_on(self.cfg.trace);
        let t0 = Instant::now();
        let fresh = S::build(self.cfg, tracer, self.setup_s.len() as u64)?;
        self.setup_s.push(t0.elapsed().as_secs_f64());
        let (install, attempted, failed) = fresh.tally();
        self.install_s.push(install);
        out.attempted += attempted;
        out.failed += failed;
        Ok(fresh)
    }

    /// One more set-up beside the state the run measures, retired at once.
    pub fn again<S: State>(&mut self, tracer: &mut Tracer, out: &mut Outcome) -> Res<()> {
        self.build::<S>(tracer, out)?.retire();
        Ok(())
    }

    /// `setup_s` (the whole set-up) and `compile_s` (its install part).
    pub fn report(&self, out: &mut Outcome) {
        out.set("setup_s", &self.setup_s);
        out.set("compile_s", &self.install_s);
    }
}

/// The whole traffic through every tenant, one ticket each: the first
/// verdicts a fresh deployment serves.
pub fn first_verdicts(
    deployment: &Deployment,
    tenants: &[TenantId],
    traffic: &Matrix,
) -> Res<Vec<Vec<usize>>> {
    tenants
        .iter()
        .map(|&tenant| {
            let ticket = deployment.submit(TenantBatch::new(tenant, traffic.clone()))?;
            Ok(ticket.wait().as_slice().to_vec())
        })
        .collect()
}

/// In a traced run every other repetition records spans, so the same run
/// prices the tracing: the untraced repetitions are the baseline.
pub fn rep_is_traced(cfg: &RunConfig, rep: usize) -> bool {
    cfg.trace && rep % 2 == 1
}

/// `1 - traced / untraced` for a rate, `traced / untraced - 1` for a time:
/// the share of the untraced figure that tracing costs.
pub fn trace_overhead_share(untraced: &[f64], traced: &[f64], higher_is_better: bool) -> f64 {
    let (u, t) = (median(untraced), median(traced));
    if u == 0.0 || t == 0.0 {
        0.0
    } else if higher_is_better {
        1.0 - t / u
    } else {
        t / u - 1.0
    }
}

/// Single-thread cost per row of `classify`, the call a deployment worker
/// makes: median over five passes of at least 20 ms each.
pub fn classify_ns_per_row(pipeline: &CompiledPipeline, rows: &Matrix) -> f64 {
    let mut scratch = Scratch::new();
    ns_per_row(rows.rows(), || {
        for row in rows.iter_rows() {
            std::hint::black_box(pipeline.classify(std::hint::black_box(row), &mut scratch));
        }
    })
}

/// Median nanoseconds per row of `pass`, which processes `rows` rows.
pub fn ns_per_row(rows: usize, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut passes = 0u32;
            while passes == 0 || start.elapsed() < Duration::from_millis(20) {
                pass();
                passes += 1;
            }
            start.elapsed().as_nanos() as f64 / (f64::from(passes) * rows as f64)
        })
        .collect();
    median(&samples)
}

/// Closes a run: peak memory, and for a traced run the self-time table and
/// the trace file.
pub fn finish(cfg: &RunConfig, workload: &str, tracer: &Tracer, out: &mut Outcome) -> Res<()> {
    out.set("peak_rss_mb", &[env::peak_rss_mb()]);
    if cfg.trace {
        for (name, ns) in tracer.self_time_by_name_ns() {
            out.self_time_ms.insert(name, ns as f64 / 1e6);
        }
        let path = cfg.trace_dir.join(format!("hbench-trace-{workload}.jsonl"));
        let written = tracer.write_jsonl(&path)?;
        out.note(format!(
            "{written} of {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
    }
    Ok(())
}

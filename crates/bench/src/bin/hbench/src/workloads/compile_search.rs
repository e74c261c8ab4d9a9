//! `compile_search`: the paper's Figure-3 flow — two models (`ad` on
//! NSL-KDD-like data, `tc` on IoT traffic, DNN and decision tree, F1)
//! scheduled `ad | tc` on a Taurus 16×16 grid at 1 GPkt/s / 500 ns —
//! compiled stage by stage, encoded to `HJB1` bytes, reloaded, deployed,
//! and probed with one 256-row ticket per model.
//!
//! Why: `core`, `optimizer`, the `ml` trainers, `backends` and `analysis`
//! do all the work and the serving runtime does none, so a compile-side
//! change shows here and nowhere else.
//!
//! A run compiles several differently seeded dataset pairs, so its medians
//! are not hostage to the search trajectory of one dataset, and revisits
//! one: the revisit must reproduce the first visit's artifact bit for bit.

use super::{finish, RunConfig};
use crate::models::{agreement, mismatches, normalize, window, SplitMix};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{env, Res};
use homunculus_core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus_core::pipeline::{CompiledArtifact, CompilerOptions};
use homunculus_core::session::{CompileEvent, CompileObserver, Compiler};
use homunculus_datasets::iot::IotTrafficGenerator;
use homunculus_datasets::nslkdd::NslKddGenerator;
use homunculus_ml::tensor::Matrix;
use homunculus_runtime::{classify_rows, Deployment, TenantBatch};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const PROBE_ROWS: usize = 256;

/// The supervised half of the default algorithm set, without the linear
/// SVM. (KMeans is in the default set but never searched under an F1
/// objective.) The SVM search drops low-impact features, and when such a
/// candidate wins, the artifact pairs a narrowed model with the full-width
/// normalizer: the analyzer gate refuses it (HA0003) and a deployment would
/// reject its traffic. That is a defect of the product, seen here on small
/// budgets; a benchmark needs workloads on which no operation fails, so the
/// family stays out until it is fixed.
const SEARCHED: [Algorithm; 2] = [Algorithm::Dnn, Algorithm::DecisionTree];

/// One seeded input program: the scheduled platform and a probe per model.
struct Program {
    platform: Platform,
    /// `(model name, raw probe rows)`.
    probes: Vec<(&'static str, Matrix)>,
}

fn program(seed: u64, samples: usize, generate_ms: &mut Vec<f64>) -> Res<Program> {
    let t0 = Instant::now();
    let ad_data = NslKddGenerator::new(seed).generate(samples);
    let tc_data = IotTrafficGenerator::new(seed + 1).generate(samples);
    generate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let mut phases = SplitMix(seed);
    let probes = vec![
        (
            "ad",
            window(ad_data.features(), phases.below(samples), PROBE_ROWS),
        ),
        (
            "tc",
            window(tc_data.features(), phases.below(samples), PROBE_ROWS),
        ),
    ];
    let spec = |name: &str, data| {
        SEARCHED
            .into_iter()
            .fold(ModelSpec::builder(name), |b, algorithm| {
                b.algorithm(algorithm)
            })
            .optimization_metric(Metric::F1)
            .data(data)
            .build()
    };
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(spec("ad", ad_data)? | spec("tc", tc_data)?)?;
    Ok(Program { platform, probes })
}

/// Timestamps every `CandidateEvaluated` event — the only view of single
/// BO evaluations the public API gives.
#[derive(Default)]
struct EvalClock {
    events: Mutex<Vec<(Instant, String, Algorithm, bool)>>,
}

impl CompileObserver for EvalClock {
    fn on_event(&self, event: &CompileEvent) {
        if let CompileEvent::CandidateEvaluated {
            model,
            algorithm,
            feasible,
            ..
        } = event
        {
            let now = Instant::now();
            self.events.lock().expect("observer poisoned").push((
                now,
                model.clone(),
                *algorithm,
                *feasible,
            ));
        }
    }
}

/// What a compile must reproduce exactly when its program is revisited.
#[derive(Clone, PartialEq)]
struct Pinned {
    objective: f64,
    bin: Vec<u8>,
    json_bytes: usize,
}

/// What one compile → reload → deploy → probe produced.
struct Compiled {
    compile_s: f64,
    search_s: f64,
    pinned: Pinned,
    evals: usize,
    feasible: usize,
    /// Gaps between consecutive evaluations of one (model, algorithm), ms.
    eval_gaps_ms: BTreeMap<&'static str, Vec<f64>>,
    agreement_min: f64,
    attempted: u64,
    failed: u64,
}

fn compile_once(
    program: &Program,
    options: CompilerOptions,
    tracer: &mut Tracer,
    op: u64,
) -> Res<Compiled> {
    let clock = Arc::new(EvalClock::default());
    let t0 = Instant::now();
    let root = tracer.begin("compile", None, op);
    let session = tracer.time("core.open", root, op, || {
        Compiler::new(options)
            .observe(clock.clone())
            .verify_artifacts(true)
            .open(&program.platform)
    })?;
    let t_search = Instant::now();
    let searched = tracer.time("core.search", root, op, || session.search())?;
    let search_s = t_search.elapsed().as_secs_f64();
    let trained = tracer.time("core.train", root, op, || searched.train())?;
    let feasible = tracer.time("core.check", root, op, || trained.check())?;
    let artifact = tracer.time("backends.codegen", root, op, || feasible.codegen())?;
    let analysis = tracer.time("analysis.analyze", root, op, || artifact.analyze());
    let bin = tracer.time("core.encode_bin", root, op, || artifact.to_bin_bytes());
    let reloaded = tracer.time("core.decode_bin", root, op, || {
        CompiledArtifact::from_bin_bytes(&bin)
    })?;
    let first = tracer.begin("core.first_verdict", root, op);
    let deployment = reloaded.build_deployment(Deployment::builder().workers(env::workers()))?;
    let mut served = Vec::with_capacity(program.probes.len());
    for (name, probe) in &program.probes {
        let tenant = deployment
            .tenant_id(name)
            .ok_or_else(|| format!("reloaded artifact deployed no tenant {name}"))?;
        let ticket = deployment.submit(TenantBatch::new(tenant, probe.clone()))?;
        served.push(ticket.wait().as_slice().to_vec());
    }
    tracer.end(first);
    tracer.end(root);
    let compile_s = t0.elapsed().as_secs_f64();
    deployment.shutdown();

    // Oracle: the deployment rebuilt from the bytes serves what the
    // in-process artifact's own lowered pipeline classifies.
    let mut failed = analysis.error_count() as u64;
    let mut agreement_min = 1.0f64;
    for ((name, probe), served) in program.probes.iter().zip(&served) {
        let report = artifact
            .report(name)
            .ok_or_else(|| format!("artifact has no report for {name}"))?;
        let pipeline = report
            .compiled
            .as_ref()
            .ok_or_else(|| format!("{name} was not lowered"))?;
        let want = classify_rows(pipeline, &normalize(probe, &report.normalizer));
        failed += mismatches(served, &want);
        agreement_min = agreement_min.min(agreement(served, &want));
    }

    // The JSON form, outside the timed path: its size and decode cost.
    let json = tracer.time("core.encode_json", None, op, || artifact.to_json_string())?;
    tracer.time("core.decode_json", None, op, || {
        CompiledArtifact::from_json_str(&json).map(drop)
    })?;

    let events = std::mem::take(&mut *clock.events.lock().expect("observer poisoned"));
    let mut last: BTreeMap<(String, &'static str), Instant> = BTreeMap::new();
    let mut eval_gaps_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (at, model, algorithm, _) in &events {
        if let Some(previous) = last.insert((model.clone(), algorithm.name()), *at) {
            eval_gaps_ms
                .entry(algorithm.name())
                .or_default()
                .push((*at - previous).as_secs_f64() * 1e3);
        }
    }
    let objectives: Vec<f64> = artifact.reports().iter().map(|r| r.objective).collect();
    Ok(Compiled {
        compile_s,
        search_s,
        pinned: Pinned {
            objective: objectives.iter().sum::<f64>() / objectives.len() as f64,
            json_bytes: json.len(),
            bin,
        },
        evals: events.len(),
        feasible: events.iter().filter(|e| e.3).count(),
        eval_gaps_ms,
        agreement_min,
        attempted: (events.len() + served.len() * PROBE_ROWS + 1) as u64,
        failed,
    })
}

/// Seconds one full-scale compile takes on the box hbench was written on;
/// sizes the number of programs a run of `--seconds` compiles. A constant,
/// not a measurement, so that a seed always compiles the same programs.
const COMPILE_S: f64 = 2.2;

pub fn run(cfg: &RunConfig) -> Res<Outcome> {
    let mut tracer = Tracer::new(cfg.trace);
    let mut out = Outcome::default();
    // Scaled down from the paper's Figure-4 budget (4 000 samples, 20
    // evaluations, ~10 s a compile here) so that a run holds several
    // compiles; the stages and their proportions are the same.
    let (compiles, samples, options, warm) = if cfg.smoke {
        (4, 400, CompilerOptions::fast().bo_budget(3), 200)
    } else {
        let compiles = (cfg.seconds / COMPILE_S).round().clamp(4.0, 32.0) as usize;
        (
            compiles,
            2_000,
            CompilerOptions::thorough().bo_budget(10),
            400,
        )
    };
    // An untraced run compiles a fresh program every time but the last,
    // which revisits the first; a traced run compiles each of half as many
    // programs twice, untraced then traced, so the pair prices the tracing.
    // Either way some revisit checks that a compile is reproducible.
    let schedule: Vec<(usize, bool)> = if cfg.trace {
        (0..compiles).map(|c| (c / 2, c % 2 == 1)).collect()
    } else {
        (0..compiles).map(|c| (c % (compiles - 1), false)).collect()
    };
    let n_programs = schedule.iter().map(|&(p, _)| p + 1).max().unwrap_or(1);

    // Set-up: the seeded programs, and one small compile of a fixed program
    // so that the first measured one does not pay the process's cold start.
    // It is run again after every compile, so that the median of its times
    // is taken over the whole run (see `SetUps`).
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut set_up = |out: &mut Outcome| -> Res<Vec<Program>> {
        let t0 = Instant::now();
        let programs = (0..n_programs as u64)
            .map(|p| program(cfg.seed.wrapping_mul(64) + p, samples, &mut generate_ms))
            .collect::<Res<Vec<_>>>()?;
        let warmed = compile_once(
            &program(0, warm, &mut Vec::new())?,
            CompilerOptions::fast().bo_budget(3),
            &mut Tracer::new(false),
            0,
        )?;
        out.attempted += warmed.attempted;
        out.failed += warmed.failed;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(programs)
    };
    let programs = set_up(&mut out)?;

    let mut first_visit: Vec<Option<Pinned>> = vec![None; programs.len()];
    let (mut untraced, mut traced): (Vec<Compiled>, Vec<Compiled>) = (Vec::new(), Vec::new());
    for (op, &(p, traced_rep)) in schedule.iter().enumerate() {
        tracer.set_on(traced_rep);
        let mut compiled = compile_once(&programs[p], options, &mut tracer, op as u64 + 1)?;
        let first = first_visit[p].get_or_insert_with(|| compiled.pinned.clone());
        if *first != compiled.pinned {
            compiled.failed += 1;
            out.note(format!("program {p} did not recompile bit-identically"));
        }
        out.attempted += compiled.attempted;
        out.failed += compiled.failed;
        if traced_rep {
            traced.push(compiled);
        } else {
            untraced.push(compiled);
        }
        set_up(&mut out)?;
    }
    tracer.set_on(cfg.trace);

    let compile_s: Vec<f64> = untraced.iter().map(|c| c.compile_s).collect();
    let probe_rows = (programs[0].probes.len() * PROBE_ROWS) as f64;
    let firsts: Vec<&Pinned> = first_visit.iter().flatten().collect();
    out.set("setup_s", &setup_s);
    out.set("compile_s", &compile_s);
    out.set(
        "pkt_per_s",
        &compile_s.iter().map(|s| probe_rows / s).collect::<Vec<_>>(),
    );
    out.set(
        "latency_p50_us",
        &compile_s.iter().map(|s| s * 1e6).collect::<Vec<_>>(),
    );
    out.set(
        "objective_f1",
        &[firsts.iter().map(|c| c.objective).sum::<f64>() / firsts.len() as f64],
    );
    let all = || untraced.iter().chain(&traced);
    out.set(
        "fixed_agreement_min",
        &[all().map(|c| c.agreement_min).fold(1.0, f64::min)],
    );

    if cfg.trace {
        let ms = |name: &str| median(&tracer.durations_ns(name)) / 1e6;
        out.layer("datasets.generate_ms", median(&generate_ms));
        out.layer("core.search_s", ms("core.search") / 1e3);
        out.layer("core.train_s", ms("core.train") / 1e3);
        out.layer("core.check_s", ms("core.check") / 1e3);
        out.layer("backends.codegen_ms", ms("backends.codegen"));
        out.layer("analysis.analyze_ms", ms("analysis.analyze"));
        out.layer("core.encode_bin_ms", ms("core.encode_bin"));
        out.layer("core.decode_bin_ms", ms("core.decode_bin"));
        out.layer("core.decode_json_ms", ms("core.decode_json"));
        out.layer("core.first_verdict_ms", ms("core.first_verdict"));
        let evals: Vec<f64> = all().map(|c| c.evals as f64).collect();
        out.layer("optimizer.evals", median(&evals));
        let rates: Vec<f64> = all().map(|c| c.evals as f64 / c.search_s).collect();
        out.layer("optimizer.evals_per_s", median(&rates));
        let feasible: f64 = all().map(|c| c.feasible as f64).sum();
        out.layer(
            "optimizer.feasible_share",
            feasible / evals.iter().sum::<f64>().max(1.0),
        );
        for algorithm in SEARCHED {
            let gaps: Vec<f64> = all()
                .flat_map(|c| c.eval_gaps_ms.get(algorithm.name()))
                .flatten()
                .copied()
                .collect();
            out.layer(
                format!("core.eval_ms_p50.{}", algorithm.name()),
                median(&gaps),
            );
        }
        let json_bytes: Vec<f64> = firsts.iter().map(|c| c.json_bytes as f64).collect();
        let bin_bytes: Vec<f64> = firsts.iter().map(|c| c.bin.len() as f64).collect();
        out.layer("core.artifact_json_bytes", median(&json_bytes));
        out.layer("core.artifact_bin_bytes", median(&bin_bytes));
        let of = |runs: &[Compiled]| runs.iter().map(|c| c.compile_s).collect::<Vec<_>>();
        out.layer(
            "trace.overhead_share",
            super::trace_overhead_share(&of(&untraced), &of(&traced), false),
        );
    }
    finish(cfg, "compile_search", &tracer, &mut out)?;
    Ok(out)
}

//! Multi-application scheduling *and serving* on one switch (§5.1.3,
//! Table 3).
//!
//! Alchemy's compositional operators place several models on a single
//! data plane: `>>` (the paper's `>`) runs models sequentially, `|` in
//! parallel. Resources are summed regardless of strategy while the
//! combined throughput follows the min-rule.
//!
//! After compiling, the sequential schedule is **deployed**: every winning
//! model becomes a tenant of one persistent `Deployment` (resident
//! workers, shared activation LUTs), a fresh traffic stream is multiplexed
//! across the tenants call after call on the integer fixed-point path —
//! pool setup paid once, not per call — and a chained run feeds one app's
//! verdict to an escalation model registered **at runtime** — the paper's
//! `a > b` dataflow on a switch that never stops.
//!
//! Run with: `cargo run --release --example multi_app_chaining`

use homunculus::backends::model::{ModelIr, SvmIr};
use homunculus::core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus::core::pipeline::{CompiledArtifact, CompilerOptions};
use homunculus::core::schedule::ScheduleExpr;
use homunculus::core::session::Compiler;
use homunculus::datasets::nslkdd::NslKddGenerator;
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::runtime::{Deployment, SchedulePolicy, TenantBatch};

fn spec(name: &str, seed: u64) -> ModelSpec {
    ModelSpec::builder(name)
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(seed).generate(1_200))
        .build()
        .expect("valid spec")
}

fn compile(
    strategy: &str,
    expr: ScheduleExpr,
) -> Result<CompiledArtifact, Box<dyn std::error::Error>> {
    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(2_000.0)
        .grid(16, 16);
    platform.schedule(expr)?;
    let artifact = Compiler::new(CompilerOptions::fast().bo_budget(12).seed(9))
        .open(&platform)?
        .compile()?;
    let perf = artifact.combined_performance();
    println!(
        "{strategy:<24} models={} CUs={:>5.0} MUs={:>5.0} tput={:.2}GPkt/s lat={:>6.0}ns",
        artifact.reports().len(),
        artifact.combined_resources().get("cus"),
        artifact.combined_resources().get("mus"),
        perf.throughput_gpps,
        perf.latency_ns,
    );
    Ok(artifact)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("app-chaining strategies (Table 3 shape):\n");

    // DNN > DNN > DNN > DNN — kept for serving below.
    let sequential = compile(
        "a >> b >> c >> d",
        spec("a", 1) >> spec("b", 2) >> spec("c", 3) >> spec("d", 4),
    )?;

    // DNN | DNN | DNN | DNN
    compile(
        "a | b | c | d",
        spec("a", 1) | spec("b", 2) | spec("c", 3) | spec("d", 4),
    )?;

    // DNN > (DNN | DNN) > DNN
    compile(
        "a >> (b | c) >> d",
        spec("a", 1) >> (spec("b", 2) | spec("c", 3)) >> spec("d", 4),
    )?;

    println!("\nresources scale with the number of models, not the strategy.");

    // ------------------------------------------------------------------
    // Compile once, serve forever: the sequential schedule's artifact is
    // saved to JSON and RELOADED, and the deployment below is built from
    // the reloaded copy — a serving process needs the artifact file, not
    // a compiler run (verdicts are bit-identical either way).
    // ------------------------------------------------------------------
    let path = std::env::temp_dir().join("homunculus_chain.artifact.json");
    sequential.save_json(&path)?;
    let reloaded = CompiledArtifact::load_json(&path)?;
    println!(
        "\nartifact saved to {} and reloaded ({} models)",
        path.display(),
        reloaded.reports().len()
    );

    // ------------------------------------------------------------------
    // Deploy the reloaded schedule: all four winners become tenants of
    // one persistent Deployment — resident workers fed by an ingress
    // queue, launched once and reused for every serving round below (raw
    // traffic in; each tenant's own normalizer applies).
    // ------------------------------------------------------------------
    let deployment = reloaded.build_deployment(
        Deployment::builder()
            .workers(4)
            .queue_depth(16)
            .policy(SchedulePolicy::RoundRobin),
    )?;
    println!(
        "\ndeployed {} tenants on {} resident workers (activation LUTs built: {}, shared hits: {})\n",
        deployment.tenant_count(),
        deployment.workers(),
        deployment.luts().builds(),
        deployment.luts().hits(),
    );

    let traffic = NslKddGenerator::new(99).generate(4_000);
    let ids: Vec<_> = reloaded
        .reports()
        .iter()
        .map(|report| deployment.tenant_id(&report.name).expect("deployed tenant"))
        .collect();
    // Several serving rounds against the same resident pool: worker
    // launch is paid once, not on each of these.
    const ROUNDS: usize = 4;
    let start = std::time::Instant::now();
    for _ in 0..ROUNDS {
        let tickets: Vec<_> = ids
            .iter()
            .map(|&id| {
                deployment.submit(
                    TenantBatch::new(id, traffic.features().clone())
                        .with_oracle(traffic.labels().to_vec()),
                )
            })
            .collect::<Result<_, _>>()?;
        for ticket in tickets {
            ticket.wait();
        }
    }
    let elapsed = start.elapsed();
    let snapshot = deployment.stats_snapshot();
    println!("tenant     packets   verdicts[benign, attack]   p50ns  p99ns  label-agreement");
    for stats in &snapshot.tenants {
        println!(
            "{:<10} {:>7}   {:<24}   {:>5}  {:>5}  {:.3}",
            stats.name,
            stats.packets,
            format!("{:?}", stats.verdict_histogram),
            stats.p50_ns,
            stats.p99_ns,
            stats.oracle_agreement().unwrap_or(f64::NAN),
        );
    }
    println!(
        "aggregate: {} packets over {} rounds in {:.2} ms = {:.0} pkt/s ({} tickets completed)",
        snapshot.total_packets(),
        ROUNDS,
        elapsed.as_secs_f64() * 1e3,
        snapshot.total_packets() as f64 / elapsed.as_secs_f64(),
        snapshot.completed_tickets,
    );

    // ------------------------------------------------------------------
    // Chained execution (the paper's `a > escalation`) on the *live*
    // deployment: a hand-built escalation SVM taking the 7 base features
    // *plus* tenant a's verdict is added at runtime — with a weighted
    // policy so the latency-critical escalation stage holds a 25%
    // throughput floor — and stage 2 consumes stage 1's verdicts.
    // ------------------------------------------------------------------
    let escalation_ir = ModelIr::Svm(SvmIr {
        n_features: 8,
        n_classes: 2,
        // Escalate iff the upstream verdict (feature 7) is 1 *and* the
        // flow's traffic-volume feature (feature 4, raw scale ~0..5) is
        // above 1.0: score = f4 + 4*verdict - 5.
        planes: Some((
            vec![vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 4.0]],
            vec![-5.0],
        )),
    });
    let escalation = deployment.add_model_with(
        "escalate",
        &escalation_ir,
        FixedPoint::taurus_default(),
        None,
        SchedulePolicy::weighted(2.0).with_min_share(0.25),
    )?;

    // Stage 1: tenant a classifies the raw stream.
    let flagged_verdicts = deployment
        .submit(TenantBatch::new(ids[0], traffic.features().clone()))?
        .wait()
        .into_vec();
    // Stage 2: the escalation tenant sees the base features plus stage
    // 1's verdict in the trailing slot — the `a > b` dataflow.
    let base = traffic.features();
    let augmented = Matrix::from_fn(base.rows(), base.cols() + 1, |r, c| {
        if c < base.cols() {
            base[(r, c)]
        } else {
            flagged_verdicts[r] as f32
        }
    });
    let escalated_verdicts = deployment
        .submit(TenantBatch::new(escalation, augmented))?
        .wait()
        .into_vec();
    let flagged = flagged_verdicts.iter().filter(|&&v| v == 1).count();
    let escalated = escalated_verdicts.iter().filter(|&&v| v == 1).count();
    println!(
        "\nchain a >> escalate: {} / {} packets flagged by 'a', {} escalated downstream",
        flagged,
        traffic.len(),
        escalated,
    );

    // Graceful teardown: every accepted ticket has already completed.
    deployment.drain();
    deployment.shutdown();
    println!("deployment drained and shut down; post-shutdown submits are rejected.");
    Ok(())
}

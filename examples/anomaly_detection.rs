//! The paper's running example (§3, Figure 3/4): anomaly detection on a
//! Taurus switch, with the optimization trace printed as a regret plot —
//! both live (a [`LogObserver`] streams every BO iteration and stage
//! timing to stdout as timestamped log lines) and from the final history.
//! It ends by classifying fresh traffic with the compiled integer
//! pipeline, timed by the Taurus estimate of the winner.
//!
//! Run with: `cargo run --release --example anomaly_detection`

use homunculus::core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus::core::pipeline::CompilerOptions;
use homunculus::core::session::{Compiler, LogObserver};
use homunculus::datasets::nslkdd::NslKddGenerator;
use homunculus::ml::metrics::f1_binary;
use homunculus::runtime::classify_rows;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = NslKddGenerator::new(7).generate(6_000);
    let model = ModelSpec::builder("anomaly_detection")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn) // Figure 3 pins "algorithm": ["dnn"]
        .data(dataset)
        .build()?;

    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0) // GPkt/s
        .latency_ns(500.0) // ns
        .grid(16, 16); // rows x cols

    platform.schedule(model)?;

    let options = CompilerOptions {
        bo_budget: 20, // the Figure 4 plot shows ~20 iterations
        doe_samples: 5,
        train_epochs: 20,
        final_epochs: 60,
        sample_cap: Some(2_000),
        parallel: true,
        seed: 1,
        time_budget: None,
    };
    // Watch the compile as it happens: the stock LogObserver renders
    // every session event as a timestamped log line on stdout.
    let artifact = Compiler::new(options)
        .observe(Arc::new(LogObserver::stdout()))
        .open(&platform)?
        .search()?
        .train()?
        .check()?
        .codegen()?;
    let best = artifact.best();

    println!("== anomaly detection on taurus-16x16 ==");
    println!(
        "winner: {} | F1 = {:.3} | params = {} | {}",
        best.algorithm.name(),
        best.objective,
        best.ir.param_count(),
        best.estimate.resources
    );

    // The Figure 4 "regret plot": per-iteration objective + best-so-far.
    // A configuration the target refused untrained has no F1 (`—`).
    println!("\niteration  F1       best-so-far  feasible");
    let best_series = best.history.best_so_far_series();
    for (point, best_so_far) in best.history.points().iter().zip(best_series) {
        let f1 = point
            .evaluation
            .objective
            .map_or("—".to_string(), |f1| format!("{f1:.4}"));
        println!(
            "{:9}  {f1:<6}   {:.4}       {}",
            point.iteration + 1,
            if best_so_far.is_nan() {
                0.0
            } else {
                best_so_far
            },
            point.evaluation.is_feasible
        );
    }

    println!(
        "\nfeasible fraction: {:.2}",
        best.history.feasible_fraction()
    );
    println!("\n--- generated Spatial (head) ---");
    for line in best.code.lines().take(20) {
        println!("{line}");
    }

    // End-to-end deployment replay: classify fresh traffic with the
    // COMPILED integer pipeline (the fixed-point twin of the generated
    // Spatial code); its timing is the target's estimate.
    let pipeline = best
        .compiled
        .as_ref()
        .expect("trained winner lowers to the integer runtime");
    // The report carries the normalizer the winner was trained under;
    // fresh traffic goes through the same preprocessing.
    let fresh = NslKddGenerator::new(101)
        .generate(2_000)
        .normalized(&best.normalizer)?;
    let f1 = f1_binary(fresh.labels(), &classify_rows(pipeline, fresh.features()))?;
    let timing = &best.estimate.performance;
    println!(
        "\ncompiled integer replay: {} pkts | F1 = {f1:.3} | {:.2} GPkt/s | verdict in {:.0} ns",
        fresh.len(),
        timing.throughput_gpps,
        timing.latency_ns
    );
    Ok(())
}

//! Botnet detection with per-packet partial histograms (§5.1.1/§5.1.2).
//!
//! The FlowLens baseline waits up to 3,600 s for full flow histograms;
//! Homunculus searches a model that classifies *partial* histograms after
//! every packet, cutting reaction time to nanoseconds. This example
//! trains on full flowmarkers, evaluates on partial ones, and prints the
//! reaction-time curve: F1 after `seen` packets, against the time to that
//! verdict, `(seen - 1)` mean inter-packet gaps plus the pipeline latency
//! the Taurus estimate gives. It ends by classifying partial histograms
//! with the compiled integer pipeline, against the float model.
//!
//! Run with: `cargo run --release --example botnet_detection`

use homunculus::core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus::core::pipeline::CompilerOptions;
use homunculus::core::session::Compiler;
use homunculus::datasets::histogram::FlowmarkerConfig;
use homunculus::datasets::p2p::{
    flowmarker_dataset, partial_histogram_dataset, P2pTrafficGenerator,
};
use homunculus::ml::metrics::f1_binary;
use homunculus::runtime::classify_rows;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 30-bin reduced flowmarkers (23 PL + 7 IPT), as in the paper.
    let config = FlowmarkerConfig::paper_reduced();
    let generator = P2pTrafficGenerator::new(5);
    let train_flows = generator.generate_flows(900);
    let test_flows = P2pTrafficGenerator::new(99).generate_flows(400);

    // Train on FULL flow-level histograms...
    let train = flowmarker_dataset(&train_flows, config);
    let model = ModelSpec::builder("botnet_detection")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(train)
        .build()?;

    let mut platform = Platform::taurus();
    platform
        .constraints_mut()
        .throughput_gpps(1.0)
        .latency_ns(500.0)
        .grid(16, 16);
    platform.schedule(model)?;

    let artifact = Compiler::new(CompilerOptions::fast().bo_budget(10).seed(5))
        .open(&platform)?
        .search()?
        .train()?
        .check()?
        .codegen()?;
    let best = artifact.best();
    println!(
        "searched model: {} params, F1(full histograms) = {:.3}, {}",
        best.ir.param_count(),
        best.objective,
        best.estimate.resources
    );

    // ...evaluate on PARTIAL per-packet histograms.
    let ir = match &best.ir {
        homunculus::backends::model::ModelIr::Dnn(d) => d.clone(),
        other => panic!("expected a dnn, got {}", other.family()),
    };
    let net = rebuild_mlp(&ir);
    // The report carries the normalizer from the compiler's final
    // training pass; partial histograms go through the same preprocessing.
    let norm = best.normalizer.clone();

    let timing = &best.estimate.performance;
    let mean_gap_ns = mean_inter_packet_gap_ns(&test_flows);

    println!("\npackets-seen  F1(partial)  reaction-time");
    for seen in [1usize, 2, 5, 10, 20, 40] {
        let partial = partial_histogram_dataset(&test_flows, config, seen).normalized(&norm)?;
        let f1 = f1_binary(partial.labels(), &predict(&net, partial.features()))?;
        let reaction_ns = (seen - 1) as f64 * mean_gap_ns + timing.latency_ns;
        println!("{seen:11}  {f1:.4}      {}", humanize_ns(reaction_ns));
    }

    // The per-flow (full histogram) alternative waits for the whole flow.
    let full_test = flowmarker_dataset(&test_flows, config).normalized(&norm)?;
    let full_f1 = f1_binary(full_test.labels(), &predict(&net, full_test.features()))?;
    let mean_duration_s: f64 =
        test_flows.iter().map(|f| f.duration_seconds()).sum::<f64>() / test_flows.len() as f64;
    println!(
        "\nfull-flow F1 = {full_f1:.4}, but reaction time = {:.0} s (mean flow duration; paper waits 3,600 s)",
        mean_duration_s
    );
    println!(
        "flowmarker memory: {} bins vs FlowLens' 151 ({}x reduction)",
        config.total_bins(),
        151 / config.total_bins()
    );

    // Deployment replay: per-packet partial histograms classified by
    // the COMPILED integer pipeline (the fixed-point arithmetic the
    // switch actually executes), against the float model.
    let pipeline = best
        .compiled
        .as_ref()
        .expect("trained winner lowers to the integer runtime");
    let partial = partial_histogram_dataset(&test_flows, config, 4).normalized(&norm)?;
    let compiled_f1 = f1_binary(
        partial.labels(),
        &classify_rows(pipeline, partial.features()),
    )?;
    let float_f1 = f1_binary(partial.labels(), &predict(&net, partial.features()))?;
    println!(
        "\ncompiled integer replay @4 pkts seen: F1 = {compiled_f1:.4} (float oracle {float_f1:.4}), {:.2} GPkt/s",
        timing.throughput_gpps
    );
    Ok(())
}

/// The float model's verdict on every row.
fn predict(net: &homunculus::ml::mlp::Mlp, x: &homunculus::ml::tensor::Matrix) -> Vec<usize> {
    x.iter_rows()
        .map(|row| net.predict_row(row).expect("dimensions match"))
        .collect()
}

/// Rebuilds an executable MLP from the compiled IR.
fn rebuild_mlp(ir: &homunculus::backends::model::DnnIr) -> homunculus::ml::mlp::Mlp {
    let mut net = homunculus::ml::mlp::Mlp::new(&ir.arch, 0).expect("valid arch");
    // Transplant the trained weights.
    let params = ir.params.as_ref().expect("trained ir");
    let layers: Vec<homunculus::ml::mlp::Dense> = params
        .iter()
        .map(|p| homunculus::ml::mlp::Dense {
            weights: p.weights.clone(),
            bias: p.bias.clone(),
        })
        .collect();
    net.set_layers(layers).expect("same shapes");
    net
}

fn mean_inter_packet_gap_ns(flows: &[homunculus::datasets::p2p::FlowTrace]) -> f64 {
    let mut total = 0.0f64;
    let mut count = 0.0f64;
    for f in flows {
        for w in f.packets.windows(2) {
            total += (w[1].timestamp_ns - w[0].timestamp_ns) as f64;
            count += 1.0;
        }
    }
    total / count.max(1.0)
}

fn humanize_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1} ms", ns / 1e6)
    } else {
        format!("{:.1} s", ns / 1e9)
    }
}

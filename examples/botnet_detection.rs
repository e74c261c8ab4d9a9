//! Botnet detection with per-packet partial histograms (§5.1.1/§5.1.2).
//!
//! The FlowLens baseline waits up to 3,600 s for full flow histograms;
//! Homunculus searches a model that classifies *partial* histograms after
//! every packet, cutting reaction time to nanoseconds. This example
//! trains on full flowmarkers, evaluates on partial ones, and prints the
//! reaction-time curve.
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
use homunculus::sim::grid::GridSimulator;
use homunculus::sim::pktgen::{reaction_time_curve, LabeledSample, StreamHarness, TimingModel};

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

    let sim = GridSimulator::new(16, 16, 1.0);
    let timing = sim.simulate(&best.ir, 1_000)?;
    let mean_gap_ns = mean_inter_packet_gap_ns(&test_flows);

    println!("\npackets-seen  F1(partial)  reaction-time");
    let horizons = [1usize, 2, 5, 10, 20, 40];
    let points = reaction_time_curve(&horizons, mean_gap_ns, timing.latency_ns, |seen| {
        let partial = partial_histogram_dataset(&test_flows, config, seen);
        let normalized = partial.normalized(&norm).expect("same schema");
        let pred: Vec<usize> = (0..normalized.len())
            .map(|i| {
                net.predict_row(normalized.features().row(i))
                    .expect("dimensions match")
            })
            .collect();
        (normalized.labels().to_vec(), pred)
    })?;
    for p in &points {
        println!(
            "{:11}  {:.4}      {}",
            p.packets_seen,
            p.f1,
            humanize_ns(p.reaction_time_ns)
        );
    }

    // The per-flow (full histogram) alternative waits for the whole flow.
    let full_test = flowmarker_dataset(&test_flows, config).normalized(&norm)?;
    let pred: Vec<usize> = (0..full_test.len())
        .map(|i| net.predict_row(full_test.features().row(i)).unwrap())
        .collect();
    let full_f1 = f1_binary(full_test.labels(), &pred)?;
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

    // Deployment replay: per-packet partial histograms streamed through
    // the COMPILED integer pipeline (the fixed-point arithmetic the
    // switch actually executes), against the float oracle.
    let pipeline = best
        .compiled
        .as_ref()
        .expect("trained winner lowers to the integer runtime");
    let partial = partial_histogram_dataset(&test_flows, config, 4).normalized(&norm)?;
    let stream: Vec<LabeledSample> = (0..partial.len())
        .map(|i| LabeledSample {
            features: partial.features().row(i).to_vec(),
            label: partial.labels()[i],
        })
        .collect();
    let harness = StreamHarness::new(TimingModel::from_grid(&timing));
    let replay = harness.run_compiled(&stream, pipeline)?;
    let float_replay = harness.run(&stream, |f| net.predict_row(f).expect("dims match"))?;
    println!(
        "\ncompiled integer replay @4 pkts seen: F1 = {:.4} (float oracle {:.4}), {:.2} GPkt/s",
        replay.f1, float_replay.f1, replay.achieved_gpps
    );
    Ok(())
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

//! §5.1.1/§5.1.2: Homunculus and reaction time.
//!
//! FlowLens aggregates flowmarkers "for up to 3,600 seconds before making
//! a prediction"; the Homunculus per-packet model predicts on *partial*
//! histograms after every packet, shrinking the reaction time "from 3,600
//! seconds to a few hundred nanoseconds" while the 30-bin marker also
//! cuts per-flow memory 5x.

use homunculus_bench::{
    banner, bd_flows, compile_on_taurus, experiment_options, mlp_from_ir, paper, Application,
};
use homunculus_dataplane::histogram::FlowmarkerConfig;
use homunculus_datasets::p2p::{flowmarker_dataset, partial_histogram_dataset};
use homunculus_sim::grid::GridSimulator;
use homunculus_sim::pktgen::reaction_time_curve;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Reaction time: per-packet partial histograms vs full-flow markers");
    let config = FlowmarkerConfig::paper_reduced();
    let (train_flows, test_flows) = bd_flows(7);

    // Train on full flow-level histograms (the paper's protocol).
    let artifact = compile_on_taurus(
        "bd_reaction",
        Application::Bd.metric(),
        flowmarker_dataset(&train_flows, config),
        &experiment_options(3),
    )?;
    let best = artifact.best();
    let net = mlp_from_ir(&best.ir);
    let norm = flowmarker_dataset(&train_flows, config)
        .stratified_split(0.3, 3)?
        .train
        .fit_normalizer();

    // Timing from the grid simulator.
    let sim = GridSimulator::new(16, 16, 1.0);
    let timing = sim.simulate(&best.ir, 10_000)?;
    println!(
        "pipeline: {} params, latency {:.0} ns, {} GPkt/s",
        best.ir.param_count(),
        timing.latency_ns,
        timing.throughput_gpps
    );

    let mean_gap_ns = {
        let mut total = 0.0f64;
        let mut count = 0.0f64;
        for f in &test_flows {
            for w in f.packets.windows(2) {
                total += (w[1].timestamp_ns - w[0].timestamp_ns) as f64;
                count += 1.0;
            }
        }
        total / count.max(1.0)
    };

    println!("\npackets-seen  F1(partial)  reaction-time");
    let horizons = [1usize, 2, 4, 8, 16, 32, 64];
    let points = reaction_time_curve(&horizons, mean_gap_ns, timing.latency_ns, |seen| {
        let partial = partial_histogram_dataset(&test_flows, config, seen);
        let normalized = partial.normalized(&norm).expect("same schema");
        let pred: Vec<usize> = (0..normalized.len())
            .map(|i| net.predict_row(normalized.features().row(i)).unwrap())
            .collect();
        (normalized.labels().to_vec(), pred)
    })?;
    for p in &points {
        println!(
            "{:>11}  {:>10.4}  {}",
            p.packets_seen,
            p.f1,
            humanize_ns(p.reaction_time_ns)
        );
    }

    banner("shape checks");
    let single_packet_rt_ns = timing.latency_ns;
    println!(
        "per-packet verdict in a few hundred ns: {:.0} ns ({})",
        single_packet_rt_ns,
        single_packet_rt_ns < 1_000.0
    );
    println!(
        "vs FlowLens flow-level wait: {:.0} s -> speedup ~{:.1e}x",
        paper::FLOWLENS_WAIT_SECONDS,
        paper::FLOWLENS_WAIT_SECONDS * 1e9 / single_packet_rt_ns
    );
    println!(
        "flowmarker memory: {} bins vs 151 -> {}x reduction (paper: {}x)",
        config.total_bins(),
        151 / config.total_bins(),
        paper::FLOWMARKER_REDUCTION
    );
    println!(
        "F1 grows with packets seen: first {:.3} -> last {:.3} ({})",
        points.first().map(|p| p.f1).unwrap_or(0.0),
        points.last().map(|p| p.f1).unwrap_or(0.0),
        points.last().map(|p| p.f1).unwrap_or(0.0) >= points.first().map(|p| p.f1).unwrap_or(0.0)
    );
    Ok(())
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

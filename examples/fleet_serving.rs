//! Fleet serving: one compiled pipeline replicated across a k=4
//! fat-tree of 20 switches — tenants of one deployment — with flows
//! routed hop by hop.
//!
//! The paper generates one data-plane program per switch; a datacenter
//! runs many switches. This example builds the topology, places models
//! by switch role — the compiled anomaly detector gates at the edge, an
//! escalation model that *consumes the edge verdict as an extra
//! feature* runs at aggregation and core — then drives multi-hop flows
//! through the fabric and aggregates per-role serving stats. The
//! fleet-wide verdict checksum is asserted bit-identical whether 1, 2
//! or 4 workers are requested per switch.
//!
//! Run with: `cargo run --release --example fleet_serving`

use homunculus::backends::model::{DnnIr, ModelIr};
use homunculus::core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus::core::pipeline::{CompiledArtifact, CompilerOptions};
use homunculus::core::session::Compiler;
use homunculus::datasets::nslkdd::NslKddGenerator;
use homunculus::fleet::{Fleet, FlowSpec, HopPolicy, RoutingPolicy, SwitchRole, Topology};
use homunculus::ml::mlp::{Activation, Mlp, MlpArchitecture};
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;

const FLOWS: usize = 24;
const ROWS_PER_FLOW: usize = 64;

fn compile_detector() -> Result<CompiledArtifact, Box<dyn std::error::Error>> {
    let spec = ModelSpec::builder("ad")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(5).generate(600))
        .build()?;
    let mut platform = Platform::taurus();
    platform.schedule(spec)?;
    Ok(Compiler::new(CompilerOptions::fast().bo_budget(3).seed(3))
        .open(&platform)?
        .compile()?)
}

/// The escalation model takes the 7 flow features *plus* the upstream
/// verdict tag — width 8, the chained-serving convention.
fn escalation_model() -> ModelIr {
    let arch = MlpArchitecture::new(8, vec![8], 2).with_activation(Activation::Sigmoid);
    ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, 11).expect("valid arch")))
}

fn build_fleet(
    artifact: &CompiledArtifact,
    workers: usize,
) -> Result<Fleet, Box<dyn std::error::Error>> {
    Ok(Fleet::builder(Topology::fattree(4)?)
        .artifact(artifact)
        .model(
            "escalate",
            &escalation_model(),
            FixedPoint::taurus_default(),
            None,
        )
        .place(SwitchRole::Edge, "ad")
        .place(SwitchRole::Aggregation, "escalate")
        .place(SwitchRole::Core, "escalate")
        .workers(workers)
        .build()?)
}

fn make_flows(topology: &Topology) -> Vec<FlowSpec> {
    let dataset = NslKddGenerator::new(17).generate(256);
    let features = dataset.features();
    let edges = topology.edge_switches();
    (0..FLOWS)
        .map(|f| {
            let src = edges[f % edges.len()];
            // Offset by a quarter of the edges: a mix of same-pod
            // (3-hop) and cross-pod (5-hop) paths.
            let dst = edges[(f + 1 + f / 4) % edges.len()];
            let packets = Matrix::from_fn(ROWS_PER_FLOW, features.cols(), |r, c| {
                features[((r + f * 13) % features.rows(), c)]
            });
            FlowSpec::new(f as u64, src, dst, packets)
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("compiling the edge anomaly detector (small budget)...");
    let artifact = compile_detector()?;
    let out = std::env::temp_dir().join("homunculus_fleet.artifact.json");
    artifact.save_json(&out)?;
    println!("saved artifact to {}\n", out.display());

    // Topology: k=4 fat-tree — 4 pods x (2 edge + 2 aggregation) + 4
    // core switches.
    let topology = Topology::fattree(4)?;
    let [edge, agg, core] = topology.role_counts();
    println!(
        "fat-tree k=4: {} switches ({edge} edge, {agg} aggregation, {core} core)\n",
        topology.len()
    );

    println!("placement:");
    println!("  role          model     policy");
    println!("  edge          ad        gate class 1 (drop anomalies at ingress)");
    println!("  aggregation   escalate  forward + re-tag (verdict feeds next hop)");
    println!("  core          escalate  forward + re-tag");
    println!();

    // Anomalies are gated at the ingress edge; surviving rows carry the
    // edge verdict as an extra feature into the escalation model.
    let policy = RoutingPolicy::uniform(HopPolicy::forward("escalate"))
        .with_role(SwitchRole::Edge, HopPolicy::gate("ad", 1));
    let flows = make_flows(&topology);

    let mut checksums = Vec::new();
    let mut headline = None;
    for workers in [1usize, 2, 4] {
        let fleet = build_fleet(&artifact, workers)?;
        let report = fleet.run(&flows, &policy)?;
        checksums.push(report.checksum());
        if workers == 2 {
            let stats = fleet.stats(&report);
            headline = Some((stats, report));
        }
        fleet.shutdown();
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "fleet verdicts must be bit-identical across worker shapes: {checksums:?}"
    );
    println!(
        "verdict checksum {:#018x} — bit-identical with 1/2/4 workers requested per switch\n",
        checksums[0]
    );

    let (stats, report) = headline.expect("2-worker run recorded");
    println!("per-role serving stats:");
    for role in &stats.roles {
        println!(
            "  {:<12} {:>2} switches  {:>6} packets  forwarded {:>6}  gated {:>4}",
            role.role.name(),
            role.switches,
            role.packets,
            role.forwarded,
            role.gated
        );
    }
    let delivered: usize = report.flows.iter().map(|f| f.delivered).sum();
    let gated: usize = report.flows.iter().map(|f| f.gated).sum();
    println!(
        "\n{} flows, {} rows each: {delivered} delivered, {gated} gated at the edge",
        FLOWS, ROWS_PER_FLOW
    );
    println!(
        "edge load fairness (Jain): {:.3}  classified {} rows in {:.2} ms",
        stats.edge_fairness,
        report.classified_rows(),
        report.elapsed_ns as f64 / 1e6
    );
    Ok(())
}

//! Fleet-wide bit determinism: a golden verdict checksum pinned across
//! worker shapes and flow submission order, the chained gating semantics
//! checked against the sequential `replay_path` reference on a 4-switch
//! and a 320-switch fabric, and multi-model placement via
//! `CompiledArtifact::deploy_models`.

use homunculus::backends::model::{DnnIr, ModelIr};
use homunculus::core::alchemy::{Algorithm, Metric, ModelSpec, Platform};
use homunculus::core::pipeline::CompilerOptions;
use homunculus::core::session::Compiler;
use homunculus::datasets::nslkdd::NslKddGenerator;
use homunculus::fleet::{Fleet, FlowSpec, HopPolicy, RoutingPolicy, Topology};
use homunculus::ml::mlp::{Activation, Mlp, MlpArchitecture};
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::runtime::{classify_rows, CompiledPipeline, Deployment, TenantBatch};
use homunculus::sim::pktgen::{replay_path, LabeledSample, PathReport};

/// Fleet-wide verdict checksum of the reference workload below. The
/// whole point of the deterministic fleet: this value must never move
/// unless models, flows, topology, or the checksum definition change.
const GOLDEN_CHECKSUM: u64 = 0x1db2_d2cb_e77d_7895;

fn model(inputs: usize, seed: u64) -> ModelIr {
    let arch = MlpArchitecture::new(inputs, vec![12, 6], 2).with_activation(Activation::Sigmoid);
    ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, seed).expect("valid arch")))
}

/// Synthetic 7-feature packets, fully determined by (flow, row, col).
fn packets(flow: usize, rows: usize) -> Matrix {
    Matrix::from_fn(rows, 7, |r, c| {
        ((flow * 13 + r * 31 + c * 7) % 17) as f32 / 17.0 - 0.4
    })
}

fn reference_flows(topology: &Topology, count: usize, rows: usize) -> Vec<FlowSpec> {
    let edges = topology.edge_switches();
    (0..count)
        .map(|f| {
            let src = edges[f % edges.len()];
            let dst = edges[(f + 1 + f / edges.len()) % edges.len()];
            FlowSpec::new(f as u64, src, dst, packets(f, rows))
        })
        .collect()
}

fn reference_fleet(workers: usize) -> Fleet {
    Fleet::builder(Topology::leaf_spine(4, 2).expect("valid fabric"))
        .model("gate8", &model(8, 21), FixedPoint::taurus_default(), None)
        .place_everywhere("gate8")
        .workers(workers)
        .build()
        .expect("fleet builds")
}

fn reference_policy() -> RoutingPolicy {
    RoutingPolicy::uniform(HopPolicy::gate("gate8", 1))
}

#[test]
fn golden_checksum_across_worker_shapes() {
    let policy = reference_policy();
    let mut checksums = Vec::new();
    for workers in [1usize, 2, 4] {
        let fleet = reference_fleet(workers);
        let flows = reference_flows(fleet.topology(), 12, 32);
        let report = fleet.run(&flows, &policy).expect("fleet runs");
        checksums.push(report.checksum());
        fleet.shutdown();
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "worker shape changed fleet verdicts: {checksums:?}"
    );
    assert_eq!(
        checksums[0], GOLDEN_CHECKSUM,
        "fleet verdict stream drifted from the golden pin \
         (got {:#018x})",
        checksums[0]
    );
}

#[test]
fn submission_order_does_not_change_the_checksum() {
    let policy = reference_policy();
    let fleet = reference_fleet(2);
    let mut flows = reference_flows(fleet.topology(), 12, 32);
    let forward = fleet.run(&flows, &policy).expect("fleet runs");
    flows.reverse();
    let reversed = fleet.run(&flows, &policy).expect("fleet runs");
    fleet.shutdown();
    assert_eq!(forward.checksum(), reversed.checksum());
    assert_eq!(forward.checksum(), GOLDEN_CHECKSUM);
}

/// `flow` replayed one packet at a time through `hops` copies of
/// `pipeline` under `reference_policy`'s gate: the sequential reference.
fn replay_reference(pipeline: &CompiledPipeline, flow: &FlowSpec, hops: usize) -> PathReport {
    let stream: Vec<LabeledSample> = (0..flow.packets.rows())
        .map(|r| LabeledSample {
            features: flow.packets.row(r).to_vec(),
            label: 0,
        })
        .collect();
    replay_path(&stream, hops, Some(1), true, |_, features, tag| {
        let mut row = features.to_vec();
        row.push(tag);
        let x = Matrix::from_rows(&[row]).expect("one row");
        classify_rows(pipeline, &x)[0]
    })
    .expect("reference replays")
}

/// A gated + re-tagged flow over a linear 3-hop path must agree packet
/// for packet with `sim::pktgen::replay_path`, the hand-computable
/// sequential reference.
#[test]
fn gated_flow_matches_replay_path_reference() {
    let ir = model(8, 21);
    let format = FixedPoint::taurus_default();
    let pipeline = CompiledPipeline::from_ir(&ir, format).expect("ir lowers");

    let fleet = Fleet::builder(Topology::leaf_spine(2, 1).expect("valid fabric"))
        .model("gate8", &ir, format, None)
        .place_everywhere("gate8")
        .workers(2)
        .build()
        .expect("fleet builds");
    let edges = fleet.topology().edge_switches();
    let rows = 48;
    let flow = FlowSpec::new(7, edges[0], edges[1], packets(7, rows));
    let report = fleet
        .run(std::slice::from_ref(&flow), &reference_policy())
        .expect("fleet runs");
    fleet.shutdown();

    let reference = replay_reference(&pipeline, &flow, 3);

    let outcome = &report.flows[0];
    assert_eq!(outcome.path.len(), 3, "leaf-spine paths have 3 hops");
    assert_eq!(outcome.delivered, reference.delivered);
    assert_eq!(outcome.gated, reference.gated_per_hop.iter().sum::<usize>());
    // Per-packet: the verdict of the last hop each packet reached.
    for row in 0..rows {
        let fleet_final = (0..3).rev().find_map(|hop| outcome.hop_verdicts[hop][row]);
        assert_eq!(
            fleet_final, reference.final_verdicts[row],
            "packet {row} diverged from the sequential reference"
        );
    }
    // Per-hop gating counts, mapped through the path's switches.
    for (hop, &switch) in outcome.path.iter().enumerate() {
        assert_eq!(
            report.gated_rows[switch.index()] as usize,
            reference.gated_per_hop[hop],
            "hop {hop} gating count diverged"
        );
    }
}

/// A 320-switch fat-tree is one deployment like any other fleet: the
/// worker request does not move a verdict, a cross-pod flow agrees with
/// the sequential reference, and the stats group every switch.
#[test]
fn fattree16_runs_on_one_executor() {
    // Seed 8 splits these packets between both classes at the edge, so
    // the gate has something to drop.
    let ir = model(8, 8);
    let format = FixedPoint::taurus_default();
    let policy = reference_policy();
    let topology = Topology::fattree(16).expect("valid fabric");
    // One flow per edge switch, each to the edge half the fabric away:
    // another pod, so five hops.
    let edges = topology.edge_switches();
    let flows: Vec<FlowSpec> = (0..edges.len())
        .map(|e| {
            let dst = edges[(e + edges.len() / 2) % edges.len()];
            FlowSpec::new(e as u64, edges[e], dst, packets(e, 16))
        })
        .collect();
    let mut runs = Vec::new();
    for workers in [1usize, 2] {
        let fleet = Fleet::builder(topology.clone())
            .model("gate8", &ir, format, None)
            .place_everywhere("gate8")
            .workers(workers)
            .build()
            .expect("fleet builds");
        let report = fleet.run(&flows, &policy).expect("fleet runs");
        let stats = fleet.stats(&report);
        fleet.shutdown();
        runs.push((report, stats));
    }
    assert_eq!(runs[0].0.checksum(), runs[1].0.checksum());

    let (report, stats) = &runs[0];
    assert_eq!(stats.switches.len(), 320);
    let role_packets: usize = stats.roles.iter().map(|r| r.packets).sum();
    assert_eq!(role_packets as u64, report.classified_rows());
    assert_eq!(stats.total_packets, role_packets);

    let outcome = &report.flows[3];
    assert_eq!(outcome.path.len(), 5, "cross-pod paths have 5 hops");
    let reference = replay_reference(
        &CompiledPipeline::from_ir(&ir, format).expect("ir lowers"),
        &flows[3],
        5,
    );
    assert_eq!(outcome.delivered, reference.delivered);
    assert_eq!(outcome.gated, reference.gated_per_hop.iter().sum::<usize>());
    assert!(outcome.gated > 0 && outcome.delivered > 0);
    for row in 0..flows[3].packets.rows() {
        let fleet_final = (0..5).rev().find_map(|hop| outcome.hop_verdicts[hop][row]);
        assert_eq!(fleet_final, reference.final_verdicts[row], "packet {row}");
    }
}

/// `deploy_models` places a subset of a compiled artifact's models on
/// one deployment, and every tenant's verdicts agree with the isolated
/// compiled pipeline.
#[test]
fn deploy_models_places_artifact_subset() {
    let a = ModelSpec::builder("first")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::Dnn)
        .data(NslKddGenerator::new(2).generate(300))
        .build()
        .unwrap();
    let b = ModelSpec::builder("second")
        .optimization_metric(Metric::F1)
        .algorithm(Algorithm::DecisionTree)
        .data(NslKddGenerator::new(3).generate(300))
        .build()
        .unwrap();
    let mut platform = Platform::taurus();
    platform.schedule(a | b).unwrap();
    let artifact = Compiler::new(CompilerOptions::fast().bo_budget(3).seed(1))
        .open(&platform)
        .unwrap()
        .compile()
        .unwrap();

    let deployment = Deployment::builder().workers(2).build();
    let tenants = artifact
        .deploy_models(&deployment, &["second", "first"])
        .expect("both models place");
    assert_eq!(tenants.len(), 2);

    // Unknown names are rejected with the available set in the error.
    let err = artifact
        .deploy_models(&deployment, &["missing"])
        .expect_err("unknown model");
    assert!(err.to_string().contains("missing"), "{err}");

    let x = NslKddGenerator::new(9).generate(64);
    for (&tenant, name) in tenants.iter().zip(["second", "first"]) {
        let report = artifact.report(name).expect("report exists");
        let normalized = x.normalized(&report.normalizer).expect("normalizes");
        let expected = classify_rows(
            report.compiled.as_ref().expect("lowered"),
            normalized.features(),
        );
        let ticket = deployment
            .submit(TenantBatch::new(tenant, x.features().clone()))
            .expect("submits");
        assert_eq!(ticket.wait().as_slice(), expected.as_slice(), "{name}");
    }
    deployment.shutdown();
}

//! `fleet_fabric`: a k=4 fat-tree of 20 one-worker switch deployments, the
//! anomaly detector gating class 1 at the edge and an 8-wide escalation DNN
//! re-tagging at aggregation and core; 8 flows per edge switch of 512 rows,
//! `Fleet::run` back to back.
//!
//! Why: hop routing, chained batches, per-switch deployments and twenty
//! thread pools dominate here — the one workload where a shared fleet
//! executor can show, and one a pure kernel win should barely move. Work
//! scales with the fabric: flows are per edge switch, not per fleet.

use super::{finish, ns_per_row, rep_is_traced, Plan, RunConfig, SetUps, State};
use crate::models::{ad_data, agreement, dnn_architecture, train_dnn, window, AdData, SplitMix};
use crate::report::Outcome;
use crate::stats::{median, sorted, tail};
use crate::trace::Tracer;
use crate::{env, Res};
use homunculus_backends::model::{DnnIr, ModelIr};
use homunculus_fleet::{
    Fleet, FleetReport, FlowOutcome, FlowSpec, HopPolicy, RoutingPolicy, SwitchId, SwitchRole,
    Topology,
};
use homunculus_ml::metrics::f1_binary;
use homunculus_ml::mlp::{Mlp, TrainConfig};
use homunculus_ml::preprocess::Normalizer;
use homunculus_ml::quantize::FixedPoint;
use homunculus_ml::tensor::Matrix;
use homunculus_runtime::{classify_rows, CompiledPipeline, Scratch};
use homunculus_sim::pktgen::{replay_path, LabeledSample};
use std::time::{Duration, Instant};

const FLOWS_PER_EDGE: usize = 8;
const GATE_CLASS: usize = 1;

/// The two placed models and what the oracle needs of them.
struct Models {
    ad: ModelIr,
    escalate: ModelIr,
    /// The 7-feature normalizer, and the same with a pass-through column
    /// for the verdict tag the escalation model takes as eighth feature.
    normalizer: Normalizer,
    tagged_normalizer: Normalizer,
    ad_scalar: CompiledPipeline,
    escalate_scalar: CompiledPipeline,
}

struct Setup {
    data: AdData,
    models: Models,
    fleet: Fleet,
    flows: Vec<FlowSpec>,
    policy: RoutingPolicy,
    /// Checksum of the first run, verified flow by flow against the replay.
    checksum: u64,
    classified_rows: u64,
    gated_rows: u64,
    /// Of the classified rows, those the edge detector served.
    ad_rows: u64,
    hops_per_flow: f64,
    served_f1: f64,
    agreement_min: f64,
    install_s: f64,
    build_ms: f64,
    threads: f64,
    path_ns: f64,
    attempted: u64,
    failed: u64,
}

fn policy() -> RoutingPolicy {
    RoutingPolicy::uniform(HopPolicy::forward("escalate"))
        .with_role(SwitchRole::Edge, HopPolicy::gate("ad", GATE_CLASS))
}

fn build_fleet(topology: Topology, models: &Models, workers: usize) -> Res<Fleet> {
    let format = FixedPoint::taurus_default();
    Ok(Fleet::builder(topology)
        .model("ad", &models.ad, format, Some(models.normalizer.clone()))
        .model(
            "escalate",
            &models.escalate,
            format,
            Some(models.tagged_normalizer.clone()),
        )
        .place(SwitchRole::Edge, "ad")
        .place(SwitchRole::Aggregation, "escalate")
        .place(SwitchRole::Core, "escalate")
        .workers(workers)
        .build()?)
}

/// `FLOWS_PER_EDGE` flows out of every edge switch, destinations and
/// traffic phases drawn from the seed.
///
/// Returns the flows and, per flow, the traffic row its first packet is.
fn make_flows(
    topology: &Topology,
    raw: &Matrix,
    rows: usize,
    seed: u64,
) -> (Vec<FlowSpec>, Vec<usize>) {
    let edges = topology.edge_switches();
    let mut draw = SplitMix(seed);
    let (mut flows, mut phases) = (Vec::new(), Vec::new());
    for (e, &src) in edges.iter().enumerate() {
        for _ in 0..FLOWS_PER_EDGE {
            let dst = edges[(e + 1 + draw.below(edges.len() - 1)) % edges.len()];
            let phase = draw.below(raw.rows());
            flows.push(FlowSpec::new(
                flows.len() as u64,
                src,
                dst,
                window(raw, phase, rows),
            ));
            phases.push(phase);
        }
    }
    (flows, phases)
}

/// `x` with one more column: the upstream verdict tag of each row.
fn with_tag(x: &Matrix, tag: impl Fn(usize) -> f32) -> Matrix {
    Matrix::from_fn(x.rows(), x.cols() + 1, |r, c| {
        if c < x.cols() {
            x[(r, c)]
        } else {
            tag(r)
        }
    })
}

/// Trains the edge detector and the escalation model (features plus the
/// detector's verdict as tag) and lowers both on the scalar tier.
fn train_models(data: &AdData, epochs: usize) -> Res<(Models, Mlp, Mlp)> {
    let format = FixedPoint::taurus_default();
    let ad_net = train_dnn(&data.train_x, &data.train_y, epochs)?;
    let tags = ad_net.predict(&data.train_x)?;
    let tagged = with_tag(&data.train_x, |r| tags[r] as f32);
    let mut escalate_net = Mlp::new(&dnn_architecture(tagged.cols()), 11)?;
    escalate_net.train(
        &tagged,
        &data.train_y,
        &TrainConfig::default().epochs(epochs),
    )?;
    let (ad, escalate) = (
        ModelIr::Dnn(DnnIr::from_mlp(&ad_net)),
        ModelIr::Dnn(DnnIr::from_mlp(&escalate_net)),
    );
    let mut tagged_normalizer = data.normalizer.clone();
    tagged_normalizer.mean.push(0.0);
    tagged_normalizer.std.push(1.0);
    let models = Models {
        ad_scalar: CompiledPipeline::from_ir_scalar(&ad, format)?,
        escalate_scalar: CompiledPipeline::from_ir_scalar(&escalate, format)?,
        ad,
        escalate,
        normalizer: data.normalizer.clone(),
        tagged_normalizer,
    };
    Ok((models, ad_net, escalate_net))
}

/// Replays one flow through `sim::pktgen::replay_path` on the scalar tier
/// and counts the packets on which the fleet's outcome differs.
///
/// `replay_path` knows one drop class for the whole path, while here only
/// edge hops gate. Escalation verdicts are therefore reported to it shifted
/// by `SHIFT` (never equal to the drop class) and shifted back wherever
/// they are read — as the next hop's tag and as the final verdict.
fn replay_mismatches(
    models: &Models,
    edges: &[SwitchId],
    flow: &FlowSpec,
    outcome: &FlowOutcome,
) -> Res<u64> {
    const SHIFT: usize = 2;
    let (path, hop_verdicts) = (&outcome.path, &outcome.hop_verdicts);
    let is_edge: Vec<bool> = path.iter().map(|s| edges.contains(s)).collect();
    let stream: Vec<LabeledSample> = flow
        .packets
        .iter_rows()
        .map(|row| LabeledSample {
            features: row.to_vec(),
            label: 0,
        })
        .collect();
    let mut scratch = Scratch::new();
    let reference = replay_path(
        &stream,
        path.len(),
        Some(GATE_CLASS),
        true,
        |hop, features, tag| {
            let mut row = features.to_vec();
            if is_edge[hop] {
                models.normalizer.apply(&mut row);
                models.ad_scalar.classify(&row, &mut scratch)
            } else {
                let upstream_escalated = hop > 0 && !is_edge[hop - 1];
                row.push(if upstream_escalated {
                    tag - SHIFT as f32
                } else {
                    tag
                });
                models.tagged_normalizer.apply(&mut row);
                models.escalate_scalar.classify(&row, &mut scratch) + SHIFT
            }
        },
    )?;
    let gated: usize = reference.gated_per_hop.iter().sum();
    if (outcome.delivered, outcome.gated) != (reference.delivered, gated) {
        return Ok(flow.packets.rows() as u64);
    }
    let mut wrong = 0;
    for (packet, want) in reference.final_verdicts.iter().enumerate() {
        let last = (0..path.len())
            .rev()
            .find(|&hop| hop_verdicts[hop][packet].is_some())
            .expect("every packet reaches the first hop");
        let want = want.map(|v| if is_edge[last] { v } else { v - SHIFT });
        if hop_verdicts[last][packet] != want {
            wrong += 1;
        }
    }
    Ok(wrong)
}

fn setup(cfg: &RunConfig, tracer: &mut Tracer, op: u64) -> Res<Setup> {
    let (train_rows, traffic_rows, epochs, rows) = if cfg.smoke {
        (600, 512, 8, 64)
    } else {
        (1_400, 8_192, 30, 512)
    };
    let root = tracer.begin("setup", None, op);
    let data = tracer.time("datasets.generate", root, op, || {
        ad_data(cfg.seed, train_rows, traffic_rows)
    });
    let t_install = Instant::now();
    let (models, ad_net, escalate_net) =
        tracer.time("ml.train", root, op, || train_models(&data, epochs))?;

    let topology = Topology::fattree(4)?;
    let edges = topology.edge_switches();
    let (flows, phases) = make_flows(&topology, &data.traffic_raw, rows, cfg.seed);
    let path_ns = ns_per_row(flows.len(), || {
        for flow in &flows {
            std::hint::black_box(topology.path(flow.src, flow.dst, flow.flow_id).ok());
        }
    });

    let threads_before = env::threads();
    let t_build = Instant::now();
    let fleet = tracer.time("fleet.build", root, op, || {
        build_fleet(topology.clone(), &models, 1)
    })?;
    let build_ms = t_build.elapsed().as_secs_f64() * 1e3;
    let threads = env::threads() - threads_before;

    let policy = policy();
    let first = tracer.time("fleet.first_run", root, op, || fleet.run(&flows, &policy))?;
    let install_s = t_install.elapsed().as_secs_f64();

    // Oracle 1: every flow, packet for packet, against the sequential replay.
    let mut failed = 0;
    tracer.time("fleet.reference", root, op, || {
        for (flow, outcome) in flows.iter().zip(&first.flows) {
            failed += replay_mismatches(&models, &edges, flow, outcome)?;
        }
        Ok::<_, Box<dyn std::error::Error>>(())
    })?;
    // Oracle 2: a two-worker build of the same fleet serves the same bits.
    let twin = build_fleet(topology, &models, 2)?;
    if twin.run(&flows, &policy)?.checksum() != first.checksum() {
        failed += first.classified_rows();
    }
    twin.shutdown();

    // What the fabric serves, scored: the ingress detector's verdicts
    // against the labels, and float-vs-served agreement of both models.
    let ad_float = ad_net.predict(&data.traffic_x)?;
    let ad_served = classify_rows(
        &CompiledPipeline::from_ir(&models.ad, FixedPoint::taurus_default())?,
        &data.traffic_x,
    );
    let tagged_x = with_tag(&data.traffic_x, |r| ad_served[r] as f32);
    let escalate_served = classify_rows(
        &CompiledPipeline::from_ir(&models.escalate, FixedPoint::taurus_default())?,
        &tagged_x,
    );
    let agreement_min = agreement(&ad_float, &ad_served).min(agreement(
        &escalate_net.predict(&tagged_x)?,
        &escalate_served,
    ));
    let ingress: Vec<usize> = first
        .flows
        .iter()
        .flat_map(|f| f.hop_verdicts[0].iter().map(|v| v.unwrap_or(0)))
        .collect();
    let traffic_rows = data.traffic_y.len();
    let labels: Vec<usize> = phases
        .iter()
        .flat_map(|&phase| (0..rows).map(move |r| (phase + r) % traffic_rows))
        .map(|row| data.traffic_y[row])
        .collect();
    let gated: usize = first.flows.iter().map(|f| f.gated).sum();
    let hops: usize = first.flows.iter().map(|f| f.path.len()).sum();
    // Rows the edge detector classified: every hop that is an edge switch.
    let ad_rows: usize = first
        .flows
        .iter()
        .flat_map(|f| f.path.iter().zip(&f.hop_verdicts))
        .filter(|(switch, _)| edges.contains(switch))
        .map(|(_, verdicts)| verdicts.iter().flatten().count())
        .sum();
    tracer.end(root);
    Ok(Setup {
        checksum: first.checksum(),
        classified_rows: first.classified_rows(),
        gated_rows: gated as u64,
        ad_rows: ad_rows as u64,
        hops_per_flow: hops as f64 / flows.len() as f64,
        served_f1: f1_binary(&labels, &ingress)?,
        agreement_min,
        install_s,
        build_ms,
        threads,
        path_ns,
        attempted: first.classified_rows(),
        failed,
        data,
        models,
        fleet,
        flows,
        policy,
    })
}

/// What one back-to-back phase of `Fleet::run` observed.
#[derive(Default)]
struct Phase {
    rows: u64,
    wall_s: f64,
    run_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn run_back_to_back(
    fleet: &Fleet,
    flows: &[FlowSpec],
    policy: &RoutingPolicy,
    want: (u64, u64),
    tracer: &mut Tracer,
    duration: Duration,
    next_op: &mut u64,
) -> Res<Phase> {
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.run_us.is_empty() || start.elapsed() < duration {
        let t0 = Instant::now();
        let report: FleetReport = fleet.run(flows, policy)?;
        let t1 = Instant::now();
        tracer.record("fleet.run", None, *next_op, t0, t1);
        *next_op += 1;
        let rows = report.classified_rows();
        phase.attempted += rows;
        if (report.checksum(), rows) != want {
            phase.failed += rows;
        }
        phase.rows += rows;
        phase.run_us.push((t1 - t0).as_secs_f64() * 1e6);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    Ok(phase)
}

impl State for Setup {
    fn build(cfg: &RunConfig, tracer: &mut Tracer, op: u64) -> Res<Self> {
        setup(cfg, tracer, op)
    }

    fn tally(&self) -> (f64, u64, u64) {
        (self.install_s, self.attempted, self.failed)
    }

    fn retire(self) {
        self.fleet.shutdown();
    }
}

pub fn run(cfg: &RunConfig) -> Res<Outcome> {
    let plan = Plan::of(cfg, 7);
    let mut tracer = Tracer::new(cfg.trace);
    let mut out = Outcome::default();

    let mut setups = SetUps::new(cfg);
    let setup: Setup = setups.build(&mut tracer, &mut out)?;
    let want = (setup.checksum, setup.classified_rows);

    let mut next_op = plan.setups as u64;
    tracer.set_on(false);
    let warm = run_back_to_back(
        &setup.fleet,
        &setup.flows,
        &setup.policy,
        want,
        &mut tracer,
        plan.warmup,
        &mut next_op,
    )?;
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    setups.again::<Setup>(&mut tracer, &mut out)?;

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for rep in 0..plan.reps {
        tracer.set_on(rep_is_traced(cfg, rep));
        let phase = run_back_to_back(
            &setup.fleet,
            &setup.flows,
            &setup.policy,
            want,
            &mut tracer,
            plan.rep,
            &mut next_op,
        )?;
        out.attempted += phase.attempted;
        out.failed += phase.failed;
        if rep_is_traced(cfg, rep) {
            traced.push(phase);
        } else {
            untraced.push(phase);
        }
        setups.again::<Setup>(&mut tracer, &mut out)?;
    }
    setups.report(&mut out);

    let rate = |phases: &[Phase]| -> Vec<f64> {
        phases.iter().map(|p| p.rows as f64 / p.wall_s).collect()
    };
    out.set("pkt_per_s", &rate(&untraced));
    let p50s: Vec<f64> = untraced.iter().map(|p| median(&p.run_us)).collect();
    out.set("latency_p50_us", &p50s);
    out.set("objective_f1", &[setup.served_f1]);
    out.set("fixed_agreement_min", &[setup.agreement_min]);

    if cfg.trace {
        per_layer(
            cfg,
            &setup,
            &mut tracer,
            &untraced,
            &traced,
            &mut next_op,
            &mut out,
        )?;
        out.layer(
            "trace.overhead_share",
            super::trace_overhead_share(&rate(&untraced), &rate(&traced), true),
        );
    }
    let t0 = Instant::now();
    tracer.time("fleet.shutdown", None, next_op, || setup.fleet.shutdown());
    if cfg.trace {
        out.layer("fleet.shutdown_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    finish(cfg, "fleet_fabric", &tracer, &mut out)?;
    Ok(out)
}

/// The traced run's layer metrics, including the same per-edge load on a
/// 4-switch leaf-spine — the question whether rate holds as the fabric
/// grows.
fn per_layer(
    cfg: &RunConfig,
    setup: &Setup,
    tracer: &mut Tracer,
    untraced: &[Phase],
    traced: &[Phase],
    next_op: &mut u64,
    out: &mut Outcome,
) -> Res<()> {
    let format = FixedPoint::taurus_default();
    let all = || untraced.iter().chain(traced);
    let rows: f64 = all().map(|p| p.rows as f64).sum();
    let wall_ns: f64 = all().map(|p| p.wall_s * 1e9).sum();
    let ns_per_fleet_row = wall_ns / rows;
    out.layer("fleet.ns_per_row", ns_per_fleet_row);

    // Direct block-kernel cost of the placed models, weighted by the rows
    // each classified.
    let ad = CompiledPipeline::from_ir(&setup.models.ad, format)?;
    let escalate = CompiledPipeline::from_ir(&setup.models.escalate, format)?;
    let x = &setup.data.traffic_x;
    let tagged = with_tag(x, |_| 0.0);
    let ad_ns = ns_per_row(x.rows(), || {
        std::hint::black_box(ad.classify_batch(x, 1));
    });
    let escalate_ns = ns_per_row(tagged.rows(), || {
        std::hint::black_box(escalate.classify_batch(&tagged, 1));
    });
    let ad_share = setup.ad_rows as f64 / setup.classified_rows as f64;
    let direct_ns = ad_share * ad_ns + (1.0 - ad_share) * escalate_ns;
    out.layer("fleet.overhead_ratio", ns_per_fleet_row / direct_ns);

    let runs = sorted(&tracer.durations_ns("fleet.run"));
    let (p99, used) = tail(&runs, 0.99);
    out.layer("fleet.run_ms_p99", p99 / 1e6);
    if used < 0.99 {
        out.note(format!(
            "fleet.run_ms_p99 read at p{} ({} runs)",
            used * 100.0,
            runs.len()
        ));
    }
    out.layer("fleet.build_ms", setup.build_ms);
    out.layer("fleet.threads", setup.threads);
    out.layer("fleet.topology.path_ns", setup.path_ns);
    out.layer("fleet.classified_rows", setup.classified_rows as f64);
    out.layer("fleet.gated_rows", setup.gated_rows as f64);
    out.layer("fleet.hops_per_flow_mean", setup.hops_per_flow);

    // Same flows-per-edge load on leaf_spine(3, 1): 4 switches.
    let small_topology = Topology::leaf_spine(3, 1)?;
    let rows_per_flow = setup.flows[0].packets.rows();
    let (small_flows, _) = make_flows(
        &small_topology,
        &setup.data.traffic_raw,
        rows_per_flow,
        cfg.seed,
    );
    let small = build_fleet(small_topology, &setup.models, 1)?;
    let probe = small.run(&small_flows, &setup.policy)?;
    let want = (probe.checksum(), probe.classified_rows());
    tracer.set_on(false);
    let phase = run_back_to_back(
        &small,
        &small_flows,
        &setup.policy,
        want,
        tracer,
        Duration::from_secs_f64(if cfg.smoke { 0.2 } else { 1.0 }),
        next_op,
    )?;
    tracer.set_on(true);
    small.shutdown();
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    let small_rate = phase.rows as f64 / phase.wall_s;
    out.layer("fleet.pkt_per_s.sw4", small_rate);
    out.layer("fleet.scale_ratio", (rows / (wall_ns / 1e9)) / small_rate);
    Ok(())
}

//! `deploy_bulk`: closed loop, 8 tickets of 512 rows in flight, round-robin
//! over five tenants — one per lowered family — on one persistent
//! `Deployment`.
//!
//! Why: the packed kernels do most of the work and ingress is amortised
//! over 512 rows, so a kernel change (any family) moves this workload and
//! an ingress change should not. It is also the roadmap's "packets in →
//! verdicts out through a `Deployment`".

use super::{
    classify_ns_per_row, finish, first_verdicts, ns_per_row, rep_is_traced, Plan, RunConfig,
    SetUps, State,
};
use crate::models::{ad_data, agreement, mismatches, traffic_windows, AdData, Family, FloatModel};
use crate::report::Outcome;
use crate::stats::{median, sorted, tail};
use crate::trace::Tracer;
use crate::{env, Res};
use homunculus_backends::model::ModelIr;
use homunculus_ml::metrics::f1_binary;
use homunculus_ml::quantize::FixedPoint;
use homunculus_ml::tensor::Matrix;
use homunculus_runtime::{classify_rows, CompiledPipeline, Deployment, TenantBatch, TenantId};
use homunculus_sim::grid::GridSimulator;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const TICKET_ROWS: usize = 512;
const IN_FLIGHT: usize = 8;
const WINDOWS: usize = 4;

/// Everything set-up builds; the measured loop only reads it.
struct Setup {
    data: AdData,
    floats: Vec<FloatModel>,
    irs: Vec<ModelIr>,
    packed: Vec<CompiledPipeline>,
    scalar: Vec<CompiledPipeline>,
    deployment: Deployment,
    tenants: Vec<TenantId>,
    /// Raw-feature traffic windows, shared by all tenants.
    windows: Vec<Matrix>,
    /// `reference[tenant][window]`: scalar-tier verdicts, computed here.
    reference: Vec<Vec<Vec<usize>>>,
    /// Float-model vs served-verdict agreement on the traffic rows.
    agreement: Vec<f64>,
    /// F1 of the served verdicts against the labels, supervised families.
    served_f1: Vec<f64>,
    /// Train → lower → deployment build → first verdict of every tenant.
    install_s: f64,
    lower_ms: f64,
    build_ms: f64,
    lut_builds: usize,
    attempted: u64,
    failed: u64,
}

fn setup(cfg: &RunConfig, tracer: &mut Tracer, op: u64) -> Res<Setup> {
    let format = FixedPoint::taurus_default();
    let (train_rows, traffic_rows, dnn_epochs) = if cfg.smoke {
        (600, 512, 10)
    } else {
        (1_400, 8_192, 60)
    };
    let root = tracer.begin("setup", None, op);
    let data = tracer.time("datasets.generate", root, op, || {
        ad_data(cfg.seed, train_rows, traffic_rows)
    });

    let t_train = Instant::now();
    let floats = tracer.time("ml.train", root, op, || {
        Family::ALL
            .into_iter()
            .map(|f| FloatModel::train(f, &data.train_x, &data.train_y, dnn_epochs))
            .collect::<Res<Vec<_>>>()
    })?;
    let train_s = t_train.elapsed().as_secs_f64();
    let irs: Vec<ModelIr> = floats.iter().map(|m| m.ir(data.train_x.cols())).collect();

    // The oracle: scalar-tier pipelines walked row by row, here, once.
    let (scalar, truth) = tracer.time("runtime.pipeline.reference", root, op, || {
        let scalar = irs
            .iter()
            .map(|ir| CompiledPipeline::from_ir_scalar(ir, format))
            .collect::<Result<Vec<_>, _>>()?;
        let truth: Vec<Vec<usize>> = scalar
            .iter()
            .map(|p| classify_rows(p, &data.traffic_x))
            .collect();
        Ok::<_, Box<dyn std::error::Error>>((scalar, truth))
    })?;
    let (windows, reference) =
        traffic_windows(&data.traffic_raw, &truth, cfg.seed, WINDOWS, TICKET_ROWS);

    let t_lower = Instant::now();
    let packed = tracer.time("runtime.pipeline.lower", root, op, || {
        irs.iter()
            .map(|ir| CompiledPipeline::from_ir(ir, format))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let lower_s = t_lower.elapsed().as_secs_f64();

    let t_build = Instant::now();
    let (deployment, tenants) = tracer.time("runtime.deploy.build", root, op, || {
        let deployment = Deployment::builder()
            .workers(env::workers())
            .queue_depth(IN_FLIGHT)
            .build();
        let tenants = Family::ALL
            .iter()
            .zip(&irs)
            .map(|(family, ir)| {
                deployment.add_model(family.name(), ir, format, Some(data.normalizer.clone()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, Box<dyn std::error::Error>>((deployment, tenants))
    })?;
    let build_s = t_build.elapsed().as_secs_f64();

    // First verdicts: every traffic row through every tenant.
    let t_first = Instant::now();
    let first = tracer.begin("runtime.deploy.first_verdict", root, op);
    let served = first_verdicts(&deployment, &tenants, &data.traffic_raw)?;
    tracer.end(first);
    let first_s = t_first.elapsed().as_secs_f64();

    let mut failed = 0;
    let mut agreements = Vec::new();
    let mut served_f1 = Vec::new();
    for (i, family) in Family::ALL.into_iter().enumerate() {
        failed += mismatches(&served[i], &truth[i]);
        agreements.push(agreement(&floats[i].predict(&data.traffic_x)?, &served[i]));
        if family.is_supervised() {
            served_f1.push(f1_binary(&data.traffic_y, &served[i])?);
        }
    }
    tracer.end(root);
    Ok(Setup {
        attempted: (served.len() * data.traffic_y.len()) as u64,
        failed,
        floats,
        irs,
        packed,
        scalar,
        tenants,
        windows,
        reference,
        agreement: agreements,
        served_f1,
        install_s: train_s + lower_s + build_s + first_s,
        lower_ms: lower_s * 1e3,
        build_ms: build_s * 1e3,
        lut_builds: deployment.luts().builds(),
        deployment,
        data,
    })
}

/// What one closed-loop phase observed.
#[derive(Default)]
struct Phase {
    rows: u64,
    wall_s: f64,
    latency_us: Vec<f64>,
    rows_by_tenant: [u64; Family::ALL.len()],
    attempted: u64,
    failed: u64,
}

/// Keeps [`IN_FLIGHT`] tickets outstanding for `duration`, redeeming the
/// oldest first and checking every verdict row, then drains.
fn closed_loop(setup: &Setup, tracer: &mut Tracer, duration: Duration, next_op: &mut u64) -> Phase {
    let mut phase = Phase::default();
    let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
    let mut sent = 0usize;
    let start = Instant::now();
    loop {
        while in_flight.len() < IN_FLIGHT && start.elapsed() < duration {
            let tenant = sent % setup.tenants.len();
            let w = (sent / setup.tenants.len()) % WINDOWS;
            sent += 1;
            phase.attempted += TICKET_ROWS as u64;
            let batch = TenantBatch::new(setup.tenants[tenant], setup.windows[w].clone());
            let t0 = Instant::now();
            match setup.deployment.submit(batch) {
                Ok(ticket) => in_flight.push_back((t0, Instant::now(), ticket, tenant, w)),
                Err(_) => phase.failed += TICKET_ROWS as u64,
            }
        }
        let Some((t0, t1, ticket, tenant, w)) = in_flight.pop_front() else {
            break;
        };
        let wait_from = Instant::now();
        let verdicts = ticket.wait();
        let done = Instant::now();
        phase.failed += mismatches(verdicts.as_slice(), &setup.reference[tenant][w]);
        phase.rows += TICKET_ROWS as u64;
        phase.rows_by_tenant[tenant] += TICKET_ROWS as u64;
        phase.latency_us.push((done - t0).as_secs_f64() * 1e6);
        let op = *next_op;
        *next_op += 1;
        let span = tracer.record("ticket", None, op, t0, done);
        tracer.record("runtime.deploy.submit", span, op, t0, t1);
        tracer.record("runtime.deploy.wait", span, op, wait_from, done);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

impl State for Setup {
    fn build(cfg: &RunConfig, tracer: &mut Tracer, op: u64) -> Res<Self> {
        setup(cfg, tracer, op)
    }

    fn tally(&self) -> (f64, u64, u64) {
        (self.install_s, self.attempted, self.failed)
    }

    fn retire(self) {
        self.deployment.shutdown();
    }
}

pub fn run(cfg: &RunConfig) -> Res<Outcome> {
    let plan = Plan::of(cfg, 7);
    let mut tracer = Tracer::new(cfg.trace);
    let mut out = Outcome::default();

    let mut setups = SetUps::new(cfg);
    let setup: Setup = setups.build(&mut tracer, &mut out)?;

    let mut next_op = plan.setups as u64;
    tracer.set_on(false);
    let warm = closed_loop(&setup, &mut tracer, plan.warmup, &mut next_op);
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    setups.again::<Setup>(&mut tracer, &mut out)?;

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for rep in 0..plan.reps {
        tracer.set_on(rep_is_traced(cfg, rep));
        let phase = closed_loop(&setup, &mut tracer, plan.rep, &mut next_op);
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
    let p50s: Vec<f64> = untraced.iter().map(|p| median(&p.latency_us)).collect();
    out.set("latency_p50_us", &p50s);
    out.set("objective_f1", &[median(&setup.served_f1)]);
    let agreement_min = setup.agreement.iter().copied().fold(f64::MAX, f64::min);
    out.set("fixed_agreement_min", &[agreement_min]);

    if cfg.trace {
        per_layer(&setup, &tracer, &untraced, &traced, &mut out)?;
        out.layer(
            "trace.overhead_share",
            super::trace_overhead_share(&rate(&untraced), &rate(&traced), true),
        );
    }
    setup.deployment.shutdown();
    finish(cfg, "deploy_bulk", &tracer, &mut out)?;
    Ok(out)
}

/// The traced run's layer metrics: direct single-thread kernel costs on the
/// traffic rows, the deployment's share of wall-clock spent in them, and
/// the ticket-level distributions from the traced repetitions.
fn per_layer(
    setup: &Setup,
    tracer: &Tracer,
    untraced: &[Phase],
    traced: &[Phase],
    out: &mut Outcome,
) -> Res<()> {
    let rows = &setup.data.traffic_x;
    let mut row_ns = Vec::new();
    for (i, family) in Family::ALL.into_iter().enumerate() {
        let name = family.name();
        row_ns.push(classify_ns_per_row(&setup.packed[i], rows));
        out.layer(format!("runtime.pipeline.row_ns.{name}"), row_ns[i]);
        out.layer(
            format!("runtime.pipeline.scalar_row_ns.{name}"),
            classify_ns_per_row(&setup.scalar[i], rows),
        );
        out.layer(
            format!("runtime.pipeline.block_ns.{name}"),
            ns_per_row(rows.rows(), || {
                std::hint::black_box(setup.packed[i].classify_batch(rows, 1));
            }),
        );
        out.layer(
            format!("runtime.pipeline.agreement.{name}"),
            setup.agreement[i],
        );
    }
    if let FloatModel::Dnn(net) = &setup.floats[0] {
        let float_ns = ns_per_row(rows.rows(), || {
            for row in rows.iter_rows() {
                std::hint::black_box(net.predict_row(row).ok());
            }
        });
        out.layer("ml.float_row_ns.dnn", float_ns);
    }
    let grid = GridSimulator::new(16, 16, 1.0).simulate(&setup.irs[0], 256)?;
    out.layer("sim.grid_ns_per_pkt", grid.latency_ns);
    out.layer(
        "runtime.pipeline.wall_to_grid_ratio",
        row_ns[0] / grid.latency_ns.max(f64::MIN_POSITIVE),
    );

    // Worker time the measured repetitions had, against the direct kernel
    // cost of exactly the rows they served.
    let all = || untraced.iter().chain(traced);
    let worker_ns: f64 = all().map(|p| p.wall_s * 1e9).sum::<f64>() * env::workers() as f64;
    let kernel_ns: f64 = all()
        .flat_map(|p| p.rows_by_tenant.iter().zip(&row_ns))
        .map(|(&n, &ns)| n as f64 * ns)
        .sum();
    let served: f64 = all().map(|p| p.rows as f64).sum();
    let kernel_share = kernel_ns / worker_ns;
    out.layer("runtime.deploy.kernel_share", kernel_share);
    out.layer(
        "runtime.deploy.overhead_ns_per_pkt",
        (worker_ns - kernel_ns) / served,
    );
    if kernel_share < 0.6 {
        out.note(format!(
            "kernel_share {kernel_share:.3} < 0.6: this run does not stress the kernels"
        ));
    }
    let share_err = (0..Family::ALL.len())
        .map(|t| {
            let rows_t: f64 = all().map(|p| p.rows_by_tenant[t] as f64).sum();
            (rows_t / served - 1.0 / Family::ALL.len() as f64).abs()
        })
        .fold(0.0, f64::max);
    out.layer("runtime.deploy.share_err_max", share_err);

    out.layer(
        "runtime.deploy.submit_us_p50",
        median(&tracer.durations_ns("runtime.deploy.submit")) / 1e3,
    );
    let tickets = sorted(&tracer.durations_ns("ticket"));
    let (p99, used) = tail(&tickets, 0.99);
    out.layer("runtime.deploy.ticket_us_p99", p99 / 1e3);
    if used < 0.99 {
        out.note(format!(
            "ticket_us_p99 read at p{} ({} tickets)",
            used * 100.0,
            tickets.len()
        ));
    }
    out.layer("runtime.pipeline.lower_ms", setup.lower_ms);
    out.layer("runtime.lut.builds", setup.lut_builds as f64);
    out.layer("runtime.deploy.build_ms", setup.build_ms);
    Ok(())
}

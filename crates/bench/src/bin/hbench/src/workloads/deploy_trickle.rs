//! `deploy_trickle`: open loop, 40 000 tickets/s of 16 rows (640 k pkt/s,
//! about a third of what the deployment can serve at this ticket size),
//! round-robin over 8 decision-tree tenants.
//!
//! Why: the same `runtime.deploy` layer as `deploy_bulk`, used the other
//! way. Kernel time per ticket is a few hundred nanoseconds, so admit →
//! lane → dispatch → worker wake → ticket wake is almost all of the
//! latency. A change that batches or parks harder to win bulk throughput
//! pays for it here. The queue is deep enough that a scheduler stall shows
//! as latency, not as refusals.

use super::{
    classify_ns_per_row, finish, first_verdicts, rep_is_traced, Plan, RunConfig, SetUps, State,
};
use crate::models::{ad_data, agreement, mismatches, traffic_windows, train_tree, AdData};
use crate::openloop::{run_open_loop, Clock, OpenLoopStats, Sink};
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::Tracer;
use crate::{env, Res};
use homunculus_backends::model::{ModelIr, TreeIr};
use homunculus_ml::metrics::f1_binary;
use homunculus_ml::quantize::FixedPoint;
use homunculus_ml::tensor::Matrix;
use homunculus_runtime::{
    classify_rows, CompiledPipeline, Deployment, TenantBatch, TenantId, Ticket,
};
use std::time::{Duration, Instant};

const TENANTS: usize = 8;
const TICKET_ROWS: usize = 16;
const TICKETS_PER_S: u64 = 40_000;
const GAP_NS: u64 = 1_000_000_000 / TICKETS_PER_S;
const QUEUE_DEPTH: usize = 8_192;
const WINDOWS: usize = 64;
/// A ticket slower than this (or refused) misses the service level.
const SLO_US: f64 = 1_000.0;

struct Setup {
    data: AdData,
    packed: CompiledPipeline,
    deployment: Deployment,
    tenants: Vec<TenantId>,
    windows: Vec<Matrix>,
    /// `reference[tenant][window]`: scalar-tier verdicts.
    reference: Vec<Vec<Vec<usize>>>,
    agreement_min: f64,
    served_f1: f64,
    install_s: f64,
    attempted: u64,
    failed: u64,
}

fn setup(cfg: &RunConfig, tracer: &mut Tracer, op: u64) -> Res<Setup> {
    let format = FixedPoint::taurus_default();
    let (train_rows, traffic_rows) = if cfg.smoke {
        (600, 512)
    } else {
        (1_400, 8_192)
    };
    let root = tracer.begin("setup", None, op);
    let data = tracer.time("datasets.generate", root, op, || {
        ad_data(cfg.seed, train_rows, traffic_rows)
    });

    // Tenant t is trained without every eighth row starting at t, so the
    // eight trees differ.
    let t_train = Instant::now();
    let trees = tracer.time("ml.train", root, op, || {
        (0..TENANTS)
            .map(|t| {
                let keep: Vec<usize> = (0..data.train_x.rows())
                    .filter(|r| r % TENANTS != t)
                    .collect();
                let y: Vec<usize> = keep.iter().map(|&r| data.train_y[r]).collect();
                train_tree(&data.train_x.select_rows(&keep), &y, t as u64)
            })
            .collect::<Res<Vec<_>>>()
    })?;
    let irs: Vec<ModelIr> = trees
        .iter()
        .map(|tree| ModelIr::Tree(TreeIr::from_tree(tree)))
        .collect();
    let mut install_s = t_train.elapsed().as_secs_f64();

    let truth = tracer.time("runtime.pipeline.reference", root, op, || {
        irs.iter()
            .map(|ir| {
                let scalar = CompiledPipeline::from_ir_scalar(ir, format)?;
                Ok(classify_rows(&scalar, &data.traffic_x))
            })
            .collect::<Res<Vec<Vec<usize>>>>()
    })?;
    let (windows, reference) =
        traffic_windows(&data.traffic_raw, &truth, cfg.seed, WINDOWS, TICKET_ROWS);

    let t_install = Instant::now();
    let packed = tracer.time("runtime.pipeline.lower", root, op, || {
        CompiledPipeline::from_ir(&irs[0], format)
    })?;
    let (deployment, tenants) = tracer.time("runtime.deploy.build", root, op, || {
        let deployment = Deployment::builder()
            .workers(env::workers())
            .queue_depth(QUEUE_DEPTH)
            .build();
        let tenants = irs
            .iter()
            .enumerate()
            .map(|(t, ir)| {
                let name = format!("tree{t}");
                deployment.add_model(&name, ir, format, Some(data.normalizer.clone()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, Box<dyn std::error::Error>>((deployment, tenants))
    })?;
    let first = tracer.begin("runtime.deploy.first_verdict", root, op);
    let served = first_verdicts(&deployment, &tenants, &data.traffic_raw)?;
    tracer.end(first);
    install_s += t_install.elapsed().as_secs_f64();

    let mut failed = 0;
    let mut agreement_min = f64::MAX;
    let mut f1 = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        failed += mismatches(&served[t], &truth[t]);
        agreement_min =
            agreement_min.min(agreement(&trees[t].predict(&data.traffic_x), &served[t]));
        f1.push(f1_binary(&data.traffic_y, &served[t])?);
    }
    tracer.end(root);
    Ok(Setup {
        attempted: (TENANTS * data.traffic_y.len()) as u64,
        failed,
        packed,
        deployment,
        tenants,
        windows,
        reference,
        agreement_min,
        served_f1: median(&f1),
        install_s,
        data,
    })
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

struct WallClock(Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The deployment as the open loop sees it. `submit_ns[i]` brackets the
/// `try_submit` call of ticket `i`; it is filled only in traced phases.
struct DeploymentSink<'s> {
    setup: &'s Setup,
    clock: &'s WallClock,
    traced: bool,
    submit_ns: Vec<(u64, u64)>,
    wrong_rows: u64,
}

impl DeploymentSink<'_> {
    fn route(&self, index: u64) -> (usize, usize) {
        let i = index as usize;
        (i % TENANTS, (i / TENANTS) % WINDOWS)
    }
}

impl Sink for DeploymentSink<'_> {
    type Ticket = Ticket;

    fn send(&mut self, index: u64) -> Option<Ticket> {
        let (tenant, w) = self.route(index);
        let batch = TenantBatch::new(self.setup.tenants[tenant], self.setup.windows[w].clone());
        if !self.traced {
            return self.setup.deployment.try_submit(batch).ok();
        }
        let t0 = self.clock.now_ns();
        let ticket = self.setup.deployment.try_submit(batch).ok();
        self.submit_ns.push((t0, self.clock.now_ns()));
        ticket
    }

    fn is_done(&mut self, ticket: &Ticket) -> bool {
        ticket.is_done()
    }

    fn finish(&mut self, index: u64, ticket: Ticket) {
        let (tenant, w) = self.route(index);
        self.wrong_rows += mismatches(ticket.wait().as_slice(), &self.setup.reference[tenant][w]);
    }
}

/// One open-loop phase of `duration`, with its spans when `traced`.
fn open_loop(
    setup: &Setup,
    tracer: &mut Tracer,
    duration: Duration,
    traced: bool,
    next_op: &mut u64,
) -> (OpenLoopStats, u64) {
    let epoch = Instant::now();
    let clock = WallClock(epoch);
    let mut sink = DeploymentSink {
        setup,
        clock: &clock,
        traced,
        submit_ns: Vec::new(),
        wrong_rows: 0,
    };
    let tickets = (duration.as_nanos() as u64 / GAP_NS).max(1);
    let stats = run_open_loop(&clock, &mut sink, GAP_NS, tickets);
    if traced {
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        for &(index, due, done) in &stats.delivered {
            let op = *next_op + index;
            let span = tracer.record("ticket", None, op, at(due), at(done));
            let (t0, t1) = sink.submit_ns[index as usize];
            tracer.record("runtime.deploy.submit", span, op, at(t0), at(t1));
        }
        *next_op += tickets;
    }
    (stats, sink.wrong_rows)
}

pub fn run(cfg: &RunConfig) -> Res<Outcome> {
    let plan = Plan::of(cfg, 5);
    let mut tracer = Tracer::new(cfg.trace);
    let mut out = Outcome::default();

    let mut setups = SetUps::new(cfg);
    let setup: Setup = setups.build(&mut tracer, &mut out)?;

    let mut next_op = plan.setups as u64;
    let account = |out: &mut Outcome, stats: &OpenLoopStats, wrong_rows: u64| {
        out.attempted += stats.sent * TICKET_ROWS as u64;
        out.failed += stats.refused * TICKET_ROWS as u64 + wrong_rows;
    };
    let (warm, wrong) = open_loop(&setup, &mut tracer, plan.warmup, false, &mut next_op);
    account(&mut out, &warm, wrong);
    setups.again::<Setup>(&mut tracer, &mut out)?;

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for rep in 0..plan.reps {
        let on = rep_is_traced(cfg, rep);
        let (stats, wrong) = open_loop(&setup, &mut tracer, plan.rep, on, &mut next_op);
        account(&mut out, &stats, wrong);
        if on {
            traced.push(stats);
        } else {
            untraced.push(stats);
        }
        setups.again::<Setup>(&mut tracer, &mut out)?;
    }
    setups.report(&mut out);

    let rate = |phases: &[OpenLoopStats]| -> Vec<f64> {
        phases
            .iter()
            .map(|p| (p.delivered.len() * TICKET_ROWS) as f64 / (p.wall_ns as f64 / 1e9))
            .collect()
    };
    let latency_us = |p: &OpenLoopStats| -> Vec<f64> {
        p.latencies_ns().iter().map(|&ns| ns as f64 / 1e3).collect()
    };
    out.set("pkt_per_s", &rate(&untraced));
    let p50s: Vec<f64> = untraced.iter().map(|p| median(&latency_us(p))).collect();
    out.set("latency_p50_us", &p50s);
    out.set("objective_f1", &[setup.served_f1]);
    out.set("fixed_agreement_min", &[setup.agreement_min]);

    if cfg.trace {
        let all: Vec<&OpenLoopStats> = untraced.iter().chain(&traced).collect();
        let tickets = sorted(&tracer.durations_ns("ticket"));
        let p50 = percentile(&tickets, 0.5) / 1e3;
        out.layer("runtime.deploy.ticket_us_p90", tail(&tickets, 0.9).0 / 1e3);
        out.layer("runtime.deploy.ticket_us_p99", tail(&tickets, 0.99).0 / 1e3);
        out.layer(
            "runtime.deploy.submit_us_p50",
            median(&tracer.durations_ns("runtime.deploy.submit")) / 1e3,
        );
        let row_ns = classify_ns_per_row(&setup.packed, &setup.data.traffic_x);
        out.layer(
            "runtime.deploy.wake_us_p50",
            p50 - TICKET_ROWS as f64 * row_ns / 1e3,
        );
        let rows: f64 = all
            .iter()
            .map(|p| (p.delivered.len() * TICKET_ROWS) as f64)
            .sum();
        let worker_ns: f64 =
            all.iter().map(|p| p.wall_ns as f64).sum::<f64>() * env::workers() as f64;
        let kernel_share = rows * row_ns / worker_ns;
        out.layer("runtime.deploy.kernel_share", kernel_share);
        if kernel_share > 0.25 {
            out.note(format!(
                "kernel_share {kernel_share:.3} > 0.25: this run is not ingress-dominated"
            ));
        }
        let sent: f64 = all.iter().map(|p| p.sent as f64).sum();
        let refused: f64 = all.iter().map(|p| p.refused as f64).sum();
        let slow = all
            .iter()
            .flat_map(|p| latency_us(p))
            .filter(|&us| us > SLO_US)
            .count() as f64;
        out.layer("runtime.deploy.slo_miss_share", (slow + refused) / sent);
        out.layer("runtime.deploy.refused_tickets", refused);
        let lags: Vec<f64> = all
            .iter()
            .flat_map(|p| p.send_lag_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        out.layer("gen.late_us_p99", tail(&sorted(&lags), 0.99).0);
        let late_share = all.iter().map(|p| p.late_sends as f64).sum::<f64>() / sent;
        out.layer("gen.late_share", late_share);
        if late_share > 0.01 {
            out.note(format!(
                "generator-bound: {late_share:.4} of sends left over a gap late"
            ));
        }
        out.layer(
            "trace.overhead_share",
            super::trace_overhead_share(
                &untraced
                    .iter()
                    .map(|p| median(&latency_us(p)))
                    .collect::<Vec<_>>(),
                &traced
                    .iter()
                    .map(|p| median(&latency_us(p)))
                    .collect::<Vec<_>>(),
                false,
            ),
        );
    }
    setup.deployment.shutdown();
    finish(cfg, "deploy_trickle", &tracer, &mut out)?;
    Ok(out)
}

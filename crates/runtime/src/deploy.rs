//! Persistent deployment serving: resident workers behind one monitor,
//! with windowed tenant QoS.
//!
//! A switch data plane never stops — the paper's serving story (and
//! Taurus, which it compiles for) is a resident pipeline with per-model
//! throughput floors, not a worker pool spawned and joined around every
//! batch. This module is that model's software twin and the runtime's one
//! serving frontend:
//!
//! - a [`Deployment`] owns **resident worker threads** and one
//!   `Mutex<Scheduler>`: the per-tenant lanes of admitted tickets, the
//!   admission gauges and the open/paused flags all live behind it, and
//!   two condition variables on it are the only way a thread waits (see
//!   *The ingress monitor* below);
//! - the chunk is the unit of everything a worker does — dispatch,
//!   fairness, cancellation, panic isolation, classification (one call
//!   into the 32-row block walk of [`crate::batch`]), timing (one clock
//!   pair) and stats (one latency sample: service time per row). A lane
//!   holds whole tickets; the scheduler carves the next
//!   [`chunk_rows`](DeploymentBuilder::chunk_rows) range off the front
//!   ticket at dispatch, so a lane is never longer than admission let in;
//! - [`Deployment::submit`] is non-blocking with respect to completion: it
//!   queues a [`TenantBatch`] on the tenant's lane and hands back a
//!   [`Ticket`] whose [`wait`](Ticket::wait) yields the batch's
//!   [`Verdicts`]. Admission is row-aware
//!   ([`max_queued_rows`](DeploymentBuilder::max_queued_rows)) on top of
//!   the ticket-depth bound, a blocked submitter sleeps until room frees
//!   or its optional
//!   [`submit_deadline`](DeploymentBuilder::submit_deadline) passes, and
//!   an accepted ticket can be [cancelled](Ticket::cancel) to skip its
//!   not-yet-classified chunks;
//! - tenants can be added and removed **at runtime**
//!   ([`add_tenant`](Deployment::add_tenant) /
//!   [`remove_tenant`](Deployment::remove_tenant)) without stopping the
//!   workers;
//! - each tenant carries a [`SchedulePolicy`]: plain round-robin, or a
//!   weighted share with an optional **minimum-share floor** — the paper's
//!   per-model throughput guarantees — enforced by deficit-weighted
//!   (stride) dispatch at chunk granularity. Floors are accounted over a
//!   **decaying window**
//!   ([`fairness_window_rows`](DeploymentBuilder::fairness_window_rows)),
//!   not cumulatively since launch, so a tenant that joins late (or idles
//!   through an epoch) is owed at most one window of catch-up instead of
//!   the deployment's entire history;
//! - [`stats_snapshot`](Deployment::stats_snapshot) exposes live
//!   per-tenant counters, cumulative and windowed shares while the
//!   deployment runs;
//! - [`drain`](Deployment::drain) and [`shutdown`](Deployment::shutdown)
//!   are graceful: every already-accepted ticket completes, and only new
//!   submissions are refused.
//!
//! # The ingress monitor
//!
//! Every chunk crossed the scheduler mutex already (to be picked), so that
//! mutex is the whole ingress: a submitter takes it once to pass both
//! admission gates and queue its ticket, a worker takes it once per chunk
//! to pop, and once more when a chunk completes its ticket. Two condition
//! variables hang off it, and each names one reason to wait:
//!
//! | condvar | who waits, and for what | who signals |
//! |---|---|---|
//! | `work` | an idle worker, until `!paused` and a lane is backlogged, or the deployment is closed and empty (exit) | a `submit` that finds `idle_workers > 0` on a running deployment (`notify_one` for a one-chunk ticket, `notify_all` otherwise); [`resume`](Deployment::resume); [`shutdown`](Deployment::shutdown); the completion that empties a closed deployment |
//! | `room` | a blocked [`submit`](Deployment::submit), until both gates admit it or the deployment closes; [`drain`](Deployment::drain), until no ticket is in flight | a completing ticket (ticket depth frees); a dispatch, when a row budget is configured (the budget frees at *dispatch*, not completion); [`shutdown`](Deployment::shutdown) — the first two only when `room_waiters > 0` |
//!
//! **No wake-up can be lost, by construction:** every field a waiter's
//! predicate reads (`open`, `paused`, the lane queues, `in_flight_tickets`,
//! `queued_rows`) is written only under the mutex; a waiter re-checks its
//! predicate under the mutex and `Condvar::wait` releases it atomically
//! with going to sleep; and every critical section that can turn a
//! predicate true decides its notification before unlocking. So a waiter
//! either sees the new state and does not sleep, or was already asleep
//! when the writer took the lock and is notified. The `idle_workers` /
//! `room_waiters` counts (kept under the same mutex) only suppress
//! notifications nobody would receive. Spurious wake-ups are harmless:
//! each wait is a `while` loop over its predicate.
//!
//! Lock order: `registry` → `sched`, and a ticket's own lock → `sched`
//! (a completing chunk settles the deployment's counters before the ticket
//! lock releases); nothing is acquired while `sched` is held, and no lock
//! is held across `classify_chunk`. The scheduler lock is taken
//! poison-tolerantly: its critical sections only move counters and queue
//! entries, so state a panicking holder leaves behind is still a valid
//! scheduler, and a panic can cost a ticket but never wedge the pool.
//!
//! **Nothing polls, and there is no spin phase.** The ingress this
//! replaced (lock-free rings, a descriptor slab, a spin → yield → sleep
//! ladder) polled; its shortest sleep measured 70 µs on the 2-vCPU
//! reference host, which *was* the trickle latency. Waking on the event
//! instead, hbench `deploy_trickle` p50 reads 47 → 24 µs and
//! `fleet_fabric` +17 % pkt/s, with `deploy_bulk` unchanged within its
//! spread (a 512-row chunk is ~50 µs of kernel between lock crossings).
//! The price is named: a submit that finds the worker parked pays the
//! futex wake the timer used to hide (`submit_us_p50` 1 → 10 µs in that
//! VM), which at 40 000 tickets/s thins the submitter's headroom when the
//! host is contended. A prototype that watched an epoch counter for 50 µs
//! before parking cut trickle p50 to 3.8 µs but cost +29 % `setup_s` on
//! the same host (the spinner holds the second vCPU), so it is not done
//! here.
//!
//! # Determinism contract
//!
//! Verdicts stay **bit-wise deterministic**: every chunk writes into
//! pre-assigned slots of its ticket, so worker scheduling can change
//! timing but never result bytes — for a fixed submission sequence the
//! verdict vectors are identical under any worker count or queue depth
//! (`tests/golden_determinism.rs` pins this). The dispatch *order* is
//! produced by the one scheduler, and its pick sequence is a pure function
//! of lane state: under a staged backlog (paused, then resumed) the
//! recorded dispatch log is identical for any worker count. Under live
//! concurrent submission the interleaving of *admissions* is racy as in
//! any multi-producer system — determinism is per submission sequence, not
//! per wall clock.

use crate::histogram::LatencyHistogram;
use crate::lut::LutCache;
use crate::pipeline::{Compile, CompiledPipeline, Scratch};
use crate::serve::{next_server_tag, TenantBatch, TenantId, TenantStats};
use crate::{Result, RuntimeError};
use homunculus_backends::model::ModelIr;
use homunculus_ml::preprocess::Normalizer;
use homunculus_ml::quantize::FixedPoint;
use homunculus_ml::tensor::Matrix;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-tenant dispatch policy.
///
/// | Policy | Dispatch behaviour |
/// |---|---|
/// | `RoundRobin` | Equal share: identical to `Weighted { weight: 1.0, min_share: 0.0 }`. |
/// | `Weighted` | Proportional share `weight / Σ weights` among backlogged tenants, with an optional floor. |
///
/// The floor (`min_share`) implements the paper's per-model throughput
/// guarantees: whenever a backlogged tenant's observed share of dispatched
/// rows — measured over the deployment's decaying fairness window — sits
/// below its floor, the dispatcher serves it before any
/// weight-proportional pick. Floors are fractions of the aggregate, so the
/// sum of floors across active tenants must stay ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulePolicy {
    /// Equal share at chunk granularity (the PR-3 behaviour).
    RoundRobin,
    /// Deficit-weighted share with an optional minimum-share floor.
    Weighted {
        /// Relative share of dispatched rows; must be positive and finite.
        weight: f64,
        /// Guaranteed fraction of aggregate dispatched rows in `[0, 1)`.
        min_share: f64,
    },
}

impl SchedulePolicy {
    /// A weighted policy with no floor.
    pub fn weighted(weight: f64) -> Self {
        SchedulePolicy::Weighted {
            weight,
            min_share: 0.0,
        }
    }

    /// Sets the minimum-share floor (converts `RoundRobin` to a
    /// unit-weight `Weighted`).
    #[must_use]
    pub fn with_min_share(self, min_share: f64) -> Self {
        SchedulePolicy::Weighted {
            weight: self.weight(),
            min_share,
        }
    }

    /// The relative dispatch weight (1.0 for `RoundRobin`).
    pub fn weight(self) -> f64 {
        match self {
            SchedulePolicy::RoundRobin => 1.0,
            SchedulePolicy::Weighted { weight, .. } => weight,
        }
    }

    /// The guaranteed aggregate-share floor (0.0 for `RoundRobin`).
    pub fn min_share(self) -> f64 {
        match self {
            SchedulePolicy::RoundRobin => 0.0,
            SchedulePolicy::Weighted { min_share, .. } => min_share,
        }
    }

    fn validate(self) -> Result<()> {
        let weight = self.weight();
        let min_share = self.min_share();
        if !(weight.is_finite() && weight > 0.0) {
            return Err(RuntimeError::Serve(format!(
                "schedule weight must be positive and finite, got {weight}"
            )));
        }
        if !(0.0..1.0).contains(&min_share) {
            return Err(RuntimeError::Serve(format!(
                "min_share must lie in [0, 1), got {min_share}"
            )));
        }
        Ok(())
    }
}

/// One registered tenant of a deployment, shared with in-flight work via
/// `Arc` so removal never invalidates accepted tickets.
#[derive(Debug)]
struct TenantEntry {
    name: String,
    pipeline: CompiledPipeline,
    normalizer: Option<Normalizer>,
    policy: SchedulePolicy,
    accum: Mutex<TenantAccum>,
}

/// Running per-tenant counters, merged across every completed chunk.
/// Each chunk folds one latency sample (its service time per row) into a
/// fixed-size log-bucketed [`LatencyHistogram`] rather than a list of raw
/// samples, so an always-on deployment's stats memory is bounded (p50/p99
/// stay within one bucket width of the raw-sample percentiles).
#[derive(Debug, Default)]
struct TenantAccum {
    packets: usize,
    verdict_histogram: Vec<usize>,
    latency: LatencyHistogram,
    oracle_packets: usize,
    oracle_agreements: usize,
}

/// What every chunk of one ticket needs to complete without the registry.
#[derive(Debug, Clone)]
struct Job {
    entry: Arc<TenantEntry>,
    ticket: Arc<TicketState>,
    features: Arc<Matrix>,
    oracle: Option<Arc<Vec<usize>>>,
}

/// An admitted ticket waiting in its tenant's lane. Dispatch carves
/// `chunk` rows at a time off `next_row`.
#[derive(Debug)]
struct Queued {
    job: Job,
    next_row: usize,
    chunk: usize,
}

/// One dispatched unit of work: rows `start .. start + rows` of a ticket.
#[derive(Debug)]
struct Chunk {
    job: Job,
    start: usize,
    rows: usize,
}

/// A tenant's ingress lane and its dispatch accounting.
#[derive(Default)]
struct Lane {
    /// Admitted tickets in submission order; the front one may be partly
    /// dispatched.
    queue: VecDeque<Queued>,
    /// Rows admitted to this lane and not yet dispatched.
    queued_rows: u64,
    weight: f64,
    min_share: f64,
    /// Stride-scheduling virtual time: advances by `rows / weight` per
    /// dispatched chunk, so lower-`vt` lanes are behind their fair share.
    vt: f64,
    /// Rows dispatched to workers since launch (cumulative, stats only).
    served_rows: u64,
    /// Rows dispatched within the current fairness window (decayed).
    win_served: u64,
    /// Set while the scheduler observes the lane empty; the empty → busy
    /// transition rejoins the lane at the current virtual-time frontier so
    /// an idle tenant cannot bank credit and later starve others.
    idle: bool,
}

impl Lane {
    fn new(policy: SchedulePolicy, vt: f64) -> Self {
        Lane {
            weight: policy.weight(),
            min_share: policy.min_share(),
            vt,
            idle: true,
            ..Lane::default()
        }
    }
}

/// The state of the ingress monitor (see the module docs): the lanes, the
/// dispatcher's accounting, and every flag, gauge and counter a waiter's
/// predicate or an admission decision reads. Because every pick is a pure
/// function of lane state (never of which worker runs it), the dispatch
/// sequence over a staged backlog is identical under any worker count.
#[derive(Default)]
struct Scheduler {
    /// Per-tenant lanes, index-aligned with the registry.
    lanes: Vec<Lane>,
    /// Rows dispatched since launch (cumulative, stats only).
    total_served_rows: u64,
    /// Rows dispatched within the current fairness window (decayed).
    win_total: u64,
    /// Window size in rows; every time `win_total` reaches it, all
    /// windowed counters halve. `0` disables decay (cumulative floors).
    window_rows: u64,
    /// Virtual time of the dispatch frontier; newly-active lanes jump
    /// here. Tracks the *minimum* backlogged vt (see
    /// `floor_pass_picks_do_not_inflate_the_join_frontier`).
    current_vt: f64,
    dispatch_log: Option<Vec<(usize, usize)>>,
    open: bool,
    paused: bool,
    /// Tickets admitted but not yet completed — the queue-depth gauge and
    /// the workers' exit condition (`!open && in_flight_tickets == 0`).
    in_flight_tickets: usize,
    /// Rows admitted but not yet dispatched — the row-budget gauge.
    queued_rows: u64,
    /// Workers asleep on `work`, and submitters plus drainers asleep on
    /// `room`: a signal is skipped when nobody would receive it.
    idle_workers: usize,
    room_waiters: usize,
    submitted_tickets: u64,
    completed_tickets: u64,
    cancelled_tickets: u64,
}

impl Scheduler {
    fn new(window_rows: u64, record_dispatch: bool, paused: bool) -> Self {
        Scheduler {
            window_rows,
            dispatch_log: record_dispatch.then(Vec::new),
            open: true,
            paused,
            ..Scheduler::default()
        }
    }

    /// Windowed (or cumulative, when decay is off) totals the floor pass
    /// compares against.
    fn floor_totals(&self, lane: &Lane) -> (u64, u64) {
        if self.window_rows > 0 {
            (lane.win_served, self.win_total)
        } else {
            (lane.served_rows, self.total_served_rows)
        }
    }

    /// Picks the lane the next chunk comes from, or `None` when every
    /// lane is empty. Two passes:
    ///
    /// 1. **Floor pass** — among backlogged lanes whose windowed share of
    ///    dispatched rows is below their `min_share`, the most starved
    ///    (lowest `share / min_share`) wins.
    /// 2. **Stride pass** — otherwise the backlogged lane with the lowest
    ///    virtual time wins; ties go to the lowest index.
    ///
    /// Both passes are deterministic functions of dispatch history, so
    /// under a backlogged queue the dispatch *sequence* is identical no
    /// matter how many workers pull from it.
    fn pick_lane(&self) -> Option<usize> {
        let mut floor_pick: Option<(usize, f64)> = None;
        for (index, lane) in self.lanes.iter().enumerate() {
            if lane.queue.is_empty() || lane.min_share <= 0.0 {
                continue;
            }
            let (served, total) = self.floor_totals(lane);
            if total == 0 {
                continue;
            }
            let share = served as f64 / total as f64;
            if share < lane.min_share {
                let starvation = share / lane.min_share;
                if floor_pick.map_or(true, |(_, best)| starvation < best) {
                    floor_pick = Some((index, starvation));
                }
            }
        }
        if let Some((index, _)) = floor_pick {
            return Some(index);
        }
        let mut pick: Option<(usize, f64)> = None;
        for (index, lane) in self.lanes.iter().enumerate() {
            if lane.queue.is_empty() {
                continue;
            }
            if pick.map_or(true, |(_, best)| lane.vt < best) {
                pick = Some((index, lane.vt));
            }
        }
        pick.map(|(index, _)| index)
    }

    /// Carves the next chunk off the lane the scheduling policy picks,
    /// updating dispatch accounting; `None` when every lane is empty.
    fn pop_next(&mut self) -> Option<Chunk> {
        // Idle/rejoin scan: a lane the scheduler last saw empty rejoins
        // the virtual-time frontier when it becomes backlogged again.
        for lane in &mut self.lanes {
            let backlogged = !lane.queue.is_empty();
            if lane.idle && backlogged {
                lane.vt = lane.vt.max(self.current_vt);
                lane.idle = false;
            } else if !lane.idle && !backlogged {
                lane.idle = true;
            }
        }
        let index = self.pick_lane()?;
        // The fair frontier newly-(re)joining lanes jump to is the
        // *minimum* backlogged virtual time, not the picked lane's: a
        // floor-pass pick can come from a tiny-weight lane whose vt is
        // orders of magnitude ahead, and adopting it would freeze every
        // later joiner out of the stride pass until the whole pool
        // caught up.
        self.current_vt = self
            .lanes
            .iter()
            .filter(|lane| !lane.queue.is_empty())
            .map(|lane| lane.vt)
            .fold(f64::INFINITY, f64::min);

        let lane = &mut self.lanes[index];
        let front = lane.queue.front_mut().expect("a picked lane is backlogged");
        let start = front.next_row;
        let rows = front.chunk.min(front.job.features.rows() - start);
        front.next_row += rows;
        let job = if front.next_row == front.job.features.rows() {
            // The last chunk takes the ticket's handles with it.
            lane.queue.pop_front().expect("front exists").job
        } else {
            front.job.clone()
        };

        let rows = rows as u64;
        lane.queued_rows -= rows;
        lane.served_rows += rows;
        lane.win_served += rows;
        lane.vt += rows.max(1) as f64 / lane.weight;
        self.queued_rows -= rows;
        self.total_served_rows += rows;
        self.win_total += rows;
        if self.window_rows > 0 && self.win_total >= self.window_rows {
            // Decay: halve every windowed counter. Shares are
            // preserved across the boundary while old history loses
            // half its weight each window — a lane's floor deficit is
            // bounded by O(window) rows instead of the whole uptime.
            self.win_total >>= 1;
            for lane in &mut self.lanes {
                lane.win_served >>= 1;
            }
        }
        if let Some(log) = &mut self.dispatch_log {
            log.push((index, rows as usize));
        }
        Some(Chunk {
            job,
            start,
            rows: rows as usize,
        })
    }
}

/// Completion state shared between a [`Ticket`] and the workers filling
/// its verdict slots.
#[derive(Debug)]
struct TicketState {
    inner: Mutex<TicketInner>,
    done: Condvar,
    /// Set by [`Ticket::cancel`]; workers observing it skip the classify
    /// loop for this ticket's remaining chunks.
    cancelled: AtomicBool,
}

#[derive(Debug)]
struct TicketInner {
    verdicts: Vec<usize>,
    remaining_items: usize,
    done: bool,
    /// Rows whose classification was skipped by [`Ticket::cancel`]; their
    /// verdict slots hold 0.
    cancelled_rows: usize,
    /// Set when a worker panicked while classifying this ticket's rows;
    /// [`Ticket::wait`] re-raises it instead of returning bogus verdicts.
    panicked: Option<String>,
}

/// A handle to one submitted batch. Obtain with
/// [`Deployment::submit`]; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
    tenant: TenantId,
    rows: usize,
    submitted: Instant,
}

impl Ticket {
    /// The tenant the batch was addressed to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Number of packets in the batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether every verdict slot has been filled (never blocks).
    pub fn is_done(&self) -> bool {
        self.state.inner.lock().expect("ticket poisoned").done
    }

    /// Requests best-effort cancellation: chunks not yet classified when a
    /// worker reaches them are skipped (their verdict slots stay 0 and are
    /// counted in [`Verdicts::cancelled_rows`]); chunks already classified
    /// keep their verdicts. The ticket still completes — [`wait`](Ticket::wait)
    /// never hangs on a cancelled ticket — and queue-depth/row accounting
    /// is released exactly as for a served ticket.
    ///
    /// Returns `true` if this call was the first to request cancellation.
    pub fn cancel(&self) -> bool {
        !self.state.cancelled.swap(true, Ordering::SeqCst)
    }

    /// Whether cancellation has been requested (not whether any row was
    /// actually skipped).
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::SeqCst)
    }

    /// Blocks until the batch completes and yields its verdicts.
    ///
    /// Always terminates: [`Deployment::drain`] / shutdown complete every
    /// accepted ticket, and a dropped deployment drains before its workers
    /// exit. Even a classification panic completes the ticket (and is
    /// re-raised here) rather than hanging waiters.
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic that occurred while classifying this
    /// batch's rows — the resident pool's equivalent of the panic a
    /// scoped-thread join would have propagated.
    pub fn wait(self) -> Verdicts {
        let mut inner = self.state.inner.lock().expect("ticket poisoned");
        while !inner.done {
            inner = self.state.done.wait(inner).expect("ticket poisoned");
        }
        if let Some(message) = &inner.panicked {
            panic!(
                "deployment worker panicked while classifying a batch for {}: {message}",
                self.tenant
            );
        }
        Verdicts {
            tenant: self.tenant,
            wait_ns: self.submitted.elapsed().as_nanos() as u64,
            cancelled_rows: inner.cancelled_rows,
            verdicts: std::mem::take(&mut inner.verdicts),
        }
    }
}

/// The completed result of one ticket: per-row verdicts in submission
/// order (bit-wise deterministic under any worker count).
#[derive(Debug, Clone)]
pub struct Verdicts {
    /// The tenant that served the batch.
    pub tenant: TenantId,
    /// Submission-to-redemption latency in nanoseconds (queueing included).
    pub wait_ns: u64,
    cancelled_rows: usize,
    verdicts: Vec<usize>,
}

/// Equality compares the verdict vector only: `wait_ns` is timing noise
/// and [`TenantId`]s carry per-instance tags, so deriving over all fields
/// would make results from two different (but identically configured)
/// deployments compare unequal even when every verdict matches.
impl PartialEq for Verdicts {
    fn eq(&self, other: &Self) -> bool {
        self.verdicts == other.verdicts
    }
}

impl Eq for Verdicts {}

impl Verdicts {
    /// Per-row verdicts, in batch row order.
    pub fn as_slice(&self) -> &[usize] {
        &self.verdicts
    }

    /// Consumes the result, yielding the verdict vector.
    pub fn into_vec(self) -> Vec<usize> {
        self.verdicts
    }

    /// Number of verdicts (== submitted rows).
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Rows skipped by [`Ticket::cancel`] (their verdict slots hold 0).
    pub fn cancelled_rows(&self) -> usize {
        self.cancelled_rows
    }
}

/// A registered tenant's slot: stays in place after removal so indices
/// remain stable and historical stats survive.
struct Slot {
    entry: Arc<TenantEntry>,
    active: bool,
}

/// Everything the resident workers share with the [`Deployment`] handle:
/// fixed configuration, the tenant registry, and the ingress monitor —
/// one mutex and its two condition variables (module docs).
struct Shared {
    tag: u32,
    workers: usize,
    queue_depth: usize,
    chunk_rows: usize,
    max_queued_rows: u64,
    submit_deadline: Option<Duration>,
    default_policy: SchedulePolicy,
    registry: RwLock<Vec<Slot>>,
    luts: LutCache,
    sched: Mutex<Scheduler>,
    /// Idle workers wait here for a backlog, a resume, or the exit.
    work: Condvar,
    /// Blocked submitters and `drain` wait here for admission room.
    room: Condvar,
    started: Instant,
}

impl Shared {
    /// Takes the scheduler lock, poisoned or not: no critical section
    /// leaves the scheduler half-updated in a way the next holder cannot
    /// serve from, and refusing the lock would strand every waiter.
    fn sched(&self) -> MutexGuard<'_, Scheduler> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleeps on `room`, for at most `limit` when one is given, counted in
    /// `room_waiters` so that signallers can tell somebody is listening.
    fn wait_for_room<'a>(
        &self,
        mut sched: MutexGuard<'a, Scheduler>,
        limit: Option<Duration>,
    ) -> MutexGuard<'a, Scheduler> {
        sched.room_waiters += 1;
        let mut sched = match limit {
            None => self
                .room
                .wait(sched)
                .unwrap_or_else(PoisonError::into_inner),
            Some(limit) => {
                let woken = self.room.wait_timeout(sched, limit);
                woken.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        sched.room_waiters -= 1;
        sched
    }
}

/// A resident worker: pop the next chunk under the lock, classify it
/// outside, and sleep on `work` when nothing is queued.
fn worker_loop(shared: &Shared) {
    let mut scratch = Scratch::new();
    let mut verdicts: Vec<usize> = Vec::new();
    loop {
        let (chunk, tell_room) = {
            let mut sched = shared.sched();
            loop {
                if !sched.paused {
                    if let Some(chunk) = sched.pop_next() {
                        // The row budget frees at dispatch, so a submitter
                        // it holds is told now, not at ticket completion.
                        break (chunk, shared.max_queued_rows > 0 && sched.room_waiters > 0);
                    }
                }
                // Exit only when the ingress is closed AND no ticket is
                // in flight: admission and this check share the lock, so
                // no chunk can appear after the last worker leaves.
                if !sched.open && sched.in_flight_tickets == 0 {
                    return;
                }
                sched.idle_workers += 1;
                sched = shared
                    .work
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
                sched.idle_workers -= 1;
            }
        };
        if tell_room {
            shared.room.notify_all();
        }
        if !process_chunk(shared, chunk, &mut scratch, &mut verdicts) {
            // A classify panic may have left the reusable buffers in
            // an arbitrary (but memory-safe) state; start the next
            // chunk clean.
            scratch = Scratch::new();
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "non-string panic payload"
    }
}

/// Classifies one chunk with one call into the chunk walk and publishes
/// its verdicts + stats. Returns `false` when that call panicked — the
/// ticket still completes (carrying the panic for [`Ticket::wait`] to
/// re-raise), so a model bug can never wedge
/// `drain()`/`shutdown()`/`Drop`.
fn process_chunk(
    shared: &Shared,
    chunk: Chunk,
    scratch: &mut Scratch,
    verdicts: &mut Vec<usize>,
) -> bool {
    let Chunk { job, start, rows } = chunk;
    let Job {
        entry,
        ticket,
        features,
        oracle,
    } = job;
    let cancelled = ticket.cancelled.load(Ordering::SeqCst);

    verdicts.clear();
    verdicts.resize(rows, 0);
    let mut service_ns = 0;
    let panicked = if cancelled {
        None
    } else {
        // No lock is held across classify, so a panic here poisons
        // nothing; it is caught and re-raised at the ticket's wait()
        // instead of killing the resident worker with bookkeeping
        // half-done.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let t0 = Instant::now();
            entry.pipeline.classify_chunk(
                &features,
                start,
                entry.normalizer.as_ref(),
                verdicts,
                scratch,
            );
            service_ns = t0.elapsed().as_nanos() as u64;
        }));
        outcome
            .err()
            .map(|payload| panic_message(payload.as_ref()).to_string())
    };

    if panicked.is_none() && !cancelled {
        let mut accum = entry.accum.lock().expect("tenant stats poisoned");
        accum.packets += rows;
        for &verdict in verdicts.iter() {
            if verdict >= accum.verdict_histogram.len() {
                accum.verdict_histogram.resize(verdict + 1, 0);
            }
            accum.verdict_histogram[verdict] += 1;
        }
        accum.latency.record(service_ns / rows as u64);
        if let Some(oracle) = &oracle {
            accum.oracle_packets += rows;
            accum.oracle_agreements += oracle[start..start + rows]
                .iter()
                .zip(verdicts.iter())
                .filter(|(a, b)| a == b)
                .count();
        }
    }

    let ok = panicked.is_none();
    let mut inner = ticket.inner.lock().expect("ticket poisoned");
    if let Some(message) = panicked {
        inner.panicked.get_or_insert(message);
    }
    if cancelled {
        inner.cancelled_rows += rows;
        // Verdict slots keep their deterministic 0 fill.
    } else {
        inner.verdicts[start..start + rows].copy_from_slice(verdicts);
    }
    inner.remaining_items -= 1;
    if inner.remaining_items > 0 {
        return ok;
    }
    inner.done = true;
    // The deployment's counters settle *before* the ticket lock
    // releases: anyone returning from `Ticket::wait` observes counters
    // and an in-flight gauge that already account for this ticket.
    let (tell_room, tell_work) = {
        let mut sched = shared.sched();
        sched.completed_tickets += 1;
        if inner.cancelled_rows > 0 {
            sched.cancelled_tickets += 1;
        }
        sched.in_flight_tickets -= 1;
        (
            sched.room_waiters > 0,
            // The last ticket of a closed deployment releases the
            // workers still asleep to their exit.
            !sched.open && sched.in_flight_tickets == 0 && sched.idle_workers > 0,
        )
    };
    drop(inner);
    ticket.done.notify_all();
    if tell_room {
        shared.room.notify_all();
    }
    if tell_work {
        shared.work.notify_all();
    }
    ok
}

/// A live per-tenant share view from [`Deployment::stats_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantShare {
    /// The tenant this share belongs to.
    pub tenant: TenantId,
    /// Relative dispatch weight from the tenant's [`SchedulePolicy`].
    pub weight: f64,
    /// Guaranteed aggregate-share floor.
    pub min_share: f64,
    /// Rows dispatched to workers for this tenant since launch.
    pub served_rows: u64,
    /// Rows still queued for this tenant.
    pub queued_rows: u64,
    /// `served_rows / Σ served_rows` (0.0 before the first dispatch).
    pub observed_share: f64,
    /// The tenant's share of dispatched rows within the current decaying
    /// fairness window — what the floor pass actually compares against
    /// `min_share` (equals `observed_share` when the window is disabled).
    pub windowed_share: f64,
    /// Whether the tenant still accepts submissions.
    pub active: bool,
}

/// A point-in-time view of a running deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentStats {
    /// Per-tenant serving stats, indexed by [`TenantId::index`] (removed
    /// tenants keep their history).
    pub tenants: Vec<TenantStats>,
    /// Per-tenant scheduling shares, aligned with `tenants`.
    pub shares: Vec<TenantShare>,
    /// Tickets accepted since launch.
    pub submitted_tickets: u64,
    /// Tickets fully completed since launch.
    pub completed_tickets: u64,
    /// Tickets that completed with at least one row skipped by
    /// [`Ticket::cancel`].
    pub cancelled_tickets: u64,
    /// Rows currently waiting in the ingress lanes.
    pub queued_rows: u64,
    /// Rows dispatched to workers since launch.
    pub served_rows: u64,
    /// Resident worker threads.
    pub workers: usize,
    /// Nanoseconds since the deployment launched.
    pub uptime_ns: u64,
}

impl DeploymentStats {
    /// Total packets classified across all tenants.
    pub fn total_packets(&self) -> usize {
        self.tenants.iter().map(|t| t.packets).sum()
    }
}

/// Configures and launches a [`Deployment`].
///
/// ```
/// use homunculus_runtime::deploy::{Deployment, SchedulePolicy};
/// use std::time::Duration;
///
/// let deployment = Deployment::builder()
///     .workers(4)
///     .queue_depth(32)
///     .chunk_rows(64)
///     .max_queued_rows(1 << 20)
///     .submit_deadline(Duration::from_millis(50))
///     .fairness_window_rows(8192)
///     .policy(SchedulePolicy::RoundRobin)
///     .build();
/// assert_eq!(deployment.workers(), 4);
/// deployment.shutdown();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentBuilder {
    workers: usize,
    queue_depth: usize,
    chunk_rows: usize,
    max_queued_rows: u64,
    submit_deadline: Option<Duration>,
    fairness_window_rows: u64,
    policy: SchedulePolicy,
    paused: bool,
    record_dispatch: bool,
}

impl Default for DeploymentBuilder {
    fn default() -> Self {
        DeploymentBuilder {
            workers: 1,
            queue_depth: 64,
            chunk_rows: 0,
            max_queued_rows: 0,
            submit_deadline: None,
            fairness_window_rows: 8192,
            policy: SchedulePolicy::RoundRobin,
            paused: false,
            record_dispatch: false,
        }
    }
}

impl DeploymentBuilder {
    /// Resident worker threads; clamped to at least 1.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Maximum tickets in flight (submitted but not completed); clamped to
    /// at least 1. [`Deployment::submit`] blocks at the bound,
    /// [`Deployment::try_submit`] errors instead — backpressure either way.
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Dispatch granularity in rows. `0` keeps each batch one work item;
    /// a positive value splits batches so one tenant's large batch cannot
    /// occupy a worker past the chunk boundary.
    #[must_use]
    pub fn chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = rows;
        self
    }

    /// Row-based admission bound: submissions stall (or error, for
    /// [`Deployment::try_submit`]) while `max_queued_rows` rows are
    /// already waiting in the lanes. `0` (default) disables the row
    /// budget. A batch larger than the whole budget is still admitted
    /// when the lanes are empty, so oversize batches cannot starve. Rows
    /// leave the budget when they are dispatched, not when they complete.
    #[must_use]
    pub fn max_queued_rows(mut self, rows: u64) -> Self {
        self.max_queued_rows = rows;
        self
    }

    /// Upper bound on how long a blocking [`Deployment::submit`] may wait
    /// for admission (ticket depth and row budget) before giving up with
    /// [`RuntimeError::Deadline`]. `None` (default) waits indefinitely.
    /// The deadline covers admission only: an accepted ticket is always
    /// served in full.
    #[must_use]
    pub fn submit_deadline(mut self, deadline: Duration) -> Self {
        self.submit_deadline = Some(deadline);
        self
    }

    /// Fairness-window size in rows for `min_share` floors: every time
    /// the window fills, all share counters halve, so floor accounting
    /// forgets history with a half-life of one window. `0` restores
    /// cumulative-since-launch accounting (a tenant that joins after a
    /// long uptime is then owed its floor of the *entire* history —
    /// the 8-tenant fairness collapse this knob exists to fix).
    #[must_use]
    pub fn fairness_window_rows(mut self, rows: u64) -> Self {
        self.fairness_window_rows = rows;
        self
    }

    /// Default [`SchedulePolicy`] for tenants added via
    /// [`Deployment::add_tenant`] / [`Deployment::add_model`].
    #[must_use]
    pub fn policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Starts the deployment paused: workers accept no items until
    /// [`Deployment::resume`]. Useful to stage a backlog and observe the
    /// scheduler's dispatch order deterministically.
    #[must_use]
    pub fn paused(mut self, paused: bool) -> Self {
        self.paused = paused;
        self
    }

    /// Records every dispatch as `(tenant index, rows)` for
    /// [`Deployment::dispatch_log`] — fairness instrumentation, off by
    /// default.
    #[must_use]
    pub fn record_dispatch(mut self, record: bool) -> Self {
        self.record_dispatch = record;
        self
    }

    /// Launches the resident workers and returns the live deployment.
    pub fn build(self) -> Deployment {
        let workers = self.workers.max(1);
        let shared = Arc::new(Shared {
            tag: next_server_tag(),
            workers,
            queue_depth: self.queue_depth.max(1),
            chunk_rows: self.chunk_rows,
            max_queued_rows: self.max_queued_rows,
            submit_deadline: self.submit_deadline,
            default_policy: self.policy,
            registry: RwLock::new(Vec::new()),
            luts: LutCache::new(),
            sched: Mutex::new(Scheduler::new(
                self.fairness_window_rows,
                self.record_dispatch,
                self.paused,
            )),
            work: Condvar::new(),
            room: Condvar::new(),
            started: Instant::now(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Deployment {
            shared,
            handles: Mutex::new(handles),
        }
    }
}

/// A long-lived multi-tenant serving session over resident workers.
///
/// # Example
///
/// ```
/// use homunculus_backends::model::{DnnIr, ModelIr};
/// use homunculus_ml::mlp::{Activation, Mlp, MlpArchitecture};
/// use homunculus_ml::quantize::FixedPoint;
/// use homunculus_ml::tensor::Matrix;
/// use homunculus_runtime::deploy::Deployment;
/// use homunculus_runtime::serve::TenantBatch;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let deployment = Deployment::builder().workers(2).build();
/// let format = FixedPoint::taurus_default();
/// let arch = MlpArchitecture::new(4, vec![8], 2).with_activation(Activation::Sigmoid);
/// let a = deployment.add_model(
///     "app_a",
///     &ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, 1)?)),
///     format,
///     None,
/// )?;
///
/// let packets = Matrix::from_fn(64, 4, |r, c| (r * 3 + c) as f32 * 0.01);
/// // submit() returns immediately; wait() redeems the verdicts.
/// let ticket = deployment.submit(TenantBatch::new(a, packets))?;
/// let verdicts = ticket.wait();
/// assert_eq!(verdicts.len(), 64);
///
/// deployment.drain();
/// assert_eq!(deployment.stats_snapshot().total_packets(), 64);
/// deployment.shutdown();
/// assert!(deployment.submit(TenantBatch::new(a, Matrix::zeros(1, 4))).is_err());
/// # Ok(())
/// # }
/// ```
pub struct Deployment {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("workers", &self.shared.workers)
            .field("queue_depth", &self.shared.queue_depth)
            .field("chunk_rows", &self.shared.chunk_rows)
            .finish_non_exhaustive()
    }
}

impl Default for Deployment {
    fn default() -> Self {
        Deployment::builder().build()
    }
}

impl Deployment {
    /// Starts configuring a deployment.
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }

    /// Registers an already-compiled pipeline under the builder's default
    /// policy. Callable while the deployment serves traffic.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Serve`] for empty/duplicate names or a
    /// normalizer whose dimensionality disagrees with the pipeline.
    pub fn add_tenant(
        &self,
        name: &str,
        pipeline: CompiledPipeline,
        normalizer: Option<Normalizer>,
    ) -> Result<TenantId> {
        self.add_tenant_with(name, pipeline, normalizer, self.shared.default_policy)
    }

    /// [`add_tenant`](Deployment::add_tenant) with an explicit per-tenant
    /// [`SchedulePolicy`].
    ///
    /// # Errors
    ///
    /// The [`add_tenant`](Deployment::add_tenant) cases, plus an invalid
    /// policy or a `min_share` that would push the sum of active floors
    /// over 1.
    pub fn add_tenant_with(
        &self,
        name: &str,
        pipeline: CompiledPipeline,
        normalizer: Option<Normalizer>,
        policy: SchedulePolicy,
    ) -> Result<TenantId> {
        policy.validate()?;
        if name.is_empty() {
            return Err(RuntimeError::Serve("tenant name must be non-empty".into()));
        }
        if let Some(normalizer) = &normalizer {
            if normalizer.mean.len() != pipeline.n_features()
                || normalizer.std.len() != pipeline.n_features()
            {
                return Err(RuntimeError::Serve(format!(
                    "tenant '{name}': normalizer covers {} mean / {} std features but the \
                     pipeline expects {}",
                    normalizer.mean.len(),
                    normalizer.std.len(),
                    pipeline.n_features()
                )));
            }
        }
        let mut registry = self.shared.registry.write().expect("registry poisoned");
        if registry.iter().any(|s| s.active && s.entry.name == name) {
            return Err(RuntimeError::Serve(format!(
                "tenant '{name}' is already registered"
            )));
        }
        let floor_budget: f64 = registry
            .iter()
            .filter(|s| s.active)
            .map(|s| s.entry.policy.min_share())
            .sum();
        if floor_budget + policy.min_share() > 1.0 {
            return Err(RuntimeError::Serve(format!(
                "tenant '{name}': min_share {} would push the sum of active floors to {:.3} (> 1)",
                policy.min_share(),
                floor_budget + policy.min_share()
            )));
        }
        let index = registry.len();
        let entry = Arc::new(TenantEntry {
            name: name.to_string(),
            normalizer,
            policy,
            accum: Mutex::new(TenantAccum {
                verdict_histogram: vec![0; pipeline.n_classes()],
                ..TenantAccum::default()
            }),
            pipeline,
        });
        registry.push(Slot {
            entry,
            active: true,
        });
        // The lane is pushed while the registry write lock is still held
        // (registry → sched is the lock order), so registry and lane
        // indices can never desynchronize — a tenant visible to
        // `tenant_id`/`submit` always has its lane in place.
        let mut sched = self.shared.sched();
        let join_vt = if sched.current_vt.is_finite() {
            sched.current_vt
        } else {
            0.0
        };
        sched.lanes.push(Lane::new(policy, join_vt));
        Ok(TenantId::mint(index, self.shared.tag))
    }

    /// Compiles a trained IR through the deployment's shared [`LutCache`]
    /// and registers it under the default policy.
    ///
    /// # Errors
    ///
    /// Lowering errors from [`Compile::compile_shared`], plus the
    /// [`add_tenant`](Deployment::add_tenant) cases.
    pub fn add_model(
        &self,
        name: &str,
        ir: &ModelIr,
        format: FixedPoint,
        normalizer: Option<Normalizer>,
    ) -> Result<TenantId> {
        let pipeline = ir.compile_shared(format, &self.shared.luts)?;
        self.add_tenant(name, pipeline, normalizer)
    }

    /// [`add_model`](Deployment::add_model) with an explicit policy.
    ///
    /// # Errors
    ///
    /// As [`add_model`](Deployment::add_model) plus policy validation.
    pub fn add_model_with(
        &self,
        name: &str,
        ir: &ModelIr,
        format: FixedPoint,
        normalizer: Option<Normalizer>,
        policy: SchedulePolicy,
    ) -> Result<TenantId> {
        let pipeline = ir.compile_shared(format, &self.shared.luts)?;
        self.add_tenant_with(name, pipeline, normalizer, policy)
    }

    /// Deactivates a tenant: new submissions are refused, already-accepted
    /// tickets (queued in its lane or in flight) still complete, and
    /// historical stats remain visible in
    /// [`stats_snapshot`](Deployment::stats_snapshot).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Serve`] for foreign, unknown, or
    /// already-removed ids.
    pub fn remove_tenant(&self, id: TenantId) -> Result<()> {
        if id.server() != self.shared.tag {
            return Err(RuntimeError::Serve(format!(
                "{id} was minted by a different deployment"
            )));
        }
        let mut registry = self.shared.registry.write().expect("registry poisoned");
        let slot = registry
            .get_mut(id.index())
            .ok_or_else(|| RuntimeError::Serve(format!("{id} is not registered here")))?;
        if !slot.active {
            return Err(RuntimeError::Serve(format!("{id} was already removed")));
        }
        slot.active = false;
        Ok(())
    }

    /// Number of active tenants.
    pub fn tenant_count(&self) -> usize {
        self.shared
            .registry
            .read()
            .expect("registry poisoned")
            .iter()
            .filter(|s| s.active)
            .count()
    }

    /// Looks up an active tenant's id by name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.shared
            .registry
            .read()
            .expect("registry poisoned")
            .iter()
            .position(|s| s.active && s.entry.name == name)
            .map(|index| TenantId::mint(index, self.shared.tag))
    }

    /// An active tenant's registered name.
    pub fn tenant_name(&self, id: TenantId) -> Option<String> {
        self.entry(id).ok().map(|e| e.name.clone())
    }

    /// An active tenant's expected feature width.
    pub fn n_features(&self, id: TenantId) -> Option<usize> {
        self.entry(id).ok().map(|e| e.pipeline.n_features())
    }

    /// The shared activation-LUT cache used by
    /// [`add_model`](Deployment::add_model).
    pub fn luts(&self) -> &LutCache {
        &self.shared.luts
    }

    /// Resident worker threads.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Maximum tickets in flight before submission backpressure.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth
    }

    /// The row-based admission bound (0 = unbounded).
    pub fn max_queued_rows(&self) -> u64 {
        self.shared.max_queued_rows
    }

    /// The fairness-window size in rows (0 = cumulative floors).
    pub fn fairness_window_rows(&self) -> u64 {
        self.shared.sched().window_rows
    }

    fn entry(&self, id: TenantId) -> Result<Arc<TenantEntry>> {
        if id.server() != self.shared.tag {
            return Err(RuntimeError::Serve(format!(
                "{id} was minted by a different deployment"
            )));
        }
        let registry = self.shared.registry.read().expect("registry poisoned");
        let slot = registry
            .get(id.index())
            .ok_or_else(|| RuntimeError::Serve(format!("{id} is not registered here")))?;
        if !slot.active {
            return Err(RuntimeError::Serve(format!("{id} was removed")));
        }
        Ok(Arc::clone(&slot.entry))
    }

    /// Enqueues a batch and returns its [`Ticket`] without waiting for
    /// verdicts. Blocks only for admission — ticket depth
    /// ([`queue_depth`](DeploymentBuilder::queue_depth)) and the row
    /// budget ([`max_queued_rows`](DeploymentBuilder::max_queued_rows)) —
    /// asleep until a completing ticket or a dispatch frees room; the wait
    /// is bounded by [`submit_deadline`](DeploymentBuilder::submit_deadline)
    /// when one is configured.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Serve`] after
    /// [`shutdown`](Deployment::shutdown), for unknown/removed/foreign
    /// tenants, feature-width mismatches, or oracle-length mismatches;
    /// [`RuntimeError::Deadline`] when admission exceeds the configured
    /// submit deadline.
    pub fn submit(&self, batch: TenantBatch) -> Result<Ticket> {
        self.submit_inner(batch, true)
    }

    /// [`submit`](Deployment::submit) that never waits for admission: a
    /// full ingress (ticket depth or row budget) is an error instead. It
    /// still takes the scheduler lock, for as long as queueing one ticket
    /// takes.
    ///
    /// # Errors
    ///
    /// The [`submit`](Deployment::submit) cases, plus
    /// [`RuntimeError::Serve`] when admission would have to wait.
    pub fn try_submit(&self, batch: TenantBatch) -> Result<Ticket> {
        self.submit_inner(batch, false)
    }

    fn submit_inner(&self, batch: TenantBatch, block: bool) -> Result<Ticket> {
        let shared = &*self.shared;
        let entry = self.entry(batch.tenant)?;
        let rows = batch.features.rows();
        if batch.features.cols() != entry.pipeline.n_features() {
            return Err(RuntimeError::Serve(format!(
                "batch for '{}': {} features per packet but the tenant expects {}",
                entry.name,
                batch.features.cols(),
                entry.pipeline.n_features()
            )));
        }
        if let Some(oracle) = &batch.oracle {
            if oracle.len() != rows {
                return Err(RuntimeError::Serve(format!(
                    "batch for '{}': {} oracle verdicts for {rows} packets",
                    entry.name,
                    oracle.len()
                )));
            }
        }

        let chunk = if shared.chunk_rows == 0 {
            rows.max(1)
        } else {
            shared.chunk_rows
        };
        let n_items = rows.div_ceil(chunk);
        let state = Arc::new(TicketState {
            inner: Mutex::new(TicketInner {
                verdicts: vec![0; rows],
                remaining_items: n_items,
                done: n_items == 0,
                cancelled_rows: 0,
                panicked: None,
            }),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
        });
        let ticket = Ticket {
            state: Arc::clone(&state),
            tenant: batch.tenant,
            rows,
            submitted: Instant::now(),
        };
        if n_items == 0 {
            // An empty batch completes instantly and never occupies queue
            // depth (still validated above like any other submission).
            return Ok(ticket);
        }
        let queued = Queued {
            job: Job {
                entry,
                ticket: state,
                features: Arc::new(batch.features),
                oracle: batch.oracle.map(Arc::new),
            },
            next_row: 0,
            chunk,
        };
        let rows = rows as u64;
        let deadline = shared
            .submit_deadline
            .filter(|_| block)
            .map(|d| Instant::now() + d);

        // Admission is one critical section: both gates are read together
        // and the ticket is queued before the lock releases, so there is
        // nothing to roll back and no shutdown can slip in between.
        let mut sched = shared.sched();
        loop {
            if !sched.open {
                return Err(RuntimeError::Serve(
                    "deployment is shut down; submissions are rejected".into(),
                ));
            }
            let depth_full = sched.in_flight_tickets >= shared.queue_depth;
            // An oversize batch is admitted whenever the lanes are empty
            // so it cannot starve forever.
            let budget_full = shared.max_queued_rows > 0
                && sched.queued_rows > 0
                && sched.queued_rows + rows > shared.max_queued_rows;
            if !depth_full && !budget_full {
                break;
            }
            if !block {
                return Err(RuntimeError::Serve(if depth_full {
                    format!(
                        "ingress queue is full ({} tickets in flight, depth {})",
                        sched.in_flight_tickets, shared.queue_depth
                    )
                } else {
                    format!(
                        "row budget is full ({} rows queued, budget {})",
                        sched.queued_rows, shared.max_queued_rows
                    )
                }));
            }
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                let gate = if depth_full {
                    "ticket-depth"
                } else {
                    "row-budget"
                };
                return Err(RuntimeError::Deadline(format!(
                    "{gate} admission for '{}' ({rows} rows)",
                    queued.job.entry.name
                )));
            }
            sched = shared.wait_for_room(sched, left);
        }
        sched.in_flight_tickets += 1;
        sched.queued_rows += rows;
        sched.submitted_tickets += 1;
        let lane = &mut sched.lanes[batch.tenant.index()];
        lane.queued_rows += rows;
        lane.queue.push_back(queued);
        let wake = !sched.paused && sched.idle_workers > 0;
        drop(sched);
        if wake {
            // One chunk occupies one worker; a ticket of several is worth
            // every idle one.
            if n_items == 1 {
                shared.work.notify_one();
            } else {
                shared.work.notify_all();
            }
        }
        Ok(ticket)
    }

    /// Wakes the workers of a deployment built with
    /// [`paused`](DeploymentBuilder::paused).
    pub fn resume(&self) {
        self.shared.sched().paused = false;
        self.shared.work.notify_all();
    }

    /// Blocks until every accepted ticket has completed (resuming a paused
    /// deployment first — a paused backlog would otherwise never drain).
    /// New submissions remain allowed; use
    /// [`shutdown`](Deployment::shutdown) to also close the ingress.
    pub fn drain(&self) {
        self.resume();
        let mut sched = self.shared.sched();
        while sched.in_flight_tickets > 0 {
            sched = self.shared.wait_for_room(sched, None);
        }
    }

    /// Graceful shutdown: closes the ingress (subsequent
    /// [`submit`](Deployment::submit) returns [`RuntimeError::Serve`]),
    /// completes every already-accepted ticket, and joins the workers.
    /// Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        self.shared.sched().open = false;
        // Blocked submitters leave with an error; idle workers re-check
        // their exit condition.
        self.shared.room.notify_all();
        self.shared.work.notify_all();
        self.drain();
        let handles = std::mem::take(&mut *self.handles.lock().expect("worker handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// A point-in-time snapshot of per-tenant stats, scheduling shares,
    /// and queue counters. Safe to call while traffic flows.
    pub fn stats_snapshot(&self) -> DeploymentStats {
        let registry = self.shared.registry.read().expect("registry poisoned");
        // One pass under the scheduler lock, so shares, gauges and ticket
        // counters are internally consistent.
        let sched = self.shared.sched();
        let lane_rows: Vec<(u64, u64, u64)> = sched
            .lanes
            .iter()
            .map(|lane| (lane.served_rows, lane.win_served, lane.queued_rows))
            .collect();
        let (win_total, total_served) = (sched.win_total, sched.total_served_rows);
        let (submitted_tickets, completed_tickets, cancelled_tickets, queued_rows) = (
            sched.submitted_tickets,
            sched.completed_tickets,
            sched.cancelled_tickets,
            sched.queued_rows,
        );
        drop(sched);

        let mut tenants = Vec::with_capacity(registry.len());
        let mut shares = Vec::with_capacity(registry.len());
        for (index, slot) in registry.iter().enumerate() {
            let id = TenantId::mint(index, self.shared.tag);
            let accum = slot.entry.accum.lock().expect("tenant stats poisoned");
            tenants.push(TenantStats {
                tenant: id,
                name: slot.entry.name.clone(),
                packets: accum.packets,
                verdict_histogram: accum.verdict_histogram.clone(),
                p50_ns: accum.latency.quantile(0.50),
                p99_ns: accum.latency.quantile(0.99),
                mean_ns: accum.latency.mean_ns(),
                oracle_packets: accum.oracle_packets,
                oracle_agreements: accum.oracle_agreements,
            });
            let (served_rows, win_served, queued_rows) = lane_rows[index];
            shares.push(TenantShare {
                tenant: id,
                weight: slot.entry.policy.weight(),
                min_share: slot.entry.policy.min_share(),
                served_rows,
                queued_rows,
                observed_share: if total_served == 0 {
                    0.0
                } else {
                    served_rows as f64 / total_served as f64
                },
                windowed_share: if win_total == 0 {
                    0.0
                } else {
                    win_served as f64 / win_total as f64
                },
                active: slot.active,
            });
        }
        DeploymentStats {
            tenants,
            shares,
            submitted_tickets,
            completed_tickets,
            cancelled_tickets,
            queued_rows,
            served_rows: total_served,
            workers: self.shared.workers,
            uptime_ns: self.shared.started.elapsed().as_nanos() as u64,
        }
    }

    /// The recorded `(tenant index, rows)` dispatch sequence, when the
    /// deployment was built with
    /// [`record_dispatch`](DeploymentBuilder::record_dispatch). Under a
    /// staged (paused-then-resumed) backlog this sequence is a
    /// deterministic function of the scheduling policies alone — for any
    /// worker count.
    pub fn dispatch_log(&self) -> Option<Vec<(usize, usize)>> {
        self.shared.sched().dispatch_log.clone()
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_backends::model::SvmIr;

    fn q() -> FixedPoint {
        FixedPoint::taurus_default()
    }

    /// A hand-built binary SVM: class 1 iff `w . x + b >= 0`.
    fn svm_pipeline(weights: Vec<f32>, bias: f32) -> CompiledPipeline {
        ModelIr::Svm(SvmIr {
            n_features: weights.len(),
            n_classes: 2,
            planes: Some((vec![weights], vec![bias])),
        })
        .compile(q())
        .unwrap()
    }

    fn packets(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * 13 + c * 7 + seed as usize * 3) % 29) as f32 / 29.0 - 0.5
        })
    }

    #[test]
    fn policy_validation() {
        assert!(SchedulePolicy::RoundRobin.validate().is_ok());
        assert!(SchedulePolicy::weighted(2.5).validate().is_ok());
        assert!(SchedulePolicy::weighted(0.0).validate().is_err());
        assert!(SchedulePolicy::weighted(-1.0).validate().is_err());
        assert!(SchedulePolicy::weighted(f64::INFINITY).validate().is_err());
        assert!(SchedulePolicy::weighted(1.0)
            .with_min_share(1.0)
            .validate()
            .is_err());
        assert!(SchedulePolicy::weighted(1.0)
            .with_min_share(-0.1)
            .validate()
            .is_err());
        let floored = SchedulePolicy::RoundRobin.with_min_share(0.3);
        assert_eq!(floored.weight(), 1.0);
        assert_eq!(floored.min_share(), 0.3);
    }

    #[test]
    fn builder_clamps_and_defaults() {
        let deployment = Deployment::builder().workers(0).queue_depth(0).build();
        assert_eq!(deployment.workers(), 1);
        assert_eq!(deployment.queue_depth(), 1);
        assert_eq!(deployment.tenant_count(), 0);
        assert_eq!(deployment.max_queued_rows(), 0);
        assert_eq!(deployment.fairness_window_rows(), 8192);
        deployment.shutdown();
    }

    #[test]
    fn registration_rejects_bad_inputs() {
        let deployment = Deployment::builder().build();
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0, 0.0], 0.0), None)
            .unwrap();
        assert!(deployment
            .add_tenant("app", svm_pipeline(vec![1.0, 0.0], 0.0), None)
            .is_err());
        assert!(deployment
            .add_tenant("", svm_pipeline(vec![1.0], 0.0), None)
            .is_err());
        let bad_norm = Normalizer {
            mean: vec![0.0; 3],
            std: vec![1.0; 3],
        };
        assert!(deployment
            .add_tenant("other", svm_pipeline(vec![1.0, 0.0], 0.0), Some(bad_norm))
            .is_err());
        // A std vector that does not cover every feature is just as
        // corrupting as a short mean — apply() would silently skip the
        // tail features.
        let short_std = Normalizer {
            mean: vec![0.0; 2],
            std: vec![1.0; 1],
        };
        assert!(deployment
            .add_tenant("other", svm_pipeline(vec![1.0, 0.0], 0.0), Some(short_std))
            .is_err());
        // Floors must fit in the aggregate.
        deployment
            .add_tenant_with(
                "floor_a",
                svm_pipeline(vec![1.0], 0.0),
                None,
                SchedulePolicy::weighted(1.0).with_min_share(0.7),
            )
            .unwrap();
        assert!(matches!(
            deployment.add_tenant_with(
                "floor_b",
                svm_pipeline(vec![1.0], 0.0),
                None,
                SchedulePolicy::weighted(1.0).with_min_share(0.4),
            ),
            Err(RuntimeError::Serve(_))
        ));
        assert_eq!(deployment.tenant_id("app"), Some(id));
        assert_eq!(deployment.tenant_name(id).as_deref(), Some("app"));
        assert_eq!(deployment.n_features(id), Some(2));
        assert_eq!(deployment.tenant_count(), 2);
    }

    #[test]
    fn foreign_and_removed_ids_are_rejected() {
        let deployment = Deployment::builder().build();
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0, 0.0], 0.0), None)
            .unwrap();
        let other = Deployment::builder().build();
        let foreign = other
            .add_tenant("impostor", svm_pipeline(vec![1.0, 0.0], 0.0), None)
            .unwrap();
        assert!(deployment
            .submit(TenantBatch::new(foreign, packets(4, 2, 0)))
            .is_err());
        assert!(deployment.remove_tenant(foreign).is_err());
        assert!(deployment.tenant_name(foreign).is_none());

        deployment.remove_tenant(id).unwrap();
        assert!(deployment.remove_tenant(id).is_err(), "double remove");
        assert!(matches!(
            deployment.submit(TenantBatch::new(id, packets(4, 2, 0))),
            Err(RuntimeError::Serve(_))
        ));
        assert_eq!(deployment.tenant_count(), 0);
        assert!(deployment.tenant_id("app").is_none());
        // History survives removal.
        let snapshot = deployment.stats_snapshot();
        assert_eq!(snapshot.tenants.len(), 1);
        assert!(!snapshot.shares[0].active);
    }

    #[test]
    fn submit_validates_widths_and_oracles() {
        let deployment = Deployment::builder().build();
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0, 0.0], 0.0), None)
            .unwrap();
        assert!(deployment
            .submit(TenantBatch::new(id, packets(4, 3, 0)))
            .is_err());
        assert!(deployment
            .submit(TenantBatch::new(id, packets(4, 2, 0)).with_oracle(vec![0; 3]))
            .is_err());
        // Empty batches complete instantly.
        let ticket = deployment
            .submit(TenantBatch::new(id, Matrix::zeros(0, 2)))
            .unwrap();
        assert!(ticket.is_done());
        assert!(ticket.wait().is_empty());
    }

    #[test]
    fn verdicts_match_isolated_classification_under_any_pool_shape() {
        let reference_pipeline = svm_pipeline(vec![1.0, -0.5], 0.1);
        let normalizer = Normalizer {
            mean: vec![0.1, -0.2],
            std: vec![0.5, 2.0],
        };
        // The reference is the per-row entry, never the chunk walk the
        // workers run. 1100 rows leave a partial last chunk for every
        // size, and a partial last block inside the 512-row chunks.
        let features = packets(1100, 2, 3);
        let isolated = crate::pipeline::classify_rows(&reference_pipeline, &features);
        let mut normalized = features.clone();
        for r in 0..normalized.rows() {
            normalizer.apply(normalized.row_mut(r));
        }
        let isolated_normalized = crate::pipeline::classify_rows(&reference_pipeline, &normalized);
        assert_ne!(isolated, isolated_normalized, "the normalizer must matter");
        // Chunk sizes straddle the walk's 32-row block (0 = whole batch).
        for (workers, chunk) in [
            (1, 0),
            (2, 5),
            (4, 1),
            (3, 7),
            (2, 31),
            (1, 32),
            (2, 33),
            (3, 512),
        ] {
            let deployment = Deployment::builder()
                .workers(workers)
                .chunk_rows(chunk)
                .build();
            let plain = deployment
                .add_tenant("app", svm_pipeline(vec![1.0, -0.5], 0.1), None)
                .unwrap();
            let scaled = deployment
                .add_tenant(
                    "scaled",
                    svm_pipeline(vec![1.0, -0.5], 0.1),
                    Some(normalizer.clone()),
                )
                .unwrap();
            for (id, expected) in [(plain, &isolated), (scaled, &isolated_normalized)] {
                let verdicts = deployment
                    .submit(TenantBatch::new(id, features.clone()))
                    .unwrap()
                    .wait();
                assert_eq!(
                    verdicts.as_slice(),
                    &expected[..],
                    "workers={workers} chunk={chunk} tenant={id}"
                );
                assert_eq!(verdicts.tenant, id);
                assert_eq!(verdicts.cancelled_rows(), 0);
            }
            deployment.shutdown();
        }
    }

    #[test]
    fn stats_accumulate_across_submissions() {
        let deployment = Deployment::builder().workers(2).chunk_rows(2).build();
        let id = deployment
            .add_tenant("svm", svm_pipeline(vec![1.0, 0.0], 0.0), None)
            .unwrap();
        let features =
            Matrix::from_rows(&[vec![1.0, 0.0], vec![-1.0, 0.0], vec![2.0, 0.0]]).unwrap();
        let oracle = vec![1, 0, 0]; // last disagrees
        for _ in 0..3 {
            deployment
                .submit(TenantBatch::new(id, features.clone()).with_oracle(oracle.clone()))
                .unwrap()
                .wait();
        }
        let snapshot = deployment.stats_snapshot();
        let stats = &snapshot.tenants[0];
        assert_eq!(stats.packets, 9);
        assert_eq!(stats.verdict_histogram, vec![3, 6]);
        assert_eq!(stats.oracle_packets, 9);
        assert_eq!(stats.oracle_agreements, 6);
        assert!((stats.oracle_agreement().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(snapshot.submitted_tickets, 3);
        assert_eq!(snapshot.completed_tickets, 3);
        assert_eq!(snapshot.cancelled_tickets, 0);
        assert_eq!(snapshot.served_rows, 9);
        assert_eq!(snapshot.queued_rows, 0);
        assert_eq!(snapshot.total_packets(), 9);
        assert!(snapshot.uptime_ns > 0);
        assert!((snapshot.shares[0].observed_share - 1.0).abs() < 1e-12);
        assert!((snapshot.shares[0].windowed_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paused_deployment_dispatches_in_policy_order() {
        // Stage a backlog while paused, then resume: with one lane per
        // tenant and uniform item sizes, round-robin policy must strictly
        // alternate lanes in the dispatch log.
        let deployment = Deployment::builder()
            .workers(2)
            .paused(true)
            .record_dispatch(true)
            .queue_depth(16)
            .build();
        let a = deployment
            .add_tenant("a", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        let b = deployment
            .add_tenant("b", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        let mut tickets = Vec::new();
        for round in 0..4 {
            tickets.push(
                deployment
                    .submit(TenantBatch::new(a, packets(8, 1, round)))
                    .unwrap(),
            );
            tickets.push(
                deployment
                    .submit(TenantBatch::new(b, packets(8, 1, round + 100)))
                    .unwrap(),
            );
        }
        assert!(!tickets[0].is_done(), "paused deployment must not serve");
        deployment.resume();
        deployment.drain();
        for ticket in tickets {
            assert!(ticket.is_done());
        }
        let log = deployment.dispatch_log().expect("dispatch recording on");
        assert_eq!(log.len(), 8);
        let lanes: Vec<usize> = log.iter().map(|&(lane, _)| lane).collect();
        assert_eq!(lanes, vec![0, 1, 0, 1, 0, 1, 0, 1], "round-robin order");
    }

    #[test]
    fn try_submit_reports_backpressure() {
        let deployment = Deployment::builder()
            .workers(1)
            .paused(true)
            .queue_depth(1)
            .build();
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        let first = deployment
            .try_submit(TenantBatch::new(id, packets(4, 1, 0)))
            .unwrap();
        assert!(matches!(
            deployment.try_submit(TenantBatch::new(id, packets(4, 1, 1))),
            Err(RuntimeError::Serve(_))
        ));
        deployment.drain();
        assert!(first.is_done());
        // Space freed: accepted again.
        deployment
            .try_submit(TenantBatch::new(id, packets(4, 1, 2)))
            .unwrap();
    }

    #[test]
    fn row_budget_bounds_queued_rows_but_admits_oversize_batches() {
        let deployment = Deployment::builder()
            .workers(1)
            .paused(true)
            .queue_depth(16)
            .max_queued_rows(10)
            .build();
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        // An oversize batch is admitted while the lanes are empty.
        let big = deployment
            .try_submit(TenantBatch::new(id, packets(32, 1, 0)))
            .unwrap();
        // But with rows queued, the budget rejects further load.
        assert!(matches!(
            deployment.try_submit(TenantBatch::new(id, packets(4, 1, 1))),
            Err(RuntimeError::Serve(_))
        ));
        deployment.drain();
        assert_eq!(big.wait().len(), 32);
        // Budget released once dispatched: small batches fit again.
        deployment
            .try_submit(TenantBatch::new(id, packets(4, 1, 2)))
            .unwrap();
        deployment.drain();
    }

    #[test]
    fn submit_deadline_bounds_blocking_admission() {
        let deployment = Deployment::builder()
            .workers(1)
            .paused(true)
            .queue_depth(1)
            .submit_deadline(Duration::from_millis(10))
            .build();
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        let first = deployment
            .submit(TenantBatch::new(id, packets(4, 1, 0)))
            .unwrap();
        // The paused worker never frees depth: the blocking submit must
        // give up at the deadline instead of hanging.
        assert!(matches!(
            deployment.submit(TenantBatch::new(id, packets(4, 1, 1))),
            Err(RuntimeError::Deadline(_))
        ));
        deployment.drain();
        assert!(first.is_done());
    }

    #[test]
    fn cancel_skips_unprocessed_chunks_deterministically() {
        let deployment = Deployment::builder()
            .workers(2)
            .paused(true)
            .chunk_rows(4)
            .build();
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        let ticket = deployment
            .submit(TenantBatch::new(id, packets(32, 1, 0)))
            .unwrap();
        assert!(!ticket.is_cancelled());
        assert!(ticket.cancel(), "first cancel request wins");
        assert!(!ticket.cancel(), "second cancel is a no-op");
        assert!(ticket.is_cancelled());
        deployment.resume();
        deployment.drain();
        let snapshot = deployment.stats_snapshot();
        assert_eq!(snapshot.completed_tickets, 1);
        assert_eq!(snapshot.cancelled_tickets, 1);
        // Cancelled before any chunk ran: every slot keeps its
        // deterministic 0 fill and no packet hits the tenant stats.
        assert_eq!(snapshot.tenants[0].packets, 0);
        let verdicts = ticket.wait();
        assert_eq!(verdicts.cancelled_rows(), 32);
        assert!(verdicts.as_slice().iter().all(|&v| v == 0));
        deployment.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_closes_ingress() {
        let deployment = Deployment::builder().workers(2).build();
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        let ticket = deployment
            .submit(TenantBatch::new(id, packets(16, 1, 0)))
            .unwrap();
        deployment.shutdown();
        assert!(ticket.is_done(), "in-flight ticket completes on shutdown");
        assert!(matches!(
            deployment.submit(TenantBatch::new(id, packets(4, 1, 0))),
            Err(RuntimeError::Serve(_))
        ));
        deployment.shutdown(); // second call is a no-op
    }

    /// A result computed on a thread of its own, so a wake-up the monitor
    /// lost fails the test by timeout instead of hanging the suite.
    struct Pending<T> {
        result: std::sync::mpsc::Receiver<T>,
        thread: JoinHandle<()>,
    }

    fn spawn<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Pending<T> {
        let (tx, result) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        Pending { result, thread }
    }

    impl<T> Pending<T> {
        fn is_pending(&self) -> bool {
            matches!(
                self.result.try_recv(),
                Err(std::sync::mpsc::TryRecvError::Empty)
            )
        }

        fn get(self, what: &str) -> T {
            use std::sync::mpsc::RecvTimeoutError;
            match self.result.recv_timeout(Duration::from_secs(10)) {
                Ok(value) => {
                    self.thread.join().expect("the thread sent its result");
                    value
                }
                Err(RecvTimeoutError::Timeout) => panic!("{what}: no result in 10 s"),
                // The closure panicked (an assertion of its own): re-raise it.
                Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
                    self.thread
                        .join()
                        .expect_err("the sender was dropped unsent"),
                ),
            }
        }
    }

    fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        spawn(f).get(what)
    }

    /// Waits (bounded) for other threads to bring the scheduler, read
    /// under its lock, to the state `reached` describes.
    fn settle(
        deployment: &Deployment,
        limit: Duration,
        what: &str,
        reached: impl Fn(&Scheduler) -> bool,
    ) {
        let deadline = Instant::now() + limit;
        while !reached(&deployment.shared.sched()) {
            assert!(Instant::now() < deadline, "{what}: not within {limit:?}");
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }

    const SETTLE: Duration = Duration::from_secs(10);

    #[test]
    fn worker_panic_completes_the_ticket_and_spares_the_pool() {
        let deployment = Arc::new(Deployment::builder().workers(1).chunk_rows(4).build());
        let normalizer = Normalizer {
            mean: vec![0.1, -0.2],
            std: vec![0.5, 2.0],
        };
        let healthy = deployment
            .add_tenant(
                "healthy",
                svm_pipeline(vec![1.0, -0.5], 0.1),
                Some(normalizer.clone()),
            )
            .unwrap();
        let poisoned = deployment
            .add_tenant("poisoned", svm_pipeline(vec![1.0, -0.5], 0.1), None)
            .unwrap();
        // Behind the registration checks: a normalizer one column short
        // makes `Normalizer::apply` panic inside the worker.
        deployment.shared.registry.write().unwrap()[poisoned.index()].entry =
            Arc::new(TenantEntry {
                name: "poisoned".into(),
                pipeline: svm_pipeline(vec![1.0, -0.5], 0.1),
                normalizer: Some(Normalizer {
                    mean: vec![0.0],
                    std: vec![1.0],
                }),
                policy: SchedulePolicy::RoundRobin,
                accum: Mutex::new(TenantAccum::default()),
            });

        let ticket = deployment
            .submit(TenantBatch::new(poisoned, packets(9, 2, 1)))
            .unwrap();
        deployment.drain();
        assert!(ticket.is_done(), "a panicking chunk still completes");
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait()))
            .expect_err("wait() re-raises the worker's panic");
        let message = panic_message(payload.as_ref());
        assert!(message.contains(&poisoned.to_string()), "{message}");
        assert!(message.contains("dimensionality mismatch"), "{message}");

        // The one worker survived, and serves the next tenant correctly.
        let features = packets(70, 2, 5);
        let mut normalized = features.clone();
        for r in 0..normalized.rows() {
            normalizer.apply(normalized.row_mut(r));
        }
        let expected =
            crate::pipeline::classify_rows(&svm_pipeline(vec![1.0, -0.5], 0.1), &normalized);
        let verdicts = deployment
            .submit(TenantBatch::new(healthy, features.clone()))
            .unwrap()
            .wait();
        assert_eq!(verdicts.as_slice(), &expected[..]);
        let snapshot = deployment.stats_snapshot();
        assert_eq!(snapshot.completed_tickets, 2);
        assert_eq!(snapshot.tenants[poisoned.index()].packets, 0);
        assert_eq!(snapshot.tenants[healthy.index()].packets, 70);

        // Worse than a tenant panic: a thread dies *holding the scheduler
        // lock*. Every entry that crosses the lock must still complete.
        let shared = Arc::clone(&deployment.shared);
        let died = std::thread::spawn(move || {
            let _guard = shared.sched.lock().unwrap();
            panic!("poisoning the scheduler lock on purpose");
        })
        .join();
        assert!(died.is_err() && deployment.shared.sched.is_poisoned());

        let served = within("submit → wait on a poisoned scheduler", {
            let (deployment, features) = (Arc::clone(&deployment), features.clone());
            move || {
                deployment
                    .submit(TenantBatch::new(healthy, features))
                    .unwrap()
                    .wait()
            }
        });
        assert_eq!(served.as_slice(), &expected[..]);
        let served = within("try_submit → drain on a poisoned scheduler", {
            let deployment = Arc::clone(&deployment);
            move || {
                let ticket = deployment
                    .try_submit(TenantBatch::new(healthy, features))
                    .unwrap();
                deployment.drain();
                assert!(ticket.is_done());
                ticket.wait()
            }
        });
        assert_eq!(served.as_slice(), &expected[..]);
        let snapshot = within("stats_snapshot → shutdown on a poisoned scheduler", {
            let deployment = Arc::clone(&deployment);
            move || {
                let snapshot = deployment.stats_snapshot();
                deployment.shutdown();
                snapshot
            }
        });
        assert_eq!(snapshot.completed_tickets, 4);
        assert_eq!(snapshot.tenants[healthy.index()].packets, 210);
        assert!(deployment
            .submit(TenantBatch::new(healthy, packets(1, 2, 0)))
            .is_err());
    }

    #[test]
    fn blocked_submit_is_admitted_when_the_in_flight_ticket_completes() {
        // No deadline: only the completing ticket's signal on `room` can
        // release the second submit.
        let deployment = Arc::new(
            Deployment::builder()
                .workers(1)
                .paused(true)
                .queue_depth(1)
                .build(),
        );
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        let first = deployment
            .submit(TenantBatch::new(id, packets(4, 1, 0)))
            .unwrap();
        let second = spawn({
            let deployment = Arc::clone(&deployment);
            move || deployment.submit(TenantBatch::new(id, packets(6, 1, 1)))
        });
        settle(&deployment, SETTLE, "second submit blocks", |sched| {
            sched.room_waiters == 1
        });
        assert!(second.is_pending(), "depth 1 is taken: submit must wait");
        deployment.resume();
        let second = second.get("blocked submit after completion").unwrap();
        assert!(
            first.is_done(),
            "room came from the first ticket completing"
        );
        assert_eq!(within("second ticket", move || second.wait()).len(), 6);
    }

    #[test]
    fn shutdown_releases_a_submit_blocked_on_a_paused_full_deployment() {
        let deployment = Arc::new(
            Deployment::builder()
                .workers(1)
                .paused(true)
                .queue_depth(1)
                .build(),
        );
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        let first = deployment
            .submit(TenantBatch::new(id, packets(4, 1, 0)))
            .unwrap();
        let blocked = spawn({
            let deployment = Arc::clone(&deployment);
            move || deployment.submit(TenantBatch::new(id, packets(4, 1, 1)))
        });
        settle(&deployment, SETTLE, "submit blocks", |sched| {
            sched.room_waiters == 1
        });
        within("shutdown with a blocked submitter", {
            let deployment = Arc::clone(&deployment);
            move || deployment.shutdown()
        });
        match blocked.get("submit blocked across shutdown") {
            Err(RuntimeError::Serve(_)) => {}
            Ok(ticket) => assert_eq!(within("late ticket", move || ticket.wait()).len(), 4),
            Err(other) => panic!("blocked submit failed with {other}"),
        }
        assert!(first.is_done(), "shutdown serves what was accepted");
    }

    #[test]
    fn blocked_submit_is_admitted_when_the_row_budget_frees() {
        // Depth is ample; only the row budget holds the second submit,
        // and rows leave the budget at dispatch.
        let deployment = Arc::new(
            Deployment::builder()
                .workers(1)
                .paused(true)
                .queue_depth(16)
                .max_queued_rows(10)
                .build(),
        );
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        let first = deployment
            .submit(TenantBatch::new(id, packets(8, 1, 0)))
            .unwrap();
        let second = spawn({
            let deployment = Arc::clone(&deployment);
            move || deployment.submit(TenantBatch::new(id, packets(8, 1, 1)))
        });
        settle(&deployment, SETTLE, "second submit blocks", |sched| {
            sched.room_waiters == 1 && sched.in_flight_tickets == 1
        });
        assert!(second.is_pending(), "8 + 8 rows exceed the budget of 10");
        deployment.resume();
        let second = second.get("submit blocked on the row budget").unwrap();
        assert_eq!(within("second ticket", move || second.wait()).len(), 8);
        assert!(first.is_done());
    }

    #[test]
    fn idle_workers_park_and_wake_on_resume_and_drain_returns_at_once() {
        let deployment = Arc::new(Deployment::builder().workers(4).paused(true).build());
        // The structural form of "an idle deployment costs no CPU".
        settle(
            &deployment,
            Duration::from_secs(1),
            "all four workers asleep on `work`",
            |sched| sched.idle_workers == 4,
        );
        within("drain of an idle deployment", {
            let deployment = Arc::clone(&deployment);
            move || deployment.drain()
        });
        // drain() resumed it; stage a backlog behind parked workers again.
        deployment.shared.sched().paused = true;
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        let tickets: Vec<_> = (0..4)
            .map(|seed| {
                deployment
                    .submit(TenantBatch::new(id, packets(5, 1, seed)))
                    .unwrap()
            })
            .collect();
        settle(&deployment, SETTLE, "workers asleep again", |sched| {
            sched.idle_workers == 4
        });
        assert!(tickets.iter().all(|ticket| !ticket.is_done()));
        deployment.resume();
        let rows = within("tickets staged behind parked workers", move || {
            tickets
                .into_iter()
                .map(|ticket| ticket.wait().len())
                .sum::<usize>()
        });
        assert_eq!(rows, 20);
    }

    /// `count` one-row tickets for a staged scheduler fixture.
    fn one_row_tickets(count: usize) -> VecDeque<Queued> {
        let entry = Arc::new(TenantEntry {
            name: "staged".into(),
            pipeline: svm_pipeline(vec![1.0], 0.0),
            normalizer: None,
            policy: SchedulePolicy::RoundRobin,
            accum: Mutex::new(TenantAccum::default()),
        });
        let features = Arc::new(packets(1, 1, 0));
        (0..count)
            .map(|_| Queued {
                job: Job {
                    entry: Arc::clone(&entry),
                    ticket: Arc::new(TicketState {
                        inner: Mutex::new(TicketInner {
                            verdicts: vec![0],
                            remaining_items: 1,
                            done: false,
                            cancelled_rows: 0,
                            panicked: None,
                        }),
                        done: Condvar::new(),
                        cancelled: AtomicBool::new(false),
                    }),
                    features: Arc::clone(&features),
                    oracle: None,
                },
                next_row: 0,
                chunk: 1,
            })
            .collect()
    }

    /// Appends a backlogged `(weight, min_share)` lane holding `items`
    /// one-row tickets, joining at virtual time `vt`.
    fn stage_lane(sched: &mut Scheduler, weight: f64, min_share: f64, items: usize, vt: f64) {
        let mut lane = Lane::new(SchedulePolicy::Weighted { weight, min_share }, vt);
        lane.idle = false;
        lane.queue = one_row_tickets(items);
        lane.queued_rows = items as u64;
        sched.queued_rows += items as u64;
        sched.lanes.push(lane);
    }

    /// Dispatches one chunk and returns the lane it came from.
    fn pop_lane(sched: &mut Scheduler) -> usize {
        sched.pop_next().expect("backlogged");
        sched.dispatch_log.as_ref().unwrap().last().unwrap().0
    }

    #[test]
    fn floor_pass_picks_do_not_inflate_the_join_frontier() {
        // Regression: `current_vt` (the virtual time newly-joining lanes
        // adopt) must track the *minimum* backlogged vt, not the picked
        // lane's. A tiny-weight floored lane accumulates an enormous vt
        // (rows / 0.05); if a floor pick published that as the frontier,
        // a tenant added later would start hopelessly "ahead" and starve
        // behind every incumbent until the pool caught up.
        //
        // Lane 0: tiny weight, 50% floor — the floor pass serves it
        // constantly and its vt rockets. Lane 1: a normal tenant.
        let mut sched = Scheduler::new(0, true, false);
        stage_lane(&mut sched, 0.05, 0.5, 50, 0.0);
        stage_lane(&mut sched, 1.0, 0.0, 50, 0.0);
        for _ in 0..40 {
            sched.pop_next().expect("backlogged");
        }
        let floored = &sched.lanes[0];
        assert!(
            floored.served_rows >= 19,
            "floor held ~half the dispatches, got {}",
            floored.served_rows
        );
        assert!(
            sched.current_vt < floored.vt / 10.0,
            "join frontier {} trailed the floored lane's inflated vt {}",
            sched.current_vt,
            floored.vt
        );
        // A lane joining now at the frontier competes immediately: it
        // wins a stride-pass pick within the first few dispatches.
        let frontier = sched.current_vt;
        stage_lane(&mut sched, 1.0, 0.0, 50, frontier);
        let picks: Vec<usize> = (0..6).map(|_| pop_lane(&mut sched)).collect();
        assert!(
            picks.contains(&2),
            "newly-joined lane never dispatched: {picks:?}"
        );
    }

    #[test]
    fn windowed_floors_forget_stale_history() {
        // One tenant (lane 1) serves alone for a long stretch; then a
        // floored tenant (lane 0) becomes backlogged. Under cumulative
        // accounting the floored lane is owed 40% of the *entire* history
        // and monopolizes dispatch for hundreds of rows; with a decaying
        // window its deficit is bounded by O(window) and the incumbent
        // resumes service almost immediately.
        let catchup = |window_rows: u64| -> usize {
            let mut sched = Scheduler::new(window_rows, true, false);
            stage_lane(&mut sched, 1.0, 0.4, 400, 0.0);
            stage_lane(&mut sched, 1.0, 0.0, 1000, 0.0);
            // Stage 1: only lane 1 is backlogged (lane 0's tickets are
            // held aside to simulate late arrival).
            let held = std::mem::take(&mut sched.lanes[0].queue);
            for _ in 0..600 {
                assert_eq!(pop_lane(&mut sched), 1, "only lane 1 has work");
            }
            // Stage 2: the floored lane arrives with its backlog.
            sched.lanes[0].queue = held;
            // Count consecutive floor-driven picks of lane 0 before the
            // incumbent is served again.
            let mut exclusive = 0;
            while pop_lane(&mut sched) == 0 {
                exclusive += 1;
                assert!(exclusive < 500, "floored lane monopolized dispatch");
            }
            exclusive
        };
        let cumulative = catchup(0);
        let windowed = catchup(64);
        // Cumulative: lane 0 must climb to 40% of 600+ rows ≈ 400 solo
        // dispatches. Windowed: the whole deficit is one 64-row window.
        assert!(
            cumulative > 100,
            "cumulative floors should over-serve the late joiner, got {cumulative}"
        );
        assert!(
            windowed <= 64,
            "windowed floors must bound catch-up to one window, got {windowed}"
        );
        assert!(
            windowed * 4 < cumulative,
            "window should shrink catch-up dramatically: {windowed} vs {cumulative}"
        );
    }

    #[test]
    fn deployment_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Deployment>();
        assert_send_sync::<Ticket>();
        assert_send_sync::<Verdicts>();
        assert_send_sync::<DeploymentStats>();
    }
}

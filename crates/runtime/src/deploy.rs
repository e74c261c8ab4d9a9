//! Persistent deployment serving: resident workers behind one monitor,
//! with windowed tenant QoS.
//!
//! A switch data plane never stops — the paper's serving story (and
//! Taurus, which it compiles for) is a resident pipeline with per-model
//! throughput floors, not a worker pool spawned and joined around every
//! batch. This module is that model's software twin and the runtime's one
//! serving frontend:
//!
//! - a [`Deployment`] owns **resident worker threads** fed by one
//!   monitor (*The ingress monitor* below);
//! - the chunk is the unit of everything a worker does — dispatch,
//!   fairness, cancellation, panic isolation, classification (one call
//!   into the 32-row block walk of [`crate::batch`]), timing and stats. A
//!   lane holds whole tickets, and dispatch carves the next
//!   [`chunk_rows`](DeploymentBuilder::chunk_rows) off the front one;
//! - [`Deployment::submit`] queues a [`TenantBatch`] and hands back a
//!   [`Ticket`] whose [`wait`](Ticket::wait) yields its [`Verdicts`];
//!   admission bounds tickets and rows in flight, and an accepted ticket
//!   can be [cancelled](Ticket::cancel);
//! - tenants are added and removed **at runtime**
//!   ([`add_tenant`](Deployment::add_tenant) /
//!   [`remove_tenant`](Deployment::remove_tenant)), and
//!   [`stats_snapshot`](Deployment::stats_snapshot) reads live counters;
//! - each tenant carries a [`SchedulePolicy`]: round-robin, or a weighted
//!   share with an optional **minimum-share floor** — the paper's
//!   per-model throughput guarantees — accounted over a **decaying
//!   window** ([`fairness_window_rows`](DeploymentBuilder::fairness_window_rows)),
//!   so a late joiner is owed at most one window of catch-up;
//! - [`drain`](Deployment::drain) and [`shutdown`](Deployment::shutdown)
//!   complete every accepted ticket; shutdown refuses new ones.
//!
//! # The ingress monitor
//!
//! One `Mutex<Scheduler>` is the whole ingress, and `Scheduler` is the
//! only code that changes it: each transition is one method that returns
//! the `Wake` it owes, and `Shared::wake`, the one place either condvar is
//! signalled, sends it once the lock is released. An idle worker sleeps on
//! `work` until `dispatch` yields a chunk or the exit; a blocked
//! [`submit`](Deployment::submit) sleeps on `room` until `admit` takes its
//! ticket or refuses it `Closed`, and [`drain`](Deployment::drain) until no
//! ticket is in flight.
//!
//! | transition (caller) | `work` | `room` |
//! |---|---|---|
//! | `admit` ([`submit`](Deployment::submit), [`try_submit`](Deployment::try_submit)) | `One` for a one-chunk ticket, `All` otherwise — only when running with `idle_workers > 0` | — |
//! | `dispatch` (a worker) | — | when a row budget is set and `room_waiters > 0`: the budget frees at *dispatch*, not completion |
//! | `complete` (a ticket's last chunk) | `All` when it empties a closed deployment with `idle_workers > 0` | when `room_waiters > 0` |
//! | `resume` ([`resume`](Deployment::resume), [`drain`](Deployment::drain)) | `All` | — |
//! | `close` ([`shutdown`](Deployment::shutdown)) | `All` | always |
//!
//! **No wake-up can be lost:** every field a waiter's predicate reads is
//! written only by a transition, under the mutex; a waiter re-checks its
//! predicate under the mutex, and `Condvar::wait` releases it atomically
//! with going to sleep; a transition that can turn a predicate true
//! returns the wake `Shared::wake` then sends. So a waiter either sees the
//! new state, or was asleep when the transition ran and is woken. The
//! `idle_workers` / `room_waiters` gauges, kept around each wait, only
//! suppress wakes nobody would receive, and each wait loops over its
//! predicate, so spurious wake-ups are harmless.
//!
//! Lock order: `registry` → `sched`, and a ticket's own lock → `sched`
//! (a completing chunk settles the deployment's counters before the ticket
//! lock releases); nothing is acquired while `sched` is held, and no lock
//! is held across `classify_chunk`. The scheduler lock is taken
//! poison-tolerantly: its critical sections only move counters and queue
//! entries, so state a panicking holder leaves behind is still a valid
//! scheduler, and a panic can cost a ticket but never wedge the pool.
//!
//! **Nothing polls, and there is no spin phase.** Waking on the event
//! instead of a timer took hbench `deploy_trickle` p50 from 47 to 24 µs
//! (2 vCPUs), for a futex wake per submit that finds a worker parked. A
//! 50 µs spin before parking cut p50 to 3.8 µs but cost +29 % `setup_s`.
//!
//! # Determinism contract
//!
//! Verdicts stay **bit-wise deterministic**: every chunk writes into
//! pre-assigned slots of its ticket, so for a fixed submission sequence the
//! verdict vectors are identical under any worker count or queue depth
//! (`tests/golden_determinism.rs` pins this). The scheduler's pick
//! sequence is a pure function of lane state, so under a staged backlog
//! (paused, then resumed) the dispatch log is identical for any worker
//! count; under live submission the order of *admissions* is racy.

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

/// Running per-tenant counters, merged across every completed chunk. Each
/// chunk folds its service time per row into a fixed-size
/// [`LatencyHistogram`], so an always-on deployment's stats are bounded.
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

/// The state of the ingress monitor (module docs): the lanes, the
/// dispatcher's accounting, and every flag, gauge and counter a waiter's
/// predicate or an admission decision reads. Every pick is a pure function
/// of lane state, never of which worker runs it.
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
    /// The two admission bounds: tickets in flight, and queued rows
    /// (`0` = no row budget).
    queue_depth: usize,
    max_queued_rows: u64,
    /// Workers asleep on `work`, and submitters plus drainers asleep on
    /// `room`: a signal is skipped when nobody would receive it.
    idle_workers: usize,
    room_waiters: usize,
    submitted_tickets: u64,
    completed_tickets: u64,
    cancelled_tickets: u64,
}

/// Which sleepers a [`Scheduler`] transition must wake (`Shared::wake`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wake {
    work: Notify,
    room: bool,
}

impl Wake {
    fn new(work: Notify, room: bool) -> Self {
        Wake { work, room }
    }
}

/// How many of the workers asleep on `work` a transition wakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Notify {
    None,
    One,
    All,
}

/// The reason [`Scheduler::admit`] refused a ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    Closed,
    Depth,
    Budget,
}

/// [`Scheduler::admit`]'s verdict: the wake, or the refused ticket back.
type Admission = std::result::Result<Wake, (Refusal, Queued)>;

/// A worker's next step, from [`Scheduler::dispatch`].
#[derive(Debug)]
enum Dispatch {
    Chunk(Chunk, Wake),
    Idle,
    Exit,
}

impl Scheduler {
    fn new(config: &DeploymentBuilder) -> Self {
        Scheduler {
            window_rows: config.fairness_window_rows,
            dispatch_log: config.record_dispatch.then(Vec::new),
            open: true,
            paused: config.paused,
            queue_depth: config.queue_depth.max(1),
            max_queued_rows: config.max_queued_rows,
            ..Scheduler::default()
        }
    }

    /// Queues `queued` on `lane` if both gates — ticket depth and the row
    /// budget — admit it, or hands it back refused, with nothing to roll
    /// back. An empty ticket meets only the `Closed` check: it is complete
    /// already and takes no queue depth.
    fn admit(&mut self, lane: usize, queued: Queued) -> Admission {
        let rows = queued.job.features.rows() as u64;
        if !self.open {
            return Err((Refusal::Closed, queued));
        }
        if rows == 0 {
            return Ok(Wake::new(Notify::None, false));
        }
        if self.in_flight_tickets >= self.queue_depth {
            return Err((Refusal::Depth, queued));
        }
        // An oversize batch is admitted whenever the lanes are empty so it
        // cannot starve forever.
        if self.max_queued_rows > 0
            && self.queued_rows > 0
            && self.queued_rows + rows > self.max_queued_rows
        {
            return Err((Refusal::Budget, queued));
        }
        let one_chunk = rows <= queued.chunk as u64;
        self.in_flight_tickets += 1;
        self.queued_rows += rows;
        self.submitted_tickets += 1;
        let lane = &mut self.lanes[lane];
        lane.queued_rows += rows;
        lane.queue.push_back(queued);
        // One chunk occupies one worker; a ticket of several is worth
        // every idle one.
        let work = match (!self.paused && self.idle_workers > 0, one_chunk) {
            (false, _) => Notify::None,
            (true, true) => Notify::One,
            (true, false) => Notify::All,
        };
        Ok(Wake::new(work, false))
    }

    /// A ticket's last chunk finished: its depth frees for `room`, and the
    /// last ticket of a closed deployment releases sleeping workers to exit.
    fn complete(&mut self, cancelled: bool) -> Wake {
        self.completed_tickets += 1;
        self.cancelled_tickets += u64::from(cancelled);
        self.in_flight_tickets -= 1;
        let exit = !self.open && self.in_flight_tickets == 0 && self.idle_workers > 0;
        let work = if exit { Notify::All } else { Notify::None };
        Wake::new(work, self.room_waiters > 0)
    }

    fn resume(&mut self) -> Wake {
        self.paused = false;
        Wake::new(Notify::All, false)
    }

    /// Blocked submitters leave refused; idle workers re-check their exit.
    fn close(&mut self) -> Wake {
        self.open = false;
        Wake::new(Notify::All, true)
    }

    /// A new tenant's lane joins at the frontier; being empty, it wakes nobody.
    fn add_lane(&mut self, policy: SchedulePolicy) {
        let join_vt = if self.current_vt.is_finite() {
            self.current_vt
        } else {
            0.0
        };
        self.lanes.push(Lane::new(policy, join_vt));
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

    /// Unless paused, carves the next chunk off the lane the policy picks;
    /// else the worker idles, or exits once closed with nothing in flight
    /// (admission shares the lock: no chunk appears after the last exit).
    fn dispatch(&mut self) -> Dispatch {
        // Idle/rejoin scan: a lane the scheduler last saw empty rejoins
        // the virtual-time frontier when it becomes backlogged again.
        if !self.paused {
            for lane in &mut self.lanes {
                let backlogged = !lane.queue.is_empty();
                if lane.idle && backlogged {
                    lane.vt = lane.vt.max(self.current_vt);
                    lane.idle = false;
                } else if !lane.idle && !backlogged {
                    lane.idle = true;
                }
            }
        }
        let Some(index) = self.pick_lane().filter(|_| !self.paused) else {
            return if !self.open && self.in_flight_tickets == 0 {
                Dispatch::Exit
            } else {
                Dispatch::Idle
            };
        };
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
        let taken = rows as u64;
        let job = if front.next_row == front.job.features.rows() {
            // The last chunk takes the ticket's handles with it.
            lane.queue.pop_front().expect("front exists").job
        } else {
            front.job.clone()
        };

        lane.queued_rows -= taken;
        lane.served_rows += taken;
        lane.win_served += taken;
        lane.vt += taken.max(1) as f64 / lane.weight;
        self.queued_rows -= taken;
        self.total_served_rows += taken;
        self.win_total += taken;
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
            log.push((index, rows));
        }
        // The row budget frees at dispatch, so a submitter it holds is
        // told now, not at ticket completion.
        let room = self.max_queued_rows > 0 && self.room_waiters > 0;
        Dispatch::Chunk(Chunk { job, start, rows }, Wake::new(Notify::None, room))
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
    /// Chunks not yet completed; the ticket is done at 0.
    remaining_items: usize,
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
        self.state
            .inner
            .lock()
            .expect("ticket poisoned")
            .remaining_items
            == 0
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
        while inner.remaining_items > 0 {
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
    chunk_rows: usize,
    submit_deadline: Option<Duration>,
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

    /// Sends a transition's wake; called with the scheduler lock released.
    /// The only place either condvar is signalled.
    fn wake(&self, wake: Wake) {
        if wake.room {
            self.room.notify_all();
        }
        match wake.work {
            Notify::None => {}
            Notify::One => self.work.notify_one(),
            Notify::All => self.work.notify_all(),
        }
    }

    /// Runs one transition under the lock, then sends its wake.
    fn apply(&self, transition: impl FnOnce(&mut Scheduler) -> Wake) {
        let wake = transition(&mut self.sched());
        self.wake(wake);
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
        let mut sched = shared.sched();
        let (chunk, wake) = loop {
            match sched.dispatch() {
                Dispatch::Chunk(chunk, wake) => break (chunk, wake),
                Dispatch::Exit => return,
                Dispatch::Idle => {
                    sched.idle_workers += 1;
                    sched = shared
                        .work
                        .wait(sched)
                        .unwrap_or_else(PoisonError::into_inner);
                    sched.idle_workers -= 1;
                }
            }
        };
        drop(sched);
        shared.wake(wake);
        if !process_chunk(shared, chunk, &mut scratch, &mut verdicts) {
            // A classify panic may have left the reusable buffers in an
            // arbitrary (but memory-safe) state; start the next chunk clean.
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
/// re-raise), so a model bug can never wedge `drain`/`shutdown`/`Drop`.
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
    // The deployment's counters settle *before* the ticket lock
    // releases: anyone returning from `Ticket::wait` observes counters
    // and an in-flight gauge that already account for this ticket.
    let wake = shared.sched().complete(inner.cancelled_rows > 0);
    drop(inner);
    ticket.done.notify_all();
    shared.wake(wake);
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
/// use homunculus_runtime::deploy::Deployment;
/// use std::time::Duration;
///
/// let deployment = Deployment::builder()
///     .workers(4)
///     .queue_depth(32)
///     .chunk_rows(64)
///     .max_queued_rows(1 << 20)
///     .submit_deadline(Duration::from_millis(50))
///     .fairness_window_rows(8192)
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
            chunk_rows: self.chunk_rows,
            submit_deadline: self.submit_deadline,
            registry: RwLock::new(Vec::new()),
            luts: LutCache::new(),
            sched: Mutex::new(Scheduler::new(&self)),
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
            .field("queue_depth", &self.queue_depth())
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

    /// Registers an already-compiled pipeline under
    /// [`SchedulePolicy::RoundRobin`]. Callable while the deployment serves
    /// traffic.
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
        self.add_tenant_with(name, pipeline, normalizer, SchedulePolicy::RoundRobin)
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
        self.shared.sched().add_lane(policy);
        Ok(TenantId::mint(index, self.shared.tag))
    }

    /// Compiles a trained IR through the deployment's shared [`LutCache`]
    /// and registers it under [`SchedulePolicy::RoundRobin`].
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
        self.add_model_with(name, ir, format, normalizer, SchedulePolicy::RoundRobin)
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
        self.registry().iter().filter(|s| s.active).count()
    }

    /// Looks up an active tenant's id by name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.registry()
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
        self.shared.sched().queue_depth
    }

    /// The row-based admission bound (0 = unbounded).
    pub fn max_queued_rows(&self) -> u64 {
        self.shared.sched().max_queued_rows
    }

    /// The fairness-window size in rows (0 = cumulative floors).
    pub fn fairness_window_rows(&self) -> u64 {
        self.shared.sched().window_rows
    }

    fn registry(&self) -> std::sync::RwLockReadGuard<'_, Vec<Slot>> {
        self.shared.registry.read().expect("registry poisoned")
    }

    fn entry(&self, id: TenantId) -> Result<Arc<TenantEntry>> {
        if id.server() != self.shared.tag {
            return Err(RuntimeError::Serve(format!(
                "{id} was minted by a different deployment"
            )));
        }
        let registry = self.registry();
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

        let chunk = match shared.chunk_rows {
            0 => rows.max(1),
            chunk => chunk,
        };
        // An empty batch has no chunk to wait for, so its ticket is done
        // already; `admit` only checks that the deployment is open.
        let mut queued = Queued {
            job: Job {
                entry,
                ticket: Arc::new(TicketState {
                    inner: Mutex::new(TicketInner {
                        verdicts: vec![0; rows],
                        remaining_items: rows.div_ceil(chunk),
                        cancelled_rows: 0,
                        panicked: None,
                    }),
                    done: Condvar::new(),
                    cancelled: AtomicBool::new(false),
                }),
                features: Arc::new(batch.features),
                oracle: batch.oracle.map(Arc::new),
            },
            next_row: 0,
            chunk,
        };
        let ticket = Ticket {
            state: Arc::clone(&queued.job.ticket),
            tenant: batch.tenant,
            rows,
            submitted: Instant::now(),
        };
        let deadline = shared
            .submit_deadline
            .filter(|_| block)
            .map(|d| Instant::now() + d);

        let mut sched = shared.sched();
        let wake = loop {
            let refusal = match sched.admit(batch.tenant.index(), queued) {
                Ok(wake) => break wake,
                Err((refusal, back)) => {
                    queued = back;
                    refusal
                }
            };
            let gate = match refusal {
                Refusal::Closed => {
                    return Err(RuntimeError::Serve(
                        "deployment is shut down; submissions are rejected".into(),
                    ))
                }
                Refusal::Depth => "ticket-depth",
                Refusal::Budget => "row-budget",
            };
            if !block {
                return Err(RuntimeError::Serve(if refusal == Refusal::Depth {
                    format!(
                        "ingress queue is full ({} tickets in flight, depth {})",
                        sched.in_flight_tickets, sched.queue_depth
                    )
                } else {
                    format!(
                        "row budget is full ({} rows queued, budget {})",
                        sched.queued_rows, sched.max_queued_rows
                    )
                }));
            }
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return Err(RuntimeError::Deadline(format!(
                    "{gate} admission for '{}' ({rows} rows)",
                    queued.job.entry.name
                )));
            }
            sched = shared.wait_for_room(sched, left);
        };
        drop(sched);
        shared.wake(wake);
        Ok(ticket)
    }

    /// Wakes the workers of a deployment built with
    /// [`paused`](DeploymentBuilder::paused).
    pub fn resume(&self) {
        self.shared.apply(Scheduler::resume);
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
        self.shared.apply(Scheduler::close);
        self.drain();
        let handles = std::mem::take(&mut *self.handles.lock().expect("worker handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// A point-in-time snapshot of per-tenant stats, scheduling shares,
    /// and queue counters. Safe to call while traffic flows.
    pub fn stats_snapshot(&self) -> DeploymentStats {
        let registry = self.registry();
        let id = |index| TenantId::mint(index, self.shared.tag);
        let share = |part, total| match total {
            0 => 0.0,
            total => part as f64 / total as f64,
        };
        // One pass under the scheduler lock, so shares, gauges and ticket
        // counters are internally consistent.
        let sched = self.shared.sched();
        let shares = (registry.iter().zip(&sched.lanes).enumerate())
            .map(|(index, (slot, lane))| TenantShare {
                tenant: id(index),
                weight: slot.entry.policy.weight(),
                min_share: slot.entry.policy.min_share(),
                served_rows: lane.served_rows,
                queued_rows: lane.queued_rows,
                observed_share: share(lane.served_rows, sched.total_served_rows),
                windowed_share: share(lane.win_served, sched.win_total),
                active: slot.active,
            })
            .collect();
        let mut stats = DeploymentStats {
            tenants: Vec::with_capacity(registry.len()),
            shares,
            submitted_tickets: sched.submitted_tickets,
            completed_tickets: sched.completed_tickets,
            cancelled_tickets: sched.cancelled_tickets,
            queued_rows: sched.queued_rows,
            served_rows: sched.total_served_rows,
            workers: self.shared.workers,
            uptime_ns: self.shared.started.elapsed().as_nanos() as u64,
        };
        drop(sched);
        for (index, slot) in registry.iter().enumerate() {
            let accum = slot.entry.accum.lock().expect("tenant stats poisoned");
            stats.tenants.push(TenantStats {
                tenant: id(index),
                name: slot.entry.name.clone(),
                packets: accum.packets,
                verdict_histogram: accum.verdict_histogram.clone(),
                p50_ns: accum.latency.quantile(0.50),
                p99_ns: accum.latency.quantile(0.99),
                mean_ns: accum.latency.mean_ns(),
                oracle_packets: accum.oracle_packets,
                oracle_agreements: accum.oracle_agreements,
            });
        }
        stats
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
        // An empty batch is refused like any other once the ingress closed.
        for rows in [4, 0] {
            for submit in [Deployment::submit, Deployment::try_submit] {
                assert!(matches!(
                    submit(&deployment, TenantBatch::new(id, packets(rows, 1, 0))),
                    Err(RuntimeError::Serve(_))
                ));
            }
        }
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

    /// Holds `id`'s stats lock until the returned handle drops, so a worker
    /// that classified one of the tenant's chunks waits short of completing
    /// its ticket. The lock is held on a thread of its own: a failing
    /// assertion drops the handle and releases it unpoisoned, so the test
    /// fails instead of wedging the pool.
    fn hold_stats(deployment: &Deployment, id: TenantId) -> std::sync::mpsc::Sender<()> {
        let entry = deployment.entry(id).unwrap();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let (held, holding) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _stats = entry.accum.lock().unwrap();
            held.send(()).unwrap();
            let _ = released.recv();
        });
        holding.recv().unwrap();
        release
    }

    /// Waits (bounded) until every worker thread has returned.
    fn workers_exit(deployment: &Deployment, what: &str) {
        let deadline = Instant::now() + SETTLE;
        let finished = || {
            let handles = deployment.handles.lock().unwrap();
            handles.iter().all(JoinHandle::is_finished)
        };
        while !finished() {
            assert!(Instant::now() < deadline, "{what}: not within {SETTLE:?}");
            std::thread::park_timeout(Duration::from_millis(1));
        }
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
        // Holding the tenant's stats lock keeps the first ticket from
        // completing once shutdown resumes the worker, so only the close
        // itself can release the blocked submitter.
        let stats = hold_stats(&deployment, id);
        let shutdown = spawn({
            let deployment = Arc::clone(&deployment);
            move || deployment.shutdown()
        });
        assert!(matches!(
            blocked.get("submit blocked across shutdown"),
            Err(RuntimeError::Serve(_))
        ));
        assert!(!first.is_done(), "the close released it, not a completion");
        drop(stats);
        shutdown.get("shutdown with a blocked submitter");
        assert!(first.is_done(), "shutdown serves what was accepted");
    }

    #[test]
    fn close_sends_parked_workers_to_their_exit() {
        let deployment = Deployment::builder().workers(2).build();
        settle(&deployment, SETTLE, "both workers park", |sched| {
            sched.idle_workers == 2
        });
        // `close` alone: `shutdown` goes on to resume, whose wake would
        // hide a missing one here.
        deployment.shared.apply(Scheduler::close);
        workers_exit(&deployment, "parked workers leave on close");
    }

    #[test]
    fn the_last_completion_of_a_closed_deployment_releases_parked_workers() {
        let deployment = Deployment::builder().workers(2).build();
        let id = deployment
            .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
            .unwrap();
        settle(&deployment, SETTLE, "both workers park", |sched| {
            sched.idle_workers == 2
        });
        // One worker takes the chunk and stops short of completing it (the
        // stats lock is held); the other stays parked, never notified.
        let stats = hold_stats(&deployment, id);
        let ticket = deployment
            .submit(TenantBatch::new(id, packets(4, 1, 0)))
            .unwrap();
        settle(
            &deployment,
            SETTLE,
            "one worker busy, one parked",
            |sched| sched.idle_workers == 1 && sched.queued_rows == 0,
        );
        // Closed without `close`'s own wake, so only the completion can
        // send the parked worker to its exit.
        deployment.shared.sched().open = false;
        drop(stats);
        workers_exit(&deployment, "the parked worker leaves");
        assert!(ticket.is_done());
    }

    #[test]
    fn blocked_submit_is_admitted_when_the_row_budget_frees() {
        // Depth is ample; only the row budget holds the second submit,
        // and rows leave the budget at dispatch. Holding the tenant's
        // stats lock keeps the first ticket from completing, so only the
        // dispatch can release the second submit.
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
        let stats = hold_stats(&deployment, id);
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
        assert!(!first.is_done(), "room came from the dispatch");
        drop(stats);
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

    /// `count` tickets of `rows` one-feature rows, carved `chunk` rows at
    /// a time, for a bare scheduler.
    fn tickets(count: usize, rows: usize, chunk: usize) -> VecDeque<Queued> {
        let entry = Arc::new(TenantEntry {
            name: "staged".into(),
            pipeline: svm_pipeline(vec![1.0], 0.0),
            normalizer: None,
            policy: SchedulePolicy::RoundRobin,
            accum: Mutex::new(TenantAccum::default()),
        });
        let features = Arc::new(packets(rows, 1, 0));
        (0..count)
            .map(|_| Queued {
                job: Job {
                    entry: Arc::clone(&entry),
                    ticket: Arc::new(TicketState {
                        inner: Mutex::new(TicketInner {
                            verdicts: vec![0; rows],
                            remaining_items: rows.div_ceil(chunk),
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
                chunk,
            })
            .collect()
    }

    /// A bare scheduler that records its dispatches.
    fn staged(window_rows: u64) -> Scheduler {
        Scheduler::new(
            &Deployment::builder()
                .fairness_window_rows(window_rows)
                .record_dispatch(true),
        )
    }

    /// Appends a backlogged `(weight, min_share)` lane holding `items`
    /// one-row tickets, joining at virtual time `vt`.
    fn stage_lane(sched: &mut Scheduler, weight: f64, min_share: f64, items: usize, vt: f64) {
        let mut lane = Lane::new(SchedulePolicy::Weighted { weight, min_share }, vt);
        lane.idle = false;
        lane.queue = tickets(items, 1, 1);
        lane.queued_rows = items as u64;
        sched.queued_rows += items as u64;
        sched.lanes.push(lane);
    }

    /// Dispatches one chunk and returns the lane it came from.
    fn pop_lane(sched: &mut Scheduler) -> usize {
        assert!(
            matches!(sched.dispatch(), Dispatch::Chunk(..)),
            "backlogged"
        );
        sched.dispatch_log.as_ref().unwrap().last().unwrap().0
    }

    /// One transition's outcome, as the wake table records it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Edge {
        Woke(Wake),
        Refused(Refusal),
        Idle,
        Exit,
    }

    fn woke(work: Notify, room: bool) -> Edge {
        Edge::Woke(Wake::new(work, room))
    }

    /// `admit` of a `rows`-row ticket carved `chunk` rows at a time.
    fn admit(sched: &mut Scheduler, rows: usize, chunk: usize) -> Edge {
        let ticket = tickets(1, rows, chunk).pop_front().unwrap();
        match sched.admit(0, ticket) {
            Ok(wake) => Edge::Woke(wake),
            Err((refusal, _)) => Edge::Refused(refusal),
        }
    }

    fn dispatch(sched: &mut Scheduler) -> Edge {
        match sched.dispatch() {
            Dispatch::Chunk(_, wake) => Edge::Woke(wake),
            Dispatch::Idle => Edge::Idle,
            Dispatch::Exit => Edge::Exit,
        }
    }

    /// A bare running scheduler with one lane, ticket depth 2 and a row
    /// budget of `budget`.
    fn fresh(budget: u64) -> Scheduler {
        let mut sched =
            Scheduler::new(&Deployment::builder().queue_depth(2).max_queued_rows(budget));
        sched.add_lane(SchedulePolicy::RoundRobin);
        sched
    }

    #[test]
    fn every_transition_returns_the_wake_it_owes() {
        use Notify::{All, One};
        let quiet = woke(Notify::None, false);

        // admit: a worker per chunk, only when running with workers idle.
        // (paused, idle workers, rows, chunk rows) → edge
        for case @ (paused, idle, rows, chunk, edge) in [
            (false, 1, 4, 4, woke(One, false)),
            (false, 2, 8, 4, woke(All, false)),
            (false, 0, 8, 4, quiet),
            (true, 2, 8, 4, quiet),
            (false, 2, 32, 8, woke(All, false)), // oversize, lanes empty
            (false, 2, 0, 1, quiet),             // empty: complete already
        ] {
            let mut s = fresh(10);
            (s.paused, s.idle_workers) = (paused, idle);
            assert_eq!(admit(&mut s, rows, chunk), edge, "{case:?}");
            assert_eq!(s.in_flight_tickets, usize::from(rows > 0), "{case:?}");
        }

        // admit refused: (closed, tickets admitted first, their rows, rows)
        for (closed, before, before_rows, rows, refusal) in [
            (true, 0, 0, 4, Refusal::Closed),
            (true, 0, 0, 0, Refusal::Closed),
            (false, 2, 1, 1, Refusal::Depth),
            (false, 1, 8, 4, Refusal::Budget),
        ] {
            let mut s = fresh(10);
            for _ in 0..before {
                admit(&mut s, before_rows, before_rows);
            }
            if closed {
                s.close();
            }
            s.idle_workers = 1;
            let gauges = |s: &Scheduler| (s.in_flight_tickets, s.queued_rows, s.submitted_tickets);
            let held = gauges(&s);
            assert_eq!(
                admit(&mut s, rows, 4),
                Edge::Refused(refusal),
                "{refusal:?}"
            );
            assert_eq!(gauges(&s), held, "a refusal changes nothing");
        }

        // dispatch: rows leave the budget, so a waiting submitter is told.
        // (paused, closed, budget, room waiters, tickets queued, in flight)
        for case @ (paused, closed, budget, waiters, queued, flying, edge) in [
            (false, false, 10, 1, 1, 0, woke(Notify::None, true)),
            (false, false, 10, 0, 1, 0, quiet),
            (false, false, 0, 1, 1, 0, quiet),
            (true, false, 10, 1, 1, 0, Edge::Idle),
            (false, false, 10, 0, 0, 0, Edge::Idle),
            (false, true, 10, 0, 0, 1, Edge::Idle),
            (false, true, 10, 0, 0, 0, Edge::Exit),
        ] {
            let mut s = fresh(budget);
            for _ in 0..queued + flying {
                admit(&mut s, 4, 4);
            }
            for _ in 0..flying {
                dispatch(&mut s);
            }
            if closed {
                s.close();
            }
            (s.paused, s.room_waiters) = (paused, waiters);
            assert_eq!(dispatch(&mut s), edge, "{case:?}");
        }

        // complete: depth frees for `room`; the last ticket of a closed
        // deployment sends its idle workers to their exit.
        // (closed, room waiters, idle workers, tickets still in flight)
        for case @ (closed, waiters, idle, others, work, room) in [
            (false, 1, 0, 0, Notify::None, true),
            (false, 0, 1, 0, Notify::None, false),
            (true, 0, 1, 0, All, false),
            (true, 1, 2, 0, All, true),
            (true, 0, 0, 0, Notify::None, false),
            (true, 0, 1, 1, Notify::None, false),
        ] {
            let mut s = fresh(10);
            for _ in 0..=others {
                admit(&mut s, 4, 4);
                dispatch(&mut s);
            }
            if closed {
                s.close();
            }
            (s.room_waiters, s.idle_workers) = (waiters, idle);
            assert_eq!(s.complete(false), Wake::new(work, room), "{case:?}");
        }

        // resume and close wake everyone, listening or not.
        assert_eq!(fresh(10).resume(), Wake::new(All, false));
        assert_eq!(fresh(10).close(), Wake::new(All, true));
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
        let mut sched = staged(0);
        stage_lane(&mut sched, 0.05, 0.5, 50, 0.0);
        stage_lane(&mut sched, 1.0, 0.0, 50, 0.0);
        for _ in 0..40 {
            pop_lane(&mut sched);
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
            let mut sched = staged(window_rows);
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

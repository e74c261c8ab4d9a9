//! One deployment for the whole fabric and the routed multi-hop flow
//! runner.
//!
//! A [`Fleet`] owns **one** persistent [`Deployment`]: every placed
//! `(switch, model)` pair is a tenant of it, named
//! `"<switch name>/<model>"`, registered according to a role-based
//! placement (edge, aggregation, and core switches can serve different
//! tenant sets — the multi-artifact analogue of the paper's multi-app
//! switch). Switches are scheduling domains of one worker pool, not
//! thread owners, and one `LutCache` serves the fabric. The pool leaves
//! one core to the thread that calls [`Fleet::run`]: that thread blocks
//! in `Ticket::wait` on its oldest hop, and a deployment's blocked wait
//! classifies queued chunks on a core the workers leave idle.
//!
//! [`Fleet::run`] then replays flows hop by hop along their
//! [`Topology::path`]s. Every hop classifies the flow's surviving
//! packets; its verdict can **gate** (drop packets of a configured
//! class) and **re-tag** (expose the verdict to the next hop as a
//! trailing tag feature). The next hop's batch is gathered straight from
//! the flow's packet matrix — surviving row indices plus the tag column,
//! one pass — by
//! [`TenantBatch::chained`](homunculus_runtime::serve::TenantBatch::chained).
//! Hop submission is *pipelined*: completed tickets immediately submit
//! their flow's next hop while other flows' batches are still in
//! flight, so stage N+1 of one flow overlaps stage N of another.
//!
//! Determinism: per-row verdicts are pure functions of the model and the
//! row, and gating/tagging are pure functions of verdicts — so the
//! fleet-wide outcome is bit-identical for any worker-pool width and any
//! ticket interleaving. [`FleetReport::checksum`] canonicalizes
//! by flow id, making the invariant directly assertable.

use crate::stats::{jain_fairness, FleetStats, RoleStats, SwitchStats};
use crate::topology::{SwitchId, SwitchRole, Topology};
use crate::{FleetError, Result};
use homunculus_backends::model::ModelIr;
use homunculus_core::pipeline::CompiledArtifact;
use homunculus_ml::preprocess::Normalizer;
use homunculus_ml::quantize::FixedPoint;
use homunculus_ml::tensor::Matrix;
use homunculus_runtime::deploy::{Deployment, Ticket};
use homunculus_runtime::pipeline::CompiledPipeline;
use homunculus_runtime::serve::{TenantBatch, TenantId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// One model a fleet can place: the same (IR, format, normalizer)
/// triple a [`Deployment`] registers tenants from.
#[derive(Debug, Clone)]
struct ModelEntry {
    name: String,
    ir: ModelIr,
    format: FixedPoint,
    normalizer: Option<Normalizer>,
}

/// Builder for a [`Fleet`]: models, placement, and the worker request.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    topology: Topology,
    entries: Vec<ModelEntry>,
    placement: [Vec<String>; 3],
    workers: usize,
}

/// Tickets the fleet's deployment admits per switch: the aggregate bound
/// is what one 64-deep deployment per switch used to give.
const QUEUE_DEPTH_PER_SWITCH: usize = 64;

/// Threads the fleet's one pool runs: as many of the `workers × switches`
/// requested threads as `cores − 1` can run at once, never fewer than
/// `workers`. The core left over is [`Fleet::run`]'s caller's, whose
/// blocked `Ticket::wait` classifies there.
fn pool_width(workers: usize, switches: usize, cores: usize) -> usize {
    (workers * switches)
        .min(cores.saturating_sub(1))
        .max(workers)
}

impl FleetBuilder {
    /// Registers every model report of a compiled artifact as a placeable
    /// model (multi-artifact fleets call this once per artifact).
    #[must_use]
    pub fn artifact(mut self, artifact: &CompiledArtifact) -> Self {
        for report in artifact.reports() {
            self.entries.push(ModelEntry {
                name: report.name.clone(),
                ir: report.ir.clone(),
                format: report.format,
                normalizer: Some(report.normalizer.clone()),
            });
        }
        self
    }

    /// Registers one ad-hoc model (tests and benches use this to skip
    /// the compile pipeline).
    #[must_use]
    pub fn model(
        mut self,
        name: &str,
        ir: &ModelIr,
        format: FixedPoint,
        normalizer: Option<Normalizer>,
    ) -> Self {
        self.entries.push(ModelEntry {
            name: name.into(),
            ir: ir.clone(),
            format,
            normalizer,
        });
        self
    }

    /// Places a registered model on every switch of `role`.
    #[must_use]
    pub fn place(mut self, role: SwitchRole, model: &str) -> Self {
        self.placement[role.index()].push(model.into());
        self
    }

    /// Places a registered model on every switch of every role.
    #[must_use]
    pub fn place_everywhere(self, model: &str) -> Self {
        SwitchRole::ALL
            .into_iter()
            .fold(self, |b, role| b.place(role, model))
    }

    /// Worker threads requested *per switch* (default 1).
    ///
    /// The fleet runs one pool for the whole fabric, and its width is
    /// worked out rather than configured: `(workers × switches)` capped
    /// at one less than [`std::thread::available_parallelism`], and never
    /// fewer than `workers`. The core the cap leaves is not idle: the
    /// thread in [`Fleet::run`] waits on its tickets there, and a blocked
    /// wait classifies queued chunks on a core the workers leave free. A
    /// pool that filled every core left that wait nothing to do but sleep
    /// while a third thread competed for two cores. On a 2-core host the
    /// cap alone read ×1.02 `pkt_per_s` on `hbench`'s `fleet_fabric`
    /// (7 of 10 alternating pairs, inside the runs' spread): it costs
    /// nothing, and the caller's core is no longer idle while it waits.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Launches the fleet's deployment and registers every switch's
    /// role models as its tenants.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Placement`] when a placed model name was
    /// never registered, a model name is registered twice or placed
    /// twice on one role, or no model is placed anywhere, and
    /// [`FleetError::Runtime`] when the deployment rejects a model.
    pub fn build(self) -> Result<Fleet> {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let width = pool_width(self.workers, self.topology.len(), cores);
        self.build_with_width(width)
    }

    /// [`build`](FleetBuilder::build) with the pool width given, so tests
    /// can cover widths the host's core count would not derive.
    fn build_with_width(self, width: usize) -> Result<Fleet> {
        if self.placement.iter().all(|models| models.is_empty()) {
            return Err(FleetError::Placement(
                "no model is placed on any role".into(),
            ));
        }
        for (index, entry) in self.entries.iter().enumerate() {
            if self.entries[..index].iter().any(|e| e.name == entry.name) {
                return Err(FleetError::Placement(format!(
                    "model '{}' is registered more than once",
                    entry.name
                )));
            }
        }
        for role in SwitchRole::ALL {
            let models = &self.placement[role.index()];
            for (index, name) in models.iter().enumerate() {
                if !self.entries.iter().any(|e| &e.name == name) {
                    return Err(FleetError::Placement(format!(
                        "placed model '{name}' is not registered"
                    )));
                }
                if models[..index].contains(name) {
                    return Err(FleetError::Placement(format!(
                        "model '{name}' is placed more than once on {} switches",
                        role.name()
                    )));
                }
            }
        }
        let deployment = Deployment::builder()
            .workers(width)
            .queue_depth(QUEUE_DEPTH_PER_SWITCH * self.topology.len())
            .build();
        // Each model is lowered once, where its first placement meets it
        // (so a lowering error surfaces where it always did), and every
        // switch registers a clone.
        let mut lowered: Vec<Option<CompiledPipeline>> = vec![None; self.entries.len()];
        let mut nodes = Vec::with_capacity(self.topology.len());
        for switch in self.topology.switches() {
            let mut tenants = BTreeMap::new();
            for name in &self.placement[switch.role.index()] {
                let index = self
                    .entries
                    .iter()
                    .position(|e| &e.name == name)
                    .expect("placement names validated above");
                let entry = &self.entries[index];
                let pipeline = match &lowered[index] {
                    Some(pipeline) => pipeline,
                    None => lowered[index].insert(CompiledPipeline::from_ir_shared(
                        &entry.ir,
                        entry.format,
                        deployment.luts(),
                    )?),
                };
                let tenant = deployment.add_tenant(
                    &format!("{}/{}", switch.name, entry.name),
                    pipeline.clone(),
                    entry.normalizer.clone(),
                )?;
                tenants.insert(entry.name.clone(), (tenant, entry.ir.n_features()));
            }
            nodes.push(SwitchNode { tenants });
        }
        Ok(Fleet {
            topology: self.topology,
            deployment,
            nodes,
        })
    }
}

/// One switch's placement: model name → its tenant in the fleet's
/// deployment and the feature width it expects.
struct SwitchNode {
    tenants: BTreeMap<String, (TenantId, usize)>,
}

/// A topology served by one persistent deployment whose tenants are the
/// placed `(switch, model)` pairs.
pub struct Fleet {
    topology: Topology,
    deployment: Deployment,
    nodes: Vec<SwitchNode>,
}

/// What a hop does with its verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopPolicy {
    /// The model serving this hop (must be placed on the hop's role).
    pub model: String,
    /// Packets classified into this class are dropped at the hop.
    pub drop_class: Option<usize>,
    /// Whether the hop's verdict replaces the flow tag seen by the next
    /// hop (`false` keeps the upstream tag).
    pub retag: bool,
}

impl HopPolicy {
    /// Forward everything, re-tagging with this hop's verdict.
    pub fn forward(model: &str) -> Self {
        HopPolicy {
            model: model.into(),
            drop_class: None,
            retag: true,
        }
    }

    /// Drop packets classified as `drop_class`, re-tag the rest.
    pub fn gate(model: &str, drop_class: usize) -> Self {
        HopPolicy {
            model: model.into(),
            drop_class: Some(drop_class),
            retag: true,
        }
    }

    /// Sets whether the hop re-tags (default `true`).
    #[must_use]
    pub fn retag(mut self, retag: bool) -> Self {
        self.retag = retag;
        self
    }
}

/// Per-role hop policies: which model serves each tier and how its
/// verdicts gate and tag the flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingPolicy {
    hops: [HopPolicy; 3],
}

impl RoutingPolicy {
    /// The same policy on every tier.
    pub fn uniform(hop: HopPolicy) -> Self {
        RoutingPolicy {
            hops: [hop.clone(), hop.clone(), hop],
        }
    }

    /// Overrides the policy of one tier.
    #[must_use]
    pub fn with_role(mut self, role: SwitchRole, hop: HopPolicy) -> Self {
        self.hops[role.index()] = hop;
        self
    }

    /// The policy serving `role`.
    pub fn for_role(&self, role: SwitchRole) -> &HopPolicy {
        &self.hops[role.index()]
    }
}

/// One flow to route: a packet batch entering at `src` and destined for
/// `dst`, routed by `flow_id` (the ECMP hash input).
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Caller-chosen id; paths and report canonicalization key off it.
    pub flow_id: u64,
    /// Ingress edge switch.
    pub src: SwitchId,
    /// Egress edge switch.
    pub dst: SwitchId,
    /// One packet per row, in the models' raw feature space.
    pub packets: Matrix,
}

impl FlowSpec {
    /// Builds a flow spec.
    pub fn new(flow_id: u64, src: SwitchId, dst: SwitchId, packets: Matrix) -> Self {
        FlowSpec {
            flow_id,
            src,
            dst,
            packets,
        }
    }
}

/// What happened to one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// The flow's id.
    pub flow_id: u64,
    /// The path the flow took (switch ids, both endpoints included).
    pub path: Vec<SwitchId>,
    /// `hop_verdicts[hop][packet]`: the class the hop's model assigned,
    /// or `None` when the packet was gated before reaching the hop.
    pub hop_verdicts: Vec<Vec<Option<usize>>>,
    /// Packets that survived every hop.
    pub delivered: usize,
    /// Packets dropped by a gate along the path.
    pub gated: usize,
}

/// The result of one [`Fleet::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-flow outcomes, in submission order.
    pub flows: Vec<FlowOutcome>,
    /// Rows forwarded by each switch, indexed by switch id.
    pub forwarded_rows: Vec<u64>,
    /// Rows gated (dropped) by each switch, indexed by switch id.
    pub gated_rows: Vec<u64>,
    /// Wall-clock of the run in nanoseconds.
    pub elapsed_ns: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

impl FleetReport {
    /// Total packets classified across all hops of all flows.
    pub fn classified_rows(&self) -> u64 {
        self.flows
            .iter()
            .flat_map(|f| &f.hop_verdicts)
            .map(|hop| hop.iter().filter(|v| v.is_some()).count() as u64)
            .sum()
    }

    /// A canonical FNV-style checksum over every `(flow, hop, packet,
    /// verdict)` tuple. Flows are ordered by `flow_id`, so the value is
    /// invariant under submission order, switch iteration order, and
    /// per-switch worker counts — the fleet-wide bit-determinism pin.
    pub fn checksum(&self) -> u64 {
        let mut order: Vec<&FlowOutcome> = self.flows.iter().collect();
        order.sort_by_key(|f| f.flow_id);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for flow in order {
            h = mix(h, flow.flow_id);
            for (hop_index, hop) in flow.hop_verdicts.iter().enumerate() {
                h = mix(h, hop_index as u64 + 1);
                for verdict in hop {
                    h = mix(h, verdict.map_or(0, |class| class as u64 + 1));
                }
            }
        }
        h
    }
}

/// A ticket in flight: which flow, which hop, which surviving packets.
struct Pending {
    flow: usize,
    hop: usize,
    rows: Vec<usize>,
    tags: Vec<f32>,
    ticket: Ticket,
}

impl Fleet {
    /// Starts building a fleet over `topology`.
    pub fn builder(topology: Topology) -> FleetBuilder {
        FleetBuilder {
            topology,
            entries: Vec::new(),
            placement: [Vec::new(), Vec::new(), Vec::new()],
            workers: 1,
        }
    }

    /// The fabric this fleet serves on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn submit_hop(
        &self,
        flow: &FlowSpec,
        path: &[SwitchId],
        hop: usize,
        rows: &[usize],
        tags: &[f32],
        policy: &RoutingPolicy,
    ) -> Result<Ticket> {
        let switch = self.topology.switch(path[hop]);
        let hop_policy = policy.for_role(switch.role);
        let node = &self.nodes[switch.id.index()];
        let Some(&(tenant, width)) = node.tenants.get(&hop_policy.model) else {
            return Err(FleetError::Placement(format!(
                "switch {} ({}) does not serve model '{}'",
                switch.name,
                switch.role.name(),
                hop_policy.model
            )));
        };
        let batch = TenantBatch::chained(tenant, &flow.packets, rows, tags, width)?;
        Ok(self.deployment.submit(batch)?)
    }

    /// Routes every flow through the fabric with pipelined hop
    /// submission and returns per-flow outcomes.
    ///
    /// Tickets complete in a FIFO round-robin over flows: as soon as a
    /// flow's hop N ticket is redeemed, its hop N+1 batch is submitted —
    /// while every other flow's in-flight hop keeps executing. Verdicts,
    /// gating, and tagging are all deterministic, so
    /// [`FleetReport::checksum`] does not depend on that interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Topology`] for invalid flow endpoints,
    /// [`FleetError::Placement`] when a hop's model is not served by its
    /// switch, and [`FleetError::Runtime`] for an empty flow, a
    /// `flow_id` used twice (the report's canonical order keys off it),
    /// and rejected submissions (including chained-width mismatches).
    pub fn run(&self, flows: &[FlowSpec], policy: &RoutingPolicy) -> Result<FleetReport> {
        let mut paths = Vec::with_capacity(flows.len());
        let mut seen = BTreeSet::new();
        for flow in flows {
            if !seen.insert(flow.flow_id) {
                return Err(FleetError::Runtime(format!(
                    "flow id {} is used by more than one flow",
                    flow.flow_id
                )));
            }
            if flow.packets.rows() == 0 {
                return Err(FleetError::Runtime(format!(
                    "flow {} has no packets",
                    flow.flow_id
                )));
            }
            paths.push(self.topology.path(flow.src, flow.dst, flow.flow_id)?);
        }
        let mut outcomes: Vec<FlowOutcome> = flows
            .iter()
            .zip(&paths)
            .map(|(flow, path)| FlowOutcome {
                flow_id: flow.flow_id,
                path: path.clone(),
                hop_verdicts: vec![vec![None; flow.packets.rows()]; path.len()],
                delivered: 0,
                gated: 0,
            })
            .collect();
        let mut forwarded = vec![0u64; self.topology.len()];
        let mut gated = vec![0u64; self.topology.len()];

        let start = Instant::now();
        let mut queue: VecDeque<Pending> = VecDeque::with_capacity(flows.len());
        for (index, flow) in flows.iter().enumerate() {
            let rows: Vec<usize> = (0..flow.packets.rows()).collect();
            let tags = vec![0.0f32; rows.len()];
            let ticket = self.submit_hop(flow, &paths[index], 0, &rows, &tags, policy)?;
            queue.push_back(Pending {
                flow: index,
                hop: 0,
                rows,
                tags,
                ticket,
            });
        }

        while let Some(pending) = queue.pop_front() {
            let verdicts = pending.ticket.wait();
            let classes = verdicts.as_slice();
            let flow = &flows[pending.flow];
            let path = &paths[pending.flow];
            let switch_index = path[pending.hop].index();
            let hop_policy = policy.for_role(self.topology.switch(path[pending.hop]).role);
            let outcome = &mut outcomes[pending.flow];

            let mut next_rows = Vec::with_capacity(pending.rows.len());
            let mut next_tags = Vec::with_capacity(pending.rows.len());
            for (slot, &row) in pending.rows.iter().enumerate() {
                let class = classes[slot];
                outcome.hop_verdicts[pending.hop][row] = Some(class);
                if hop_policy.drop_class == Some(class) {
                    outcome.gated += 1;
                    gated[switch_index] += 1;
                } else {
                    forwarded[switch_index] += 1;
                    next_rows.push(row);
                    next_tags.push(if hop_policy.retag {
                        class as f32
                    } else {
                        pending.tags[slot]
                    });
                }
            }

            let last_hop = pending.hop + 1 == path.len();
            if last_hop {
                outcome.delivered += next_rows.len();
            } else if !next_rows.is_empty() {
                let ticket =
                    self.submit_hop(flow, path, pending.hop + 1, &next_rows, &next_tags, policy)?;
                queue.push_back(Pending {
                    flow: pending.flow,
                    hop: pending.hop + 1,
                    rows: next_rows,
                    tags: next_tags,
                    ticket,
                });
            }
        }
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        Ok(FleetReport {
            flows: outcomes,
            forwarded_rows: forwarded,
            gated_rows: gated,
            elapsed_ns,
        })
    }

    /// Aggregates per-switch, per-role, and fleet-wide serving stats.
    ///
    /// Packet counts and verdict histograms come from one lifetime
    /// snapshot of the fleet's deployment, grouped by the switch each
    /// tenant belongs to (they accumulate across runs); gated/forwarded
    /// accounting comes from `report`. Exact per-tenant latency
    /// percentiles stay in the deployment's own
    /// [`DeploymentStats`](homunculus_runtime::deploy::DeploymentStats).
    pub fn stats(&self, report: &FleetReport) -> FleetStats {
        let snapshot = self.deployment.stats_snapshot();
        let mut roles: Vec<RoleStats> = SwitchRole::ALL
            .into_iter()
            .map(|role| RoleStats {
                role,
                switches: 0,
                packets: 0,
                verdict_histogram: Vec::new(),
                forwarded: 0,
                gated: 0,
            })
            .collect();
        let mut fleet_histogram: Vec<usize> = Vec::new();
        let mut switches = Vec::with_capacity(self.nodes.len());
        for (node, switch) in self.nodes.iter().zip(self.topology.switches()) {
            let mut stats = SwitchStats {
                name: switch.name.clone(),
                role: switch.role,
                packets: 0,
                verdict_histogram: Vec::new(),
                forwarded: report.forwarded_rows[switch.id.index()],
                gated: report.gated_rows[switch.id.index()],
            };
            for (tenant, _) in node.tenants.values() {
                let tenant = &snapshot.tenants[tenant.index()];
                stats.packets += tenant.packets;
                add_histogram(&mut stats.verdict_histogram, &tenant.verdict_histogram);
            }
            let role = &mut roles[switch.role.index()];
            role.switches += 1;
            role.packets += stats.packets;
            add_histogram(&mut role.verdict_histogram, &stats.verdict_histogram);
            role.forwarded += stats.forwarded;
            role.gated += stats.gated;
            add_histogram(&mut fleet_histogram, &stats.verdict_histogram);
            switches.push(stats);
        }
        roles.retain(|r| r.switches > 0);

        let edge_loads: Vec<f64> = switches
            .iter()
            .filter(|s| s.role == SwitchRole::Edge)
            .map(|s| s.packets as f64)
            .collect();
        FleetStats {
            total_packets: switches.iter().map(|s| s.packets).sum(),
            switches,
            roles,
            verdict_histogram: fleet_histogram,
            forwarded_rows: report.forwarded_rows.iter().sum(),
            gated_rows: report.gated_rows.iter().sum(),
            edge_fairness: jain_fairness(&edge_loads),
        }
    }

    /// Drains and shuts down the fleet's deployment. Dropping the fleet
    /// does the same implicitly; call this to make teardown explicit
    /// (e.g. before reading final stats in a bench).
    pub fn shutdown(&self) {
        self.deployment.drain();
        self.deployment.shutdown();
    }
}

/// Adds per-class counts `from` into `into`, growing it to fit.
fn add_histogram(into: &mut Vec<usize>, from: &[usize]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (bucket, &count) in from.iter().enumerate() {
        into[bucket] += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use homunculus_backends::model::{DnnIr, ModelIr};
    use homunculus_ml::mlp::{Mlp, MlpArchitecture};

    fn dnn(seed: u64, inputs: usize) -> ModelIr {
        let arch = MlpArchitecture::new(inputs, vec![6], 2);
        ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, seed).unwrap()))
    }

    fn packets(rows: usize, cols: usize, salt: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 7) as f32).sin() * 0.8 + salt
        })
    }

    fn small_builder() -> FleetBuilder {
        Fleet::builder(Topology::leaf_spine(3, 2).unwrap())
            .model("ad", &dnn(3, 4), FixedPoint::taurus_default(), None)
            .place_everywhere("ad")
    }

    fn small_fleet(workers: usize) -> Fleet {
        small_builder().workers(workers).build().unwrap()
    }

    fn small_flows() -> Vec<FlowSpec> {
        (0..6u64)
            .map(|f| {
                FlowSpec::new(
                    f,
                    SwitchId(f as usize % 3),
                    SwitchId((f as usize + 1) % 3),
                    packets(8, 4, f as f32 * 0.1),
                )
            })
            .collect()
    }

    #[test]
    fn run_delivers_and_checksums_deterministically() {
        let policy = RoutingPolicy::uniform(HopPolicy::forward("ad"));
        let flows = small_flows();
        let mut checksums = Vec::new();
        // Exact pool widths: the derived width collapses `.workers(1/2/4)`
        // to one shape on most hosts.
        for width in [1usize, 2, 4, 7] {
            let fleet = small_builder().build_with_width(width).unwrap();
            let report = fleet.run(&flows, &policy).unwrap();
            assert_eq!(report.flows.len(), flows.len());
            for outcome in &report.flows {
                assert_eq!(outcome.delivered, 8, "no gate configured");
                assert_eq!(outcome.gated, 0);
            }
            checksums.push(report.checksum());
            fleet.shutdown();
        }
        assert!(checksums.windows(2).all(|w| w[0] == w[1]), "{checksums:?}");
    }

    #[test]
    fn pool_width_is_the_request_capped_by_cores_never_below_workers() {
        // One core is left to the caller's helping wait...
        assert_eq!(pool_width(1, 20, 2), 1);
        assert_eq!(pool_width(2, 320, 64), 63);
        assert_eq!(pool_width(1, 3, 8), 3);
        // ...unless the per-switch request alone needs it.
        assert_eq!(pool_width(4, 6, 2), 4);
        assert_eq!(pool_width(2, 20, 2), 2);
        assert_eq!(pool_width(1, 1, 2), 1);
        assert_eq!(pool_width(1, 20, 1), 1);
    }

    #[test]
    fn checksum_is_submission_order_invariant() {
        let policy = RoutingPolicy::uniform(HopPolicy::forward("ad"));
        let mut flows = small_flows();
        let fleet = small_fleet(2);
        let forward = fleet.run(&flows, &policy).unwrap().checksum();
        flows.reverse();
        let reversed = fleet.run(&flows, &policy).unwrap().checksum();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn gating_drops_and_accounts() {
        // A gate that drops class 0 and one that drops class 1 partition
        // the stream: together they gate everything the edge forwards.
        let fleet = small_fleet(2);
        let flows = small_flows();
        let gate0 = RoutingPolicy::uniform(HopPolicy::gate("ad", 0));
        let report = fleet.run(&flows, &gate0).unwrap();
        let stats = fleet.stats(&report);
        assert_eq!(
            stats.gated_rows + report.flows.iter().map(|f| f.delivered as u64).sum::<u64>(),
            48,
            "every packet is either gated somewhere or delivered"
        );
        for outcome in &report.flows {
            assert_eq!(outcome.gated + outcome.delivered, 8);
        }
    }

    #[test]
    fn unplaced_model_is_rejected_at_run() {
        let fleet = Fleet::builder(Topology::leaf_spine(2, 1).unwrap())
            .model("ad", &dnn(3, 4), FixedPoint::taurus_default(), None)
            .place(SwitchRole::Edge, "ad")
            .build()
            .unwrap();
        let flows = vec![FlowSpec::new(
            0,
            SwitchId(0),
            SwitchId(1),
            packets(2, 4, 0.0),
        )];
        let policy = RoutingPolicy::uniform(HopPolicy::forward("ad"));
        let err = fleet.run(&flows, &policy).unwrap_err();
        assert!(matches!(err, FleetError::Placement(_)), "{err}");
    }

    #[test]
    fn builder_rejects_unknown_placement() {
        let result = Fleet::builder(Topology::leaf_spine(2, 1).unwrap())
            .place_everywhere("missing")
            .build();
        match result {
            Err(FleetError::Placement(_)) => {}
            Err(other) => panic!("expected a placement error, got {other}"),
            Ok(_) => panic!("an unregistered placement must not build"),
        }
    }

    #[test]
    fn builder_rejects_a_model_registered_or_placed_twice() {
        let format = FixedPoint::taurus_default();
        let twice_registered = Fleet::builder(Topology::leaf_spine(2, 1).unwrap())
            .model("ad", &dnn(3, 4), format, None)
            .model("ad", &dnn(9, 4), format, None)
            .place_everywhere("ad")
            .build();
        let twice_placed = Fleet::builder(Topology::leaf_spine(2, 1).unwrap())
            .model("ad", &dnn(3, 4), format, None)
            .place_everywhere("ad")
            .place(SwitchRole::Edge, "ad")
            .build();
        for result in [twice_registered, twice_placed] {
            match result {
                Err(FleetError::Placement(msg)) => assert!(msg.contains("'ad'"), "{msg}"),
                Err(other) => panic!("expected a placement error, got {other}"),
                Ok(_) => panic!("a model named twice must not build"),
            }
        }
    }

    #[test]
    fn run_rejects_a_flow_id_used_twice() {
        let fleet = small_fleet(1);
        let mut flows = small_flows();
        flows[4].flow_id = flows[1].flow_id;
        let policy = RoutingPolicy::uniform(HopPolicy::forward("ad"));
        let err = fleet.run(&flows, &policy).unwrap_err();
        assert!(matches!(err, FleetError::Runtime(_)), "{err}");
        assert!(err.to_string().contains("flow id 1"), "{err}");
    }

    #[test]
    fn tagged_downstream_consumes_upstream_verdicts() {
        // Edge model takes 4 features; the spine model takes 5 — the
        // fifth is the edge verdict tag appended by the chained submit.
        let fleet = Fleet::builder(Topology::leaf_spine(2, 1).unwrap())
            .model("edge_ad", &dnn(3, 4), FixedPoint::taurus_default(), None)
            .model("spine_ad", &dnn(9, 5), FixedPoint::taurus_default(), None)
            .place(SwitchRole::Edge, "edge_ad")
            .place(SwitchRole::Core, "spine_ad")
            .workers(2)
            .build()
            .unwrap();
        let policy = RoutingPolicy::uniform(HopPolicy::forward("edge_ad"))
            .with_role(SwitchRole::Core, HopPolicy::forward("spine_ad"));
        let flows = vec![FlowSpec::new(
            9,
            SwitchId(0),
            SwitchId(1),
            packets(6, 4, 0.3),
        )];
        let report = fleet.run(&flows, &policy).unwrap();
        assert_eq!(report.flows[0].delivered, 6);
        assert_eq!(report.flows[0].hop_verdicts.len(), 3);
    }
}

#![forbid(unsafe_code)]
//! Fleet-scale topology serving.
//!
//! The paper evaluates Homunculus pipelines on a single switch; this
//! crate is the serving-side answer to "what does the same artifact look
//! like deployed across a datacenter fabric?". It provides:
//!
//! - [`topology`] — deterministic fat-tree and leaf–spine topology
//!   generators producing typed switch/link graphs with stable ids and
//!   ECMP-style flow routing.
//! - [`fleet`] — a [`Fleet`] that owns one persistent
//!   [`Deployment`](homunculus_runtime::Deployment) for the whole
//!   fabric, every placed `(switch, model)` pair a tenant of it
//!   (role-based placement: edge, aggregation, and core switches can
//!   serve different model sets), and a flow router that
//!   drives packet batches hop by hop along topology paths. Each hop's
//!   verdict can *gate* (drop) or *re-tag* the flow before the next hop
//!   — the paper's `a > b` model chaining generalized from a linear
//!   chain to a graph. Hop submission is pipelined: the next hop of one
//!   flow is submitted while other flows are still in flight.
//! - [`stats`] — per-switch, per-role, and fleet-wide aggregation
//!   (packet counts, verdict histograms, gated-flow accounting, Jain
//!   fairness) grouped from that one deployment's snapshot.
//!
//! Verdicts are bit-deterministic: the same flows through the same
//! fleet produce identical [`FleetReport::checksum`](fleet::FleetReport::checksum)
//! values regardless of the worker-pool width or submission
//! interleaving.
//!
//! # Example
//!
//! ```
//! use homunculus_backends::model::{DnnIr, ModelIr};
//! use homunculus_fleet::fleet::{Fleet, FlowSpec, HopPolicy, RoutingPolicy};
//! use homunculus_fleet::topology::Topology;
//! use homunculus_ml::mlp::{Mlp, MlpArchitecture};
//! use homunculus_ml::quantize::FixedPoint;
//! use homunculus_ml::tensor::Matrix;
//!
//! # fn main() -> Result<(), homunculus_fleet::FleetError> {
//! let topology = Topology::leaf_spine(3, 1)?; // 4 switches
//! let arch = MlpArchitecture::new(4, vec![8], 2);
//! let ir = ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, 7).unwrap()));
//! let fleet = Fleet::builder(topology)
//!     .model("ad", &ir, FixedPoint::taurus_default(), None)
//!     .place_everywhere("ad")
//!     .workers(2)
//!     .build()?;
//! let edges = fleet.topology().edge_switches();
//! let packets = Matrix::from_rows(&[vec![0.1, 0.2, 0.3, 0.4]]).unwrap();
//! let flows = vec![FlowSpec::new(0, edges[0], edges[1], packets)];
//! let policy = RoutingPolicy::uniform(HopPolicy::forward("ad"));
//! let report = fleet.run(&flows, &policy)?;
//! assert_eq!(report.flows.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod fleet;
pub mod stats;
pub mod topology;

pub use fleet::{
    Fleet, FleetBuilder, FleetReport, FlowOutcome, FlowSpec, HopPolicy, RoutingPolicy,
};
pub use stats::{jain_fairness, FleetStats, RoleStats, SwitchStats};
pub use topology::{Link, Switch, SwitchId, SwitchRole, Topology};

use std::error::Error;
use std::fmt;

/// Errors produced while building topologies or running fleets.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Topology construction or routing failed (bad parameters, non-edge
    /// endpoints, unknown switch ids).
    Topology(String),
    /// Fleet assembly failed (unknown model names, empty placements,
    /// feature-width mismatches between chained hops).
    Placement(String),
    /// A run was handed unusable flows, or the fleet's deployment
    /// rejected a request.
    Runtime(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Topology(msg) => write!(f, "topology error: {msg}"),
            FleetError::Placement(msg) => write!(f, "placement error: {msg}"),
            FleetError::Runtime(msg) => write!(f, "fleet runtime error: {msg}"),
        }
    }
}

impl Error for FleetError {}

impl From<homunculus_runtime::RuntimeError> for FleetError {
    fn from(e: homunculus_runtime::RuntimeError) -> Self {
        FleetError::Runtime(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FleetError>;

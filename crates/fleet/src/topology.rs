//! Deterministic datacenter topology generation and flow routing.
//!
//! Two classic fabrics are generated with stable, layout-defined switch
//! ids (no randomness anywhere, so fleet runs are reproducible):
//!
//! - [`Topology::fattree`] — the canonical k-ary fat tree: `k` pods of
//!   `k/2` edge and `k/2` aggregation switches plus `(k/2)²` cores
//!   (`k = 4` gives the paper-scale 20-switch fabric).
//! - [`Topology::leaf_spine`] — a two-tier leaf–spine fabric (leaves are
//!   edge switches, spines play the core role).
//!
//! Routing is ECMP-style but deterministic: [`Topology::path`] hashes
//! only the caller-supplied `flow_id` to pick among equal-cost uplinks,
//! so the same flow always takes the same path.

use crate::{FleetError, Result};

/// The tier a switch occupies in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SwitchRole {
    /// Top-of-rack tier: flows enter and leave the fabric here.
    Edge,
    /// Pod-level aggregation tier (fat trees only).
    Aggregation,
    /// Fabric core / spine tier.
    Core,
}

impl SwitchRole {
    /// Every role, in edge-to-core order.
    pub const ALL: [SwitchRole; 3] = [SwitchRole::Edge, SwitchRole::Aggregation, SwitchRole::Core];

    /// Lowercase role name as used in reports and placements.
    pub fn name(self) -> &'static str {
        match self {
            SwitchRole::Edge => "edge",
            SwitchRole::Aggregation => "aggregation",
            SwitchRole::Core => "core",
        }
    }

    /// Index into role-keyed tables (see [`SwitchRole::ALL`]).
    pub fn index(self) -> usize {
        match self {
            SwitchRole::Edge => 0,
            SwitchRole::Aggregation => 1,
            SwitchRole::Core => 2,
        }
    }
}

/// A switch's position in its topology's switch list — stable across
/// runs because topology layout is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub usize);

impl SwitchId {
    /// The underlying index into [`Topology::switches`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// One switch of the fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct Switch {
    /// Stable id (index into the topology's switch list).
    pub id: SwitchId,
    /// Human-readable name, e.g. `edge_p1_0` or `core_2`.
    pub name: String,
    /// Fabric tier.
    pub role: SwitchRole,
    /// Pod number for podded tiers (`None` for cores and spines).
    pub pod: Option<usize>,
}

/// An undirected link between two switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Lower-tier endpoint.
    pub down: SwitchId,
    /// Upper-tier endpoint.
    pub up: SwitchId,
}

/// The generator parameters a topology was built from — kept so routing
/// can exploit the fabric's regular structure instead of searching the
/// graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopologyKind {
    FatTree { k: usize },
    LeafSpine { leaves: usize, spines: usize },
}

/// A generated switch/link graph with deterministic ECMP routing.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    kind: TopologyKind,
    switches: Vec<Switch>,
    links: Vec<Link>,
}

impl Topology {
    /// Builds the canonical k-ary fat tree: `k` pods, each with `k/2`
    /// edge and `k/2` aggregation switches (fully meshed within the
    /// pod), and `(k/2)²` core switches where core group `j` connects to
    /// aggregation switch `j` of every pod.
    ///
    /// `k = 4` yields the 20-switch fabric (8 edge + 8 aggregation +
    /// 4 core) used throughout the fleet tests.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Topology`] unless `k` is even and at least 2.
    pub fn fattree(k: usize) -> Result<Self> {
        if k < 2 || k % 2 != 0 {
            return Err(FleetError::Topology(format!(
                "fat-tree arity must be even and >= 2, got {k}"
            )));
        }
        let half = k / 2;
        let mut switches = Vec::with_capacity(k * k + half * half);
        for pod in 0..k {
            for i in 0..half {
                switches.push(Switch {
                    id: SwitchId(switches.len()),
                    name: format!("edge_p{pod}_{i}"),
                    role: SwitchRole::Edge,
                    pod: Some(pod),
                });
            }
        }
        for pod in 0..k {
            for i in 0..half {
                switches.push(Switch {
                    id: SwitchId(switches.len()),
                    name: format!("agg_p{pod}_{i}"),
                    role: SwitchRole::Aggregation,
                    pod: Some(pod),
                });
            }
        }
        for i in 0..half * half {
            switches.push(Switch {
                id: SwitchId(switches.len()),
                name: format!("core_{i}"),
                role: SwitchRole::Core,
                pod: None,
            });
        }

        let edge = |pod: usize, i: usize| SwitchId(pod * half + i);
        let agg = |pod: usize, i: usize| SwitchId(k * half + pod * half + i);
        let core = |i: usize| SwitchId(k * k + i);
        let mut links = Vec::new();
        for pod in 0..k {
            for e in 0..half {
                for a in 0..half {
                    links.push(Link {
                        down: edge(pod, e),
                        up: agg(pod, a),
                    });
                }
            }
            for a in 0..half {
                for c in 0..half {
                    links.push(Link {
                        down: agg(pod, a),
                        up: core(a * half + c),
                    });
                }
            }
        }
        Ok(Topology {
            kind: TopologyKind::FatTree { k },
            switches,
            links,
        })
    }

    /// Builds a two-tier leaf–spine fabric: `leaves` edge switches fully
    /// meshed to `spines` core switches.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Topology`] when either count is zero.
    pub fn leaf_spine(leaves: usize, spines: usize) -> Result<Self> {
        if leaves == 0 || spines == 0 {
            return Err(FleetError::Topology(format!(
                "leaf-spine needs at least one leaf and one spine, got {leaves}x{spines}"
            )));
        }
        let mut switches = Vec::with_capacity(leaves + spines);
        for i in 0..leaves {
            switches.push(Switch {
                id: SwitchId(i),
                name: format!("leaf_{i}"),
                role: SwitchRole::Edge,
                pod: None,
            });
        }
        for i in 0..spines {
            switches.push(Switch {
                id: SwitchId(leaves + i),
                name: format!("spine_{i}"),
                role: SwitchRole::Core,
                pod: None,
            });
        }
        let mut links = Vec::with_capacity(leaves * spines);
        for l in 0..leaves {
            for s in 0..spines {
                links.push(Link {
                    down: SwitchId(l),
                    up: SwitchId(leaves + s),
                });
            }
        }
        Ok(Topology {
            kind: TopologyKind::LeafSpine { leaves, spines },
            switches,
            links,
        })
    }

    /// Every switch, in id order.
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// Every link (lower tier first).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of switches.
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// Whether the fabric is empty (never true for generated fabrics).
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// The switch behind an id.
    ///
    /// # Panics
    ///
    /// Panics when the id does not belong to this topology.
    pub fn switch(&self, id: SwitchId) -> &Switch {
        &self.switches[id.0]
    }

    /// Ids of every edge switch, in id order — the valid flow endpoints.
    pub fn edge_switches(&self) -> Vec<SwitchId> {
        self.switches
            .iter()
            .filter(|s| s.role == SwitchRole::Edge)
            .map(|s| s.id)
            .collect()
    }

    /// Switch counts per role, indexed by [`SwitchRole::index`].
    pub fn role_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for s in &self.switches {
            counts[s.role.index()] += 1;
        }
        counts
    }

    /// The deterministic ECMP path from `src` to `dst` for `flow_id`:
    /// equal-cost uplink choices hash the flow id only, so a flow's path
    /// is a pure function of `(src, dst, flow_id)`.
    ///
    /// Paths are switch-id sequences including both endpoints. A flow
    /// from a switch to itself stays one hop long.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Topology`] when either endpoint is not an
    /// edge switch of this topology.
    pub fn path(&self, src: SwitchId, dst: SwitchId, flow_id: u64) -> Result<Vec<SwitchId>> {
        for endpoint in [src, dst] {
            let valid = self
                .switches
                .get(endpoint.0)
                .is_some_and(|s| s.role == SwitchRole::Edge);
            if !valid {
                return Err(FleetError::Topology(format!(
                    "flow endpoints must be edge switches, got id {}",
                    endpoint.0
                )));
            }
        }
        if src == dst {
            return Ok(vec![src]);
        }
        match self.kind {
            TopologyKind::LeafSpine { leaves, spines } => {
                let spine = SwitchId(leaves + (flow_id as usize % spines));
                Ok(vec![src, spine, dst])
            }
            TopologyKind::FatTree { k } => {
                let half = k / 2;
                let src_pod = src.0 / half;
                let dst_pod = dst.0 / half;
                let agg = |pod: usize, i: usize| SwitchId(k * half + pod * half + i);
                let up = flow_id as usize % half;
                if src_pod == dst_pod {
                    return Ok(vec![src, agg(src_pod, up), dst]);
                }
                let core_in_group = (flow_id as usize / half) % half;
                let core = SwitchId(k * k + up * half + core_in_group);
                Ok(vec![src, agg(src_pod, up), core, agg(dst_pod, up), dst])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fattree_k4_has_twenty_switches() {
        let t = Topology::fattree(4).unwrap();
        assert_eq!(t.len(), 20);
        assert_eq!(t.role_counts(), [8, 8, 4]);
        // k/2 uplinks + k/2 downlinks per aggregation switch: 8 pods'
        // worth of edge<->agg meshes plus agg<->core fans.
        assert_eq!(t.links().len(), 4 * (2 * 2) + 4 * (2 * 2));
    }

    #[test]
    fn fattree_rejects_odd_arity() {
        assert!(Topology::fattree(3).is_err());
        assert!(Topology::fattree(0).is_err());
    }

    #[test]
    fn leaf_spine_counts() {
        let t = Topology::leaf_spine(12, 4).unwrap();
        assert_eq!(t.len(), 16);
        assert_eq!(t.role_counts(), [12, 0, 4]);
        assert_eq!(t.links().len(), 48);
    }

    #[test]
    fn links_are_valid_and_cross_tier() {
        for t in [
            Topology::fattree(4).unwrap(),
            Topology::leaf_spine(5, 3).unwrap(),
        ] {
            for link in t.links() {
                let down = t.switch(link.down);
                let up = t.switch(link.up);
                assert!(down.role < up.role, "{} -> {}", down.name, up.name);
            }
        }
    }

    #[test]
    fn paths_are_deterministic_and_link_valid() {
        let t = Topology::fattree(4).unwrap();
        let link_set: HashSet<(usize, usize)> = t
            .links()
            .iter()
            .flat_map(|l| [(l.down.0, l.up.0), (l.up.0, l.down.0)])
            .collect();
        let edges = t.edge_switches();
        for &src in &edges {
            for &dst in &edges {
                for flow in 0..16u64 {
                    let path = t.path(src, dst, flow).unwrap();
                    assert_eq!(path, t.path(src, dst, flow).unwrap());
                    assert_eq!(path[0], src);
                    assert_eq!(*path.last().unwrap(), dst);
                    for hop in path.windows(2) {
                        assert!(
                            link_set.contains(&(hop[0].0, hop[1].0)),
                            "no link {} -> {}",
                            hop[0].0,
                            hop[1].0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn same_pod_paths_skip_the_core() {
        let t = Topology::fattree(4).unwrap();
        let path = t.path(SwitchId(0), SwitchId(1), 7).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(t.switch(path[1]).role, SwitchRole::Aggregation);
        assert_eq!(t.switch(path[1]).pod, Some(0));
    }

    #[test]
    fn cross_pod_paths_traverse_the_core() {
        let t = Topology::fattree(4).unwrap();
        for flow in 0..8u64 {
            let path = t.path(SwitchId(0), SwitchId(6), flow).unwrap();
            assert_eq!(path.len(), 5);
            assert_eq!(t.switch(path[2]).role, SwitchRole::Core);
        }
    }

    #[test]
    fn flow_id_spreads_over_spines() {
        let t = Topology::leaf_spine(4, 3).unwrap();
        let spines: HashSet<usize> = (0..9u64)
            .map(|f| t.path(SwitchId(0), SwitchId(1), f).unwrap()[1].0)
            .collect();
        assert_eq!(spines.len(), 3, "ECMP should use every spine");
    }

    #[test]
    fn non_edge_endpoints_are_rejected() {
        let t = Topology::fattree(4).unwrap();
        let core = t
            .switches()
            .iter()
            .find(|s| s.role == SwitchRole::Core)
            .unwrap()
            .id;
        assert!(t.path(SwitchId(0), core, 0).is_err());
        assert!(t.path(core, SwitchId(0), 0).is_err());
        assert!(t.path(SwitchId(0), SwitchId(999), 0).is_err());
    }
}

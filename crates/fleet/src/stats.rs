//! Fleet-wide serving statistics.
//!
//! [`FleetStats`] (built by [`Fleet::stats`](crate::fleet::Fleet::stats))
//! is a group-by over one snapshot of the fleet's deployment: its
//! per-tenant counters rolled up per switch, per role, and fleet-wide,
//! with gated-flow accounting from the run report and a Jain fairness
//! index over edge-switch load.

use crate::topology::SwitchRole;

/// One switch's aggregated serving stats.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchStats {
    /// Switch name (see [`crate::topology::Switch::name`]).
    pub name: String,
    /// Fabric tier.
    pub role: SwitchRole,
    /// Packets classified by this switch since the fleet launched.
    pub packets: usize,
    /// Verdict counts indexed by class, summed over tenants.
    pub verdict_histogram: Vec<usize>,
    /// Rows this switch forwarded in the reported run.
    pub forwarded: u64,
    /// Rows this switch gated (dropped) in the reported run.
    pub gated: u64,
}

/// One role's rollup across its switches.
#[derive(Debug, Clone, PartialEq)]
pub struct RoleStats {
    /// The tier.
    pub role: SwitchRole,
    /// Switches of this role.
    pub switches: usize,
    /// Packets classified across them.
    pub packets: usize,
    /// Verdict counts indexed by class.
    pub verdict_histogram: Vec<usize>,
    /// Rows forwarded in the reported run.
    pub forwarded: u64,
    /// Rows gated in the reported run.
    pub gated: u64,
}

/// Fleet-wide aggregation over one [`FleetReport`](crate::fleet::FleetReport).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Per-switch stats, indexed by switch id.
    pub switches: Vec<SwitchStats>,
    /// Per-role rollups (roles with no switches omitted).
    pub roles: Vec<RoleStats>,
    /// Packets classified fleet-wide.
    pub total_packets: usize,
    /// Fleet-wide verdict counts indexed by class.
    pub verdict_histogram: Vec<usize>,
    /// Rows forwarded fleet-wide in the reported run.
    pub forwarded_rows: u64,
    /// Rows gated fleet-wide in the reported run.
    pub gated_rows: u64,
    /// Jain fairness index of per-edge-switch packet load (1.0 = every
    /// edge switch served the same number of packets).
    pub edge_fairness: f64,
}

impl FleetStats {
    /// The rollup for one role, if any switch has it.
    pub fn role(&self, role: SwitchRole) -> Option<&RoleStats> {
        self.roles.iter().find(|r| r.role == role)
    }
}

/// Jain's fairness index: `(sum x)^2 / (n * sum x^2)`, in `(0, 1]`
/// with 1.0 meaning perfectly even load. Degenerate inputs (empty, or
/// all-zero loads) report 1.0 — nothing is unfairly loaded.
pub fn jain_fairness(loads: &[f64]) -> f64 {
    let sum: f64 = loads.iter().sum();
    let squares: f64 = loads.iter().map(|x| x * x).sum();
    if loads.is_empty() || squares <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (loads.len() as f64 * squares)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[10.0, 0.0, 0.0]);
        assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
        let mild = jain_fairness(&[4.0, 5.0, 6.0]);
        assert!(mild > 0.9 && mild < 1.0);
    }
}

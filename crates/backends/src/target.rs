//! The `Target` trait all backends implement.

use crate::model::ModelIr;
use crate::resources::{Constraints, FeasibilityReport, ResourceEstimate};
use crate::Result;

/// Which hardware family a target belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// Taurus-style MapReduce CGRA inside a PISA switch.
    Taurus,
    /// Plain PISA match-action pipeline (Tofino).
    Tofino,
    /// FPGA NIC/accelerator (P4-SDNet / NetFPGA flow).
    Fpga,
}

impl TargetKind {
    /// Native integer word width of the family's compute units, in bits —
    /// the width fact the static analyzer checks fixed-point formats
    /// against. Taurus CUs compute on 16-bit words (the paper's Q3.12
    /// format fills one); Tofino ALUs and FPGA datapaths handle 32-bit
    /// containers.
    pub fn word_bits(self) -> u32 {
        match self {
            TargetKind::Taurus => 16,
            TargetKind::Tofino => 32,
            TargetKind::Fpga => 32,
        }
    }
}

/// A data-plane backend: resource model + feasibility + code generator.
///
/// This is the object-safe interface the compiler core uses; each target
/// also exposes richer inherent methods.
pub trait Target {
    /// Human-readable target name (e.g. `"taurus-16x16"`).
    fn name(&self) -> &str;

    /// Hardware family.
    fn kind(&self) -> TargetKind;

    /// Whether this target can run the model family *at all* — the paper's
    /// first pruning step ("the core tries to rule out as many algorithms
    /// as possible based on the data-plane platform", §3.2.1).
    fn supports(&self, model: &ModelIr) -> bool;

    /// Estimates resources and performance for a model on this target.
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported or degenerate models.
    fn estimate(&self, model: &ModelIr) -> Result<ResourceEstimate>;

    /// Checks a model against constraints (estimate + compare).
    ///
    /// # Errors
    ///
    /// Propagates estimation errors.
    fn check(&self, model: &ModelIr, constraints: &Constraints) -> Result<FeasibilityReport> {
        Ok(constraints.check(&self.estimate(model)?))
    }

    /// Generates platform code for a *trained* model.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BackendError::MissingWeights`] when the IR has no
    /// trained parameters, and unsupported/invalid errors as appropriate.
    fn generate_code(&self, model: &ModelIr, pipeline_name: &str) -> Result<String>;

    /// The default resource budget of the physical device (used when the
    /// user's constraints do not override it).
    fn device_budget(&self) -> crate::resources::ResourceVector;

    /// Native integer word width in bits (see [`TargetKind::word_bits`]).
    /// A fixed-point format whose `total_bits` exceeds this cannot be
    /// computed natively on the device; the static analyzer flags it.
    fn word_bits(&self) -> u32 {
        self.kind().word_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taurus::TaurusTarget;

    #[test]
    fn trait_is_object_safe() {
        let t = TaurusTarget::default();
        let _obj: &dyn Target = &t;
    }
}

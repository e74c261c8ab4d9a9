//! The FPGA backend: P4-SDNet / NetFPGA-style flow on an Alveo U250.
//!
//! The paper's end-to-end testbed emulates the Taurus MapReduce core as a
//! bump-in-the-wire on a Xilinx Alveo U250 FPGA, and reports LUT/FF/BRAM
//! utilization and board power for every model (Table 5). This backend
//! reproduces that *estimator*.
//!
//! # Calibration (documented constants)
//!
//! Table 5 gives six model measurements plus a loopback floor:
//!
//! ```text
//! Loopback:  LUT 5.36%  FF 3.64%  BRAM 4.15%  15.131 W
//! Base-AD:   LUT 6.55%  FF 4.30%  BRAM 4.15%  16.969 W   (203 params, 3 layers)
//! Hom-AD:    LUT 6.61%  FF 4.43%  BRAM 4.15%  17.440 W   (254 params, 3 layers)
//! Base-TC:   LUT 6.69%  FF 4.48%  BRAM 4.15%  17.553 W   (275 params, 4 layers)
//! Hom-TC:    LUT 7.48%  FF 4.77%  BRAM 4.15%  18.405 W   (370 params, 4 layers)
//! Base-BD:   LUT 7.29%  FF 4.68%  BRAM 4.15%  17.807 W   (662 params, 5 layers)
//! Hom-BD:    LUT 6.72%  FF 4.49%  BRAM 4.15%  17.309 W   (501 params, 11 layers)
//! ```
//!
//! The linear model used here is **hand-set**, not fitted:
//!
//! - `ΔLUT% = 0.0016 * params + 0.02 * layers + 0.80`
//! - `ΔFF%  = 0.25 + 0.35 * ΔLUT%`
//! - `BRAM% = 4.15` (constant: parameters live in LUT-RAM, matching the
//!   paper's observation that "LUTs store the parameters of a model")
//! - `Power(W) = 15.131 + 1.30 * ΔLUT% + 0.40 * ΔFF%`
//!
//! Least squares over the six model rows would give
//! `ΔLUT% ≈ 0.0019 * params − 0.065 * layers + 1.12` instead. The
//! hand-set line meets Base-AD, Hom-AD, Base-TC and Base-BD within 0.04
//! points but misses Hom-TC (1.47 against 2.12) and Hom-BD (1.82 against
//! 1.36). The coefficients stay as they are: changing them moves every
//! number `paper table5` prints, so re-calibrating is its own change.
//!
//! The model reproduces Table 5's qualitative ordering: bigger searched
//! models consume more LUT/FF/power for AD and TC, and the ordering
//! *reverses* for BD where the Homunculus model has fewer parameters.

use crate::model::ModelIr;
use crate::resources::{Performance, ResourceEstimate, ResourceVector};
use crate::spatial;
use crate::target::{Target, TargetKind};
use crate::Result;

/// Loopback (bump-in-the-wire shell) floor from Table 5.
pub const LOOPBACK_LUT_PCT: f64 = 5.36;
/// Loopback FF floor from Table 5.
pub const LOOPBACK_FF_PCT: f64 = 3.64;
/// Loopback BRAM floor from Table 5.
pub const LOOPBACK_BRAM_PCT: f64 = 4.15;
/// Loopback board power from Table 5.
pub const LOOPBACK_POWER_W: f64 = 15.131;

/// Hand-set ΔLUT coefficients (see module docs).
const LUT_PER_PARAM: f64 = 0.0016;
const LUT_PER_LAYER: f64 = 0.02;
const LUT_BASE: f64 = 0.80;

/// An Alveo-class FPGA NIC running the P4-SDNet/Spatial flow.
///
/// # Example
///
/// ```
/// use homunculus_backends::fpga::FpgaTarget;
/// use homunculus_backends::target::Target;
/// use homunculus_backends::model::{DnnIr, ModelIr};
/// use homunculus_ml::mlp::MlpArchitecture;
///
/// # fn main() -> Result<(), homunculus_backends::BackendError> {
/// let fpga = FpgaTarget::default();
/// let model = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(7, vec![16, 4], 2)));
/// let est = fpga.estimate(&model)?;
/// assert!(est.resources.get("lut_pct") > 5.36); // above the loopback floor
/// assert!(est.resources.get("power_w") > 15.131);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaTarget {
    name: String,
    /// NIC line rate in GPkt/s (100 Gbps of minimum-size packets ≈ 0.148
    /// GPkt/s; the testbed forwards 100 Gbps through the CMAC core).
    pub line_rate_gpps: f64,
    /// Base pipeline latency in ns (PCIe-free bump-in-the-wire path).
    pub base_latency_ns: f64,
}

impl FpgaTarget {
    /// An Alveo U250 bump-in-the-wire at 100 Gbps.
    pub fn u250() -> Self {
        FpgaTarget {
            name: "fpga-alveo-u250".into(),
            line_rate_gpps: 0.148,
            base_latency_ns: 350.0,
        }
    }

    /// Predicted utilization/power deltas over the loopback floor for a
    /// model with `params` parameters and `layers` weight layers.
    pub fn deltas(params: usize, layers: usize) -> (f64, f64) {
        let d_lut = LUT_PER_PARAM * params as f64 + LUT_PER_LAYER * layers as f64 + LUT_BASE;
        let d_ff = 0.25 + 0.35 * d_lut;
        (d_lut, d_ff)
    }

    /// The loopback-only estimate (no model loaded) — Table 5's first row.
    pub fn loopback_estimate(&self) -> ResourceEstimate {
        ResourceEstimate {
            resources: ResourceVector::new()
                .with("lut_pct", LOOPBACK_LUT_PCT)
                .with("ff_pct", LOOPBACK_FF_PCT)
                .with("bram_pct", LOOPBACK_BRAM_PCT)
                .with("power_w", LOOPBACK_POWER_W),
            performance: Performance {
                throughput_gpps: self.line_rate_gpps,
                latency_ns: self.base_latency_ns,
            },
        }
    }
}

impl Default for FpgaTarget {
    fn default() -> Self {
        FpgaTarget::u250()
    }
}

impl Target for FpgaTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> TargetKind {
        TargetKind::Fpga
    }

    fn supports(&self, _model: &ModelIr) -> bool {
        // The FPGA fabric is fully general.
        true
    }

    fn estimate(&self, model: &ModelIr) -> Result<ResourceEstimate> {
        model.validate()?;
        let (params, layers) = match model {
            ModelIr::Dnn(d) => (d.param_count(), d.arch.depth()),
            ModelIr::Svm(s) => (s.n_features * s.n_classes + s.n_classes, 1),
            ModelIr::KMeans(k) => (k.k * k.n_features, 1),
            ModelIr::Tree(t) => (t.leaves, 1),
            ModelIr::Forest(f) => (f.total_leaves(), 1),
        };
        let (d_lut, d_ff) = Self::deltas(params, layers);
        let lut = LOOPBACK_LUT_PCT + d_lut;
        let ff = LOOPBACK_FF_PCT + d_ff;
        let power = LOOPBACK_POWER_W + 1.30 * d_lut + 0.40 * d_ff;

        Ok(ResourceEstimate {
            resources: ResourceVector::new()
                .with("lut_pct", lut)
                .with("ff_pct", ff)
                .with("bram_pct", LOOPBACK_BRAM_PCT)
                .with("power_w", power),
            performance: Performance {
                // The fabric pipelines at line rate as long as utilization
                // is sane; past ~85% LUT the router fails timing.
                throughput_gpps: if lut < 85.0 { self.line_rate_gpps } else { 0.0 },
                latency_ns: self.base_latency_ns + 8.0 * layers as f64,
            },
        })
    }

    fn generate_code(&self, model: &ModelIr, pipeline_name: &str) -> Result<String> {
        // The testbed compiles Spatial -> Verilog for the FPGA; we emit
        // the same Spatial source as the Taurus backend. Decision trees
        // go through the P4-SDNet flow instead.
        match model {
            ModelIr::Tree(_) | ModelIr::Forest(_) => crate::p4::generate(model, pipeline_name),
            _ => spatial::generate(model, pipeline_name),
        }
    }

    fn device_budget(&self) -> ResourceVector {
        ResourceVector::new()
            .with("lut_pct", 100.0)
            .with("ff_pct", 100.0)
            .with("bram_pct", 100.0)
            .with("power_w", 225.0) // U250 board budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DnnIr;
    use homunculus_ml::mlp::MlpArchitecture;

    fn dnn(input: usize, hidden: Vec<usize>, output: usize) -> ModelIr {
        ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
            input, hidden, output,
        )))
    }

    /// Table 5 anchoring: predictions within ~0.6% utilization and ~0.7 W
    /// of the published measurements for the three baseline models.
    #[test]
    fn calibration_matches_table5_baselines() {
        let fpga = FpgaTarget::default();
        let rows = [
            (dnn(7, vec![16, 4], 2), 6.55, 4.30, 16.969), // Base-AD
            (dnn(7, vec![10, 10, 5], 5), 6.69, 4.48, 17.553), // Base-TC
            (dnn(30, vec![10, 10, 10, 10], 2), 7.29, 4.68, 17.807), // Base-BD
        ];
        for (model, lut, ff, power) in rows {
            let est = fpga.estimate(&model).unwrap();
            assert!(
                (est.resources.get("lut_pct") - lut).abs() < 0.6,
                "lut {} vs paper {lut}",
                est.resources.get("lut_pct")
            );
            assert!(
                (est.resources.get("ff_pct") - ff).abs() < 0.6,
                "ff {} vs paper {ff}",
                est.resources.get("ff_pct")
            );
            assert!(
                (est.resources.get("power_w") - power).abs() < 0.8,
                "power {} vs paper {power}",
                est.resources.get("power_w")
            );
        }
    }

    #[test]
    fn bram_constant_at_floor() {
        let fpga = FpgaTarget::default();
        for model in [dnn(7, vec![4], 2), dnn(30, vec![32, 32], 2)] {
            let est = fpga.estimate(&model).unwrap();
            assert_eq!(est.resources.get("bram_pct"), LOOPBACK_BRAM_PCT);
        }
    }

    #[test]
    fn bigger_model_more_lut_and_power() {
        let fpga = FpgaTarget::default();
        let small = fpga.estimate(&dnn(7, vec![8], 2)).unwrap();
        let big = fpga.estimate(&dnn(7, vec![64, 32], 2)).unwrap();
        assert!(big.resources.get("lut_pct") > small.resources.get("lut_pct"));
        assert!(big.resources.get("power_w") > small.resources.get("power_w"));
    }

    /// Table 5's BD inversion: the Homunculus BD model (fewer params,
    /// more layers) uses *less* LUT/power than the baseline.
    #[test]
    fn bd_ordering_reverses() {
        let fpga = FpgaTarget::default();
        let base_bd = fpga.estimate(&dnn(30, vec![10, 10, 10, 10], 2)).unwrap();
        let hom_bd = fpga
            .estimate(&dnn(30, vec![5, 5, 5, 5, 5, 5, 5, 5, 5, 5], 2))
            .unwrap();
        assert!(
            hom_bd.resources.get("lut_pct") < base_bd.resources.get("lut_pct"),
            "hom-bd {} should be below base-bd {}",
            hom_bd.resources.get("lut_pct"),
            base_bd.resources.get("lut_pct")
        );
        assert!(hom_bd.resources.get("power_w") < base_bd.resources.get("power_w"));
    }

    #[test]
    fn loopback_matches_table5_exactly() {
        let fpga = FpgaTarget::default();
        let lb = fpga.loopback_estimate();
        assert_eq!(lb.resources.get("lut_pct"), 5.36);
        assert_eq!(lb.resources.get("ff_pct"), 3.64);
        assert_eq!(lb.resources.get("bram_pct"), 4.15);
        assert_eq!(lb.resources.get("power_w"), 15.131);
    }

    #[test]
    fn supports_everything() {
        let fpga = FpgaTarget::default();
        assert!(fpga.supports(&dnn(7, vec![256, 256], 2)));
        assert_eq!(fpga.kind(), TargetKind::Fpga);
        assert!(fpga.device_budget().get("lut_pct") == 100.0);
    }
}

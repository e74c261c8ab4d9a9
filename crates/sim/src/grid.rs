//! Placement and stream timing on the Taurus MapReduce CGRA grid.
//!
//! This stands in for the paper's Tungsten/SARA simulator without
//! re-deriving its cost model: a model lowers through
//! [`TaurusTarget::stages`], the same stage list the estimator sums.
//! The simulator **places** each stage's compute/memory units onto the
//! `rows x cols` grid and times a packet stream in closed form: packet
//! `i` is admitted at cycle `i * II` and leaves after the stages'
//! latency. Its latency and throughput therefore equal the estimator's;
//! a concrete placement is what it adds.

use crate::{Result, SimError};
use homunculus_backends::model::ModelIr;
use homunculus_backends::taurus::{GridStage, TaurusTarget};
use serde::{Deserialize, Serialize};

/// A placed unit on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedUnit {
    /// Stage the unit belongs to (0 is the fixed parse/deparse stage).
    pub stage: usize,
    /// Grid row.
    pub row: usize,
    /// Grid column.
    pub col: usize,
    /// Whether the unit is a CU (`true`) or MU (`false`).
    pub is_cu: bool,
}

/// A complete placement of a model on the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// All placed units.
    pub units: Vec<PlacedUnit>,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
}

impl Placement {
    /// Fraction of CU slots occupied.
    pub fn cu_utilization(&self) -> f64 {
        let used = self.units.iter().filter(|u| u.is_cu).count();
        used as f64 / (self.rows * self.cols) as f64
    }

    /// Fraction of MU slots occupied.
    pub fn mu_utilization(&self) -> f64 {
        let used = self.units.iter().filter(|u| !u.is_cu).count();
        used as f64 / (self.rows * self.cols) as f64
    }
}

/// Timing of a packet stream through the lowered pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Packets simulated.
    pub packets: usize,
    /// Total cycles until the last packet drained.
    pub total_cycles: u64,
    /// Initiation interval (cycles between packet admissions).
    pub initiation_interval: u64,
    /// Per-packet pipeline latency in cycles.
    pub pipeline_latency_cycles: u64,
    /// Latency in nanoseconds at the target's clock.
    pub latency_ns: f64,
    /// Throughput in GPkt/s at the target's clock.
    pub throughput_gpps: f64,
}

/// The grid simulator.
///
/// # Example
///
/// ```
/// use homunculus_sim::grid::GridSimulator;
/// use homunculus_backends::model::{DnnIr, ModelIr};
/// use homunculus_ml::mlp::MlpArchitecture;
///
/// # fn main() -> Result<(), homunculus_sim::SimError> {
/// let sim = GridSimulator::new(16, 16, 1.0);
/// let model = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(7, vec![16, 4], 2)));
/// let report = sim.simulate(&model, 1_000)?;
/// assert_eq!(report.initiation_interval, 1); // line rate
/// assert!(report.latency_ns < 500.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSimulator {
    /// The Taurus switch whose grid is simulated.
    pub target: TaurusTarget,
}

impl GridSimulator {
    /// Creates a simulator for a `rows x cols` grid at `clock_ghz`.
    pub fn new(rows: usize, cols: usize, clock_ghz: f64) -> Self {
        let mut target = TaurusTarget::new(rows, cols);
        target.clock_ghz = clock_ghz;
        GridSimulator { target }
    }

    /// Simulator of a [`TaurusTarget`]'s grid.
    pub fn for_target(target: &TaurusTarget) -> Self {
        GridSimulator {
            target: target.clone(),
        }
    }

    /// Lowers a model into its pipeline stages ([`TaurusTarget::stages`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] for models the grid cannot run.
    pub fn lower(&self, model: &ModelIr) -> Result<Vec<GridStage>> {
        self.target
            .stages(model)
            .map_err(|e| SimError::Unsupported(e.to_string()))
    }

    /// Places the stages onto the grid (row-major, CUs and MUs in separate
    /// planes, as in Plasticine's checkerboard). Placement succeeds exactly
    /// when the stages run at an initiation interval of 1.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DoesNotFit`] when either plane overflows.
    pub fn place(&self, stages: &[GridStage]) -> Result<Placement> {
        let (rows, cols) = (self.target.rows, self.target.cols);
        let ii = self.target.initiation_interval(stages);
        if ii > 1 {
            return Err(SimError::DoesNotFit(format!(
                "{} CUs / {} MUs overflow {rows}x{cols} grid slots (II {ii})",
                stages.iter().map(|s| s.cus).sum::<usize>(),
                stages.iter().map(|s| s.mus).sum::<usize>(),
            )));
        }
        let mut units = Vec::new();
        let (mut cu_cursor, mut mu_cursor) = (0usize, 0usize);
        for (stage, s) in stages.iter().enumerate() {
            for (count, cursor, is_cu) in [
                (s.cus, &mut cu_cursor, true),
                (s.mus, &mut mu_cursor, false),
            ] {
                for _ in 0..count {
                    units.push(PlacedUnit {
                        stage,
                        row: *cursor / cols,
                        col: *cursor % cols,
                        is_cu,
                    });
                    *cursor += 1;
                }
            }
        }
        Ok(Placement { units, rows, cols })
    }

    /// Times `packets` packets through the lowered pipeline: packet `i` is
    /// admitted at cycle `i * II` and drains `latency` cycles later.
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidConfig`] when `packets == 0`.
    /// - Propagates lowering errors. An oversized model is timed at its
    ///   degraded II, as the estimator prices it; only
    ///   [`GridSimulator::place`] refuses it.
    pub fn simulate(&self, model: &ModelIr, packets: usize) -> Result<SimReport> {
        if packets == 0 {
            return Err(SimError::InvalidConfig("need at least one packet".into()));
        }
        let stages = self.lower(model)?;
        let ii = self.target.initiation_interval(&stages);
        let latency: u64 = stages.iter().map(|s| s.latency_cycles as u64).sum();
        let clock = self.target.clock_ghz;
        Ok(SimReport {
            packets,
            total_cycles: (packets as u64 - 1) * ii + latency + 1,
            initiation_interval: ii,
            pipeline_latency_cycles: latency,
            latency_ns: latency as f64 / clock,
            throughput_gpps: clock / ii as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_backends::model::{DnnIr, ForestIr, KMeansIr, SvmIr, TreeIr};
    use homunculus_backends::resources::Constraints;
    use homunculus_backends::target::Target;
    use homunculus_ml::mlp::MlpArchitecture;
    use proptest::prelude::*;

    fn dnn(input: usize, hidden: Vec<usize>, output: usize) -> ModelIr {
        ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
            input, hidden, output,
        )))
    }

    #[test]
    fn small_model_reaches_line_rate() {
        let sim = GridSimulator::new(16, 16, 1.0);
        let report = sim.simulate(&dnn(7, vec![16, 4], 2), 10_000).unwrap();
        assert_eq!(report.initiation_interval, 1);
        assert_eq!(report.throughput_gpps, 1.0);
        assert!(report.latency_ns < 500.0, "latency {}", report.latency_ns);
        // Draining 10k packets at II=1 takes ~10k + latency cycles.
        assert!(report.total_cycles < 10_000 + 200);
    }

    #[test]
    fn oversized_model_degrades_throughput() {
        let sim = GridSimulator::new(4, 4, 1.0);
        let report = sim.simulate(&dnn(30, vec![64, 64], 2), 100).unwrap();
        assert!(report.initiation_interval > 1);
        assert!(report.throughput_gpps < 1.0);
    }

    #[test]
    fn placement_respects_grid_bounds() {
        let sim = GridSimulator::new(16, 16, 1.0);
        let stages = sim.lower(&dnn(7, vec![16, 4], 2)).unwrap();
        let placement = sim.place(&stages).unwrap();
        for u in &placement.units {
            assert!(u.row < 16 && u.col < 16, "unit out of bounds: {u:?}");
        }
        // No two CUs share a slot; no two MUs share a slot.
        let mut cu_slots = std::collections::HashSet::new();
        let mut mu_slots = std::collections::HashSet::new();
        for u in &placement.units {
            let fresh = if u.is_cu {
                cu_slots.insert((u.row, u.col))
            } else {
                mu_slots.insert((u.row, u.col))
            };
            assert!(fresh, "slot reused: {u:?}");
        }
        assert!(placement.cu_utilization() > 0.0 && placement.cu_utilization() <= 1.0);
    }

    #[test]
    fn placement_rejects_overflow() {
        let sim = GridSimulator::new(2, 2, 1.0);
        let stages = sim.lower(&dnn(30, vec![32], 2)).unwrap();
        assert!(matches!(sim.place(&stages), Err(SimError::DoesNotFit(_))));
    }

    #[test]
    fn simulator_agrees_with_taurus_estimator() {
        // The simulator times the stages the estimator prices, so the two
        // agree on feasibility verdicts.
        let target = TaurusTarget::default();
        let sim = GridSimulator::for_target(&target);
        let constraints = Constraints::new().throughput_gpps(1.0).latency_ns(500.0);
        for model in [
            dnn(7, vec![16, 4], 2),
            dnn(7, vec![10, 10, 5], 5),
            dnn(30, vec![10, 10, 10, 10], 2),
        ] {
            let est = target.check(&model, &constraints).unwrap();
            let report = sim.simulate(&model, 100).unwrap();
            let sim_feasible = report.throughput_gpps >= 1.0 && report.latency_ns <= 500.0;
            assert_eq!(
                est.is_feasible(),
                sim_feasible,
                "estimator and simulator disagree for {model:?}"
            );
        }
    }

    #[test]
    fn svm_and_kmeans_lower_to_one_layer_stage() {
        let sim = GridSimulator::new(16, 16, 1.0);
        let svm = ModelIr::Svm(SvmIr::from_shape(7, 2));
        let km = ModelIr::KMeans(KMeansIr::from_shape(5, 7));
        for model in [svm, km] {
            // The fixed parse/extract/argmax/deparse stage, then one layer.
            let stages = sim.lower(&model).unwrap();
            assert_eq!(stages.len(), 2);
            assert_eq!(
                (stages[0].cus, stages[0].mus, stages[0].latency_cycles),
                (2, 1, 24)
            );
        }
    }

    #[test]
    fn trees_and_forests_are_placed() {
        let sim = GridSimulator::new(16, 16, 1.0);
        let tree = ModelIr::Tree(TreeIr::from_shape(4, 7, 16));
        let forest = ModelIr::Forest(ForestIr::from_shape(3, 4, 7, 16));
        for model in [&tree, &forest] {
            let stages = sim.lower(model).unwrap();
            assert!(sim.place(&stages).is_ok(), "{model:?}");
        }
        assert_eq!(sim.simulate(&tree, 10).unwrap().latency_ns, 30.0);
        // Deeper than the grid has rows: the target refuses it.
        let deep = ModelIr::Tree(TreeIr::from_shape(40, 7, 100));
        assert!(matches!(sim.lower(&deep), Err(SimError::Unsupported(_))));
    }

    #[test]
    fn zero_packets_rejected() {
        let sim = GridSimulator::new(16, 16, 1.0);
        assert!(matches!(
            sim.simulate(&dnn(7, vec![4], 2), 0),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn latency_grows_with_depth() {
        let sim = GridSimulator::new(32, 32, 1.0);
        let shallow = sim.simulate(&dnn(7, vec![8], 2), 10).unwrap();
        let deep = sim.simulate(&dnn(7, vec![8, 8, 8, 8], 2), 10).unwrap();
        assert!(deep.latency_ns > shallow.latency_ns);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_throughput_inversely_proportional_to_ii(
            width in 2usize..40,
            rows in 2usize..20,
        ) {
            let sim = GridSimulator::new(rows, rows, 1.0);
            let model = dnn(7, vec![width], 2);
            let report = sim.simulate(&model, 50).unwrap();
            let expect = 1.0 / report.initiation_interval as f64;
            prop_assert!((report.throughput_gpps - expect).abs() < 1e-9);
            prop_assert!(report.pipeline_latency_cycles > 0);
        }
    }
}

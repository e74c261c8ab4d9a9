//! MAT pipeline allocation (Tofino-style PISA switch).
//!
//! Allocates the tables [`TofinoTarget::tables`] lists onto pipeline
//! stages, packed as [`TofinoTarget::stage_walk`] packs them, and times the
//! walk with the same function. PISA pipelines are rigid: a packet visits
//! every stage exactly once at line rate, so the questions are *does the
//! program fit* (tables x stages) and *what latency does the stage walk
//! incur*. The answers equal the Tofino estimator's by construction; the
//! table-to-stage allocation is what the simulator adds.

use crate::{Result, SimError};
use homunculus_backends::model::ModelIr;
use homunculus_backends::tofino::{TofinoTarget, TABLES_PER_STAGE};

/// A table allocated to a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocatedTable {
    /// Table name (e.g. `cluster_3`).
    pub name: String,
    /// Stage index the table landed in.
    pub stage: usize,
}

/// A full program allocation onto the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MatAllocation {
    /// All allocated tables.
    pub tables: Vec<AllocatedTable>,
    /// Number of stages the program occupies.
    pub stages_used: usize,
}

/// Timing/throughput report for the MAT pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MatReport {
    /// Packets simulated.
    pub packets: usize,
    /// Tables the program needed.
    pub tables_used: usize,
    /// Stages the program needed.
    pub stages_used: usize,
    /// Per-packet latency in nanoseconds.
    pub latency_ns: f64,
    /// Line-rate throughput in GPkt/s (constant for a fitting program).
    pub throughput_gpps: f64,
}

/// The MAT pipeline simulator.
///
/// # Example
///
/// ```
/// use homunculus_sim::mat::MatSimulator;
/// use homunculus_backends::model::{KMeansIr, ModelIr};
/// use homunculus_backends::tofino::TofinoTarget;
///
/// # fn main() -> Result<(), homunculus_sim::SimError> {
/// let sim = MatSimulator::for_target(&TofinoTarget::default());
/// let model = ModelIr::KMeans(KMeansIr::from_shape(5, 7));
/// let report = sim.simulate(&model, 1_000)?;
/// assert_eq!(report.tables_used, 5);
/// assert_eq!(report.throughput_gpps, 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatSimulator {
    /// The Tofino switch whose pipeline is simulated.
    pub target: TofinoTarget,
}

impl MatSimulator {
    /// Simulator of a [`TofinoTarget`]'s pipeline.
    pub fn for_target(target: &TofinoTarget) -> Self {
        MatSimulator {
            target: target.clone(),
        }
    }

    /// Allocates the model's tables onto stages in dependency order,
    /// [`TABLES_PER_STAGE`] to a stage.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DoesNotFit`] when the tables exceed the MAT
    /// budget or the stages exceed the pipeline.
    pub fn allocate(&self, model: &ModelIr) -> Result<MatAllocation> {
        model
            .validate()
            .map_err(|e| SimError::Unsupported(e.to_string()))?;
        let names = TofinoTarget::tables(model);
        let (stages_used, _) = self.target.stage_walk(names.len());
        if names.len() > self.target.mats || stages_used > self.target.stages {
            return Err(SimError::DoesNotFit(format!(
                "{} tables in {stages_used} stages > {} MATs in {} stages",
                names.len(),
                self.target.mats,
                self.target.stages
            )));
        }
        let tables = names
            .into_iter()
            .enumerate()
            .map(|(i, name)| AllocatedTable {
                name,
                stage: i / TABLES_PER_STAGE,
            })
            .collect();
        Ok(MatAllocation {
            tables,
            stages_used,
        })
    }

    /// Walks `packets` packets through the allocated pipeline.
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidConfig`] when `packets == 0`.
    /// - Propagates allocation errors.
    pub fn simulate(&self, model: &ModelIr, packets: usize) -> Result<MatReport> {
        if packets == 0 {
            return Err(SimError::InvalidConfig("need at least one packet".into()));
        }
        let tables_used = self.allocate(model)?.tables.len();
        let (stages_used, latency_ns) = self.target.stage_walk(tables_used);
        Ok(MatReport {
            packets,
            tables_used,
            stages_used,
            latency_ns,
            throughput_gpps: self.target.line_rate_gpps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_backends::model::{DnnIr, KMeansIr, SvmIr, TreeIr};
    use homunculus_ml::mlp::MlpArchitecture;

    fn sim() -> MatSimulator {
        MatSimulator::for_target(&TofinoTarget::default())
    }

    #[test]
    fn kmeans_tables_match_clusters() {
        for k in 1..=5 {
            let model = ModelIr::KMeans(KMeansIr::from_shape(k, 7));
            let report = sim().simulate(&model, 10).unwrap();
            assert_eq!(report.tables_used, k);
        }
    }

    #[test]
    fn svm_feature_tables_plus_decision() {
        let model = ModelIr::Svm(SvmIr::from_shape(7, 2));
        let alloc = sim().allocate(&model).unwrap();
        assert_eq!(alloc.tables.len(), 8);
        assert_eq!(alloc.tables.last().unwrap().name, "decision");
    }

    #[test]
    fn allocation_packs_stages_in_order() {
        let model = ModelIr::KMeans(KMeansIr::from_shape(9, 7));
        let alloc = sim().allocate(&model).unwrap();
        assert_eq!(alloc.stages_used, 3); // ceil(9/4)
        assert_eq!(alloc.tables[0].stage, 0);
        assert_eq!(alloc.tables[8].stage, 2);
        // Stages are monotone in table order (dependency preservation).
        for w in alloc.tables.windows(2) {
            assert!(w[0].stage <= w[1].stage);
        }
    }

    #[test]
    fn overflow_rejected() {
        let sim = MatSimulator::for_target(&TofinoTarget::with_mats(4));
        let model = ModelIr::KMeans(KMeansIr::from_shape(5, 7));
        assert!(matches!(sim.allocate(&model), Err(SimError::DoesNotFit(_))));
    }

    #[test]
    fn bnn_dnn_explodes_table_count() {
        let dnn = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
            7,
            vec![8, 8],
            2,
        )));
        // 3 layers x 12 MATs = 36 tables: fits 48 MATs, not 32.
        let big = MatSimulator::for_target(&TofinoTarget::with_mats(48));
        assert_eq!(big.allocate(&dnn).unwrap().tables.len(), 36);
        assert!(matches!(sim().allocate(&dnn), Err(SimError::DoesNotFit(_))));
    }

    #[test]
    fn latency_scales_with_stages() {
        let small = sim()
            .simulate(&ModelIr::KMeans(KMeansIr::from_shape(2, 7)), 10)
            .unwrap();
        let large = sim()
            .simulate(&ModelIr::KMeans(KMeansIr::from_shape(9, 7)), 10)
            .unwrap();
        assert!(large.latency_ns > small.latency_ns);
        assert_eq!(
            large.throughput_gpps, small.throughput_gpps,
            "line rate constant"
        );
    }

    #[test]
    fn tree_allocates_feature_tables() {
        let tree = ModelIr::Tree(TreeIr::from_shape(3, 4, 8));
        let alloc = sim().allocate(&tree).unwrap();
        assert_eq!(alloc.tables.len(), 5);
        assert_eq!(alloc.tables.last().unwrap().name, "leaves");
    }

    #[test]
    fn zero_packets_rejected() {
        let model = ModelIr::KMeans(KMeansIr::from_shape(2, 7));
        assert!(matches!(
            sim().simulate(&model, 0),
            Err(SimError::InvalidConfig(_))
        ));
    }
}

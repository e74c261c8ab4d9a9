//! Stream timing on the Taurus MapReduce CGRA grid.
//!
//! A model lowers through [`TaurusTarget::stages`], the stage list the
//! estimator sums, and a packet stream is timed in closed form: packet
//! `i` is admitted at cycle `i * II` and leaves after the stages'
//! latency. Latency and throughput therefore equal the estimator's.

use crate::{Result, SimError};
use homunculus_backends::model::ModelIr;
use homunculus_backends::taurus::TaurusTarget;

/// Timing of a packet stream through the lowered pipeline.
#[derive(Debug, Clone, PartialEq)]
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
/// use homunculus_backends::model::{ModelIr, SvmIr};
///
/// # fn main() -> Result<(), homunculus_sim::SimError> {
/// let sim = GridSimulator::new(16, 16, 1.0);
/// let report = sim.simulate(&ModelIr::Svm(SvmIr::from_shape(7, 2)), 1_000)?;
/// assert_eq!(report.initiation_interval, 1); // line rate
/// assert!(report.latency_ns < 500.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
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

    /// Times `packets` packets through the lowered pipeline: packet `i` is
    /// admitted at cycle `i * II` and drains `latency` cycles later. An
    /// oversized model is timed at its degraded II, as the estimator
    /// prices it.
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidConfig`] when `packets == 0`.
    /// - [`SimError::Unsupported`] for models the grid cannot run.
    pub fn simulate(&self, model: &ModelIr, packets: usize) -> Result<SimReport> {
        if packets == 0 {
            return Err(SimError::InvalidConfig("need at least one packet".into()));
        }
        let stages = self
            .target
            .stages(model)
            .map_err(|e| SimError::Unsupported(e.to_string()))?;
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
    use homunculus_backends::model::{KMeansIr, TreeIr};

    #[test]
    fn stream_drains_after_one_latency_at_the_initiation_interval() {
        let sim = GridSimulator::new(16, 16, 1.0);
        let report = sim
            .simulate(&ModelIr::KMeans(KMeansIr::from_shape(5, 7)), 10_000)
            .unwrap();
        assert_eq!(report.initiation_interval, 1);
        assert_eq!(report.throughput_gpps, 1.0);
        assert_eq!(
            report.total_cycles,
            9_999 + report.pipeline_latency_cycles + 1
        );
        // An oversized model is timed, not refused: 40 clusters of 30
        // features need 160 CUs, over a 4x4 grid's 16.
        let small = GridSimulator::new(4, 4, 1.0);
        let report = small
            .simulate(&ModelIr::KMeans(KMeansIr::from_shape(40, 30)), 100)
            .unwrap();
        assert!(report.initiation_interval > 1);
        assert_eq!(
            report.throughput_gpps,
            1.0 / report.initiation_interval as f64
        );
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let sim = GridSimulator::new(16, 16, 1.0);
        assert!(matches!(
            sim.simulate(&ModelIr::KMeans(KMeansIr::from_shape(2, 7)), 0),
            Err(SimError::InvalidConfig(_))
        ));
        // Deeper than the grid has rows: the target refuses it.
        let deep = ModelIr::Tree(TreeIr::from_shape(40, 7, 100));
        assert!(matches!(
            sim.simulate(&deep, 10),
            Err(SimError::Unsupported(_))
        ));
    }
}

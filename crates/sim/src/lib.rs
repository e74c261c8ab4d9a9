#![forbid(unsafe_code)]
//! # homunculus-sim
//!
//! Simulators standing in for the paper's feasibility-testing
//! infrastructure (§3.3: "testing is done using hardware testbed platforms
//! or cycle-accurate simulators, e.g. Tungsten for Taurus or Xilinx Vivado
//! for FPGAs"). Neither re-derives a cost model: each holds the backend
//! target it models and places the stages that target's estimator prices,
//! so its timing equals the estimate and its placement is what it adds.
//!
//! - [`grid`] — the Taurus MapReduce CGRA: places
//!   [`TaurusTarget::stages`](homunculus_backends::taurus::TaurusTarget::stages)
//!   onto a CU/MU grid and times a packet stream in closed form
//!   (initiation interval, latency, throughput, utilization).
//! - [`mat`] — the Tofino MAT pipeline: allocates
//!   [`TofinoTarget::tables`](homunculus_backends::tofino::TofinoTarget::tables)
//!   onto PISA stages and times the stage walk.
//! - [`pktgen`] — a MoonGen-like traffic source plus an end-to-end
//!   streaming evaluation harness (inference on every packet while the
//!   timing model advances), used for the per-packet reaction-time
//!   experiments.

pub mod grid;
pub mod mat;
pub mod pktgen;

use std::error::Error;
use std::fmt;

/// Errors produced by the simulators.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The model does not fit the simulated fabric.
    DoesNotFit(String),
    /// The model/IR was invalid or unsupported by this simulator.
    Unsupported(String),
    /// Simulation parameters were degenerate.
    InvalidConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DoesNotFit(msg) => write!(f, "model does not fit fabric: {msg}"),
            SimError::Unsupported(msg) => write!(f, "unsupported by simulator: {msg}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid simulation config: {msg}"),
        }
    }
}

impl Error for SimError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            SimError::DoesNotFit("x".into()).to_string(),
            "model does not fit fabric: x"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}

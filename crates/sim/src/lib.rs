#![forbid(unsafe_code)]
//! # homunculus-sim
//!
//! What is left of the simulator layer, kept for two callers only: the
//! hbench benchmark (`crates/bench/src/bin/hbench`) reads
//! [`grid::GridSimulator::simulate`] for its `sim.grid_ns_per_pkt` reading
//! and checks its fleet against [`pktgen::replay_path`], and
//! `tests/fleet_determinism.rs` uses the same reference. Every other
//! caller reads the backend target directly:
//! [`TaurusTarget::estimate`](homunculus_backends::taurus::TaurusTarget)
//! already prices exactly the stages a grid simulation would time.
//!
//! Both items leave, together with this crate and the facade's `sim`
//! module, when the benchmark's own sources next change (ROADMAP item 3).
//!
//! - [`grid`] — closed-form timing of a packet stream through
//!   [`TaurusTarget::stages`](homunculus_backends::taurus::TaurusTarget::stages).
//! - [`pktgen`] — [`pktgen::replay_path`], the sequential multi-hop
//!   reference the fleet is checked against.

pub mod grid;
pub mod pktgen;

use std::error::Error;
use std::fmt;

/// Errors produced by the simulators.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The model/IR was invalid or unsupported by this simulator.
    Unsupported(String),
    /// Simulation parameters were degenerate.
    InvalidConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
            SimError::InvalidConfig("x".into()).to_string(),
            "invalid simulation config: x"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}

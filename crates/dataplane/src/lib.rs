#![forbid(unsafe_code)]
//! # homunculus-dataplane
//!
//! Data-plane substrate for the Homunculus reproduction: packets, feature
//! layouts, and FlowLens-style *flowmarker* histograms.
//!
//! The paper's applications consume two granularities of network data:
//!
//! - **per-packet features** (anomaly detection, traffic classification) —
//!   the [`features::PACKET_FEATURE_NAMES`] layout the anomaly-detection
//!   generator synthesises, and header fields extracted from a single
//!   [`packet::Packet`] by [`features::header_features`];
//! - **per-conversation flowmarkers** (botnet detection) — coarse-grained
//!   histograms of packet lengths and inter-arrival times accumulated by
//!   [`histogram::Flowmarker`], following FlowLens (NDSS 2021), including
//!   the bin-fusion trick the paper uses to shrink markers from 151 to 30
//!   bins (§5.1.2).
//!
//! # Example
//!
//! ```
//! use homunculus_dataplane::histogram::{Flowmarker, FlowmarkerConfig};
//! use homunculus_dataplane::packet::{Packet, Protocol};
//!
//! # fn main() -> Result<(), homunculus_dataplane::DataplaneError> {
//! let config = FlowmarkerConfig::paper_reduced(); // 23 PL + 7 IPT bins
//! let mut marker = Flowmarker::new(config)?;
//! let base = 1_000_000u64;
//! for i in 0..10u64 {
//!     let pkt = Packet::builder()
//!         .timestamp_ns(base + i * 1_000_000_000)
//!         .size_bytes(120 + (i as u32) * 40)
//!         .protocol(Protocol::Udp)
//!         .build();
//!     marker.observe(&pkt);
//! }
//! assert_eq!(marker.packet_count(), 10);
//! assert_eq!(marker.feature_vector().len(), 30);
//! # Ok(())
//! # }
//! ```

pub mod features;
pub mod histogram;
pub mod packet;

use std::error::Error;
use std::fmt;

/// Errors produced by the data-plane substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataplaneError {
    /// A configuration value was outside its valid domain.
    InvalidConfig(String),
    /// An operation required packets but none were observed.
    NoPackets,
}

impl fmt::Display for DataplaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataplaneError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DataplaneError::NoPackets => write!(f, "no packets observed"),
        }
    }
}

impl Error for DataplaneError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, DataplaneError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            DataplaneError::InvalidConfig("x".into()).to_string(),
            "invalid configuration: x"
        );
        assert_eq!(DataplaneError::NoPackets.to_string(), "no packets observed");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataplaneError>();
    }
}

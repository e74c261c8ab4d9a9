#![forbid(unsafe_code)]
//! # homunculus-datasets
//!
//! Synthetic dataset generators standing in for the paper's three
//! evaluation corpora:
//!
//! | Paper dataset | Module | Application |
//! |---|---|---|
//! | NSL-KDD intrusion traces | [`nslkdd`] | anomaly detection (AD) |
//! | IIsy IoT device traces | [`iot`] | traffic classification (TC) |
//! | FlowLens P2P/botnet traces (Storm, Waledac vs uTorrent, Vuze, eMule, FrostWire) | [`p2p`] | botnet detection (BD) |
//!
//! The real corpora are licensing/availability-gated, so each generator is a
//! *behavioral* substitute: it produces traffic with the same feature
//! modality, class structure, and — most importantly — the same
//! *capacity-sensitivity* shape the paper's results rely on (hand-tuned
//! small models underfit; the larger models Homunculus searches recover
//! the gap). All generators are deterministic under a seed.
//!
//! [`dataset::Dataset`] is the labeled container the Alchemy frontend's
//! data loaders return, with stratified splits, normalization, CSV I/O,
//! and the merge/overlap operations used by model fusion.
//!
//! The generators build their rows from the records in [`packet`], the
//! per-packet layouts in [`features`], and the FlowLens-style flowmarkers
//! in [`histogram`], whose bin fusion shrinks a marker from 151 to 30
//! bins (§5.1.2).

pub mod dataset;
pub mod features;
pub mod histogram;
pub mod iot;
pub mod nslkdd;
pub mod p2p;
pub mod packet;
pub(crate) mod sampling;

use std::error::Error;
use std::fmt;

/// Errors produced while building or loading datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Inconsistent shapes, labels, names, or parameters.
    Invalid(String),
    /// Filesystem failure during CSV I/O.
    Io(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Invalid(msg) => write!(f, "invalid dataset: {msg}"),
            DatasetError::Io(msg) => write!(f, "dataset io error: {msg}"),
        }
    }
}

impl Error for DatasetError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, DatasetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            DatasetError::Invalid("x".into()).to_string(),
            "invalid dataset: x"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DatasetError>();
    }
}

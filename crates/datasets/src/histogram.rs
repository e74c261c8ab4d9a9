//! FlowLens-style flowmarker histograms.
//!
//! FlowLens (NDSS 2021) classifies flows from two coarse histograms kept in
//! switch registers: **packet lengths** (PL) and **inter-packet times**
//! (IPT). The paper's botnet-detection study (§5.1) uses:
//!
//! - Figure 6's visualization bins — PL bin width 64 bytes (22 bins shown),
//!   IPT bin width 512 s (6 bins);
//! - the original FlowLens marker of **151 bins** (94 PL + 57 IPT);
//! - the reduced marker of **30 bins** (23 PL + 7 IPT), obtained by
//!   *fusing* adjacent bins — a 5x memory saving that lets a switch track
//!   5x more flows (§5.1.2).
//!
//! This module implements the generic [`Histogram`] and the combined
//! [`Flowmarker`]; the reduced marker is configured directly with the
//! fused bin widths ([`FlowmarkerConfig::paper_reduced`]).
//!
//! # Example
//!
//! ```
//! use homunculus_datasets::histogram::{Flowmarker, FlowmarkerConfig};
//! use homunculus_datasets::packet::{Packet, Protocol};
//!
//! # fn main() -> Result<(), homunculus_datasets::DatasetError> {
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
//! assert_eq!(marker.packet_length().total(), 10);
//! assert_eq!(marker.feature_vector().len(), 30);
//! # Ok(())
//! # }
//! ```

use crate::packet::Packet;
use crate::{DatasetError, Result};

/// A fixed-width histogram with a clamping final bin.
///
/// Values past the last bin are counted in the last bin (switch registers
/// cannot grow), so the total count is always conserved.
///
/// # Example
///
/// ```
/// use homunculus_datasets::histogram::Histogram;
///
/// # fn main() -> Result<(), homunculus_datasets::DatasetError> {
/// let mut h = Histogram::new(64.0, 4)?; // bins: [0,64), [64,128), [128,192), [192,inf)
/// h.observe(10.0);
/// h.observe(70.0);
/// h.observe(1_000_000.0); // clamped into the last bin
/// assert_eq!(h.counts(), &[1, 1, 0, 1]);
/// assert_eq!(h.total(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of width `bin_width`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Invalid`] for a width that is not finite
    /// and positive, or for zero bins.
    pub fn new(bin_width: f64, bins: usize) -> Result<Self> {
        if !(bin_width.is_finite() && bin_width > 0.0) {
            return Err(DatasetError::Invalid(format!(
                "bin width must be finite and positive, got {bin_width}"
            )));
        }
        if bins == 0 {
            return Err(DatasetError::Invalid("need at least one bin".into()));
        }
        Ok(Histogram {
            bin_width,
            counts: vec![0; bins],
        })
    }

    /// The per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total count across bins.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bin index a value falls into (clamped to the last bin).
    pub fn bin_of(&self, value: f64) -> usize {
        if value <= 0.0 {
            return 0;
        }
        ((value / self.bin_width) as usize).min(self.counts.len() - 1)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let bin = self.bin_of(value);
        self.counts[bin] += 1;
    }

    /// Resets all counts to zero.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
    }

    /// Counts normalized to frequencies (empty histogram yields zeros).
    pub fn normalized(&self) -> Vec<f32> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f32 / total as f32)
            .collect()
    }
}

/// Configuration of a [`Flowmarker`]: PL and IPT histogram shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowmarkerConfig {
    /// Packet-length bin width in bytes.
    pub pl_bin_bytes: f64,
    /// Number of packet-length bins.
    pub pl_bins: usize,
    /// Inter-packet-time bin width in seconds.
    pub ipt_bin_seconds: f64,
    /// Number of inter-packet-time bins.
    pub ipt_bins: usize,
}

impl FlowmarkerConfig {
    /// The paper's reduced marker: 23 PL bins + 7 IPT bins = 30 bins,
    /// produced by fusing smaller bins into larger ones (§5.1.2).
    pub fn paper_reduced() -> Self {
        FlowmarkerConfig {
            pl_bin_bytes: 64.0 * 4.0,
            pl_bins: 23,
            ipt_bin_seconds: 512.0 * 8.0,
            ipt_bins: 7,
        }
    }

    /// The Figure 6 visualization shape: 22 PL bins (64 B) + 6 IPT bins
    /// (512 s).
    pub fn figure6() -> Self {
        FlowmarkerConfig {
            pl_bin_bytes: 64.0,
            pl_bins: 22,
            ipt_bin_seconds: 512.0,
            ipt_bins: 6,
        }
    }

    /// Total number of bins (the per-flow register cost on a switch).
    pub fn total_bins(&self) -> usize {
        self.pl_bins + self.ipt_bins
    }
}

/// A FlowLens flowmarker: paired PL/IPT histograms for one conversation.
#[derive(Debug, Clone, PartialEq)]
pub struct Flowmarker {
    config: FlowmarkerConfig,
    pl: Histogram,
    ipt: Histogram,
    last_timestamp_ns: Option<u64>,
}

impl Flowmarker {
    /// Creates an empty marker for the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Invalid`] for degenerate shapes.
    pub fn new(config: FlowmarkerConfig) -> Result<Self> {
        Ok(Flowmarker {
            pl: Histogram::new(config.pl_bin_bytes, config.pl_bins)?,
            ipt: Histogram::new(config.ipt_bin_seconds, config.ipt_bins)?,
            config,
            last_timestamp_ns: None,
        })
    }

    /// The marker shape.
    pub fn config(&self) -> &FlowmarkerConfig {
        &self.config
    }

    /// Packet-length histogram.
    pub fn packet_length(&self) -> &Histogram {
        &self.pl
    }

    /// Inter-packet-time histogram.
    pub fn inter_packet_time(&self) -> &Histogram {
        &self.ipt
    }

    /// Ingests one packet: records its length, and (from the second packet
    /// on) the gap since the previous packet.
    pub fn observe(&mut self, packet: &Packet) {
        self.pl.observe(packet.size_bytes as f64);
        if let Some(prev) = self.last_timestamp_ns {
            let gap_s = packet.timestamp_ns.saturating_sub(prev) as f64 / 1e9;
            self.ipt.observe(gap_s);
        }
        self.last_timestamp_ns = Some(packet.timestamp_ns);
    }

    /// The concatenated, normalized PL+IPT feature vector the BD models
    /// consume (length = `config.total_bins()`).
    pub fn feature_vector(&self) -> Vec<f32> {
        let mut features = self.pl.normalized();
        features.extend(self.ipt.normalized());
        features
    }

    /// Resets the marker for reuse.
    pub fn clear(&mut self) {
        self.pl.clear();
        self.ipt.clear();
        self.last_timestamp_ns = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_bins_values() {
        let mut h = Histogram::new(10.0, 3).unwrap();
        h.observe(0.0);
        h.observe(9.9);
        h.observe(10.0);
        h.observe(25.0);
        h.observe(1e9);
        assert_eq!(h.counts(), &[2, 1, 2]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_negative_values_clamp_to_first_bin() {
        let mut h = Histogram::new(10.0, 2).unwrap();
        h.observe(-5.0);
        assert_eq!(h.counts(), &[1, 0]);
    }

    #[test]
    fn histogram_invalid_config_rejected() {
        assert!(Histogram::new(0.0, 4).is_err());
        assert!(Histogram::new(-1.0, 4).is_err());
        assert!(Histogram::new(f64::INFINITY, 4).is_err());
        assert!(Histogram::new(f64::NAN, 4).is_err());
        assert!(Histogram::new(1.0, 0).is_err());
    }

    #[test]
    fn normalized_sums_to_one_or_zero() {
        let mut h = Histogram::new(1.0, 4).unwrap();
        assert_eq!(h.normalized(), vec![0.0; 4]);
        h.observe(0.5);
        h.observe(2.5);
        let n = h.normalized();
        assert!((n.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn flowlens_shapes_match_paper() {
        assert_eq!(FlowmarkerConfig::paper_reduced().total_bins(), 30);
        assert_eq!(FlowmarkerConfig::figure6().total_bins(), 28);
    }

    #[test]
    fn flowmarker_counts_ipt_from_second_packet() {
        let mut m = Flowmarker::new(FlowmarkerConfig::paper_reduced()).unwrap();
        let mut b = Packet::builder();
        b.timestamp_ns(0).size_bytes(100);
        m.observe(&b.build());
        assert_eq!(m.inter_packet_time().total(), 0);
        b.timestamp_ns(2_000_000_000);
        m.observe(&b.build());
        assert_eq!(m.inter_packet_time().total(), 1);
        assert_eq!(m.packet_length().total(), 2);
    }

    #[test]
    fn flowmarker_feature_vector_length() {
        let m = Flowmarker::new(FlowmarkerConfig::paper_reduced()).unwrap();
        assert_eq!(m.feature_vector().len(), 30);
    }

    #[test]
    fn flowmarker_clear_resets() {
        let mut m = Flowmarker::new(FlowmarkerConfig::figure6()).unwrap();
        let mut b = Packet::builder();
        b.timestamp_ns(5).size_bytes(128);
        m.observe(&b.build());
        m.clear();
        assert_eq!(m.packet_length().total() + m.inter_packet_time().total(), 0);
    }

    proptest! {

        #[test]
        fn prop_bin_of_in_range(value in -1e7f64..1e7, width in 0.1f64..1e4, bins in 1usize..100) {
            let h = Histogram::new(width, bins).unwrap();
            prop_assert!(h.bin_of(value) < bins);
        }

        #[test]
        fn prop_marker_total_equals_packets(
            sizes in proptest::collection::vec(40u32..1500, 1..50),
        ) {
            let mut m = Flowmarker::new(FlowmarkerConfig::paper_reduced()).unwrap();
            let mut b = Packet::builder();
            for (i, &s) in sizes.iter().enumerate() {
                b.timestamp_ns(i as u64 * 1_000);
                b.size_bytes(s);
                m.observe(&b.build());
            }
            prop_assert_eq!(m.packet_length().total(), sizes.len() as u64);
            prop_assert_eq!(m.inter_packet_time().total(), (sizes.len() - 1) as u64);
        }
    }
}

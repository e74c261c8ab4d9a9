//! Feature extraction from packets.
//!
//! The paper's motivating observation (§2) is that ML in the data plane
//! works on *fine-grain features* — "connection duration, bytes
//! transferred, protocol type, service type, packet size, and arrival
//! time" — rather than static IP matches. This module names the stable
//! 7-feature layout the anomaly-detection generator synthesises, and turns
//! a packet's headers into the traffic-classification feature vector.

use crate::packet::Packet;

/// The service class implied by a packet's destination port.
///
/// A tiny stand-in for NSL-KDD's `service` attribute; granularity is
/// deliberately coarse since the generated P4 uses a range-match table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Service {
    /// HTTP/HTTPS (ports 80, 443, 8080).
    Web,
    /// DNS (port 53).
    Dns,
    /// SSH/Telnet (ports 22, 23).
    Remote,
    /// Mail (ports 25, 110, 143).
    Mail,
    /// Ephemeral/high ports (>= 1024).
    Ephemeral,
    /// Everything else.
    Other,
}

impl Service {
    /// Classifies a destination port.
    pub fn from_port(port: u16) -> Self {
        match port {
            80 | 443 | 8080 => Service::Web,
            53 => Service::Dns,
            22 | 23 => Service::Remote,
            25 | 110 | 143 => Service::Mail,
            p if p >= 1024 => Service::Ephemeral,
            _ => Service::Other,
        }
    }

    /// A stable numeric encoding for feature vectors.
    pub fn encode(self) -> f32 {
        match self {
            Service::Web => 0.0,
            Service::Dns => 1.0,
            Service::Remote => 2.0,
            Service::Mail => 3.0,
            Service::Ephemeral => 4.0,
            Service::Other => 5.0,
        }
    }
}

/// Names of the 7 packet-level features, in vector order.
///
/// This is the 7-feature layout of the paper's AD and TC applications
/// (Table 2 lists `Features = 7` for both). Scales put every feature in
/// roughly `[0, 10]`, which keeps fixed-point quantization honest on the
/// data plane:
///
/// 1. packet size in units of 256 B,
/// 2. protocol number / 32,
/// 3. service class code ([`Service::encode`]),
/// 4. destination port / 8192,
/// 5. flow duration in seconds (log1p-compressed),
/// 6. flow bytes in units of 64 KiB (log1p-compressed),
/// 7. flow mean inter-arrival time in milliseconds (log1p-compressed).
pub const PACKET_FEATURE_NAMES: [&str; 7] = [
    "packet_size",
    "protocol",
    "service",
    "dst_port",
    "flow_duration",
    "flow_bytes",
    "flow_mean_ipt",
];

/// Names of the header-only features used by the IoT traffic-classification
/// application (IIsy uses "packet size, Ethernet and IPv4 headers").
pub const HEADER_FEATURE_NAMES: [&str; 7] = [
    "packet_size",
    "protocol",
    "src_port",
    "dst_port",
    "ttl_proxy",
    "service",
    "port_parity",
];

/// Extracts header-only features (no flow state), as used for TC.
///
/// `ttl_proxy` stands in for the IPv4 TTL field, derived deterministically
/// from the source address so generated traffic carries a per-device
/// signature the way real TTLs do.
pub fn header_features(packet: &Packet) -> [f32; 7] {
    let ttl_proxy = f32::from(packet.src_ip.octets()[3] % 64) / 64.0;
    [
        packet.size_bytes as f32 / 256.0,
        f32::from(packet.protocol.number()) / 32.0,
        f32::from(packet.src_port) / 8192.0,
        f32::from(packet.dst_port) / 8192.0,
        ttl_proxy,
        Service::from_port(packet.dst_port).encode(),
        f32::from(packet.dst_port % 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_classification() {
        assert_eq!(Service::from_port(80), Service::Web);
        assert_eq!(Service::from_port(443), Service::Web);
        assert_eq!(Service::from_port(53), Service::Dns);
        assert_eq!(Service::from_port(22), Service::Remote);
        assert_eq!(Service::from_port(25), Service::Mail);
        assert_eq!(Service::from_port(50_000), Service::Ephemeral);
        assert_eq!(Service::from_port(7), Service::Other);
    }

    #[test]
    fn service_codes_distinct() {
        let codes = [
            Service::Web,
            Service::Dns,
            Service::Remote,
            Service::Mail,
            Service::Ephemeral,
            Service::Other,
        ]
        .map(Service::encode);
        for i in 0..codes.len() {
            for j in (i + 1)..codes.len() {
                assert_ne!(codes[i], codes[j]);
            }
        }
    }

    #[test]
    fn features_are_finite_and_bounded() {
        let mut b = Packet::builder();
        b.size_bytes(u32::MAX)
            .dst_port(u16::MAX)
            .timestamp_ns(u64::MAX / 2);
        let pkt = b.build();
        for f in header_features(&pkt) {
            assert!(f.is_finite());
            assert!(f >= 0.0);
        }
    }

    #[test]
    fn header_features_differ_by_source_device() {
        let mut a = Packet::builder();
        a.src_ip("10.0.0.3".parse().unwrap());
        let mut b = Packet::builder();
        b.src_ip("10.0.0.47".parse().unwrap());
        assert_ne!(
            header_features(&a.build())[4],
            header_features(&b.build())[4]
        );
    }
}

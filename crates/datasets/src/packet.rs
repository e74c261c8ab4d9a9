//! Packet representation and header fields.
//!
//! A [`Packet`] models exactly what a PISA parser exposes to the
//! match-action pipeline: the Ethernet/IPv4/L4 header fields plus metadata
//! (arrival timestamp, wire length). The ML applications never see payload
//! bytes — in-network inference works on headers and statistics, which is
//! why this struct is all the substrate needs.

use std::fmt;
use std::net::Ipv4Addr;

/// L4 protocol carried by a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protocol {
    /// Transmission Control Protocol.
    #[default]
    Tcp,
    /// User Datagram Protocol.
    Udp,
    /// Internet Control Message Protocol.
    Icmp,
    /// Anything else (carried with its IP protocol number).
    Other(u8),
}

impl Protocol {
    /// The IP protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
            Protocol::Other(n) => n,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Icmp => write!(f, "icmp"),
            Protocol::Other(n) => write!(f, "proto({n})"),
        }
    }
}

/// TCP flag bits (subset relevant to the feature extractors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags {
    /// SYN bit.
    pub syn: bool,
    /// ACK bit.
    pub ack: bool,
    /// FIN bit.
    pub fin: bool,
    /// RST bit.
    pub rst: bool,
    /// PSH bit.
    pub psh: bool,
}

/// A parsed packet as seen by the data plane.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Arrival timestamp in nanoseconds.
    pub timestamp_ns: u64,
    /// Wire length in bytes (Ethernet frame).
    pub size_bytes: u32,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source L4 port (0 for port-less protocols).
    pub src_port: u16,
    /// Destination L4 port (0 for port-less protocols).
    pub dst_port: u16,
    /// L4 protocol.
    pub protocol: Protocol,
    /// TCP flags (all-false for non-TCP).
    pub flags: TcpFlags,
}

impl Packet {
    /// Starts building a packet with neutral defaults.
    pub fn builder() -> PacketBuilder {
        PacketBuilder::default()
    }
}

impl Default for Packet {
    fn default() -> Self {
        Packet {
            timestamp_ns: 0,
            size_bytes: 64,
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 0,
            dst_port: 0,
            protocol: Protocol::default(),
            flags: TcpFlags::default(),
        }
    }
}

/// Builder for [`Packet`] (non-consuming, per the API guidelines).
#[derive(Debug, Clone, Default)]
pub struct PacketBuilder {
    packet: Packet,
}

impl PacketBuilder {
    /// Sets the arrival timestamp in nanoseconds.
    pub fn timestamp_ns(&mut self, ts: u64) -> &mut Self {
        self.packet.timestamp_ns = ts;
        self
    }

    /// Sets the wire length in bytes.
    pub fn size_bytes(&mut self, size: u32) -> &mut Self {
        self.packet.size_bytes = size;
        self
    }

    /// Sets the source IPv4 address.
    pub fn src_ip(&mut self, ip: Ipv4Addr) -> &mut Self {
        self.packet.src_ip = ip;
        self
    }

    /// Sets the destination IPv4 address.
    pub fn dst_ip(&mut self, ip: Ipv4Addr) -> &mut Self {
        self.packet.dst_ip = ip;
        self
    }

    /// Sets the source port.
    pub fn src_port(&mut self, port: u16) -> &mut Self {
        self.packet.src_port = port;
        self
    }

    /// Sets the destination port.
    pub fn dst_port(&mut self, port: u16) -> &mut Self {
        self.packet.dst_port = port;
        self
    }

    /// Sets the L4 protocol.
    pub fn protocol(&mut self, protocol: Protocol) -> &mut Self {
        self.packet.protocol = protocol;
        self
    }

    /// Finishes the build.
    pub fn build(&self) -> Packet {
        self.packet.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_display() {
        assert_eq!(Protocol::Tcp.to_string(), "tcp");
        assert_eq!(Protocol::Other(89).to_string(), "proto(89)");
    }

    #[test]
    fn builder_sets_fields() {
        let pkt = Packet::builder()
            .timestamp_ns(123)
            .size_bytes(1500)
            .src_ip(Ipv4Addr::new(192, 168, 1, 1))
            .dst_ip(Ipv4Addr::new(192, 168, 1, 2))
            .src_port(1234)
            .dst_port(443)
            .protocol(Protocol::Udp)
            .build();
        assert_eq!(pkt.timestamp_ns, 123);
        assert_eq!(pkt.size_bytes, 1500);
        assert_eq!(pkt.src_port, 1234);
        assert_eq!(pkt.dst_port, 443);
        assert_eq!(pkt.protocol, Protocol::Udp);
    }

    #[test]
    fn builder_supports_one_liner_and_staged() {
        let one = Packet::builder().size_bytes(99).build();
        assert_eq!(one.size_bytes, 99);

        let mut b = Packet::builder();
        b.size_bytes(100);
        b.src_port(5);
        let staged = b.build();
        assert_eq!(staged.size_bytes, 100);
        assert_eq!(staged.src_port, 5);
    }

    #[test]
    fn default_packet_is_minimal_tcp() {
        let p = Packet::default();
        assert_eq!(p.size_bytes, 64);
        assert_eq!(p.protocol, Protocol::Tcp);
        assert!(!p.flags.syn);
    }
}

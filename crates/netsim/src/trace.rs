//! Packet tracing.
//!
//! Every frame placed on a link is recorded raw in a [`PacketTrace`]: a ring
//! of the [`TRACE_CAPACITY`] most recent transmissions, each sharing its
//! bytes with the in-flight frame.  Nothing is parsed while traffic flows; a
//! reader asks an entry for its [`TraceEntry::packet`].  Integration tests
//! clear the trace, send one probe and assert that, for example, the
//! customer packet really did cross the ISP core inside `ETH / IP / GRE / IP`
//! after the NM configured the GRE path, mirroring the end-to-end checks the
//! authors did on their testbed.

use crate::clock::SimTime;
use crate::device::{DeviceId, PortId};
use crate::ether::{EtherType, EthernetFrame};
use crate::gre::GreHeader;
use crate::ipv4::{Ipv4Header, Ipv4Proto};
use crate::link::LinkId;
use crate::mpls;
use crate::vlan;
use std::collections::VecDeque;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One protocol layer observed in a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layer {
    /// Ethernet header.
    Ethernet,
    /// 802.1Q VLAN tag with the given VLAN id.
    Vlan(u16),
    /// MPLS label.
    Mpls(u32),
    /// IPv4 header.
    Ipv4 {
        /// Source address.
        src: Ipv4Addr,
        /// Destination address.
        dst: Ipv4Addr,
        /// Payload protocol.
        proto: Ipv4Proto,
    },
    /// GRE header (key if present).
    Gre {
        /// Key carried in the header.
        key: Option<u32>,
    },
    /// ARP packet.
    Arp,
    /// Management-channel frame.
    Management,
    /// Anything the summariser does not parse further.
    Payload(usize),
}

/// A compact, human-readable description of a frame's encapsulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketSummary {
    /// Layers from outermost to innermost.
    pub layers: Vec<Layer>,
    /// Total frame length in bytes.
    pub len: usize,
}

impl PacketSummary {
    /// Parse a raw Ethernet frame into a layer summary.  Parsing is
    /// best-effort: anything unrecognised is recorded as a payload layer.
    pub fn parse(bytes: &[u8]) -> PacketSummary {
        let mut layers = Vec::new();
        let len = bytes.len();
        match EthernetFrame::decode(bytes) {
            Ok(frame) => {
                layers.push(Layer::Ethernet);
                Self::parse_ether_payload(frame.ethertype, frame.payload, &mut layers);
            }
            Err(_) => layers.push(Layer::Payload(len)),
        }
        PacketSummary { layers, len }
    }

    fn parse_ether_payload(ethertype: EtherType, payload: &[u8], layers: &mut Vec<Layer>) {
        match ethertype {
            EtherType::Vlan => match vlan::pop_tag(payload) {
                Ok((tag, inner)) => {
                    layers.push(Layer::Vlan(tag.vid.value()));
                    Self::parse_ether_payload(tag.inner_ethertype, inner, layers);
                }
                Err(_) => layers.push(Layer::Payload(payload.len())),
            },
            EtherType::Mpls => match mpls::decode_stack(payload) {
                Ok((stack, inner)) => {
                    for entry in stack.iter() {
                        layers.push(Layer::Mpls(entry.label.value()));
                    }
                    Self::parse_ipv4(inner, layers);
                }
                Err(_) => layers.push(Layer::Payload(payload.len())),
            },
            EtherType::Ipv4 => Self::parse_ipv4(payload, layers),
            EtherType::Arp => layers.push(Layer::Arp),
            EtherType::Management => layers.push(Layer::Management),
            EtherType::Other(_) => layers.push(Layer::Payload(payload.len())),
        }
    }

    fn parse_ipv4(payload: &[u8], layers: &mut Vec<Layer>) {
        match Ipv4Header::decode_packet(payload) {
            Ok((h, inner)) => {
                layers.push(Layer::Ipv4 {
                    src: h.src,
                    dst: h.dst,
                    proto: h.protocol,
                });
                match h.protocol {
                    Ipv4Proto::Gre => match GreHeader::decode_packet(inner) {
                        Ok((g, gre_inner)) => {
                            layers.push(Layer::Gre { key: g.key });
                            Self::parse_ipv4(gre_inner, layers);
                        }
                        Err(_) => layers.push(Layer::Payload(inner.len())),
                    },
                    Ipv4Proto::IpIp => Self::parse_ipv4(inner, layers),
                    _ => layers.push(Layer::Payload(inner.len())),
                }
            }
            Err(_) => layers.push(Layer::Payload(payload.len())),
        }
    }

    /// Short textual form such as `ETH/IP(204.9.168.1->204.9.169.1 GRE)/GRE(key=2001)/IP(10.0.1.5->10.0.2.5 UDP)`.
    pub(crate) fn protocol_path(&self) -> String {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Ethernet => "ETH".to_string(),
                Layer::Vlan(v) => format!("VLAN({v})"),
                Layer::Mpls(l) => format!("MPLS({l})"),
                Layer::Ipv4 { src, dst, proto } => format!("IP({src}->{dst} {proto})"),
                Layer::Gre { key } => match key {
                    Some(k) => format!("GRE(key={k})"),
                    None => "GRE".to_string(),
                },
                Layer::Arp => "ARP".to_string(),
                Layer::Management => "MGMT".to_string(),
                Layer::Payload(n) => format!("payload[{n}]"),
            })
            .collect::<Vec<_>>()
            .join("/")
    }
}

impl fmt::Display for PacketSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} bytes)", self.protocol_path(), self.len)
    }
}

/// One record in the network packet trace: a frame transmitted onto a link.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// When the frame was transmitted.
    pub time: SimTime,
    /// Transmitting device.
    pub from_device: DeviceId,
    /// Transmitting port.
    pub from_port: PortId,
    /// Link the frame was placed on.
    pub link: LinkId,
    /// The raw Ethernet frame, shared with the arrival event(s) it caused.
    pub frame: Arc<[u8]>,
}

impl TraceEntry {
    /// Parse the recorded frame into its layer summary.
    pub fn packet(&self) -> PacketSummary {
        PacketSummary::parse(&self.frame)
    }
}

/// How many transmissions a [`PacketTrace`] remembers.  One probe over the
/// longest testbed chain is at most a few hundred frames; an always-on loop
/// sends thousands per tick and must not grow with its uptime.
pub const TRACE_CAPACITY: usize = 1024;

/// The network's packet trace: the [`TRACE_CAPACITY`] most recent
/// transmissions, oldest first.
#[derive(Debug, Default)]
pub struct PacketTrace {
    ring: VecDeque<TraceEntry>,
}

impl PacketTrace {
    /// Record a transmission, forgetting the oldest one once full.
    pub(crate) fn record(&mut self, entry: TraceEntry) {
        if self.ring.len() == TRACE_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(entry);
    }

    /// Forget everything recorded so far.
    pub(crate) fn clear(&mut self) {
        self.ring.clear();
    }

    /// Entries held: grows to [`TRACE_CAPACITY`] and stays there until the
    /// trace is cleared.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Has nothing been transmitted since the last clear?
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The held entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        self.ring.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddr;
    use std::net::Ipv4Addr;

    #[test]
    fn summarises_gre_in_ip() {
        let inner = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 1, 5),
            Ipv4Addr::new(10, 0, 2, 5),
            Ipv4Proto::Udp,
        )
        .encode_packet(&[0u8; 8]);
        let gre = GreHeader::ipv4(Some(2001), Some(1), false).encode_packet(&inner);
        let outer = Ipv4Header::new(
            Ipv4Addr::new(204, 9, 168, 1),
            Ipv4Addr::new(204, 9, 169, 1),
            Ipv4Proto::Gre,
        )
        .encode_packet(&gre);
        let frame = EthernetFrame::new(
            MacAddr::for_port(2, 0),
            MacAddr::for_port(1, 0),
            EtherType::Ipv4,
            outer,
        );
        let summary = PacketSummary::parse(&frame.encode());
        assert_eq!(
            summary.protocol_path(),
            "ETH/IP(204.9.168.1->204.9.169.1 GRE)/GRE(key=2001)/IP(10.0.1.5->10.0.2.5 UDP)/payload[8]"
        );
    }

    #[test]
    fn summarises_mpls_and_vlan() {
        let ip = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 1, 1),
            Ipv4Addr::new(10, 0, 2, 1),
            Ipv4Proto::Icmp,
        )
        .encode_packet(&[]);
        let mpls_payload = mpls::encode_stack(
            &[mpls::LabelStackEntry::new(
                mpls::Label::new(10001).unwrap(),
                true,
            )],
            &ip,
        );
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::for_port(1, 0),
            EtherType::Mpls,
            mpls_payload,
        );
        let s = PacketSummary::parse(&frame.encode());
        assert_eq!(
            s.protocol_path(),
            "ETH/MPLS(10001)/IP(10.0.1.1->10.0.2.1 ICMP)/payload[0]"
        );

        let tagged = vlan::push_tag(crate::vlan::VlanId::new(22).unwrap(), EtherType::Ipv4, &ip);
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::for_port(1, 0),
            EtherType::Vlan,
            tagged,
        );
        let s = PacketSummary::parse(&frame.encode());
        assert_eq!(
            s.protocol_path(),
            "ETH/VLAN(22)/IP(10.0.1.1->10.0.2.1 ICMP)/payload[0]"
        );
    }

    #[test]
    fn garbage_is_payload() {
        let s = PacketSummary::parse(&[1, 2, 3]);
        assert_eq!(s.protocol_path(), "payload[3]");
    }
}

//! Devices: hosts, routers and layer-2 switches.
//!
//! A device owns its ports, its configuration and its runtime state (ARP
//! cache, MAC learning table, statistics; a tunnel's sequence state and
//! counters live with its entry in the [`DeviceConfig`]).  The forwarding
//! logic itself is the crate-private `engine` module.

use crate::arp::ArpCache;
use crate::config::DeviceConfig;
use crate::ipv4::Ipv4Proto;
use crate::mac::MacAddr;
use crate::nic::Nic;
use crate::stats::{DeviceStats, LookupWork};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Range;

/// Globally unique, topology-independent device identifier.
///
/// The paper suggests deriving it from a public key; here it is derived by
/// hashing the device name, which keeps it stable, unique and meaningless
/// with respect to topology — the properties the architecture needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(u64);

impl DeviceId {
    /// Derive a device-id from a name (stand-in for hashing a public key).
    pub(crate) fn from_name(name: &str) -> Self {
        // FNV-1a, good enough for a stable non-cryptographic identifier.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        DeviceId(h)
    }

    /// Construct from a raw value (tests and benchmarks).
    pub const fn from_raw(v: u64) -> Self {
        DeviceId(v)
    }

    /// Raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl From<DeviceId> for u64 {
    fn from(id: DeviceId) -> u64 {
        id.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev:{:016x}", self.0)
    }
}

/// Port index within a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// Coarse role of a device, which decides how frames are processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceRole {
    /// An end host: terminates traffic, does not forward unless configured.
    Host,
    /// A router: forwards at layer 3 when `ip_forwarding` is enabled.
    Router,
    /// A layer-2 switch: forwards at layer 2 according to its bridge config.
    Switch,
}

/// A packet delivered to a local sink on a device (an application, or the
/// terminus of a self-test).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// Source IP address.
    pub src: Ipv4Addr,
    /// Destination IP address.
    pub dst: Ipv4Addr,
    /// IP protocol.
    pub proto: Ipv4Proto,
    /// Destination UDP port, when applicable.
    pub dst_port: Option<u16>,
    /// Application payload bytes.
    pub payload: Vec<u8>,
}

/// A management-channel frame received by the device, waiting for its
/// management agent to collect it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgmtFrame {
    /// Port the frame arrived on (`None` for locally injected frames).
    pub port: Option<PortId>,
    /// Source MAC of the frame.
    pub src_mac: MacAddr,
    /// Management payload.
    pub payload: Vec<u8>,
}

/// The frames a device transmits while it handles one input, written back
/// to back into one buffer.  The [`Network`](crate::network::Network) owns
/// one and hands it to every device it runs, clearing it in between, so once
/// it has grown to a step's size no frame asks the heap for its bytes.
///
/// A frame is written once, from the inside out: [`Self::open`] copies the
/// innermost bytes (a payload read in place from the received frame) behind
/// some headroom, and each layer the route needs (UDP, IPv4, GRE, an MPLS
/// label, at last Ethernet) is [prepended](Self::prepend) into that
/// headroom.  One packet is open at a time, at the end of the buffer, until
/// it is [sent](Self::push_frame) or [discarded](Self::discard).
#[derive(Debug, Default)]
pub(crate) struct EngineOutput {
    /// The frames' bytes, each behind the headroom it did not use.
    bytes: Vec<u8>,
    /// `(egress port, where its raw Ethernet frame lies in bytes)`.
    frames: Vec<(PortId, Range<usize>)>,
}

/// The packet open in an [`EngineOutput`]: `bytes[start..head]` is headroom,
/// `bytes[head..]` the packet, outermost header first.
#[derive(Debug)]
pub(crate) struct Packet {
    start: usize,
    head: usize,
}

impl EngineOutput {
    /// Room in front of a payload for the headers the engine prepends:
    /// Ethernet, an MPLS label and two rounds of IPv4 plus the longest GRE
    /// header.  Deeper nesting makes more room (see [`Self::prepend`]).
    const HEADROOM: usize = 96;

    /// Forget every frame, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.frames.clear();
    }

    /// The frames, in the order they were sent.
    pub(crate) fn frames(&self) -> impl Iterator<Item = (PortId, &[u8])> {
        (self.frames.iter()).map(|(port, range)| (*port, &self.bytes[range.clone()]))
    }

    /// Open a packet whose innermost bytes are `payload`.
    pub(crate) fn open(&mut self, payload: &[u8]) -> Packet {
        let start = self.bytes.len();
        self.bytes.resize(start + Self::HEADROOM, 0);
        self.bytes.extend_from_slice(payload);
        Packet {
            start,
            head: start + Self::HEADROOM,
        }
    }

    /// Put `header` in front of the open packet.
    pub(crate) fn prepend(&mut self, packet: &mut Packet, header: &[u8]) {
        if packet.head - packet.start < header.len() {
            let more = Self::HEADROOM.max(header.len());
            let room = std::iter::repeat_n(0, more);
            self.bytes.splice(packet.start..packet.start, room);
            packet.head += more;
        }
        packet.head -= header.len();
        self.bytes[packet.head..packet.head + header.len()].copy_from_slice(header);
    }

    /// The open packet's bytes.
    pub(crate) fn packet(&self, packet: &Packet) -> &[u8] {
        &self.bytes[packet.head..]
    }

    /// The open packet's bytes, to fill in a checksum.
    pub(crate) fn packet_mut(&mut self, packet: &Packet) -> &mut [u8] {
        &mut self.bytes[packet.head..]
    }

    /// Drop the open packet: it is not sent.
    pub(crate) fn discard(&mut self, packet: Packet) {
        self.bytes.truncate(packet.start);
    }

    /// Send the open packet, an Ethernet frame by now, out of `port`.
    pub(crate) fn push_frame(&mut self, port: PortId, packet: Packet) {
        self.frames.push((port, packet.head..self.bytes.len()));
    }
}

/// A simulated device.
#[derive(Debug)]
pub struct Device {
    /// Unique identifier.
    pub id: DeviceId,
    /// Human-readable name ("RouterA", "SwitchB", ...).
    pub name: String,
    /// Role.
    pub role: DeviceRole,
    /// Is the device powered on?  A crashed device neither forwards traffic
    /// nor answers the management channel (fault injection).
    pub up: bool,
    /// Power-ons after a crash (`Network::set_device_up` counts them).
    pub boots: u64,
    /// Ports.
    pub ports: Vec<Nic>,
    /// Configuration (written by CONMan modules or legacy scripts).
    pub config: DeviceConfig,
    /// ARP cache + pending queue.
    pub(crate) arp: ArpCache,
    /// MAC learning table: (vlan, mac) -> port.
    pub(crate) mac_table: HashMap<(u16, MacAddr), u32>,
    /// Statistics.
    pub stats: DeviceStats,
    /// Work done by the per-packet lookups (summed by
    /// `Network::lookup_work`).
    pub(crate) lookup_work: LookupWork,
    /// Packets delivered locally, in arrival order.
    pub(crate) delivered: Vec<Delivered>,
    /// Received management-channel frames awaiting the management agent.
    pub(crate) mgmt_rx: VecDeque<MgmtFrame>,
}

impl Device {
    /// Create a device with `num_ports` ports and an empty configuration.
    pub fn new(name: impl Into<String>, role: DeviceRole, num_ports: u32) -> Self {
        let name = name.into();
        let id = DeviceId::from_name(&name);
        let ports = (0..num_ports)
            .map(|i| Nic::new(i, MacAddr::for_port((id.as_u64() & 0xffff) as u32, i)))
            .collect();
        Device {
            id,
            name,
            role,
            up: true,
            boots: 0,
            ports,
            config: DeviceConfig::new(),
            arp: ArpCache::new(),
            mac_table: HashMap::new(),
            stats: DeviceStats::default(),
            lookup_work: LookupWork::default(),
            delivered: Vec::new(),
            mgmt_rx: VecDeque::new(),
        }
    }

    /// Access a port by id.
    pub fn port(&self, port: PortId) -> Option<&Nic> {
        self.ports.get(port.0 as usize)
    }

    /// Access a port mutably.
    pub(crate) fn port_mut(&mut self, port: PortId) -> Option<&mut Nic> {
        self.ports.get_mut(port.0 as usize)
    }

    /// The MAC address of a port (panics if the port does not exist; port
    /// indices are assigned by the topology builder and never dangle).  Used
    /// by the in-band channel as the source of its flood frames.
    pub fn port_mac(&self, port: PortId) -> MacAddr {
        self.ports[port.0 as usize].mac
    }

    /// Packets delivered locally since the last call, draining the buffer.
    pub fn take_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Packets delivered locally since the last call, drained in place: the
    /// buffer keeps its capacity, so a reader that drains it after every
    /// probe does not make the next delivery grow a new one.  Dropping the
    /// iterator drains what it did not yield.
    pub fn drain_delivered(&mut self) -> std::vec::Drain<'_, Delivered> {
        self.delivered.drain(..)
    }

    /// Drain pending management frames.  Used by the in-band channel.
    pub fn take_mgmt_frames(&mut self) -> Vec<MgmtFrame> {
        self.mgmt_rx.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_ids_are_stable_and_distinct() {
        assert_eq!(
            DeviceId::from_name("RouterA"),
            DeviceId::from_name("RouterA")
        );
        assert_ne!(
            DeviceId::from_name("RouterA"),
            DeviceId::from_name("RouterB")
        );
        assert_eq!(DeviceId::from_raw(7).as_u64(), 7);
    }

    #[test]
    fn new_device_has_ports_with_distinct_macs() {
        let d = Device::new("RouterA", DeviceRole::Router, 3);
        assert_eq!(d.ports.len(), 3);
        assert_ne!(d.ports[0].mac, d.ports[1].mac);
        assert_eq!(d.port(PortId(1)).unwrap().index, 1);
        assert!(d.port(PortId(9)).is_none());
    }

    #[test]
    fn take_delivered_drains() {
        let mut d = Device::new("HostX", DeviceRole::Host, 1);
        d.delivered.push(Delivered {
            src: Ipv4Addr::LOCALHOST,
            dst: Ipv4Addr::LOCALHOST,
            proto: Ipv4Proto::Udp,
            dst_port: Some(1),
            payload: vec![],
        });
        assert_eq!(d.take_delivered().len(), 1);
        assert!(d.take_delivered().is_empty());
    }

    #[test]
    fn drain_delivered_empties_the_buffer_and_keeps_its_capacity() {
        let mut d = Device::new("HostX", DeviceRole::Host, 1);
        for port in 0..3 {
            d.delivered.push(Delivered {
                src: Ipv4Addr::LOCALHOST,
                dst: Ipv4Addr::LOCALHOST,
                proto: Ipv4Proto::Udp,
                dst_port: Some(port),
                payload: vec![],
            });
        }
        let capacity = d.delivered.capacity();
        // A reader that stops at the first match still drains the rest.
        assert!(d.drain_delivered().any(|p| p.dst_port == Some(0)));
        assert!(d.delivered.is_empty());
        assert_eq!(d.delivered.capacity(), capacity);
    }
}

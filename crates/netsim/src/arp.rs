//! ARP (RFC 826) packets and a per-device ARP cache.
//!
//! The paper notes (§II-C.1, footnote 2) that the CONMan IP module may either
//! learn its peer's MAC address through the management channel or simply rely
//! on ARP; our IP module implementation relies on ARP, so the simulator
//! provides a faithful request/reply implementation with a cache and a
//! pending-packet queue.

use crate::mac::MacAddr;
use crate::{CodecError, CodecResult};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Length of an ARP packet for Ethernet/IPv4.
pub(crate) const ARP_LEN: usize = 28;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArpOp {
    /// Who-has request.
    Request,
    /// Is-at reply.
    Reply,
}

/// An ARP packet for IPv4 over Ethernet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArpPacket {
    /// Operation (request or reply).
    pub(crate) op: ArpOp,
    /// Sender hardware address.
    pub(crate) sender_mac: MacAddr,
    /// Sender protocol address.
    pub(crate) sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub(crate) target_mac: MacAddr,
    /// Target protocol address.
    pub(crate) target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// Build a who-has request for `target_ip`.
    pub(crate) fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Build a reply answering `request`.
    pub(crate) fn reply_to(&self, our_mac: MacAddr) -> Self {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: our_mac,
            sender_ip: self.target_ip,
            target_mac: self.sender_mac,
            target_ip: self.sender_ip,
        }
    }

    /// Encode to wire bytes.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ARP_LEN);
        out.extend_from_slice(&1u16.to_be_bytes()); // htype ethernet
        out.extend_from_slice(&0x0800u16.to_be_bytes()); // ptype ipv4
        out.push(6); // hlen
        out.push(4); // plen
        let op: u16 = match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        };
        out.extend_from_slice(&op.to_be_bytes());
        out.extend_from_slice(&self.sender_mac.octets());
        out.extend_from_slice(&self.sender_ip.octets());
        out.extend_from_slice(&self.target_mac.octets());
        out.extend_from_slice(&self.target_ip.octets());
        out
    }

    /// Decode from wire bytes.
    pub(crate) fn decode(bytes: &[u8]) -> CodecResult<Self> {
        if bytes.len() < ARP_LEN {
            return Err(CodecError::Truncated {
                what: "arp",
                needed: ARP_LEN,
                got: bytes.len(),
            });
        }
        let op_raw = u16::from_be_bytes([bytes[6], bytes[7]]);
        let op = match op_raw {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            other => {
                return Err(CodecError::BadField {
                    what: "arp op",
                    value: other as u64,
                })
            }
        };
        let mac = |o: usize| {
            let mut m = [0u8; 6];
            m.copy_from_slice(&bytes[o..o + 6]);
            MacAddr(m)
        };
        let ip = |o: usize| Ipv4Addr::new(bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]);
        Ok(ArpPacket {
            op,
            sender_mac: mac(8),
            sender_ip: ip(14),
            target_mac: mac(18),
            target_ip: ip(24),
        })
    }
}

/// A simple ARP cache with a pending-packet queue per unresolved address.
#[derive(Debug, Default)]
pub(crate) struct ArpCache {
    entries: HashMap<Ipv4Addr, MacAddr>,
    /// Packets (already IPv4-encoded) waiting for address resolution,
    /// together with the port they should leave from.
    pending: HashMap<Ipv4Addr, Vec<PendingPacket>>,
}

/// A packet parked while ARP resolution completes.
#[derive(Debug, Clone)]
pub(crate) struct PendingPacket {
    /// Egress port index on the device.
    pub(crate) port: u32,
    /// The IPv4 packet (or MPLS payload) bytes to send once resolved.
    pub(crate) bytes: Vec<u8>,
    /// EtherType to use when finally transmitting.
    pub(crate) ethertype: u16,
}

impl ArpCache {
    /// Create an empty cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Look up a resolved MAC address.
    pub(crate) fn lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.entries.get(&ip).copied()
    }

    /// Insert or refresh an entry, returning any packets that were waiting
    /// for this resolution.
    pub(crate) fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr) -> Vec<PendingPacket> {
        self.entries.insert(ip, mac);
        self.pending.remove(&ip).unwrap_or_default()
    }

    /// Park a packet until `ip` resolves. Returns `true` if an ARP request
    /// should be emitted (i.e. this is the first packet waiting).
    pub(crate) fn park(&mut self, ip: Ipv4Addr, packet: PendingPacket) -> bool {
        let queue = self.pending.entry(ip).or_default();
        queue.push(packet);
        queue.len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_roundtrip() {
        let req = ArpPacket::request(
            MacAddr::for_port(1, 0),
            Ipv4Addr::new(204, 9, 168, 1),
            Ipv4Addr::new(204, 9, 168, 2),
        );
        let dec = ArpPacket::decode(&req.encode()).unwrap();
        assert_eq!(req, dec);
        assert_eq!(dec.op, ArpOp::Request);
    }

    #[test]
    fn reply_swaps_roles() {
        let req = ArpPacket::request(
            MacAddr::for_port(1, 0),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let rep = req.reply_to(MacAddr::for_port(2, 0));
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(rep.target_ip, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(rep.target_mac, MacAddr::for_port(1, 0));
    }

    #[test]
    fn decode_errors() {
        assert!(ArpPacket::decode(&[0u8; 4]).is_err());
        let mut bytes =
            ArpPacket::request(MacAddr::ZERO, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED)
                .encode();
        bytes[7] = 9; // bogus op
        assert!(ArpPacket::decode(&bytes).is_err());
    }

    #[test]
    fn cache_parks_and_releases() {
        let mut cache = ArpCache::new();
        let ip = Ipv4Addr::new(10, 0, 0, 2);
        let pkt = PendingPacket {
            port: 1,
            bytes: vec![1, 2, 3],
            ethertype: 0x0800,
        };
        assert!(cache.park(ip, pkt.clone()));
        assert!(!cache.park(ip, pkt.clone())); // second packet, no new request
        assert!(cache.lookup(ip).is_none());
        let released = cache.insert(ip, MacAddr::for_port(2, 0));
        assert_eq!(released.len(), 2);
        assert_eq!(cache.lookup(ip), Some(MacAddr::for_port(2, 0)));
        assert!(cache.insert(ip, MacAddr::for_port(2, 0)).is_empty());
    }
}

//! Ethernet II framing.

use crate::mac::MacAddr;
use crate::{CodecError, CodecResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Length of an Ethernet II header (no 802.1Q tag).
pub(crate) const ETHERNET_HEADER_LEN: usize = 14;

/// EtherType values understood by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// 802.1Q VLAN tag (0x8100).
    Vlan,
    /// MPLS unicast (0x8847).
    Mpls,
    /// CONMan management channel frames (experimental ethertype 0x88B5,
    /// the IEEE "local experimental" value, used by the in-band channel).
    Management,
    /// Anything else, carried through untouched.
    Other(u16),
}

impl EtherType {
    /// The numeric EtherType.
    pub(crate) fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Vlan => 0x8100,
            EtherType::Mpls => 0x8847,
            EtherType::Management => 0x88B5,
            EtherType::Other(v) => v,
        }
    }

    /// Interpret a numeric EtherType.
    pub fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x8100 => EtherType::Vlan,
            0x8847 => EtherType::Mpls,
            0x88B5 => EtherType::Management,
            other => EtherType::Other(other),
        }
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtherType::Ipv4 => write!(f, "IPv4"),
            EtherType::Arp => write!(f, "ARP"),
            EtherType::Vlan => write!(f, "802.1Q"),
            EtherType::Mpls => write!(f, "MPLS"),
            EtherType::Management => write!(f, "MGMT"),
            EtherType::Other(v) => write!(f, "0x{v:04x}"),
        }
    }
}

/// A decoded Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: EtherType,
    /// Payload bytes (everything after the 14-byte header).
    pub payload: Vec<u8>,
}

impl EthernetFrame {
    /// Build a frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Vec<u8>) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ETHERNET_HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.dst.octets());
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.ethertype.as_u16().to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse from wire bytes.
    pub fn decode(bytes: &[u8]) -> CodecResult<Self> {
        if bytes.len() < ETHERNET_HEADER_LEN {
            return Err(CodecError::Truncated {
                what: "ethernet",
                needed: ETHERNET_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&bytes[0..6]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&bytes[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([bytes[12], bytes[13]]));
        Ok(EthernetFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: bytes[ETHERNET_HEADER_LEN..].to_vec(),
        })
    }

    /// Total encoded length in bytes.
    pub(crate) fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::for_port(1, 0),
            EtherType::Ipv4,
            vec![1, 2, 3, 4],
        );
        let bytes = f.encode();
        assert_eq!(bytes.len(), 18);
        let g = EthernetFrame::decode(&bytes).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn decode_truncated() {
        let err = EthernetFrame::decode(&[0u8; 5]).unwrap_err();
        assert!(matches!(
            err,
            CodecError::Truncated {
                what: "ethernet",
                ..
            }
        ));
    }

    #[test]
    fn ethertype_mapping() {
        for ty in [
            EtherType::Ipv4,
            EtherType::Arp,
            EtherType::Vlan,
            EtherType::Mpls,
            EtherType::Management,
            EtherType::Other(0x1234),
        ] {
            assert_eq!(EtherType::from_u16(ty.as_u16()), ty);
        }
    }

    #[test]
    fn empty_payload_is_allowed() {
        let f = EthernetFrame::new(
            MacAddr::for_port(1, 0),
            MacAddr::for_port(2, 0),
            EtherType::Management,
            vec![],
        );
        let g = EthernetFrame::decode(&f.encode()).unwrap();
        assert!(g.payload.is_empty());
    }
}

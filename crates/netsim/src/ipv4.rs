//! IPv4 header codec, CIDR prefixes and the Internet checksum.

use crate::{CodecError, CodecResult};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// Minimum IPv4 header length (no options).
pub(crate) const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ipv4Proto {
    /// ICMP (1).
    Icmp,
    /// IP-in-IP encapsulation (4), used by the paper's IP-IP tunnel path.
    IpIp,
    /// UDP (17).
    Udp,
    /// GRE (47).
    Gre,
    /// Any other protocol number.
    Other(u8),
}

impl Ipv4Proto {
    /// Numeric protocol value.
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Ipv4Proto::Icmp => 1,
            Ipv4Proto::IpIp => 4,
            Ipv4Proto::Udp => 17,
            Ipv4Proto::Gre => 47,
            Ipv4Proto::Other(v) => v,
        }
    }

    /// Interpret a numeric protocol value.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => Ipv4Proto::Icmp,
            4 => Ipv4Proto::IpIp,
            17 => Ipv4Proto::Udp,
            47 => Ipv4Proto::Gre,
            other => Ipv4Proto::Other(other),
        }
    }
}

impl fmt::Display for Ipv4Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ipv4Proto::Icmp => write!(f, "ICMP"),
            Ipv4Proto::IpIp => write!(f, "IPIP"),
            Ipv4Proto::Udp => write!(f, "UDP"),
            Ipv4Proto::Gre => write!(f, "GRE"),
            Ipv4Proto::Other(v) => write!(f, "proto({v})"),
        }
    }
}

/// Compute the 16-bit one's complement Internet checksum over `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let Some(&last) = chunks.remainder().first() {
        sum += u32::from(u16::from_be_bytes([last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// A decoded IPv4 header (options are not supported, matching the simulator's
/// smoltcp-inspired scope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services / TOS byte.
    pub tos: u8,
    /// Identification field.
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: Ipv4Proto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Build a header with common defaults (TTL 64).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: Ipv4Proto) -> Self {
        Ipv4Header {
            tos: 0,
            identification: 0,
            dont_fragment: true,
            ttl: 64,
            protocol,
            src,
            dst,
        }
    }

    /// Encode the header followed by `payload` into a full IPv4 packet.
    pub fn encode_packet(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(IPV4_HEADER_LEN + payload.len());
        out.extend_from_slice(&self.header_bytes(payload.len()));
        out.extend_from_slice(payload);
        out
    }

    /// The 20-byte header of a packet carrying `payload_len` bytes, its
    /// checksum filled in.
    pub(crate) fn header_bytes(&self, payload_len: usize) -> [u8; IPV4_HEADER_LEN] {
        let total_len = (IPV4_HEADER_LEN + payload_len) as u16;
        let mut hdr = [0u8; IPV4_HEADER_LEN];
        hdr[0] = 0x45; // version 4, IHL 5
        hdr[1] = self.tos;
        hdr[2..4].copy_from_slice(&total_len.to_be_bytes());
        hdr[4..6].copy_from_slice(&self.identification.to_be_bytes());
        let flags_frag: u16 = if self.dont_fragment { 0x4000 } else { 0 };
        hdr[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        hdr[8] = self.ttl;
        hdr[9] = self.protocol.as_u8();
        // checksum bytes 10..12 left zero for computation
        hdr[12..16].copy_from_slice(&self.src.octets());
        hdr[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&hdr);
        hdr[10..12].copy_from_slice(&csum.to_be_bytes());
        hdr
    }

    /// Decode a packet into header and payload, verifying version and
    /// header checksum.  The payload borrows from `bytes`.
    pub fn decode_packet(bytes: &[u8]) -> CodecResult<(Ipv4Header, &[u8])> {
        if bytes.len() < IPV4_HEADER_LEN {
            return Err(CodecError::Truncated {
                what: "ipv4",
                needed: IPV4_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let version = bytes[0] >> 4;
        if version != 4 {
            return Err(CodecError::BadVersion {
                what: "ipv4",
                version,
            });
        }
        let ihl = (bytes[0] & 0x0f) as usize * 4;
        if ihl < IPV4_HEADER_LEN || bytes.len() < ihl {
            return Err(CodecError::BadField {
                what: "ipv4 ihl",
                value: ihl as u64,
            });
        }
        if internet_checksum(&bytes[..ihl]) != 0 {
            return Err(CodecError::BadChecksum("ipv4"));
        }
        let total_len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        if total_len < ihl || total_len > bytes.len() {
            return Err(CodecError::BadField {
                what: "ipv4 total_len",
                value: total_len as u64,
            });
        }
        let flags_frag = u16::from_be_bytes([bytes[6], bytes[7]]);
        let header = Ipv4Header {
            tos: bytes[1],
            identification: u16::from_be_bytes([bytes[4], bytes[5]]),
            dont_fragment: flags_frag & 0x4000 != 0,
            ttl: bytes[8],
            protocol: Ipv4Proto::from_u8(bytes[9]),
            src: Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]),
            dst: Ipv4Addr::new(bytes[16], bytes[17], bytes[18], bytes[19]),
        };
        Ok((header, &bytes[ihl..total_len]))
    }
}

/// An IPv4 CIDR prefix such as `10.0.1.0/24`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Cidr {
    /// Network address (host bits may be set; they are masked on match).
    pub addr: Ipv4Addr,
    /// Prefix length, 0..=32.
    pub prefix_len: u8,
}

impl Ipv4Cidr {
    /// Construct a prefix; panics if `prefix_len > 32`.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length must be <= 32");
        Ipv4Cidr { addr, prefix_len }
    }

    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Cidr = Ipv4Cidr {
        addr: Ipv4Addr::UNSPECIFIED,
        prefix_len: 0,
    };

    /// The netmask as a u32.
    pub fn mask(&self) -> u32 {
        if self.prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - self.prefix_len)
        }
    }

    /// The network address (host bits cleared).
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.addr) & self.mask())
    }

    /// Does this prefix contain `addr`?
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & self.mask()) == (u32::from(self.addr) & self.mask())
    }
}

impl fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.prefix_len)
    }
}

/// Error parsing a CIDR string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CidrParseError(String);

impl fmt::Display for CidrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR: {}", self.0)
    }
}

impl std::error::Error for CidrParseError {}

impl FromStr for Ipv4Cidr {
    type Err = CidrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| CidrParseError(s.into()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| CidrParseError(s.into()))?;
        let prefix_len: u8 = len.parse().map_err(|_| CidrParseError(s.into()))?;
        if prefix_len > 32 {
            return Err(CidrParseError(s.into()));
        }
        Ok(Ipv4Cidr::new(addr, prefix_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Ipv4Header::new(
            Ipv4Addr::new(204, 9, 168, 1),
            Ipv4Addr::new(204, 9, 169, 1),
            Ipv4Proto::Gre,
        );
        let pkt = h.encode_packet(&[1, 2, 3, 4, 5]);
        let (g, payload) = Ipv4Header::decode_packet(&pkt).unwrap();
        assert_eq!(g, h);
        assert_eq!(payload, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let h = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 1, 1),
            Ipv4Addr::new(10, 0, 2, 1),
            Ipv4Proto::Udp,
        );
        let mut pkt = h.encode_packet(&[0u8; 8]);
        pkt[8] ^= 0xff; // mangle TTL without fixing checksum
        assert!(matches!(
            Ipv4Header::decode_packet(&pkt),
            Err(CodecError::BadChecksum("ipv4"))
        ));
    }

    #[test]
    fn rejects_v6_and_truncation() {
        assert!(Ipv4Header::decode_packet(&[0u8; 3]).is_err());
        let h = Ipv4Header::new(Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST, Ipv4Proto::Icmp);
        let mut pkt = h.encode_packet(&[]);
        pkt[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::decode_packet(&pkt),
            Err(CodecError::BadVersion { .. })
        ));
    }

    #[test]
    fn cidr_contains() {
        let c: Ipv4Cidr = "10.0.2.0/24".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(10, 0, 2, 77)));
        assert!(!c.contains(Ipv4Addr::new(10, 0, 3, 1)));
        assert!(Ipv4Cidr::DEFAULT.contains(Ipv4Addr::new(8, 8, 8, 8)));
        assert_eq!(c.to_string(), "10.0.2.0/24");
    }

    #[test]
    fn cidr_parse_errors() {
        assert!("10.0.0.0".parse::<Ipv4Cidr>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Cidr>().is_err());
        assert!("banana/8".parse::<Ipv4Cidr>().is_err());
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 style check: checksum of a buffer plus its checksum is 0.
        let data = [0x45u8, 0x00, 0x00, 0x30, 0x44, 0x22, 0x40, 0x00, 0x80, 0x06];
        let c = internet_checksum(&data);
        let mut with = data.to_vec();
        with.extend_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }
}

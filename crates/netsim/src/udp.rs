//! Minimal UDP codec.  The paper's out-of-band management channel carried
//! CONMan messages over UDP/IP on a dedicated management NIC; the simulator
//! provides the same encapsulation for parity, and applications in examples
//! use UDP as their transport.

use crate::{CodecError, CodecResult};
use serde::{Deserialize, Serialize};

/// UDP header length.
pub(crate) const UDP_HEADER_LEN: usize = 8;

/// A decoded UDP datagram header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Build a header.
    pub fn new(src_port: u16, dst_port: u16) -> Self {
        UdpHeader { src_port, dst_port }
    }

    /// Encode header + payload into a datagram (checksum left zero, which is
    /// legal for IPv4 UDP).
    pub fn encode_datagram(&self, payload: &[u8]) -> Vec<u8> {
        let len = (UDP_HEADER_LEN + payload.len()) as u16;
        let mut out = Vec::with_capacity(UDP_HEADER_LEN + payload.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Decode a datagram into header and payload.
    pub fn decode_datagram(bytes: &[u8]) -> CodecResult<(UdpHeader, Vec<u8>)> {
        if bytes.len() < UDP_HEADER_LEN {
            return Err(CodecError::Truncated {
                what: "udp",
                needed: UDP_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        if len < UDP_HEADER_LEN || len > bytes.len() {
            return Err(CodecError::BadField {
                what: "udp length",
                value: len as u64,
            });
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
                dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            },
            bytes[UDP_HEADER_LEN..len].to_vec(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = UdpHeader::new(5000, 592);
        let d = h.encode_datagram(b"conman");
        let (g, payload) = UdpHeader::decode_datagram(&d).unwrap();
        assert_eq!(g, h);
        assert_eq!(payload, b"conman");
    }

    #[test]
    fn length_field_is_validated() {
        let h = UdpHeader::new(1, 2);
        let mut d = h.encode_datagram(&[0u8; 4]);
        d[4] = 0;
        d[5] = 3; // shorter than the header itself
        assert!(UdpHeader::decode_datagram(&d).is_err());
        assert!(UdpHeader::decode_datagram(&[0u8; 3]).is_err());
    }
}

//! GRE (RFC 2784/2890) header codec with key, sequence-number and checksum
//! options — the three knobs the paper's GRE module negotiates with its peer
//! (§III-B, Table III).

use crate::ipv4::internet_checksum;
use crate::{CodecError, CodecResult};

/// Protocol type carried in GRE for IPv4 payloads.
pub(crate) const GRE_PROTO_IPV4: u16 = 0x0800;

/// The longest GRE header: flags and protocol, checksum, key, sequence.
pub(crate) const GRE_MAX_HEADER_LEN: usize = 16;

/// A decoded GRE header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreHeader {
    /// Payload protocol (EtherType-style value, 0x0800 for IPv4).
    pub protocol: u16,
    /// Optional key (RFC 2890).
    pub key: Option<u32>,
    /// Optional sequence number (RFC 2890).
    pub sequence: Option<u32>,
    /// Whether the optional checksum is present.
    pub checksum_present: bool,
}

impl GreHeader {
    /// Build a header for an IPv4 payload.
    pub fn ipv4(key: Option<u32>, sequence: Option<u32>, checksum: bool) -> Self {
        GreHeader {
            protocol: GRE_PROTO_IPV4,
            key,
            sequence,
            checksum_present: checksum,
        }
    }

    /// Length of the encoded header in bytes.
    pub fn len(&self) -> usize {
        4 + if self.checksum_present { 4 } else { 0 }
            + if self.key.is_some() { 4 } else { 0 }
            + if self.sequence.is_some() { 4 } else { 0 }
    }

    /// GRE headers are never zero-length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Encode the header followed by `payload`.
    pub fn encode_packet(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len() + payload.len());
        out.extend_from_slice(&self.header_bytes()[..self.len()]);
        out.extend_from_slice(payload);
        fill_checksum(&mut out);
        out
    }

    /// The encoded header in its first [`Self::len`] bytes, the checksum
    /// field (when present) zero until [`fill_checksum`] sets it.
    pub(crate) fn header_bytes(&self) -> [u8; GRE_MAX_HEADER_LEN] {
        let mut flags: u16 = 0;
        if self.checksum_present {
            flags |= 0x8000;
        }
        if self.key.is_some() {
            flags |= 0x2000;
        }
        if self.sequence.is_some() {
            flags |= 0x1000;
        }
        let mut hdr = [0u8; GRE_MAX_HEADER_LEN];
        hdr[0..2].copy_from_slice(&flags.to_be_bytes());
        hdr[2..4].copy_from_slice(&self.protocol.to_be_bytes());
        // checksum + reserved1, when present, stay zero here
        let mut at = if self.checksum_present { 8 } else { 4 };
        for field in [self.key, self.sequence].into_iter().flatten() {
            hdr[at..at + 4].copy_from_slice(&field.to_be_bytes());
            at += 4;
        }
        hdr
    }

    /// Decode a GRE packet into header and payload, verifying the checksum
    /// when present.  The payload borrows from `bytes`.
    pub fn decode_packet(bytes: &[u8]) -> CodecResult<(GreHeader, &[u8])> {
        if bytes.len() < 4 {
            return Err(CodecError::Truncated {
                what: "gre",
                needed: 4,
                got: bytes.len(),
            });
        }
        let flags = u16::from_be_bytes([bytes[0], bytes[1]]);
        let version = (flags & 0x0007) as u8;
        if version != 0 {
            return Err(CodecError::BadVersion {
                what: "gre",
                version,
            });
        }
        let checksum_present = flags & 0x8000 != 0;
        let key_present = flags & 0x2000 != 0;
        let seq_present = flags & 0x1000 != 0;
        let protocol = u16::from_be_bytes([bytes[2], bytes[3]]);
        let mut offset = 4;
        let need = 4
            + if checksum_present { 4 } else { 0 }
            + if key_present { 4 } else { 0 }
            + if seq_present { 4 } else { 0 };
        if bytes.len() < need {
            return Err(CodecError::Truncated {
                what: "gre",
                needed: need,
                got: bytes.len(),
            });
        }
        if checksum_present {
            if internet_checksum(bytes) != 0 {
                return Err(CodecError::BadChecksum("gre"));
            }
            offset += 4;
        }
        let key = if key_present {
            let k = u32::from_be_bytes([
                bytes[offset],
                bytes[offset + 1],
                bytes[offset + 2],
                bytes[offset + 3],
            ]);
            offset += 4;
            Some(k)
        } else {
            None
        };
        let sequence = if seq_present {
            let s = u32::from_be_bytes([
                bytes[offset],
                bytes[offset + 1],
                bytes[offset + 2],
                bytes[offset + 3],
            ]);
            offset += 4;
            Some(s)
        } else {
            None
        };
        Ok((
            GreHeader {
                protocol,
                key,
                sequence,
                checksum_present,
            },
            &bytes[offset..],
        ))
    }
}

/// Set the checksum of an encoded GRE packet (header and payload) whose
/// header says one is present; a packet without one is left as it is.
pub(crate) fn fill_checksum(packet: &mut [u8]) {
    if packet[0] & 0x80 != 0 {
        let csum = internet_checksum(packet);
        packet[4..6].copy_from_slice(&csum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_roundtrip() {
        let h = GreHeader::ipv4(None, None, false);
        assert_eq!(h.len(), 4);
        let pkt = h.encode_packet(&[1, 2, 3]);
        let (g, payload) = GreHeader::decode_packet(&pkt).unwrap();
        assert_eq!(g, h);
        assert_eq!(payload, vec![1, 2, 3]);
    }

    #[test]
    fn full_options_roundtrip() {
        // The exact configuration from Figure 7(a): ikey/okey, icsum/ocsum,
        // iseq/oseq all enabled.
        let h = GreHeader::ipv4(Some(2001), Some(17), true);
        assert_eq!(h.len(), 16);
        let pkt = h.encode_packet(&[9u8; 100]);
        let (g, payload) = GreHeader::decode_packet(&pkt).unwrap();
        assert_eq!(g.key, Some(2001));
        assert_eq!(g.sequence, Some(17));
        assert!(g.checksum_present);
        assert_eq!(payload.len(), 100);
    }

    #[test]
    fn checksum_detects_corruption() {
        let h = GreHeader::ipv4(Some(1001), None, true);
        let mut pkt = h.encode_packet(&[5u8; 32]);
        let last = pkt.len() - 1;
        pkt[last] ^= 0xff;
        assert!(matches!(
            GreHeader::decode_packet(&pkt),
            Err(CodecError::BadChecksum("gre"))
        ));
    }

    #[test]
    fn truncation_and_version_errors() {
        assert!(GreHeader::decode_packet(&[0]).is_err());
        let mut pkt = GreHeader::ipv4(None, None, false).encode_packet(&[]);
        pkt[1] |= 0x01; // version 1 (PPTP)
        assert!(matches!(
            GreHeader::decode_packet(&pkt),
            Err(CodecError::BadVersion { .. })
        ));
        // flags promise a key but the buffer ends early
        let short = [0x20u8, 0x00, 0x08, 0x00];
        assert!(GreHeader::decode_packet(&short).is_err());
    }
}

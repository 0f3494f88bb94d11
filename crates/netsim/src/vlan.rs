//! IEEE 802.1Q VLAN tagging, including the double-tagging (Q-in-Q /
//! "dot1q-tunnel") mode used by the paper's VLAN-tunnelling VPN scenario
//! (Figure 9).

use crate::ether::EtherType;
use crate::{CodecError, CodecResult};
use serde::{Deserialize, Serialize};

/// Length of an 802.1Q tag: TCI (2 bytes) + inner EtherType (2 bytes).
pub(crate) const VLAN_TAG_LEN: usize = 4;

/// A VLAN identifier (12 bits, 1..=4094 usable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VlanId(u16);

impl VlanId {
    /// Construct a VLAN id, returning `None` when out of the 1..=4094 range.
    pub fn new(id: u16) -> Option<Self> {
        if (1..=4094).contains(&id) {
            Some(VlanId(id))
        } else {
            None
        }
    }

    /// The numeric identifier.
    pub fn value(self) -> u16 {
        self.0
    }
}

impl std::fmt::Display for VlanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A decoded 802.1Q tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct VlanTag {
    /// Priority code point (0..=7).
    pub(crate) pcp: u8,
    /// Drop eligible indicator.
    pub(crate) dei: bool,
    /// VLAN identifier.
    pub(crate) vid: VlanId,
    /// EtherType of the encapsulated payload.
    pub(crate) inner_ethertype: EtherType,
}

impl VlanTag {
    /// Build a tag with default priority.
    pub(crate) fn new(vid: VlanId, inner_ethertype: EtherType) -> Self {
        VlanTag {
            pcp: 0,
            dei: false,
            vid,
            inner_ethertype,
        }
    }

    /// Encode the 4-byte tag (TCI + inner EtherType).
    pub(crate) fn encode(&self) -> [u8; VLAN_TAG_LEN] {
        let tci: u16 =
            ((self.pcp as u16) << 13) | ((self.dei as u16) << 12) | (self.vid.value() & 0x0fff);
        let et = self.inner_ethertype.as_u16();
        [
            (tci >> 8) as u8,
            (tci & 0xff) as u8,
            (et >> 8) as u8,
            (et & 0xff) as u8,
        ]
    }

    /// Decode a tag from the first 4 bytes of `bytes`.
    pub(crate) fn decode(bytes: &[u8]) -> CodecResult<Self> {
        if bytes.len() < VLAN_TAG_LEN {
            return Err(CodecError::Truncated {
                what: "802.1Q",
                needed: VLAN_TAG_LEN,
                got: bytes.len(),
            });
        }
        let tci = u16::from_be_bytes([bytes[0], bytes[1]]);
        let vid_raw = tci & 0x0fff;
        let vid = VlanId::new(vid_raw).ok_or(CodecError::BadField {
            what: "802.1Q vid",
            value: vid_raw as u64,
        })?;
        Ok(VlanTag {
            pcp: (tci >> 13) as u8,
            dei: (tci >> 12) & 1 == 1,
            vid,
            inner_ethertype: EtherType::from_u16(u16::from_be_bytes([bytes[2], bytes[3]])),
        })
    }
}

/// Push a VLAN tag onto an Ethernet payload: returns the new payload for an
/// outer frame whose EtherType must be [`EtherType::Vlan`].
///
/// `inner_ethertype` is the EtherType the untagged frame carried, and
/// `payload` its payload.
pub(crate) fn push_tag(vid: VlanId, inner_ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
    let tag = VlanTag::new(vid, inner_ethertype);
    let mut out = Vec::with_capacity(VLAN_TAG_LEN + payload.len());
    out.extend_from_slice(&tag.encode());
    out.extend_from_slice(payload);
    out
}

/// Pop a VLAN tag from the payload of a frame whose EtherType was
/// [`EtherType::Vlan`]: returns the tag and the inner payload.
pub(crate) fn pop_tag(payload: &[u8]) -> CodecResult<(VlanTag, Vec<u8>)> {
    let tag = VlanTag::decode(payload)?;
    Ok((tag, payload[VLAN_TAG_LEN..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vid_range() {
        assert!(VlanId::new(0).is_none());
        assert!(VlanId::new(4095).is_none());
        assert_eq!(VlanId::new(22).unwrap().value(), 22);
    }

    #[test]
    fn tag_roundtrip() {
        let tag = VlanTag {
            pcp: 5,
            dei: true,
            vid: VlanId::new(22).unwrap(),
            inner_ethertype: EtherType::Ipv4,
        };
        let enc = tag.encode();
        let dec = VlanTag::decode(&enc).unwrap();
        assert_eq!(tag, dec);
    }

    #[test]
    fn push_pop_roundtrip() {
        let payload = vec![9u8; 40];
        let tagged = push_tag(VlanId::new(100).unwrap(), EtherType::Ipv4, &payload);
        assert_eq!(tagged.len(), payload.len() + VLAN_TAG_LEN);
        let (tag, inner) = pop_tag(&tagged).unwrap();
        assert_eq!(tag.vid.value(), 100);
        assert_eq!(tag.inner_ethertype, EtherType::Ipv4);
        assert_eq!(inner, payload);
    }

    #[test]
    fn double_tagging_qinq() {
        // Customer frame tagged with VLAN 7, provider adds outer VLAN 22.
        let customer = push_tag(VlanId::new(7).unwrap(), EtherType::Ipv4, &[1, 2, 3]);
        let provider = push_tag(VlanId::new(22).unwrap(), EtherType::Vlan, &customer);
        let (outer, rest) = pop_tag(&provider).unwrap();
        assert_eq!(outer.vid.value(), 22);
        assert_eq!(outer.inner_ethertype, EtherType::Vlan);
        let (inner, payload) = pop_tag(&rest).unwrap();
        assert_eq!(inner.vid.value(), 7);
        assert_eq!(payload, vec![1, 2, 3]);
    }

    #[test]
    fn decode_truncated() {
        assert!(VlanTag::decode(&[0, 1]).is_err());
    }
}

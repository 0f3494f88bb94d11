//! MPLS label-stack codec and the label-switching tables (ILM / NHLFE / XC)
//! mirroring the `mpls ilm add` / `mpls nhlfe add` / `mpls xc add` commands in
//! the paper's Figure 8(a) script.

use crate::{CodecError, CodecResult};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Length of one encoded label stack entry.
pub(crate) const LABEL_ENTRY_LEN: usize = 4;

/// A 20-bit MPLS label value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(u32);

impl Label {
    /// Maximum label value (20 bits).
    pub const MAX: u32 = (1 << 20) - 1;

    /// Construct a label, returning `None` when out of range.
    pub fn new(v: u32) -> Option<Self> {
        if v <= Self::MAX {
            Some(Label(v))
        } else {
            None
        }
    }

    /// Numeric value.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One entry of an MPLS label stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelStackEntry {
    /// The label value.
    pub label: Label,
    /// Traffic class (3 bits, formerly EXP).
    pub tc: u8,
    /// Bottom-of-stack flag.
    pub bottom: bool,
    /// Time to live.
    pub ttl: u8,
}

impl LabelStackEntry {
    /// Build an entry with default TC and TTL 64.
    pub fn new(label: Label, bottom: bool) -> Self {
        LabelStackEntry {
            label,
            tc: 0,
            bottom,
            ttl: 64,
        }
    }

    /// Encode to 4 bytes.
    pub fn encode(&self) -> [u8; 4] {
        let word: u32 = (self.label.value() << 12)
            | ((self.tc as u32 & 0x7) << 9)
            | ((self.bottom as u32) << 8)
            | self.ttl as u32;
        word.to_be_bytes()
    }

    /// Decode from 4 bytes.
    pub fn decode(bytes: &[u8]) -> CodecResult<Self> {
        match bytes.first_chunk::<4>() {
            Some(word) => Ok(Self::from_word(*word)),
            None => Err(CodecError::Truncated {
                what: "mpls",
                needed: 4,
                got: bytes.len(),
            }),
        }
    }

    fn from_word(bytes: [u8; 4]) -> Self {
        let word = u32::from_be_bytes(bytes);
        LabelStackEntry {
            label: Label(word >> 12),
            tc: ((word >> 9) & 0x7) as u8,
            bottom: (word >> 8) & 1 == 1,
            ttl: (word & 0xff) as u8,
        }
    }
}

/// Encode a label stack (outermost first) followed by the payload.
pub fn encode_stack(stack: &[LabelStackEntry], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(stack.len() * 4 + payload.len());
    for entry in stack {
        out.extend_from_slice(&entry.encode());
    }
    out.extend_from_slice(payload);
    out
}

/// A decoded label stack: the encoded entries, outermost first, read in
/// place.  The last entry is the only one with the bottom-of-stack bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelStack<'a>(&'a [u8]);

impl<'a> LabelStack<'a> {
    /// The entries, outermost first.
    pub fn iter(&self) -> impl Iterator<Item = LabelStackEntry> + 'a {
        (self.0.chunks_exact(LABEL_ENTRY_LEN))
            .map(|c| LabelStackEntry::from_word([c[0], c[1], c[2], c[3]]))
    }

    /// The outermost entry (a decoded stack is never empty).
    pub fn top(&self) -> LabelStackEntry {
        self.iter().next().expect("a decoded stack has an entry")
    }
}

/// Decode a full label stack (until the bottom-of-stack bit) and return it
/// with the remaining payload, both borrowed from `bytes`.
pub fn decode_stack(bytes: &[u8]) -> CodecResult<(LabelStack<'_>, &[u8])> {
    let mut offset = 0;
    loop {
        let entry = LabelStackEntry::decode(&bytes[offset..])?;
        offset += 4;
        if entry.bottom {
            break;
        }
        if offset >= bytes.len() {
            return Err(CodecError::Truncated {
                what: "mpls stack",
                needed: offset + 4,
                got: bytes.len(),
            });
        }
    }
    Ok((LabelStack(&bytes[..offset]), &bytes[offset..]))
}

/// Key identifying an NHLFE (next-hop label forwarding entry), mirroring the
/// opaque keys printed by the `mpls nhlfe add` command in Figure 8(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NhlfeKey(pub u32);

/// The label operation an NHLFE applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelOp {
    /// Push a new label (LSP ingress).
    Push(Label),
    /// Swap the top label (LSP transit).
    Swap(Label),
    /// Pop the top label (LSP egress); the payload is delivered to IP.
    Pop,
}

/// A next-hop label forwarding entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nhlfe {
    /// Key referenced by ILM cross-connects and IP routes.
    pub key: NhlfeKey,
    /// Label operation.
    pub op: LabelOp,
    /// IPv4 next hop to forward to (resolved via ARP on the egress port).
    pub nexthop: Ipv4Addr,
    /// Egress port index.
    pub out_port: u32,
    /// MTU configured for the entry (informational).
    pub mtu: u16,
}

/// An incoming-label-map entry: `(labelspace, label)` to be cross-connected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IlmEntry {
    /// Label space (per-interface label spaces are collapsed to one value,
    /// as in the paper's scripts which only use labelspace 0).
    pub labelspace: u16,
    /// Incoming label.
    pub label: Label,
}

/// The MPLS forwarding state of one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MplsTables {
    /// NHLFE entries keyed by their opaque key.
    pub nhlfe: HashMap<u32, Nhlfe>,
    /// Cross-connects: incoming (labelspace, label) -> NHLFE key.
    pub xc: HashMap<(u16, u32), NhlfeKey>,
    /// Label spaces assigned to ports (port -> labelspace).
    pub labelspace: HashMap<u32, u16>,
    next_key: u32,
}

impl MplsTables {
    /// Create empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh NHLFE key (mirrors the kernel allocating opaque keys).
    pub fn alloc_key(&mut self) -> NhlfeKey {
        self.next_key += 1;
        NhlfeKey(self.next_key)
    }

    /// Install an NHLFE entry.
    pub fn add_nhlfe(&mut self, nhlfe: Nhlfe) {
        self.nhlfe.insert(nhlfe.key.0, nhlfe);
    }

    /// Install a cross-connect from an incoming label to an NHLFE.
    pub fn add_xc(&mut self, ilm: IlmEntry, nhlfe: NhlfeKey) {
        self.xc.insert((ilm.labelspace, ilm.label.value()), nhlfe);
    }

    /// Set the label space of a port.
    pub fn set_labelspace(&mut self, port: u32, labelspace: u16) {
        self.labelspace.insert(port, labelspace);
    }

    /// Look up the forwarding action for a label arriving on `port`.
    pub fn lookup(&self, port: u32, label: Label) -> Option<&Nhlfe> {
        let space = self.labelspace.get(&port).copied().unwrap_or(0);
        let key = self.xc.get(&(space, label.value()))?;
        self.nhlfe.get(&key.0)
    }

    /// Look up an NHLFE directly by key (used by IP routes that steer
    /// traffic into an LSP, like the last line of Figure 8(a)).
    pub fn nhlfe_by_key(&self, key: NhlfeKey) -> Option<&Nhlfe> {
        self.nhlfe.get(&key.0)
    }

    /// Remove an NHLFE entry (`mpls nhlfe del`).
    pub fn remove_nhlfe(&mut self, key: NhlfeKey) -> bool {
        self.nhlfe.remove(&key.0).is_some()
    }

    /// Remove a cross-connect (`mpls xc del`).
    pub fn remove_xc(&mut self, ilm: IlmEntry) -> bool {
        self.xc
            .remove(&(ilm.labelspace, ilm.label.value()))
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_range() {
        assert!(Label::new(Label::MAX).is_some());
        assert!(Label::new(Label::MAX + 1).is_none());
    }

    #[test]
    fn entry_roundtrip() {
        let e = LabelStackEntry {
            label: Label::new(10001).unwrap(),
            tc: 3,
            bottom: true,
            ttl: 62,
        };
        let dec = LabelStackEntry::decode(&e.encode()).unwrap();
        assert_eq!(e, dec);
    }

    #[test]
    fn stack_roundtrip() {
        let stack = vec![
            LabelStackEntry::new(Label::new(2001).unwrap(), false),
            LabelStackEntry::new(Label::new(10001).unwrap(), true),
        ];
        let bytes = encode_stack(&stack, &[7u8; 10]);
        let (dec, payload) = decode_stack(&bytes).unwrap();
        assert_eq!(dec.iter().collect::<Vec<_>>(), stack);
        assert_eq!(dec.top(), stack[0]);
        assert_eq!(payload, vec![7u8; 10]);
    }

    #[test]
    fn stack_without_bottom_is_an_error() {
        let stack = vec![LabelStackEntry::new(Label::new(5).unwrap(), false)];
        let bytes = encode_stack(&stack, &[]);
        assert!(decode_stack(&bytes).is_err());
    }

    #[test]
    fn tables_lookup_respects_labelspace() {
        let mut t = MplsTables::new();
        let key = t.alloc_key();
        t.add_nhlfe(Nhlfe {
            key,
            op: LabelOp::Pop,
            nexthop: Ipv4Addr::new(192, 168, 0, 1),
            out_port: 1,
            mtu: 1500,
        });
        t.set_labelspace(2, 0);
        t.add_xc(
            IlmEntry {
                labelspace: 0,
                label: Label::new(10001).unwrap(),
            },
            key,
        );
        assert!(t.lookup(2, Label::new(10001).unwrap()).is_some());
        // A port in a different labelspace does not match.
        t.set_labelspace(3, 7);
        assert!(t.lookup(3, Label::new(10001).unwrap()).is_none());
        assert!(t.lookup(2, Label::new(9999).unwrap()).is_none());
        assert!(t.nhlfe_by_key(key).is_some());
    }
}

//! What the protocol modules say to each other, and how.
//!
//! A module-to-module envelope's body is opaque bytes to the NM (§II-D.1).
//! Each protocol module that negotiates with its peers owns a closed message
//! type for its own protocol — `IpMsg`, `GreMsg`, `MplsMsg`, `VlanMsg`, each
//! private to its module's file — and encodes it with `mgmt_channel::codec`:
//! a tag byte, then the fields.  A body that does not decode (an unknown tag,
//! a short read, trailing bytes, a field outside its protocol's range) is
//! refused with [`ModuleError::UndecodableBody`]; nothing is read with a
//! default.

use conman_core::ids::{ModuleRef, PipeId};
use conman_core::module::ModuleError;
use conman_core::primitives::{EnvelopeKind, ModuleEnvelope};
use mgmt_channel::codec::{Reader, Writer};
use std::net::Ipv4Addr;

/// One protocol module's message type.
pub(crate) trait Dialect: Sized {
    /// The body bytes: a tag byte, then the fields.
    fn encode(&self) -> Vec<u8>;

    /// The message `body` encodes, or `None` when it is not exactly one
    /// well-formed message.
    fn decode(body: &[u8]) -> Option<Self>;

    /// How the NM accounts for the message (Table VI).
    fn kind(&self) -> EnvelopeKind;

    /// The one place a module builds an envelope: to `pipe` of `to`, the
    /// far end its own pipe's spec names; the kind comes from the message,
    /// the body is its encoding.
    fn envelope(&self, from: &ModuleRef, to: ModuleRef, pipe: PipeId) -> ModuleEnvelope {
        ModuleEnvelope {
            from: *from,
            to,
            pipe,
            kind: self.kind(),
            body: self.encode(),
        }
    }

    /// The message `env` carries, or the refusal of a body that does not
    /// decode.
    fn read(env: &ModuleEnvelope) -> Result<Self, ModuleError> {
        Self::decode(&env.body).ok_or(ModuleError::UndecodableBody {
            from: env.from,
            len: env.body.len(),
        })
    }
}

/// An IPv4 address as its four raw bytes, in network order: an address is
/// not a count, and as a varint most would take five.
pub(crate) fn put_addr(w: &mut Writer, addr: Ipv4Addr) {
    w.put_raw(&addr.octets());
}

/// Read what [`put_addr`] wrote.
pub(crate) fn addr(r: &mut Reader<'_>) -> Option<Ipv4Addr> {
    r.raw::<4>().map(Ipv4Addr::from)
}

/// `msg`, if the body held nothing after it: trailing bytes are as corrupt
/// as missing ones.
pub(crate) fn whole<T>(r: &Reader<'_>, msg: T) -> Option<T> {
    r.is_exhausted().then_some(msg)
}

//! The protocol-module interface.
//!
//! A CONMan protocol module is a wrapper around a protocol implementation
//! (in this reproduction: around the `netsim` data plane) that exposes the
//! generic module abstraction and reacts to the CONMan primitives.  All the
//! protocol-specific intelligence — determining keys, addresses, labels,
//! VLAN ids — lives behind this interface, exactly as the paper prescribes.
//!
//! The modules of one device share a [`Blackboard`]: per pipe, the five
//! typed [`PipeFacts`] one module resolves and another needs.  It counts its
//! own content changes, which is how the management agent learns that a poll
//! round published something without looking at the facts.  The agent calls
//! [`ProtocolModule::poll`] after every event on the device, so the cost
//! contract of `poll` (work pending in the module, not state held by it) is
//! what keeps a change on a busy device as cheap as the change.

use crate::abstraction::ModuleAbstraction;
use crate::ids::{ModuleId, ModuleRef, PipeId};
use crate::primitives::{
    ComponentRef, FilterSpec, ModuleActual, ModuleEnvelope, Notification, PipeSpec, Primitive,
    SwitchSpec,
};
use netsim::config::DeviceConfig;
use netsim::route::RouteTarget;
use netsim::stats::DropReason;
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Why a module refused a primitive or a relayed envelope: the module's own
/// cause, which the agent wraps in a [`Refusal`](crate::primitives::Refusal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleError {
    /// `create (filter)` on a module that cannot filter.
    CannotFilter,
    /// A GRE up pipe without the performance trade-offs its dependency
    /// (Table III row iii) asks for.
    MissingTradeoffs,
    /// A relayed envelope's body is not a message of the receiving module's
    /// dialect.
    UndecodableBody {
        /// The sending module.
        from: ModuleRef,
        /// The body's length in bytes.
        len: usize,
    },
    /// A switch rule field the IP module refuses: present, but it does not
    /// parse.
    BadSwitchField(SwitchField),
    /// `create (filter)` for a `(from, to)` pair the module already filters.
    FilterInUse,
    /// A filter end the filtering module cannot resolve: neither itself
    /// nor a module it has exchanged addresses with on one of its pipes.
    UnresolvedFilterEnd(ModuleRef),
}

/// A field of a [`SwitchSpec`] the IP module refuses when it does not parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchField {
    /// `gateway`, an address.
    Gateway,
}

/// What a module wants to happen after handling an event: messages to peer
/// modules (relayed via the NM) and notifications to the NM.
#[derive(Debug, Default, Clone)]
pub struct ModuleReaction {
    /// Module-to-module messages to relay through the NM.
    pub envelopes: Vec<ModuleEnvelope>,
    /// Notifications to the NM.
    pub notifications: Vec<Notification>,
}

impl ModuleReaction {
    /// An empty reaction.
    pub fn none() -> Self {
        Self::default()
    }

    /// A reaction carrying a single envelope.
    pub fn envelope(env: ModuleEnvelope) -> Self {
        ModuleReaction {
            envelopes: vec![env],
            notifications: Vec::new(),
        }
    }

    /// Merge another reaction into this one.
    pub fn extend(&mut self, other: ModuleReaction) {
        self.envelopes.extend(other.envelopes);
        self.notifications.extend(other.notifications);
    }

    /// Is there anything in this reaction?
    pub fn is_empty(&self) -> bool {
        self.envelopes.is_empty() && self.notifications.is_empty()
    }
}

/// What the modules of one device tell each other about one pipe.  A fact
/// is `None` until its publisher has resolved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipeFacts {
    /// The physical port under the pipe.  Published by the ETH module at the
    /// pipe's lower end; read by IP, MPLS and VLAN to turn the pipe into an
    /// interface.
    pub port: Option<u32>,
    /// The peer's address on an adjacency pipe.  Published by the IP module
    /// that learnt it, which is also its reader (routes via the next hop).
    pub nexthop: Option<Ipv4Addr>,
    /// This device's end of a tunnel-endpoint pipe.  Published by the IP
    /// module below the tunnel; read by GRE and by IP-IP tunnel creation.
    pub local_addr: Option<Ipv4Addr>,
    /// The far end of a tunnel-endpoint pipe.  Published and read like
    /// [`Self::local_addr`].
    pub remote_addr: Option<Ipv4Addr>,
    /// What traffic entering the pipe from above is routed into: the tunnel
    /// GRE or IP-IP configured ([`RouteTarget::Tunnel`]) or the push NHLFE
    /// of the LSP MPLS installed ([`RouteTarget::Mpls`]).  Read by the IP
    /// module above, which uses it as a route target as it stands.
    pub attach: Option<RouteTarget>,
    /// The pipe's `(upper, lower)` modules.  Published by the agent when it
    /// creates the pipe; read by the agent's admission step, for which it
    /// is what makes a pipe id live on the device.
    pub ends: Option<(ModuleId, ModuleId)>,
}

/// The per-device blackboard: [`PipeFacts`] by pipe, for the pipes some
/// module has published a fact about.
///
/// Lifetime: a fact about the pipe itself (`port`, the addresses, `nexthop`,
/// `ends`) dies with the pipe — the agent calls [`Blackboard::remove_pipe`] on
/// `delete (pipe)`.  `attach` names something its publisher made, so the
/// publisher retracts it where it removes that thing.
///
/// [`Blackboard::publish`] and [`Blackboard::remove_pipe`] count every
/// change of content.  The agent compares [`Blackboard::changes`] before and
/// after a poll round instead of comparing the content itself.
#[derive(Debug, Clone, Default)]
pub struct Blackboard {
    facts: BTreeMap<PipeId, PipeFacts>,
    changes: u64,
}

impl Blackboard {
    /// An empty blackboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// The facts published about `pipe` (all `None` when there are none).
    pub fn pipe(&self, pipe: PipeId) -> PipeFacts {
        self.facts.get(&pipe).copied().unwrap_or_default()
    }

    /// Let `write` edit the facts of `pipe`.  Leaving them as they were is
    /// not a change and is not counted; a pipe left with no fact is dropped.
    pub fn publish(&mut self, pipe: PipeId, write: impl FnOnce(&mut PipeFacts)) {
        let before = self.pipe(pipe);
        let mut after = before;
        write(&mut after);
        if after == before {
            return;
        }
        if after == PipeFacts::default() {
            self.facts.remove(&pipe);
        } else {
            self.facts.insert(pipe, after);
        }
        self.changes += 1;
    }

    /// Drop every fact about `pipe`, so a later pipe reusing the identifier
    /// starts clean.
    pub fn remove_pipe(&mut self, pipe: PipeId) {
        if self.facts.remove(&pipe).is_some() {
            self.changes += 1;
        }
    }

    /// The pipes some fact is published about, ascending.
    pub fn pipes(&self) -> impl Iterator<Item = PipeId> + '_ {
        self.facts.keys().copied()
    }

    /// How many times the content has changed since the blackboard was
    /// created.
    pub fn changes(&self) -> u64 {
        self.changes
    }
}

/// The context a module operates in: the device configuration it is allowed
/// to write (this is "the protocol implementation" side of the wrapper) and
/// the per-device blackboard that modules on the same device use to share
/// resolved values (intra-device module interaction is an implementation
/// detail the architecture does not constrain).
pub struct ModuleCtx<'a> {
    /// The device's data-plane configuration.
    pub config: &'a mut DeviceConfig,
    /// The facts the device's modules share, by pipe.
    pub blackboard: &'a mut Blackboard,
}

/// A CONMan protocol module.
///
/// Default implementations make unsupported operations explicit errors, so a
/// minimal module only has to provide its reference and descriptor.
pub trait ProtocolModule: Send {
    /// The `<name, module-id, device-id>` identity of this module.
    fn reference(&self) -> ModuleRef;

    /// The module abstraction (the `showPotential` answer for this module).
    fn descriptor(&self) -> ModuleAbstraction;

    /// The module's actual configured state (the `showActual` answer).
    ///
    /// Lists exactly the components whose [`Self::delete`] would change this
    /// module's state, answered from the keyed tables `delete` removes from:
    /// a component is listed from the moment it is applied until it is
    /// deleted.  Pending rules (accepted, not yet applied) are not listed.
    fn actual(&self, _ctx: &ModuleCtx) -> ModuleActual {
        ModuleActual::default()
    }

    /// The module's fault domain: the drop reasons the device records that
    /// this module is responsible for.  The agent answers `pollCounters`
    /// with the device's counts for these reasons as the module's
    /// [`CounterSnapshot`](crate::abstraction::CounterSnapshot), and
    /// diagnosis blames the module whose counts moved.  The default claims
    /// nothing.
    fn fault_domain(&self) -> &'static [DropReason] {
        &[]
    }

    /// The module's half of the admission step the agent runs on every
    /// primitive before it executes any (at stage, and over a whole
    /// `Script`): may this module be handed `primitive`?  Pure; the agent
    /// has already checked what is common to every module (the named
    /// modules exist, a pipe id is not in use, a switch names one of its
    /// module's pipes), so this holds the protocol's own checks only.  A
    /// primitive it admits must not fail at create: the create paths do not
    /// check again.  The default admits everything but a filter.
    fn admit(&self, primitive: &Primitive) -> Result<(), ModuleError> {
        match primitive {
            Primitive::CreateFilter(_) => Err(ModuleError::CannotFilter),
            _ => Ok(()),
        }
    }

    /// Create a pipe this module participates in (as upper or lower end).
    fn create_pipe(
        &mut self,
        _ctx: &mut ModuleCtx,
        _spec: &PipeSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        Ok(ModuleReaction::none())
    }

    /// Create a switch rule on this module.
    fn create_switch(
        &mut self,
        _ctx: &mut ModuleCtx,
        _spec: &SwitchSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        Ok(ModuleReaction::none())
    }

    /// Create a filter on this module (only reached for a filter
    /// [`Self::admit`] admitted).
    fn create_filter(
        &mut self,
        _ctx: &mut ModuleCtx,
        _spec: &FilterSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        Ok(ModuleReaction::none())
    }

    /// Delete a previously created component.
    fn delete(
        &mut self,
        _ctx: &mut ModuleCtx,
        _component: &ComponentRef,
    ) -> Result<ModuleReaction, ModuleError> {
        Ok(ModuleReaction::none())
    }

    /// Handle a message from a peer module (relayed by the NM).  The body is
    /// in this module's own dialect: one that does not decode is refused
    /// with `Err`, the module's state left as it was, and never read with a
    /// default in place of a missing field.
    fn handle_envelope(
        &mut self,
        _ctx: &mut ModuleCtx,
        _env: &ModuleEnvelope,
    ) -> Result<ModuleReaction, ModuleError> {
        Ok(ModuleReaction::none())
    }

    /// Make progress on deferred work.
    ///
    /// Modules often cannot finish configuring the data plane the moment a
    /// primitive arrives (they may still be waiting for a peer's reply or for
    /// a value another module on the same device has to produce).  The
    /// management agent calls `poll` after every event so modules can pick up
    /// newly available values from the blackboard and complete their work.
    ///
    /// The contract the agent relies on: `poll` is called after every event
    /// on the device, and again for as long as a round reacts or changes the
    /// blackboard.  It must cost O(work pending in this module) — a module
    /// with nothing deferred returns at once however many pipes and rules it
    /// holds — and it must report what it resolved through
    /// [`Blackboard::publish`] only, because the blackboard's change count
    /// is all the agent looks at.
    fn poll(&mut self, _ctx: &mut ModuleCtx) -> ModuleReaction {
        ModuleReaction::none()
    }

    /// Drop the module part by part, calling `dropped` with each part's
    /// name just after it is freed, so a heap census can split what the
    /// module held.  Not for managing a device: the default drops the
    /// whole module as one part named after its kind.
    #[doc(hidden)]
    fn drop_parts(self: Box<Self>, dropped: &mut dyn FnMut(fmt::Arguments)) {
        let kind = self.reference().kind;
        drop(self);
        dropped(format_args!("{kind}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ModuleId, ModuleKind};
    use netsim::device::DeviceId;

    struct Dummy(ModuleRef);
    impl ProtocolModule for Dummy {
        fn reference(&self) -> ModuleRef {
            self.0
        }
        fn descriptor(&self) -> ModuleAbstraction {
            ModuleAbstraction::empty(self.0)
        }
    }

    #[test]
    fn defaults_are_sane() {
        let r = ModuleRef::new(ModuleKind::Ip, ModuleId(1), DeviceId::from_raw(1));
        let mut m = Dummy(r);
        let mut config = DeviceConfig::new();
        let mut blackboard = Blackboard::new();
        let mut ctx = ModuleCtx {
            config: &mut config,
            blackboard: &mut blackboard,
        };
        assert!(m.poll(&mut ctx).is_empty());
        assert_eq!(m.actual(&ctx), ModuleActual::default());
        assert!(m.fault_domain().is_empty());
        let filter = FilterSpec {
            module: r,
            from: r,
            to: r,
        };
        assert_eq!(
            m.admit(&Primitive::CreateFilter(filter)),
            Err(ModuleError::CannotFilter)
        );
        assert_eq!(m.admit(&Primitive::ShowActual), Ok(()));
    }

    #[test]
    fn blackboard_counts_content_changes_only() {
        let mut bb = Blackboard::new();
        bb.publish(PipeId(3), |facts| facts.port = Some(1));
        assert_eq!(bb.changes(), 1);
        bb.publish(PipeId(3), |facts| facts.port = Some(1));
        assert_eq!(bb.changes(), 1, "an equal value is not a change");
        bb.publish(PipeId(3), |facts| facts.port = Some(2));
        assert_eq!(bb.changes(), 2);
        assert_eq!(bb.pipe(PipeId(3)).port, Some(2));
    }

    #[test]
    fn remove_pipe_drains_exactly_that_pipes_keys() {
        let mut bb = Blackboard::new();
        for pipe in [0, 1, 10] {
            bb.publish(PipeId(pipe), |facts| facts.port = Some(pipe));
        }
        let before = bb.changes();
        bb.remove_pipe(PipeId(1));
        assert_eq!(bb.pipes().collect::<Vec<_>>(), [PipeId(0), PipeId(10)]);
        assert_eq!(bb.changes(), before + 1);
        bb.remove_pipe(PipeId(1));
        assert_eq!(bb.changes(), before + 1, "nothing left to remove");
    }
}

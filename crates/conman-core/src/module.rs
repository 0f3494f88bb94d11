//! The protocol-module interface.
//!
//! A CONMan protocol module is a wrapper around a protocol implementation
//! (in this reproduction: around the `netsim` data plane) that exposes the
//! generic module abstraction and reacts to the CONMan primitives.  All the
//! protocol-specific intelligence — determining keys, addresses, labels,
//! VLAN ids — lives behind this interface, exactly as the paper prescribes.
//!
//! The modules of one device share a [`Blackboard`]: a key/value map that
//! counts its own content changes, which is how the management agent learns
//! that a poll round published something without looking at the map.  The
//! agent calls [`ProtocolModule::poll`] after every event on the device, so
//! the cost contract of `poll` (work pending in the module, not state held
//! by it) is what keeps a change on a busy device as cheap as the change.

use crate::abstraction::{CounterSnapshot, ModuleAbstraction};
use crate::ids::{ModuleRef, PipeId};
use crate::primitives::{
    ComponentRef, FilterSpec, ModuleActual, ModuleEnvelope, Notification, PipeSpec, SwitchSpec,
};
use netsim::config::DeviceConfig;
use netsim::device::DeviceId;
use netsim::nic::Nic;
use netsim::stats::DeviceStats;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Bound, Deref};

/// Errors a module can raise while executing a primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleError {
    /// The module does not support the requested operation.
    Unsupported(String),
    /// A dependency declared in the abstraction was not satisfied.
    MissingDependency(String),
    /// The specification referenced unknown components.
    BadSpec(String),
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::Unsupported(s) => write!(f, "unsupported operation: {s}"),
            ModuleError::MissingDependency(s) => write!(f, "missing dependency: {s}"),
            ModuleError::BadSpec(s) => write!(f, "bad specification: {s}"),
        }
    }
}

impl std::error::Error for ModuleError {}

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

/// The per-device key/value blackboard the modules of one device share
/// resolved values through (underlying ports, learnt addresses, tunnel and
/// LSP attachments).
///
/// Reads go through the map it dereferences to; writes only through
/// [`Blackboard::set`] and [`Blackboard::remove_pipe`], which count every
/// change of content.  The agent compares [`Blackboard::changes`] before and
/// after a poll round instead of comparing the content itself.
#[derive(Debug, Clone, Default)]
pub struct Blackboard {
    entries: BTreeMap<String, String>,
    changes: u64,
}

impl Blackboard {
    /// An empty blackboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write a value.  Writing the value a key already holds is not a
    /// change and is not counted.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let value = value.into();
        match self.entries.entry(key.into()) {
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
            Entry::Occupied(slot) if *slot.get() == value => return,
            Entry::Occupied(mut slot) => {
                slot.insert(value);
            }
        }
        self.changes += 1;
    }

    /// Drop every attribute of `pipe` — the contiguous `"pipe.{n}."` key
    /// range — so a later pipe reusing the identifier starts clean.
    pub fn remove_pipe(&mut self, pipe: PipeId) {
        // `'/'` is the successor of `'.'`: the range holds exactly the keys
        // that start with `"pipe.{n}."`.
        let (start, end) = (format!("pipe.{}.", pipe.0), format!("pipe.{}/", pipe.0));
        let range = (
            Bound::Included(start.as_str()),
            Bound::Excluded(end.as_str()),
        );
        let keys: Vec<String> = self
            .entries
            .range::<str, _>(range)
            .map(|(k, _)| k.clone())
            .collect();
        for key in &keys {
            self.entries.remove(key);
        }
        self.changes += keys.len() as u64;
    }

    /// How many times the content has changed since the blackboard was
    /// created.
    pub fn changes(&self) -> u64 {
        self.changes
    }
}

impl Deref for Blackboard {
    type Target = BTreeMap<String, String>;

    fn deref(&self) -> &Self::Target {
        &self.entries
    }
}

/// The context a module operates in: the device configuration it is allowed
/// to write (this is "the protocol implementation" side of the wrapper), the
/// device's ports, and a per-device blackboard that modules on the same
/// device use to share resolved values (intra-device module interaction is an
/// implementation detail the architecture does not constrain).
pub struct ModuleCtx<'a> {
    /// The device this module lives on.
    pub device: DeviceId,
    /// The device's data-plane configuration.
    pub config: &'a mut DeviceConfig,
    /// The device's ports (read-only).
    pub ports: &'a [Nic],
    /// The device's packet counters (read-only), the substrate for the
    /// per-module performance reporting of Table III and the telemetry
    /// snapshots of the diagnosis layer.
    pub stats: &'a DeviceStats,
    /// Shared per-device key/value blackboard.
    pub blackboard: &'a mut Blackboard,
}

impl ModuleCtx<'_> {
    /// Convenience: read a blackboard value.
    pub fn get(&self, key: &str) -> Option<&String> {
        self.blackboard.get(key)
    }

    /// Convenience: write a blackboard value.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.blackboard.set(key, value);
    }

    /// Blackboard key for a per-pipe attribute.
    pub fn pipe_key(pipe: PipeId, attr: &str) -> String {
        format!("pipe.{}.{}", pipe.0, attr)
    }

    /// Read a per-pipe attribute.
    pub fn pipe_attr(&self, pipe: PipeId, attr: &str) -> Option<&String> {
        self.blackboard.get(&Self::pipe_key(pipe, attr))
    }

    /// Write a per-pipe attribute.
    pub fn set_pipe_attr(&mut self, pipe: PipeId, attr: &str, value: impl Into<String>) {
        self.blackboard.set(Self::pipe_key(pipe, attr), value);
    }
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
    /// deleted.  Pending rules (accepted, not yet applied) are not listed —
    /// refusing or surfacing those is ROADMAP item 3's.
    fn actual(&self, _ctx: &ModuleCtx) -> ModuleActual {
        ModuleActual::default()
    }

    /// The module's current counter snapshot (the `pollCounters` answer).
    ///
    /// The default reports nothing, which is a valid (if unhelpful) answer
    /// for modules with no performance reporting; concrete modules translate
    /// the device stats into per-pipe counters here.
    fn counters(&self, _ctx: &ModuleCtx) -> CounterSnapshot {
        CounterSnapshot::empty(self.reference())
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

    /// Create a filter on this module.
    fn create_filter(
        &mut self,
        _ctx: &mut ModuleCtx,
        spec: &FilterSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        Err(ModuleError::Unsupported(format!(
            "{} cannot filter (asked to drop {} -> {})",
            self.reference(),
            spec.from,
            spec.to
        )))
    }

    /// Delete a previously created component.
    fn delete(
        &mut self,
        _ctx: &mut ModuleCtx,
        _component: &ComponentRef,
    ) -> Result<ModuleReaction, ModuleError> {
        Ok(ModuleReaction::none())
    }

    /// Handle a message from a peer module (relayed by the NM).
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
    /// holds — and it must report content changes through
    /// [`ModuleCtx::set`] / [`ModuleCtx::set_pipe_attr`] only, because the
    /// blackboard's change count is all the agent looks at.
    fn poll(&mut self, _ctx: &mut ModuleCtx) -> ModuleReaction {
        ModuleReaction::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ModuleId, ModuleKind};

    struct Dummy(ModuleRef);
    impl ProtocolModule for Dummy {
        fn reference(&self) -> ModuleRef {
            self.0.clone()
        }
        fn descriptor(&self) -> ModuleAbstraction {
            ModuleAbstraction::empty(self.0.clone())
        }
    }

    #[test]
    fn defaults_are_sane() {
        let r = ModuleRef::new(ModuleKind::Ip, ModuleId(1), DeviceId::from_raw(1));
        let mut m = Dummy(r.clone());
        let mut config = DeviceConfig::new();
        let ports: Vec<Nic> = Vec::new();
        let stats = DeviceStats::default();
        let mut blackboard = Blackboard::new();
        let mut ctx = ModuleCtx {
            device: DeviceId::from_raw(1),
            config: &mut config,
            ports: &ports,
            stats: &stats,
            blackboard: &mut blackboard,
        };
        assert!(m.poll(&mut ctx).is_empty());
        assert_eq!(m.actual(&ctx), ModuleActual::default());
        let filter = FilterSpec {
            module: r.clone(),
            from: r.clone(),
            to: r.clone(),
            resolved: BTreeMap::new(),
        };
        assert!(m.create_filter(&mut ctx, &filter).is_err());
    }

    #[test]
    fn ctx_blackboard_helpers() {
        let mut config = DeviceConfig::new();
        let ports: Vec<Nic> = Vec::new();
        let stats = DeviceStats::default();
        let mut blackboard = Blackboard::new();
        let mut ctx = ModuleCtx {
            device: DeviceId::from_raw(1),
            config: &mut config,
            ports: &ports,
            stats: &stats,
            blackboard: &mut blackboard,
        };
        ctx.set_pipe_attr(PipeId(3), "port", "2");
        assert_eq!(ctx.pipe_attr(PipeId(3), "port").unwrap(), "2");
        assert_eq!(ModuleCtx::pipe_key(PipeId(3), "port"), "pipe.3.port");
        assert!(ctx.get("nope").is_none());
    }

    #[test]
    fn blackboard_counts_content_changes_only() {
        let mut bb = Blackboard::new();
        bb.set("a", "1");
        assert_eq!(bb.changes(), 1);
        bb.set("a", "1");
        assert_eq!(bb.changes(), 1, "an equal value is not a change");
        bb.set("a", "2");
        assert_eq!(bb.changes(), 2);
        assert_eq!(bb.get("a").unwrap(), "2");
    }

    #[test]
    fn remove_pipe_drains_exactly_that_pipes_keys() {
        let mut bb = Blackboard::new();
        for key in [
            "pipe.1.attach",
            "pipe.1.port",
            "pipe.1x",
            "pipe.10.port",
            "pipe.1",
            "pipe.0.port",
            "negotiated",
        ] {
            bb.set(key, "v");
        }
        let before = bb.changes();
        bb.remove_pipe(PipeId(1));
        let left: Vec<&str> = bb.keys().map(String::as_str).collect();
        assert_eq!(
            left,
            [
                "negotiated",
                "pipe.0.port",
                "pipe.1",
                "pipe.10.port",
                "pipe.1x"
            ]
        );
        assert_eq!(bb.changes(), before + 2);
        bb.remove_pipe(PipeId(1));
        assert_eq!(bb.changes(), before + 2, "nothing left to remove");
    }
}

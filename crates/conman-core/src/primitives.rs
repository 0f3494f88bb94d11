//! The CONMan primitives (Table I) and the wire messages that carry them
//! over the management channel.
//!
//! The NM interacts with devices using only these protocol-independent
//! primitives; everything protocol-specific is worked out by the modules
//! themselves via `conveyMessage` / `listFieldsAndValues` exchanges relayed
//! through the NM.  Those exchanges travel as [`ModuleEnvelope`]s whose body
//! is bytes only the two modules read; what the NM itself is told is a
//! [`Notice`].

use crate::abstraction::{CounterSnapshot, ModuleAbstraction};
use crate::ids::{ModuleRef, PipeId};
use crate::module::ModuleError;
use netsim::device::{DeviceId, PortId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A performance trade-off choice the NM passes when creating a pipe
/// (satisfying a dependency like Table III row iii).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TradeoffChoice {
    /// Prefer in-order delivery at the cost of delay/jitter
    /// (GRE: enables sequence numbers).
    InOrderDelivery,
    /// Prefer a low error rate at the cost of loss rate / bandwidth
    /// (GRE: enables checksums).
    LowErrorRate,
    /// Prefer low delay (disables both of the above).
    LowDelay,
}

/// A high-level name from the human manager's goal (`C1-S2`, `S2-gateway`)
/// together with the value the NM resolved it to (a prefix, an address).  A
/// spec field that names something is of this type, so the name cannot travel
/// without the value its module reads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolvedName {
    /// The name as the goal and the Figure 7(b) scripts spell it.
    pub name: String,
    /// What the NM resolved it to; empty when the goal does not say.
    pub value: String,
}

/// Specification of a pipe to create between two modules in the same device.
/// It names modules and carries nothing protocol-specific: a pipe's low-level
/// fields are worked out by the modules themselves (§II-D).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipeSpec {
    /// NM-assigned pipe identifier (the `P1` in the paper's scripts).
    pub pipe: PipeId,
    /// The upper module of the pipe.
    pub upper: ModuleRef,
    /// The lower module of the pipe.
    pub lower: ModuleRef,
    /// Peer of the upper module at the far end of the path (if any).
    pub peer_upper: Option<ModuleRef>,
    /// Peer of the lower module at the far end of the path (if any).
    pub peer_lower: Option<ModuleRef>,
    /// Trade-off choices satisfying the modules' declared dependencies.
    pub tradeoffs: Vec<TradeoffChoice>,
    /// Whether the modules on this device should initiate the peer
    /// negotiation (exactly one side of a peer pair initiates, so each
    /// exchange costs two relayed messages as in Table VI).
    pub initiate: bool,
}

/// Specification of a switch rule: packets from `in_pipe` are switched to
/// `out_pipe`, optionally restricted to a named traffic class.  Only the two
/// edge rules of a goal (Figure 7(b) commands 3 and 4) name anything, and each
/// name carries its own value; a transit rule is three ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchSpec {
    /// The module whose switch is configured.
    pub module: ModuleRef,
    /// Incoming pipe.
    pub in_pipe: PipeId,
    /// Outgoing pipe.
    pub out_pipe: PipeId,
    /// Only traffic destined to this named class takes the rule
    /// (e.g. `dst:C1-S2` in Figure 7(b)), resolved to its prefix.
    pub dst_class: Option<ResolvedName>,
    /// Gateway used when switching towards a customer-facing pipe
    /// (e.g. `S2-gateway` in Figure 7(b)), resolved to its address.
    pub gateway: Option<ResolvedName>,
    /// On a gateway rule, the local site's prefix: the module routes it
    /// through the gateway so return traffic reaches the customer.
    pub local_prefix: Option<String>,
}

/// Specification of a filter: drop traffic from one module to another
/// (§II-E).  The inspecting module resolves the abstract references into
/// protocol fields itself, using `listFieldsAndValues` if needed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterSpec {
    /// The module that should perform the filtering.
    pub module: ModuleRef,
    /// Drop packets coming from this module.
    pub from: ModuleRef,
    /// Drop packets going to this module.
    pub to: ModuleRef,
    /// Resolved field values the NM already knows (dependency tracking).
    pub resolved: BTreeMap<String, String>,
}

/// The one name of a component: what `create` makes, `delete ()` takes and
/// `showActual` lists.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ComponentRef {
    /// A pipe by id.
    Pipe(PipeId),
    /// A switch rule by (module, in pipe, out pipe).
    SwitchRule(ModuleRef, PipeId, PipeId),
    /// A filter on a module identified by the (from, to) pair it drops.
    Filter(ModuleRef, ModuleRef, ModuleRef),
}

/// A single CONMan primitive invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Primitive {
    /// `showPotential ()`.
    ShowPotential,
    /// `showActual ()`.
    ShowActual,
    /// `create (pipe, ...)`.
    CreatePipe(PipeSpec),
    /// `create (switch, ...)`.
    CreateSwitch(SwitchSpec),
    /// `create (filter, ...)`.
    CreateFilter(FilterSpec),
    /// `delete (...)`.
    Delete(ComponentRef),
}

impl Primitive {
    /// The component a `create` makes or a `delete` removes; `None` for the
    /// two reads.  Teardown mirrors and a plan's claims both spell a
    /// component through here.
    pub fn component(&self) -> Option<ComponentRef> {
        match self {
            Primitive::ShowPotential | Primitive::ShowActual => None,
            Primitive::CreatePipe(spec) => Some(ComponentRef::Pipe(spec.pipe)),
            Primitive::CreateSwitch(spec) => Some(ComponentRef::SwitchRule(
                spec.module.clone(),
                spec.in_pipe,
                spec.out_pipe,
            )),
            Primitive::CreateFilter(spec) => Some(ComponentRef::Filter(
                spec.module.clone(),
                spec.from.clone(),
                spec.to.clone(),
            )),
            Primitive::Delete(component) => Some(component.clone()),
        }
    }
}

/// The kind of module-to-module message being relayed through the NM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeKind {
    /// `conveyMessage ()` — opaque module-to-module coordination
    /// (e.g. GRE key / sequence-number negotiation).
    Convey,
    /// `listFieldsAndValues ()` — a query for the low-level fields behind a
    /// component identifier (e.g. "what is your IP address?").
    FieldQuery,
    /// The response to a field query.
    FieldResponse,
}

/// A module-to-module message.  The management channel only connects devices
/// to the NM, so these are always relayed by the NM (§II-D.1 d), which reads
/// the two addresses and the kind and never the body.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleEnvelope {
    /// Originating module.
    pub from: ModuleRef,
    /// Destination module.
    pub to: ModuleRef,
    /// What kind of exchange this is, for the NM's accounting (Table VI).
    /// The sending module derives it from the message it encoded.
    pub kind: EnvelopeKind,
    /// The message in the sending module's own dialect: a tag byte and its
    /// fields, written with `mgmt_channel::codec`.  Opaque bytes to the NM
    /// and the wire codec, which carry them as they are; the receiving module
    /// decodes them and refuses a body that does not decode.
    pub body: Vec<u8>,
}

/// An unsolicited module-to-NM notification.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// Originating module.
    pub from: ModuleRef,
    /// What happened.
    pub body: Notice,
}

/// What a module (or its agent) tells the NM.  Unlike an envelope body this
/// is the NM's own vocabulary, so it is one closed type here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notice {
    /// The far end of a negotiated tunnel is in place.  Table VI counts the
    /// message; it says nothing about which protocol built the tunnel.
    Established,
    /// A module refused a relayed envelope.
    Refused(Box<Refusal>),
    /// The agent gave up polling its modules with the device still busy.
    PollRoundCap,
}

/// The one failure type from module to operator: the module gives its
/// [`ModuleError`], the agent the device and component, the NM a silence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Refusal {
    /// The device that refused, or did not answer.
    pub device: DeviceId,
    /// The component the refused primitive makes or deletes, if any.
    pub component: Option<ComponentRef>,
    /// Why.
    pub cause: RefusalCause,
}

/// What a [`Refusal`] is about.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefusalCause {
    /// A primitive names a module the device does not have.
    UnknownModule(ModuleRef),
    /// A `create (pipe)` names a pipe id live on the device or created
    /// earlier in the same batch (stage).
    PipeInUse(PipeId),
    /// A `create (switch)` names no pipe its module is an end of, live or
    /// created earlier in the same batch (stage).
    SwitchWithoutPipe,
    /// The module refused a primitive (stage) or a relayed envelope.
    Module(ModuleError),
    /// A staged segment's primitive block does not decode (stage).
    MalformedSegment,
    /// A commit names a goal not staged under its transaction, or aborted.
    NeverStaged,
    /// The device did not answer the stage.
    UnansweredStage,
    /// The device did not answer the commit.
    UnansweredCommit,
}

/// The actual (configured) state of a module, returned by `showActual`: the
/// three kinds of component `delete` accepts, by the ids `delete` takes
/// (with the answering module they spell a [`ComponentRef`]).  There is no
/// field a label, a key, a VLAN id or an address could travel in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModuleActual {
    /// Pipes the module is an end of.
    pub pipes: Vec<PipeId>,
    /// Applied switch rules as `(in pipe, out pipe)`.
    pub switch_rules: Vec<(PipeId, PipeId)>,
    /// Installed filters as `(from, to)`.
    pub filters: Vec<(ModuleRef, ModuleRef)>,
}

impl ModuleActual {
    /// What `module` lists, spelt as the [`ComponentRef`]s `delete` takes.
    pub fn components(&self, module: &ModuleRef) -> Vec<ComponentRef> {
        let m = || module.clone();
        let pipes = self.pipes.iter().map(|p| ComponentRef::Pipe(*p));
        let rules = (self.switch_rules.iter()).map(|&(i, o)| ComponentRef::SwitchRule(m(), i, o));
        let filters =
            (self.filters.iter()).map(|(f, t)| ComponentRef::Filter(m(), f.clone(), t.clone()));
        pipes.chain(rules).chain(filters).collect()
    }
}

/// Result of executing one primitive.
#[derive(Debug, Clone, PartialEq)]
pub enum PrimitiveResult {
    /// showPotential: the device's modules and their abstractions.
    Potential(Vec<ModuleAbstraction>),
    /// showActual: per-module actual state.
    Actual(BTreeMap<ModuleRef, ModuleActual>),
    /// A pipe was created.
    PipeCreated(PipeId),
    /// The primitive completed (possibly with deferred low-level work still
    /// being negotiated between modules).
    Done,
}

/// What a device answers for one primitive.  The refusal is boxed: it is
/// rare, and several times the size of a result.
pub type PrimitiveOutcome = Result<PrimitiveResult, Box<Refusal>>;

/// A device-level announcement: physical connectivity reported to the NM so
/// it can build the topology (§II-D).
#[derive(Debug, Clone, PartialEq)]
pub struct Announcement {
    /// Announcing device.
    pub device: DeviceId,
    /// Device name (purely cosmetic, for experiment output).
    pub device_name: String,
    /// `(local port, neighbour device, neighbour port)` adjacency.
    pub neighbors: Vec<(PortId, DeviceId, PortId)>,
}

/// One goal's slice of a batched transaction on one device: the primitives
/// realising that goal on that device, tagged with the owning goal id so the
/// agent can validate, commit and roll back each goal independently.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptSegment {
    /// The owning goal (`GoalId.0`).
    pub goal: u64,
    /// The primitives of this goal's script for this device.
    pub primitives: Vec<Primitive>,
}

/// The staging verdict for one segment of a batched transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentVerdict {
    /// The owning goal (`GoalId.0`).
    pub goal: u64,
    /// Admission refusals (empty = the segment is held, ready to commit).
    pub errors: Vec<Refusal>,
}

/// The commit results for one segment of a batched transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentCommit {
    /// The owning goal (`GoalId.0`).
    pub goal: u64,
    /// One result (or refusal) per staged primitive of the segment.
    pub results: Vec<PrimitiveOutcome>,
}

/// Everything that can travel over the management channel.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Device → NM: physical connectivity announcement.
    Announce(Announcement),
    /// NM → device: a batch of primitives to execute ("the NM sends commands
    /// to each router along the path").  The agent admits the whole list
    /// before it executes any of it.
    Script {
        /// Request identifier for matching responses.
        request: u64,
        /// The primitives, executed in order.
        primitives: Vec<Primitive>,
    },
    /// Device → NM: the per-primitive results of a script.
    ScriptResult {
        /// Request identifier this responds to.
        request: u64,
        /// One result per primitive; a script the agent's admission
        /// refused ran none of them and answers with its refusals only.
        results: Vec<PrimitiveOutcome>,
    },
    /// Module → module, one envelope per message (relayed by the NM in both
    /// directions).  Batched transaction runners send [`Self::RelayBatch`]
    /// instead.
    Module(ModuleEnvelope),
    /// Module → NM notification.
    Notify(Notification),
    /// NM → device: the one telemetry pull — sample every module's counters
    /// and the device's per-flow counter attribution for the listed flow
    /// tags (each tag is an owning goal's id), so one message per device
    /// covers any number of goals.
    PollCounters {
        /// Request identifier for matching reports.
        request: u64,
        /// Flow tags (goal ids) to report.
        tags: Vec<u64>,
    },
    /// Device → NM: both halves of one snapshot — a counter snapshot per
    /// module (device totals, for drop-reason refinement) and the per-flow
    /// attribution the Diagnoser's frontier walk runs on.
    CounterReport {
        /// Request identifier this responds to.
        request: u64,
        /// Per-module snapshots.
        snapshots: Vec<CounterSnapshot>,
        /// `(flow tag, counters)` per polled tag, in poll order.
        flows: Vec<(u64, netsim::stats::FlowCounters)>,
    },
    /// NM → device: phase one of a two-phase configuration transaction —
    /// every goal the transaction touches on this device, in one round
    /// trip (a single-goal transaction carries one segment).  The agent
    /// *admits* each segment independently (the one check: modules present,
    /// pipe ids free, switches over their module's pipes, and each module's
    /// own `admit`) and holds the admitted ones without touching the data
    /// plane; per-goal atomicity is preserved inside the batch.
    StageBatch {
        /// Transaction identifier (shared by every device in the batch).
        txn: u64,
        /// One segment per goal with work on this device.
        segments: Vec<ScriptSegment>,
    },
    /// Device → NM: one staging verdict per segment of a `StageBatch`.
    StageBatchResult {
        /// Transaction this responds to.
        txn: u64,
        /// Per-segment verdicts, in segment order.
        verdicts: Vec<SegmentVerdict>,
    },
    /// NM → device: phase two of a batched transaction — execute the listed
    /// goals' segments staged under `txn` (goals that failed staging on a
    /// sibling device are simply not listed).
    CommitBatch {
        /// Transaction to commit.
        txn: u64,
        /// The goals whose segments to execute, in order.
        goals: Vec<u64>,
    },
    /// Device → NM: per-segment results of a committed batch.
    CommitBatchResult {
        /// Transaction this responds to.
        txn: u64,
        /// One entry per committed segment, in commit order.
        segments: Vec<SegmentCommit>,
    },
    /// NM → device: discard the listed goals' segments staged under `txn`
    /// (they failed on a sibling device); other segments stay held.  No
    /// response is expected.
    AbortBatch {
        /// The transaction holding the segments.
        txn: u64,
        /// The goals whose segments to discard.
        goals: Vec<u64>,
    },
    /// Device ↔ NM: a round's worth of module-to-module envelopes as one
    /// message.  Device → NM it carries everything one device's modules
    /// emitted in one management round; NM → device, everything the NM
    /// relays to that device in one round.  Batched transaction runners
    /// coalesce relays per (device, round) in both directions so peer
    /// negotiations of many concurrent goals do not dominate the NM's
    /// message budget; envelope order within the batch is preserved.
    RelayBatch {
        /// The relayed envelopes, in relay order.
        envelopes: Vec<ModuleEnvelope>,
    },
}

//! Orchestration of a managed network: the simulated network, one management
//! agent per managed device, the management channel between them, and the NM.
//!
//! This is the "harness" that the examples, integration tests and experiment
//! binaries drive: announce → discover (showPotential) → map a high-level
//! goal to paths → execute the chosen path's scripts while relaying
//! module-to-module messages and counting everything for Table VI.

#[path = "loop.rs"]
pub mod control_loop;
pub mod event;
mod pool;
pub mod reconcile;
pub mod txn;
pub mod verify;

use crate::abstraction::CounterSnapshot;
use crate::agent::ManagementAgent;
use crate::ids::ModuleRef;
use crate::nm::{ConnectivityGoal, GoalStore, ModulePath, NetworkManager, ScriptSet};
use crate::primitives::{
    EnvelopeKind, ModuleActual, ModuleEnvelope, Primitive, PrimitiveOutcome, PrimitiveResult,
    SegmentCommit, SegmentVerdict, WireMessage,
};
use crate::wire::{self, WireCodec};
use conman_obs::{MessageDirection, Recorder};
use mgmt_channel::{ManagementChannel, MessageCategory, MgmtMessage};
use netsim::device::{Device, DeviceId};
use netsim::network::Network;
use netsim::stats::FlowCounters;
use std::collections::BTreeMap;

pub use control_loop::{
    ControlLoop, LoopClient, LoopConfig, LoopDiagnosis, LoopReport, TickReport,
};
pub use event::{GoalEndpoints, NmEvent};
pub use reconcile::{ReconcileAction, ReconcileOutcome, ReconcileReport, WithdrawOutcome};
pub use txn::GoalTeardown;
pub use txn::{BatchOutcome, TeardownBatchOutcome, TxnEvent, TxnHook};

/// What one device answered to [`ManagedNetwork::poll_counters`]: both
/// halves of one snapshot, from one round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTelemetry {
    /// One counter snapshot per module (device totals).
    pub snapshots: Vec<CounterSnapshot>,
    /// The device's per-flow counter attribution, keyed by polled flow tag.
    pub flows: BTreeMap<u64, FlowCounters>,
}

/// Upper bound on relay rounds per management operation; real exchanges
/// converge in a handful of rounds.
const MAX_ROUNDS: usize = 64;

/// The NM's message accounting (Table VI): the messages the NM host sent
/// and the messages drained at it, with their payload bytes, in total and
/// by category.  [`ManagedNetwork`] writes it at its one send door and its
/// one receive door; the channel counts nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Messages the NM sent.
    pub sent: u64,
    /// Messages the NM received.
    pub received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Sent messages broken down by category.
    pub sent_by_category: BTreeMap<MessageCategory, u64>,
    /// Received messages broken down by category.
    pub received_by_category: BTreeMap<MessageCategory, u64>,
    /// Payload bytes sent, broken down by category.
    pub bytes_sent_by_category: BTreeMap<MessageCategory, u64>,
    /// Payload bytes received, broken down by category.
    pub bytes_received_by_category: BTreeMap<MessageCategory, u64>,
}

/// The category a message is counted under (Table VI).
fn category_of(msg: &WireMessage) -> MessageCategory {
    match msg {
        WireMessage::Announce(_) => MessageCategory::Announcement,
        WireMessage::Script { .. }
        | WireMessage::StageBatch { .. }
        | WireMessage::CommitBatch { .. }
        | WireMessage::AbortBatch { .. } => MessageCategory::Command,
        WireMessage::ScriptResult { .. }
        | WireMessage::StageBatchResult { .. }
        | WireMessage::CommitBatchResult { .. } => MessageCategory::Response,
        WireMessage::Module(env) => match env.kind {
            EnvelopeKind::Convey => MessageCategory::ConveyMessage,
            EnvelopeKind::FieldQuery | EnvelopeKind::FieldResponse => MessageCategory::FieldQuery,
        },
        // A relay batch is one management message carrying many
        // envelopes; it is counted once, under the convey category.
        WireMessage::RelayBatch { .. } => MessageCategory::ConveyMessage,
        WireMessage::Notify(_) => MessageCategory::Notification,
        WireMessage::PollCounters { .. } | WireMessage::CounterReport { .. } => {
            MessageCategory::Telemetry
        }
    }
}

/// An agent's answers to one payload at a live device: a `StageBatch` is
/// validated in place (the zero-copy fast path, with no message tree
/// built); anything else is decoded and handled.  `None`: the payload does
/// not decode.
fn agent_answers(
    agent: &mut ManagementAgent,
    device: &mut Device,
    payload: &[u8],
) -> Option<Vec<WireMessage>> {
    if wire::is_stage_batch(payload) {
        if let Some(outputs) = agent.handle_stage_batch_in_place(device, payload) {
            return Some(outputs);
        }
        // Unparseable framing: the generic decoder drops it like any other
        // malformed payload.
    }
    WireMessage::decode(payload).map(|msg| agent.handle(device, &msg))
}

/// What one agent's turn in a fanned-out round leaves for the calling
/// thread to post and count.
#[derive(Default)]
struct Turn {
    /// Its answers to the NM, encoded, in the order the agent gave them,
    /// its round's module envelopes last as one `RelayBatch`: category,
    /// payload, and whether the payload is a batch transaction message
    /// (counted under `txn.encode_bytes`).
    answers: Vec<(MessageCategory, Vec<u8>, bool)>,
    /// Messages that did not decode (`mgmt.decode_dropped`).
    dropped: u64,
}

/// One agent's turn in a transaction round, on a worker: what the
/// sequential round's `route_message` and `answer` do for a device that
/// is not the NM host, with relays batched, up to the send.
fn agent_turn(
    agent: &mut ManagementAgent,
    device: &mut Device,
    messages: Vec<MgmtMessage>,
) -> Turn {
    let mut turn = Turn::default();
    // A crashed device consumes nothing.
    if !device.up {
        return turn;
    }
    let mut upward = Vec::new();
    let encode = |msg: &WireMessage| {
        let batch = wire::is_batch_txn_message(msg);
        (category_of(msg), msg.encode(), batch)
    };
    for m in messages {
        let Some(outputs) = agent_answers(agent, device, &m.payload) else {
            turn.dropped += 1;
            continue;
        };
        for out in outputs {
            match out {
                WireMessage::Module(env) => upward.push(env),
                out => turn.answers.push(encode(&out)),
            }
        }
    }
    if !upward.is_empty() {
        let batch = WireMessage::RelayBatch { envelopes: upward };
        turn.answers.push(encode(&batch));
    }
    turn
}

/// A network under CONMan management.
pub struct ManagedNetwork<C: ManagementChannel> {
    /// The simulated network (data plane).
    pub net: Network,
    /// Management agents by device.
    pub agents: BTreeMap<DeviceId, ManagementAgent>,
    /// The management channel.
    pub channel: C,
    /// The network manager state.
    pub nm: NetworkManager,
    nm_host: DeviceId,
    /// What the NM host sent and received (see [`Self::nm_counters`]).
    counters: ChannelCounters,
    next_request: u64,
    /// Script replies received by the NM and not yet taken by the call that
    /// asked for them: (device, per-primitive results).  Empty between
    /// calls — every requester drains what arrived on its behalf.  A
    /// `Script` serves only [`Self::discover`], [`Self::show_actual`] and
    /// [`Self::execute_path`]; no transaction sends one.
    script_results: Vec<(DeviceId, Vec<PrimitiveOutcome>)>,
    /// Telemetry reports received by the NM and not yet consumed:
    /// (device, request, report).  Drained by [`Self::poll_counters`].
    counter_reports: Vec<(DeviceId, u64, DeviceTelemetry)>,
    /// The NM's declarative goal store (see [`reconcile`]).
    pub goals: GoalStore,
    /// Staging verdicts (one per goal segment) received by the NM, indexed
    /// by (device, txn) so the runner's drain is a map lookup rather than a
    /// linear scan (batch replies arrive in bulk; scanning per response is
    /// quadratic).  Empty after each phase: what its drain leaves is
    /// dropped and counted under `txn.stale_results`.
    pub(crate) stage_batch_results: BTreeMap<(DeviceId, u64), Vec<SegmentVerdict>>,
    /// Commit results (one per goal segment), indexed by (device, txn).
    pub(crate) commit_batch_results: BTreeMap<(DeviceId, u64), Vec<SegmentCommit>>,
    /// Set while a transaction runner is on the stack: module-to-module
    /// envelopes travel as one [`WireMessage::RelayBatch`] per (device,
    /// management round) in both directions — a device sends the NM
    /// everything its modules emitted in a round as one message, and the
    /// NM relays them onward as one message per destination — instead of
    /// one message per envelope.  Off outside transactions, so the
    /// fire-and-forget [`Self::execute_path`] keeps the per-message
    /// Table VI counts.
    pub(crate) batch_relays: bool,
    /// Relays buffered for the current management round (relay batching).
    pending_relays: BTreeMap<DeviceId, Vec<ModuleEnvelope>>,
    /// The width of the reconcile pass on the stack, if any: the workers
    /// its path search and its transaction rounds use.  A transaction
    /// runner outside a pass takes [`pool::default_width`].
    pass_width: Option<usize>,
    /// The workers a management round runs its agents on.  More than 1
    /// only while a transaction runner is on the stack (see
    /// [`Self::run_management`]).
    round_width: usize,
    /// Deterministic fault-injection hook invoked between transaction
    /// phases (see [`TxnEvent`]); used by tests and the fault experiments to
    /// crash devices mid-commit.
    pub txn_hook: Option<TxnHook>,
    /// Flight recorder every management layer writes into (disabled by
    /// default — attach an enabled one with [`Self::set_recorder`]).
    pub recorder: Recorder,
    /// Nothing reads this field: every message travels in the one binary
    /// codec of [`crate::wire`].  It is kept only so that `benchmark/`,
    /// which sets it, still compiles, and goes with [`WireCodec`].
    pub codec: WireCodec,
}

impl<C: ManagementChannel> ManagedNetwork<C> {
    /// Create a managed network with the NM hosted on `nm_host`.
    pub fn new(net: Network, nm_host: DeviceId, channel: C) -> Self {
        ManagedNetwork {
            net,
            agents: BTreeMap::new(),
            channel,
            nm: NetworkManager::new(nm_host),
            nm_host,
            counters: ChannelCounters::default(),
            next_request: 0,
            script_results: Vec::new(),
            counter_reports: Vec::new(),
            goals: GoalStore::new(),
            stage_batch_results: BTreeMap::new(),
            commit_batch_results: BTreeMap::new(),
            batch_relays: false,
            pending_relays: BTreeMap::new(),
            pass_width: None,
            round_width: 1,
            txn_hook: None,
            recorder: Recorder::disabled(),
            codec: WireCodec::default(),
        }
    }

    /// The device hosting the NM.
    pub fn nm_host(&self) -> DeviceId {
        self.nm_host
    }

    /// Attach a flight recorder: the runtime (its message tap included),
    /// the transaction executors and the channel's own metrics all write
    /// into it from here on.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.channel.attach_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Register a management agent (a managed device).
    pub fn add_agent(&mut self, agent: ManagementAgent) {
        self.agents.insert(agent.device, agent);
    }

    /// The NM's message counters (Table VI): what the NM host sent and
    /// received since the last [`Self::reset_counters`], whatever the
    /// channel.
    pub fn nm_counters(&self) -> ChannelCounters {
        self.counters.clone()
    }

    /// Zero the NM's message counters (e.g. after discovery, before
    /// configuration, so Table VI counts only the configuration phase like
    /// the paper does).
    pub fn reset_counters(&mut self) {
        self.counters = ChannelCounters::default();
    }

    fn send(&mut self, from: DeviceId, to: DeviceId, msg: &WireMessage) {
        let payload = msg.encode();
        if wire::is_batch_txn_message(msg) {
            self.recorder.inc("txn.encode_bytes", payload.len() as u64);
        }
        self.post(from, to, category_of(msg), payload);
    }

    /// Send a `StageBatch` straight from borrowed per-goal primitive
    /// slices: the zero-copy hot path, with no owned `ScriptSegment`s.
    pub(crate) fn send_stage_batch(
        &mut self,
        to: DeviceId,
        txn: u64,
        segments: &[(u64, &[Primitive])],
    ) {
        let payload = wire::encode_stage_batch(txn, segments);
        self.recorder.inc("txn.encode_bytes", payload.len() as u64);
        self.post(self.nm_host, to, MessageCategory::Command, payload);
    }

    /// The one send door, behind [`Self::send`] and
    /// [`Self::send_stage_batch`]: tap an encoded message, count it when
    /// the NM host sends it, and hand it to the channel.
    fn post(&mut self, from: DeviceId, to: DeviceId, category: MessageCategory, payload: Vec<u8>) {
        let bytes = payload.len() as u64;
        self.recorder
            .on_message(MessageDirection::Sent, category.name(), payload.len());
        if from == self.nm_host {
            let c = &mut self.counters;
            c.sent += 1;
            c.bytes_sent += bytes;
            *c.sent_by_category.entry(category).or_default() += 1;
            *c.bytes_sent_by_category.entry(category).or_default() += bytes;
        }
        let m = MgmtMessage::new(from, to, category, payload);
        self.channel.send(&mut self.net, m);
    }

    /// The one receive door: drain what the channel holds for `at`, tap
    /// each message, and count it when `at` is the NM host.
    fn drain(&mut self, at: DeviceId) -> Vec<MgmtMessage> {
        let messages = self.channel.recv(&mut self.net, at);
        for m in &messages {
            let bytes = m.payload.len() as u64;
            self.recorder.on_message(
                MessageDirection::Received,
                m.category.name(),
                m.payload.len(),
            );
            if at == self.nm_host {
                let c = &mut self.counters;
                c.received += 1;
                c.bytes_received += bytes;
                *c.received_by_category.entry(m.category).or_default() += 1;
                *c.bytes_received_by_category.entry(m.category).or_default() += bytes;
            }
        }
        messages
    }

    /// Every managed device announces its physical connectivity to the NM.
    pub fn announce_all(&mut self) {
        let ids: Vec<DeviceId> = self.agents.keys().copied().collect();
        for id in ids {
            let neighbors = self.net.physical_neighbors(id);
            let msg = self.agents[&id].announcement(neighbors);
            self.send(id, self.nm_host, &msg);
        }
        self.run_management();
    }

    /// Send one `Script` per `(device, primitives)` pair, pump the management
    /// plane until quiescent and hand the replies that arrived to the
    /// caller.  Every script requester — `discover`, `show_actual` and
    /// `execute_path`, the paper's fire-and-forget reads and flow — goes
    /// through here, so `script_results` is empty again when the call
    /// returns.  A transaction changes a device through `StageBatch` /
    /// `CommitBatch` / `AbortBatch` only, its rollback included.
    fn run_scripts(
        &mut self,
        scripts: impl IntoIterator<Item = (DeviceId, Vec<Primitive>)>,
    ) -> Vec<(DeviceId, Vec<PrimitiveOutcome>)> {
        let mark = self.script_results.len();
        for (device, primitives) in scripts {
            self.next_request += 1;
            let msg = WireMessage::Script {
                request: self.next_request,
                primitives,
            };
            self.send(self.nm_host, device, &msg);
        }
        self.run_management();
        self.script_results.split_off(mark)
    }

    /// The NM invokes `showPotential` at every managed device and records the
    /// returned module abstractions.
    pub fn discover(&mut self) {
        let ids: Vec<DeviceId> = self.agents.keys().copied().collect();
        self.run_scripts(
            ids.into_iter()
                .map(|id| (id, vec![Primitive::ShowPotential])),
        );
    }

    /// The NM invokes `showActual` at every listed device, in one round, and
    /// returns, per device that answered, what each of its modules lists: the
    /// components the device really holds, by the names `delete` takes.  A
    /// crashed device is absent.  [`Self::audit`] compares the answers of
    /// every device with what the goals claim.
    pub fn show_actual(
        &mut self,
        devices: &[DeviceId],
    ) -> BTreeMap<DeviceId, BTreeMap<ModuleRef, ModuleActual>> {
        let scripts = devices.iter().map(|d| (*d, vec![Primitive::ShowActual]));
        self.run_scripts(scripts)
            .into_iter()
            .filter_map(|(device, results)| {
                results.into_iter().find_map(|r| match r {
                    Ok(PrimitiveResult::Actual(map)) => Some((device, map)),
                    _ => None,
                })
            })
            .collect()
    }

    /// The one telemetry pull: send every listed device one `PollCounters`
    /// over the management channel and return, per device that answered,
    /// its module snapshots and its per-flow counters for `tags`.  Crashed
    /// devices simply do not answer — their absence from the result is
    /// itself diagnostic evidence.
    pub fn poll_counters(
        &mut self,
        devices: &[DeviceId],
        tags: &[u64],
    ) -> BTreeMap<DeviceId, DeviceTelemetry> {
        let first_request = self.next_request + 1;
        for id in devices {
            self.next_request += 1;
            let msg = WireMessage::PollCounters {
                request: self.next_request,
                tags: tags.to_vec(),
            };
            self.send(self.nm_host, *id, &msg);
        }
        self.run_management();
        // Drain the report buffer: matched reports become this poll's
        // result, anything else is stale (its poller already returned, or
        // no poll asked for it) and would otherwise accumulate for the
        // lifetime of the network.  Stale ones are counted under
        // `mgmt.stale_reports`, so none is dropped unseen.
        let requests = first_request..=self.next_request;
        let mut reports = BTreeMap::new();
        let mut stale = 0;
        for (device, request, report) in self.counter_reports.drain(..) {
            if requests.contains(&request) {
                reports.insert(device, report);
            } else {
                stale += 1;
            }
        }
        if stale > 0 {
            self.recorder.inc("mgmt.stale_reports", stale);
        }
        reports
    }

    /// Execute a specific path fire-and-forget: one `Script` per device, no
    /// staging, no rollback.  Kept beside the transactional flow
    /// ([`Self::submit`] + [`Self::reconcile`]) because it *is* the paper's
    /// configuration flow — the one whose messages Table VI counts and the
    /// benchmark's correctness check replays — and it lets the experiments
    /// force the GRE, MPLS or VLAN variant regardless of the NM's
    /// preference.
    pub fn execute_path(&mut self, path: &ModulePath, goal: &ConnectivityGoal) -> ScriptSet {
        let scripts = self.nm.generate_scripts(path, goal);
        self.run_scripts(
            scripts
                .scripts
                .iter()
                .map(|ds| (ds.device, ds.primitives.clone())),
        );
        scripts
    }

    /// Deliver queued management messages until the plane is quiescent.
    /// Returns the number of messages processed.
    ///
    /// With relay batching on, a device answers the NM once per round: the
    /// module envelopes it emits while its inbox drains go up as one
    /// `RelayBatch`, sent right after that drain.  A lost or undecodable
    /// upward batch therefore loses that device's whole round of
    /// envelopes, not one of them.
    ///
    /// Each device takes its turn in id order, the NM host last when it is
    /// not itself a managed device.  While a transaction runner is on the
    /// stack at a width above 1, over a channel whose `recv` is passive
    /// ([`ManagementChannel::recv_is_passive`]), the agents of a round run
    /// side by side: every inbox is drained on the calling thread, each
    /// agent's turn runs on a worker, and the answers are posted on the
    /// calling thread.  The output is the same byte for byte: drains stay
    /// sequential; an agent answers only the NM, so no agent's turn reads
    /// what another's sent; and the answers are posted through the one
    /// send door in device order, the NM host's own turn keeping its place
    /// between them.  Every other round (discovery, reads, telemetry,
    /// `execute_path`) runs on the calling thread.
    pub fn run_management(&mut self) -> usize {
        let fan_out = self.batch_relays && self.round_width > 1 && self.channel.recv_is_passive();
        let mut total = 0;
        for _ in 0..MAX_ROUNDS {
            self.channel.run(&mut self.net);
            let progressed = if fan_out {
                self.fanned_round()
            } else {
                let mut ids: Vec<DeviceId> = self.agents.keys().copied().collect();
                if !ids.contains(&self.nm_host) {
                    ids.push(self.nm_host);
                }
                ids.into_iter().map(|id| self.turn(id)).sum()
            };
            total += progressed;
            // Flush the round's buffered relays as one message per
            // destination device (relay batching); the flush itself queues
            // messages, so the loop keeps running until both the channel and
            // the relay buffer are empty.
            let flushed = self.flush_pending_relays();
            if progressed == 0 && !flushed {
                return total;
            }
        }
        // The round budget ran out with messages still moving (modules
        // ping-ponging): give up, but never silently.
        self.recorder.inc("mgmt.round_cap_hit", 1);
        total
    }

    /// One device's turn on the calling thread: drain its inbox, route each
    /// message, and send its round's module envelopes up as one batch.
    /// Returns the number of messages drained.
    fn turn(&mut self, id: DeviceId) -> usize {
        let messages = self.drain(id);
        let drained = messages.len();
        let mut upward = Vec::new();
        for m in messages {
            self.route_message(id, m, &mut upward);
        }
        if !upward.is_empty() {
            let batch = WireMessage::RelayBatch { envelopes: upward };
            self.send(id, self.nm_host, &batch);
        }
        drained
    }

    /// One round with its agents side by side, in device order: the
    /// managed devices before the NM host, the host's own [`Self::turn`],
    /// then the devices after it.  Returns the number of messages drained.
    fn fanned_round(&mut self) -> usize {
        let host = self.nm_host;
        let ids: Vec<DeviceId> = self.agents.keys().copied().collect();
        let (before, after) = match ids.binary_search(&host) {
            Ok(at) => (&ids[..at], &ids[at + 1..]),
            Err(_) => (&ids[..], &[][..]),
        };
        self.agents_side_by_side(before) + self.turn(host) + self.agents_side_by_side(after)
    }

    /// The turns of `ids` (managed devices, none of them the NM host, in id
    /// order) with their agents on [`Self::round_width`] workers: every
    /// inbox is drained here first, in order; each worker runs whole agent
    /// turns ([`agent_turn`]) on a disjoint `&mut` agent and device; then
    /// the answers are posted here, device by device.  Returns the number
    /// of messages drained.
    fn agents_side_by_side(&mut self, ids: &[DeviceId]) -> usize {
        let inboxes: Vec<(DeviceId, Vec<MgmtMessage>)> = (ids.iter())
            .map(|&id| (id, self.drain(id)))
            .filter(|(_, messages)| !messages.is_empty())
            .collect();
        let drained = inboxes.iter().map(|(_, messages)| messages.len()).sum();
        let turns = {
            // Pair each busy inbox with its agent and device; both maps are
            // in id order.  A device the network does not have consumes
            // nothing.
            let mut agents = self.agents.iter_mut();
            let mut devices = self.net.devices_mut().peekable();
            let mut work = Vec::with_capacity(inboxes.len());
            for (id, messages) in inboxes {
                let agent = (agents.by_ref()).find_map(|(a, agent)| (*a == id).then_some(agent));
                while devices.next_if(|d| d.id < id).is_some() {}
                let device = devices.next_if(|d| d.id == id);
                if let (Some(agent), Some(device)) = (agent, device) {
                    work.push((id, agent, device, messages, Turn::default()));
                }
            }
            pool::fan_out(self.round_width, &mut work, |chunk| {
                for (_, agent, device, messages, turn) in chunk {
                    *turn = agent_turn(agent, device, std::mem::take(messages));
                }
            });
            (work.into_iter())
                .map(|(id, .., turn)| (id, turn))
                .collect::<Vec<_>>()
        };
        for (id, turn) in turns {
            if turn.dropped > 0 {
                self.recorder.inc("mgmt.decode_dropped", turn.dropped);
            }
            for (category, payload, batch) in turn.answers {
                if batch {
                    self.recorder.inc("txn.encode_bytes", payload.len() as u64);
                }
                self.post(id, self.nm_host, category, payload);
            }
        }
        drained
    }

    /// Send every buffered relay as one `RelayBatch` per destination.
    /// Returns whether anything was flushed.
    fn flush_pending_relays(&mut self) -> bool {
        if self.pending_relays.is_empty() {
            return false;
        }
        let pending = std::mem::take(&mut self.pending_relays);
        for (device, envelopes) in pending {
            self.send(self.nm_host, device, &WireMessage::RelayBatch { envelopes });
        }
        true
    }

    /// Route a received management message either to the NM (if this device
    /// hosts it and the message is NM-bound) or to the device's agent.  The
    /// agent's module envelopes are collected into `upward` while relays
    /// are batched; everything else it answers is sent at once.
    fn route_message(&mut self, at: DeviceId, msg: MgmtMessage, upward: &mut Vec<ModuleEnvelope>) {
        // A crashed device consumes nothing: whatever the channel delivered
        // is lost, exactly as with a powered-off box.
        if !self.net.device(at).map(|d| d.up).unwrap_or(false) {
            return;
        }
        // Only the NM host reads a message before its agent does; a
        // StageBatch is always agent-bound.
        let agent_bound = at != self.nm_host || wire::is_stage_batch(&msg.payload);
        if let (true, Some(agent), Ok(device)) = (
            agent_bound,
            self.agents.get_mut(&at),
            self.net.device_mut(at),
        ) {
            match agent_answers(agent, device, &msg.payload) {
                Some(outputs) => self.answer(at, outputs, upward),
                None => self.recorder.inc("mgmt.decode_dropped", 1),
            }
            return;
        }
        let Some(wire) = WireMessage::decode(&msg.payload) else {
            self.recorder.inc("mgmt.decode_dropped", 1);
            return;
        };
        // A relay batch reaching the NM host is split envelope by envelope
        // by the same rule as a lone `Module`: the NM relays what is bound
        // for other devices, and the host's own agent (when the host is
        // itself managed) gets the rest.
        let wire = match wire {
            WireMessage::RelayBatch { envelopes } if at == self.nm_host => {
                let (local, relayed): (Vec<_>, Vec<_>) =
                    envelopes.into_iter().partition(|env| env.to.device == at);
                if !relayed.is_empty() {
                    self.nm_handle(msg.from, WireMessage::RelayBatch { envelopes: relayed });
                }
                if local.is_empty() {
                    return;
                }
                WireMessage::RelayBatch { envelopes: local }
            }
            wire => wire,
        };
        let nm_bound = match &wire {
            WireMessage::Announce(_)
            | WireMessage::ScriptResult { .. }
            | WireMessage::Notify(_)
            | WireMessage::CounterReport { .. }
            | WireMessage::StageBatchResult { .. }
            | WireMessage::CommitBatchResult { .. } => true,
            WireMessage::Module(env) => env.to.device != at,
            WireMessage::Script { .. }
            | WireMessage::PollCounters { .. }
            | WireMessage::StageBatch { .. }
            | WireMessage::CommitBatch { .. }
            | WireMessage::AbortBatch { .. }
            | WireMessage::RelayBatch { .. } => false,
        };
        if nm_bound && at == self.nm_host {
            self.nm_handle(msg.from, wire);
            return;
        }
        // Agent-bound.
        let Some(agent) = self.agents.get_mut(&at) else {
            return;
        };
        let Ok(device) = self.net.device_mut(at) else {
            return;
        };
        let outputs = agent.handle(device, &wire);
        self.answer(at, outputs, upward);
    }

    /// Send an agent's answers to the NM, holding its module envelopes back
    /// in `upward` while relays are batched.
    fn answer(
        &mut self,
        at: DeviceId,
        outputs: Vec<WireMessage>,
        upward: &mut Vec<ModuleEnvelope>,
    ) {
        for out in outputs {
            match out {
                WireMessage::Module(env) if self.batch_relays => upward.push(env),
                out => self.send(at, self.nm_host, &out),
            }
        }
    }

    /// NM-side handling of NM-bound messages.
    fn nm_handle(&mut self, from: DeviceId, wire: WireMessage) {
        match wire {
            WireMessage::Announce(a) => self.nm.record_announcement(&a),
            WireMessage::ScriptResult { results, .. } => {
                for r in &results {
                    if let Ok(PrimitiveResult::Potential(mods)) = r {
                        self.nm.record_potential(from, mods.clone());
                    }
                }
                self.script_results.push((from, results));
            }
            WireMessage::Module(env) => self.relay(env),
            WireMessage::RelayBatch { envelopes } => {
                for env in envelopes {
                    self.relay(env);
                }
            }
            // A notification's content has no consumer in the NM; it is
            // counted so that none arrives silently.
            WireMessage::Notify(_) => self.recorder.inc("mgmt.notifications", 1),
            WireMessage::CounterReport {
                request,
                snapshots,
                flows,
            } => {
                let report = DeviceTelemetry {
                    snapshots,
                    flows: flows.into_iter().collect(),
                };
                self.counter_reports.push((from, request, report));
            }
            // A repeated result replaces the first, which is counted.
            WireMessage::StageBatchResult { txn, verdicts } => {
                if self
                    .stage_batch_results
                    .insert((from, txn), verdicts)
                    .is_some()
                {
                    self.recorder.inc("txn.stale_results", 1);
                }
            }
            WireMessage::CommitBatchResult { txn, segments } => {
                if self
                    .commit_batch_results
                    .insert((from, txn), segments)
                    .is_some()
                {
                    self.recorder.inc("txn.stale_results", 1);
                }
            }
            WireMessage::Script { .. }
            | WireMessage::PollCounters { .. }
            | WireMessage::StageBatch { .. }
            | WireMessage::CommitBatch { .. }
            | WireMessage::AbortBatch { .. } => {}
        }
    }

    /// Relay a module-to-module envelope to its destination device; the NM
    /// never looks inside (§II-D.1 d).  It arrives alone in a `Module` or
    /// with the rest of its sender's round in a `RelayBatch`.  With relay
    /// batching on, the envelope is buffered and flushed at the end of the
    /// management round as part of one `RelayBatch` per destination.
    fn relay(&mut self, env: ModuleEnvelope) {
        let to_device = env.to.device;
        if self.batch_relays {
            self.pending_relays.entry(to_device).or_default().push(env);
            return;
        }
        let msg = WireMessage::Module(env);
        self.send(self.nm_host, to_device, &msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::ModuleAbstraction;
    use crate::ids::{ModuleId, ModuleKind, PipeId};
    use crate::module::{ModuleCtx, ModuleReaction, ProtocolModule};
    use crate::nm::GoalId;
    use crate::primitives::{ComponentRef, PipeSpec};
    use mgmt_channel::OutOfBandChannel;
    use netsim::device::{Device, DeviceRole, PortId};
    use netsim::link::LinkProperties;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Chatty's opening message and its answer.
    const HELLO: u8 = 0;
    const ACK: u8 = 1;

    /// A module that, when a pipe with `initiate` is created, sends a Convey
    /// to its peer; the peer replies; both record completion in a flag the
    /// test holds.  This exercises the full relay round trip.  An agent
    /// finds modules by `ModuleId` alone, so a module refuses, loudly, an
    /// envelope addressed to its namesake on another device.
    struct Chatty {
        me: ModuleRef,
        negotiated: Arc<AtomicBool>,
    }

    impl Chatty {
        fn new(me: ModuleRef) -> Self {
            Chatty {
                me,
                negotiated: Arc::default(),
            }
        }
    }

    impl ProtocolModule for Chatty {
        fn reference(&self) -> ModuleRef {
            self.me
        }
        fn descriptor(&self) -> ModuleAbstraction {
            ModuleAbstraction::empty(self.me)
        }
        fn create_pipe(
            &mut self,
            _ctx: &mut ModuleCtx,
            spec: &PipeSpec,
        ) -> Result<ModuleReaction, crate::module::ModuleError> {
            // Only the upper end of the pipe negotiates, so the exchange
            // costs exactly two relayed messages.
            if spec.initiate && spec.upper == self.me {
                if let Some(peer) = spec.peer_upper.or(spec.peer_lower) {
                    return Ok(ModuleReaction::envelope(ModuleEnvelope {
                        from: self.me,
                        to: peer,
                        pipe: PipeId(0),
                        kind: EnvelopeKind::Convey,
                        body: vec![HELLO],
                    }));
                }
            }
            Ok(ModuleReaction::none())
        }
        fn handle_envelope(
            &mut self,
            _ctx: &mut ModuleCtx,
            env: &ModuleEnvelope,
        ) -> Result<ModuleReaction, crate::module::ModuleError> {
            assert_eq!(env.to, self.me, "an envelope reached the wrong device");
            self.negotiated.store(true, Ordering::Relaxed);
            if env.body == [HELLO] {
                return Ok(ModuleReaction::envelope(ModuleEnvelope {
                    from: self.me,
                    to: env.from,
                    pipe: PipeId(0),
                    kind: EnvelopeKind::Convey,
                    body: vec![ACK],
                }));
            }
            Ok(ModuleReaction::none())
        }
    }

    #[test]
    fn convey_messages_are_relayed_through_the_nm_and_counted() {
        let mut net = Network::new();
        let d1 = net.add_device(Device::new("RouterA", DeviceRole::Router, 1));
        let d2 = net.add_device(Device::new("RouterB", DeviceRole::Router, 1));
        net.connect((d1, PortId(0)), (d2, PortId(0)), LinkProperties::lan())
            .unwrap();

        let m1 = ModuleRef::new(ModuleKind::Gre, ModuleId(1), d1);
        let low1 = ModuleRef::new(ModuleKind::Eth, ModuleId(2), d1);
        let m2 = ModuleRef::new(ModuleKind::Gre, ModuleId(1), d2);
        let (c1, c2) = (Chatty::new(m1), Chatty::new(m2));
        let negotiated = [c1.negotiated.clone(), c2.negotiated.clone()];
        let mut a1 = ManagementAgent::new(d1, "RouterA");
        a1.register(Box::new(c1));
        a1.register(Box::new(Chatty::new(low1)));
        let mut a2 = ManagementAgent::new(d2, "RouterB");
        a2.register(Box::new(c2));

        let mut mn = ManagedNetwork::new(net, d1, OutOfBandChannel::new());
        mn.add_agent(a1);
        mn.add_agent(a2);
        mn.announce_all();
        assert_eq!(mn.nm.device_count(), 2);
        mn.reset_counters();

        // Send a script to d1 creating a pipe whose peer is the module on d2.
        let spec = PipeSpec {
            pipe: crate::ids::PipeId(1),
            upper: m1,
            lower: low1,
            peer_upper: Some(m2),
            peer_lower: Some(m2),
            peer_pipe: None,
            tradeoffs: vec![],
            initiate: true,
        };
        mn.next_request += 1;
        let msg = WireMessage::Script {
            request: mn.next_request,
            primitives: vec![Primitive::CreatePipe(spec)],
        };
        mn.send(mn.nm_host, d1, &msg);
        mn.run_management();

        // Both sides should have negotiated.
        assert!(negotiated.iter().all(|side| side.load(Ordering::Relaxed)));
        // NM accounting: 1 command sent + 2 relayed convey messages sent;
        // 2 convey messages received (plus the script result).
        let c = mn.nm_counters();
        assert_eq!(c.sent_by_category[&MessageCategory::Command], 1);
        assert_eq!(c.sent_by_category[&MessageCategory::ConveyMessage], 2);
        assert_eq!(c.received_by_category[&MessageCategory::ConveyMessage], 2);
    }

    /// The NM host is itself a managed device, so one batch its agent sends
    /// up mixes envelopes for its own modules with envelopes for another
    /// device.  Each goes where its own address says: a batch routed by its
    /// first envelope would hand `a`'s hello for `c` to `a`, `c`'s namesake.
    #[test]
    fn batched_relays_route_each_envelope_when_the_nm_host_is_managed() {
        use crate::nm::script::DeviceScript;
        use crate::nm::GoalId;

        let mut net = Network::new();
        let d1 = net.add_device(Device::new("RouterA", DeviceRole::Router, 1));
        let d2 = net.add_device(Device::new("RouterB", DeviceRole::Router, 1));
        let on = |id, device| ModuleRef::new(ModuleKind::Gre, ModuleId(id), device);
        let [a, b, low, c, d] = [on(1, d1), on(2, d1), on(9, d1), on(1, d2), on(2, d2)];
        let pipe = |n, upper: &ModuleRef, lower: &ModuleRef, peer: &ModuleRef| {
            Primitive::CreatePipe(PipeSpec {
                pipe: crate::ids::PipeId(n),
                upper: *upper,
                lower: *lower,
                peer_upper: Some(*peer),
                peer_lower: None,
                peer_pipe: None,
                tradeoffs: vec![],
                initiate: true,
            })
        };
        let chatty = [&a, &b, &c, &d].map(|m| Chatty::new(*m));
        let negotiated = chatty.each_ref().map(|m| m.negotiated.clone());
        let mut a1 = ManagementAgent::new(d1, "RouterA");
        let mut a2 = ManagementAgent::new(d2, "RouterB");
        a1.register(Box::new(Chatty::new(low)));
        for m in chatty {
            let agent = if m.me.device == d1 { &mut a1 } else { &mut a2 };
            agent.register(Box::new(m));
        }
        let mut mn = ManagedNetwork::new(net, d1, OutOfBandChannel::new());
        mn.add_agent(a1);
        mn.add_agent(a2);
        mn.announce_all();

        // `d2` commits first: `d` greets `b` on the NM host.  Then `d1`'s
        // one round emits `b`'s hello for `a` (its own) before `a`'s hello
        // for `c` (on `d2`).
        let scripts = ScriptSet {
            scripts: vec![
                DeviceScript {
                    device: d1,
                    primitives: vec![pipe(1, &b, &low, &a), pipe(2, &a, &low, &c)],
                },
                DeviceScript {
                    device: d2,
                    primitives: vec![pipe(3, &d, &c, &b)],
                },
            ],
        };
        let batch = mn.run_batch(&[(GoalId(1), &scripts)]);
        assert_eq!(batch.committed, [GoalId(1)], "{:?}", batch.failed);
        for (side, flag) in ["a", "b", "c", "d"].iter().zip(&negotiated) {
            assert!(flag.load(Ordering::Relaxed), "{side} never heard its peer");
        }
    }

    /// Regression: every script reply used to pile up in `script_results`
    /// for the lifetime of the network.  Each requester — discovery,
    /// `show_actual`, the in-batch rollback — now takes what arrived on its
    /// behalf, so the buffer is as long after the calls as before them.
    #[test]
    fn script_replies_do_not_outlive_the_call_that_asked_for_them() {
        use crate::nm::script::DeviceScript;
        use crate::nm::GoalId;
        use crate::primitives::FilterSpec;

        let mut net = Network::new();
        let d1 = net.add_device(Device::new("RouterA", DeviceRole::Router, 1));
        let d2 = net.add_device(Device::new("RouterB", DeviceRole::Router, 1));
        let m1 = ModuleRef::new(ModuleKind::Gre, ModuleId(1), d1);
        let m2 = ModuleRef::new(ModuleKind::Gre, ModuleId(1), d2);
        let mut a1 = ManagementAgent::new(d1, "RouterA");
        a1.register(Box::new(Chatty::new(m1)));
        let mut a2 = ManagementAgent::new(d2, "RouterB");
        a2.register(Box::new(Chatty::new(m2)));
        let mut mn = ManagedNetwork::new(net, d1, OutOfBandChannel::new());
        mn.add_agent(a1);
        mn.add_agent(a2);
        mn.announce_all();
        let before = mn.script_results.len();

        for _ in 0..3 {
            mn.discover();
        }
        assert!(
            mn.show_actual(&[d2]).contains_key(&d2),
            "the caller still gets its reply"
        );

        // `Chatty` cannot filter, so its admission refuses the filter at
        // stage and nothing of the goal reaches a device.
        let filter = Primitive::CreateFilter(FilterSpec {
            module: m1,
            from: m1,
            to: m1,
        });
        let scripts = ScriptSet {
            scripts: vec![DeviceScript {
                device: d1,
                primitives: vec![filter],
            }],
        };
        let batch = mn.run_batch(&[(GoalId(1), &scripts)]);
        let [(GoalId(1), error)] = &batch.failed[..] else {
            panic!("the stage must refuse: {batch:?}");
        };
        assert_eq!(
            error.cause,
            crate::primitives::RefusalCause::Module(crate::module::ModuleError::CannotFilter)
        );

        assert_eq!(mn.script_results.len(), before);
    }

    /// The one telemetry pull: one request per polled device, one report
    /// per live one carrying both halves of the snapshot, nothing left in
    /// the NM's inbox afterwards.
    #[test]
    fn one_poll_round_trip_returns_snapshots_and_flow_counters_of_live_devices() {
        let mut net = Network::new();
        let nm_host = net.add_device(Device::new("NM", DeviceRole::Router, 1));
        let mut mn = ManagedNetwork::new(net, nm_host, OutOfBandChannel::new());
        mn.add_agent(ManagementAgent::new(nm_host, "NM"));
        let polled: Vec<DeviceId> = ["RouterA", "RouterB", "RouterC"]
            .into_iter()
            .map(|name| {
                let d = mn.net.add_device(Device::new(name, DeviceRole::Router, 1));
                let mut agent = ManagementAgent::new(d, name);
                let me = ModuleRef::new(ModuleKind::Gre, ModuleId(1), d);
                agent.register(Box::new(Chatty::new(me)));
                mn.add_agent(agent);
                d
            })
            .collect();
        let (live, dead) = ([polled[0], polled[2]], polled[1]);
        for d in live {
            let stats = &mut mn.net.device_mut(d).unwrap().stats;
            stats.flows.entry(7).or_default().forwarded = 3;
        }
        mn.net.device_mut(dead).unwrap().up = false;

        let telemetry = |mn: &ManagedNetwork<OutOfBandChannel>| {
            let c = mn.nm_counters();
            let count = |by: &BTreeMap<MessageCategory, u64>| {
                by.get(&MessageCategory::Telemetry).copied().unwrap_or(0)
            };
            (count(&c.sent_by_category), count(&c.received_by_category))
        };
        let (sent, received) = telemetry(&mn);
        let reports = mn.poll_counters(&polled, &[7]);
        assert_eq!(telemetry(&mn), (sent + 3, received + 2));

        assert_eq!(reports.keys().copied().collect::<Vec<_>>(), live);
        for report in reports.values() {
            assert_eq!(report.snapshots.len(), 1, "one snapshot per module");
            assert_eq!(report.flows[&7].forwarded, 3);
        }
        assert!(mn.counter_reports.is_empty());
    }

    /// A `CounterReport` that answers no request of the current poll is
    /// dropped from the result and counted under `mgmt.stale_reports`.
    #[test]
    fn a_report_for_no_current_poll_is_dropped_and_counted() {
        let mut net = Network::new();
        let nm_host = net.add_device(Device::new("NM", DeviceRole::Router, 1));
        let d = net.add_device(Device::new("RouterA", DeviceRole::Router, 1));
        let mut mn = ManagedNetwork::new(net, nm_host, OutOfBandChannel::new());
        mn.add_agent(ManagementAgent::new(nm_host, "NM"));
        mn.add_agent(ManagementAgent::new(d, "RouterA"));
        let recorder = Recorder::new();
        mn.set_recorder(recorder.clone());

        let reports = mn.poll_counters(&[d], &[7]);
        assert_eq!(reports.keys().copied().collect::<Vec<_>>(), [d]);
        assert_eq!(recorder.counter("mgmt.stale_reports"), 0);

        // Request 0 is no poll's: the NM numbers its requests from 1.
        let planted = WireMessage::CounterReport {
            request: 0,
            snapshots: vec![],
            flows: vec![],
        };
        let m = MgmtMessage::new(d, nm_host, MessageCategory::Telemetry, planted.encode());
        mn.channel.send(&mut mn.net, m);
        let reports = mn.poll_counters(&[d], &[7]);
        assert_eq!(reports.keys().copied().collect::<Vec<_>>(), [d]);
        assert_eq!(recorder.counter("mgmt.stale_reports"), 1);
        assert!(mn.counter_reports.is_empty());
    }

    /// A `StageBatchResult` for a transaction no runner ran is dropped
    /// after the next stage phase's drain and counted under
    /// `txn.stale_results`; a transaction that meets none records nothing.
    #[test]
    fn a_result_for_no_running_transaction_is_dropped_and_counted() {
        let mut net = Network::new();
        let nm_host = net.add_device(Device::new("NM", DeviceRole::Router, 1));
        let d = net.add_device(Device::new("RouterA", DeviceRole::Router, 1));
        let mut mn = ManagedNetwork::new(net, nm_host, OutOfBandChannel::new());
        mn.add_agent(ManagementAgent::new(nm_host, "NM"));
        mn.add_agent(ManagementAgent::new(d, "RouterA"));
        let recorder = Recorder::new();
        mn.set_recorder(recorder.clone());
        let teardown = |goal| {
            let delete = Primitive::Delete(ComponentRef::Pipe(PipeId(1)));
            (GoalId(goal), vec![(d, vec![delete])])
        };

        mn.run_teardown_batch(&[teardown(1)], &[]);
        let counters = recorder.snapshot().metrics.counters;
        assert!(
            !counters.contains_key("txn.stale_results"),
            "no zero is recorded"
        );

        let planted = WireMessage::StageBatchResult {
            txn: 999,
            verdicts: vec![],
        };
        let m = MgmtMessage::new(d, nm_host, MessageCategory::Response, planted.encode());
        mn.channel.send(&mut mn.net, m);
        let outcome = mn.run_teardown_batch(&[teardown(2)], &[]);
        assert_eq!(outcome.per_goal[&GoalId(2)], 1, "the batch still runs");
        assert_eq!(recorder.counter("txn.stale_results"), 1);
        assert!(mn.stage_batch_results.is_empty() && mn.commit_batch_results.is_empty());
    }

    /// A module that answers every envelope with another one, so a pair of
    /// them never lets the management plane go quiet.
    struct PingPong {
        me: ModuleRef,
    }

    impl ProtocolModule for PingPong {
        fn reference(&self) -> ModuleRef {
            self.me
        }
        fn descriptor(&self) -> ModuleAbstraction {
            ModuleAbstraction::empty(self.me)
        }
        fn handle_envelope(
            &mut self,
            _ctx: &mut ModuleCtx,
            env: &ModuleEnvelope,
        ) -> Result<ModuleReaction, crate::module::ModuleError> {
            Ok(ModuleReaction::envelope(ModuleEnvelope {
                from: self.me,
                to: env.from,
                pipe: PipeId(0),
                kind: EnvelopeKind::Convey,
                body: env.body.clone(),
            }))
        }
    }

    #[test]
    fn endless_relay_ping_pong_hits_the_round_cap_and_is_counted() {
        let mut net = Network::new();
        let d1 = net.add_device(Device::new("RouterA", DeviceRole::Router, 1));
        let d2 = net.add_device(Device::new("RouterB", DeviceRole::Router, 1));
        net.connect((d1, PortId(0)), (d2, PortId(0)), LinkProperties::lan())
            .unwrap();
        let m1 = ModuleRef::new(ModuleKind::Gre, ModuleId(1), d1);
        let m2 = ModuleRef::new(ModuleKind::Gre, ModuleId(1), d2);
        let mut a1 = ManagementAgent::new(d1, "RouterA");
        a1.register(Box::new(PingPong { me: m1 }));
        let mut a2 = ManagementAgent::new(d2, "RouterB");
        a2.register(Box::new(PingPong { me: m2 }));

        let mut mn = ManagedNetwork::new(net, d1, OutOfBandChannel::new());
        mn.add_agent(a1);
        mn.add_agent(a2);
        let recorder = Recorder::new();
        mn.set_recorder(recorder.clone());

        // A quiescent call ends on its own and counts nothing.
        mn.announce_all();
        assert_eq!(recorder.counter("mgmt.round_cap_hit"), 0);

        // One envelope starts the ping-pong; the call must still return.
        mn.relay(ModuleEnvelope {
            from: m1,
            to: m2,
            pipe: PipeId(0),
            kind: EnvelopeKind::Convey,
            body: vec![0x7B, 0x00, 0xFF],
        });
        assert!(mn.run_management() >= MAX_ROUNDS);
        assert_eq!(recorder.counter("mgmt.round_cap_hit"), 1);
    }

    #[test]
    fn undecodable_payloads_are_dropped_and_counted() {
        let mut net = Network::new();
        let d1 = net.add_device(Device::new("RouterA", DeviceRole::Router, 1));
        let d2 = net.add_device(Device::new("RouterB", DeviceRole::Router, 1));
        let mut mn = ManagedNetwork::new(net, d1, OutOfBandChannel::new());
        mn.add_agent(ManagementAgent::new(d1, "RouterA"));
        mn.add_agent(ManagementAgent::new(d2, "RouterB"));
        let recorder = Recorder::new();
        mn.set_recorder(recorder.clone());

        // Well-formed traffic drops nothing.
        mn.announce_all();
        assert_eq!(recorder.counter("mgmt.decode_dropped"), 0);

        // A binary StageBatch cut short inside its segment fails the
        // agent's in-place framing check, and so does one whose segment
        // count claims four billion segments in a 14-byte frame; plain text
        // opens with no frame's tag.
        let script: [Primitive; 1] = [Primitive::ShowPotential];
        let mut truncated = wire::encode_stage_batch(7, &[(1, &script)]);
        truncated.truncate(truncated.len() - 1);
        assert!(wire::is_stage_batch(&truncated));
        // The tag and the empty device list take a byte each, a txn id of
        // 2^48 seven varint bytes and a count of 2^32 - 1 five, so the
        // frame is 14 bytes.
        let mut lying_count = wire::encode_stage_batch(1 << 48, &[]);
        assert_eq!(lying_count.pop(), Some(0), "the segment count");
        lying_count.extend([0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        assert_eq!(lying_count.len(), 14);
        for payload in [truncated, lying_count, b"not a conman message".to_vec()] {
            let m = MgmtMessage::new(d1, d2, MessageCategory::Command, payload);
            mn.channel.send(&mut mn.net, m);
        }
        assert_eq!(mn.run_management(), 3, "all were delivered to the agent");
        assert_eq!(recorder.counter("mgmt.decode_dropped"), 3);

        // Upward relay batches: one cut short inside its envelope's body, so
        // the body's length prefix claims a byte the frame does not have,
        // and one whose envelope count claims 2^32 - 1 in a 6-byte frame.
        // Each is one dropped message (the device's whole round of
        // envelopes), and the NM relays nothing.
        let envelope = ModuleEnvelope {
            from: ModuleRef::new(ModuleKind::Gre, ModuleId(1), d2),
            to: ModuleRef::new(ModuleKind::Gre, ModuleId(1), d1),
            pipe: PipeId(0),
            kind: EnvelopeKind::Convey,
            body: vec![HELLO],
        };
        let batch = WireMessage::RelayBatch {
            envelopes: vec![envelope],
        };
        let mut cut_body = batch.encode();
        cut_body.truncate(cut_body.len() - 1);
        let lying_count = vec![
            mgmt_channel::codec::TAG_RELAY_BATCH,
            0xFF,
            0xFF,
            0xFF,
            0xFF,
            0x0F,
        ];
        for payload in [cut_body, lying_count] {
            assert_eq!(payload[0], 0x86);
            let m = MgmtMessage::new(d2, d1, MessageCategory::ConveyMessage, payload);
            mn.channel.send(&mut mn.net, m);
        }
        mn.batch_relays = true;
        assert_eq!(mn.run_management(), 2, "both reached the NM");
        assert_eq!(recorder.counter("mgmt.decode_dropped"), 5);
        let sent = mn.nm_counters().sent_by_category;
        assert!(
            !sent.contains_key(&MessageCategory::ConveyMessage),
            "{sent:?}"
        );
        assert!(!sent.contains_key(&MessageCategory::FieldQuery), "{sent:?}");
    }

    /// Before the one binary codec, every message could travel as JSON and
    /// the decoder sniffed for its `{`.  Now `{` is no frame's tag: an
    /// old-style JSON `CommitBatch` reaches the agent and a JSON `Notify`
    /// the NM, and each is dropped and counted without being acted on.
    #[test]
    fn an_old_style_json_payload_is_dropped_and_counted_not_decoded() {
        let mut net = Network::new();
        let d1 = net.add_device(Device::new("RouterA", DeviceRole::Router, 1));
        let d2 = net.add_device(Device::new("RouterB", DeviceRole::Router, 1));
        let mut mn = ManagedNetwork::new(net, d1, OutOfBandChannel::new());
        mn.add_agent(ManagementAgent::new(d1, "RouterA"));
        mn.add_agent(ManagementAgent::new(d2, "RouterB"));
        let recorder = Recorder::new();
        mn.set_recorder(recorder.clone());
        mn.announce_all();
        mn.reset_counters();

        // What the JSON codec put on the channel for these two messages.
        let commit = br#"{"CommitBatch":{"goals":[1],"txn":7}}"#;
        let notify = br#"{"Notify":{"body":"Established","from":{"device":15898900202816264786,"kind":"Ip","module":1}}}"#;
        assert_eq!(d2.as_u64(), 15898900202816264786, "RouterB's id");
        let sends = [
            (d1, d2, MessageCategory::Command, &commit[..]),
            (d2, d1, MessageCategory::Notification, &notify[..]),
        ];
        for (dropped, (from, to, category, payload)) in (1..).zip(sends) {
            mn.channel.send(
                &mut mn.net,
                MgmtMessage::new(from, to, category, payload.to_vec()),
            );
            assert_eq!(mn.run_management(), 1, "delivered, and nothing answered");
            assert_eq!(recorder.counter("mgmt.decode_dropped"), dropped);
        }
        // The agent sent no commit result up; the NM heard no notification.
        let received = mn.nm_counters().received_by_category;
        assert!(
            !received.contains_key(&MessageCategory::Response),
            "{received:?}"
        );
        assert!(mn.commit_batch_results.is_empty());
        assert_eq!(recorder.counter("mgmt.notifications"), 0);
    }
}

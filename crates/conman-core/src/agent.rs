//! The per-device Management Agent (MA).
//!
//! Every CONMan device has an internal management agent that is responsible
//! for the device's participation in the management plane (§II): it answers
//! the NM's primitives by dispatching them to the right protocol modules,
//! relays module-to-module envelopes to their destination module, and
//! forwards module notifications to the NM.
//!
//! After every event the agent polls its modules until the device is
//! quiescent ([`ManagementAgent::poll_until_quiescent`]).  What that costs
//! is the modules' pending work: a round is over when no module reacted and
//! the [`Blackboard`]'s change count did not move, so neither the agent nor
//! (by the contract on [`ProtocolModule::poll`]) a module walks state that
//! the event did not touch.

use crate::abstraction::CounterSnapshot;
use crate::ids::{ModuleId, ModuleRef, PipeId};
use crate::module::{Blackboard, ModuleCtx, ModuleError, ModuleReaction, ProtocolModule};
use crate::primitives::{
    Announcement, ComponentRef, ModuleEnvelope, Notice, Notification, Primitive, PrimitiveOutcome,
    PrimitiveResult, Refusal, RefusalCause, SegmentCommit, SegmentVerdict, WireMessage,
};
use crate::wire::{MalformedSegment, SegmentView, StageBatchView};
use netsim::device::{Device, DeviceId, PortId};
use std::collections::{BTreeMap, HashMap};

/// A pipe's `(upper, lower)` modules, or `None` once it is deleted.
type Ends = Option<(ModuleId, ModuleId)>;

/// What the primitives admitted so far do to the device, over what it
/// holds: a created pipe's ends, `None` for a deleted one (only looked up,
/// never walked: a fleet's batch puts thousands of pipes in it), and the
/// `create (filter)`s, in a list: the NM generates none.
#[derive(Default)]
struct Batch {
    pipes: HashMap<PipeId, Ends>,
    filters: Vec<Primitive>,
}

/// How many times the agent re-polls its modules after an event before
/// declaring the device quiescent.  Deferred work converges in one or two
/// rounds; the bound only guards against buggy modules ping-ponging, and an
/// exit through it is reported to the NM as a `Notify`.
const MAX_POLL_ROUNDS: usize = 8;

/// The one transaction a device holds: the newest txn id it heard, the boot
/// its goals were written under, and each goal's segment.
#[derive(Default)]
struct Held {
    txn: u64,
    boot: u64,
    goals: HashMap<u64, Segment>,
}

/// One goal's segment: admitted (its primitives at their exact length, held
/// until the commit), applied (with the first refusal its primitives met,
/// the verdict a repeated commit answers), or released.
enum Segment {
    Staged(Box<[Primitive]>),
    Committed(Option<Box<Refusal>>),
    Aborted,
}

/// What a `StageBatch`, `CommitBatch` or `AbortBatch` asks of one goal.
enum Ask<'m> {
    Stage(SegmentView<'m>),
    Commit,
    Abort,
}

/// The management agent of one device.
pub struct ManagementAgent {
    /// The device this agent manages.
    pub device: DeviceId,
    /// Human-readable device name (for announcements and script rendering).
    pub device_name: String,
    modules: BTreeMap<ModuleId, Box<dyn ProtocolModule>>,
    /// Per-device blackboard shared by the modules.
    blackboard: Blackboard,
    /// The transaction the device holds (two-phase configuration).
    held: Held,
}

impl ManagementAgent {
    /// Create an agent for a device.
    pub fn new(device: DeviceId, device_name: impl Into<String>) -> Self {
        ManagementAgent {
            device,
            device_name: device_name.into(),
            modules: BTreeMap::new(),
            blackboard: Blackboard::new(),
            held: Held::default(),
        }
    }

    /// Number of goal segments `device`, as it is now, holds staged.
    pub(crate) fn staged_segment_count(&self, device: &Device) -> usize {
        let current = self.held.boot == device.boots;
        let staged = |s: &&Segment| current && matches!(s, Segment::Staged(_));
        self.held.goals.values().filter(staged).count()
    }

    /// The admission step: the one check a primitive meets before any of it
    /// runs — at stage for every primitive of a `StageBatch`, and over a
    /// whole `Script`.  The agent checks what all modules share: the named
    /// modules exist, a `create (pipe)` names a pipe id not in use, and a
    /// `create (switch)` names at least one pipe its module is an end of
    /// (one, since an ETH rule's other pipe is a physical slot no `create`
    /// makes), and no earlier primitive of the batch creates the same filter.
    /// Each named module's [`ProtocolModule::admit`] checks the rest.  A
    /// pipe's ends are what `batch` records, else what the blackboard does.
    /// An admitted primitive returns what it does to `batch`, for the caller
    /// to record.  Reads and deletes are always admitted: deleting something
    /// absent is a no-op by design (idempotent teardown).
    fn admit(
        &self,
        primitive: &Primitive,
        batch: &Batch,
    ) -> Result<Option<(PipeId, Ends)>, RefusalCause> {
        let ends = |pipe: PipeId| match batch.pipes.get(&pipe) {
            Some(ends) => *ends,
            None => self.blackboard.pipe(pipe).ends,
        };
        let named = match primitive {
            Primitive::CreatePipe(spec) => [Some(&spec.upper), Some(&spec.lower)],
            Primitive::CreateSwitch(spec) => [Some(&spec.module), None],
            Primitive::CreateFilter(spec) => [Some(&spec.module), None],
            Primitive::ShowPotential | Primitive::ShowActual | Primitive::Delete(_) => [None; 2],
        };
        let mut modules = [None, None];
        for (module, m) in modules.iter_mut().zip(named) {
            if let Some(m) = m {
                let unknown = || RefusalCause::UnknownModule(*m);
                *module = Some(self.modules.get(&m.module).ok_or_else(unknown)?);
            }
        }
        match primitive {
            Primitive::CreatePipe(spec) if ends(spec.pipe).is_some() => {
                return Err(RefusalCause::PipeInUse(spec.pipe));
            }
            Primitive::CreateSwitch(spec) => {
                let of_module = |pipe| {
                    ends(pipe).is_some_and(|(upper, lower)| {
                        spec.module.module == upper || spec.module.module == lower
                    })
                };
                if !of_module(spec.in_pipe) && !of_module(spec.out_pipe) {
                    return Err(RefusalCause::SwitchWithoutPipe);
                }
            }
            Primitive::CreateFilter(_) if batch.filters.contains(primitive) => {
                return Err(RefusalCause::Module(ModuleError::FilterInUse));
            }
            _ => {}
        }
        for module in modules.into_iter().flatten() {
            module.admit(primitive).map_err(RefusalCause::Module)?;
        }
        Ok(match primitive {
            Primitive::CreatePipe(spec) => {
                Some((spec.pipe, Some((spec.upper.module, spec.lower.module))))
            }
            Primitive::Delete(ComponentRef::Pipe(pipe)) => Some((*pipe, None)),
            _ => None,
        })
    }

    /// This device's refusal, concerning `component`.
    fn refusal(&self, component: Option<ComponentRef>, cause: RefusalCause) -> Refusal {
        Refusal {
            device: self.device,
            component,
            cause,
        }
    }

    /// Register a protocol module.
    pub fn register(&mut self, module: Box<dyn ProtocolModule>) {
        let id = module.reference().module;
        self.modules.insert(id, module);
    }

    /// References of all registered modules.
    pub fn module_refs(&self) -> Vec<ModuleRef> {
        self.modules.values().map(|m| m.reference()).collect()
    }

    /// Number of registered modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Drop what the agent holds part by part — the held transaction, the
    /// blackboard, then each module by [`ProtocolModule::drop_parts`] —
    /// calling `dropped` with each part's name just after it is freed, so a
    /// heap census can split the agent.  What is left (its name, the module
    /// map's root) is the part named `agent`.  Not for managing a device:
    /// it leaves the agent with no module.
    #[doc(hidden)]
    pub fn drop_parts(&mut self, dropped: &mut dyn FnMut(std::fmt::Arguments)) {
        drop(std::mem::take(&mut self.held));
        dropped(format_args!("held-transaction table"));
        drop(std::mem::take(&mut self.blackboard));
        dropped(format_args!("blackboard"));
        while let Some((_, module)) = self.modules.pop_first() {
            // What the pop freed of the module map counts with the agent.
            dropped(format_args!("agent"));
            module.drop_parts(dropped);
        }
    }

    /// Read-only access to the blackboard (the device audit reads it).
    pub(crate) fn blackboard(&self) -> &Blackboard {
        &self.blackboard
    }

    /// Build the physical-connectivity announcement this device sends to the
    /// NM when it boots.
    pub(crate) fn announcement(&self, neighbors: Vec<(PortId, DeviceId, PortId)>) -> WireMessage {
        WireMessage::Announce(Announcement {
            device: self.device,
            device_name: self.device_name.clone(),
            neighbors,
        })
    }

    /// Handle a wire message addressed to this device.  `device` is the
    /// simulated device whose configuration the modules manipulate.  Returns
    /// the wire messages to send back to the NM.
    pub fn handle(&mut self, device: &mut Device, msg: &WireMessage) -> Vec<WireMessage> {
        let mut out = Vec::new();
        match msg {
            WireMessage::Script {
                request,
                primitives,
            } => {
                let mut reaction = ModuleReaction::none();
                let script = primitives.iter().cloned().map(Ok);
                let results = match self.admit_segment(script, &mut Batch::default()) {
                    Ok(admitted) => self.run_primitives(device, &admitted, &mut reaction),
                    Err(refused) => refused,
                };
                reaction.extend(self.poll_until_quiescent(device));
                out.push(WireMessage::ScriptResult {
                    request: *request,
                    results,
                });
                Self::push_reaction(&mut out, reaction);
            }
            WireMessage::Module(env) => {
                self.deliver_envelopes(device, std::slice::from_ref(env), &mut out);
            }
            WireMessage::PollCounters { request, tags } => {
                let drops = &device.stats.drops;
                let snapshots = self
                    .modules
                    .values()
                    .map(|m| CounterSnapshot {
                        module: m.reference(),
                        drop_breakdown: m
                            .fault_domain()
                            .iter()
                            .filter_map(|reason| Some((*reason, *drops.get(reason)?)))
                            .collect(),
                    })
                    .collect();
                let flows = tags.iter().map(|t| (*t, device.stats.flow(*t))).collect();
                out.push(WireMessage::CounterReport {
                    request: *request,
                    snapshots,
                    flows,
                });
            }
            // An owned batch is read as the wire carries it (one reader).
            WireMessage::StageBatch { .. } => {
                out = (self.handle_stage_batch_in_place(device, &msg.encode()))
                    .expect("an encoded StageBatch parses");
            }
            WireMessage::CommitBatch { txn, goals } => {
                let asks = goals.iter().map(|g| (*g, Ask::Commit));
                let (segments, mut reaction) = self.transition(device, *txn, asks);
                // One quiescence pass for the whole device: every goal's
                // deferred work (peer exchanges) resolves in one round.
                reaction.extend(self.poll_until_quiescent(device));
                out.push(WireMessage::CommitBatchResult {
                    txn: *txn,
                    segments,
                });
                Self::push_reaction(&mut out, reaction);
            }
            WireMessage::AbortBatch { txn, goals } => {
                self.transition(device, *txn, goals.iter().map(|g| (*g, Ask::Abort)));
            }
            WireMessage::RelayBatch { envelopes } => {
                self.deliver_envelopes(device, envelopes, &mut out);
            }
            // Announcements, notifications, script results, counter reports
            // and transaction verdicts are NM-bound; an agent receiving one
            // ignores it.
            WireMessage::Announce(_)
            | WireMessage::Notify(_)
            | WireMessage::ScriptResult { .. }
            | WireMessage::CounterReport { .. }
            | WireMessage::StageBatchResult { .. }
            | WireMessage::CommitBatchResult { .. } => {}
        }
        out
    }

    /// Handle a binary-coded `StageBatch` payload *in place*: walk the
    /// length-prefixed segment slices out of the wire bytes, running the
    /// admission step on each primitive as it decodes, without
    /// materialising a [`WireMessage`] first.  The `StageBatch` arm of
    /// [`Self::handle`] encodes its message and comes here.  Returns `None`
    /// when the payload is not a parseable binary `StageBatch` frame (the
    /// caller falls back to the generic decoder, which drops it).
    pub fn handle_stage_batch_in_place(
        &mut self,
        device: &mut Device,
        payload: &[u8],
    ) -> Option<Vec<WireMessage>> {
        let view = StageBatchView::parse(payload)?;
        let txn = view.txn;
        let asks = view.segments().map(|s| (s.goal, Ask::Stage(s)));
        let verdicts = (self.transition(device, txn, asks).0.into_iter())
            .map(|SegmentCommit { goal, results }| {
                let errors = results.into_iter().filter_map(|r| r.err().map(|e| *e));
                SegmentVerdict {
                    goal,
                    errors: errors.collect(),
                }
            })
            .collect();
        Some(vec![WireMessage::StageBatchResult { txn, verdicts }])
    }

    /// The held table's one transition function: every `StageBatch`,
    /// `CommitBatch` and `AbortBatch` moves each goal it lists by one
    /// `match` on (the goal's segment, what the message asks), and answers
    /// it with a stage's refusals or a commit's results.  Its rules:
    /// 1. A newer txn id replaces the table.
    /// 2. A stale message changes nothing: a stage whose id is not newer
    ///    than the held one, a commit or abort whose id is older.  A stale
    ///    stage or commit answers each goal [`RefusalCause::StaleTxn`].
    /// 3. A device that powered on since the table was written holds no
    ///    segments; it keeps the txn id it last heard.
    /// 4. A repeated commit runs nothing and answers its recorded verdict.
    ///    An abort of anything not staged is a no-op.
    fn transition<'m>(
        &mut self,
        device: &mut Device,
        txn: u64,
        asks: impl Iterator<Item = (u64, Ask<'m>)>,
    ) -> (Vec<SegmentCommit>, ModuleReaction) {
        use Segment::{Aborted, Committed, Staged};
        let (held, boot) = (&mut self.held, device.boots);
        let newer = txn > held.txn;
        if newer || held.boot != boot {
            let goals = HashMap::with_capacity(asks.size_hint().0);
            (held.txn, held.boot, held.goals) = (txn.max(held.txn), boot, goals);
        }
        let older = txn < held.txn;
        let refused = |agent: &Self, cause| vec![Err(Box::new(agent.refusal(None, cause)))];
        let (mut batch, mut reaction) = (Batch::default(), ModuleReaction::none());
        let mut answers = Vec::with_capacity(asks.size_hint().0);
        for (goal, ask) in asks {
            let state = self.held.goals.remove(&goal);
            let (next, results) = match (state, ask) {
                (state, Ask::Stage(_)) if !newer => (state, refused(self, RefusalCause::StaleTxn)),
                (state, Ask::Commit) if older => (state, refused(self, RefusalCause::StaleTxn)),
                (state, Ask::Stage(segment)) => {
                    match self.admit_segment(segment.primitives(), &mut batch) {
                        Ok(primitives) => (Some(Staged(primitives.into_boxed_slice())), vec![]),
                        Err(errors) => (state, errors),
                    }
                }
                (Some(Staged(primitives)), Ask::Commit) => {
                    let results = self.run_primitives(device, &primitives, &mut reaction);
                    let first = results.iter().find_map(|r| r.as_ref().err()).cloned();
                    (Some(Committed(first)), results)
                }
                (Some(Committed(first)), Ask::Commit) => {
                    let results = first.iter().cloned().map(Err).collect();
                    (Some(Committed(first)), results)
                }
                (state, Ask::Commit) => (state, refused(self, RefusalCause::NeverStaged)),
                (Some(Staged(_)), Ask::Abort) if !older => (Some(Aborted), vec![]),
                (state, Ask::Abort) => (state, vec![]),
            };
            self.held.goals.extend(next.map(|next| (goal, next)));
            answers.push(SegmentCommit { goal, results });
        }
        (answers, reaction)
    }

    /// The admission step over a segment (or a whole `Script`): its
    /// primitives, or every refusal they meet (a corrupt encoding is one).
    /// `batch` keeps the changes of admitted segments only.
    fn admit_segment(
        &self,
        segment: impl Iterator<Item = Result<Primitive, MalformedSegment>>,
        batch: &mut Batch,
    ) -> Result<Vec<Primitive>, Vec<PrimitiveOutcome>> {
        let refusal = |component, cause| Err(Box::new(self.refusal(component, cause)));
        let (mut primitives, mut errors, mut undo) = (Vec::new(), Vec::new(), Vec::new());
        let filters = batch.filters.len();
        for p in segment {
            let Ok(p) = p else {
                errors.push(refusal(None, RefusalCause::MalformedSegment));
                break;
            };
            match self.admit(&p, batch) {
                Ok(pipe) => undo.extend(pipe.map(|(id, ends)| (id, batch.pipes.insert(id, ends)))),
                Err(cause) => errors.push(refusal(p.component(), cause)),
            }
            if let Primitive::CreateFilter(_) = p {
                batch.filters.push(p.clone());
            }
            primitives.push(p);
        }
        if errors.is_empty() {
            return Ok(primitives);
        }
        batch.filters.truncate(filters);
        for (id, was) in undo.into_iter().rev() {
            match was {
                Some(ends) => batch.pipes.insert(id, ends),
                None => batch.pipes.remove(&id),
            };
        }
        Err(errors)
    }

    /// Hand relayed module-to-module envelopes to their destination modules
    /// (a module's refusal goes to the NM as a `Notify` carrying
    /// [`Notice::Refused`]), then run one shared quiescence pass for the lot.
    fn deliver_envelopes(
        &mut self,
        device: &mut Device,
        envelopes: &[ModuleEnvelope],
        out: &mut Vec<WireMessage>,
    ) {
        let mut reaction = ModuleReaction::none();
        for env in envelopes {
            if let Some(module) = self.modules.get_mut(&env.to.module) {
                let mut ctx = Self::ctx(&mut self.blackboard, device);
                match module.handle_envelope(&mut ctx, env) {
                    Ok(r) => reaction.extend(r),
                    Err(e) => out.push(WireMessage::Notify(Notification {
                        from: env.to,
                        body: Notice::Refused(Box::new(
                            self.refusal(None, RefusalCause::Module(e)),
                        )),
                    })),
                }
            }
        }
        reaction.extend(self.poll_until_quiescent(device));
        Self::push_reaction(out, reaction);
    }

    fn push_reaction(out: &mut Vec<WireMessage>, reaction: ModuleReaction) {
        for env in reaction.envelopes {
            out.push(WireMessage::Module(env));
        }
        for n in reaction.notifications {
            out.push(WireMessage::Notify(n));
        }
    }

    fn ctx<'a>(blackboard: &'a mut Blackboard, device: &'a mut Device) -> ModuleCtx<'a> {
        ModuleCtx {
            config: &mut device.config,
            blackboard,
        }
    }

    /// Hand module `m` its part of an admitted primitive, collecting its
    /// reaction.
    fn dispatch(
        &mut self,
        device: &mut Device,
        m: &ModuleRef,
        reaction: &mut ModuleReaction,
        call: impl FnOnce(
            &mut dyn ProtocolModule,
            &mut ModuleCtx,
        ) -> Result<ModuleReaction, ModuleError>,
    ) -> Result<(), RefusalCause> {
        let module = (self.modules.get_mut(&m.module)).expect("admission found the module");
        let mut ctx = Self::ctx(&mut self.blackboard, device);
        reaction.extend(call(module.as_mut(), &mut ctx).map_err(RefusalCause::Module)?);
        Ok(())
    }

    /// Run admitted primitives in order — every one, even after one fails
    /// — gathering what the modules emit into `reaction`.  A `Script` and
    /// each segment of a `CommitBatch` run through here.
    fn run_primitives(
        &mut self,
        device: &mut Device,
        primitives: &[Primitive],
        reaction: &mut ModuleReaction,
    ) -> Vec<PrimitiveOutcome> {
        primitives
            .iter()
            .map(|p| self.run_primitive(device, p, reaction))
            .collect()
    }

    fn run_primitive(
        &mut self,
        device: &mut Device,
        primitive: &Primitive,
        reaction: &mut ModuleReaction,
    ) -> PrimitiveOutcome {
        let result = match primitive {
            Primitive::ShowPotential => {
                let mut abstractions = Vec::new();
                for m in self.modules.values() {
                    let mut a = m.descriptor();
                    // Patch in live physical-pipe information (link ids) the
                    // module object itself does not track.
                    for p in &mut a.physical_pipes {
                        if let Some(nic) = device.port(p.port) {
                            p.link = nic.link;
                        }
                    }
                    abstractions.push(a);
                }
                Ok(PrimitiveResult::Potential(abstractions))
            }
            Primitive::ShowActual => {
                let mut map = BTreeMap::new();
                for m in self.modules.values() {
                    let ctx = Self::ctx(&mut self.blackboard, device);
                    map.insert(m.reference(), m.actual(&ctx));
                }
                Ok(PrimitiveResult::Actual(map))
            }
            Primitive::CreatePipe(spec) => {
                let ends = (spec.upper.module, spec.lower.module);
                self.blackboard
                    .publish(spec.pipe, |facts| facts.ends = Some(ends));
                // Both endpoints of the pipe live on this device; dispatch to
                // the lower module first (it typically publishes values —
                // e.g. the underlying port — that the upper module reads).
                let mut result = Ok(PrimitiveResult::PipeCreated(spec.pipe));
                for m in [&spec.lower, &spec.upper] {
                    let create = |module: &mut dyn ProtocolModule, ctx: &mut ModuleCtx| {
                        module.create_pipe(ctx, spec)
                    };
                    if let Err(e) = self.dispatch(device, m, reaction, create) {
                        result = Err(e);
                    }
                }
                result
            }
            Primitive::CreateSwitch(spec) => self
                .dispatch(device, &spec.module, reaction, |module, ctx| {
                    module.create_switch(ctx, spec)
                })
                .map(|()| PrimitiveResult::Done),
            Primitive::CreateFilter(spec) => self
                .dispatch(device, &spec.module, reaction, |module, ctx| {
                    module.create_filter(ctx, spec)
                })
                .map(|()| PrimitiveResult::Done),
            Primitive::Delete(component) => {
                let mut last_err = None;
                for module in self.modules.values_mut() {
                    let mut ctx = Self::ctx(&mut self.blackboard, device);
                    if let Err(e) = module.delete(&mut ctx, component) {
                        last_err = Some(RefusalCause::Module(e));
                    }
                }
                // A deleted pipe's facts must not leak into a later path that
                // happens to reuse the same pipe identifier.
                if let ComponentRef::Pipe(pipe) = component {
                    self.blackboard.remove_pipe(*pipe);
                }
                match last_err {
                    Some(e) => Err(e),
                    None => Ok(PrimitiveResult::Done),
                }
            }
        };
        result.map_err(|cause| Box::new(self.refusal(primitive.component(), cause)))
    }

    /// Poll every module until a round neither reacts nor changes the
    /// blackboard.  Giving up after `MAX_POLL_ROUNDS` (8) rounds with the
    /// device still busy is reported to the NM: one `Notify` from the
    /// device's first module.
    pub fn poll_until_quiescent(&mut self, device: &mut Device) -> ModuleReaction {
        let mut total = ModuleReaction::none();
        let mut seen = self.blackboard.changes();
        for _ in 0..MAX_POLL_ROUNDS {
            let mut round = ModuleReaction::none();
            for module in self.modules.values_mut() {
                let mut ctx = Self::ctx(&mut self.blackboard, device);
                round.extend(module.poll(&mut ctx));
            }
            let now = self.blackboard.changes();
            if round.is_empty() && now == seen {
                return total;
            }
            seen = now;
            total.extend(round);
        }
        if let Some(first) = self.modules.values().next() {
            total.notifications.push(Notification {
                from: first.reference(),
                body: Notice::PollRoundCap,
            });
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::ModuleAbstraction;
    use crate::ids::{ModuleKind, PipeId};
    use crate::primitives::{ModuleActual, PipeSpec};
    use netsim::device::DeviceRole;

    /// A module that records pipe creations and publishes a fact the test
    /// can observe.
    struct Recorder {
        me: ModuleRef,
        pipes: Vec<PipeId>,
    }

    impl ProtocolModule for Recorder {
        fn reference(&self) -> ModuleRef {
            self.me
        }
        fn descriptor(&self) -> ModuleAbstraction {
            ModuleAbstraction::empty(self.me)
        }
        fn create_pipe(
            &mut self,
            ctx: &mut ModuleCtx,
            spec: &PipeSpec,
        ) -> Result<ModuleReaction, ModuleError> {
            self.pipes.push(spec.pipe);
            ctx.blackboard
                .publish(spec.pipe, |facts| facts.port = Some(0));
            Ok(ModuleReaction::none())
        }
        fn actual(&self, _ctx: &ModuleCtx) -> ModuleActual {
            ModuleActual {
                pipes: self.pipes.clone(),
                ..Default::default()
            }
        }
    }

    fn setup() -> (Device, ManagementAgent, ModuleRef, ModuleRef) {
        let device = Device::new("R", DeviceRole::Router, 2);
        let mut agent = ManagementAgent::new(device.id, "R");
        let upper = ModuleRef::new(ModuleKind::Ip, ModuleId(1), device.id);
        let lower = ModuleRef::new(ModuleKind::Eth, ModuleId(2), device.id);
        agent.register(Box::new(Recorder {
            me: upper,
            pipes: vec![],
        }));
        agent.register(Box::new(Recorder {
            me: lower,
            pipes: vec![],
        }));
        (device, agent, upper, lower)
    }

    #[test]
    fn script_executes_primitives_and_reports_results() {
        let (mut device, mut agent, upper, lower) = setup();
        let script = WireMessage::Script {
            request: 1,
            primitives: vec![
                Primitive::ShowPotential,
                Primitive::CreatePipe(PipeSpec {
                    pipe: PipeId(1),
                    upper,
                    lower,
                    peer_upper: None,
                    peer_lower: None,
                    peer_pipe: None,
                    tradeoffs: vec![],
                    initiate: false,
                }),
                Primitive::ShowActual,
            ],
        };
        let out = agent.handle(&mut device, &script);
        assert_eq!(out.len(), 1);
        match &out[0] {
            WireMessage::ScriptResult { request, results } => {
                assert_eq!(*request, 1);
                assert_eq!(results.len(), 3);
                assert!(
                    matches!(results[0], Ok(PrimitiveResult::Potential(ref v)) if v.len() == 2)
                );
                assert!(matches!(
                    results[1],
                    Ok(PrimitiveResult::PipeCreated(PipeId(1)))
                ));
                match &results[2] {
                    Ok(PrimitiveResult::Actual(map)) => {
                        assert!(map.values().any(|a| a.pipes.contains(&PipeId(1))));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        // The modules saw the pipe; the blackboard has the fact.
        assert!(agent.blackboard().pipe(PipeId(1)).port.is_some());
    }

    #[test]
    fn unknown_module_is_an_error_not_a_panic() {
        let (mut device, mut agent, upper, _) = setup();
        let bogus = ModuleRef::new(ModuleKind::Gre, ModuleId(99), device.id);
        let script = WireMessage::Script {
            request: 2,
            primitives: vec![Primitive::CreatePipe(PipeSpec {
                pipe: PipeId(1),
                upper,
                lower: bogus,
                peer_upper: None,
                peer_lower: None,
                peer_pipe: None,
                tradeoffs: vec![],
                initiate: false,
            })],
        };
        let out = agent.handle(&mut device, &script);
        match &out[0] {
            WireMessage::ScriptResult { results, .. } => assert_eq!(
                results[0],
                Err(Box::new(Refusal {
                    device: device.id,
                    component: Some(ComponentRef::Pipe(PipeId(1))),
                    cause: RefusalCause::UnknownModule(bogus),
                }))
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A transaction for one goal: a `StageBatch` carrying one segment.
    fn stage_one(txn: u64, goal: u64, primitives: Vec<Primitive>) -> WireMessage {
        WireMessage::StageBatch {
            txn,
            segments: vec![crate::primitives::ScriptSegment { goal, primitives }],
        }
    }

    #[test]
    fn stage_batch_validates_per_segment_and_commit_batch_applies_per_goal() {
        use crate::primitives::ScriptSegment;
        let (mut device, mut agent, upper, lower) = setup();
        let pipe_spec = |pipe: u32, lower: ModuleRef| PipeSpec {
            pipe: PipeId(pipe),
            upper,
            lower,
            peer_upper: None,
            peer_lower: None,
            peer_pipe: None,
            tradeoffs: vec![],
            initiate: false,
        };
        let bogus = ModuleRef::new(ModuleKind::Gre, ModuleId(99), device.id);
        let stage = WireMessage::StageBatch {
            txn: 11,
            segments: vec![
                ScriptSegment {
                    goal: 1,
                    primitives: vec![Primitive::CreatePipe(pipe_spec(10, lower))],
                },
                ScriptSegment {
                    goal: 2,
                    primitives: vec![Primitive::CreatePipe(pipe_spec(20, bogus))],
                },
                ScriptSegment {
                    goal: 3,
                    primitives: vec![Primitive::CreatePipe(pipe_spec(30, lower))],
                },
            ],
        };
        let out = agent.handle(&mut device, &stage);
        match &out[0] {
            WireMessage::StageBatchResult { txn: 11, verdicts } => {
                assert_eq!(verdicts.len(), 3);
                assert!(verdicts[0].errors.is_empty());
                assert_eq!(
                    verdicts[1].errors.len(),
                    1,
                    "goal 2 references a bogus module"
                );
                assert!(verdicts[2].errors.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Only the valid segments are held; nothing touched the data plane.
        assert_eq!(agent.staged_segment_count(&device), 2);
        assert!(agent.blackboard().pipe(PipeId(10)).port.is_none());

        // Abort goal 3 (it failed staging elsewhere), commit the rest.
        agent.handle(
            &mut device,
            &WireMessage::AbortBatch {
                txn: 11,
                goals: vec![3],
            },
        );
        assert_eq!(agent.staged_segment_count(&device), 1);
        let out = agent.handle(
            &mut device,
            &WireMessage::CommitBatch {
                txn: 11,
                goals: vec![1, 3],
            },
        );
        match &out[0] {
            WireMessage::CommitBatchResult { txn: 11, segments } => {
                assert_eq!(segments.len(), 2);
                assert_eq!(segments[0].goal, 1);
                assert!(matches!(
                    segments[0].results[0],
                    Ok(PrimitiveResult::PipeCreated(PipeId(10)))
                ));
                // Goal 3's segment was aborted: its commit reports an error
                // instead of silently succeeding.
                assert_eq!(segments[1].goal, 3);
                assert!(segments[1].results[0].is_err());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(agent.blackboard().pipe(PipeId(10)).port.is_some());
        assert!(agent.blackboard().pipe(PipeId(30)).port.is_none());
        assert_eq!(agent.staged_segment_count(&device), 0);
    }

    /// A message to the held table in the transition test below.  Stage
    /// `t` stages goal `t` (a create of pipe `t`) under txn `t`; commit
    /// and abort `t` name goal `t` under txn `t`.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Stage(u64),
        Commit(u64),
        Abort(u64),
        Reboot,
    }

    /// What the agent answered a [`Step`].
    #[derive(Debug, PartialEq)]
    enum Answer {
        /// Nothing (an abort, a reboot).
        Silent,
        /// A clean stage verdict.
        Staged,
        /// The commit ran: a created pipe.
        Applied,
        /// A commit answered with a recorded clean verdict: no results.
        Recorded,
        /// The goal's first refusal.
        Refused(RefusalCause),
    }

    /// A row of the transition test: the case, the steps that set the state
    /// up, the message, its answer, what the device holds staged after it,
    /// and whether it changed the device's configuration, blackboard or
    /// `showActual` answer.
    type Row = (&'static str, &'static [Step], Step, Answer, usize, bool);

    /// Every (segment state, message) pair of the held table, one row each.
    #[test]
    fn every_transition_of_the_held_table() {
        use Answer::*;
        use RefusalCause::{NeverStaged, StaleTxn};
        use Step::*;
        #[rustfmt::skip]
        let rows: [Row; 16] = [
            ("a fresh stage", &[], Stage(5), Staged, 1, false),
            ("a newer stage", &[Stage(5)], Stage(6), Staged, 1, false),
            ("commit of a staged goal", &[Stage(5)], Commit(5), Applied, 0, true),
            ("a duplicate commit", &[Stage(5), Commit(5)], Commit(5), Recorded, 0, false),
            ("an abort of a staged goal", &[Stage(5)], Abort(5), Silent, 0, false),
            ("commit after an abort", &[Stage(5), Abort(5)], Commit(5), Refused(NeverStaged), 0, false),
            ("commit of nothing staged", &[], Commit(5), Refused(NeverStaged), 0, false),
            ("a restage of the held txn", &[Stage(5)], Stage(5), Refused(StaleTxn), 1, false),
            ("a late older stage", &[Stage(5)], Stage(4), Refused(StaleTxn), 1, false),
            ("an older commit", &[Stage(5)], Commit(4), Refused(StaleTxn), 1, false),
            ("an abort for an older txn", &[Stage(5)], Abort(4), Silent, 1, false),
            ("an abort for an unknown txn", &[], Abort(3), Silent, 0, false),
            ("an abort of a committed goal", &[Stage(5), Commit(5)], Abort(5), Silent, 0, false),
            ("a newer commit", &[Stage(5)], Commit(6), Refused(NeverStaged), 0, false),
            ("a newer abort", &[Stage(5)], Abort(6), Silent, 0, false),
            ("a stage, then a reboot", &[Stage(5)], Reboot, Silent, 0, false),
        ];
        let (_, _, upper, lower) = setup();
        let create = |t: u64| {
            Primitive::CreatePipe(PipeSpec {
                pipe: PipeId(t as u32),
                upper,
                lower,
                peer_upper: None,
                peer_lower: None,
                peer_pipe: None,
                tradeoffs: vec![],
                initiate: false,
            })
        };
        let send = |agent: &mut ManagementAgent, device: &mut Device, step| {
            let msg = match step {
                Stage(t) => stage_one(t, t, vec![create(t)]),
                Commit(txn) => WireMessage::CommitBatch {
                    txn,
                    goals: vec![txn],
                },
                Abort(txn) => WireMessage::AbortBatch {
                    txn,
                    goals: vec![txn],
                },
                Reboot => {
                    device.boots += 1;
                    return vec![];
                }
            };
            agent.handle(device, &msg)
        };
        let answer = |out: Vec<WireMessage>| match &out[..] {
            [] => Silent,
            [WireMessage::StageBatchResult { verdicts, .. }] => match &verdicts[0].errors[..] {
                [] => Staged,
                errors => Refused(errors[0].cause.clone()),
            },
            [WireMessage::CommitBatchResult { segments, .. }] => match &segments[0].results[..] {
                [] => Recorded,
                [Ok(PrimitiveResult::PipeCreated(_))] => Applied,
                [Err(refusal), ..] => Refused(refusal.cause.clone()),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        };
        let snapshot = |agent: &mut ManagementAgent, device: &mut Device| {
            let config = device.config.clone();
            let board = agent.blackboard();
            let facts: Vec<_> = board.pipes().map(|id| (id, board.pipe(id))).collect();
            let show = WireMessage::Script {
                request: 0,
                primitives: vec![Primitive::ShowActual],
            };
            (config, facts, agent.handle(device, &show))
        };
        for (case, before, step, expected, staged, changes) in rows {
            let (mut device, mut agent, _, _) = setup();
            for &s in before {
                send(&mut agent, &mut device, s);
            }
            let was = snapshot(&mut agent, &mut device);
            assert_eq!(
                answer(send(&mut agent, &mut device, step)),
                expected,
                "{case}"
            );
            assert_eq!(agent.staged_segment_count(&device), staged, "{case}");
            assert_eq!(snapshot(&mut agent, &mut device) != was, changes, "{case}");
        }
    }

    /// A segment is admitted against the pipes the batch's earlier admitted
    /// segments create or delete, and a refused segment's creates do not
    /// count.
    #[test]
    fn a_batch_admits_against_what_its_earlier_admitted_segments_do() {
        use crate::primitives::{ScriptSegment, SwitchSpec};
        let (mut device, mut agent, upper, lower) = setup();
        let pipe = |id| {
            Primitive::CreatePipe(PipeSpec {
                pipe: PipeId(id),
                upper,
                lower,
                peer_upper: None,
                peer_lower: None,
                peer_pipe: None,
                tradeoffs: vec![],
                initiate: false,
            })
        };
        let switch = |module: &ModuleRef, in_pipe| {
            Primitive::CreateSwitch(SwitchSpec {
                module: *module,
                in_pipe: PipeId(in_pipe),
                out_pipe: PipeId(9),
                dst_class: None,
                gateway: None,
                local_prefix: None,
            })
        };
        let bogus = ModuleRef::new(ModuleKind::Gre, ModuleId(99), device.id);
        let delete = Primitive::Delete(ComponentRef::Pipe(PipeId(1)));
        let segments = [
            vec![pipe(1)],
            vec![pipe(1)],
            vec![switch(&upper, 1)],
            vec![pipe(2), switch(&bogus, 2)],
            vec![switch(&upper, 2)],
            vec![delete, pipe(1)],
        ];
        let stage = WireMessage::StageBatch {
            txn: 3,
            segments: (segments.into_iter().zip(1..))
                .map(|(primitives, goal)| ScriptSegment { goal, primitives })
                .collect(),
        };
        let out = agent.handle(&mut device, &stage);
        let WireMessage::StageBatchResult { verdicts, .. } = &out[0] else {
            panic!("unexpected {out:?}");
        };
        let causes: Vec<Vec<RefusalCause>> = (verdicts.iter())
            .map(|v| v.errors.iter().map(|e| e.cause.clone()).collect())
            .collect();
        assert_eq!(
            causes,
            [
                vec![],
                vec![RefusalCause::PipeInUse(PipeId(1))],
                vec![],
                vec![RefusalCause::UnknownModule(bogus)],
                vec![RefusalCause::SwitchWithoutPipe],
                vec![],
            ]
        );
    }

    /// A script the admission step refuses runs none of its primitives,
    /// not even those admitted before the refused one.
    #[test]
    fn a_refused_script_runs_nothing() {
        let (mut device, mut agent, upper, lower) = setup();
        let create = Primitive::CreatePipe(PipeSpec {
            pipe: PipeId(1),
            upper,
            lower,
            peer_upper: None,
            peer_lower: None,
            peer_pipe: None,
            tradeoffs: vec![],
            initiate: false,
        });
        let script = WireMessage::Script {
            request: 3,
            primitives: vec![create.clone(), create],
        };
        let out = agent.handle(&mut device, &script);
        let refusal = Refusal {
            device: device.id,
            component: Some(ComponentRef::Pipe(PipeId(1))),
            cause: RefusalCause::PipeInUse(PipeId(1)),
        };
        assert_eq!(
            out,
            [WireMessage::ScriptResult {
                request: 3,
                results: vec![Err(Box::new(refusal))],
            }]
        );
        assert_eq!(agent.blackboard().pipe(PipeId(1)), Default::default());
    }

    #[test]
    fn flow_polls_answer_with_the_tags_counters() {
        let (mut device, mut agent, _, _) = setup();
        device.stats.flows.entry(7).or_default().forwarded = 2;

        let out = agent.handle(
            &mut device,
            &WireMessage::PollCounters {
                request: 9,
                tags: vec![7, 8],
            },
        );
        match &out[0] {
            WireMessage::CounterReport {
                request: 9,
                snapshots,
                flows,
            } => {
                assert_eq!(snapshots.len(), 2, "one snapshot per module");
                assert_eq!(flows.len(), 2);
                assert_eq!(flows[0].0, 7);
                assert_eq!(flows[0].1.forwarded, 2);
                assert!(flows[1].1.is_empty(), "unseen tag reports zeroes");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A module that never settles: every `poll` relays a message to itself,
    /// a body no module could decode.
    struct Restless(ModuleRef);

    impl ProtocolModule for Restless {
        fn reference(&self) -> ModuleRef {
            self.0
        }
        fn descriptor(&self) -> ModuleAbstraction {
            ModuleAbstraction::empty(self.0)
        }
        fn poll(&mut self, _ctx: &mut ModuleCtx) -> ModuleReaction {
            ModuleReaction::envelope(ModuleEnvelope {
                from: self.0,
                to: self.0,
                pipe: PipeId(0),
                kind: crate::primitives::EnvelopeKind::Convey,
                body: vec![0xFF],
            })
        }
    }

    #[test]
    fn hitting_the_poll_round_cap_is_notified_and_quiescing_is_not() {
        let (mut device, mut agent, first, _) = setup();
        let settled = agent.poll_until_quiescent(&mut device);
        assert!(settled.is_empty(), "a quiescent device reports nothing");

        let restless = ModuleRef::new(ModuleKind::Gre, ModuleId(9), device.id);
        agent.register(Box::new(Restless(restless)));
        let capped = agent.poll_until_quiescent(&mut device);
        assert_eq!(capped.envelopes.len(), MAX_POLL_ROUNDS);
        assert_eq!(capped.notifications.len(), 1);
        assert_eq!(capped.notifications[0].from, first);
        assert_eq!(capped.notifications[0].body, Notice::PollRoundCap);
    }

    /// A module that refuses every envelope, as a module refuses a body it
    /// cannot decode.
    struct Refuser(ModuleRef);

    impl ProtocolModule for Refuser {
        fn reference(&self) -> ModuleRef {
            self.0
        }
        fn descriptor(&self) -> ModuleAbstraction {
            ModuleAbstraction::empty(self.0)
        }
        fn handle_envelope(
            &mut self,
            _ctx: &mut ModuleCtx,
            env: &ModuleEnvelope,
        ) -> Result<ModuleReaction, ModuleError> {
            Err(ModuleError::UndecodableBody {
                from: env.from,
                len: env.body.len(),
            })
        }
    }

    #[test]
    fn a_refused_envelope_reaches_the_nm_as_a_typed_error_notice() {
        let (mut device, mut agent, _, _) = setup();
        let refuser = ModuleRef::new(ModuleKind::Gre, ModuleId(9), device.id);
        agent.register(Box::new(Refuser(refuser)));
        let sender = ModuleRef::new(ModuleKind::Gre, ModuleId(9), DeviceId::from_raw(77));
        let env = ModuleEnvelope {
            from: sender,
            to: refuser,
            pipe: PipeId(0),
            kind: crate::primitives::EnvelopeKind::Convey,
            body: vec![0x7B, 0x00],
        };
        let out = agent.handle(&mut device, &WireMessage::Module(env));
        assert_eq!(
            out,
            [WireMessage::Notify(Notification {
                from: refuser,
                body: Notice::Refused(Box::new(Refusal {
                    device: device.id,
                    component: None,
                    cause: RefusalCause::Module(ModuleError::UndecodableBody {
                        from: sender,
                        len: 2
                    }),
                })),
            })]
        );
    }

    #[test]
    fn announcement_carries_name_and_neighbors() {
        let (_, agent, _, _) = setup();
        let msg = agent.announcement(vec![(PortId(0), DeviceId::from_raw(9), PortId(1))]);
        match msg {
            WireMessage::Announce(a) => {
                assert_eq!(a.device_name, "R");
                assert_eq!(a.neighbors.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

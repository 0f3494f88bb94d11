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

use crate::ids::{ModuleId, ModuleRef};
use crate::module::{Blackboard, ModuleCtx, ModuleError, ModuleReaction, ProtocolModule};
use crate::primitives::{
    Announcement, ComponentRef, ModuleEnvelope, Notice, Notification, Primitive, PrimitiveOutcome,
    PrimitiveResult, Refusal, RefusalCause, SegmentCommit, SegmentVerdict, WireMessage,
};
use crate::wire::MalformedSegment;
use netsim::device::{Device, DeviceId, PortId};
use std::collections::BTreeMap;

/// How many times the agent re-polls its modules after an event before
/// declaring the device quiescent.  Deferred work converges in one or two
/// rounds; the bound only guards against buggy modules ping-ponging, and an
/// exit through it is reported to the NM as a `Notify`.
const MAX_POLL_ROUNDS: usize = 8;

/// The management agent of one device.
pub struct ManagementAgent {
    /// The device this agent manages.
    pub device: DeviceId,
    /// Human-readable device name (for announcements and script rendering).
    pub device_name: String,
    modules: BTreeMap<ModuleId, Box<dyn ProtocolModule>>,
    /// Per-device blackboard shared by the modules.
    blackboard: Blackboard,
    /// Per-goal segments staged under a transaction id — validated but not
    /// yet applied to the data plane (two-phase configuration) — keyed by
    /// (txn, goal) so each goal can be committed or aborted independently.
    staged_batches: BTreeMap<u64, BTreeMap<u64, Vec<Primitive>>>,
}

impl ManagementAgent {
    /// Create an agent for a device.
    pub fn new(device: DeviceId, device_name: impl Into<String>) -> Self {
        ManagementAgent {
            device,
            device_name: device_name.into(),
            modules: BTreeMap::new(),
            blackboard: Blackboard::new(),
            staged_batches: BTreeMap::new(),
        }
    }

    /// Number of goal segments staged and awaiting commit/abort.
    pub fn staged_segment_count(&self) -> usize {
        self.staged_batches.values().map(|g| g.len()).sum()
    }

    /// Validate one primitive against this device's module set without
    /// touching the data plane — the staging check of the two-phase
    /// protocol.  Returns the refusal of a primitive that cannot execute.
    fn validate_primitive(&self, primitive: &Primitive) -> Option<Refusal> {
        let missing = |m: &ModuleRef| (!self.modules.contains_key(&m.module)).then(|| m.clone());
        let unknown = match primitive {
            Primitive::CreatePipe(spec) => missing(&spec.upper).or_else(|| missing(&spec.lower)),
            Primitive::CreateSwitch(spec) => missing(&spec.module),
            Primitive::CreateFilter(spec) => missing(&spec.module),
            // Reads and deletes are always admissible: a delete of something
            // absent is a no-op by design (idempotent teardown).
            Primitive::ShowPotential | Primitive::ShowActual | Primitive::Delete(_) => None,
        }?;
        Some(self.refusal(primitive.component(), RefusalCause::UnknownModule(unknown)))
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

    /// Read-only access to the blackboard (used by tests and debugging).
    pub fn blackboard(&self) -> &Blackboard {
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
                let mut results = Vec::with_capacity(primitives.len());
                let mut reaction = ModuleReaction::none();
                for p in primitives {
                    let (res, r) = self.run_primitive(device, p);
                    results.push(res);
                    reaction.extend(r);
                }
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
                let mut snapshots = Vec::with_capacity(self.modules.len());
                for m in self.modules.values() {
                    let ctx = Self::ctx(&mut self.blackboard, device);
                    snapshots.push(m.counters(&ctx));
                }
                let flows = tags.iter().map(|t| (*t, device.stats.flow(*t))).collect();
                out.push(WireMessage::CounterReport {
                    request: *request,
                    snapshots,
                    flows,
                });
            }
            WireMessage::StageBatch { txn, segments } => {
                let segments = segments
                    .iter()
                    .map(|seg| (seg.goal, seg.primitives.iter().cloned().map(Ok)));
                out.push(self.stage_segments(*txn, segments));
            }
            WireMessage::CommitBatch { txn, goals } => {
                // Execute the listed segments in order, then run one shared
                // quiescence pass for the whole device — this is where the
                // batching win comes from: every goal's deferred work (peer
                // exchanges, pending switch rules) resolves in one round.
                let mut held = self.staged_batches.remove(txn).unwrap_or_default();
                let mut segments = Vec::with_capacity(goals.len());
                let mut reaction = ModuleReaction::none();
                for goal in goals {
                    match held.remove(goal) {
                        Some(primitives) => {
                            let mut results = Vec::with_capacity(primitives.len());
                            for p in &primitives {
                                let (res, r) = self.run_primitive(device, p);
                                results.push(res);
                                reaction.extend(r);
                            }
                            segments.push(SegmentCommit {
                                goal: *goal,
                                results,
                            });
                        }
                        None => segments.push(SegmentCommit {
                            goal: *goal,
                            results: vec![Err(Box::new(
                                self.refusal(None, RefusalCause::NeverStaged),
                            ))],
                        }),
                    }
                }
                reaction.extend(self.poll_until_quiescent(device));
                out.push(WireMessage::CommitBatchResult {
                    txn: *txn,
                    segments,
                });
                Self::push_reaction(&mut out, reaction);
            }
            WireMessage::AbortBatch { txn, goals } => {
                if let Some(held) = self.staged_batches.get_mut(txn) {
                    for goal in goals {
                        held.remove(goal);
                    }
                    if held.is_empty() {
                        self.staged_batches.remove(txn);
                    }
                }
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
    /// length-prefixed segment slices out of the wire bytes, validating each
    /// primitive as it decodes, without materialising a [`WireMessage`]
    /// first.  Behaviourally identical to the `StageBatch` arm of
    /// [`Self::handle`] — both feed the one staging routine.  Returns
    /// `None` when the payload is not a parseable binary `StageBatch`
    /// frame (the caller falls back to the generic decoder, which drops
    /// it).  Staging never touches the data plane, so `_device` is unused;
    /// the parameter stays because `benchmark/` calls this signature.
    pub fn handle_stage_batch_in_place(
        &mut self,
        _device: &mut Device,
        payload: &[u8],
    ) -> Option<Vec<WireMessage>> {
        let view = crate::wire::StageBatchView::parse(payload)?;
        let segments = view.segments().map(|seg| (seg.goal, seg.primitives()));
        Some(vec![self.stage_segments(view.txn, segments)])
    }

    /// Phase one of the two-phase protocol, the only place segments are
    /// validated: check each goal's segment independently against this
    /// device's module set and hold the valid ones under `txn`.  Nothing
    /// touches the data plane until the commit arrives.  A segment whose
    /// encoding is corrupt fails its own verdict instead of sinking the
    /// whole batch.
    fn stage_segments<P>(
        &mut self,
        txn: u64,
        segments: impl Iterator<Item = (u64, P)>,
    ) -> WireMessage
    where
        P: Iterator<Item = Result<Primitive, MalformedSegment>>,
    {
        // Transactions are serial per NM and txn ids monotonic, so a newer
        // stage means any older held entry is dead — its abort may have
        // been lost while this device was down.
        self.staged_batches.retain(|held, _| *held >= txn);
        let mut verdicts = Vec::with_capacity(segments.size_hint().0);
        let mut held = BTreeMap::new();
        for (goal, stream) in segments {
            let mut errors = Vec::new();
            let mut primitives = Vec::with_capacity(stream.size_hint().0);
            for p in stream {
                match p {
                    Ok(p) => {
                        if let Some(e) = self.validate_primitive(&p) {
                            errors.push(e);
                        }
                        primitives.push(p);
                    }
                    Err(MalformedSegment) => {
                        errors.push(self.refusal(None, RefusalCause::MalformedSegment));
                        break;
                    }
                }
            }
            if errors.is_empty() {
                held.insert(goal, primitives);
            }
            verdicts.push(SegmentVerdict { goal, errors });
        }
        self.staged_batches.insert(txn, held);
        WireMessage::StageBatchResult { txn, verdicts }
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
                        from: env.to.clone(),
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
            stats: &device.stats,
            blackboard,
        }
    }

    /// Hand module `m` its part of a primitive, collecting its reaction.
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
        let unknown = || RefusalCause::UnknownModule(m.clone());
        let module = self.modules.get_mut(&m.module).ok_or_else(unknown)?;
        let mut ctx = Self::ctx(&mut self.blackboard, device);
        reaction.extend(call(module.as_mut(), &mut ctx).map_err(RefusalCause::Module)?);
        Ok(())
    }

    fn run_primitive(
        &mut self,
        device: &mut Device,
        primitive: &Primitive,
    ) -> (PrimitiveOutcome, ModuleReaction) {
        let mut reaction = ModuleReaction::none();
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
                // Both endpoints of the pipe live on this device; dispatch to
                // the lower module first (it typically publishes values —
                // e.g. the underlying port — that the upper module reads).
                let mut result = Ok(PrimitiveResult::PipeCreated(spec.pipe));
                for m in [&spec.lower, &spec.upper] {
                    let create = |module: &mut dyn ProtocolModule, ctx: &mut ModuleCtx| {
                        module.create_pipe(ctx, spec)
                    };
                    if let Err(e) = self.dispatch(device, m, &mut reaction, create) {
                        result = Err(e);
                    }
                }
                result
            }
            Primitive::CreateSwitch(spec) => self
                .dispatch(device, &spec.module, &mut reaction, |module, ctx| {
                    module.create_switch(ctx, spec)
                })
                .map(|()| PrimitiveResult::Done),
            Primitive::CreateFilter(spec) => self
                .dispatch(device, &spec.module, &mut reaction, |module, ctx| {
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
        let result = result.map_err(|cause| Box::new(self.refusal(primitive.component(), cause)));
        (result, reaction)
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
            self.me.clone()
        }
        fn descriptor(&self) -> ModuleAbstraction {
            ModuleAbstraction::empty(self.me.clone())
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
            me: upper.clone(),
            pipes: vec![],
        }));
        agent.register(Box::new(Recorder {
            me: lower.clone(),
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
                    upper: upper.clone(),
                    lower: lower.clone(),
                    peer_upper: None,
                    peer_lower: None,
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
                lower: bogus.clone(),
                peer_upper: None,
                peer_lower: None,
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
    fn stage_validates_without_touching_state_and_commit_applies() {
        let (mut device, mut agent, upper, lower) = setup();
        let spec = PipeSpec {
            pipe: PipeId(5),
            upper: upper.clone(),
            lower: lower.clone(),
            peer_upper: None,
            peer_lower: None,
            tradeoffs: vec![],
            initiate: false,
        };
        let stage = stage_one(9, 1, vec![Primitive::CreatePipe(spec)]);
        let out = agent.handle(&mut device, &stage);
        assert!(matches!(
            &out[0],
            WireMessage::StageBatchResult { txn: 9, verdicts }
                if verdicts.len() == 1 && verdicts[0].goal == 1 && verdicts[0].errors.is_empty()
        ));
        // Nothing applied yet: the blackboard has no fact for the pipe.
        assert!(agent.blackboard().pipe(PipeId(5)).port.is_none());
        assert_eq!(agent.staged_segment_count(), 1);

        let commit = WireMessage::CommitBatch {
            txn: 9,
            goals: vec![1],
        };
        let out = agent.handle(&mut device, &commit);
        match &out[0] {
            WireMessage::CommitBatchResult { txn: 9, segments } => {
                assert_eq!(segments.len(), 1);
                assert!(matches!(
                    segments[0].results[0],
                    Ok(PrimitiveResult::PipeCreated(PipeId(5)))
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(agent.blackboard().pipe(PipeId(5)).port.is_some());
        assert_eq!(agent.staged_segment_count(), 0);
    }

    #[test]
    fn stage_rejects_unknown_modules_and_abort_discards() {
        let (mut device, mut agent, upper, _) = setup();
        let bogus = ModuleRef::new(ModuleKind::Gre, ModuleId(99), device.id);
        let stage = stage_one(
            4,
            1,
            vec![Primitive::CreatePipe(PipeSpec {
                pipe: PipeId(1),
                upper: upper.clone(),
                lower: bogus,
                peer_upper: None,
                peer_lower: None,
                tradeoffs: vec![],
                initiate: false,
            })],
        );
        let out = agent.handle(&mut device, &stage);
        assert!(matches!(
            &out[0],
            WireMessage::StageBatchResult { txn: 4, verdicts } if verdicts[0].errors.len() == 1
        ));
        assert_eq!(agent.staged_segment_count(), 0);

        // Stage something valid, then abort it: committing afterwards fails.
        agent.handle(&mut device, &stage_one(5, 1, vec![Primitive::ShowActual]));
        assert_eq!(agent.staged_segment_count(), 1);
        let abort = WireMessage::AbortBatch {
            txn: 5,
            goals: vec![1],
        };
        assert!(agent.handle(&mut device, &abort).is_empty());
        assert_eq!(agent.staged_segment_count(), 0);
        let commit = WireMessage::CommitBatch {
            txn: 5,
            goals: vec![1],
        };
        let out = agent.handle(&mut device, &commit);
        match &out[0] {
            WireMessage::CommitBatchResult { segments, .. } => assert!(matches!(
                &segments[0].results[0],
                Err(refusal) if refusal.cause == RefusalCause::NeverStaged
            )),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stage_batch_validates_per_segment_and_commit_batch_applies_per_goal() {
        use crate::primitives::ScriptSegment;
        let (mut device, mut agent, upper, lower) = setup();
        let pipe_spec = |pipe: u32, lower: ModuleRef| PipeSpec {
            pipe: PipeId(pipe),
            upper: upper.clone(),
            lower,
            peer_upper: None,
            peer_lower: None,
            tradeoffs: vec![],
            initiate: false,
        };
        let bogus = ModuleRef::new(ModuleKind::Gre, ModuleId(99), device.id);
        let stage = WireMessage::StageBatch {
            txn: 11,
            segments: vec![
                ScriptSegment {
                    goal: 1,
                    primitives: vec![Primitive::CreatePipe(pipe_spec(10, lower.clone()))],
                },
                ScriptSegment {
                    goal: 2,
                    primitives: vec![Primitive::CreatePipe(pipe_spec(20, bogus))],
                },
                ScriptSegment {
                    goal: 3,
                    primitives: vec![Primitive::CreatePipe(pipe_spec(30, lower.clone()))],
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
        assert_eq!(agent.staged_segment_count(), 2);
        assert!(agent.blackboard().pipe(PipeId(10)).port.is_none());

        // Abort goal 3 (it failed staging elsewhere), commit the rest.
        agent.handle(
            &mut device,
            &WireMessage::AbortBatch {
                txn: 11,
                goals: vec![3],
            },
        );
        assert_eq!(agent.staged_segment_count(), 1);
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
        assert_eq!(agent.staged_segment_count(), 0);
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
            self.0.clone()
        }
        fn descriptor(&self) -> ModuleAbstraction {
            ModuleAbstraction::empty(self.0.clone())
        }
        fn poll(&mut self, _ctx: &mut ModuleCtx) -> ModuleReaction {
            ModuleReaction::envelope(ModuleEnvelope {
                from: self.0.clone(),
                to: self.0.clone(),
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
            self.0.clone()
        }
        fn descriptor(&self) -> ModuleAbstraction {
            ModuleAbstraction::empty(self.0.clone())
        }
        fn handle_envelope(
            &mut self,
            _ctx: &mut ModuleCtx,
            env: &ModuleEnvelope,
        ) -> Result<ModuleReaction, ModuleError> {
            Err(ModuleError::UndecodableBody {
                from: env.from.clone(),
                len: env.body.len(),
            })
        }
    }

    #[test]
    fn a_refused_envelope_reaches_the_nm_as_a_typed_error_notice() {
        let (mut device, mut agent, _, _) = setup();
        let refuser = ModuleRef::new(ModuleKind::Gre, ModuleId(9), device.id);
        agent.register(Box::new(Refuser(refuser.clone())));
        let sender = ModuleRef::new(ModuleKind::Gre, ModuleId(9), DeviceId::from_raw(77));
        let env = ModuleEnvelope {
            from: sender.clone(),
            to: refuser.clone(),
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

//! The agent's admission step over the modules the testbeds register.
//!
//! The segments are the ones the NM generates for the GRE, MPLS, IP-IP and
//! VLAN paths of the 3-router chain and the 3-switch VLAN chain, one per
//! device.  Each case drives that device's agent alone through
//! `ManagementAgent::handle` (`StageBatch`, then `CommitBatch`):
//!
//! - an unmutated segment is admitted and every commit result is `Ok`, and
//!   its teardown mirror, committed afterwards, leaves the device
//!   configuration, the blackboard and every module's `showActual` as they
//!   were (allocator watermarks aside);
//! - a mutated segment is refused at stage with the cause its mutation
//!   earns, and the device is left as it was.
//!
//! No module on the far end answers, so peer negotiations never finish:
//! what the cases hold is what the device decides alone.  The last test
//! runs each path's whole transaction, where they do finish.

use conman_core::abstraction::ModuleAbstraction;
use conman_core::agent::ManagementAgent;
use conman_core::ids::{ModuleId, ModuleKind, ModuleRef, PipeId};
use conman_core::module::{ModuleCtx, ModuleError, PipeFacts, ProtocolModule, SwitchField};
use conman_core::nm::{DeviceScript, GoalId, ScriptSet};
use conman_core::primitives::{
    ModuleActual, Primitive, PrimitiveOutcome, PrimitiveResult, RefusalCause, ScriptSegment,
    SegmentVerdict, WireMessage,
};
use conman_core::runtime::ManagedNetwork;
use conman_modules::{managed_chain, managed_vlan_chain};
use mgmt_channel::OutOfBandChannel;
use netsim::device::{Device, DeviceId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

/// Which testbed a segment's device lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bed {
    Chain,
    Vlan,
}

/// One generated segment: the primitives the NM sends one device for one
/// path.
#[derive(Debug, Clone)]
struct Case {
    bed: Bed,
    technology: String,
    device: DeviceId,
    primitives: Vec<Primitive>,
}

/// Every segment of every path the tests drive, generated once.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let mut cases = Vec::new();
        let mut chain = managed_chain(3);
        chain.discover();
        let goal = chain.vpn_goal();
        for technology in ["GRE-IP", "MPLS", "IP-IP"] {
            cases.extend(segments(&chain.mn, &goal, technology, Bed::Chain));
        }
        let mut vlan = managed_vlan_chain(3);
        vlan.discover();
        cases.extend(segments(&vlan.mn, &vlan.vlan_goal(), "VLAN", Bed::Vlan));
        cases
    })
}

fn segments(
    mn: &ManagedNetwork<OutOfBandChannel>,
    goal: &conman_core::nm::ConnectivityGoal,
    technology: &str,
    bed: Bed,
) -> Vec<Case> {
    let path = (mn.nm.find_paths(goal).into_iter())
        .find(|p| p.technology_label() == technology)
        .unwrap_or_else(|| panic!("no {technology} path"));
    let scripts = mn.nm.generate_scripts(&path, goal);
    (scripts.scripts.into_iter())
        .map(|ds| Case {
            bed,
            technology: technology.to_string(),
            device: ds.device,
            primitives: ds.primitives,
        })
        .collect()
}

/// The blackboard's content as a [`Spy`] last saw it.
type Seen = Arc<Mutex<Vec<(PipeId, PipeFacts)>>>;

/// A module that keeps nothing and, asked for its `showActual`, copies the
/// agent's blackboard out for the test to read.
struct Spy {
    me: ModuleRef,
    seen: Seen,
}

impl ProtocolModule for Spy {
    fn reference(&self) -> ModuleRef {
        self.me
    }
    fn descriptor(&self) -> ModuleAbstraction {
        ModuleAbstraction::empty(self.me)
    }
    fn actual(&self, ctx: &ModuleCtx) -> ModuleActual {
        let facts = ctx.blackboard.pipes().map(|p| (p, ctx.blackboard.pipe(p)));
        *self.seen.lock().unwrap() = facts.collect();
        ModuleActual::default()
    }
}

/// What a refused segment must leave as it was, and what an admitted one
/// and its teardown mirror must restore.
#[derive(Debug, PartialEq)]
struct Snapshot {
    config: serde_json::Value,
    blackboard: Vec<(PipeId, PipeFacts)>,
    actual: BTreeMap<ModuleRef, ModuleActual>,
}

/// A fresh testbed with a [`Spy`] registered on every agent, driven one
/// device at a time.
struct Rig {
    mn: ManagedNetwork<OutOfBandChannel>,
    spies: BTreeMap<DeviceId, Seen>,
    txn: u64,
}

impl Rig {
    fn new(bed: Bed) -> Self {
        let mut mn = match bed {
            Bed::Chain => managed_chain(3).mn,
            Bed::Vlan => managed_vlan_chain(3).mn,
        };
        let mut spies = BTreeMap::new();
        for (device, agent) in &mut mn.agents {
            let seen = Seen::default();
            let me = ModuleRef::new(ModuleKind::App(9), ModuleId(999), *device);
            agent.register(Box::new(Spy {
                me,
                seen: seen.clone(),
            }));
            spies.insert(*device, seen);
        }
        Rig { mn, spies, txn: 0 }
    }

    fn handle(&mut self, at: DeviceId, msg: &WireMessage) -> WireMessage {
        let ManagedNetwork { agents, net, .. } = &mut self.mn;
        let agent: &mut ManagementAgent = agents.get_mut(&at).expect("an agent");
        let device: &mut Device = net.device_mut(at).expect("a device");
        agent
            .handle(device, msg)
            .into_iter()
            .next()
            .expect("an answer")
    }

    /// Stage `primitives` on `at` as goal 1's segment of a new transaction.
    fn stage(&mut self, at: DeviceId, primitives: &[Primitive]) -> SegmentVerdict {
        self.txn += 1;
        let segment = ScriptSegment {
            goal: 1,
            primitives: primitives.to_vec(),
        };
        let stage = WireMessage::StageBatch {
            txn: self.txn,
            segments: vec![segment],
        };
        match self.handle(at, &stage) {
            WireMessage::StageBatchResult { mut verdicts, .. } => verdicts.remove(0),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Commit goal 1 of the last transaction staged on `at`.
    fn commit(&mut self, at: DeviceId) -> Vec<PrimitiveOutcome> {
        let commit = WireMessage::CommitBatch {
            txn: self.txn,
            goals: vec![1],
        };
        match self.handle(at, &commit) {
            WireMessage::CommitBatchResult { mut segments, .. } => segments.remove(0).results,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn snapshot(&mut self, at: DeviceId) -> Snapshot {
        let show = WireMessage::Script {
            request: 0,
            primitives: vec![Primitive::ShowActual],
        };
        let actual = match self.handle(at, &show) {
            WireMessage::ScriptResult { mut results, .. } => match results.remove(0) {
                Ok(PrimitiveResult::Actual(map)) => map,
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        };
        let config = &self.mn.net.device(at).expect("a device").config;
        Snapshot {
            config: serde_json::to_value(config).expect("a configuration serialises"),
            blackboard: self.spies[&at].lock().unwrap().clone(),
            actual,
        }
    }
}

/// A snapshot without what the allocators have handed out so far, which a
/// teardown does not take back: the MPLS key counter.
fn without_watermarks(mut snapshot: Snapshot) -> Snapshot {
    use serde_json::Value;
    if let Value::Object(config) = &mut snapshot.config {
        if let Some(Value::Object(mpls)) = config.get_mut("mpls") {
            mpls.remove("next_key");
        }
    }
    snapshot
}

/// The mutations a segment is put through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mutation {
    /// A `create (pipe)` takes the id of one created earlier.
    SwapPipeId,
    /// The creates of every pipe a switch rule names are dropped.
    DropCreate,
    /// A `create (pipe)` is repeated.
    RepeatCreate,
    /// The segment is staged again once it has committed: its first pipe
    /// id is live.
    Replay,
    /// A switch rule is pointed at pipes the segment never names.
    Stranger,
    /// A field its module reads is spoilt: a GRE up pipe loses its
    /// trade-offs, an IP rule's gateway does not parse.
    SpoilField,
}

const MUTATIONS: [Mutation; 6] = [
    Mutation::SwapPipeId,
    Mutation::DropCreate,
    Mutation::RepeatCreate,
    Mutation::Replay,
    Mutation::Stranger,
    Mutation::SpoilField,
];

/// The `pick`-th way `mutation` applies to `primitives`: the mutated
/// segment and the cause stage must refuse it with.  `None` when it applies
/// nowhere.
fn mutate(
    primitives: &[Primitive],
    mutation: Mutation,
    pick: usize,
) -> Option<(Vec<Primitive>, RefusalCause)> {
    let pipes: Vec<usize> = (0..primitives.len())
        .filter(|i| matches!(primitives[*i], Primitive::CreatePipe(_)))
        .collect();
    let switches: Vec<usize> = (0..primitives.len())
        .filter(|i| matches!(primitives[*i], Primitive::CreateSwitch(_)))
        .collect();
    let choose = |from: &[usize]| (!from.is_empty()).then(|| from[pick % from.len()]);
    let first_pipe = || match primitives.get(*pipes.first()?) {
        Some(Primitive::CreatePipe(spec)) => Some(spec.pipe),
        _ => None,
    };
    let mut out = primitives.to_vec();
    match mutation {
        Mutation::SwapPipeId => {
            let Primitive::CreatePipe(spec) = &mut out[choose(pipes.get(1..)?)?] else {
                unreachable!()
            };
            spec.pipe = first_pipe()?;
            Some(RefusalCause::PipeInUse(spec.pipe))
        }
        Mutation::DropCreate => {
            let Primitive::CreateSwitch(rule) = &primitives[choose(&switches)?] else {
                unreachable!()
            };
            let named = [rule.in_pipe, rule.out_pipe];
            out.retain(|p| !matches!(p, Primitive::CreatePipe(spec) if named.contains(&spec.pipe)));
            Some(RefusalCause::SwitchWithoutPipe)
        }
        Mutation::RepeatCreate => {
            let k = choose(&pipes)?;
            let Primitive::CreatePipe(spec) = &primitives[k] else {
                unreachable!()
            };
            out.insert(k + 1, primitives[k].clone());
            Some(RefusalCause::PipeInUse(spec.pipe))
        }
        Mutation::Replay => (pick == 0).then_some(RefusalCause::PipeInUse(first_pipe()?)),
        Mutation::Stranger => {
            let Primitive::CreateSwitch(rule) = &mut out[choose(&switches)?] else {
                unreachable!()
            };
            (rule.in_pipe, rule.out_pipe) = (PipeId(60_000), PipeId(60_001));
            Some(RefusalCause::SwitchWithoutPipe)
        }
        Mutation::SpoilField => {
            let spoilable: Vec<usize> = (0..primitives.len())
                .filter(|i| match &primitives[*i] {
                    Primitive::CreatePipe(spec) => spec.lower.kind == ModuleKind::Gre,
                    Primitive::CreateSwitch(rule) => rule.gateway.is_some(),
                    _ => false,
                })
                .collect();
            let error = match &mut out[choose(&spoilable)?] {
                Primitive::CreatePipe(spec) => {
                    spec.tradeoffs.clear();
                    ModuleError::MissingTradeoffs
                }
                Primitive::CreateSwitch(rule) => {
                    rule.gateway.as_mut().expect("a gateway rule").value = "S1-gateway".into();
                    ModuleError::BadSwitchField(SwitchField::Gateway)
                }
                _ => unreachable!(),
            };
            Some(RefusalCause::Module(error))
        }
    }
    .map(|cause| (out, cause))
}

/// Stage and commit an admitted segment, then its teardown mirror: every
/// commit result is `Ok` and the device ends as it began.
fn admit_and_undo(case: &Case) {
    let (mut rig, at) = (Rig::new(case.bed), case.device);
    let before = rig.snapshot(at);
    let verdict = rig.stage(at, &case.primitives);
    assert_eq!(verdict.errors, [], "{} on {}", case.technology, case.device);
    let results = rig.commit(at);
    assert_eq!(results.len(), case.primitives.len());
    assert!(results.iter().all(Result::is_ok), "{results:?}");

    let script = DeviceScript {
        device: case.device,
        primitives: case.primitives.clone(),
    };
    let set = ScriptSet {
        scripts: vec![script],
    };
    let (_, mirror) = set.teardown().remove(0);
    assert_eq!(rig.stage(at, &mirror).errors, [], "a teardown is admitted");
    assert!(rig.commit(at).iter().all(Result::is_ok));
    assert_eq!(
        without_watermarks(rig.snapshot(at)),
        without_watermarks(before),
        "{} on {}: the mirror undoes the creates",
        case.technology,
        case.device
    );
}

/// Stage a mutated segment, on a device that holds the unmutated one when
/// the mutation is a replay: refused with `cause` as its first error, and
/// neither the stage nor a commit of the refused goal changes anything.
fn refuse(case: &Case, mutation: Mutation, primitives: &[Primitive], cause: &RefusalCause) {
    let (mut rig, at) = (Rig::new(case.bed), case.device);
    if mutation == Mutation::Replay {
        assert_eq!(rig.stage(at, &case.primitives).errors, []);
        assert!(rig.commit(at).iter().all(Result::is_ok));
    }
    let before = rig.snapshot(at);
    let verdict = rig.stage(at, primitives);
    let first = verdict.errors.first().map(|refusal| &refusal.cause);
    assert_eq!(first, Some(cause), "{} on {}", case.technology, case.device);
    let results = rig.commit(at);
    assert!(
        matches!(&results[..], [Err(refusal)] if refusal.cause == RefusalCause::NeverStaged),
        "{results:?}"
    );
    assert_eq!(rig.snapshot(at), before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stage_admits_what_commits_and_refuses_every_mutation(
        which in any::<usize>(),
        class in 0usize..7,
        pick in any::<usize>(),
    ) {
        let case = &cases()[which % cases().len()];
        let mutation = MUTATIONS.get(class).copied();
        match mutation.and_then(|m| Some((m, mutate(&case.primitives, m, pick)?))) {
            Some((mutation, (mutated, cause))) => refuse(case, mutation, &mutated, &cause),
            None => admit_and_undo(case),
        }
    }
}

/// Every segment and every way every mutation applies to it, once: the
/// table the proptest samples, run whole.
#[test]
fn every_mutation_of_every_segment_is_refused_at_stage() {
    let mut applied = BTreeSet::new();
    for case in cases() {
        admit_and_undo(case);
        for mutation in MUTATIONS {
            let mut tried: Vec<Vec<Primitive>> = Vec::new();
            for pick in 0..case.primitives.len() {
                let Some((mutated, cause)) = mutate(&case.primitives, mutation, pick) else {
                    break;
                };
                if !tried.contains(&mutated) {
                    refuse(case, mutation, &mutated, &cause);
                    tried.push(mutated);
                }
            }
            if !tried.is_empty() {
                applied.insert(mutation);
            }
        }
    }
    assert_eq!(
        applied,
        BTreeSet::from(MUTATIONS),
        "every class applies somewhere"
    );
}

/// The inverse property where negotiation does finish: each path's scripts
/// committed on every device through the runtime's own transaction, then
/// their teardown mirror, leave every device as it was (allocator
/// watermarks aside).
#[test]
fn every_path_and_its_teardown_mirror_leave_every_device_as_it_was() {
    for technology in ["GRE-IP", "MPLS", "IP-IP", "VLAN"] {
        let cases: Vec<&Case> = cases()
            .iter()
            .filter(|c| c.technology == technology)
            .collect();
        let mut rig = Rig::new(cases[0].bed);
        let devices: Vec<DeviceId> = rig.mn.agents.keys().copied().collect();
        let before: Vec<Snapshot> = devices.iter().map(|d| rig.snapshot(*d)).collect();
        let scripts = ScriptSet {
            scripts: (cases.iter())
                .map(|c| DeviceScript {
                    device: c.device,
                    primitives: c.primitives.clone(),
                })
                .collect(),
        };
        let goal = GoalId(1);
        let outcome = rig.mn.run_batch(&[(goal, &scripts)]);
        assert_eq!(
            outcome.committed,
            [goal],
            "{technology}: {:?}",
            outcome.failed
        );
        let applied: Vec<Snapshot> = devices.iter().map(|d| rig.snapshot(*d)).collect();
        assert_ne!(
            applied, before,
            "{technology}: the path changed the devices"
        );
        let torn = rig
            .mn
            .run_teardown_batch(&[(goal, scripts.teardown())], &[]);
        assert!(torn.skipped.is_empty());
        for (device, before) in devices.iter().zip(before) {
            assert_eq!(
                without_watermarks(rig.snapshot(*device)),
                without_watermarks(before),
                "{technology} on {device}"
            );
        }
    }
}

//! Two-phase configuration transactions over the management channel.
//!
//! A goal's scripts touch several devices; executing them fire-and-forget
//! (the paper's flow, [`ManagedNetwork::execute_path`]) can strand
//! half-configured state when a mid-path device is missing a module or
//! crashes mid-flight.  There is **one** transaction protocol —
//! `StageBatch` / `CommitBatch` / `AbortBatch` carrying per-goal segments —
//! and a transaction for a single goal is simply a batch of one:
//!
//! 1. **Stage** — every device runs its agent's one admission step on each
//!    goal's segment (the named modules exist, a new pipe id is free, a
//!    switch rule stands on a pipe of its module, and each module admits
//!    its protocol's fields) and holds it without touching the data plane.
//!    A goal refused or unanswered (a crashed device) anywhere is aborted
//!    everywhere before anything of it is applied.
//! 2. **Commit** — devices commit one at a time in reverse path order (so
//!    every peer-negotiation initiator finds its peers already configured).
//!    A goal whose segment fails its commit (or whose device never answers)
//!    is rolled back: the devices that already committed it get the
//!    teardown mirror of its script (`delete` per `create`, reverse order),
//!    and its still-staged segments get an abort.
//!
//! Two runners drive that protocol.  [`ManagedNetwork::run_batch`] is the
//! strict one above.  [`ManagedNetwork::run_teardown_batch`] (withdraw,
//! stale-configuration teardown, self-healing) is **lenient**: a device
//! that does not answer is skipped rather than failing the transaction — it
//! is either crashed (nothing to delete; a reboot clears state anyway) or
//! will be cleaned up by a later reconcile.
//!
//! The two share the stage phase (one `StageBatch` per device, one quiesce,
//! one `StageDevice` event per device) and the abort step (`AbortBatch`
//! plus its `AbortDevice` event).  They do not share a commit phase: the
//! strict runner commits device by device and quiesces after each, so a
//! failure is undone before the next device commits; the lenient one
//! commits every device at once and never rolls back.  A rollback is itself
//! a nested lenient transaction under a newer txn id, and only the devices
//! that already committed see it, so the journal shows every delete it
//! sends.

use super::ManagedNetwork;
use crate::nm::goal::GoalId;
use crate::nm::ScriptSet;
use crate::primitives::{Primitive, Refusal, RefusalCause, SegmentVerdict, WireMessage};
use conman_obs::TraceKind;
use mgmt_channel::ManagementChannel;
use netsim::device::DeviceId;
use netsim::network::Network;
use std::collections::{BTreeMap, BTreeSet};

/// Moments a [`TxnHook`] is invoked at, for deterministic fault injection
/// between transaction phases (e.g. crash a device after it staged but
/// before it commits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnEvent {
    /// Every device staged successfully; commits are about to start.
    Staged {
        /// The transaction id.
        txn: u64,
    },
    /// The commit for `device` is about to be sent.
    BeforeCommit {
        /// The transaction id.
        txn: u64,
        /// The device about to commit.
        device: DeviceId,
    },
    /// `device` acknowledged its commit successfully.
    Committed {
        /// The transaction id.
        txn: u64,
        /// The device that committed.
        device: DeviceId,
    },
}

/// A hook invoked between transaction phases with mutable access to the
/// simulated network — the injection point for mid-transaction faults.
pub type TxnHook = Box<dyn FnMut(&TxnEvent, &mut Network) + Send>;

/// What a batched transaction did, goal by goal.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Goals whose every segment committed.
    pub committed: Vec<GoalId>,
    /// Goals that failed staging or commit (with the first refusal), each
    /// rolled back via its teardown mirror without disturbing siblings.
    pub failed: Vec<(GoalId, Refusal)>,
    /// Goals whose reverse path order could not share the batch's single
    /// commit order; each ran as its own batch of one instead (their
    /// verdicts still land in `committed`/`failed`).
    pub fallback: Vec<GoalId>,
}

impl BatchOutcome {
    /// The refusal a failed goal failed with.
    pub(crate) fn error_for(&self, goal: GoalId) -> Option<&Refusal> {
        self.failed.iter().find(|(g, _)| *g == goal).map(|(_, e)| e)
    }
}

/// The NM's refusal on behalf of a device that did not answer.
fn unanswered(device: DeviceId, cause: RefusalCause) -> Refusal {
    Refusal {
        device,
        component: None,
        cause,
    }
}

/// One goal's teardown work: its delete primitives grouped per device
/// (the shape `ScriptSet::teardown` returns).
pub type GoalTeardown = (GoalId, Vec<(DeviceId, Vec<Primitive>)>);

/// What a batched lenient teardown did: every goal's delete scripts in the
/// pass ran as **one** StageBatch/CommitBatch transaction — each touched
/// device staged once and committed once for the whole teardown phase,
/// instead of one lenient transaction per goal (the ROADMAP's batched
/// teardown item).
#[derive(Debug, Clone, Default)]
pub struct TeardownBatchOutcome {
    /// Delete primitives committed per goal.
    pub per_goal: BTreeMap<GoalId, usize>,
    /// Devices skipped leniently (listed in `skip`, silent, or crashed
    /// between the phases) — deletes are idempotent and a rebooted device
    /// comes back with clean state.
    pub skipped: Vec<DeviceId>,
}

/// Per-device goal segments of one transaction, each goal's primitives
/// borrowed straight out of its plan: the stage encoder reads the slices in
/// place, so nothing is cloned.
type Segments<'a> = BTreeMap<DeviceId, Vec<(u64, &'a [Primitive])>>;

/// One device's answer to the stage phase.
struct Staged {
    /// The goals the device was sent a segment of, in segment order.
    goals: Vec<u64>,
    /// Its verdicts, one per segment (`None`: it did not answer).
    verdicts: Option<Vec<SegmentVerdict>>,
}

impl<C: ManagementChannel> ManagedNetwork<C> {
    fn fire_hook(&mut self, event: TxnEvent) {
        if let Some(mut hook) = self.txn_hook.take() {
            hook(&event, &mut self.net);
            self.txn_hook = Some(hook);
        }
    }

    /// The stage phase of both runners: send every device its `StageBatch`
    /// once, quiesce once, and take each device's verdicts, journaling a
    /// `StageDevice` that is `ok` when the device answered and refused
    /// nothing.
    fn stage(&mut self, txn: u64, segments: Segments<'_>) -> BTreeMap<DeviceId, Staged> {
        if segments.is_empty() {
            return BTreeMap::new();
        }
        for (device, segs) in &segments {
            self.send_stage_batch(*device, txn, segs);
        }
        self.run_management();
        let mut staged = BTreeMap::new();
        for (device, segs) in segments {
            let verdicts = self.stage_batch_results.remove(&(device, txn));
            let ok = verdicts
                .as_ref()
                .is_some_and(|vs| vs.iter().all(|v| v.errors.is_empty()));
            self.recorder.event(
                self.net.now().as_nanos(),
                TraceKind::StageDevice {
                    txn,
                    device: device.as_u64(),
                    segments: segs.len() as u64,
                    ok,
                },
            );
            let goals = segs.iter().map(|(g, _)| *g).collect();
            staged.insert(device, Staged { goals, verdicts });
        }
        staged
    }

    /// The abort step of both runners: release `goals`' segments of `txn`
    /// held on `device`, and journal it.
    fn abort(&mut self, txn: u64, device: DeviceId, goals: Vec<u64>) {
        self.send(
            self.nm_host(),
            device,
            &WireMessage::AbortBatch { txn, goals },
        );
        self.recorder.event(
            self.net.now().as_nanos(),
            TraceKind::AbortDevice {
                txn,
                device: device.as_u64(),
            },
        );
    }

    /// Execute many goals' teardown scripts (all-`delete`) as **one**
    /// batched lenient transaction: every touched device is staged once
    /// (all goals' delete segments in one `StageBatch`) and committed once,
    /// so a withdraw- or update-heavy pass costs one stage + one commit
    /// round-trip per device instead of one transaction per goal.
    ///
    /// Teardown semantics stay lenient: devices in `skip` are not contacted
    /// at all, and a device that does not answer either phase is passed
    /// over (its staged deletes are aborted so a rebooting agent does not
    /// hold them forever) — never rolled back, since deletes are idempotent
    /// and a crashed device loses the state at reboot anyway.
    pub fn run_teardown_batch(
        &mut self,
        items: &[GoalTeardown],
        skip: &[DeviceId],
    ) -> TeardownBatchOutcome {
        let txn = self.goals.next_txn();
        let mut outcome = TeardownBatchOutcome::default();
        let mut segments = Segments::new();
        for (goal, teardown) in items {
            outcome.per_goal.entry(*goal).or_insert(0);
            for (device, primitives) in teardown {
                if skip.contains(device) || primitives.is_empty() {
                    continue;
                }
                segments
                    .entry(*device)
                    .or_default()
                    .push((goal.0, primitives.as_slice()));
            }
        }
        if segments.is_empty() {
            return outcome;
        }
        let prev_batch_relays = std::mem::replace(&mut self.batch_relays, true);

        // ---- Phase 1: stage every device once. ------------------------
        // Deletes always validate, so a device either answers (committable)
        // or is silent (lenient skip).
        let mut committable = Vec::new();
        for (device, staged) in self.stage(txn, segments) {
            match staged.verdicts {
                Some(_) => committable.push((device, staged.goals)),
                None => outcome.skipped.push(device),
            }
        }

        // ---- Phase 2: commit each answering device once. --------------
        for (device, goals) in &committable {
            let goals = goals.clone();
            self.send(
                self.nm_host(),
                *device,
                &WireMessage::CommitBatch { txn, goals },
            );
        }
        self.run_management();
        for (device, goals) in committable {
            let answer = self.commit_batch_results.remove(&(device, txn));
            let ok = answer.is_some();
            match answer {
                Some(segs) => {
                    for sc in segs {
                        *outcome.per_goal.entry(GoalId(sc.goal)).or_insert(0) += sc.results.len();
                    }
                }
                None => {
                    // Crashed between the phases: abort so the agent does
                    // not hold the staged deletes forever if it comes back.
                    self.abort(txn, device, goals);
                    outcome.skipped.push(device);
                }
            }
            self.recorder.event(
                self.net.now().as_nanos(),
                TraceKind::CommitDevice {
                    txn,
                    device: device.as_u64(),
                    ok,
                },
            );
        }
        self.run_management();
        self.batch_relays = prev_batch_relays;
        outcome
    }

    /// Execute many goals' script sets as **one** batched two-phase
    /// transaction: every device is staged once (all its goals' segments in
    /// one `StageBatch`) and committed once (one `CommitBatch`), so the
    /// NM's command count per pass is proportional to the number of devices
    /// touched, not `goals × devices`.  Relays are coalesced per
    /// (device, round) in both directions for the duration of the batch:
    /// a device sends its round's envelopes up as one `RelayBatch` and the
    /// NM relays them down as one per destination, so the NM's relay
    /// messages follow the relay rounds, not the number of goals.
    ///
    /// Per-goal atomicity is preserved inside the batch: a goal whose
    /// segment fails staging on any device is aborted everywhere before
    /// anything of it is applied, and the goals that fail at one device's
    /// commit are rolled back together without aborting sibling goals.
    /// Commit order across devices follows the reverse of the latest path
    /// position any goal assigns a device, so every peer-negotiation
    /// initiator still finds its peers committed.
    /// A goal whose own reverse path order cannot be embedded in that
    /// single global order (e.g. two goals traversing shared devices in
    /// opposite directions) is excluded from the batch and re-enters this
    /// runner as a batch of one afterwards — correctness first, batching
    /// where it is sound (`BatchOutcome::fallback` records them).  A
    /// transaction for one goal is `run_batch(&[(goal, &scripts)])`.
    ///
    /// A rollback costs, per commit step at which goals fail, one nested
    /// [`Self::run_teardown_batch`] over their teardown mirrors — a
    /// `StageBatch` and a `CommitBatch` (each answered) to every device
    /// that already committed one of them, and nothing when no such device
    /// created anything — plus one `AbortBatch` to every device still to
    /// commit that holds a segment of one of them.
    ///
    /// A failed goal's [`Refusal`] in `BatchOutcome::failed` is the first
    /// one its segments met.  Its cause is one of:
    /// - at stage: [`RefusalCause::UnknownModule`],
    ///   [`RefusalCause::PipeInUse`], [`RefusalCause::SwitchWithoutPipe`],
    ///   [`RefusalCause::Module`] (every `ModuleError` a module's `admit`
    ///   raises), [`RefusalCause::MalformedSegment`] or
    ///   [`RefusalCause::UnansweredStage`];
    /// - only at commit: [`RefusalCause::NeverStaged`] and
    ///   [`RefusalCause::UnansweredCommit`].
    pub fn run_batch(&mut self, items: &[(GoalId, &ScriptSet)]) -> BatchOutcome {
        let txn = self.goals.next_txn();
        let mut outcome = BatchOutcome::default();
        // Partition into goals that can share one commit order and goals
        // that must fall back to a batch of their own.  Removing a
        // conflicting goal changes the aggregate order, so iterate to a
        // fixed point (immediate for same-direction goal sets, the common
        // case on every chain topology).
        let mut batchable: Vec<(GoalId, &ScriptSet)> = items.to_vec();
        let mut fallback: Vec<(GoalId, &ScriptSet)> = Vec::new();
        let mut position: BTreeMap<DeviceId, usize>;
        loop {
            position = BTreeMap::new();
            for (_, scripts) in &batchable {
                for (i, ds) in scripts.scripts.iter().enumerate() {
                    let p = position.entry(ds.device).or_insert(0);
                    *p = (*p).max(i);
                }
            }
            let mut order: Vec<DeviceId> = position.keys().copied().collect();
            order.sort_by(|a, b| position[b].cmp(&position[a]).then(a.cmp(b)));
            let commit_index: BTreeMap<DeviceId, usize> =
                order.iter().enumerate().map(|(i, d)| (*d, i)).collect();
            // A goal is batchable iff its devices' commit positions strictly
            // decrease along its path (its own reverse path order is a
            // subsequence of the global commit order).
            let violators: Vec<usize> = batchable
                .iter()
                .enumerate()
                .filter(|(_, (_, scripts))| {
                    scripts
                        .scripts
                        .windows(2)
                        .any(|w| commit_index[&w[0].device] < commit_index[&w[1].device])
                })
                .map(|(k, _)| k)
                .collect();
            if violators.is_empty() {
                break;
            }
            for k in violators.into_iter().rev() {
                fallback.push(batchable.remove(k));
            }
        }
        // Preserve submission order for the fallback executions.
        fallback.reverse();

        // Coalesce: one segment list per device, goal order preserved.
        let mut segments = Segments::new();
        for (goal, scripts) in &batchable {
            for ds in &scripts.scripts {
                segments
                    .entry(ds.device)
                    .or_default()
                    .push((goal.0, ds.primitives.as_slice()));
            }
        }
        let mut alive: BTreeSet<GoalId> = batchable.iter().map(|(g, _)| *g).collect();
        let mut errors: BTreeMap<GoalId, Refusal> = BTreeMap::new();
        self.recorder.inc("txn.batches", 1);
        self.recorder
            .observe("txn.batch.devices", segments.len() as f64);
        if segments.is_empty() && fallback.is_empty() {
            outcome.committed = alive.into_iter().collect();
            return outcome;
        }
        let prev_batch_relays = std::mem::replace(&mut self.batch_relays, true);

        // ---- Phase 1: stage every device once. ------------------------
        let mut goals_by_device: BTreeMap<DeviceId, Vec<u64>> = BTreeMap::new();
        let mut silent: BTreeSet<DeviceId> = BTreeSet::new();
        for (device, staged) in self.stage(txn, segments) {
            match staged.verdicts {
                Some(verdicts) => {
                    for v in verdicts {
                        let Some(refusal) = v.errors.into_iter().next() else {
                            continue;
                        };
                        let goal = GoalId(v.goal);
                        if alive.remove(&goal) {
                            errors.insert(goal, refusal);
                        }
                    }
                }
                None => {
                    // Silence: crashed or unreachable — every segment it
                    // holds is lost.
                    silent.insert(device);
                    let silence = unanswered(device, RefusalCause::UnansweredStage);
                    for goal in staged.goals.iter().map(|g| GoalId(*g)) {
                        if alive.remove(&goal) {
                            errors.insert(goal, silence.clone());
                        }
                    }
                }
            }
            goals_by_device.insert(device, staged.goals);
        }
        // Abort dead goals' segments still held on answering devices.
        let mut aborted_any = false;
        for (device, goals) in &goals_by_device {
            if silent.contains(device) {
                continue;
            }
            let dead: Vec<u64> = goals
                .iter()
                .copied()
                .filter(|g| !alive.contains(&GoalId(*g)))
                .collect();
            if !dead.is_empty() {
                self.abort(txn, *device, dead);
                aborted_any = true;
            }
        }
        if aborted_any {
            self.run_management();
        }
        if !alive.is_empty() {
            self.fire_hook(TxnEvent::Staged { txn });
        }

        // ---- Phase 2: commit each device once, latest-position first. --
        // Peer negotiations are initiated by the earlier device of a peer
        // pair, so committing devices in reverse path position guarantees
        // every initiator's peers are already configured and can answer
        // within the initiator's own management round.
        let mut order: Vec<DeviceId> = goals_by_device
            .keys()
            .copied()
            .filter(|d| !silent.contains(d))
            .collect();
        order.sort_by(|a, b| position[b].cmp(&position[a]).then(a.cmp(b)));
        if alive.is_empty() {
            order.clear();
        }
        for (idx, device) in order.iter().copied().enumerate() {
            let goals_here: Vec<u64> = goals_by_device[&device]
                .iter()
                .copied()
                .filter(|g| alive.contains(&GoalId(*g)))
                .collect();
            if goals_here.is_empty() {
                continue;
            }
            self.fire_hook(TxnEvent::BeforeCommit { txn, device });
            self.send(
                self.nm_host(),
                device,
                &WireMessage::CommitBatch {
                    txn,
                    goals: goals_here.clone(),
                },
            );
            self.run_management();
            let mut newly_failed: BTreeSet<GoalId> = BTreeSet::new();
            let answer = self.commit_batch_results.remove(&(device, txn));
            // A device whose commit went unanswered cannot be rolled back, so
            // a failed goal's teardown mirrors go to the devices before it.
            let committed = match answer {
                Some(_) => &order[..=idx],
                None => &order[..idx],
            };
            let commit_ok = match answer {
                Some(segs) => {
                    let mut clean = true;
                    for sc in segs {
                        let goal = GoalId(sc.goal);
                        let Some(refusal) = sc.results.into_iter().find_map(Result::err) else {
                            continue;
                        };
                        clean = false;
                        if alive.remove(&goal) {
                            errors.insert(goal, *refusal);
                            newly_failed.insert(goal);
                        }
                    }
                    if clean {
                        self.fire_hook(TxnEvent::Committed { txn, device });
                    }
                    clean
                }
                None => {
                    // The whole device went silent mid-commit: every goal it
                    // was asked to commit fails (its partial creates are
                    // unreachable anyway — a reboot clears them).
                    let silence = unanswered(device, RefusalCause::UnansweredCommit);
                    for goal in goals_here.iter().map(|g| GoalId(*g)) {
                        if alive.remove(&goal) {
                            errors.insert(goal, silence.clone());
                            newly_failed.insert(goal);
                        }
                    }
                    false
                }
            };
            self.recorder.event(
                self.net.now().as_nanos(),
                TraceKind::CommitDevice {
                    txn,
                    device: device.as_u64(),
                    ok: commit_ok,
                },
            );
            if !newly_failed.is_empty() {
                self.roll_back(txn, &newly_failed, &batchable, committed, &order[idx + 1..]);
            }
        }
        self.run_management();

        // ---- Fallback: each conflicting goal re-enters this runner as a
        // batch of one.  A lone goal always embeds in its own commit order,
        // so the recursion is one level deep. ---------------------------
        debug_assert!(
            fallback.is_empty() || items.len() > 1,
            "a batch of one cannot conflict with itself"
        );
        for (goal, scripts) in fallback {
            outcome.fallback.push(goal);
            match self.run_batch(&[(goal, scripts)]).failed.into_iter().next() {
                None => {
                    alive.insert(goal);
                }
                Some((_, refusal)) => {
                    errors.insert(goal, refusal);
                }
            }
        }

        outcome.committed = items
            .iter()
            .map(|(g, _)| *g)
            .filter(|g| alive.contains(g))
            .collect();
        outcome.failed = errors.into_iter().collect();
        self.batch_relays = prev_batch_relays;
        outcome
    }

    /// Undo `goals`, which failed at one commit step of `txn`.  Their
    /// teardown mirrors run as one nested [`Self::run_teardown_batch`] on
    /// the `committed` devices only: a newer stage drops every older txn a
    /// device holds, so staging it on a device still to commit would
    /// unstage the siblings' segments there.  Those `pending` devices get
    /// an `AbortBatch` for the failed goals instead.  Sibling goals are
    /// untouched — their segments live in disjoint pipe-id blocks.
    fn roll_back(
        &mut self,
        txn: u64,
        goals: &BTreeSet<GoalId>,
        batch: &[(GoalId, &ScriptSet)],
        committed: &[DeviceId],
        pending: &[DeviceId],
    ) {
        let failed: Vec<(GoalId, &ScriptSet)> = batch
            .iter()
            .filter(|(g, _)| goals.contains(g))
            .copied()
            .collect();
        let mirrors: Vec<GoalTeardown> = failed
            .iter()
            .map(|(goal, scripts)| {
                let deletes = scripts
                    .scripts
                    .iter()
                    .filter(|ds| committed.contains(&ds.device))
                    .map(|ds| (ds.device, ScriptSet::teardown_of(ds)))
                    .filter(|(_, deletes)| !deletes.is_empty())
                    .collect();
                (*goal, deletes)
            })
            .collect();
        if mirrors.iter().any(|(_, deletes)| !deletes.is_empty()) {
            self.run_teardown_batch(&mirrors, &[]);
        }
        for device in pending {
            let held: Vec<u64> = failed
                .iter()
                .filter(|(_, scripts)| scripts.scripts.iter().any(|ds| ds.device == *device))
                .map(|(g, _)| g.0)
                .collect();
            if !held.is_empty() {
                self.abort(txn, *device, held);
            }
        }
    }
}

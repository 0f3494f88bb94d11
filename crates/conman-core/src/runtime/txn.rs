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
//!    A goal refused or unanswered (a crashed device, a lost answer)
//!    anywhere is aborted everywhere before anything of it is applied, on a
//!    device that stayed silent too.  A device holds one
//!    transaction: a stage whose txn id is not newer than the one it holds
//!    is refused [`RefusalCause::StaleTxn`], and a reboot drops what it
//!    staged.
//! 2. **Commit** — every device holding a live goal's segment is sent its
//!    `CommitBatch` in one wave, and the NM quiesces once, as
//!    [`ManagedNetwork::execute_path`] sends every device its script.  One
//!    wave is safe in either direction along a path: a `CommitBatch` is one
//!    hop from the NM and a module's relay at least two, so every peer has
//!    applied its segment before an exchange reaches it, and every module
//!    message names the pipe it is for (the NM numbers both ends of each
//!    pipe pair in one script), which pairs it only when it waits for it
//!    (one table in `conman-modules`, shared by IP, GRE, MPLS and VLAN), so
//!    goals crossing the same modules in opposite directions never take
//!    each other's exchanges, in whatever order the messages arrive.  A goal refused at any device's commit, or one of
//!    whose devices never answers, is rolled back: every device of the wave,
//!    answered or not, gets the teardown mirror of its script (`delete` per
//!    `create`, reverse order), and a silent device gets an abort first.
//!
//! Two runners drive that protocol.  The strict one above is `run_staged`,
//! which keeps each goal's scripts as the bytes it staged and rolls back
//! from them; the reconcile engine's replace step calls it, and
//! [`ManagedNetwork::run_batch`] is it over borrowed scripts.
//! [`ManagedNetwork::run_teardown_batch`] (withdraw,
//! stale-configuration teardown, self-healing) is **lenient**: a device
//! that does not answer is sent an abort and skipped rather than failing
//! the transaction.
//!
//! The two share every phase: stage (one `StageBatch` per device, one
//! quiesce, one `StageDevice` event per device), commit (one `CommitBatch`
//! per device, one quiesce, one `CommitDevice` event per device and an
//! abort to each device that stayed silent) and the abort step
//! (`AbortBatch` plus its `AbortDevice` event).  They differ only in what
//! a failure costs: the lenient runner skips the device, the strict one
//! rolls the failed goals back.  A rollback is itself a nested lenient
//! transaction under a newer txn id, sent to every device of the commit
//! wave (a lost answer is not a lost commit), so the journal shows every
//! delete it sends.
//!
//! Both phases hear their devices through the NM's one answer table, where
//! the first verdict a device sends for a txn stands and a repeat is
//! counted under `txn.stale_results`.  Each phase takes its devices'
//! verdicts for its own txn once the plane is quiet, and drops and counts
//! what it leaves when it closes: a late verdict, or one from a device
//! outside its batch, under `txn.stale_results`.
//!
//! While a runner is on the stack, relays are batched and every management
//! round runs its devices' agents side by side, at the width of the pass
//! (see [`ManagedNetwork::run_management`]).  That changes no byte of
//! output: the drains stay sequential, an agent answers only the NM, so no
//! agent's turn reads what another's sent, and the answers are posted in
//! device order.

use super::{pool, ManagedNetwork};
use crate::nm::goal::GoalId;
use crate::nm::{ScriptSet, StagedScripts};
use crate::primitives::{
    Primitive, Refusal, RefusalCause, SegmentCommit, SegmentVerdict, WireMessage,
};
use conman_obs::TraceKind;
use mgmt_channel::codec::{TAG_COMMIT_BATCH_RESULT, TAG_STAGE_BATCH_RESULT};
use mgmt_channel::ManagementChannel;
use netsim::device::DeviceId;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// What a batched transaction did, goal by goal.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Goals whose every segment committed.
    pub committed: Vec<GoalId>,
    /// Goals that failed staging or commit (with the first refusal), each
    /// rolled back via its teardown mirror without disturbing siblings.
    pub failed: Vec<(GoalId, Refusal)>,
}

/// The NM's refusal on behalf of a device that did not answer.
fn unanswered(device: DeviceId, cause: RefusalCause) -> Refusal {
    Refusal {
        device,
        component: None,
        cause,
    }
}

/// `goal` failed with `refusal`, unless it failed already.
fn fail(errors: &mut BTreeMap<GoalId, Refusal>, goal: u64, refusal: &Refusal) {
    errors
        .entry(GoalId(goal))
        .or_insert_with(|| refusal.clone());
}

/// One goal's teardown work: its delete primitives grouped per device
/// (the shape `ScriptSet::teardown` and `StagedScripts::teardown` return).
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
    /// between the phases) — deletes are idempotent.
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
    /// Open a transaction runner's span: relays are batched, and each
    /// management round runs its agents at the width of the pass or runner
    /// on the stack, or at [`pool::default_width`] outside both.  Returns
    /// the outer `runner_width`, which the runner restores when it returns.
    fn open_runner(&mut self) -> Option<usize> {
        let outer = self.runner_width;
        self.runner_width.get_or_insert_with(pool::default_width);
        outer
    }

    /// The stage phase of both runners, first half: send every device its
    /// `StageBatch` once.  Returns each device's goals, unanswered, for
    /// [`Self::stage_verdicts`]; the borrowed segments are done with.
    fn send_stage(&mut self, txn: u64, segments: Segments<'_>) -> BTreeMap<DeviceId, Staged> {
        for (device, segs) in &segments {
            self.send_stage_batch(*device, txn, segs);
        }
        (segments.into_iter())
            .map(|(device, segs)| {
                let (goals, verdicts) = (segs.iter().map(|(g, _)| *g).collect(), None);
                (device, Staged { goals, verdicts })
            })
            .collect()
    }

    /// The stage phase's second half: quiesce once, and take each device's
    /// verdicts, journaling a `StageDevice` that is `ok` when the device
    /// answered and refused nothing.
    fn stage_verdicts(
        &mut self,
        txn: u64,
        mut staged: BTreeMap<DeviceId, Staged>,
    ) -> BTreeMap<DeviceId, Staged> {
        if staged.is_empty() {
            return staged;
        }
        self.run_management();
        for (&device, Staged { goals, verdicts }) in &mut staged {
            *verdicts = match self.answers.remove(&(device, TAG_STAGE_BATCH_RESULT, txn)) {
                Some(WireMessage::StageBatchResult { verdicts, .. }) => Some(verdicts),
                _ => None,
            };
            self.count_stale(verdicts.iter().flatten().flat_map(|v| &v.errors));
            let ok = verdicts
                .as_ref()
                .is_some_and(|vs| vs.iter().all(|v| v.errors.is_empty()));
            self.recorder.event(
                self.net.now().as_nanos(),
                TraceKind::StageDevice {
                    txn,
                    device: device.as_u64(),
                    segments: goals.len() as u64,
                    ok,
                },
            );
        }
        self.close_answers();
        staged
    }

    /// Count under `txn.stale_refused` the refusals among a device's answer
    /// that call its transaction stale: a late message's, or a rebuilt NM's
    /// until its txn ids overtake the ones the devices hold.
    fn count_stale<'r>(&self, refusals: impl Iterator<Item = &'r Refusal>) {
        let stale = refusals.filter(|r| r.cause == RefusalCause::StaleTxn);
        match stale.count() {
            0 => {}
            n => self.recorder.inc("txn.stale_refused", n as u64),
        }
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

    /// The commit phase of both runners: send every device of `wave` its
    /// `CommitBatch` for the listed goals, quiesce once, and take each
    /// device's answer, journaling a `CommitDevice` that is `ok` when the
    /// device answered and refused nothing.  A device that did not answer
    /// is absent from the answers and is sent an abort, in case it is only
    /// unreachable (a crashed one drops what it staged at reboot).
    fn commit(
        &mut self,
        txn: u64,
        wave: &BTreeMap<DeviceId, Vec<u64>>,
    ) -> BTreeMap<DeviceId, Vec<SegmentCommit>> {
        let mut answers = BTreeMap::new();
        if wave.is_empty() {
            return answers;
        }
        for (&device, goals) in wave {
            let goals = goals.clone();
            self.send(
                self.nm_host(),
                device,
                &WireMessage::CommitBatch { txn, goals },
            );
        }
        self.run_management();
        for (&device, goals) in wave {
            let answer = match self.answers.remove(&(device, TAG_COMMIT_BATCH_RESULT, txn)) {
                Some(WireMessage::CommitBatchResult { segments, .. }) => Some(segments),
                _ => None,
            };
            let results = answer.iter().flatten().flat_map(|sc| &sc.results);
            self.count_stale(results.filter_map(|r| r.as_ref().err().map(|e| &**e)));
            let ok = answer
                .as_ref()
                .is_some_and(|segs| segs.iter().all(|sc| sc.results.iter().all(Result::is_ok)));
            self.recorder.event(
                self.net.now().as_nanos(),
                TraceKind::CommitDevice {
                    txn,
                    device: device.as_u64(),
                    ok,
                },
            );
            match answer {
                Some(segs) => {
                    answers.insert(device, segs);
                }
                None => self.abort(txn, device, goals.clone()),
            }
        }
        self.close_answers();
        if answers.len() < wave.len() {
            self.run_management();
        }
        answers
    }

    /// Execute many goals' teardown scripts (all-`delete`) as **one**
    /// batched lenient transaction: every touched device is staged once
    /// (all goals' delete segments in one `StageBatch`) and committed once,
    /// so a withdraw- or update-heavy pass costs one stage + one commit
    /// round-trip per device instead of one transaction per goal.
    ///
    /// Teardown semantics stay lenient: devices in `skip` are not contacted
    /// at all, and a device that does not answer either phase is passed
    /// over and its staged deletes aborted — never rolled back, since
    /// deletes are idempotent and a crashed device loses what it staged at
    /// reboot.
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
        let outer = self.open_runner();

        // Deletes always validate, so a device either answers its stage
        // (committable) or is silent (lenient skip).
        let mut wave = BTreeMap::new();
        let sent = self.send_stage(txn, segments);
        for (device, staged) in self.stage_verdicts(txn, sent) {
            match staged.verdicts {
                Some(_) => {
                    wave.insert(device, staged.goals);
                }
                None => {
                    self.abort(txn, device, staged.goals);
                    outcome.skipped.push(device);
                }
            }
        }
        // The commit wave's quiesce carries the aborts; without one, they
        // need their own.
        if wave.is_empty() && !outcome.skipped.is_empty() {
            self.run_management();
        }
        let answers = self.commit(txn, &wave);
        let silent = wave.keys().filter(|d| !answers.contains_key(d));
        outcome.skipped.extend(silent);
        for sc in answers.into_values().flatten() {
            *outcome.per_goal.entry(GoalId(sc.goal)).or_insert(0) += sc.results.len();
        }
        self.runner_width = outer;
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
    /// anything of it is applied.  The goals still live then commit in one
    /// wave: every device holding one of their segments is sent its
    /// `CommitBatch` before the NM quiesces once, and no device waits for
    /// another.  That is sound because a device's `CommitBatch` is one hop
    /// from the NM while a module's relay to it takes at least two
    /// (device → NM → device): every peer has applied its segment before
    /// the first envelope of a negotiation reaches it, as in
    /// [`Self::execute_path`].  Goals crossing the same devices in
    /// opposite directions share the wave too: two goals' exchanges between
    /// one pair of modules are told apart by name, since every message
    /// names the receiving module's pipe (`PipeSpec::peer_pipe` of the
    /// sender's) and pairs only with that pipe, while it waits for a message
    /// of that role; any other message pairs with nothing.  That rule lives
    /// in one place, the exchange table `conman-modules` gives IP, GRE, MPLS
    /// and VLAN.  A goal
    /// refused at any device's commit, or one of whose devices stays
    /// silent, fails, and the failed goals are rolled back together without
    /// disturbing sibling goals.  A transaction for one goal is
    /// `run_batch(&[(goal, &scripts)])`.
    ///
    /// A rollback costs one `AbortBatch` to each device silent at commit,
    /// plus one nested [`Self::run_teardown_batch`] over the failed goals'
    /// teardown mirrors: a `StageBatch` to every device of the wave that
    /// creates something of them, silent or not, a `CommitBatch` to each
    /// that answers it, and nothing when no device creates anything.
    ///
    /// A failed goal's [`Refusal`] in `BatchOutcome::failed` is the first
    /// one its segments met.  Its cause is one of:
    /// - at stage: [`RefusalCause::UnknownModule`],
    ///   [`RefusalCause::PipeInUse`], [`RefusalCause::SwitchWithoutPipe`],
    ///   [`RefusalCause::Module`] (every `ModuleError` a module's `admit`
    ///   raises), [`RefusalCause::MalformedSegment`],
    ///   [`RefusalCause::StaleTxn`] or [`RefusalCause::UnansweredStage`];
    /// - at commit: [`RefusalCause::StaleTxn`], and only there
    ///   [`RefusalCause::NeverStaged`] and [`RefusalCause::UnansweredCommit`].
    pub fn run_batch(&mut self, items: &[(GoalId, &ScriptSet)]) -> BatchOutcome {
        self.run_staged(items.to_vec()).0
    }

    /// The strict runner behind [`Self::run_batch`] and the reconcile
    /// engine's replace step.  It sends every device its `StageBatch`;
    /// then, the typed scripts read for the last time, it consumes `items`
    /// into each goal's [`StagedScripts`], so owned scripts die before the
    /// stage round runs a single agent.  It aborts the goals refused or
    /// unanswered anywhere at stage, commits the live goals in one wave and
    /// rolls the goals that failed there back from their kept frames.
    /// Returns the outcome and the kept frames, in item order.
    pub(crate) fn run_staged<S: Borrow<ScriptSet>>(
        &mut self,
        items: Vec<(GoalId, S)>,
    ) -> (BatchOutcome, Vec<StagedScripts>) {
        let txn = self.goals.next_txn();
        // Coalesce: one segment list per device, goal order preserved.
        let mut segments = Segments::new();
        for (goal, scripts) in &items {
            for ds in &scripts.borrow().scripts {
                segments
                    .entry(ds.device)
                    .or_default()
                    .push((goal.0, ds.primitives.as_slice()));
            }
        }
        self.recorder.inc("txn.batches", 1);
        self.recorder
            .observe("txn.batch.devices", segments.len() as f64);
        let outer = self.open_runner();
        // Each failed goal's first refusal; a goal absent from it is live.
        let mut errors: BTreeMap<GoalId, Refusal> = BTreeMap::new();

        // ---- Phase 1: stage every device once. ------------------------
        // The typed scripts are read for the last time once the frames are
        // sent: each goal keeps its own frame, and owned scripts are freed
        // before any agent stages (and allocates).
        let sent = self.send_stage(txn, segments);
        let (goals, kept): (Vec<GoalId>, Vec<StagedScripts>) = (items.into_iter())
            .map(|(goal, scripts)| (goal, StagedScripts::from(scripts.borrow())))
            .unzip();
        let mut held: BTreeMap<DeviceId, Vec<u64>> = BTreeMap::new();
        for (device, staged) in self.stage_verdicts(txn, sent) {
            match staged.verdicts {
                Some(verdicts) => {
                    for v in &verdicts {
                        if let Some(refusal) = v.errors.first() {
                            fail(&mut errors, v.goal, refusal);
                        }
                    }
                }
                None => {
                    // Silence: crashed, unreachable or its answer lost —
                    // every goal it was sent fails, and is aborted below in
                    // case the device staged it after all.
                    let silence = unanswered(device, RefusalCause::UnansweredStage);
                    for goal in &staged.goals {
                        fail(&mut errors, *goal, &silence);
                    }
                }
            }
            held.insert(device, staged.goals);
        }
        // Abort dead goals' segments on every device sent them; the live
        // ones make the commit wave.
        let mut wave = BTreeMap::new();
        let mut aborted_any = false;
        for (device, goals) in held {
            let (live, dead): (Vec<u64>, Vec<u64>) = goals
                .into_iter()
                .partition(|g| !errors.contains_key(&GoalId(*g)));
            if !dead.is_empty() {
                self.abort(txn, device, dead);
                aborted_any = true;
            }
            if !live.is_empty() {
                wave.insert(device, live);
            }
        }
        if aborted_any {
            self.run_management();
        }
        let live: Vec<bool> = goals.iter().map(|g| !errors.contains_key(g)).collect();

        // ---- Phase 2: commit the live goals in one wave. --------------
        let answers = self.commit(txn, &wave);
        for (device, goals) in &wave {
            match answers.get(device) {
                Some(segs) => {
                    for sc in segs {
                        let refusal = sc.results.iter().find_map(|r| r.as_ref().err());
                        if let Some(refusal) = refusal {
                            fail(&mut errors, sc.goal, refusal);
                        }
                    }
                }
                None => {
                    // Silent mid-commit: every goal it was asked to commit
                    // fails.
                    let silence = unanswered(*device, RefusalCause::UnansweredCommit);
                    for goal in goals {
                        fail(&mut errors, *goal, &silence);
                    }
                }
            }
        }

        // ---- Roll back: the teardown mirrors of the goals that failed at
        // commit, as one nested lenient transaction (a newer txn id) on
        // every device of the wave: one whose answer was lost may have
        // committed, and a crashed one is skipped.  Siblings are untouched:
        // their segments live in disjoint pipe-id blocks. ----------------
        let mirrors: Vec<GoalTeardown> = (goals.iter().zip(&kept).zip(live))
            .filter(|((goal, _), live)| *live && errors.contains_key(goal))
            .map(|((&goal, kept), _)| {
                let deletes = (kept.teardown().into_iter())
                    .filter(|(_, deletes)| !deletes.is_empty())
                    .collect();
                (goal, deletes)
            })
            .collect();
        if mirrors.iter().any(|(_, deletes)| !deletes.is_empty()) {
            self.run_teardown_batch(&mirrors, &[]);
        }

        self.runner_width = outer;
        let committed = (goals.into_iter())
            .filter(|g| !errors.contains_key(g))
            .collect();
        let failed = errors.into_iter().collect();
        (BatchOutcome { committed, failed }, kept)
    }
}
